"""Seeded Monte Carlo trial runner and report emission.

Per-trial seeds are derived from the master seed by position through a
64-bit avalanche mix (the splitmix64 finalizer), so a report is a pure
function of its configuration and any single trial can be replayed from
its index alone.  Each pair is sampled on its own, and the sampled pairs
are built together in blocks by ``paths.build_paths``, whose results are
each pair's own, so the blocking changes no record.  ``build_paths`` holds
the build's one failure boundary and returns a failing pair's exception as
its result, so the runner catches only what sampling raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numkernel import frobenius_norm
from .paths import (
    ORTHOGONALITY_THRESHOLD,
    build_path,  # noqa: F401  unused here, but per-layer tracing wraps this name
    build_paths,
)
from .serialize import (
    branch_trace_from_json,
    branch_trace_to_json,
    descriptor_from_json,
    descriptor_to_json,
    format_number,
    write_csv,
    write_json,
)
from .variety import (
    DEFAULT_MEMBERSHIP_TOL,
    VarietyDescriptor,
    project,
    rank_of,  # noqa: F401  unused here, but per-layer tracing wraps this name
    sample_stratum,
)

BOUND_SLACK = 1e-9

#: matrix entries the returned paths of one ``build_paths`` call of
#: ``run_trials`` may hold: blocks of pairs are independent, so records do
#: not depend on it, and peak memory stays flat for any number of pairs
_BLOCK_ENTRIES = 2**18

_MASK64 = (1 << 64) - 1


def mix_seed(master_seed: int, index: int) -> int:
    """splitmix64 finalizer of (master_seed + golden-ratio stride * index)."""
    z = (master_seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RankPairStrategy(str, Enum):
    ALL_STRATA_GRID = "AllStrataGrid"
    TOP_STRATUM_ONLY = "TopStratumOnly"
    ADVERSARIAL = "Adversarial"


@dataclass(frozen=True)
class TrialConfig:
    descriptor: VarietyDescriptor
    pairs: int
    master_seed: int
    rank_pair_strategy: RankPairStrategy = RankPairStrategy.ALL_STRATA_GRID
    radius_range: tuple[float, float] = (0.5, 2.0)

    def __post_init__(self):
        if self.pairs < 1:
            raise ValueError("pairs must be >= 1")
        low, high = self.radius_range
        if not 0 < low <= high < math.inf:
            raise ValueError("radius_range must satisfy 0 < min <= max < inf")


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    rank_p: int
    rank_q: int
    outer: float
    length: float
    ratio: float
    certified_bound: float
    branch_trace: tuple
    max_residual: float
    error: str | None = None

    @property
    def has_fallback(self) -> bool:
        """Always False: every route has an a-priori bound.  Kept because the
        benchmark's output checks (``perfbench/workloads.py``) read it."""
        return False

    @property
    def violates_bound(self) -> bool:
        if self.error is not None:
            return False
        return self.ratio > self.certified_bound + BOUND_SLACK


@dataclass(frozen=True)
class TrialReport:
    """Records of one run plus their tallies: bound violations, trials that
    raised (``errors``) and certificates whose residual exceeds
    ``DEFAULT_MEMBERSHIP_TOL`` (``residual_escapes``)."""

    config: TrialConfig
    records: tuple[TrialRecord, ...]
    max_ratio: float
    bound_violations: int
    errors: int
    residual_escapes: int


def _sample_radius(rng: np.random.Generator, radius_range) -> float:
    low, high = radius_range
    return float(rng.uniform(low, high))


def _grid_pair(d, i, rng, radius_range):
    grid = [(rp, rq) for rp in range(d.t) for rq in range(d.t)]
    rank_p, rank_q = grid[i % len(grid)]
    p = _sample(d, rank_p, rng, radius_range)
    q = _sample(d, rank_q, rng, radius_range)
    return p, q


def _sample(d, rank, rng, radius_range):
    if rank == 0:
        return np.zeros(d.shape, dtype=d.field.dtype)
    return sample_stratum(
        d, rank, _sample_radius(rng, radius_range), int(rng.integers(0, 2**63 - 1))
    )


def _orthogonal_tilt(d, rng, radius_range, relative_inner):
    """Rank-1 q whose inner product with a top-stratum p is a set fraction.

    q = radius * u v0^H with v0 the top right singular direction of p and
    u tilted off the matching left direction by exactly the angle that
    makes |<p, q>| = relative_inner * ||p|| * ||q||.
    """
    p = _sample(d, d.max_rank, rng, radius_range)
    u_p, sigma, vh = np.linalg.svd(p)
    v0 = vh[0].conj()
    u0 = u_p[:, 0]
    if d.m == 1:
        ortho = u0
        beta = 1.0
    else:
        ortho = u_p[:, 1]
        # squares that overflow are rescaled, so the norm is right at any radius
        with np.errstate(over="ignore"):
            beta = relative_inner * frobenius_norm(p) / sigma[0]
        beta = min(beta, 1.0)
    u = beta * u0 + math.sqrt(max(0.0, 1.0 - beta * beta)) * ortho
    radius_q = _sample_radius(rng, radius_range)
    q = radius_q * np.outer(u, v0.conj())
    return p, np.asarray(q, dtype=d.field.dtype)


_ADVERSARIAL_KINDS = (
    "coincident",
    "near_coincident",
    "near_orthogonal",
    "scaled",
    "cross_strata",
    "tiny_inner",
)


def adversarial_pair(d: VarietyDescriptor, seed: int, index: int, radius_range=(0.5, 2.0)):
    """One pair from the adversarial cycle, its radii drawn from
    ``radius_range``.

    Cycles through: coincident pairs, near-coincident pairs (q the
    projection of a 1e-6 perturbation of p), near-orthogonal pairs just
    below the dispatch threshold, scaled pairs q = lambda p, cross-strata
    pairs of distinct ranks, and pairs whose inner product sits just above
    the threshold (stressing the coordinate change where it is worst
    conditioned).  On a t = 1 variety, {0}, every kind is the pair (0, 0).
    """
    if d.max_rank == 0:
        zero = np.zeros(d.shape, dtype=d.field.dtype)
        return zero, zero.copy()
    rng = np.random.default_rng(mix_seed(seed, index))
    kind = _ADVERSARIAL_KINDS[index % len(_ADVERSARIAL_KINDS)]
    if kind == "coincident":
        p = _sample(d, d.max_rank, rng, radius_range)
        return p, p.copy()
    if kind == "near_coincident":
        p = _sample(d, d.max_rank, rng, radius_range)
        noise = np.asarray(
            rng.standard_normal(d.shape)
            + (1j * rng.standard_normal(d.shape) if np.iscomplexobj(p) else 0.0),
            dtype=p.dtype,
        )
        with np.errstate(over="ignore"):
            scale = 1e-6 * frobenius_norm(p) / max(frobenius_norm(noise), 1e-300)
        return p, project(p + scale * noise, d)
    if kind == "near_orthogonal":
        return _orthogonal_tilt(d, rng, radius_range, 0.1 * ORTHOGONALITY_THRESHOLD)
    if kind == "scaled":
        p = _sample(d, d.max_rank, rng, radius_range)
        lam = float(rng.choice([0.25, 0.5, 2.0, 10.0]))
        return p, lam * p
    if kind == "cross_strata":
        rank_p = 1 + int(rng.integers(0, d.max_rank))
        rank_q = rank_p
        if d.max_rank >= 2:
            while rank_q == rank_p:
                rank_q = 1 + int(rng.integers(0, d.max_rank))
        else:
            rank_q = 0
        return (
            _sample(d, rank_p, rng, radius_range),
            _sample(d, rank_q, rng, radius_range),
        )
    return _orthogonal_tilt(d, rng, radius_range, 3.0 * ORTHOGONALITY_THRESHOLD)


def adversarial_pairs(d: VarietyDescriptor, seed: int, count: int):
    """The first ``count`` pairs of the adversarial cycle."""
    return [adversarial_pair(d, seed, i) for i in range(count)]


def _sample_pair(cfg: TrialConfig, index: int, seed: int):
    """The pair of trial ``index``, drawn from its own generator, seeded by
    the trial's ``seed``.  The adversarial cycle builds that generator
    itself, from the master seed and the index, so it is built only where
    the strategy reads it."""
    d = cfg.descriptor
    strategy = cfg.rank_pair_strategy
    if strategy is RankPairStrategy.ADVERSARIAL:
        return adversarial_pair(d, cfg.master_seed, index, cfg.radius_range)
    rng = np.random.default_rng(seed)
    if strategy is RankPairStrategy.ALL_STRATA_GRID:
        return _grid_pair(d, index, rng, cfg.radius_range)
    p = _sample(d, d.max_rank, rng, cfg.radius_range)
    return p, _sample(d, d.max_rank, rng, cfg.radius_range)


def _record(seed: int, outcome) -> TrialRecord:
    """The record of one trial: its certificate, or the exception it raised."""
    if isinstance(outcome, Exception):
        return TrialRecord(
            seed=seed,
            rank_p=-1,
            rank_q=-1,
            outer=float("nan"),
            length=float("nan"),
            ratio=float("nan"),
            certified_bound=float("nan"),
            branch_trace=(),
            max_residual=float("nan"),
            error=f"{type(outcome).__name__}: {outcome}",
        )
    _, cert = outcome
    rank_p, rank_q = cert.endpoint_ranks
    return TrialRecord(
        seed=seed,
        rank_p=rank_p,
        rank_q=rank_q,
        outer=cert.outer_distance,
        length=cert.length,
        ratio=cert.ratio,
        certified_bound=cert.certified_bound,
        branch_trace=cert.branch_trace,
        max_residual=cert.max_relative_residual,
    )


def run_trials(cfg: TrialConfig) -> TrialReport:
    """Sample pairs, build and certify paths, aggregate.

    Deterministic given the config: per-trial seeds are derived from the
    trial index.  Each pair is sampled on its own, and the sampled pairs
    are built in blocks of ``build_paths`` of at most ``_BLOCK_ENTRIES``
    entries, so memory stays flat for any number of pairs.  A trial that
    raises, in sampling or in building, is recorded with its error and
    never aborts the run: a sampling failure is caught here, and
    ``build_paths`` returns each pair's exception as its result, never
    raising for a pair.  Records keep the trials' order.
    """
    d = cfg.descriptor
    # a path has at most 2t + 1 breakpoints: two legs per level, and three points more
    block = max(1, _BLOCK_ENTRIES // ((2 * d.t + 1) * d.m * d.n))
    records = []
    for start in range(0, cfg.pairs, block):
        seeds = [mix_seed(cfg.master_seed, i) for i in range(start, min(start + block, cfg.pairs))]
        outcomes = []
        for index, seed in enumerate(seeds, start):
            try:
                outcomes.append(_sample_pair(cfg, index, seed))
            except Exception as exc:  # recorded, never aborts the run
                outcomes.append(exc)
        sampled = [i for i, pair in enumerate(outcomes) if not isinstance(pair, Exception)]
        P, Q = [outcomes[i][0] for i in sampled], [outcomes[i][1] for i in sampled]
        for i, result in zip(sampled, build_paths(P, Q, d)):
            outcomes[i] = result
        records += map(_record, seeds, outcomes)
    ratios = [r.ratio for r in records if r.error is None]
    return TrialReport(
        config=cfg,
        records=tuple(records),
        max_ratio=max(ratios) if ratios else 0.0,
        bound_violations=sum(r.violates_bound for r in records),
        errors=sum(r.error is not None for r in records),
        residual_escapes=sum(r.max_residual > DEFAULT_MEMBERSHIP_TOL for r in records),
    )


def trial_config_to_json(cfg: TrialConfig) -> dict:
    return {
        "descriptor": descriptor_to_json(cfg.descriptor),
        "pairs": cfg.pairs,
        "master_seed": cfg.master_seed,
        "rank_pair_strategy": cfg.rank_pair_strategy.value,
        "radius_range": [cfg.radius_range[0], cfg.radius_range[1]],
    }


def trial_config_from_json(data: dict) -> TrialConfig:
    return TrialConfig(
        descriptor=descriptor_from_json(data["descriptor"]),
        pairs=int(data["pairs"]),
        master_seed=int(data["master_seed"]),
        rank_pair_strategy=RankPairStrategy(data["rank_pair_strategy"]),
        radius_range=(float(data["radius_range"][0]), float(data["radius_range"][1])),
    )


def _nan_to_null(value: float):
    return None if math.isnan(value) else value


def _null_to_nan(value) -> float:
    return float("nan") if value is None else float(value)


def _record_to_json(r: TrialRecord) -> dict:
    data = {
        "seed": r.seed,
        "rank_p": r.rank_p,
        "rank_q": r.rank_q,
        "outer": _nan_to_null(r.outer),
        "length": _nan_to_null(r.length),
        "ratio": _nan_to_null(r.ratio),
        "certified_bound": _nan_to_null(r.certified_bound),
        "branch_trace": branch_trace_to_json(r.branch_trace),
        "max_residual": _nan_to_null(r.max_residual),
    }
    if r.error is not None:
        data["error"] = r.error
    return data


def _record_from_json(data: dict) -> TrialRecord:
    return TrialRecord(
        seed=int(data["seed"]),
        rank_p=int(data["rank_p"]),
        rank_q=int(data["rank_q"]),
        outer=_null_to_nan(data["outer"]),
        length=_null_to_nan(data["length"]),
        ratio=_null_to_nan(data["ratio"]),
        certified_bound=_null_to_nan(data["certified_bound"]),
        branch_trace=branch_trace_from_json(data["branch_trace"]),
        max_residual=_null_to_nan(data["max_residual"]),
        error=data.get("error"),
    )


def report_to_json(report: TrialReport) -> dict:
    return {
        "config": trial_config_to_json(report.config),
        "records": [_record_to_json(r) for r in report.records],
        "max_ratio": report.max_ratio,
        "bound_violations": report.bound_violations,
        "errors": report.errors,
        "residual_escapes": report.residual_escapes,
        # the fixed threshold residual_escapes counts against; not read back
        "membership_tol": DEFAULT_MEMBERSHIP_TOL,
    }


def report_from_json(data: dict) -> TrialReport:
    return TrialReport(
        config=trial_config_from_json(data["config"]),
        records=tuple(_record_from_json(r) for r in data["records"]),
        max_ratio=float(data["max_ratio"]),
        bound_violations=int(data["bound_violations"]),
        errors=int(data["errors"]),
        residual_escapes=int(data["residual_escapes"]),
    )


CSV_HEADER = "seed,rank_p,rank_q,outer,length,ratio,certified_bound,branches,max_residual"


def _csv_number(value: float) -> str:
    if math.isnan(value):
        return "nan"
    return format_number(value)


def emit_report(report: TrialReport, format: str, path) -> None:
    """Write a trial report as JSON (verbatim) or CSV (one row per record)."""
    form = format.upper()
    if form == "JSON":
        write_json(report_to_json(report), path)
    elif form == "CSV":
        rows = [
            [
                str(r.seed),
                str(r.rank_p),
                str(r.rank_q),
                _csv_number(r.outer),
                _csv_number(r.length),
                _csv_number(r.ratio),
                _csv_number(r.certified_bound),
                "|".join(str(tag) for tag in r.branch_trace),
                _csv_number(r.max_residual),
            ]
            for r in report.records
        ]
        write_csv(CSV_HEADER, rows, path)
    else:
        raise ValueError(f"unknown report format {format!r}")
