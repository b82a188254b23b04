"""The benchmark's workloads: inputs made from a seed, timed calls, output checks.

Every workload is a closed loop with one caller: the next call starts when
the previous one has returned.  Its inputs are made here from the
benchmark seed; the program only receives those matrices or a
``TrialConfig``.  The warm-up calls of set-up use inputs made from a fixed
seed, the same for every benchmark seed.  A call is timed on its own; its
output checks run after the clock stops.  Calls look the program's
functions up on their modules at call time (``paths.build_path``, not a
name bound at import), so the traced run's wrappers see them.

Why each workload exists, and which per-layer metric should move which
end-to-end metric, is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from rankpath import harness, oracles, paths, polymap
from rankpath.harness import RankPairStrategy, TrialConfig
from rankpath.numkernel import ScalarField
from rankpath.oracles import OracleConfig
from rankpath.variety import VarietyDescriptor, sample_stratum

C, R = ScalarField.COMPLEX, ScalarField.REAL

#: a ratio may exceed its certified bound by this much (the harness's slack)
BOUND_SLACK = harness.BOUND_SLACK
#: worst membership residual a certificate may report
RESIDUAL_CEILING = 1e-8
#: slack on the sandwich order and on the graph estimate (as in the tests)
ORDER_SLACK = 1e-9
#: fitted log-log slope band of the surface sweep (as in tests/test_polymap.py)
SLOPE_BAND = (-1.3, -0.7)

#: seed of the warm-up inputs.  It is fixed, so the warm-up calls timed in
#: ``setup_s`` are the same for every benchmark seed and their cost does not
#: vary with it.
WARMUP_SEED = 0
#: rounds that one traced cycle runs (each plain and traced), so per-layer
#: values cover several pairs of each shape
TRACE_ROUNDS = 6


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def _top_stratum_pair(d: VarietyDescriptor, rng: np.random.Generator):
    p = sample_stratum(d, d.max_rank, float(rng.uniform(0.5, 2.0)), _draw_seed(rng))
    q = sample_stratum(d, d.max_rank, float(rng.uniform(0.5, 2.0)), _draw_seed(rng))
    return p, q


def _label(d: VarietyDescriptor) -> str:
    return f"{d.m}x{d.n}-t{d.t}-{d.field.value}"


@dataclass
class Outcome:
    """What the checks made of one call's output."""

    ops: int
    failed: int = 0
    #: ops whose certificate the benchmark reads, and how many of those fell back
    certified: int = 0
    fallbacks: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)


def _failed(ops: int, label: str, exc: Exception) -> Outcome:
    return Outcome(ops, failed=ops, problems=[f"{label}: raised {type(exc).__name__}: {exc}"])


def _certificate_problems(label, ratio, bound, has_fallback, residual) -> list[str]:
    problems = []
    if not has_fallback and ratio > bound + BOUND_SLACK:
        problems.append(f"{label}: ratio {ratio!r} above bound {bound!r}")
    if not residual <= RESIDUAL_CEILING:
        problems.append(f"{label}: residual {residual!r} off the variety")
    return problems


class PathCall:
    """``build_path`` on one pair: one op."""

    ops = 1

    def __init__(self, d: VarietyDescriptor, p: np.ndarray, q: np.ndarray):
        self.d, self.p, self.q = d, p, q
        self.label = f"build_path {_label(d)}"

    def run(self):
        return paths.build_path(self.p, self.q, self.d)

    def check(self, result) -> Outcome:
        if isinstance(result, Exception):
            return _failed(1, self.label, result)
        path, cert = result
        problems = _certificate_problems(
            self.label,
            cert.ratio,
            cert.certified_bound,
            cert.has_fallback,
            cert.max_relative_residual,
        )
        if not (np.array_equal(path.start, self.p) and np.array_equal(path.end, self.q)):
            problems.append(f"{self.label}: path endpoints differ from p and q")
        digest = repr(
            (
                cert.outer_distance,
                cert.length,
                cert.ratio,
                cert.certified_bound,
                [str(tag) for tag in cert.branch_trace],
                cert.max_relative_residual,
            )
        )
        return Outcome(1, int(bool(problems)), 1, int(cert.has_fallback), digest, problems)


class OracleCall:
    """``sandwich`` plus ``graph_upper_bound`` on one pair: one op."""

    ops = 1

    def __init__(self, d, p, q, cfg: OracleConfig):
        self.d, self.p, self.q, self.cfg = d, p, q, cfg
        self.label = f"oracle {_label(d)}"

    def run(self):
        return (
            oracles.sandwich(self.p, self.q, self.d, self.cfg),
            oracles.graph_upper_bound(self.p, self.q, self.d, self.cfg),
        )

    def check(self, result) -> Outcome:
        if isinstance(result, Exception):
            return _failed(1, self.label, result)
        bounds, estimate = result
        problems = []
        if not (
            bounds.outer <= bounds.shortened + ORDER_SLACK
            and bounds.shortened <= bounds.constructed + ORDER_SLACK
        ):
            problems.append(f"{self.label}: sandwich order broken: {bounds}")
        if not estimate >= bounds.outer - ORDER_SLACK:
            problems.append(f"{self.label}: graph estimate {estimate!r} below outer {bounds.outer!r}")
        digest = repr((bounds.outer, bounds.shortened, bounds.constructed, estimate))
        return Outcome(1, int(bool(problems)), digest=digest, problems=problems)


class TrialsCall:
    """``run_trials`` then ``emit_report`` (JSON and CSV) per config: one op per pair."""

    def __init__(self, configs: list[TrialConfig], out_dir: Path):
        self.configs = configs
        self.files = []
        for cfg in configs:
            stem = f"{_label(cfg.descriptor)}-{cfg.rank_pair_strategy.value}"
            self.files.append((out_dir / f"{stem}.json", out_dir / f"{stem}.csv"))
        self.ops = sum(cfg.pairs for cfg in configs)
        self.label = "run_trials"

    def run(self):
        reports = []
        for cfg, (json_path, csv_path) in zip(self.configs, self.files):
            report = harness.run_trials(cfg)
            harness.emit_report(report, "JSON", json_path)
            harness.emit_report(report, "CSV", csv_path)
            reports.append(report)
        return reports

    def check(self, result) -> Outcome:
        if isinstance(result, Exception):
            return _failed(self.ops, self.label, result)
        outcome = Outcome(self.ops)
        hashes = []
        for cfg, report, (json_path, csv_path) in zip(self.configs, result, self.files):
            label = f"trials {json_path.stem}"
            problems = []
            bad = 0
            for index, record in enumerate(report.records):
                found = self._record_problems(record, f"{label}[{index}]")
                bad += bool(found)
                problems += found
                outcome.certified += record.error is None
                outcome.fallbacks += record.has_fallback
            data = json_path.read_bytes()
            hashes.append(f"{json_path.stem}={hashlib.sha256(data).hexdigest()}")
            try:
                written = len(json.loads(data)["records"])
            except (ValueError, KeyError, TypeError):
                written = -1
            rows = len(csv_path.read_text(encoding="utf-8").splitlines()) - 1
            if written != cfg.pairs or rows != cfg.pairs:
                problems.append(f"{label}: {written} JSON records, {rows} CSV rows, {cfg.pairs} pairs")
                bad = cfg.pairs
            outcome.failed += bad
            outcome.problems += problems
        outcome.digest = " ".join(hashes)
        return outcome

    @staticmethod
    def _record_problems(record, label: str) -> list[str]:
        if record.error is not None:
            return [f"{label}: raised {record.error}"]
        return _certificate_problems(
            label, record.ratio, record.certified_bound, record.has_fallback, record.max_residual
        )


class SweepCall:
    """The fixed ``surface_demo`` sweep over s-values: one op."""

    ops = 1
    label = "surface_demo"

    def __init__(self, s_values):
        self.s_values = s_values

    def run(self):
        return polymap.surface_demo(self.s_values)

    def check(self, result) -> Outcome:
        if isinstance(result, Exception):
            return _failed(1, self.label, result)
        problems = []
        slope = polymap.fit_loglog_slope(result)
        low, high = SLOPE_BAND
        if not low <= slope <= high:
            problems.append(f"{self.label}: log-log slope {slope!r} outside [{low}, {high}]")
        if not all(math.isfinite(row.ratio) for row in result):
            problems.append(f"{self.label}: non-finite ratio")
        digest = repr([(row.s, row.d_in) for row in result])
        return Outcome(1, int(bool(problems)), digest=digest, problems=problems)


@dataclass
class Workload:
    """Rounds of timed calls, made on demand, warm-up calls run during
    set-up, and calls run once after the timed rounds (``finale``).

    ``make_round(i)`` builds round ``i`` from the benchmark seed and ``i``
    alone, so a round is the same whenever it is made, and a run holds only
    the round it is timing rather than a pool of inputs.  The traced run
    cycles over the first ``trace_rounds`` rounds.
    """

    make_round: Callable[[int], list]
    warmups: list
    finale: list = field(default_factory=list)
    trace_rounds: int = TRACE_ROUNDS


def _round_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


TRIALS_DESCRIPTORS = (
    VarietyDescriptor(4, 4, 3, C),
    VarietyDescriptor(8, 8, 5, C),
    VarietyDescriptor(20, 20, 10, R),
)
TRIALS_STRATEGIES = (RankPairStrategy.ALL_STRATA_GRID, RankPairStrategy.ADVERSARIAL)
TRIALS_PAIRS = 16

PAIRS_LARGE_DESCRIPTORS = (
    VarietyDescriptor(100, 100, 3, C),
    VarietyDescriptor(200, 150, 4, R),
    VarietyDescriptor(40, 40, 20, C),
)

ORACLE_DESCRIPTORS = (VarietyDescriptor(6, 6, 4, C), VarietyDescriptor(8, 8, 5, R))
SWEEP_S_VALUES = tuple(float(s) for s in np.geomspace(1e-3, 1e-1, 10))


def trials_small(seed: int, out_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    configs = [
        TrialConfig(d, TRIALS_PAIRS, _draw_seed(rng), strategy)
        for d in TRIALS_DESCRIPTORS
        for strategy in TRIALS_STRATEGIES
    ]
    warm = np.random.default_rng(WARMUP_SEED)
    warmups = [
        TrialsCall(
            [TrialConfig(d, 1, _draw_seed(warm), RankPairStrategy.TOP_STRATUM_ONLY)], out_dir
        )
        for d in TRIALS_DESCRIPTORS
    ]
    # every round is the same six configs, so one traced round covers them all
    return Workload(lambda index: [TrialsCall(configs, out_dir)], warmups, trace_rounds=1)


def pairs_large(seed: int, out_dir: Path) -> Workload:
    def make_round(index: int) -> list:
        rng = _round_rng(seed, index)
        return [PathCall(d, *_top_stratum_pair(d, rng)) for d in PAIRS_LARGE_DESCRIPTORS]

    warm = np.random.default_rng(WARMUP_SEED)
    warmups = [PathCall(d, *_top_stratum_pair(d, warm)) for d in PAIRS_LARGE_DESCRIPTORS]
    return Workload(make_round, warmups)


def oracle(seed: int, out_dir: Path) -> Workload:
    def call(d, rng):
        p, q = _top_stratum_pair(d, rng)
        return OracleCall(d, p, q, OracleConfig(seed=_draw_seed(rng)))

    def make_round(index: int) -> list:
        rng = _round_rng(seed, index)
        return [call(d, rng) for d in ORACLE_DESCRIPTORS]

    warm = np.random.default_rng(WARMUP_SEED)
    warmups = [call(d, warm) for d in ORACLE_DESCRIPTORS]
    return Workload(make_round, warmups, finale=[SweepCall(SWEEP_S_VALUES)])


WORKLOADS = {"trials-small": trials_small, "pairs-large": pairs_large, "oracle": oracle}
