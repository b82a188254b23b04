"""Per-layer tracing from outside the program.

``traced(tracer)`` replaces module-level names that the rankpath layers
look up at call time (``rankpath.paths.certify``, ``numpy.linalg.svd``, ...)
with timing wrappers, and puts every original object back on exit.  Each
wrapped call is a span; its self time is its duration minus the time of
the spans it directly encloses.  Spans are aggregated per name as they
close rather than stored, because a 40x40 pair opens thousands of them.

A function object imported by name into several modules is looked up in
each of them separately, so each of those names is wrapped; all of them
report under one span name.
"""

from __future__ import annotations

import contextlib
import os
from collections import Counter
from time import perf_counter

import numpy

from rankpath import harness, oracles, paths, polymap

BUILD_PATH = "paths.build_path"
CERTIFY = "paths.certify"
NORMALIZE_PAIR = "paths.normalize_pair"
RESIDUAL = "variety.membership_residual"
PROJECT = "variety.project"
RANK_OF = "variety.rank_of"
EIGENPAIR = "numkernel.leading_nonzero_eigenpair"
COMPLETION = "numkernel.unitary_completion"
SVD = "numkernel.svd"
RUN_TRIALS = "harness.run_trials"
SAMPLE_STRATUM = "harness.sample_stratum"
EMIT_REPORT = "serialize.emit_report"
SHORTEN = "oracles.shorten"
GRAPH_DISTANCE = "oracles.proximity_graph_distance"
SURFACE_DEMO = "polymap.surface_demo"
PULLBACK = "polymap.pullback_residual"
EVALUATE = "polymap.evaluate"

#: (module, attribute, span name) for every wrapped lookup
TARGETS = (
    (paths, "build_path", BUILD_PATH),
    (paths, "certify", CERTIFY),
    (paths, "normalize_pair", NORMALIZE_PAIR),
    (paths, "membership_residual", RESIDUAL),
    (paths, "project", PROJECT),
    (paths, "rank_of", RANK_OF),
    (paths, "leading_nonzero_eigenpair", EIGENPAIR),
    (paths, "unitary_completion", COMPLETION),
    (harness, "run_trials", RUN_TRIALS),
    (harness, "emit_report", EMIT_REPORT),
    (harness, "build_path", BUILD_PATH),
    (harness, "sample_stratum", SAMPLE_STRATUM),
    (harness, "rank_of", RANK_OF),
    (harness, "project", PROJECT),
    (oracles, "shorten", SHORTEN),
    (oracles, "proximity_graph_distance", GRAPH_DISTANCE),
    (oracles, "build_path", BUILD_PATH),
    (oracles, "membership_residual", RESIDUAL),
    (oracles, "project", PROJECT),
    (polymap, "surface_demo", SURFACE_DEMO),
    (polymap, "pullback_residual", PULLBACK),
    (polymap, "evaluate", EVALUATE),
    (polymap, "membership_residual", RESIDUAL),
    (polymap, "proximity_graph_distance", GRAPH_DISTANCE),
    (numpy.linalg, "svd", SVD),
)

#: the graph constructor proximity_graph_distance hands its admitted edges to
CSR_TARGET = (oracles, "csr_matrix")


def _array_bytes(value) -> int:
    if isinstance(value, numpy.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_array_bytes(item) for item in value)
    return 0


class Tracer:
    """Span and counter aggregates for one traced stretch of work.

    ``spans[name]`` is ``[calls, total_s, self_s]``.  ``counts`` holds the
    counters read at layer boundaries: membership residual calls keyed by
    the enclosing span (``caller:<span>``), SVD input elements and bytes
    computed from array sizes, admitted and candidate graph edges, and
    RealFallback certificates returned by ``build_path``, and the size of
    each file ``emit_report`` wrote.
    """

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()
        self._open: list[list] = []

    def parent(self) -> str | None:
        return self._open[-1][0] if self._open else None

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._before(name, args)
            frame = [name, 0.0]
            self._open.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][1] += elapsed
                stats = self.spans.setdefault(name, [0, 0.0, 0.0])
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
            self._after(name, args, result)
            return result

        return wrapper

    def _before(self, name: str, args) -> None:
        if name == RESIDUAL:
            self.counts[f"caller:{self.parent()}"] += 1
        elif name == PROJECT and self.parent() == SHORTEN:
            self.counts["shorten_project_calls"] += 1
        elif name == SVD:
            matrix = numpy.asarray(args[0])
            self.counts["svd_elements"] += matrix.size
            self.counts["svd_bytes"] += matrix.nbytes

    def _after(self, name: str, args, result) -> None:
        if name == SVD:
            self.counts["svd_bytes"] += _array_bytes(result)
        elif name == BUILD_PATH:
            self.counts["fallbacks"] += result[1].has_fallback
        elif name == EMIT_REPORT:
            self.counts["bytes_written"] += os.path.getsize(args[2])

    def wrap_csr(self, fn):
        def wrapper(arg1, shape=None, **kwargs):
            weights = arg1[0]
            nodes = shape[0]
            self.counts["edges_admitted"] += len(weights)
            self.counts["edges_candidate"] += nodes * (nodes - 1) // 2
            return fn(arg1, shape=shape, **kwargs)

        return wrapper

    def total_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block only."""
    saved = []
    try:
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        module, attr = CSR_TARGET
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap_csr(original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ops: Tracer, op_count: int, sweep: Tracer, sweep_count: int) -> dict:
    """Per-layer metrics: ``ops`` totals per op, ``sweep`` totals per sweep.

    A layer the workload does not reach reads 0.
    """
    def per_op_ms(seconds):
        return 1000.0 * _ratio(seconds, op_count)

    def per_op(count):
        return _ratio(count, op_count)

    callers = ops.counts
    oracle_residuals = sum(n for key, n in callers.items() if key.startswith("caller:oracles."))
    return {
        "paths.build_path.self_ms": per_op_ms(ops.self_s(BUILD_PATH)),
        "paths.certify.self_ms": per_op_ms(ops.self_s(CERTIFY)),
        "paths.certify.total_ms": per_op_ms(ops.total_s(CERTIFY)),
        "paths.normalize_pair.self_ms": per_op_ms(ops.self_s(NORMALIZE_PAIR)),
        "paths.normalize_pair.calls": per_op(ops.calls(NORMALIZE_PAIR)),
        "paths.fallback_frac": _ratio(callers["fallbacks"], ops.calls(BUILD_PATH)),
        "variety.membership_residual.ms": per_op_ms(ops.total_s(RESIDUAL)),
        "variety.membership_residual.calls.input": per_op(callers[f"caller:{BUILD_PATH}"]),
        "variety.membership_residual.calls.certify": per_op(callers[f"caller:{CERTIFY}"]),
        "variety.membership_residual.calls.oracles": per_op(oracle_residuals),
        "variety.project.ms": per_op_ms(ops.total_s(PROJECT)),
        "variety.rank_of.ms": per_op_ms(ops.total_s(RANK_OF)),
        "numkernel.svd.ms": per_op_ms(ops.total_s(SVD)),
        "numkernel.svd_calls": per_op(ops.calls(SVD)),
        "numkernel.svd_elements": per_op(callers["svd_elements"]),
        "numkernel.svd_bytes_computed": per_op(callers["svd_bytes"]),
        "numkernel.leading_nonzero_eigenpair.ms": per_op_ms(ops.total_s(EIGENPAIR)),
        "numkernel.unitary_completion.ms": per_op_ms(ops.total_s(COMPLETION)),
        "harness.run_trials.self_ms": per_op_ms(ops.self_s(RUN_TRIALS)),
        "harness.sample_stratum.ms": per_op_ms(ops.total_s(SAMPLE_STRATUM)),
        "serialize.emit_report.ms": per_op_ms(ops.total_s(EMIT_REPORT)),
        "serialize.bytes_written": per_op(callers["bytes_written"]),
        "oracles.shorten.self_ms": per_op_ms(ops.self_s(SHORTEN)),
        "oracles.shorten.project_calls": per_op(callers["shorten_project_calls"]),
        "oracles.proximity_graph_distance.ms": per_op_ms(ops.total_s(GRAPH_DISTANCE)),
        "oracles.edge_checks": per_op(callers[f"caller:{GRAPH_DISTANCE}"]),
        "oracles.edge_admit_ratio": _ratio(callers["edges_admitted"], callers["edges_candidate"]),
        "polymap.surface_demo.ms": 1000.0 * _ratio(sweep.total_s(SURFACE_DEMO), sweep_count),
        "polymap.pullback_residual.ms": 1000.0 * _ratio(sweep.total_s(PULLBACK), sweep_count),
        "polymap.evaluate.calls": _ratio(sweep.calls(EVALUATE), sweep_count),
    }
