"""One benchmark process: set up a workload, then time it plain or traced.

Started by ``perfbench/run.py`` with the BLAS thread count pinned; prints
one JSON object as its last line of output.  Modes:

* ``setup``: import, make round 0's inputs, run one warm-up call per
  shape on inputs from a fixed seed, and report how long that took;
* ``measure``: set up, then run timed rounds of calls with no tracing for
  ``--seconds``, and the workload's closing calls once;
* ``trace``: set up, then run the first few rounds (a fixed count, the
  workload's ``trace_rounds``) each as a plain and a traced pass (which
  of the two goes first alternates), repeating that cycle until
  ``--seconds`` have passed; then run the closing calls plain and traced
  once.  Report per-layer metrics per op, the tracing overhead, and
  whether the traced passes returned the same outputs as the plain ones.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import rankpath  # noqa: E402
from layertrace import Tracer, layer_metrics, traced  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

#: most failure descriptions carried back to the caller
MAX_PROBLEMS = 5
#: The reported tail percentile: the highest of p75, p90 and p99 that has at
#: least ten samples beyond it in every workload at the configured run
#: length (``pairs-large`` gets about 75 samples, ``oracle`` about 45).  It is
#: fixed rather than chosen per run, because a run on a slow machine gets
#: fewer samples, and a percentile that slid down with the sample count
#: would hide the slowdown.
TAIL_PERCENTILE = 75

_probe_rng = numpy.random.default_rng(0)
PROBE_MATRICES = [
    _probe_rng.standard_normal((24, 24)) + 1j * _probe_rng.standard_normal((24, 24))
    for _ in range(8)
]
PROBE_LOOP = 20000
PROBES_PER_CALL = 2
#: a fixed scale, about the probe's mean on a quiet moment of the 2-core
#: machine the baseline was recorded on; the ``_ref`` metrics are timings
#: scaled to a machine whose probe takes this long
PROBE_REFERENCE_S = 0.0022


def invoke(call):
    """Run one call; an exception is its result, so the loop keeps going."""
    try:
        return call.run()
    except Exception as exc:  # counted as a failed op by call.check
        return exc


class Tally:
    """Ops attempted and failed, certificates read and fallbacks among them,
    and the first few problems."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.certified = 0
        self.fallbacks = 0
        self.problems: list[str] = []

    def add(self, outcome: Outcome) -> None:
        self.ops += outcome.ops
        self.failed += outcome.failed
        self.certified += outcome.certified
        self.fallbacks += outcome.fallbacks
        self.problems += outcome.problems[: MAX_PROBLEMS - len(self.problems)]


def run_pass(calls, tally: Tally, after_call=None):
    """Time each call alone and check it after the clock stops.

    Returns the seconds of each call and the digests of its outputs.
    ``after_call`` runs after each call's check, outside the clock.
    """
    elapsed, digests = [], []
    for call in calls:
        start = perf_counter()
        result = invoke(call)
        elapsed.append(perf_counter() - start)
        outcome = call.check(result)
        tally.add(outcome)
        digests.append(outcome.digest)
        if after_call is not None:
            after_call()
    return elapsed, digests


def probe() -> float:
    """Mean seconds of PROBES_PER_CALL reference probes: fixed SVDs and a Python loop.

    The probe runs no rankpath code, so it times the machine, not the
    program.  Other tenants of a shared host slow both, in bursts of a few
    seconds.  Each call's time is scaled by the probes taken just before and
    just after it, which removes most of that drift from run to run.
    """
    start = perf_counter()
    for _ in range(PROBES_PER_CALL):
        for matrix in PROBE_MATRICES:
            numpy.linalg.svd(matrix, compute_uv=False)
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i % 7
    return (perf_counter() - start) / PROBES_PER_CALL


def tail(latencies: list[float]):
    """The TAIL_PERCENTILE latency and how many samples lie beyond it."""
    if len(latencies) < 2:
        return latencies[0], 0
    value = statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(x > value for x in latencies)


def summarize(seconds: list[float], ops: list[int]) -> dict:
    """Throughput, p50 and p75 of per-op milliseconds, one sample per call."""
    latencies = [1000.0 * s / n for s, n in zip(seconds, ops)]
    value, beyond = tail(latencies)
    return {
        "ops_per_s": sum(ops) / sum(seconds),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p75": value,
        "tail_beyond": beyond,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, first_round, seconds: float, tally: Tally) -> dict:
    """Timed rounds from round 0 on, each made just before it runs, until
    ``seconds`` have passed; then the closing calls once."""
    elapsed, ops, around = [], [], []
    before = probe()

    def probe_after_call():
        nonlocal before
        after = probe()
        around.append(0.5 * (before + after))
        before = after

    deadline = perf_counter() + seconds
    digests = []
    calls, index = first_round, 0
    while True:
        seconds_taken, round_digests = run_pass(calls, tally, probe_after_call)
        elapsed += seconds_taken
        ops += [call.ops for call in calls]
        if index == 0:
            digests = round_digests
        index += 1
        if perf_counter() >= deadline:
            break
        calls = workload.make_round(index)
    finale_s = sum(run_pass(workload.finale, tally)[0])
    scaled = [s * PROBE_REFERENCE_S / p for s, p in zip(elapsed, around)]
    return {
        "rounds": index,
        "latency_samples": len(elapsed),
        "busy_s": sum(elapsed),
        "probe_ms": 1000.0 * statistics.fmean(around),
        "speed_scale": PROBE_REFERENCE_S / statistics.fmean(around),
        "raw": summarize(elapsed, ops),
        "ref": summarize(scaled, ops),
        "finale_s": finale_s,
        "round0_digests": digests,
        "peak_rss_mb": peak_rss_mb(),
    }


def trace(workload, first_round, seconds: float, tally: Tally) -> dict:
    """Cycle over the first ``workload.trace_rounds`` rounds, each once plain
    and once traced, until ``seconds`` have passed; then the closing calls.

    Only whole cycles run, so per-op counts repeat exactly for a seed.
    """
    cycle = [first_round] + [workload.make_round(i) for i in range(1, workload.trace_rounds)]
    ops_tracer, finale_tracer = Tracer(), Tracer()
    plain_s = traced_s = 0.0
    mismatches = 0
    passes = itertools.count()

    def plain_and_traced(calls, tracer, traced_first):
        nonlocal plain_s, traced_s, mismatches
        for tracing in (traced_first, not traced_first):
            if tracing:
                with traced(tracer):
                    busy, seen = run_pass(calls, tally)
                traced_s += sum(busy)
            else:
                busy, plain = run_pass(calls, tally)
                plain_s += sum(busy)
        mismatches += sum(a != b for a, b in zip(plain, seen))

    cycles = 0
    deadline = perf_counter() + seconds
    while cycles == 0 or perf_counter() < deadline:
        for calls in cycle:
            plain_and_traced(calls, ops_tracer, traced_first=next(passes) % 2 == 1)
        cycles += 1
    if workload.finale:
        plain_and_traced(workload.finale, finale_tracer, traced_first=False)
    op_count = cycles * sum(call.ops for calls in cycle for call in calls)
    metrics = layer_metrics(ops_tracer, op_count, finale_tracer, int(bool(workload.finale)))
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return {
        "cycles": cycles,
        "rounds_per_cycle": len(cycle),
        "mismatches": mismatches,
        "per_layer": metrics,
    }


def blas_threads():
    """Threads the bundled OpenBLAS will use, or None where it cannot be asked."""
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    for lib in libs:
        try:
            return int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return None


def environment(seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "RANKPATH_THREADS": os.environ.get("RANKPATH_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    if Path(rankpath.__file__).resolve().parent != ROOT / "src" / "rankpath":
        print(f"rankpath imported from {rankpath.__file__}, not this checkout", file=sys.stderr)
        return 2
    args.out_dir.mkdir(parents=True, exist_ok=True)
    import_rss_mb = peak_rss_mb()
    tally = Tally()
    workload = WORKLOADS[args.workload](args.seed, args.out_dir)
    first_round = workload.make_round(0)
    run_pass(workload.warmups, tally)
    setup_s = perf_counter() - START

    result = {"setup_s": setup_s}
    if args.mode == "measure":
        result.update(measure(workload, first_round, args.seconds, tally))
        result["import_rss_mb"] = import_rss_mb
        result["env"] = environment(args.seed)
    elif args.mode == "trace":
        result.update(trace(workload, first_round, args.seconds, tally))
    result.update(
        attempted=tally.ops,
        failed=tally.failed,
        certified=tally.certified,
        fallbacks=tally.fallbacks,
        problems=tally.problems,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
