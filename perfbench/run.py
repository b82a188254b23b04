"""rankpath benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload pairs-large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every number comes from fresh worker
processes (``perfbench/worker.py``) started with one BLAS thread and no
``RANKPATH_THREADS``, so the thread scheduler is not part of what is
measured.  With ``--trace 0`` the program runs untraced and the last line
of output is a JSON object with the end-to-end metrics: timings scaled to
a reference machine speed (``_ref``, see ``perfbench/README.md``), the
median set-up time over SETUP_SAMPLES processes, scaled by the probes of
the timed loop that follows, and peak memory.  With
``--trace 1`` one worker runs a fixed set of rounds plain and traced and
the JSON holds the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  The lines before the JSON give the environment, the
raw timings, the samples beyond the p75, the memory at the end of set-up,
the failure and fallback fractions, the surface sweep time and the report
hashes.  Exits 1 without a JSON line when the program cannot be run or a
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("trials-small", "pairs-large", "oracle")

#: set-up time is the median over this many worker processes
SETUP_SAMPLES = 5
#: a run must finish within this many seconds, workers included
RUN_BUDGET_S = 170.0
#: emitted trial reports go here, inside the checkout
OUT_DIR = ROOT / ".perfbench_out"

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    pass


def worker(args, mode: str, started: float) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "RANKPATH_THREADS"}
    env.update(PINNED_ENV)
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--out-dir", str(OUT_DIR / args.workload),
    ]
    budget = RUN_BUDGET_S - (perf_counter() - started)
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=budget
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker ran past the {RUN_BUDGET_S:.0f} s budget") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise WorkerFailed(f"{mode} worker exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(args, started: float):
    setups = [worker(args, "setup", started)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    run = worker(args, "measure", started)
    setups.append(run["setup_s"])
    env = run["env"]
    print("env: " + " ".join(f"{key}={value}" for key, value in env.items()))
    raw, ref = run["raw"], run["ref"]
    print(
        f"rounds={run['rounds']} latency_samples={run['latency_samples']} "
        f"busy_s={run['busy_s']:.3f} probe_ms={run['probe_ms']:.4f}"
    )
    print(f"op_ms_p75 has {ref['tail_beyond']} of {run['latency_samples']} samples beyond it")
    print(
        f"peak_rss_mb {run['peak_rss_mb']:.2f}: {run['import_rss_mb']:.2f} after imports, "
        f"{run['peak_rss_mb'] - run['import_rss_mb']:.2f} more for inputs and program calls"
    )
    print(
        "raw setup_s samples: " + " ".join(f"{s:.4f}" for s in setups)
        + f"; scaled by {run['speed_scale']:.4f}"
    )
    attempted = run["attempted"]
    print(f"failed_frac = {run['failed'] / attempted:.6g} ({run['failed']} of {attempted})")
    if run["certified"]:
        certified = run["certified"]
        print(f"fallback_frac = {run['fallbacks'] / certified:.6g} ({run['fallbacks']} of {certified})")
    else:
        print("fallback_frac: no certificate reaches the benchmark here; see paths.fallback_frac")
    if run["finale_s"]:
        print(f"sweep_s = {run['finale_s']:.4f} s")
    for digest in run["round0_digests"]:
        if "=" in digest:
            for item in digest.split():
                stem, sha = item.split("=")
                print(f"report_sha256 {stem} {sha}")
    for name in ("ops_per_s", "op_ms_p50", "op_ms_p75"):
        print(f"raw {name} = {raw[name]!r}")
    metrics = {
        "ops_per_s_ref": ref["ops_per_s"],
        "op_ms_p50_ref": ref["op_ms_p50"],
        "op_ms_p75_ref": ref["op_ms_p75"],
        # set-up precedes the timed loop, and the machine's speed drifts over
        # minutes, so set-up is scaled by the mean probe of that loop
        "setup_s": statistics.median(setups) * run["speed_scale"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return run, metrics


def per_layer(args, started: float):
    run = worker(args, "trace", started)
    print(
        f"traced cycles={run['cycles']} of {run['rounds_per_cycle']} rounds, "
        f"output mismatches traced vs plain={run['mismatches']}"
    )
    return run, run["per_layer"]


def declared_units(section: str) -> dict:
    """Metric name to unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (ROOT / "src" / "rankpath" / "__init__.py").is_file():
        print(f"no rankpath sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    units = declared_units("per_layer" if args.trace else "end_to_end")
    try:
        run, values = (per_layer if args.trace else end_to_end)(args, started)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1
    for problem in run["problems"]:
        print(f"FAILED {problem}")
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    correct = run["failed"] == 0 and run.get("mismatches", 0) == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
