"""Command-line surface.

Subcommands:
  path    build and certify one on-variety path between two matrices
  trials  run a seeded Monte Carlo batch and write the report
  cusp    inner/outer ratio table for the plane cusp x^3 = y^2
  family  surface demo for the shipped cusp-family map, or pullback
          residual sampling for a user-supplied map and points
  oracle  outer/shortened/constructed sandwich plus the graph estimate

Exit codes: 0 success, 1 usage or I/O or membership errors, 2 when a
trials run certifies at least one bound violation, 3 when a trials run has
no bound violation but some trial raised an error or left the variety
(membership residual above DEFAULT_MEMBERSHIP_TOL).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .harness import (
    RankPairStrategy,
    TrialConfig,
    emit_report,
    run_trials,
)
from .oracles import OracleConfig, graph_upper_bound, sandwich
from .paths import MembershipError, build_path
from .polymap import (
    cusp_family_map,
    cusp_ratio_table,
    evaluate,
    format_poly_map,
    parse_poly_map,
    pullback_residual,
    surface_demo,
)
from .serialize import (
    descriptor_from_json,
    format_number,
    is_number,
    matrix_from_json,
    oracle_config_to_json,
    path_to_json,
    write_csv,
    write_json,
)
from .variety import VarietyDescriptor

RATIO_CSV_HEADER = "s,d_out,d_in,ratio"


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_descriptor(path) -> VarietyDescriptor:
    return descriptor_from_json(_load_json(path))


def _ratio_rows_csv(rows, out_path):
    write_csv(
        RATIO_CSV_HEADER,
        [
            [
                format_number(r.s),
                format_number(r.d_out),
                format_number(r.d_in),
                format_number(r.ratio),
            ]
            for r in rows
        ],
        out_path,
    )


def _cmd_path(args) -> int:
    descriptor = _load_descriptor(args.descriptor)
    p = matrix_from_json(_load_json(args.p))
    q = matrix_from_json(_load_json(args.q))
    try:
        path, cert = build_path(p, q, descriptor)
    except MembershipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_json(path_to_json(descriptor, path, cert), args.out)
    return 0


def _cmd_trials(args) -> int:
    cfg = TrialConfig(
        descriptor=_load_descriptor(args.descriptor),
        pairs=args.pairs,
        master_seed=args.seed,
        rank_pair_strategy=RankPairStrategy(args.strategy),
        radius_range=(args.radius_min, args.radius_max),
    )
    report = run_trials(cfg)
    emit_report(report, "JSON", args.report)
    if args.csv:
        emit_report(report, "CSV", args.csv)
    print(
        f"pairs={cfg.pairs} max_ratio={report.max_ratio:.6f} "
        f"bound_violations={report.bound_violations} "
        f"errors={report.errors} residual_escapes={report.residual_escapes}"
    )
    if report.bound_violations > 0:
        return 2
    return 3 if report.errors or report.residual_escapes else 0


def _log_grid(s_min: float, s_max: float, steps: int):
    if not 0 < s_min <= s_max:
        raise ValueError("need 0 < s-min <= s-max")
    if steps < 1:
        raise ValueError("need steps >= 1")
    return np.geomspace(s_min, s_max, steps)


def _cmd_cusp(args) -> int:
    rows = cusp_ratio_table(_log_grid(args.s_min, args.s_max, args.steps))
    _ratio_rows_csv(rows, args.out)
    return 0


def _cmd_family(args) -> int:
    with open(args.map, "r", encoding="utf-8") as handle:
        poly_map = parse_poly_map(handle.read())
    shipped = format_poly_map(poly_map) == format_poly_map(cusp_family_map())
    if shipped and args.t == 3 and args.points is None:
        rows = surface_demo(_log_grid(args.s_min, args.s_max, args.steps))
        _ratio_rows_csv(rows, args.out)
        return 0
    if args.points is None:
        print(
            "error: --points is required for maps other than the shipped example",
            file=sys.stderr,
        )
        return 1
    descriptor = VarietyDescriptor(poly_map.rows, poly_map.cols, args.t)
    points = _load_json(args.points)
    if not isinstance(points, list):
        raise ValueError("--points must hold a JSON list of points")
    for i, pt in enumerate(points):
        if not (isinstance(pt, list) and all(map(is_number, pt))):
            raise ValueError(
                f"point {i} must be a list of numbers in the double range, got {pt!r}"
            )
    rows = []
    for i, pt in enumerate(points):
        point = np.asarray(pt)
        # a value that overflows has no residual; refused before it is taken
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(evaluate(poly_map, point)).all()
        if not finite:
            raise ValueError(f"point {i}: the map's value at {pt!r} overflows a double")
        rows.append([str(i), format_number(pullback_residual(poly_map, point, descriptor))])
    write_csv("index,residual", rows, args.out)
    return 0


def _cmd_oracle(args) -> int:
    descriptor = _load_descriptor(args.descriptor)
    p = matrix_from_json(_load_json(args.p))
    q = matrix_from_json(_load_json(args.q))
    cfg = OracleConfig(n_samples=args.samples, seed=args.seed)
    try:
        result = sandwich(p, q, descriptor, cfg)
    except MembershipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    graph = graph_upper_bound(p, q, descriptor, cfg)
    write_json(
        {
            "outer": result.outer,
            "shortened": result.shortened,
            "constructed": result.constructed,
            "graph": "unreachable" if math.isinf(graph) else graph,
            "config": oracle_config_to_json(cfg),
        },
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankpath",
        description="certified on-variety paths between bounded-rank matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_path = sub.add_parser("path", help="build one certified path")
    p_path.add_argument("--descriptor", required=True)
    p_path.add_argument("--p", required=True)
    p_path.add_argument("--q", required=True)
    p_path.add_argument("--out", required=True)
    p_path.set_defaults(func=_cmd_path)

    p_trials = sub.add_parser("trials", help="run a seeded trial batch")
    p_trials.add_argument("--descriptor", required=True)
    p_trials.add_argument("--pairs", type=int, required=True)
    p_trials.add_argument("--seed", type=int, required=True)
    p_trials.add_argument(
        "--strategy",
        default=RankPairStrategy.ALL_STRATA_GRID.value,
        choices=[s.value for s in RankPairStrategy],
    )
    p_trials.add_argument("--radius-min", type=float, default=0.5)
    p_trials.add_argument("--radius-max", type=float, default=2.0)
    p_trials.add_argument("--report", required=True)
    p_trials.add_argument("--csv", default=None)
    p_trials.set_defaults(func=_cmd_trials)

    p_cusp = sub.add_parser("cusp", help="plane-cusp ratio table")
    p_cusp.add_argument("--s-min", type=float, required=True)
    p_cusp.add_argument("--s-max", type=float, required=True)
    p_cusp.add_argument("--steps", type=int, required=True)
    p_cusp.add_argument("--out", required=True)
    p_cusp.set_defaults(func=_cmd_cusp)

    p_family = sub.add_parser("family", help="pullback-family demonstrations")
    p_family.add_argument("--map", required=True)
    p_family.add_argument("--t", type=int, default=3)
    p_family.add_argument("--s-min", type=float, default=1e-3)
    p_family.add_argument("--s-max", type=float, default=1e-1)
    p_family.add_argument("--steps", type=int, default=10)
    p_family.add_argument("--points", default=None)
    p_family.add_argument("--out", required=True)
    p_family.set_defaults(func=_cmd_family)

    p_oracle = sub.add_parser("oracle", help="inner-distance sandwich")
    p_oracle.add_argument("--descriptor", required=True)
    p_oracle.add_argument("--p", required=True)
    p_oracle.add_argument("--q", required=True)
    p_oracle.add_argument("--samples", type=int, default=64)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--out", required=True)
    p_oracle.set_defaults(func=_cmd_oracle)

    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; 2 is reserved here
        # for certified bound violations, so usage problems map to 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
