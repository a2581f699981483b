"""Command-line front end: generate, solve, sweep, plot.

Exit codes: 0 success, 1 the method ran but produced no valid tour,
2 usage or input error.  The machine-readable key=value record goes to
stdout and is byte-deterministic for fixed arguments; human-oriented
notes and timing go to stderr.
"""

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .annealing import SaConfig, anneal
from .baselines import greedy_nearest_neighbor, three_opt, two_opt
from .builtin import BUILTIN_INSTANCES, get_builtin
from .errors import InvalidArgumentError, InvalidTourError, TsphnnError
from .hopfield import HopfieldParams, grid_to_text, run, text_to_grid
from .instance import (
    distance_matrix,
    generate_random_instance,
    load_instance,
    normalize_distances,
    read_json,
    read_text,
    save_instance,
    tour_length,
)
from .pipeline import render_report, solve_hybrid, sweep
from .svg import render_grid_svg, render_tour_svg
from .tour import Tour, brute_force_optimum

METHODS = ("exact", "greedy", "2opt", "3opt", "sa", "hnn", "hybrid")


def _resolve_instance(ref: str):
    if ref in BUILTIN_INSTANCES:
        return get_builtin(ref)
    return load_instance(ref)


def _distances(inst):
    """The instance's distance matrix, refused when a tour length can
    overflow: a distance that is already infinite, or n times the largest
    distance past the largest float."""
    with np.errstate(over="ignore"):  # DistanceMatrix refuses an infinite distance
        m = distance_matrix(inst)
    longest = float(m.d.max())
    if math.isinf(m.n * longest):
        raise TsphnnError(
            f"instance {inst.id!r}: tour lengths overflow "
            f"({m.n} cities, largest distance {longest:g})"
        )
    return m


def _emit(record: dict) -> None:
    for key, value in record.items():
        if isinstance(value, float):
            value = repr(value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        print(f"{key}={value}")


def cmd_gen(args) -> int:
    if math.isinf(args.n * math.hypot(args.bound, args.bound)):
        raise InvalidArgumentError(
            f"--bound {args.bound:g} lets tour lengths of {args.n} cities overflow"
        )
    inst = generate_random_instance(args.n, args.seed, args.bound)
    save_instance(inst, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_solve(args) -> int:
    inst = _resolve_instance(args.instance)
    m = _distances(inst)
    started = time.perf_counter()

    record = {
        "method": args.method,
        "instance": inst.id,
        "n": m.n,
        "seed": args.seed,
    }
    tour = None
    extras = {}

    if args.method == "exact":
        tour, _ = brute_force_optimum(m)
    elif args.method == "greedy":
        tour = greedy_nearest_neighbor(m, 0)
    elif args.method == "2opt":
        tour = two_opt(m, greedy_nearest_neighbor(m, 0))
    elif args.method == "3opt":
        tour = three_opt(m, greedy_nearest_neighbor(m, 0))
    elif args.method == "sa":
        cfg = _sa_config(args)
        rng = np.random.default_rng(cfg.seed)
        start = Tour.random(m.n, rng)
        extras["start_length"] = tour_length(m, start)
        tour, _, _ = anneal(m, start, cfg, rng=rng)
    elif args.method == "hnn":
        hp = _hopfield_params(args)
        result = run(normalize_distances(m), hp)
        extras["converged"] = result.converged
        extras["sweeps"] = result.sweeps_used
        tour = result.tour
        if args.grid_out:
            with open(args.grid_out, "w", encoding="utf-8") as fh:
                fh.write(grid_to_text(result.grid))
    elif args.method == "hybrid":
        report = solve_hybrid(inst, _sa_config(args), _hopfield_params(args))
        extras["sa_start_length"] = report.sa_start_length
        extras["sa_length"] = report.sa_length
        extras["hnn_valid"] = report.hnn_valid
        if report.hnn_length is not None:
            extras["hnn_length"] = report.hnn_length
        tour = report.final_tour

    valid = tour is not None
    record["valid"] = valid
    if valid:
        record["length"] = tour_length(m, tour)
        record["tour"] = tour.order
    record.update(extras)
    _emit(record)

    elapsed_ms = 1000 * (time.perf_counter() - started)
    print(f"{args.method} on {inst.id}: elapsed {elapsed_ms:.2f} ms", file=sys.stderr)
    if valid and args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "instance": inst.id,
                    "method": args.method,
                    "seed": args.seed,
                    "order": list(tour.order),
                    "length": record["length"],
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
    return 0 if valid else 1


def _sa_config(args) -> SaConfig:
    return SaConfig(
        t0=args.t0,
        cooling_rate=args.cooling,
        iterations=args.iters,
        swap_count=args.swaps,
        seed=args.seed,
    )


def _hopfield_params(args) -> HopfieldParams:
    return HopfieldParams(
        a_pen=args.A,
        b_pen=args.B,
        c_pen=args.C,
        d_pen=args.D,
        threshold=args.threshold,
        max_sweeps=args.max_sweeps,
        seed=args.seed,
    )


def _parse_grid_list(text: str, flag: str):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise TsphnnError(f"{flag} expects comma-separated numbers, got {text!r}")
    if not values:
        raise TsphnnError(f"{flag} must list at least one value")
    return values


def cmd_sweep(args) -> int:
    inst = _resolve_instance(args.instance)
    _distances(inst)  # refuses an instance whose tour lengths overflow
    base = HopfieldParams(
        a_pen=args.A,
        b_pen=args.B,
        threshold=args.threshold,
        max_sweeps=args.max_sweeps,
        seed=args.seed,
    )
    report = sweep(
        inst,
        _parse_grid_list(args.c_grid, "--c-grid"),
        _parse_grid_list(args.d_grid, "--d-grid"),
        trials=args.trials,
        base=base,
        seed=args.seed,
        success_metric=args.success_metric,
        workers=args.workers,
    )
    sys.stdout.write(render_report(report, "table"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_report(report, "csv"))
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _load_tour(path, n: int) -> Tour:
    """Tour read from a JSON list or an object with an ``order`` list."""
    payload = read_json(path)
    if isinstance(payload, dict):
        if "order" not in payload:
            raise TsphnnError(f"{path}: missing field 'order'")
        payload = payload["order"]
    try:
        tour = Tour(payload)
    except InvalidTourError as exc:
        raise InvalidTourError(f"{path}: order: {exc}") from exc
    if tour.n != n:
        raise TsphnnError(f"{path}: order has {tour.n} cities but instance has {n}")
    return tour


def cmd_plot(args) -> int:
    inst = _resolve_instance(args.instance)
    if args.grid:
        svg = render_grid_svg(text_to_grid(read_text(args.grid), inst.n))
    else:
        tour = _load_tour(args.tour, inst.n) if args.tour else None
        svg = render_tour_svg(inst, tour)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsphnn",
        description="Euclidean TSP via Hopfield network, simulated annealing, "
        "their hybrid, and classical baselines.",
    )
    parser.add_argument("--version", action="version", version=f"tsphnn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    gen = sub.add_parser("gen", help="generate a random instance file", formatter_class=fmt)
    gen.add_argument("--n", type=int, required=True, help="number of cities (>= 3)")
    gen.add_argument("--seed", type=int, default=0, help="generation seed")
    gen.add_argument(
        "--bound", type=float, default=1.0, help="side length of the coordinate square"
    )
    gen.add_argument("--out", required=True, help="output instance path")
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser(
        "solve", help="solve an instance with one method", formatter_class=fmt
    )
    solve.add_argument(
        "--instance",
        required=True,
        help=f"instance path or builtin name {sorted(BUILTIN_INSTANCES)}",
    )
    solve.add_argument("--method", required=True, choices=METHODS)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--t0", type=float, default=1.0, help="SA initial temperature")
    solve.add_argument("--cooling", type=float, default=0.999, help="SA cooling rate")
    solve.add_argument("--iters", type=int, default=20000, help="SA iteration budget")
    solve.add_argument("--swaps", type=int, default=1, help="SA pairs swapped per move")
    solve.add_argument("--A", type=float, default=100.0, help="row penalty")
    solve.add_argument("--B", type=float, default=100.0, help="column penalty")
    solve.add_argument("--C", type=float, default=90.0, help="count penalty")
    solve.add_argument("--D", type=float, default=100.0, help="distance penalty")
    solve.add_argument("--threshold", type=float, default=0.0, help="unit threshold")
    solve.add_argument("--max-sweeps", type=int, default=200)
    solve.add_argument("--out", default=None, help="write the tour as JSON here")
    solve.add_argument(
        "--grid-out", default=None, help="write the final activation grid here (hnn)"
    )
    solve.set_defaults(func=cmd_solve)

    sweep_p = sub.add_parser(
        "sweep", help="benchmark a (C, D) penalty grid", formatter_class=fmt
    )
    sweep_p.add_argument("--instance", required=True)
    sweep_p.add_argument("--c-grid", required=True, help="comma-separated C values")
    sweep_p.add_argument("--d-grid", required=True, help="comma-separated D values")
    sweep_p.add_argument("--trials", type=int, default=100)
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument("--A", type=float, default=100.0)
    sweep_p.add_argument("--B", type=float, default=100.0)
    sweep_p.add_argument("--threshold", type=float, default=0.0)
    sweep_p.add_argument("--max-sweeps", type=int, default=200)
    sweep_p.add_argument(
        "--success-metric", choices=("valid", "optimal"), default="valid"
    )
    sweep_p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="must be >= 1; trials run in lockstep on one thread, so this "
        "changes neither speed nor output",
    )
    sweep_p.add_argument("--out", default=None, help="write the report CSV here")
    sweep_p.set_defaults(func=cmd_sweep)

    plot = sub.add_parser(
        "plot", help="render an SVG of cities, a tour, or a grid", formatter_class=fmt
    )
    plot.add_argument("--instance", required=True)
    plot.add_argument("--tour", default=None, help="tour JSON (from solve --out)")
    plot.add_argument("--grid", default=None, help="activation grid text file")
    plot.add_argument("--out", required=True, help="output SVG path")
    plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TsphnnError, OSError, MemoryError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
