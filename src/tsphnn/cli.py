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

from . import __version__
from .annealing import SaConfig
from .builtin import BUILTIN_INSTANCES, get_builtin
from .errors import InvalidArgumentError, InvalidTourError, TsphnnError, quote
from .hopfield import HopfieldParams, grid_to_text, text_to_grid
from .instance import (
    _lengths_overflow,
    generate_random_instance,
    load_instance,
    read_json,
    read_text,
    save_instance,
)
from .pipeline import METHODS, SUCCESS_METRICS, render_report, solve, sweep
from .svg import render_grid_svg, render_tour_svg
from .tour import Tour


def _resolve_instance(ref: str):
    if ref in BUILTIN_INSTANCES:
        return get_builtin(ref)
    return load_instance(ref)


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
    # Generation checks n first, so n multiplies as a float; the square's
    # longest distance is checked so no file is written that ``solve`` refuses.
    inst = generate_random_instance(args.n, args.seed, args.bound)
    if _lengths_overflow(args.n, math.hypot(args.bound, args.bound)):
        raise InvalidArgumentError(
            f"--bound {args.bound:g} lets tour lengths of {args.n} cities overflow"
        )
    save_instance(inst, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_solve(args) -> int:
    inst = _resolve_instance(args.instance)
    started = time.perf_counter()
    sa = SaConfig(args.t0, args.cooling, args.iters, args.swaps, args.seed)
    report = solve(inst, args.method, sa, _hopfield_params(args, c_pen=args.C, d_pen=args.D))
    if report.hnn_result is not None and args.grid_out:
        with open(args.grid_out, "w", encoding="utf-8") as fh:
            fh.write(grid_to_text(report.hnn_result.grid))

    tour = report.tour
    record = {"method": args.method, "instance": inst.id, "n": inst.n, "seed": args.seed}
    record["valid"] = valid = tour is not None
    if valid:
        record["length"] = report.length
        record["tour"] = tour.order
    record.update(report.extras)
    _emit(record)

    elapsed_ms = 1000 * (time.perf_counter() - started)
    print(f"{args.method} on {inst.id}: elapsed {elapsed_ms:.2f} ms", file=sys.stderr)
    if valid and args.out:
        saved = {key: record[key] for key in ("instance", "method", "seed", "length")}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({**saved, "order": list(tour.order)}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if valid else 1


def _hopfield_params(args, **penalties) -> HopfieldParams:
    """The shared flags' network parameters, plus the command's ``penalties``."""
    return HopfieldParams(
        a_pen=args.A,
        b_pen=args.B,
        threshold=args.threshold,
        max_sweeps=args.max_sweeps,
        seed=args.seed,
        **penalties,
    )


def _parse_grid_list(text: str, flag: str):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise TsphnnError(f"{flag} expects comma-separated numbers, got {quote(text)}")
    if not values:
        raise TsphnnError(f"{flag} must list at least one value")
    return values


def cmd_sweep(args) -> int:
    inst = _resolve_instance(args.instance)
    report = sweep(
        inst,
        _parse_grid_list(args.c_grid, "--c-grid"),
        _parse_grid_list(args.d_grid, "--d-grid"),
        trials=args.trials,
        base=_hopfield_params(args),
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


def _load_tour(path) -> Tour:
    """Tour read from a JSON list or an object with an ``order`` list."""
    payload = read_json(path)
    if isinstance(payload, dict):
        if "order" not in payload:
            raise TsphnnError(f"{path}: missing field 'order'")
        payload = payload["order"]
    try:
        return Tour(payload)
    except InvalidTourError as exc:
        raise InvalidTourError(f"{path}: order: {exc}") from exc


def cmd_plot(args) -> int:
    inst = _resolve_instance(args.instance)
    if args.grid:
        svg = render_grid_svg(text_to_grid(read_text(args.grid), inst.n))
    else:
        tour = _load_tour(args.tour) if args.tour else None
        svg = render_tour_svg(inst, tour)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _add_shared_flags(p) -> None:
    """The flags of ``solve`` and ``sweep``: the instance, the seed and the
    network's settings, with :class:`HopfieldParams`'s defaults."""
    p.add_argument(
        "--instance",
        required=True,
        help=f"instance path or builtin name {sorted(BUILTIN_INSTANCES)}",
    )
    p.add_argument("--seed", type=int, default=HopfieldParams.seed, help="master seed")
    p.add_argument("--A", type=float, default=HopfieldParams.a_pen, help="row penalty")
    p.add_argument("--B", type=float, default=HopfieldParams.b_pen, help="column penalty")
    p.add_argument(
        "--threshold", type=float, default=HopfieldParams.threshold, help="unit threshold"
    )
    p.add_argument(
        "--max-sweeps", type=int, default=HopfieldParams.max_sweeps, help="network sweep budget"
    )


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
    _add_shared_flags(solve)
    solve.add_argument("--method", required=True, choices=METHODS)
    solve.add_argument("--t0", type=float, default=SaConfig.t0, help="SA initial temperature")
    solve.add_argument(
        "--cooling", type=float, default=SaConfig.cooling_rate, help="SA cooling rate"
    )
    solve.add_argument(
        "--iters", type=int, default=SaConfig.iterations, help="SA iteration budget"
    )
    solve.add_argument(
        "--swaps", type=int, default=SaConfig.swap_count, help="SA pairs swapped per move"
    )
    solve.add_argument("--C", type=float, default=HopfieldParams.c_pen, help="count penalty")
    solve.add_argument("--D", type=float, default=HopfieldParams.d_pen, help="distance penalty")
    solve.add_argument("--out", default=None, help="write the tour as JSON here")
    solve.add_argument(
        "--grid-out", default=None, help="write the final activation grid here (hnn)"
    )
    solve.set_defaults(func=cmd_solve)

    sweep_p = sub.add_parser(
        "sweep", help="benchmark a (C, D) penalty grid", formatter_class=fmt
    )
    _add_shared_flags(sweep_p)
    sweep_p.add_argument("--c-grid", required=True, help="comma-separated C values")
    sweep_p.add_argument("--d-grid", required=True, help="comma-separated D values")
    sweep_p.add_argument("--trials", type=int, default=100, help="network trials per cell")
    sweep_p.add_argument(
        "--success-metric", choices=SUCCESS_METRICS, default="valid", help="trial success"
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
    except (TsphnnError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
