"""One entry point per solve method, the hybrid SA -> Hopfield solver and
the parameter-sweep benchmark harness; each refuses an instance whose tour
lengths can overflow.

The hybrid stage chain is: seeded random start, simulated annealing, then
the Hopfield network initialized with the annealed tour's grid encoding.
The final answer is the better of the annealed tour and the network's
decoded tour, so the chain of reported lengths never worsens.

The sweep runs seeded network trials per (C, D) penalty cell and reports
best/mean/worst valid length, success rate and mean sweeps in the five
column layout "Best Mean Worst % Succ. Iter.".  A cell's trials advance in
lockstep on one thread, in blocks of bounded size, each trial with its own
generator, so the report does not depend on how trials are grouped.  A
block's random grids are drawn as one stack, each from its trial's
generator.

Both hand the network distances rescaled to max 1.0, so the penalty
constants keep the same meaning on every instance.
"""

import csv
import io
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .annealing import SaConfig, SaTrace, anneal
from .baselines import greedy_nearest_neighbor, three_opt, two_opt
from .errors import (
    InvalidArgumentError,
    TsphnnError,
    check_choice,
    check_int,
    check_record,
    quote,
)
from .hopfield import (
    HopfieldParams,
    HopfieldResult,
    random_grids,
    run,
    run_lockstep,
)
from .instance import (
    DistanceMatrix,
    Instance,
    distance_matrix,
    normalize_distances,
)
from .tour import Tour, brute_force_optimum, tour_length, tour_to_matrix

METHODS = ("exact", "greedy", "2opt", "3opt", "sa", "hnn", "hybrid")
SUCCESS_METRICS = ("valid", "optimal")
REPORT_FORMATS = ("table", "csv")
REPORT_COLUMNS = ("Best", "Mean", "Worst", "% Succ.", "Iter.")
# A sweep cell's trials run in lockstep in blocks of at most this many grid
# units (trials x n^2, but at least one trial), which bounds the memory of
# the stacked arrays at 256 KB for each float64 stack.  Each lockstep step
# has a fixed NumPy cost, so a block should hold a whole cell where memory
# allows: a 150-trial cell at n = 10 and a 40-trial cell at n = 20 are one
# block each.  Budgets of 2^14 to 2^16 timed alike on such cells; 2^13 was
# the slowest.
BLOCK_ELEMENTS = 1 << 15
# A sweep is refused up front past this many grid units (cells x trials x
# n^2, but always one trial a cell).  At penalty-sweep's measured rate of
# about 0.12 ms an n = 10 trial (1,480 trials in 0.17 s on a 2-core machine
# without numba), 2^30 units are about 20 minutes of work; the largest
# benchmark sweep, cityset1's 8 cells x 150 trials x 100 units, is 120,000.
SWEEP_UNITS = 1 << 30


@dataclass(frozen=True)
class HybridReport:
    instance_id: str
    sa_start_length: float
    sa_length: float
    hnn_valid: bool
    hnn_length: Optional[float]
    final_length: float
    final_tour: Tour
    sa_tour: Tour
    sa_trace: SaTrace
    hnn_result: HopfieldResult
    sa_seed: int
    hopfield_seed: int


@dataclass(frozen=True)
class SolveReport:
    """One :func:`solve` run: the tour (None when the network ends invalid),
    its length on the instance's own distances, the method's extra record
    fields in print order, and the network's result for "hnn"."""

    tour: Optional[Tour]
    length: Optional[float]
    extras: dict
    hnn_result: Optional[HopfieldResult] = None


@dataclass(frozen=True)
class CellStats:
    c_pen: float
    d_pen: float
    best: Optional[float]
    mean: Optional[float]
    worst: Optional[float]
    success_rate: float
    mean_sweeps: float
    trials: int

    @property
    def cell_id(self) -> str:
        return f"C{self.c_pen:g}-D{self.d_pen:g}"


@dataclass(frozen=True)
class BenchmarkReport:
    instance_id: str
    a_pen: float
    b_pen: float
    cells: Tuple[CellStats, ...]
    trials: int
    master_seed: int
    success_metric: str


def _distances(inst: Instance) -> DistanceMatrix:
    """The instance's distance matrix, refused when a tour length can
    overflow: a distance that is already infinite, or n times the largest
    distance past the largest float."""
    with np.errstate(over="ignore"):  # DistanceMatrix refuses an infinite distance
        m = distance_matrix(inst)
    longest = float(m.d.max())
    if math.isinf(m.n * longest):
        raise TsphnnError(
            f"instance {quote(inst.id)}: tour lengths overflow "
            f"({m.n} cities, largest distance {longest:g})"
        )
    return m


def _check_configs(sa: SaConfig, hp: HopfieldParams) -> None:
    """Refuse an ``sa`` or ``hp`` that is not a config record, whether or
    not the method reads it, as the CLI builds both for every method."""
    check_record("sa", sa, SaConfig)
    check_record("hp", hp, HopfieldParams)


def _anneal_from_random(m: DistanceMatrix, sa: SaConfig):
    """The start length and ``anneal``'s (tour, length, trace) from a random
    tour drawn by the generator seeded with ``sa.seed``, which the walk then
    continues: the start rule of "sa" and of the hybrid."""
    rng = np.random.default_rng(sa.seed)
    start = Tour.random(m.n, rng)
    return tour_length(m, start), anneal(m, start, sa, rng=rng)


def solve_hybrid(inst: Instance, sa: SaConfig, hp: HopfieldParams) -> HybridReport:
    """Anneal from a seeded random tour, then refine with the network.

    Invalid network output falls back to the annealed tour, so
    final <= sa <= sa_start holds on every run.  Reported lengths are
    always measured on the instance's own (unscaled) distances.
    """
    _check_configs(sa, hp)
    m = _distances(inst)
    sa_start_length, (sa_tour, sa_length, sa_trace) = _anneal_from_random(m, sa)

    hnn = run(normalize_distances(m), hp, init=tour_to_matrix(sa_tour))
    hnn_length = None
    if hnn.valid:
        hnn_length = tour_length(m, hnn.tour)

    if hnn_length is not None and hnn_length < sa_length:
        final_tour, final_length = hnn.tour, hnn_length
    else:
        final_tour, final_length = sa_tour, sa_length
    return HybridReport(
        instance_id=inst.id,
        sa_start_length=sa_start_length,
        sa_length=sa_length,
        hnn_valid=hnn.valid,
        hnn_length=hnn_length,
        final_length=final_length,
        final_tour=final_tour,
        sa_tour=sa_tour,
        sa_trace=sa_trace,
        hnn_result=hnn,
        sa_seed=sa.seed,
        hopfield_seed=hp.seed,
    )


def solve(
    inst: Instance, method: str, sa: SaConfig = SaConfig(), hp: HopfieldParams = HopfieldParams()
) -> SolveReport:
    """Solve ``inst`` with one of ``METHODS``, as ``tsphnn solve`` does.

    "exact" is the oracle; "2opt" and "3opt" improve the greedy tour from
    city 0; "sa" anneals under ``sa`` from a seeded random tour; "hnn" runs
    the network under ``hp`` from a random grid, on the distances scaled to
    max 1.0; "hybrid" is :func:`solve_hybrid`.
    """
    check_choice("method", method, METHODS)
    _check_configs(sa, hp)
    if method == "hybrid":
        r = solve_hybrid(inst, sa, hp)
        extras = {
            "sa_start_length": r.sa_start_length,
            "sa_length": r.sa_length,
            "hnn_valid": r.hnn_valid,
        }
        if r.hnn_length is not None:
            extras["hnn_length"] = r.hnn_length
        return SolveReport(r.final_tour, r.final_length, extras)
    m = _distances(inst)
    extras, hnn = {}, None
    if method == "exact":
        tour = brute_force_optimum(m)[0]
    elif method == "greedy":
        tour = greedy_nearest_neighbor(m, 0)
    elif method in ("2opt", "3opt"):
        improve = two_opt if method == "2opt" else three_opt
        tour = improve(m, greedy_nearest_neighbor(m, 0))
    elif method == "sa":
        start_length, (tour, _, _) = _anneal_from_random(m, sa)
        extras = {"start_length": start_length}
    else:
        hnn = run(normalize_distances(m), hp)
        extras = {"converged": hnn.converged, "sweeps": hnn.sweeps_used}
        tour = hnn.tour
    return SolveReport(tour, None if tour is None else tour_length(m, tour), extras, hnn)


def sweep(
    inst: Instance,
    c_values: Sequence[float],
    d_values: Sequence[float],
    trials: int,
    base: HopfieldParams,
    seed: int,
    success_metric: str = "valid",
    workers: int = 1,
) -> BenchmarkReport:
    """Seeded network trials from random grids for every (C, D) cell.

    Each trial is scored once, as its block returns: its sweeps count
    toward mean sweeps (an unconverged run has used the whole budget), a
    valid trial's tour is measured once on the raw distances for the length
    statistics, and a converged valid trial succeeds.  With
    ``success_metric="optimal"`` its length must also be at most the
    oracle's plus ``n * 2**-51`` times it, a bound on rounding that counts
    every tour of the optimal length.  Per-trial seeds are derived from
    (master seed, cell index, trial index), so the report is a pure function
    of the master seed.

    A cell's trials run in lockstep on one thread, through
    :func:`~tsphnn.hopfield.run_lockstep`, in blocks of at most
    ``BLOCK_ELEMENTS`` grid units, so a cell of at most
    ``BLOCK_ELEMENTS // n**2`` trials is one block.  Each block's grids come
    from one :func:`~tsphnn.hopfield.random_grids` call.  ``trials`` is
    refused before any trial runs when the sweep's grid units, cells x
    trials x n**2, pass ``SWEEP_UNITS`` (one trial a cell always runs).
    ``workers`` must be >= 1 and changes neither speed nor output.
    """
    check_record("base", base, HopfieldParams)
    try:
        grid = list(c_values), list(d_values)
    except TypeError:
        raise InvalidArgumentError(
            f"c_values and d_values must be iterables of real numbers, got "
            f"{type(c_values).__name__} and {type(d_values).__name__}"
        ) from None
    if not all(grid):
        raise InvalidArgumentError("c_values and d_values must be non-empty")
    cell_params = [replace(base, c_pen=c, d_pen=d) for c in grid[0] for d in grid[1]]
    check_int("workers", workers, 1)
    seed = check_int("seed", seed, 0)
    check_choice("success metric", success_metric, SUCCESS_METRICS)

    m_raw = _distances(inst)
    n = m_raw.n
    trials = check_int("trials", trials, 1, max(1, SWEEP_UNITS // (len(cell_params) * n * n)))
    m_scaled = normalize_distances(m_raw)
    longest = math.inf  # the longest raw length of a converged valid success
    if success_metric == "optimal":
        # Let u = 2^-53 and g = (n-1)*u / (1 - (n-1)*u).  A tour length sums
        # n nonnegative edges in order, n - 1 of them by rounded additions,
        # so it lies within g * L of the tour's exact length L.  The
        # oracle's o, the least such sum, is at least (1 - g) * L* for the
        # exact optimum L*, a tour of length L* sums to at most
        # (1 + g) * L*, and the two differ by at most
        # 2*g/(1 - g) * o <= 4*(n - 1)*u * o.  The margin 4*n*u * o
        # also covers the rounding of the bound's product and sum, each at
        # most u times its value, or 2^-1075 below 2^-1022: at most u * o
        # while o is normal; once it is not, both sums are exact and the
        # optimal tour's is at most o.
        optimum = brute_force_optimum(m_raw)[1]
        longest = optimum + n * 2.0**-51 * optimum

    block = max(1, BLOCK_ELEMENTS // (n * n))
    cells = []
    for cell_index, params in enumerate(cell_params):
        lengths, sweeps_used, successes = [], [], 0
        for first in range(0, trials, block):
            rngs = [
                np.random.default_rng([seed, cell_index, t])
                for t in range(first, min(first + block, trials))
            ]
            for r in run_lockstep(m_scaled, params, random_grids(n, rngs), rngs):
                sweeps_used.append(r.sweeps_used)
                if r.valid:
                    lengths.append(tour_length(m_raw, r.tour))
                    if r.converged and lengths[-1] <= longest:
                        successes += 1
        cells.append(
            CellStats(
                c_pen=params.c_pen,
                d_pen=params.d_pen,
                best=min(lengths) if lengths else None,
                mean=float(np.mean(lengths)) if lengths else None,
                worst=max(lengths) if lengths else None,
                success_rate=successes / trials,
                mean_sweeps=float(np.mean(sweeps_used)),
                trials=trials,
            )
        )
    return BenchmarkReport(
        instance_id=inst.id,
        a_pen=base.a_pen,
        b_pen=base.b_pen,
        cells=tuple(cells),
        trials=trials,
        master_seed=seed,
        success_metric=success_metric,
    )


def render_report(r: BenchmarkReport, format: str = "table") -> str:
    """Render as an aligned text table or as CSV, a ``format`` of
    ``REPORT_FORMATS``.

    Table columns are C, D and ``REPORT_COLUMNS``; cells with no valid run
    show an em dash.  CSV values are written at full precision, so they
    parse back well beyond 6 significant digits.
    """
    if not r.cells:
        raise InvalidArgumentError("report has no cells")
    check_choice("report format", format, REPORT_FORMATS)
    if format == "table":
        lines = [
            f"instance={r.instance_id} A={r.a_pen:g} B={r.b_pen:g} "
            f"trials={r.trials} seed={r.master_seed} metric={r.success_metric}",
            f"{'C':>6} {'D':>6} " + " ".join(f"{name:>9}" for name in REPORT_COLUMNS),
        ]
        for c in r.cells:

            def num(v):
                return "—" if v is None else f"{v:.4f}"

            lines.append(
                f"{c.c_pen:>6g} {c.d_pen:>6g} {num(c.best):>9} {num(c.mean):>9} "
                f"{num(c.worst):>9} {100 * c.success_rate:>9.1f} {c.mean_sweeps:>9.1f}"
            )
        return "\n".join(lines) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "cell",
            "C",
            "D",
            "best",
            "mean",
            "worst",
            "success_rate",
            "mean_sweeps",
            "trials",
        ]
    )
    for c in r.cells:
        writer.writerow(
            [
                c.cell_id,
                repr(float(c.c_pen)),
                repr(float(c.d_pen)),
                "" if c.best is None else repr(c.best),
                "" if c.mean is None else repr(c.mean),
                "" if c.worst is None else repr(c.worst),
                repr(c.success_rate),
                repr(c.mean_sweeps),
                c.trials,
            ]
        )
    return buf.getvalue()
