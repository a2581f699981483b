"""Hybrid SA -> Hopfield solver and the parameter-sweep benchmark harness.

The hybrid stage chain is: seeded random start, simulated annealing, then
the Hopfield network initialized with the annealed tour's grid encoding.
The final answer is the better of the annealed tour and the network's
decoded tour, so the chain of reported lengths never worsens.

The sweep runs seeded network trials per (C, D) penalty cell and reports
best/mean/worst valid length, success rate and mean sweeps in the five
column layout "Best Mean Worst % Succ. Iter.".  A cell's trials advance in
lockstep on one thread, in blocks of bounded size, each trial with its own
generator, so the report does not depend on how trials are grouped.

Both hand the network distances rescaled to max 1.0, so the penalty
constants keep the same meaning on every instance.
"""

import csv
import io
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .annealing import SaConfig, SaTrace, anneal
from .errors import InvalidArgumentError
from .hopfield import (
    HopfieldParams,
    HopfieldResult,
    random_grid,
    run,
    run_lockstep,
)
from .instance import (
    DistanceMatrix,
    Instance,
    distance_matrix,
    normalize_distances,
    tour_length,
)
from .tour import Tour, brute_force_optimum, tour_to_matrix

REPORT_COLUMNS = ("Best", "Mean", "Worst", "% Succ.", "Iter.")
# A sweep cell's trials run in lockstep in blocks of at most this many grid
# units (trials x n^2, but at least one trial), which bounds the memory of
# the stacked arrays.
BLOCK_ELEMENTS = 1 << 13


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
    seed_scheme: str = "default_rng([master_seed, cell_index, trial_index])"


def solve_hybrid(inst: Instance, sa: SaConfig, hp: HopfieldParams) -> HybridReport:
    """Anneal from a seeded random tour, then refine with the network.

    Invalid network output falls back to the annealed tour, so
    final <= sa <= sa_start holds on every run.  Reported lengths are
    always measured on the instance's own (unscaled) distances.
    """
    m = distance_matrix(inst)
    rng = np.random.default_rng(sa.seed)
    start = Tour.random(m.n, rng)
    sa_start_length = tour_length(m, start)
    sa_tour, sa_length, sa_trace = anneal(m, start, sa, rng=rng)

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


def _outcome(
    result: HopfieldResult,
    m_raw: DistanceMatrix,
    params: HopfieldParams,
    success_metric: str,
    optimum: Optional[float],
):
    """Score one network trial: (valid_length_or_None, success_flag, sweeps_charged).

    A valid trial's tour is measured once, on the raw distances; the
    network-scale ``result.length`` is never read.
    """
    length = None
    if result.valid:
        length = tour_length(m_raw, result.tour)
    success = result.converged and result.valid
    if success_metric == "optimal":
        success = success and optimum is not None and length <= optimum + 1e-9
    sweeps = result.sweeps_used if result.converged else params.max_sweeps
    return length, success, sweeps


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

    Success means the run converged to a valid permutation grid (or, with
    ``success_metric="optimal"``, additionally hit the exact optimum).
    Length statistics cover valid runs only; mean sweeps covers all runs,
    with unconverged runs counted at the full budget.  Per-trial seeds are
    derived from (master seed, cell index, trial index), so the report is a
    pure function of the master seed.

    A cell's trials run in lockstep on one thread, through
    :func:`~tsphnn.hopfield.run_lockstep`, in blocks of at most
    ``BLOCK_ELEMENTS`` grid units; each block is scored as it ends.
    ``workers`` must be >= 1 and changes neither speed nor output.
    """
    if len(c_values) == 0 or len(d_values) == 0:
        raise InvalidArgumentError("c_values and d_values must be non-empty")
    if trials < 1:
        raise InvalidArgumentError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise InvalidArgumentError(f"workers must be >= 1, got {workers}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    if success_metric not in ("valid", "optimal"):
        raise InvalidArgumentError(f"unknown success metric {success_metric!r}")

    m_raw = distance_matrix(inst)
    m_scaled = normalize_distances(m_raw)
    optimum = None
    if success_metric == "optimal":
        optimum = brute_force_optimum(m_raw)[1]

    n = m_raw.n
    block = max(1, BLOCK_ELEMENTS // (n * n))
    cells = []
    cell_params = [
        replace(base, c_pen=float(c), d_pen=float(d)) for c in c_values for d in d_values
    ]
    for cell_index, params in enumerate(cell_params):
        results = []
        for first in range(0, trials, block):
            rngs = [
                np.random.default_rng([seed, cell_index, t])
                for t in range(first, min(first + block, trials))
            ]
            grids = [random_grid(n, rng) for rng in rngs]
            results += [
                _outcome(r, m_raw, params, success_metric, optimum)
                for r in run_lockstep(m_scaled, params, grids, rngs)
            ]

        lengths = [r[0] for r in results if r[0] is not None]
        successes = sum(1 for r in results if r[1])
        sweeps_all = [r[2] for r in results]
        cells.append(
            CellStats(
                c_pen=params.c_pen,
                d_pen=params.d_pen,
                best=min(lengths) if lengths else None,
                mean=float(np.mean(lengths)) if lengths else None,
                worst=max(lengths) if lengths else None,
                success_rate=successes / trials,
                mean_sweeps=float(np.mean(sweeps_all)),
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
    """Render as an aligned text table or as CSV.

    Table columns are C, D and ``REPORT_COLUMNS``; cells with no valid run
    show an em dash.  CSV values are written at full precision, so they
    parse back well beyond 6 significant digits.
    """
    if not r.cells:
        raise InvalidArgumentError("report has no cells")
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
    if format == "csv":
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
    raise InvalidArgumentError(f"unknown report format {format!r}")
