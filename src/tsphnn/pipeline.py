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
block's generators are seeded from one SeedSequence hash run over the
whole block, each in the state of ``default_rng([seed, cell, trial])``,
and its random grids are drawn as one stack, each from its trial's
generator.

Both hand the network distances rescaled to max 1.0, so the penalty
constants keep the same meaning on every instance.
"""

import csv
import io
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from ._rounding import U
from .annealing import SaConfig, SaTrace, anneal
from .baselines import greedy_nearest_neighbor, three_opt, two_opt
from .errors import (
    InvalidArgumentError,
    check_choice,
    check_int,
    check_real,
    check_record,
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
# about 0.10 ms an n = 10 trial (1,480 trials in 0.154 s, the median pass
# on a 2-core machine without numba), 2^30 units are about 20 minutes of
# work; the largest benchmark sweep, cityset1's 8 cells x 150 trials x 100
# units, is 120,000.
SWEEP_UNITS = 1 << 30


@dataclass(frozen=True)
class HybridReport:
    """One :func:`solve_hybrid` run: the annealed tour and trace, the
    network's result and its tour's length on the instance's own distances
    (None when invalid).  Every other field is read from these; the final
    tour is the network's only when it is valid and strictly shorter."""

    instance_id: str
    sa_tour: Tour
    sa_trace: SaTrace
    hnn_result: HopfieldResult
    hnn_length: Optional[float]

    @property
    def sa_start_length(self) -> float:
        return self.sa_trace.start_length

    @property
    def sa_length(self) -> float:
        trace = self.sa_trace
        return min(trace.start_length, float(trace.current_length.min()))

    @property
    def hnn_valid(self) -> bool:
        return self.hnn_result.valid

    @property
    def sa_seed(self) -> int:
        return self.sa_trace.config.seed

    @property
    def hopfield_seed(self) -> int:
        return self.hnn_result.p.seed

    @property
    def _network_kept(self) -> bool:
        return self.hnn_valid and self.hnn_length < self.sa_length

    @property
    def final_tour(self) -> Tour:
        return self.hnn_result.tour if self._network_kept else self.sa_tour

    @property
    def final_length(self) -> float:
        return self.hnn_length if self._network_kept else self.sa_length


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
    """One (C, D) cell of a :func:`sweep`; a length is None when no trial
    ended valid.  Reals are kept as nonnegative Python floats and the count
    as an int; anything else is refused with ``InvalidArgumentError``."""

    c_pen: float
    d_pen: float
    best: Optional[float]
    mean: Optional[float]
    worst: Optional[float]
    success_rate: float
    mean_sweeps: float
    trials: int

    def __post_init__(self):
        lengths = ("best", "mean", "worst")
        for name in ("c_pen", "d_pen", "success_rate", "mean_sweeps") + lengths:
            value = getattr(self, name)
            if not (value is None and name in lengths):
                object.__setattr__(self, name, check_real(name, value, 0, closed=True))
        object.__setattr__(self, "trials", check_int("trials", self.trials, 1))

    @property
    def cell_id(self) -> str:
        return f"C{self.c_pen:g}-D{self.d_pen:g}"


@dataclass(frozen=True)
class BenchmarkReport:
    """One :func:`sweep`, checked as :class:`CellStats` is; ``cells`` is a
    tuple of ``CellStats``, which may be empty, each of the report's
    ``trials``."""

    instance_id: str
    a_pen: float
    b_pen: float
    cells: Tuple[CellStats, ...]
    trials: int
    master_seed: int
    success_metric: str

    def __post_init__(self):
        check_record("instance_id", self.instance_id, str)
        for name in ("a_pen", "b_pen"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0, closed=True))
        trials = check_int("trials", self.trials, 1)
        object.__setattr__(self, "trials", trials)
        check_record("cells", self.cells, tuple)
        for cell in self.cells:
            check_record("cell", cell, CellStats)
            if cell.trials != trials:
                raise InvalidArgumentError(
                    f"cell {cell.cell_id} has {cell.trials} trials, the report {trials}"
                )
        object.__setattr__(self, "master_seed", check_int("master_seed", self.master_seed, 0))
        check_choice("success metric", self.success_metric, SUCCESS_METRICS)


def _check_configs(sa: SaConfig, hp: HopfieldParams) -> None:
    """Refuse an ``sa`` or ``hp`` that is not a config record, whether or
    not the method reads it, as the CLI builds both for every method."""
    check_record("sa", sa, SaConfig)
    check_record("hp", hp, HopfieldParams)


def _anneal_from_random(m: DistanceMatrix, sa: SaConfig):
    """``anneal``'s (tour, length, trace) from a random tour drawn by the
    generator seeded with ``sa.seed``, which the walk then continues: the
    start rule of "sa" and of the hybrid."""
    rng = np.random.default_rng(sa.seed)
    return anneal(m, Tour.random(m.n, rng), sa, rng=rng)


def solve_hybrid(inst: Instance, sa: SaConfig, hp: HopfieldParams) -> HybridReport:
    """Anneal from a seeded random tour, then refine with the network.

    Invalid network output falls back to the annealed tour, so
    final <= sa <= sa_start holds on every run.  Reported lengths are
    always measured on the instance's own (unscaled) distances.
    """
    _check_configs(sa, hp)
    m = distance_matrix(inst)
    sa_tour, _, sa_trace = _anneal_from_random(m, sa)
    hnn = run(normalize_distances(m), hp, init=tour_to_matrix(sa_tour))
    hnn_length = None if hnn.tour is None else tour_length(m, hnn.tour)
    return HybridReport(inst.id, sa_tour, sa_trace, hnn, hnn_length)


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
    m = distance_matrix(inst)
    extras, hnn = {}, None
    if method == "exact":
        tour = brute_force_optimum(m)[0]
    elif method == "greedy":
        tour = greedy_nearest_neighbor(m, 0)
    elif method in ("2opt", "3opt"):
        improve = two_opt if method == "2opt" else three_opt
        tour = improve(m, greedy_nearest_neighbor(m, 0))
    elif method == "sa":
        tour, _, trace = _anneal_from_random(m, sa)
        extras = {"start_length": trace.start_length}
    else:
        hnn = run(normalize_distances(m), hp)
        extras = {"converged": hnn.converged, "sweeps": hnn.sweeps_used}
        tour = hnn.tour
    return SolveReport(tour, None if tour is None else tour_length(m, tour), extras, hnn)


class _StateWords(ISeedSequence):
    """A seed sequence that hands a bit generator state words hashed
    beforehand; ``PCG64`` asks for its 4 ``uint64`` words, which must be one
    C-contiguous array."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


# NumPy's SeedSequence hash: a pool of 4 32-bit words, these constants and
# a shift of 16 (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list:
    """The little-endian 32-bit words of a nonnegative integer, as
    SeedSequence reads it: 0 is one word."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _consts(init: int, mult: int, steps: int) -> np.ndarray:
    """The values a SeedSequence hash constant takes over ``steps`` hash
    steps from ``init``, as a ``uint32`` column of ``steps + 1`` rows."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix over ``len(consts) - 1`` steps, one a row of
    the result: step j xors ``values`` with ``consts[j]`` and multiplies by
    ``consts[j + 1]``."""
    h = values ^ consts[:-1]
    h *= consts[1:]
    return h ^ (h >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words ``x`` with hashed words ``y``."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _trial_rngs(seed: int, cell_index: int, first: int, stop: int) -> List[np.random.Generator]:
    """The generators of trials ``first..stop-1`` of cell ``cell_index``,
    each in the state of ``np.random.default_rng([seed, cell_index, t])``.

    SeedSequence's hash runs once for the block, on ``uint32`` arrays with
    one column per trial: the entropy is the words of ``seed``, then those
    of ``cell_index``, then ``t``, which is always one word because
    ``trials`` is at most ``SWEEP_UNITS`` = 2^30.  Each trial's ``PCG64``
    is then seeded from its 4 hashed state words.  Array arithmetic wraps
    silently where NumPy scalars would warn on overflow, so the hash
    constants are masked Python integers until they enter an array.  On a
    2-core machine this cost about 3 us a trial in a 150-trial block,
    against 12-20 us for one ``default_rng`` call, and about 0.1 ms for a
    block of 1 to 3 trials (n >= 91), small beside one trial there.
    """
    prefix = _words(seed) + _words(cell_index)
    # zero rows pad the entropy to the pool's 4 words, as SeedSequence does
    entropy = np.zeros((max(4, len(prefix) + 1), stop - first), dtype=np.uint32)
    entropy[: len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[len(prefix)] = np.arange(first, stop)
    # 4 hash steps fill the pool, 12 mix it and 4 mix in each later word
    consts = _consts(_INIT_A, _MULT_A, 4 * len(entropy))
    pool = _hash(entropy[:4], consts[:5])
    step = 4
    # mix every pool word into the others, then the entropy past the pool
    for src in range(4):
        others = [dst for dst in range(4) if dst != src]
        pool[others] = _mix(pool[others], _hash(pool[src], consts[step : step + 4]))
        step += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hash(word, consts[step : step + 5]))
        step += 4
    # generate_state(4, np.uint64): 8 words cycling the pool, paired low word first
    state = _hash(np.tile(pool, (2, 1)), _consts(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    words = np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)
    return [np.random.Generator(np.random.PCG64(_StateWords(w))) for w in words]


def _optimal_limit(n: int, optimum: float) -> float:
    """The longest length of an ``n``-city tour that the sweep counts as
    optimal, given the oracle's ``optimum`` o: o + 4*n*U * o.

    By the summation lemma of :mod:`._rounding`, a tour length lies within
    g = gamma_{n-1} times the tour's exact length, so o >= (1 - g) * L* for
    the exact optimum L*, and a tour of length L* sums to at most
    (1 + g) * L* <= o + 4*(n - 1)*U * o.  The extra U * o covers the limit's
    two roundings while o is normal; a subnormal o is exact, as is then the
    optimal tour's sum, at most o.
    """
    return optimum + 4 * n * U * optimum


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
    ``success_metric="optimal"`` its length must also be at most
    :func:`_optimal_limit` of the oracle's, which counts every tour of the
    optimal length.  Per-trial seeds are derived from (master seed, cell
    index, trial index), so the report is a pure function of the master seed.

    A cell's trials run in lockstep on one thread, through
    :func:`~tsphnn.hopfield.run_lockstep`, in blocks of at most
    ``BLOCK_ELEMENTS`` grid units, so a cell of at most
    ``BLOCK_ELEMENTS // n**2`` trials is one block.  Each block's
    generators come from one :func:`_trial_rngs` call, which hashes the
    block's seeds together, and each equals
    ``np.random.default_rng([seed, cell_index, t])``; its grids come from
    one :func:`~tsphnn.hopfield.random_grids` call.  ``trials`` is
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

    m_raw = distance_matrix(inst)
    n = m_raw.n
    trials = check_int("trials", trials, 1, max(1, SWEEP_UNITS // (len(cell_params) * n * n)))
    m_scaled = normalize_distances(m_raw)
    longest = math.inf  # the longest raw length of a converged valid success
    if success_metric == "optimal":
        longest = _optimal_limit(n, brute_force_optimum(m_raw)[1])

    block = max(1, BLOCK_ELEMENTS // (n * n))
    cells = []
    for cell_index, params in enumerate(cell_params):
        lengths, sweeps_used, successes = [], [], 0
        for first in range(0, trials, block):
            rngs = _trial_rngs(seed, cell_index, first, min(first + block, trials))
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
    check_record("r", r, BenchmarkReport)
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
    rows = [
        {
            "cell": c.cell_id,
            "C": repr(float(c.c_pen)),
            "D": repr(float(c.d_pen)),
            "best": "" if c.best is None else repr(c.best),
            "mean": "" if c.mean is None else repr(c.mean),
            "worst": "" if c.worst is None else repr(c.worst),
            "success_rate": repr(c.success_rate),
            "mean_sweeps": repr(c.mean_sweeps),
            "trials": c.trials,
        }
        for c in r.cells
    ]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
