"""Simulated annealing over tour space.

Moves swap k disjoint position pairs; worsening moves are accepted with the
Metropolis probability exp(-delta/T) under a geometric cooling schedule.
The solver reports the best tour seen rather than the final walker state
(the final state is kept on the trace).

A step is decided exactly: the candidate's in-order length and
:func:`acceptance_probability` at the step's :func:`temperature_at`.  To
spare that work on the many steps that fail, :func:`anneal` first screens
windows of upcoming steps in NumPy from the O(k) edges each swap changes,
or from a table of the tour's swap deltas while the tour stands still, and
rejects a step without touching the tour only where a written error bound
proves the exact step would reject it too; every other step, ties
included, takes the exact step.  The screen's rejection cuts are computed
from an upper bound on each step's temperature, so the exact schedule is
evaluated only for the steps that reach :func:`acceptance_probability` and
for a trace whose temperatures are read.  An exact step whose length
difference already reaches its cut is rejected before the exponential.  So
the answers are the exact step's, bit for bit.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Tuple

import numpy as np

from . import _kernels
from .errors import InvalidArgumentError, InvalidTemperatureError, TsphnnError
from .instance import DistanceMatrix
from .tour import Tour

TEMPERATURE_FLOOR = 1e-12
CHUNK = 2048  # steps whose uniforms `anneal` draws at once
# `anneal` screens steps only once this many have passed since the last
# acceptance: while acceptances come closer together, the exact step alone
# is cheaper than a screen whose window an acceptance cuts short.
SCREEN_GAP = 16
# The most steps whose changed edges one window gathers: per step, gathers
# of 2048 steps cost 50-90 % more than gathers of 512 (n = 50, k = 1 and 3).
WINDOW = 512
# The trace keeps three 8-byte records per step, and a fourth once its
# temperatures are read, so this caps it at 160 MB; 250 times the CLI's
# default of 20,000 iterations.
MAX_ITERATIONS = 5_000_000


@dataclass(frozen=True)
class SaConfig:
    """Annealing schedule: start temperature, geometric cooling rate,
    iteration budget, pairs swapped per move, and RNG seed."""

    t0: float
    cooling_rate: float
    iterations: int
    swap_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.t0 < np.inf:
            raise InvalidTemperatureError(
                f"t0 must be positive and finite, got {self.t0}"
            )
        if not 0 < self.cooling_rate < 1:
            raise TsphnnError(
                f"cooling_rate must be in (0, 1), got {self.cooling_rate}"
            )
        if self.iterations < 1:
            raise TsphnnError(f"iterations must be >= 1, got {self.iterations}")
        if self.iterations > MAX_ITERATIONS:
            raise InvalidArgumentError(
                f"iterations must be <= {MAX_ITERATIONS} (the trace takes 32 bytes "
                f"per step), got {self.iterations}"
            )
        if self.swap_count < 1:
            raise InvalidArgumentError(
                f"swap_count must be >= 1, got {self.swap_count}"
            )
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be >= 0, got {self.seed}")


def temperature_at(step: int, cfg: SaConfig) -> float:
    """The geometric schedule t0 * rate^step, floored to avoid division by
    zero: max(t0 * pow(rate, step), TEMPERATURE_FLOOR).

    The one definition of the schedule, and the temperature every exact
    step and every trace uses."""
    temp = cfg.t0 * cfg.cooling_rate**step
    return temp if temp >= TEMPERATURE_FLOOR else TEMPERATURE_FLOOR


@dataclass(frozen=True, eq=False)
class SaTrace:
    """Per-iteration schedule and length records plus the final walker state.

    ``temperature``, each step's :func:`temperature_at` under ``config``,
    is computed on first read and then kept; a caller that never reads it,
    such as the CLI, never pays for it.  Two traces compare equal only when
    they are the same object.
    """

    iteration: np.ndarray
    current_length: np.ndarray
    best_length: np.ndarray
    final_tour: Tour
    final_length: float
    config: SaConfig = field(repr=False)

    @cached_property
    def temperature(self) -> np.ndarray:
        count = len(self.iteration)
        temps = map(temperature_at, range(count), repeat(self.config))
        return np.fromiter(temps, dtype=np.float64, count=count)

    def to_csv(self) -> str:
        lines = ["iteration,temperature,current,best"]
        for i in range(len(self.iteration)):
            lines.append(
                f"{int(self.iteration[i])},{float(self.temperature[i])!r},"
                f"{float(self.current_length[i])!r},{float(self.best_length[i])!r}"
            )
        return "\n".join(lines) + "\n"


def swap_cities(t: Tour, k: int, rng: np.random.Generator) -> Tour:
    """Exchange the cities at k disjoint randomly chosen position pairs.

    Returns a new tour; applying the same pairs again restores the input.
    """
    n = t.n
    if k < 1 or 2 * k > n:
        raise InvalidArgumentError(f"k={k} out of range 1..{n // 2} for n={n}")
    out = _kernels.swap_positions(t.as_array(), k, rng.random(2 * k))
    return Tour(tuple(int(v) for v in out))


def acceptance_probability(e: float, e_new: float, t: float) -> float:
    """1.0 for non-worsening candidates, else the Metropolis factor
    exp(-(e_new - e) / t).  ``np.exp``, not ``math.exp``: the two differ in
    the last bit on a few per cent of inputs, and the walk's answers are
    defined by this one."""
    if not t > 0:
        raise InvalidTemperatureError(f"temperature must be positive, got {t}")
    if e_new <= e:
        return 1.0
    return float(np.exp(-(e_new - e) / t))


def _temperature_bounds(cfg: SaConfig, first: int, count: int) -> np.ndarray:
    """Upper bounds T' >= T = :func:`temperature_at` for steps ``first``
    .. ``first + count - 1``, from ``np.power``, whose last bits may differ
    from ``pow``'s.

    Let R = rate^step exactly and u = 2^-53.  Assume ``pow`` and
    ``np.power`` each within 2^9 ulp of R, far above their few ulp: within
    2^-43 * R + 2^-1065 of R, the last term covering subnormal powers.
    Then pow's P and np.power's P' satisfy P <= (P' + a) * (1 + 2^-41),
    with a = 2^-1060.  The bound is T' = max(fl(fl(t0 * fl(P' + a)) * (1 +
    e)), TEMPERATURE_FLOOR) with e = 2^-40.  If fl(t0 * P) is below the
    floor, T is the floor, and T' >= T.  Otherwise fl(t0 * P) <= t0 * P *
    (1 + u), and t0 * fl(P' + a) >= t0 * P * (1 - u) / (1 + 2^-41) is
    normal too, so each of the three roundings in T' loses a factor of at
    most 1 - u, or overflows to an infinite bound.  As (1 + e) * (1 - u)^3
    >= (1 + 2^-41) * (1 + u), T' >= T.
    """
    steps = np.arange(first, first + count, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore"):
        bounds = cfg.t0 * (np.power(cfg.cooling_rate, steps) + 2.0**-1060) * (1 + 2.0**-40)
    return np.maximum(bounds, TEMPERATURE_FLOOR)


def _screen_band(m: DistanceMatrix, k: int) -> float:
    """Half-width of the band around a step's edge delta outside which the
    delta decides the sign of the walk's own length difference.

    Let u = 2^-53, gamma_j = j*u / (1 - j*u) <= 2*j*u and M = max d.  While
    2*n*M is finite no partial sum overflows.  A tour length is the in-order
    sum of n terms in [0, M], so it lies within gamma_n * n * M of the exact
    sum.  A k-pair swap changes only the (at most 4k) edges at positions
    p - 1 and p of its picks p, so the exact difference of the two sums is
    the exact sum of those edges' differences.  The edge delta
    (:func:`_edge_deltas`) adds up the 4k rounded differences (zero for
    repeated edges), each of two terms in [0, M], in one sum whose order
    does not matter: a swap-delta table's entry sums a one-pair swap's
    four in the order of its pair (a, b), a < b, not of the step's picks.
    Each difference passes through at most 4k - 1 rounded additions, so
    the delta lies within gamma_{4k+1} * 8k * M of the exact sum.  So

        |(cand_len - cur_len) - delta| <= 2*gamma_n*n*M + gamma_{4k+1}*8k*M
                                       <= 4*u*(n^2 + 4k*(4k + 1))*M.

    The returned product rounds once, by a factor of at most 1 - u, which
    the factor 2 in gamma_j <= 2*j*u covers.  Infinite, so that nothing is
    screened, where a length could overflow: two lengths summed to inf tie,
    whatever their edges.
    """
    n = m.n
    d_max = float(m.d.max())
    if not 2.0 * n * d_max < np.inf:
        return np.inf
    return 2.0**-51 * (n * n + 4 * k * (4 * k + 1)) * d_max


def _changed_edges(picks: np.ndarray, n: int) -> np.ndarray:
    """For each row of ``picks``, the tour edges its swap changes.

    Returns a (4, rows, 4k) array of positions (head, tail, new_head,
    new_tail): an edge runs from the city at position head to the one at
    tail = head + 1 (mod n), and after the swap from the city now at
    new_head to the one at new_tail, positions in the tour before the swap.
    These are the edges into and out of each pick.  The edge into pick p is
    also the edge out of pick p - 1 when that is a pick; its first listing
    then runs between the same cities before and after, and adds nothing to
    a delta.
    """
    width = picks.shape[1]
    rows = np.arange(len(picks))[:, None]
    source = np.empty((len(picks), n), dtype=picks.dtype)
    source[:] = np.arange(n, dtype=picks.dtype)
    source[rows, picks[:, 0::2]] = picks[:, 1::2]
    source[rows, picks[:, 1::2]] = picks[:, 0::2]
    head = np.concatenate([(picks - 1) % n, picks], axis=1)
    tail = (head + 1) % n
    new_head, new_tail = source[rows, head], source[rows, tail]
    twice = np.zeros(head.shape, dtype=bool)
    twice[:, :width] = new_head[:, :width] != head[:, :width]
    new_head[twice], new_tail[twice] = head[twice], tail[twice]
    return np.stack([head, tail, new_head, new_tail])


def _edge_deltas(d: np.ndarray, tour: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """For each row of ``edges`` from :func:`_changed_edges`, the lengths
    of its new edges less those of its old ones on ``tour``, in one sum."""
    cities = tour[edges]
    return (d[cities[2], cities[3]] - d[cities[0], cities[1]]).sum(axis=1)


def _position_pairs(n: int, dtype) -> Tuple[np.ndarray, np.ndarray]:
    """The P = n(n-1)/2 position pairs (a, b), a < b, as swaps: an (n, n)
    array giving pair {a, b}'s row, and the rows' :func:`_changed_edges`."""
    a, b = np.triu_indices(n, 1)
    row = np.zeros((n, n), dtype=np.intp)
    row[a, b] = row[b, a] = np.arange(len(a))
    return row, _changed_edges(np.stack([a, b], axis=1).astype(dtype), n)


def _rejection_cuts(bounds: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """For each step, a length increase that proves Metropolis rejects it,
    from an upper bound T' >= T on the step's temperature
    (:func:`_temperature_bounds`).

    The walk rejects a step when p = np.exp(-(D / T)) < u, with D =
    fl(cand_len - cur_len), T the step's temperature and u its uniform.  Let
    e = 2^-40, far above the relative error of ``np.exp`` and ``np.log`` (a
    few ulp), and L = -ln u.  Then x = -np.log(u) * (1 + e) + e >= L + e/2,
    so for any float q >= x, np.exp(-q) <= u * exp(-e/2) * (1 + 2^-50) +
    2^-1074 < u, the last term bounding the error of a subnormal result
    (u >= 2^-53 when not 0).  Rounding is monotone and x is a float, so
    fl(D / T) >= x whenever D >= x * T, which holds for D >= x * T * (1 +
    e) + 2^-1022 computed in floats: the factor covers the product's
    rounding and the term its underflow.  The cut is that expression with
    T' for T.  As x >= 0, T' >= T and every rounded operation is monotone,
    it is at least the one computed from T, so D >= cut proves the
    rejection for any such bound.  As cut > 0, D >= cut also means the
    candidate is longer, so :func:`acceptance_probability` takes the
    exponential.  A uniform of 0.0, or a bound or product that overflows,
    gives an infinite cut, which no finite D reaches.
    """
    e = 2.0**-40
    with np.errstate(divide="ignore", over="ignore"):
        x = -np.log(uniforms) * (1 + e) + e
        return x * bounds * (1 + e) + 2.0**-1022


def _undecided(delta: np.ndarray, band: float, cuts: np.ndarray) -> np.ndarray:
    """Offsets of the steps that the screen cannot reject: undecided, not
    accepted.

    A step is rejected when fl(delta - band) is at least its cut.  By
    :func:`_screen_band`, delta - band <= cand_len - cur_len exactly, and
    rounding is monotone, so fl(delta - band) <= fl(cand_len - cur_len) and
    :func:`_rejection_cuts` proves that the exact step would reject it.  A
    NaN delta is never rejected.
    """
    return np.flatnonzero(~(delta - band >= cuts))


def _screen(
    d: np.ndarray, tour: np.ndarray, edges: np.ndarray, band: float, cuts: np.ndarray
) -> np.ndarray:
    """Offsets of the window's steps that the screen cannot reject from
    ``tour``, by the edge deltas of ``edges`` (see :func:`_undecided`)."""
    return _undecided(_edge_deltas(d, tour, edges), band, cuts)


def anneal(
    m: DistanceMatrix,
    start: Tour,
    cfg: SaConfig,
    rng: np.random.Generator = None,
) -> Tuple[Tour, float, SaTrace]:
    """Run exactly ``cfg.iterations`` annealing steps from ``start``.

    Each step proposes a ``swap_count``-pair exchange and accepts it when
    the acceptance probability beats one uniform draw.  Deterministic for a
    fixed seed; passing ``rng`` lets callers chain draws instead.

    Its 2k+1 uniforms per step are drawn ``CHUNK`` steps at a time, the
    same values and generator state as one draw of them all.  For each
    chunk the steps' swap positions (one :func:`_kernels.pick_positions`
    call) and, while the band of :func:`_screen_band` is finite, the
    rejection cuts of :func:`_rejection_cuts` are computed at once, since
    neither depends on the tour.  The cuts come from
    :func:`_temperature_bounds`, not from the schedule itself.

    The exact step builds the candidate from the chunk's positions on
    Python lists and takes its in-order length.  While the band is finite
    the length difference is finite, and a step whose difference reaches
    its cut is rejected there; any other step asks
    :func:`acceptance_probability` at its :func:`temperature_at`, the only
    place the walk evaluates the schedule.  Steps run exactly, back to
    back, until ``SCREEN_GAP`` steps have passed since the last acceptance.
    From then on, a window of upcoming steps, as many as have passed, at
    most ``WINDOW`` and at most the rest of the chunk, is screened against the
    current tour: a step whose edge delta, less the error band of
    :func:`_screen_band`, reaches its cut is one the exact step would
    reject, and is rejected without touching the tour.  A window sums its
    steps' changed edges (:func:`_changed_edges`, made for the rest of the
    chunk by its first such window).  With one pair per swap, the first
    screen after an acceptance with at least P = n(n-1)/2 steps both passed
    and left in the chunk gathers instead a table of the tour's swap deltas
    for every position pair (:func:`_position_pairs`).  The table is kept
    across windows and chunks until the next acceptance, and a window that
    has it runs to the end of the chunk, one lookup per step.  Every step
    the screen leaves undecided is the exact step, and an acceptance ends
    the window.  As the screen only rejects where the exact step would, the
    walk, its answers and its trace are those of the exact step alone.

    The trace's current lengths are filled run by run at the end of each
    chunk.  Its best lengths are derived at the end as the running minimum
    of the start and current lengths, since the best length only ever takes
    the start length or an accepted one.  Its temperatures are computed
    only when read (:class:`SaTrace`).  Besides the trace's 24 bytes per
    step, memory is O(CHUNK * n) narrow integers, one byte each while
    n < 128.  A table needs P steps left in a chunk, so it is made only
    while P <= CHUNK, for n <= 64, and its P entries add O(CHUNK).
    """
    n = m.n
    if start.n != n:
        raise TsphnnError(f"start tour has {start.n} cities, matrix has {n}")
    k = cfg.swap_count
    if 2 * k > n:
        raise InvalidArgumentError(f"swap_count={k} too large for n={n}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    iters = cfg.iterations
    d = m.d.tolist()
    length = _kernels.closed_tour_length
    cur = list(start.order)
    start_len = cur_len = length(d, cur)
    best, best_len = cur, cur_len
    cur_lens = np.empty(iters)
    band = _screen_band(m, k)
    # Steps after an acceptance that run exactly before a screen; with an
    # infinite band, every step.
    hold = SCREEN_GAP if band < np.inf else iters + 1
    # The fewest steps, passed and left, for which a screen gathers a table.
    # Only one-pair swaps use one: a k-pair step could sum its pairs'
    # entries only where no two picks are adjacent, and that timed no
    # faster than its edges.
    table_at = n * (n - 1) // 2 if k == 1 else np.inf
    pair_row = pair_edges = None  # made with the first table
    tour = table = None  # ``cur`` as an array, and its table, made when needed
    last = -1  # the last accepted step; the start counts as one
    for first in range(0, iters, CHUNK):
        u = rng.random((min(CHUNK, iters - first), 2 * k + 1))
        count = len(u)
        picks = _kernels.pick_positions(n, k, u)
        cuts = None  # the chunk's rejection cuts, while the band is finite
        if band < np.inf:
            cuts = _rejection_cuts(_temperature_bounds(cfg, first, count), u[:, 2 * k])
        edges = None  # made with the chunk's first window that gathers edges
        # Made at the chunk's first exact step; most cold chunks have none.
        swaps = cut_at = None
        # The chunk's steps from which the walk holds each length: a run.
        run_from, run_cur = [0], [cur_len]
        i = 0
        while i < count:
            gap = first + i - last
            if gap < hold:
                # Exact steps until the gap reaches ``hold``; an acceptance
                # restarts the count.
                steps, stop, after = range(i, count), i + hold - gap, hold
            else:
                if tour is None:
                    tour = np.array(cur, dtype=picks.dtype)
                end = min(i + gap, count)
                if table is None and end - i >= table_at:
                    if pair_row is None:
                        pair_row, pair_edges = _position_pairs(n, picks.dtype)
                    table = _edge_deltas(m.d, tour, pair_edges)
                if table is not None:
                    end = count
                    delta = table[pair_row[picks[i:, 0], picks[i:, 1]]]
                    offsets = _undecided(delta, band, cuts[i:])
                else:
                    end = min(end, i + WINDOW)
                    if edges is None:
                        edges_from, edges = i, _changed_edges(picks[i:], n)
                    window = edges[:, i - edges_from : end - edges_from]
                    offsets = _screen(m.d, tour, window, band, cuts[i:end])
                steps = (i + offsets).tolist()
                # An acceptance ends the window: its later steps were
                # screened against the old tour.
                stop, after = end, 1
            if swaps is None and steps:
                # Each pair's two position columns: a per-step ``tolist``
                # costs more.
                cols = picks.T.tolist()
                swaps = list(zip(cols[0::2], cols[1::2]))
                accept_at = u[:, 2 * k].tolist()
                if cuts is not None:
                    cut_at = cuts.tolist()
            for j in steps:
                if j >= stop:
                    break
                cand = cur.copy()
                for a, b in swaps:
                    x, y = a[j], b[j]
                    cand[x], cand[y] = cand[y], cand[x]
                cand_len = length(d, cand)
                if cut_at is not None and cand_len - cur_len >= cut_at[j]:
                    continue
                temp = temperature_at(first + j, cfg)
                if acceptance_probability(cur_len, cand_len, temp) >= accept_at[j]:
                    cur, cur_len = cand, cand_len
                    if cur_len < best_len:
                        best, best_len = cur, cur_len
                    run_from.append(j)
                    run_cur.append(cur_len)
                    last, stop, tour, table = first + j, j + after, None, None
            i = min(stop, count)
        runs = np.diff(run_from + [count])
        cur_lens[first : first + count] = np.repeat(run_cur, runs)
    trace = SaTrace(
        iteration=np.arange(iters),
        current_length=cur_lens,
        best_length=np.minimum(np.minimum.accumulate(cur_lens), start_len),
        final_tour=Tour(tuple(cur)),
        final_length=float(cur_lens[-1]),
        config=cfg,
    )
    return Tour(tuple(best)), float(best_len), trace
