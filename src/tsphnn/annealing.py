"""Simulated annealing over tour space.

Moves swap k disjoint position pairs; worsening moves are accepted with the
Metropolis probability exp(-delta/T) under a geometric cooling schedule.
The solver reports the best tour seen rather than the final walker state
(the final state is kept on the trace).

A step is decided exactly, from the candidate's in-order length: a
candidate no longer than the tour is accepted on that alone, as its
acceptance probability is 1, and only a longer one asks
:func:`acceptance_probability` at the step's :func:`temperature_at`.  On up
to ``ORDER_WALK_MAX_N`` cities :func:`anneal` reads the candidate and its
length from tables over the n! orders and runs no screen.  On more, to
spare that work on the many steps that fail, it first screens steps from
the O(k) edges each swap changes: one at a time for one-pair swaps, in
NumPy windows for k-pair swaps, or from a table of the tour's swap deltas.
It rejects a step without building the candidate only where a written
error bound, from the float model of :mod:`._rounding`, proves the exact
step would reject it too; every other step, ties included, takes the exact
step.  Where the table and one bound on a chunk's cuts prove that every
step left in it fails, the walk rejects them all at once, without picking
their swap positions or computing their cuts.  So the answers are the
exact step's, bit for bit, on either path.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations, repeat
from typing import Protocol, Tuple

import numpy as np

from . import _kernels
from ._rounding import E, MIN_NORMAL, POW_TINY, U
from .errors import (
    InvalidTemperatureError,
    InvalidTourError,
    check_int,
    check_real,
    check_record,
    record_refusal,
)
from .instance import DistanceMatrix
from .tour import Tour

TEMPERATURE_FLOOR = 1e-12
_INF = math.inf  # one global read, where np.inf is two
CHUNK = 2048  # steps whose uniforms `anneal` draws at once
# `anneal` screens steps only once this many have passed since the last
# acceptance: while acceptances come closer together, the exact step alone
# is cheaper than a screen whose window an acceptance cuts short.
SCREEN_GAP = 16
# One-pair steps without a swap-delta table are screened one at a time by
# their scalar edge delta (`_pair_delta`) once `SCREEN_GAP` steps have passed
# since an acceptance, at every n.  From this many cities the steps held
# exact after an acceptance are screened so too.  Below it the in-order
# length that spares is short: with held steps screened from n = 7 as well,
# default walks ran 3-9 % slower at n = 7 to 12 (30 paired calls each).
# Against NumPy windows on the later steps, the scalar screen made default
# walks 12-24 % faster at n = 7 to 15 (paired per-call medians 0.876 at
# n = 7, 0.841 at 8, 0.791 at 10, 0.776 at 12 and 0.762 at 15; n = 5 and 6
# within 1 %) and 10-17 % faster at n = 100 and 200 (2 cores, no numba).
HOLD_SCREEN_MIN_N = 16
# Up to this many cities, `anneal` walks over indices into the n! orders
# (`_walk_orders`).  There ties are common and each acceptance restarts the
# `SCREEN_GAP` count, so the screen hardly runs.  Default walks, best of 15
# on the orders against the lists (2 cores, no numba): matrix4 8.9 against
# 20.0 ms; random n = 4, three instances, 7.1-7.8 against 16.3-17.4 ms;
# n = 3, 10.2-11.7 against 19.3-21.2 ms.  At n = 5, where the screen
# already works, 5.9-6.1 against 4.4-5.3 ms: the 120 orders' tables cost
# about 2 ms to build.
ORDER_WALK_MAX_N = 4
# The most steps whose changed edges one window gathers; only k-pair walks
# use windows.  Default walks at n = 30 and 50, k = 2 and 3, ran 1-9 % slower
# with windows of 2048 steps (20 paired calls each), as an acceptance wastes
# more of a longer window; per step, a gather of 2048 steps cost 24-42 % more
# than one of 512 at k = 3, and about as much at k = 2.
WINDOW = 512
# The most iterations `SaConfig` accepts.  The trace stores one 8-byte record
# per step, and up to four once its step numbers, best lengths and
# temperatures are read, so this caps it at 40 MB, or 160 MB read whole; 250
# times `SaConfig`'s default of 20,000 iterations.
MAX_ITERATIONS = 5_000_000


@dataclass(frozen=True)
class SaConfig:
    """Annealing schedule: start temperature, geometric cooling rate,
    iteration budget, pairs swapped per move, and RNG seed.  ``tsphnn
    solve``'s SA flags default to these."""

    t0: float = 1.0
    cooling_rate: float = 0.999
    iterations: int = 20000
    swap_count: int = 1
    seed: int = 0

    def __post_init__(self):
        t0 = check_real("t0", self.t0, 0, error=InvalidTemperatureError)
        rate = check_real("cooling_rate", self.cooling_rate, 0, 1)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "cooling_rate", rate)
        limits = {"iterations": (1, MAX_ITERATIONS), "swap_count": (1, None), "seed": (0, None)}
        for name, (low, high) in limits.items():
            object.__setattr__(self, name, check_int(name, getattr(self, name), low, high))


class RandomGenerator(Protocol):
    """What :func:`anneal` and :func:`swap_cities` draw from: an object whose
    ``random(size)`` returns a float64 array of that shape, every value in
    [0, 1], such as ``np.random.Generator`` or ``np.random.RandomState``."""

    def random(self, size): ...


def _uniforms(rng: RandomGenerator, shape: Tuple[int, ...]) -> np.ndarray:
    """``rng.random(shape)``, with ``rng`` refused unless that is a float64
    array of that shape, every value in [0, 1]: the one check that ``rng``
    is a :class:`RandomGenerator`, so every later step may take 0 <= u <= 1."""
    try:
        u = rng.random(shape)
    except (AttributeError, TypeError) as exc:  # no ``random``, or one that takes no size
        raise record_refusal("rng", rng, RandomGenerator) from exc
    ok = isinstance(u, np.ndarray) and u.shape == shape and u.dtype == np.float64
    if not (ok and u.min() >= 0.0 and u.max() <= 1.0):  # a NaN fails both
        raise record_refusal("rng", rng, RandomGenerator)
    return u


def temperature_at(step: int, cfg: SaConfig) -> float:
    """The geometric schedule t0 * rate^step, floored to avoid division by
    zero: max(t0 * pow(rate, step), TEMPERATURE_FLOOR), for a step of a
    walk, 0 <= step < ``MAX_ITERATIONS``.

    The one definition of the schedule, and the temperature every exact
    step and every trace uses."""
    # The walk's own steps, Python ints in range, skip the call.
    if type(step) is not int or not 0 <= step < MAX_ITERATIONS:
        step = check_int("step", step, 0, MAX_ITERATIONS - 1)
    try:
        temp = cfg.t0 * cfg.cooling_rate**step
    except (AttributeError, TypeError):  # free on the walk's path, unlike a check
        raise record_refusal("cfg", cfg, SaConfig) from None
    return temp if temp >= TEMPERATURE_FLOOR else TEMPERATURE_FLOOR


@dataclass(frozen=True, eq=False)
class SaTrace:
    """Per-iteration schedule and length records plus the final walker state.

    It stores the length after each step, ``current_length``, the start
    length, the final tour and ``config``.  ``iteration``, ``best_length``
    (the running minimum of the start and current lengths) and
    ``temperature``, each step's :func:`temperature_at` under ``config``,
    are computed on first read and then kept; a caller that never reads
    them, such as the CLI, never pays for them.  Two traces compare equal
    only when they are the same object.
    """

    current_length: np.ndarray
    start_length: float
    final_tour: Tour
    config: SaConfig = field(repr=False)

    @cached_property
    def iteration(self) -> np.ndarray:
        return np.arange(len(self.current_length))

    @cached_property
    def best_length(self) -> np.ndarray:
        return np.minimum(np.minimum.accumulate(self.current_length), self.start_length)

    @property
    def final_length(self) -> float:
        return float(self.current_length[-1])

    @cached_property
    def temperature(self) -> np.ndarray:
        count = len(self.current_length)
        temps = map(temperature_at, range(count), repeat(self.config))
        return np.fromiter(temps, dtype=np.float64, count=count)

    def to_csv(self) -> str:
        columns = (self.temperature, self.current_length, self.best_length)
        rows = zip(*(column.tolist() for column in columns))
        lines = [f"{i},{t!r},{c!r},{b!r}" for i, (t, c, b) in enumerate(rows)]
        return "\n".join(["iteration,temperature,current,best", *lines]) + "\n"


def swap_cities(t: Tour, k: int, rng: np.random.Generator) -> Tour:
    """Exchange the cities at k disjoint randomly chosen position pairs.

    Returns a new tour; applying the same pairs again restores the input.
    """
    check_record("t", t, Tour)
    k = check_int("k", k, 1, t.n // 2)
    out = _kernels.swap_positions(t.as_array(), k, _uniforms(rng, (2 * k,)))
    return Tour(tuple(int(v) for v in out))


def acceptance_probability(e: float, e_new: float, t: float) -> float:
    """1.0 for non-worsening candidates, else the Metropolis factor
    exp(-(e_new - e) / t).  ``np.exp``, not ``math.exp``: the two differ in
    the last bit on a few per cent of inputs, and the walk's answers are
    defined by this one.  ``t`` must be positive and finite."""
    # The walk's own temperatures, positive finite floats, skip the call;
    # 0.0, not 0, keeps both comparisons float-to-float, the faster kind.
    if type(t) is not float or not 0.0 < t < _INF:
        t = check_real("temperature", t, 0, error=InvalidTemperatureError)
    if e_new <= e:
        return 1.0
    return float(np.exp(-(e_new - e) / t))


def _temperature_bounds(cfg: SaConfig, first: int, count: int) -> np.ndarray:
    """Upper bounds T' >= T = :func:`temperature_at` for steps ``first``
    .. ``first + count - 1``, from ``np.power``, whose last bits may differ
    from ``pow``'s.

    By the power accuracy of :mod:`._rounding`, pow's P and np.power's P'
    satisfy P <= (P' + a) * (1 + 2^-41), a = ``POW_TINY``.  Below the
    floor, T is the floor.  Above it, fl(t0 * P) <= t0 * P * (1 + U), and
    t0 * fl(P' + a) is normal too, so each of the three roundings of
    fl(fl(t0 * fl(P' + a)) * (1 + E)) loses a factor of at most 1 - U, or
    overflows to inf; as (1 + E)(1 - U)^3 >= (1 + 2^-41)(1 + U), T' >= T.
    """
    steps = np.arange(first, first + count, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore"):
        bounds = cfg.t0 * (np.power(cfg.cooling_rate, steps) + POW_TINY) * (1 + E)
    return np.maximum(bounds, TEMPERATURE_FLOOR)


def _screen_band(m: DistanceMatrix, k: int) -> float:
    """Half-width of the band around a step's edge delta outside which the
    delta decides the sign of the walk's own length difference; one band
    serves the windows, the swap-delta table and the hold screen.

    Let M = max d; as 2*n*M is finite, no sum overflows (see
    :class:`DistanceMatrix`).  By the summation lemma of :mod:`._rounding`,
    a tour length, n terms in [0, M], lies within gamma_{n-1} * n*M of its
    exact sum.  A k-pair swap changes only the at most 4k edges at
    positions p - 1 and p of its picks p.  Every edge delta
    (:func:`_edge_deltas`, a table entry, :func:`_pair_delta`) sums their
    rounded differences, each at most M, in some order, less the one of an
    edge between two adjacent picks, exactly 0 as d is symmetric.  Each
    passes through its own rounding and at most 4k - 1 additions, so the
    delta lies within gamma_{4k} * 4k*M of the exact length difference, and
    the difference of the walk's two lengths within 2*gamma_{n-1}*n*M +
    gamma_{4k}*4k*M <= 4*U*(n^2 - n + 8k^2)*M of it.  The returned
    4*U*(n^2 + 4k*(4k + 1))*M exceeds that by at least 4*U*n*M, which covers
    its one rounding, an underflowing one too, as all sums are exact while
    n*M < 2^-1022.
    """
    n = m.n
    return 4 * U * (n * n + 4 * k * (4 * k + 1)) * float(m.d.max())


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


def _pair_delta(d, cur, x, y, n):
    """The edge delta of swapping the cities at positions x != y of the
    tour ``cur``, from nested lists: the lengths of the edges the swap makes
    less those of the edges it breaks, in one sum.

    The scalar form of :func:`_edge_deltas` for one pair: four edges, or
    three where y follows x on the tour (x + 1 = y, or the wrap-around pair
    n - 1, 0), as the edge between them is only reversed and ``d`` is
    symmetric.
    """
    if x > y:
        x, y = y, x
    if y - x == n - 1:
        x, y = y, x  # position 0 follows n - 1
    elif y - x != 1:
        p, a, r, s, b = cur[x - 1], cur[x], cur[x + 1], cur[y - 1], cur[y]
        q = cur[y + 1 - n]  # cur[y + 1], or cur[0] for y = n - 1
        return d[p][b] - d[p][a] + (d[b][r] - d[a][r]) + (d[s][a] - d[s][b]) + (d[a][q] - d[b][q])
    p, a, b, q = cur[x - 1], cur[x], cur[y], cur[y + 1 - n]
    return d[p][b] - d[p][a] + (d[a][q] - d[b][q])


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
    fl(cand_len - cur_len) and u the step's uniform.  By the exp and log
    accuracy of :mod:`._rounding`, x = -np.log(u) * (1 + E) + E >=
    -ln(u) + E/2, so any float q >= x has np.exp(-q) <= u * exp(-E/2) *
    (1 + 2^-50) + 2^-1074 < u while u >= U, the smallest nonzero uniform
    ``Generator.random()`` draws.  By monotone rounding, fl(D / T) >= x once
    D >= x * T, so once D >= cut = fl(x * T' * (1 + E) + ``MIN_NORMAL``):
    the factor covers the product's rounding, the term its underflow, and
    T' >= T only raises the cut.  As cut > 0, the candidate is then longer,
    so :func:`acceptance_probability` takes the exponential.  A uniform below
    U (0.0), or a bound or product that overflows, gives an infinite cut,
    which no finite D reaches.
    """
    with np.errstate(divide="ignore", over="ignore"):
        x = -np.log(uniforms) * (1 + E) + E
        return np.where(uniforms < U, np.inf, x * bounds * (1 + E) + MIN_NORMAL)


def _cut_bound(cfg: SaConfig, first: int, accept: np.ndarray) -> float:
    """An upper bound on every rejection cut of a chunk whose first step is
    ``first`` and whose acceptance uniforms are ``accept``, from one power
    and one log, where :func:`_rejection_cuts` over
    :func:`_temperature_bounds` takes one of each a step.

    Each cut is fl(fl(x * T') * (1 + E)) + ``MIN_NORMAL`` rounded, in its
    step's x = fl(fl(-np.log(u) * (1 + E)) + E) and temperature bound T',
    both positive, so by monotone rounding it is at most the same
    expression in any X >= x and T >= T'.  The bound is that expression in:

    - T, the first step's bound with pow for np.power and ``MIN_NORMAL``
      for ``POW_TINY``, times (1 + 4E), floored.  The exact power R =
      rate^s falls as s grows, but pow and np.power are monotone only to
      within their errors (:mod:`._rounding`): a step's np.power P' <= R *
      (1 + 2^-43) + 2^-1065, and R is at most the first step's, at most
      (P + 2^-1065) / (1 - 2^-43) for its pow P.  So P' + ``POW_TINY`` <=
      (P + ``MIN_NORMAL``) * (1 + 2^-41); the added terms matter where P is
      subnormal.  With the two sums' roundings, fl(P' + ``POW_TINY``) <=
      fl(P + ``MIN_NORMAL``) * (1 + 2^-40).  Where T' is above the floor,
      its products are normal, so T' <= t0 * fl(P + ``MIN_NORMAL``) *
      (1 + 2^-40) * (1 + E) * (1 + U)^2, and each of the three roundings of
      T's product loses at most a factor 1 - U, or overflows to inf.
    - X = fl(x(u_min) * (1 + 4E)), for the smallest uniform u_min, in [U,
      1].  Each counted u below 1 has -ln(u) >= 2^-53, a normal number, at
      most -ln(u_min), so np.log gives -np.log(u) <= -np.log(u_min) *
      (1 + 2^-50) / (1 - 2^-50); a u of 1 gives 0.  With their two
      roundings, x(u) <= x(u_min) * (1 + 2^-46) <= X.

    A uniform below U makes the bound inf, as its cut is.
    """
    low = accept.min()
    if low < U:
        return _INF
    x = float(-np.log(low)) * (1 + E) + E
    temp = cfg.t0 * (cfg.cooling_rate**first + MIN_NORMAL) * (1 + E) * (1 + 4 * E)
    return x * (1 + 4 * E) * max(temp, TEMPERATURE_FLOOR) * (1 + E) + MIN_NORMAL


def _undecided(delta: np.ndarray, band: float, cuts: np.ndarray) -> np.ndarray:
    """Offsets of the steps that the screen cannot reject: undecided, not
    accepted.  A step is rejected when fl(delta - band) reaches its cut; by
    :func:`_screen_band` and monotone rounding that is at most
    fl(cand_len - cur_len), so :func:`_rejection_cuts` proves that the exact
    step rejects it.
    """
    return np.flatnonzero(~(delta - band >= cuts))


def _chunks(rng: RandomGenerator, cfg: SaConfig, k: int):
    """The walk's draws, ``CHUNK`` steps at a time: for each chunk, its
    first step, its steps' uniforms, one row of 2k+1 a step, and their
    acceptance uniforms (the last column), none of which depends on the
    tour.  A walker computes a chunk's rejection cuts
    (:func:`_rejection_cuts` over :func:`_temperature_bounds`) and picks
    its swap positions from its rows (:func:`_kernels.pick_positions`)
    only once some step needs them.  Every chunk is drawn, so a step's
    2k+1 uniforms are the same values, and leave ``rng`` in the same
    state, as one draw of them all."""
    iters = cfg.iterations
    for first in range(0, iters, CHUNK):
        u = _uniforms(rng, (min(CHUNK, iters - first), 2 * k + 1))
        yield first, u, u[:, 2 * k]


def _fill_runs(cur_lens: np.ndarray, run_from: list, run_cur: list, end: int) -> None:
    """Fill a chunk's current lengths, steps ``run_from[0]`` to ``end - 1``,
    run by run: the walk holds length ``run_cur[r]`` from step
    ``run_from[r]``, the chunk's first step or an acceptance, until the next
    run's step."""
    cur_lens[run_from[0] : end] = np.repeat(run_cur, np.diff(run_from + [end]))


def _walk_lists(m: DistanceMatrix, cur: list, cfg: SaConfig, k: int, chunks, cur_lens):
    """The walk over Python lists, with the screen; returns the start
    length, the best order and its length, and the final order.

    The exact step builds the candidate on Python lists from the chunk's
    positions, picked at its first step that needs them, and takes its
    in-order length.  A candidate no longer than the tour is accepted on
    that alone; only a longer one below its cut evaluates the schedule.
    Steps run exactly, back to back, until ``SCREEN_GAP`` steps have passed
    since the last acceptance; from then on the screen rejects, without
    building the candidate, a step whose edge delta, less the error band of
    :func:`_screen_band`, reaches its cut: one the exact step would reject.
    With one pair per swap, each step is screened alone by its scalar edge
    delta (:func:`_pair_delta`); from ``HOLD_SCREEN_MIN_N`` cities, the
    steps held exact after an acceptance are screened so too, where below
    it that gains little or costs time.  With more pairs per swap, a window
    of upcoming steps, as many as have passed, at most ``WINDOW`` and at
    most the rest of the chunk, is screened against the current tour: it
    sums its steps' changed edges (:func:`_changed_edges`, made for the
    rest of the chunk by its first such window), and an acceptance ends it.
    With one pair per swap, the first screen after an acceptance with at
    least P = n(n-1)/2 steps both passed and left in the chunk gathers
    instead a table of the tour's swap deltas for every position pair
    (:func:`_position_pairs`).  The table is kept across chunks until the
    next acceptance, and serves every step to the end of the chunk, one
    lookup per step.  Where its smallest delta, less the band, reaches the
    chunk's :func:`_cut_bound`, at least every cut in it, every step left
    would fail that lookup (rounding is monotone), so they are all rejected
    at once.  The chunk's cuts are computed at its first step that reads
    them, so a chunk frozen from its first step computes no cuts and picks
    no positions.  Every step the screen leaves undecided is the exact
    step.  As the screen only rejects where the exact step would, the walk,
    its answers and its trace are those of the exact step alone.

    Memory is O(CHUNK * n) narrow integers, one byte each while n < 128.
    A table needs P steps left in a chunk, so it is made only while P <=
    CHUNK, for n <= 64, and its P entries add O(CHUNK).
    """
    n = m.n
    d = m.d.tolist()
    length = _kernels.closed_tour_length
    start_len = cur_len = length(d, cur)
    best, best_len = cur, cur_len
    band = _screen_band(m, k)
    # The fewest steps, passed and left, for which a screen gathers a table.
    # Only one-pair swaps use one: a k-pair step could sum its pairs'
    # entries only where no two picks are adjacent, and that timed no
    # faster than its edges.
    table_at = n * (n - 1) // 2 if k == 1 else np.inf
    hold_screen = k == 1 and n >= HOLD_SCREEN_MIN_N
    dtype = _kernels.position_dtype(n)
    pair_row = pair_edges = None  # made with the first table
    # ``cur`` as an array, and its table with the table's least entry less
    # the band, made when needed.
    tour = table = floor = None
    last = -1  # the last accepted step; the start counts as one
    for first, u, accept in chunks:
        count = len(u)
        # The chunk's picks, made at its first step that needs them (a
        # frozen chunk has none), and its first window's changed edges.
        picks = edges = None
        # Made at the chunk's first exact step; most cold chunks have none.
        swaps = None
        # The chunk's cuts, made at its first step that reads them, and a
        # bound on them all, made at its first freeze test.
        cuts = top = None
        # The steps from which the walk holds each length: the runs.
        run_from, run_cur = [first], [cur_len]
        i = 0
        while i < count:
            gap = first + i - last
            if gap >= SCREEN_GAP:
                end = min(i + gap, count)
                if table is None and end - i >= table_at:
                    if pair_row is None:
                        pair_row, pair_edges = _position_pairs(n, dtype)
                    table = _edge_deltas(m.d, np.array(cur, dtype=dtype), pair_edges)
                    floor = table.min() - band
                if table is not None:
                    if top is None:
                        top = _cut_bound(cfg, first, accept)
                    if floor >= top:
                        break  # frozen, as no cut left exceeds ``top``
            if cuts is None:
                cuts = _rejection_cuts(_temperature_bounds(cfg, first, count), accept)
            if gap < SCREEN_GAP:
                # Exact steps until the gap reaches ``SCREEN_GAP``; an
                # acceptance restarts the count.
                steps, stop, after = range(i, count), i + SCREEN_GAP - gap, SCREEN_GAP
                screened = hold_screen
            elif table is None and k == 1:
                # Screened one at a time up to ``end``, where the gap has
                # doubled and the table check runs again.
                steps, stop, after, screened = range(i, count), end, SCREEN_GAP, True
            else:
                if picks is None:
                    picks = _kernels.pick_positions(n, k, u)
                if table is not None:
                    end = count
                    delta = table[pair_row[picks[i:, 0], picks[i:, 1]]]
                else:
                    end = min(end, i + WINDOW)
                    if edges is None:
                        edges_from, edges = i, _changed_edges(picks[i:], n)
                    if tour is None:
                        tour = np.array(cur, dtype=dtype)
                    window = edges[:, i - edges_from : end - edges_from]
                    delta = _edge_deltas(m.d, tour, window)
                steps = (i + _undecided(delta, band, cuts[i:end])).tolist()
                # An acceptance ends the window: its later steps were
                # screened against the old tour.
                stop, after, screened = end, 1, False
            if swaps is None and steps:
                if picks is None:
                    picks = _kernels.pick_positions(n, k, u)
                # Each pair's two position columns: a per-step ``tolist``
                # costs more.
                cols = picks.T.tolist()
                swaps = list(zip(cols[0::2], cols[1::2]))
                xs, ys = swaps[0]
                accept_at, cut_at = accept.tolist(), cuts.tolist()
            for j in steps:
                if j >= stop:
                    break
                if screened and _pair_delta(d, cur, xs[j], ys[j], n) - band >= cut_at[j]:
                    continue
                cand = cur.copy()
                for a, b in swaps:
                    x, y = a[j], b[j]
                    cand[x], cand[y] = cand[y], cand[x]
                cand_len = length(d, cand)
                if cand_len - cur_len >= cut_at[j]:
                    continue
                if cand_len > cur_len:
                    temp = temperature_at(first + j, cfg)
                    if acceptance_probability(cur_len, cand_len, temp) < accept_at[j]:
                        continue
                cur, cur_len = cand, cand_len
                if cur_len < best_len:
                    best, best_len = cur, cur_len
                last, stop, tour, table = first + j, j + after, None, None
                run_from.append(last)
                run_cur.append(cur_len)
            i = min(stop, count)
        _fill_runs(cur_lens, run_from, run_cur, first + count)
    return start_len, best, best_len, cur


def _walk_orders(m: DistanceMatrix, start: list, cfg: SaConfig, k: int, chunks, cur_lens):
    """The walk of :func:`_walk_lists` over indices into the n! orders, with
    no screen; returns what it does.

    The orders come from ``itertools.permutations``, their lengths from
    :func:`_kernels.closed_tour_length` and the order each position pair
    (a, b) leads to from :func:`_kernels.swap_pairs`, so a candidate and its
    length are the list path's, bit for bit.  Every step needs its
    candidate, so each chunk computes its cuts and picks its positions at
    once.  A k-pair step
    looks its pairs up one after another, in pick order.  As on the lists,
    a step past its cut whose candidate is no longer than the tour is
    accepted without the schedule; ties, the most common step on so few
    cities, never evaluate it.
    """
    n = m.n
    d = m.d.tolist()
    orders = [list(order) for order in permutations(range(n))]
    index = {tuple(order): at for at, order in enumerate(orders)}
    lengths = [_kernels.closed_tour_length(d, order) for order in orders]
    # The order that swapping positions a and b leads to, at a * n + b.
    after = [
        [index[tuple(_kernels.swap_pairs(order, [(a, b)]))] for a in range(n) for b in range(n)]
        for order in orders
    ]
    cur = index[tuple(start)]
    start_len = cur_len = lengths[cur]
    best, best_len = cur, cur_len
    for first, u, accept in chunks:
        count = len(u)
        cuts = _rejection_cuts(_temperature_bounds(cfg, first, count), accept)
        picks = _kernels.pick_positions(n, k, u)
        pair_at = (picks[:, 0::2] * n + picks[:, 1::2]).T.tolist()
        later = pair_at[1:]
        run_from, run_cur = [first], [cur_len]
        steps = zip(range(first, first + count), pair_at[0], cuts.tolist(), accept.tolist())
        for step, at, cut, u_at in steps:
            cand = after[cur][at]
            for ats in later:
                cand = after[cand][ats[step - first]]
            cand_len = lengths[cand]
            if cand_len - cur_len >= cut:
                continue
            if cand_len > cur_len:
                if acceptance_probability(cur_len, cand_len, temperature_at(step, cfg)) < u_at:
                    continue
            cur, cur_len = cand, cand_len
            if cur_len < best_len:
                best, best_len = cur, cur_len
            run_from.append(step)
            run_cur.append(cur_len)
        _fill_runs(cur_lens, run_from, run_cur, first + count)
    return start_len, orders[best], best_len, orders[cur]


def anneal(
    m: DistanceMatrix,
    start: Tour,
    cfg: SaConfig,
    rng: np.random.Generator = None,
) -> Tuple[Tour, float, SaTrace]:
    """Run exactly ``cfg.iterations`` annealing steps from ``start``.

    Each step proposes a ``swap_count``-pair exchange and accepts it when
    the acceptance probability beats one uniform draw.  Deterministic for a
    fixed seed; passing ``rng``, a :class:`RandomGenerator` whose every
    chunk of draws :func:`_uniforms` checks, lets callers chain draws instead.

    Its 2k+1 uniforms per step are drawn ``CHUNK`` steps at a time
    (:func:`_chunks`).  For each chunk the steps' rejection cuts are
    computed at once, and so are its swap positions, but each only once
    some step of the chunk needs them.  The cuts come from
    :func:`_temperature_bounds`, not from the schedule itself.  A step
    whose candidate is longer by at least its cut is rejected there; one
    whose candidate is no longer than the tour is accepted, as its
    acceptance probability is 1; only a longer candidate below its cut asks
    :func:`acceptance_probability` at its :func:`temperature_at`, the only
    place the walk evaluates the schedule.  On up to ``ORDER_WALK_MAX_N``
    cities the walk keeps an index into the n! orders and reads each
    candidate and its length from tables (:func:`_walk_orders`), with no
    screen.  On more it builds each candidate on Python lists and first
    screens the many steps that fail (:func:`_walk_lists` says where each
    screen applies).  Both paths decide each step by the same rule, so the
    answers are the same on either.

    The trace's current lengths are filled run by run at the end of each
    chunk (:func:`_fill_runs`).  Its best lengths are the running minimum of
    the start and current lengths, since the best length only ever takes the
    start length or an accepted one; they, its step numbers and its
    temperatures are computed only when read (:class:`SaTrace`).  Besides
    the trace's 8 bytes per step, memory is O(CHUNK * n).
    """
    check_record("m", m, DistanceMatrix)
    check_record("start", start, Tour)
    check_record("cfg", cfg, SaConfig)
    n = m.n
    if start.n != n:
        raise InvalidTourError(f"start tour has {start.n} cities, matrix has {n}")
    k = check_int("swap_count", cfg.swap_count, 1, n // 2)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    cur_lens = np.empty(cfg.iterations)
    walk = _walk_orders if n <= ORDER_WALK_MAX_N else _walk_lists
    chunks = _chunks(rng, cfg, k)
    start_len, best, best_len, cur = walk(m, list(start.order), cfg, k, chunks, cur_lens)
    return Tour(tuple(best)), float(best_len), SaTrace(cur_lens, start_len, Tour(tuple(cur)), cfg)
