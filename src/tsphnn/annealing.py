"""Simulated annealing over tour space.

Moves swap k disjoint position pairs; worsening moves are accepted with the
Metropolis probability exp(-delta/T) under a geometric cooling schedule.
The solver reports the best tour seen rather than the final walker state
(the final state is kept on the trace).

A step is decided exactly: the candidate's in-order length and
:func:`acceptance_probability`.  To spare that work on the many steps that
fail, :func:`anneal` first screens windows of upcoming steps in NumPy from
the O(k) edges each swap changes, and rejects a step without touching the
tour only where a written error bound proves the exact step would reject
it too; every other step, ties included, takes the exact step.  So the
answers are the exact step's, bit for bit.
"""

from dataclasses import dataclass
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
WINDOW = 512  # the most steps screened against one tour
# The trace keeps four 8-byte records per step, so this caps it at 160 MB;
# 250 times the CLI's default of 20,000 iterations.
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


@dataclass(frozen=True)
class SaTrace:
    """Per-iteration schedule and length records plus the final walker state."""

    iteration: np.ndarray
    temperature: np.ndarray
    current_length: np.ndarray
    best_length: np.ndarray
    final_tour: Tour
    final_length: float

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


def _temperatures(cfg: SaConfig, first: int, count: int) -> np.ndarray:
    """Temperatures of steps ``first`` .. ``first + count - 1``: the geometric
    schedule t0 * rate^step, floored to avoid division by zero.  The powers
    are Python's, not ``np.power``'s, whose last bits may differ."""
    powers = map(pow, repeat(cfg.cooling_rate, count), range(first, first + count))
    return np.maximum(cfg.t0 * np.array(list(powers)), TEMPERATURE_FLOOR)


def temperature_at(step: int, cfg: SaConfig) -> float:
    """Geometric schedule t0 * rate^step, floored to avoid division by zero."""
    return float(_temperatures(cfg, step, 1)[0])


def _screen_band(m: DistanceMatrix, k: int) -> float:
    """Half-width of the band around a step's edge delta outside which the
    delta decides the sign of the walk's own length difference.

    Let u = 2^-53, gamma_j = j*u / (1 - j*u) <= 2*j*u and M = max d.  While
    2*n*M is finite no partial sum overflows.  A tour length is the in-order
    sum of n terms in [0, M], so it lies within gamma_n * n * M of the exact
    sum.  A k-pair swap changes only the (at most 4k) edges at positions
    p - 1 and p of its picks p, so the exact difference of the two sums is
    the exact sum of those edges' differences.  The edge delta sums the 4k
    rounded differences (zero for repeated edges), each of two terms in
    [0, M], so it lies within gamma_{4k+1} * 8k * M of that exact sum.  So

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


def _rejection_cuts(temps: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """For each step, a length increase that proves Metropolis rejects it.

    The walk rejects a step when p = np.exp(-(D / T)) < u, with D =
    fl(cand_len - cur_len), T the step's temperature and u its uniform.  Let
    e = 2^-40, far above the relative error of ``np.exp`` and ``np.log`` (a
    few ulp), and L = -ln u.  Then x = -np.log(u) * (1 + e) + e >= L + e/2,
    so for any float q >= x, np.exp(-q) <= u * exp(-e/2) * (1 + 2^-50) +
    2^-1074 < u, the last term bounding the error of a subnormal result
    (u >= 2^-53 when not 0).  Rounding is monotone and x is a float, so
    fl(D / T) >= x whenever D >= x * T, which holds for D >= cut =
    x * T * (1 + e) + 2^-1022: the factor covers the product's rounding and
    the term its underflow.  As cut > 0, D >= cut also means the candidate
    is longer, so :func:`acceptance_probability` takes the exponential.  A
    uniform of 0.0, or a product that overflows, gives an infinite cut.
    """
    e = 2.0**-40
    with np.errstate(divide="ignore", over="ignore"):
        x = -np.log(uniforms) * (1 + e) + e
        return x * temps * (1 + e) + 2.0**-1022


def _screen(
    d: np.ndarray, tour: np.ndarray, edges: np.ndarray, band: float, cuts: np.ndarray
) -> np.ndarray:
    """Offsets of the window's steps that the screen cannot reject from
    ``tour``: undecided, not accepted.

    A step is rejected when fl(delta - band) is at least its cut.  By
    :func:`_screen_band`, delta - band <= cand_len - cur_len exactly, and
    rounding is monotone, so fl(delta - band) <= fl(cand_len - cur_len) and
    :func:`_rejection_cuts` proves that the exact step would reject it.  A
    NaN delta is never rejected.
    """
    cities = tour[edges]
    delta = (d[cities[2], cities[3]] - d[cities[0], cities[1]]).sum(axis=1)
    return np.flatnonzero(~(delta - band >= cuts))


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
    call), the edges each swap changes, the temperatures and the rejection
    cuts are computed at once, since none depends on the tour.

    Once ``SCREEN_GAP`` steps have passed since the last acceptance, a
    window of upcoming steps (as many as have passed, at most ``WINDOW``)
    is screened against the current tour: a step whose O(k) edge delta,
    less the error band of :func:`_screen_band`, reaches its cut from
    :func:`_rejection_cuts` is one the exact step would reject, and is
    rejected without touching the tour.  Every other step is the exact
    step: it builds the candidate from the chunk's positions on Python
    lists, takes its in-order length and asks
    :func:`acceptance_probability`.  An acceptance ends the window.  As the
    screen only rejects where the exact step would, the walk, its answers
    and its trace are those of the exact step alone.  The trace's lengths
    are filled run by run at the end of each chunk; besides the trace's 32
    bytes per step, memory is O(CHUNK * n) narrow integers, one byte each
    while n < 128.
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
    cur = list(start.order)
    cur_len = _kernels.closed_tour_length(d, cur)
    best, best_len = cur, cur_len
    temps, cur_lens, best_lens = np.empty(iters), np.empty(iters), np.empty(iters)
    band = _screen_band(m, k)
    screened = band < np.inf
    tour = None  # ``cur`` as an array, made when a screen needs it
    last = -1  # the last accepted step; the start counts as one
    for first in range(0, iters, CHUNK):
        u = rng.random((min(CHUNK, iters - first), 2 * k + 1))
        count = len(u)
        chunk_temps = _temperatures(cfg, first, count)
        temps[first : first + count] = chunk_temps
        picks = _kernels.pick_positions(n, k, u)
        if screened:
            edges = _changed_edges(picks, n)
            cuts = _rejection_cuts(chunk_temps, u[:, 2 * k])
        pairs = picks.reshape(count, k, 2)
        temp_at, accept_at = chunk_temps.tolist(), u[:, 2 * k].tolist()
        # The chunk's steps from which the walk holds each length: a run.
        run_from, run_cur, run_best = [0], [cur_len], [best_len]
        i = 0
        while i < count:
            gap = first + i - last
            if not screened or gap < SCREEN_GAP:
                end, undecided = i + 1, (i,)
            else:
                end = min(i + gap, i + WINDOW, count)
                if tour is None:
                    tour = np.array(cur, dtype=picks.dtype)
                offsets = _screen(m.d, tour, edges[:, i:end], band, cuts[i:end])
                undecided = (i + offsets).tolist()
            for j in undecided:
                cand = _kernels.swap_pairs(cur, pairs[j].tolist())
                cand_len = _kernels.closed_tour_length(d, cand)
                if acceptance_probability(cur_len, cand_len, temp_at[j]) >= accept_at[j]:
                    cur, cur_len = cand, cand_len
                    if cur_len < best_len:
                        best, best_len = cur, cur_len
                    run_from.append(j)
                    run_cur.append(cur_len)
                    run_best.append(best_len)
                    # The window ends here: its later steps were screened
                    # against the old tour.
                    last, tour, end = first + j, None, j + 1
                    break
            i = end
        runs = np.diff(run_from + [count])
        cur_lens[first : first + count] = np.repeat(run_cur, runs)
        best_lens[first : first + count] = np.repeat(run_best, runs)
    trace = SaTrace(
        iteration=np.arange(iters),
        temperature=temps,
        current_length=cur_lens,
        best_length=best_lens,
        final_tour=Tour(tuple(cur)),
        final_length=float(cur_lens[-1]),
    )
    return Tour(tuple(best)), float(best_len), trace
