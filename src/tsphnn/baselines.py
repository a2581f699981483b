"""Classical baselines: nearest-neighbour construction, 2-opt and 3-opt.

Both local searches use best-improvement move selection and stop when no
move gains more than a small threshold (:func:`_min_gain`), which prevents
floating-point cycling.  A pass scores every move with NumPy, using the
float expression a scalar loop over the cuts would use, and takes the
first minimum in scan order (``np.argmin``): the move a loop keeping only
strictly smaller deltas picks.
"""

import numpy as np

from .errors import TsphnnError, check_int, quote
from .instance import DistanceMatrix
from .tour import Tour

MIN_GAIN = 1e-12


def _min_gain(d: np.ndarray) -> float:
    """MIN_GAIN, or 8 ulps of the largest distance if more (above about 560):
    a finite delta errs by under 6.5, so each move applied shortens the tour."""
    return max(MIN_GAIN, 8 * np.finfo(np.float64).eps * float(d.max()))


def greedy_nearest_neighbor(m: DistanceMatrix, start: int = 0) -> Tour:
    """From each city go to the nearest unvisited one, ties to the lowest
    index, closing back to the start."""
    n = m.n
    start = check_int("start", start, 0)
    if start >= n:
        raise TsphnnError(f"start city {quote(start)} out of range 0..{n - 1}")
    visited = np.zeros(n, dtype=bool)
    order = [start]
    visited[start] = True
    current = start
    for _ in range(n - 1):
        row = np.where(visited, np.inf, m.d[current])
        current = int(np.argmin(row))
        order.append(current)
        visited[current] = True
    return Tour(tuple(order))


def two_opt(m: DistanceMatrix, t: Tour) -> Tour:
    """Repeat the best-improving segment reversal until none improves.

    Move (i, j), 1 <= i < j <= n-1, reverses tour[i..j]; scanned i-major.
    """
    if t.n != m.n:
        raise TsphnnError(f"tour has {t.n} cities, matrix has {m.n}")
    d, n = m.d, m.n
    tour = t.as_array()
    movable = np.triu(np.ones((n, n), dtype=bool), 1)
    movable[0] = False
    min_gain = _min_gain(d)
    while True:
        prev, nxt = np.roll(tour, 1), np.roll(tour, -1)
        # cut edges (a, b) = (tour[i-1], tour[i]) and (c, e) = (tour[j], tour[j+1]):
        # delta = d[a, c] + d[b, e] - d[a, b] - d[c, e]
        ac_be = d[prev[:, None], tour] + d[tour[:, None], nxt]
        delta = ac_be - d[prev, tour][:, None] - d[tour, nxt]
        # an overflowed +-inf is no move: _min_gain bounds finite deltas only
        delta = np.where(movable & np.isfinite(delta), delta, np.inf)
        pos = int(np.argmin(delta))
        if not delta.flat[pos] < -min_gain:
            return Tour(tuple(tour.tolist()))
        i, j = divmod(pos, n)
        tour[i : j + 1] = tour[i : j + 1][::-1]


def _rebuild_three_opt(tour, i, j, k, combo):
    """Reconnect the three cut edges (i,i+1), (j,j+1), (k,k+1) per ``combo``.

    With segments S1 = tour[i+1..j] and S2 = tour[j+1..k], combo bit 1
    reverses S1, bit 2 reverses S2 and bit 4 puts S2 before S1, so the 7
    non-identity reconnections are combos 1..7.
    """
    s1 = tour[i + 1 : j + 1]
    s2 = tour[j + 1 : k + 1]
    if combo & 1:
        s1 = s1[::-1]
    if combo & 2:
        s2 = s2[::-1]
    if combo & 4:
        s1, s2 = s2, s1
    return np.concatenate((tour[: i + 1], s1, s2, tour[k + 1 :]))


def three_opt(m: DistanceMatrix, t: Tour) -> Tour:
    """Repeat the best of all 3-edge removals with their 7 reconnections.

    Move (i, j, k, combo), 0 <= i < j < k <= n-1, cuts the edges after
    positions i, j and k (see :func:`_rebuild_three_opt`); moves are
    scanned in (i, j, k, combo) order.  The deltas are built for one first
    cut i at a time, so working memory is O(n^2).

    Subsumes 2-opt moves; for n < 5 there are no proper 3-opt moves, so
    this falls back to :func:`two_opt`.
    """
    if t.n != m.n:
        raise TsphnnError(f"tour has {t.n} cities, matrix has {m.n}")
    if m.n < 5:
        return two_opt(m, t)
    d, n = m.d, m.n
    tour = t.as_array()
    later = np.triu(np.ones((n, n), dtype=bool), 1)
    min_gain = _min_gain(d)
    while True:
        nxt = np.roll(tour, -1)
        # pairwise distances between cities at two positions p, q, taken at
        # p or p+1 and q or q+1; d is exactly symmetric, so d[x, y] = d[y, x]
        tt = d[tour[:, None], tour]
        tn = d[tour[:, None], nxt]
        nn = d[nxt[:, None], nxt]
        cut = np.diagonal(tn)
        best, move = -min_gain, None
        for i in range(n - 2):
            # cut edges (a, b), (c, dd), (e, f) after positions i, j and k;
            # rows are j = i+1..n-2, columns k = i+2..n-1
            js, ks = slice(i + 1, n - 1), slice(i + 2, n)
            ab, ac, ad = cut[i], tt[i, js, None], tn[i, js, None]
            bd, cd = nn[i, js, None], cut[js, None]
            ae, be, bf, ef = tt[i, ks], tn[ks, i], nn[i, ks], cut[ks]
            ce, cf, df = tt[js, ks], tn[js, ks], nn[js, ks]
            # new edge sums of combos 1..7, less the three cut edges
            new = (ac + bd + ef, ab + ce + df, ac + be + df, ad + be + cf,
                   ad + ce + bf, ae + bd + cf, ae + cd + bf)
            delta = np.stack(new, axis=-1) - (ab + cd + ef)[..., None]
            # k <= j is no move, nor is a delta that overflowed (see two_opt)
            keep = later[js, ks, None] & np.isfinite(delta) & (delta < best)
            delta = np.where(keep, delta, np.inf)
            pos = int(np.argmin(delta))
            if delta.flat[pos] < best:
                best = delta.flat[pos]
                j, k, combo = np.unravel_index(pos, delta.shape)
                move = (i, i + 1 + int(j), i + 2 + int(k), int(combo) + 1)
        if move is None:
            return Tour(tuple(tour.tolist()))
        tour = _rebuild_three_opt(tour, *move)
