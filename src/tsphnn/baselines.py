"""Classical baselines: nearest-neighbour construction, 2-opt and 3-opt.

Both local searches use best-improvement move selection and stop when no
move gains more than a small threshold (:func:`_min_gain`), which prevents
floating-point cycling.  A pass scores every move with NumPy, using the
float expression a scalar loop over the cuts would use, and takes the
first minimum in scan order (``np.argmin``): the move a loop keeping only
strictly smaller deltas picks.  2-opt scores a pass as one n x n array;
3-opt scores its C(n, 3) cut triples in blocks of consecutive first cuts,
at most ``BLOCK_TRIPLES`` triples a block, so its working memory is
O(n^2 + block).
"""

import numpy as np

from ._rounding import U
from .errors import TsphnnError, check_int, check_record, quote
from .instance import DistanceMatrix
from .tour import Tour

MIN_GAIN = 1e-12
# Most triples (i, j, k) one 3-opt block scores at once, unless one first
# cut has more.  Its temporaries stay under 0.5 MB; at n = 30-100, blocks
# of 2^12 and 2^13 triples were no faster.
BLOCK_TRIPLES = 2**11


def _min_gain(d: np.ndarray) -> float:
    """MIN_GAIN, or 16*U*M for the largest distance M if more (above about
    560), so that each move applied shortens the tour exactly.

    By the summation lemma of :mod:`._rounding`, a 2-opt delta
    ((x1 + x2) - x3) - x4 of distances in [0, M] errs by at most gamma_3 * 4M,
    and a 3-opt delta fl(N - B) of two in-order sums of three by at most
    (1 + U) * gamma_2 * (N + B) + U * |N - B|, which peaks at N = B = 3M.
    Either is under 13*U*M (6.5 ulps of M), so a delta below -16*U*M
    is exactly negative.
    """
    return max(MIN_GAIN, 16 * U * float(d.max()))


def _check_search(m, t) -> None:
    """Refuse a local search's arguments: ``m`` a :class:`DistanceMatrix`
    and ``t`` a :class:`Tour` on its cities."""
    check_record("m", m, DistanceMatrix)
    check_record("t", t, Tour)
    if t.n != m.n:
        raise TsphnnError(f"tour has {t.n} cities, matrix has {m.n}")


def greedy_nearest_neighbor(m: DistanceMatrix, start: int = 0) -> Tour:
    """From each city go to the nearest unvisited one, ties to the lowest
    index, closing back to the start."""
    check_record("m", m, DistanceMatrix)
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
    _check_search(m, t)
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
        delta = np.where(movable, delta, np.inf)
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


def _first_cut_blocks(n: int):
    """Runs [i0, i1) of consecutive first cuts of 3-opt whose triples,
    C(n-1-i, 2) for cut i, total at most ``BLOCK_TRIPLES``, or one cut."""
    blocks, i0, size = [], 0, 0
    for i in range(n - 2):
        count = (n - 1 - i) * (n - 2 - i) // 2
        if i > i0 and size + count > BLOCK_TRIPLES:
            blocks.append((i0, i))
            i0, size = i, 0
        size += count
    blocks.append((i0, n - 2))
    return blocks


def three_opt(m: DistanceMatrix, t: Tour) -> Tour:
    """Repeat the best of all 3-edge removals with their 7 reconnections.

    Move (i, j, k, combo), 0 <= i < j < k <= n-1, cuts the edges after
    positions i, j and k (see :func:`_rebuild_three_opt`); moves are
    scanned in (i, j, k, combo) order.  A pass scores the triples of
    consecutive first cuts i together, in blocks of at most
    ``BLOCK_TRIPLES`` triples (one first cut at least).  A first cut's
    pairs (j, k) are a suffix of the ``np.triu_indices(n, 1)`` pair list,
    so each block's indices come from that list, and working memory is
    O(n^2 + block): no array holds all C(n, 3) triples.  Each move's delta
    is the same float expression as a scalar loop's; only the triples
    whose smallest new-edge sum, less the cut edges, is below the best
    delta so far have their seven deltas compared.

    Subsumes 2-opt moves; for n < 5 there are no proper 3-opt moves, so
    this falls back to :func:`two_opt`.
    """
    _check_search(m, t)
    if m.n < 5:
        return two_opt(m, t)
    d, n = m.d, m.n
    tour = t.as_array()
    # pairs (j, k), j < k, j-major, at flat j*n + k; first cut i's pairs
    # are those from suffix[i] on
    rows, cols = np.triu_indices(n, 1)
    flat = rows * n + cols
    suffix = np.searchsorted(rows, np.arange(n - 2), side="right")
    blocks = _first_cut_blocks(n)
    min_gain = _min_gain(d)
    while True:
        nxt = np.roll(tour, -1)
        # pairwise distances between cities at two positions p, q, taken at
        # p or p+1 and q or q+1, flat at p*n + q; d is exactly symmetric,
        # so d[x, y] = d[y, x]
        tt = d[tour[:, None], tour].ravel()
        tn = d[tour[:, None], nxt].ravel()
        nt = d[nxt[:, None], tour].ravel()
        nn = d[nxt[:, None], nxt].ravel()
        cut = tn[:: n + 1]
        best, move = -min_gain, None
        for i0, i1 in blocks:
            # the block's triples in (i, j, k) order: cut i's run of them
            # starts at starts[i - i0] and holds its pairs from suffix[i] on
            counts = len(rows) - suffix[i0:i1]
            starts = np.cumsum(counts) - counts
            pair = np.arange(counts.sum()) + np.repeat(suffix[i0:i1] - starts, counts)
            i_n = np.repeat(np.arange(i0 * n, i1 * n, n), counts)
            j, k = rows[pair], cols[pair]
            ij, ik, jk = i_n + j, i_n + k, flat[pair]
            # cut edges (a, b), (c, dd), (e, f) after positions i, j and k
            ab, cd, ef = np.repeat(cut[i0:i1], counts), cut[j], cut[k]
            ac, ad, bd = tt[ij], tn[ij], nn[ij]
            ae, be, bf = tt[ik], nt[ik], nn[ik]
            ce, cf, df = tt[jk], tn[jk], nn[jk]
            # new edge sums of combos 1..7, each added left to right
            new = [ac + bd, ab + ce, ac + be, ad + be, ad + ce, ae + bd, ae + cd]
            for total, last in zip(new, (ef, df, df, cf, bf, cf, bf)):
                total += last
            base = ab + cd
            base += ef
            # Rounding is monotone, so no delta of a triple is below its
            # smallest sum less base: only triples where that is below best
            # can hold the move.
            lo = np.minimum(new[0], new[1])
            for total in new[2:]:
                np.minimum(lo, total, out=lo)
            lo -= base
            hit = np.flatnonzero(lo < best)
            if not hit.size:
                continue
            delta = np.stack([total[hit] for total in new], axis=-1) - base[hit, None]
            pos = int(np.argmin(delta))
            if delta.flat[pos] < best:
                best = delta.flat[pos]
                at, combo = divmod(pos, 7)
                at = hit[at]
                move = (int(i_n[at]) // n, int(j[at]), int(k[at]), combo + 1)
        if move is None:
            return Tour(tuple(tour.tolist()))
        tour = _rebuild_three_opt(tour, *move)
