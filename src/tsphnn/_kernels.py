"""The closed tour length and the k-pair swap, plus a flag perfbench reads.

The length and the swap take nested lists or NumPy arrays alike.  The
length is written scalar, one term at a time, because its float operation
order defines the answers: the SA walk and the summed tour length are
reproduced bit for bit only in that order.  The swap's positions come from
:func:`pick_positions`, which picks for many steps at once; its integer
picks are the same whether it is given one row of uniforms or many.
"""

import numpy as np

# Read by the benchmark harness, which records whether a JIT path was active.
# The code is plain Python/NumPy, so it is always False.
NUMBA_ENABLED = False


def closed_tour_length(d, order):
    """Length of the closed tour visiting ``order`` and returning to its start,
    summed edge by edge in tour order."""
    total = 0.0
    prev = order[0]
    for city in order[1:]:
        total += d[prev][city]
        prev = city
    return total + d[prev][order[0]]


def pick_positions(n, k, uniforms):
    """The 2k distinct positions in 0..n-1 that each row of ``uniforms`` picks.

    Row i's first 2k draws in [0, 1) drive a partial Fisher-Yates shuffle of
    ``range(n)``: draw j swaps position j with ``j + int(u * (n - j))``
    (clamped to n - 1).  Returns a (rows, 2k) array of the shuffle's first
    2k entries; consecutive picks are paired.  They have the narrowest
    signed dtype that holds -n - 1 to n, which keeps the (rows, n) shuffle
    buffer small.  The buffer is indexed flat, which costs less than
    indexing it by (row, position) pairs.
    """
    u = np.asarray(uniforms, dtype=np.float64)
    dtype = np.min_scalar_type(-n - 1)
    pos = np.empty((len(u), n), dtype=dtype)
    pos[:] = np.arange(n, dtype=dtype)
    flat = pos.reshape(-1)  # a view: row i's position r is entry i * n + r
    row_start = np.arange(0, len(u) * n, n)
    for j in range(2 * k):
        at = row_start + np.minimum(j + (u[:, j] * (n - j)).astype(np.intp), n - 1)
        picked = flat[at]
        flat[at] = pos[:, j]
        pos[:, j] = picked
    return pos[:, : 2 * k].copy()


def swap_pairs(order, pairs):
    """A copy of ``order`` with the cities at each position pair (a, b) of
    ``pairs`` exchanged; the input is untouched."""
    out = order.copy()
    for a, b in pairs:
        out[a], out[b] = out[b], out[a]
    return out


def swap_positions(order, k, uniforms):
    """Exchange the cities at k disjoint position pairs, chosen by ``uniforms``.

    ``uniforms`` supplies 2k draws in [0, 1) for :func:`pick_positions`;
    consecutive picks are paired.  Returns a copy of ``order``; the input is
    untouched.
    """
    picks = pick_positions(len(order), k, [uniforms[: 2 * k]])
    return swap_pairs(order, picks.reshape(k, 2).tolist())
