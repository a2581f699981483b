"""The closed tour length and the k-pair swap, plus a flag perfbench reads.

Both helpers take nested lists or NumPy arrays alike.  They are written
scalar, one step at a time, because their float operation order defines
the answers: the SA walk and the summed tour length are reproduced bit for
bit only in that order.
"""

# Read by the benchmark harness, which records whether a JIT path was active.
# The code is plain Python/NumPy, so it is always False.
NUMBA_ENABLED = False


def closed_tour_length(d, order):
    """Length of the closed tour visiting ``order`` and returning to its start."""
    n = len(order)
    total = 0.0
    for i in range(n - 1):
        total += d[order[i]][order[i + 1]]
    total += d[order[n - 1]][order[0]]
    return total


def swap_positions(order, k, uniforms):
    """Exchange the cities at k disjoint position pairs, chosen by ``uniforms``.

    ``uniforms`` supplies 2k draws in [0, 1) consumed by a partial
    Fisher-Yates shuffle that picks 2k distinct positions; consecutive
    picks are paired.  Returns a copy of ``order``; the input is untouched.
    """
    n = len(order)
    pos = list(range(n))
    for j in range(2 * k):
        r = j + int(uniforms[j] * (n - j))
        if r >= n:
            r = n - 1
        pos[j], pos[r] = pos[r], pos[j]
    out = order.copy()
    for p in range(k):
        a = pos[2 * p]
        b = pos[2 * p + 1]
        out[a], out[b] = out[b], out[a]
    return out
