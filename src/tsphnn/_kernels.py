"""Hot numeric kernels: the tour length and the SA loop.

The loops are written scalar, one update at a time, because their float
operation order defines the answers: the SA walk and the summed tour
length are reproduced bit for bit only in that order.
"""

import numpy as np

# Read by the benchmark harness, which records whether a JIT path was active.
# The kernels are plain Python/NumPy, so it is always False.
NUMBA_ENABLED = False


def closed_tour_length(d, order):
    """Length of the closed tour visiting ``order`` and returning to its start."""
    n = order.shape[0]
    total = 0.0
    for i in range(n - 1):
        total += d[order[i], order[i + 1]]
    total += d[order[n - 1], order[0]]
    return total


def swap_positions(order, k, uniforms):
    """Exchange the cities at k disjoint position pairs, chosen by ``uniforms``.

    ``uniforms`` supplies 2k draws in [0, 1) consumed by a partial
    Fisher-Yates shuffle that picks 2k distinct positions; consecutive
    picks are paired.  Returns a new array; ``order`` is untouched.
    """
    n = order.shape[0]
    pos = np.arange(n)
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


def temperature(t0, cooling, t_floor, step):
    """Geometric cooling schedule t0 * cooling**step, floored at ``t_floor``."""
    temp = t0 * cooling ** step
    if temp < t_floor:
        temp = t_floor
    return temp


def metropolis(cur_len, cand_len, temp):
    """Acceptance probability of a move from ``cur_len`` to ``cand_len``:
    1.0 when the candidate is no worse, else exp(-delta / temp)."""
    if cand_len <= cur_len:
        return 1.0
    return np.exp(-(cand_len - cur_len) / temp)


def anneal_loop(d, start, t0, cooling, t_floor, iters, k, uniforms):
    """Metropolis annealing over tour space with geometric cooling.

    Each step draws a k-pair swap neighbour (2k uniforms) plus one
    acceptance uniform from row ``uniforms[step]``.  Tracks and returns the
    best tour seen; the final walker state is returned alongside so either
    convention is available to callers.
    """
    cur = start.copy()
    cur_len = closed_tour_length(d, cur)
    best = cur.copy()
    best_len = cur_len
    temps = np.empty(iters)
    cur_lens = np.empty(iters)
    best_lens = np.empty(iters)
    for step in range(iters):
        temp = temperature(t0, cooling, t_floor, step)
        cand = swap_positions(cur, k, uniforms[step])
        cand_len = closed_tour_length(d, cand)
        if metropolis(cur_len, cand_len, temp) >= uniforms[step, 2 * k]:
            cur = cand
            cur_len = cand_len
            if cur_len < best_len:
                best_len = cur_len
                best = cur.copy()
        temps[step] = temp
        cur_lens[step] = cur_len
        best_lens[step] = best_len
    return best, best_len, cur, temps, cur_lens, best_lens

