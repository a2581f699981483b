"""Hot numeric kernels, JIT-compiled with numba when available.

Every kernel is plain Python over NumPy arrays; ``maybe_njit`` compiles it
with ``numba.njit`` unless the environment variable ``TSPHNN_NO_NUMBA`` is
set (to anything other than "0"/"false") or numba is not importable.  Both
paths execute the same source, so results are identical move-for-move;
only speed differs.  ``benchmarks/bench_kernels.py`` compares the two.
"""

import os

import numpy as np


def _numba_requested() -> bool:
    flag = os.environ.get("TSPHNN_NO_NUMBA", "").strip().lower()
    return flag in ("", "0", "false", "no")


NUMBA_ENABLED = False
if _numba_requested():
    try:
        import numba

        NUMBA_ENABLED = True
    except ImportError:
        NUMBA_ENABLED = False


def maybe_njit(func):
    if NUMBA_ENABLED:
        return numba.njit(cache=True)(func)
    return func


@maybe_njit
def closed_tour_length(d, order):
    """Length of the closed tour visiting ``order`` and returning to its start."""
    n = order.shape[0]
    total = 0.0
    for i in range(n - 1):
        total += d[order[i], order[i + 1]]
    total += d[order[n - 1], order[0]]
    return total


@maybe_njit
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


@maybe_njit
def temperature(t0, cooling, t_floor, step):
    """Geometric cooling schedule t0 * cooling**step, floored at ``t_floor``."""
    temp = t0 * cooling ** step
    if temp < t_floor:
        temp = t_floor
    return temp


@maybe_njit
def metropolis(cur_len, cand_len, temp):
    """Acceptance probability of a move from ``cur_len`` to ``cand_len``:
    1.0 when the candidate is no worse, else exp(-delta / temp)."""
    if cand_len <= cur_len:
        return 1.0
    return np.exp(-(cand_len - cur_len) / temp)


@maybe_njit
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


@maybe_njit
def net_input(w, bias, g, u):
    """Net input of unit ``u`` in the flat state ``g``: w[u] . g + bias[u]."""
    return np.dot(w[u], g) + bias[u]


@maybe_njit
def hopfield_sweep(w, bias, g, threshold, order, max_de):
    """One asynchronous sweep of threshold updates in the unit ``order``.

    ``g`` (flat n^2 state) is mutated in place, each update immediately
    visible to the next.  Returns (changed, max_de): whether any unit
    flipped, and the largest single-update energy change seen so far, given
    the running ``max_de`` (-inf before any flip); with symmetric
    zero-diagonal weights it stays <= 0.
    """
    changed = False
    for u in order:
        net = net_input(w, bias, g, u)
        new = 1.0 if net >= threshold else 0.0
        dv = new - g[u]
        if dv != 0.0:
            de = -dv * net
            if de > max_de:
                max_de = de
            g[u] = new
            changed = True
    return changed, max_de


@maybe_njit
def two_opt_loop(d, start, min_gain):
    """Best-improvement 2-opt: reverse the segment whose exchange saves most.

    Repeats until no reversal improves the closed tour by more than
    ``min_gain``.  Candidate scan order (and therefore tie-breaking) is
    fixed, so the result is deterministic.
    """
    n = start.shape[0]
    tour = start.copy()
    improved = True
    while improved:
        improved = False
        best_delta = -min_gain
        best_i = -1
        best_j = -1
        for i in range(1, n - 1):
            a = tour[i - 1]
            b = tour[i]
            for j in range(i + 1, n):
                c = tour[j]
                e = tour[(j + 1) % n]
                delta = d[a, c] + d[b, e] - d[a, b] - d[c, e]
                if delta < best_delta:
                    best_delta = delta
                    best_i = i
                    best_j = j
        if best_i >= 0:
            lo = best_i
            hi = best_j
            while lo < hi:
                tour[lo], tour[hi] = tour[hi], tour[lo]
                lo += 1
                hi -= 1
            improved = True
    return tour


@maybe_njit
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


@maybe_njit
def three_opt_loop(d, start, min_gain):
    """Best-improvement 3-opt over all edge triples and 7 reconnections each."""
    n = start.shape[0]
    tour = start.copy()
    improved = True
    while improved:
        improved = False
        best_delta = -min_gain
        best_i = -1
        best_j = -1
        best_k = -1
        best_combo = 0
        for i in range(n - 2):
            a = tour[i]
            b = tour[i + 1]
            for j in range(i + 1, n - 1):
                c = tour[j]
                dd = tour[j + 1]
                for k in range(j + 1, n):
                    e = tour[k]
                    f = tour[(k + 1) % n]
                    base = d[a, b] + d[c, dd] + d[e, f]
                    d1 = d[a, c] + d[b, dd] + d[e, f] - base
                    d2 = d[a, b] + d[c, e] + d[dd, f] - base
                    d3 = d[a, c] + d[b, e] + d[dd, f] - base
                    d4 = d[a, dd] + d[e, b] + d[c, f] - base
                    d5 = d[a, dd] + d[e, c] + d[b, f] - base
                    d6 = d[a, e] + d[dd, b] + d[c, f] - base
                    d7 = d[a, e] + d[dd, c] + d[b, f] - base
                    if d1 < best_delta:
                        best_delta = d1
                        best_i, best_j, best_k, best_combo = i, j, k, 1
                    if d2 < best_delta:
                        best_delta = d2
                        best_i, best_j, best_k, best_combo = i, j, k, 2
                    if d3 < best_delta:
                        best_delta = d3
                        best_i, best_j, best_k, best_combo = i, j, k, 3
                    if d4 < best_delta:
                        best_delta = d4
                        best_i, best_j, best_k, best_combo = i, j, k, 4
                    if d5 < best_delta:
                        best_delta = d5
                        best_i, best_j, best_k, best_combo = i, j, k, 5
                    if d6 < best_delta:
                        best_delta = d6
                        best_i, best_j, best_k, best_combo = i, j, k, 6
                    if d7 < best_delta:
                        best_delta = d7
                        best_i, best_j, best_k, best_combo = i, j, k, 7
        if best_combo > 0:
            tour = _rebuild_three_opt(tour, best_i, best_j, best_k, best_combo)
            improved = True
    return tour


def warmup():
    """Trigger JIT compilation of every kernel on a tiny problem."""
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    order = np.array([0, 1, 2], dtype=np.int64)
    closed_tour_length(d, order)
    u = np.full((2, 3), 0.5)
    anneal_loop(d, order, 1.0, 0.9, 1e-12, 2, 1, u)
    two_opt_loop(d, order, 1e-12)
    three_opt_loop(d, order, 1e-12)
    temperature(1.0, 0.9, 1e-12, 0)
    metropolis(1.0, 2.0, 1.0)
    w = np.zeros((9, 9))
    g = np.zeros(9)
    net_input(w, g, g, 0)
    hopfield_sweep(w, g, g.copy(), 0.0, np.arange(9, dtype=np.int64), -np.inf)
