"""Direct checks of the scalar kernels and the 3-opt reconnection."""

import numpy as np
import pytest

import tsphnn as T
from tsphnn import _kernels
from tsphnn.baselines import _rebuild_three_opt


def test_closed_tour_length_matches_manual():
    d = np.array([[0.0, 2.0, 9.0], [2.0, 0.0, 4.0], [9.0, 4.0, 0.0]])
    order = np.array([2, 0, 1], dtype=np.int64)
    assert _kernels.closed_tour_length(d, order) == 9.0 + 2.0 + 4.0


def test_rebuild_three_opt_matches_list_reference():
    """Each combo reconnects S1 = tour[i+1..j] and S2 = tour[j+1..k] as its
    docstring says, and changes the tour length by the delta 3-opt scores
    that combo with."""

    def rev(s):
        return s[::-1]

    reference = {
        1: lambda s1, s2: rev(s1) + s2,
        2: lambda s1, s2: s1 + rev(s2),
        3: lambda s1, s2: rev(s1) + rev(s2),
        4: lambda s1, s2: s2 + s1,
        5: lambda s1, s2: s2 + rev(s1),
        6: lambda s1, s2: rev(s2) + s1,
        7: lambda s1, s2: rev(s2) + rev(s1),
    }
    length = _kernels.closed_tour_length
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(5, 13))
        inst = T.generate_random_instance(n, seed=int(rng.integers(1000)))
        d = T.distance_matrix(inst).d
        tour = rng.permutation(n).astype(np.int64)
        i, j, k = sorted(int(v) for v in rng.choice(n, 3, replace=False))
        a, b, c, dd = tour[i], tour[i + 1], tour[j], tour[j + 1]
        e, f = tour[k], tour[(k + 1) % n]
        delta = {
            1: d[a, c] + d[b, dd] + d[e, f],
            2: d[a, b] + d[c, e] + d[dd, f],
            3: d[a, c] + d[b, e] + d[dd, f],
            4: d[a, dd] + d[e, b] + d[c, f],
            5: d[a, dd] + d[e, c] + d[b, f],
            6: d[a, e] + d[dd, b] + d[c, f],
            7: d[a, e] + d[dd, c] + d[b, f],
        }
        base = d[a, b] + d[c, dd] + d[e, f]
        t = tour.tolist()
        for combo, rebuild in reference.items():
            out = _rebuild_three_opt(tour, i, j, k, combo)
            expected = t[: i + 1] + rebuild(t[i + 1 : j + 1], t[j + 1 : k + 1]) + t[k + 1 :]
            assert out.tolist() == expected
            assert sorted(expected) == list(range(n))
            change = length(d, out) - length(d, tour)
            assert change == pytest.approx(delta[combo] - base, abs=1e-9)
