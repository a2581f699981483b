"""The numba-compiled kernels and the pure-Python fallback (selected by the
TSPHNN_NO_NUMBA environment flag) must produce identical results."""

import os
import subprocess
import sys

import numpy as np
import pytest

import tsphnn as T
from tsphnn import _kernels

PROBE = """
import numpy as np
import tsphnn as T
from tsphnn import _kernels
print("numba", _kernels.NUMBA_ENABLED)
inst = T.generate_random_instance(8, seed=4)
m = T.distance_matrix(inst)
t, L = T.brute_force_optimum(m)
print("bf", t.order, repr(L))
g = T.greedy_nearest_neighbor(m, 0)
for name, fn in (("two", T.two_opt), ("three", T.three_opt)):
    out = fn(m, g)
    print(name, out.order, repr(T.tour_length(m, out)))
cfg = T.SaConfig(t0=1.0, cooling_rate=0.995, iterations=400, swap_count=1, seed=7)
tour, L, trace = T.anneal(m, T.Tour(tuple(range(8))), cfg)
print("sa", tour.order, repr(L), repr(float(trace.current_length.sum())))
res = T.run_hopfield(T.normalize_distances(m), T.HopfieldParams(d_pen=10.0, seed=3))
print("hnn", res.converged, res.valid, res.sweeps_used,
      repr(float(res.energy_trace.sum())))
"""


def _probe_output(no_numba: bool) -> str:
    env = dict(os.environ)
    if no_numba:
        env["TSPHNN_NO_NUMBA"] = "1"
    else:
        env.pop("TSPHNN_NO_NUMBA", None)
    return subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    ).stdout


def test_flag_selects_fallback():
    out = _probe_output(no_numba=True)
    assert out.splitlines()[0] == "numba False"


def test_both_paths_produce_identical_results():
    with_numba = _probe_output(no_numba=False)
    without = _probe_output(no_numba=True)
    # everything but the flag line must match bit for bit
    assert with_numba.splitlines()[1:] == without.splitlines()[1:]


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
            out = _kernels._rebuild_three_opt(tour, i, j, k, combo)
            expected = t[: i + 1] + rebuild(t[i + 1 : j + 1], t[j + 1 : k + 1]) + t[k + 1 :]
            assert out.tolist() == expected
            assert sorted(expected) == list(range(n))
            change = length(d, out) - length(d, tour)
            assert change == pytest.approx(delta[combo] - base, abs=1e-9)
