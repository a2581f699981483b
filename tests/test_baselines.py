import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tsphnn as T
from tsphnn import baselines
from tsphnn.baselines import MIN_GAIN, _first_cut_blocks, _rebuild_three_opt


def all_two_opt_deltas(d, order):
    """Deltas of every segment reversal, computed independently by
    rebuilding each candidate tour."""
    n = len(order)
    base = T.tour_length(T.DistanceMatrix(d), order)
    deltas = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            cand = list(order)
            cand[i : j + 1] = reversed(cand[i : j + 1])
            deltas.append(T.tour_length(T.DistanceMatrix(d), cand) - base)
    return deltas


def test_greedy_matrix4_from_a(matrix4_m):
    t = T.greedy_nearest_neighbor(matrix4_m, 0)
    assert t.order == (0, 2, 1, 3)
    assert T.tour_length(matrix4_m, t) == 71.0


def test_greedy_three_cities_unique_tour():
    m = T.distance_matrix(T.generate_random_instance(3, seed=0))
    lengths = {T.tour_length(m, T.greedy_nearest_neighbor(m, s)) for s in range(3)}
    assert len(lengths) == 1  # only one undirected triangle tour exists


def test_greedy_tie_break_ascending():
    n = 5
    d = np.ones((n, n))
    np.fill_diagonal(d, 0.0)
    t = T.greedy_nearest_neighbor(T.DistanceMatrix(d), 2)
    assert t.order == (2, 0, 1, 3, 4)


def test_two_opt_uncrosses_unit_square():
    inst = T.Instance(
        id="square",
        cities=(
            T.City("A", 0.0, 0.0),
            T.City("B", 1.0, 0.0),
            T.City("C", 0.0, 1.0),
            T.City("D", 1.0, 1.0),
        ),
    )
    m = T.distance_matrix(inst)
    crossing = T.Tour((0, 3, 1, 2))  # length 2 + 2*sqrt(2)
    assert T.tour_length(m, crossing) == pytest.approx(2 + 2 * np.sqrt(2), abs=1e-12)
    fixed = T.two_opt(m, crossing)
    assert T.tour_length(m, fixed) == pytest.approx(4.0, abs=1e-12)


def test_two_opt_fixed_point_is_unchanged():
    m = T.distance_matrix(T.generate_random_instance(9, seed=17))
    once = T.two_opt(m, T.greedy_nearest_neighbor(m, 0))
    twice = T.two_opt(m, once)
    assert twice.order == once.order


def test_two_opt_local_optimality_checked_independently():
    m = T.distance_matrix(T.generate_random_instance(10, seed=23))
    out = T.two_opt(m, T.greedy_nearest_neighbor(m, 0))
    assert all(delta >= -1e-9 for delta in all_two_opt_deltas(m.d, out.order))


def test_oracle_sandwich_on_random_instances():
    for seed in range(20):
        inst = T.generate_random_instance(10, seed=seed)
        m = T.distance_matrix(inst)
        _, opt = T.brute_force_optimum(m)
        greedy = T.greedy_nearest_neighbor(m, 0)
        greedy_len = T.tour_length(m, greedy)
        for improved in (T.two_opt(m, greedy), T.three_opt(m, greedy)):
            length = T.tour_length(m, improved)
            assert opt - 1e-9 <= length <= greedy_len + 1e-12


def test_three_opt_improves_a_two_opt_optimum():
    # seed 14 is a frozen witness: the greedy + 2-opt tour is 2-opt-local
    # optimal yet 3-opt still improves it (down to the true optimum)
    inst = T.generate_random_instance(8, seed=14)
    m = T.distance_matrix(inst)
    t2 = T.two_opt(m, T.greedy_nearest_neighbor(m, 0))
    assert all(delta >= -1e-9 for delta in all_two_opt_deltas(m.d, t2.order))
    t3 = T.three_opt(m, t2)
    l2, l3 = T.tour_length(m, t2), T.tour_length(m, t3)
    assert l3 < l2 - 1e-9
    _, opt = T.brute_force_optimum(m)
    assert l3 >= opt - 1e-9


def test_three_opt_fixed_point_is_unchanged():
    m = T.distance_matrix(T.generate_random_instance(9, seed=2))
    once = T.three_opt(m, T.greedy_nearest_neighbor(m, 0))
    twice = T.three_opt(m, once)
    assert twice.order == once.order


def test_three_opt_small_n_falls_back_to_two_opt(matrix4_m):
    start = T.Tour((0, 3, 1, 2))
    assert T.three_opt(matrix4_m, start).order == T.two_opt(matrix4_m, start).order


def test_three_opt_against_oracle_9_cities(capsys):
    hits = 0
    trials = 50
    for seed in range(trials):
        inst = T.generate_random_instance(9, seed=1000 + seed)
        m = T.distance_matrix(inst)
        t3 = T.three_opt(m, T.greedy_nearest_neighbor(m, 0))
        length = T.tour_length(m, t3)
        _, opt = T.brute_force_optimum(m)
        assert length >= opt - 1e-9
        hits += abs(length - opt) < 1e-9
    print(f"3-opt hit the optimum on {hits}/{trials} random 9-city instances")
    assert hits > 0


def test_outputs_are_valid_permutations():
    m = T.distance_matrix(T.generate_random_instance(11, seed=5))
    greedy = T.greedy_nearest_neighbor(m, 4)
    for t in (greedy, T.two_opt(m, greedy), T.three_opt(m, greedy)):
        assert sorted(t.order) == list(range(11))


def two_opt_loop(d, start, min_gain):
    """Reference best-improvement 2-opt as a scalar loop: the first strictly
    smallest delta in i-major scan order wins."""
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


def three_opt_loop(d, start, min_gain):
    """Reference best-improvement 3-opt as a scalar loop over all edge
    triples and 7 reconnections each."""
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


@st.composite
def _local_search_cases(draw):
    n = draw(st.integers(3, 14))
    family = draw(st.sampled_from(("uniform", "grid", "three-valued")))
    if family == "uniform":
        seed = draw(st.integers(0, 2**32 - 1))
        m = T.distance_matrix(T.generate_random_instance(n, seed=seed))
    elif family == "grid":
        # integer-grid coordinates, repeats allowed: many deltas tie exactly
        point = st.tuples(st.integers(0, 3), st.integers(0, 3))
        pts = np.array(draw(st.lists(point, min_size=n, max_size=n)), dtype=float)
        diff = pts[:, None] - pts[None]
        m = T.DistanceMatrix(np.hypot(diff[..., 0], diff[..., 1]))
    else:
        size = n * (n - 1) // 2
        value = st.sampled_from([1.0, 2.0, 3.0])
        upper = draw(st.lists(value, min_size=size, max_size=size))
        d = np.zeros((n, n))
        d[np.triu_indices(n, 1)] = upper
        m = T.DistanceMatrix(d + d.T)
    return m, T.Tour(tuple(draw(st.permutations(range(n)))))


@settings(max_examples=200, deadline=None)
@given(_local_search_cases())
def test_local_search_scans_match_loop_reference(case):
    """The NumPy scans return the scalar loops' tours, ties included."""
    m, start = case
    expected = two_opt_loop(m.d, start.as_array(), MIN_GAIN)
    assert T.two_opt(m, start).order == tuple(expected.tolist())
    if m.n >= 5:
        expected = three_opt_loop(m.d, start.as_array(), MIN_GAIN)
        assert T.three_opt(m, start).order == tuple(expected.tolist())


# 3-opt block budgets: one first cut a block, a budget that groups first
# cuts unevenly (at n = 14 their triple counts are 78, 66, ..., 3, 1), and
# the default, under which n <= 14 is one block.
BLOCK_BUDGETS = (1, 40, baselines.BLOCK_TRIPLES)


@pytest.mark.parametrize("n", [5, 6, 14, 30, 200])
@pytest.mark.parametrize("budget", BLOCK_BUDGETS + (7, 10**9))
def test_blocks_hold_consecutive_first_cuts_within_the_budget(n, budget):
    with mock.patch.object(baselines, "BLOCK_TRIPLES", budget):
        blocks = _first_cut_blocks(n)
    assert [i0 for i0, _ in blocks] == [0] + [i1 for _, i1 in blocks[:-1]]
    assert blocks[-1][1] == n - 2
    for i0, i1 in blocks:
        size = sum((n - 1 - i) * (n - 2 - i) // 2 for i in range(i0, i1))
        assert i1 == i0 + 1 or size <= budget


@settings(max_examples=100, deadline=None)
@given(_local_search_cases())
def test_three_opt_blocks_match_loop_reference(case):
    """Every block budget returns the scalar loop's tour, ties included."""
    m, start = case
    assume(m.n >= 5)
    expected = tuple(three_opt_loop(m.d, start.as_array(), MIN_GAIN).tolist())
    for budget in BLOCK_BUDGETS:
        with mock.patch.object(baselines, "BLOCK_TRIPLES", budget):
            assert T.three_opt(m, start).order == expected


@pytest.mark.parametrize("n", [20, 27, 33, 40])
def test_three_opt_blocks_agree_at_larger_n(n):
    """Past n = 14 the default budget splits a pass too; every budget
    returns the default's tour, from greedy, random and tied starts."""
    rng = np.random.default_rng(n)
    grid = rng.integers(0, 5, (n, 2)).astype(float)
    diff = grid[:, None] - grid[None]
    tied = T.DistanceMatrix(np.hypot(diff[..., 0], diff[..., 1]))
    uniform = T.distance_matrix(T.generate_random_instance(n, seed=n))
    cases = [
        (uniform, T.greedy_nearest_neighbor(uniform, 0)),
        (uniform, T.Tour.random(n, rng)),
        (tied, T.Tour.random(n, rng)),
    ]
    for m, start in cases:
        expected = T.three_opt(m, start).order
        for budget in BLOCK_BUDGETS[:2] + (333,):
            with mock.patch.object(baselines, "BLOCK_TRIPLES", budget):
                assert T.three_opt(m, start).order == expected


def test_three_opt_overflowed_deltas_are_no_move_at_every_budget():
    """The 1.7e308 matrices of the test below, and a ring with three edges
    of 7e307 (all others 1), whose one triple cutting all three has only
    -inf deltas: every block budget ends on the tour the one-cut-at-a-time
    scan ended on, recorded here.  Taking an overflowed delta for a gain
    changes all four.  A subprocess turns a hang into a failure."""
    code = textwrap.dedent(
        """
        import warnings
        from unittest import mock
        import numpy as np
        import tsphnn as T
        from tsphnn import baselines
        warnings.simplefilter("ignore", RuntimeWarning)
        cases = []
        for seed in (0, 5, 15):
            rng = np.random.default_rng(seed)
            upper = np.triu(rng.uniform(0, 1.7e308, (9, 9)), 1)
            cases.append((T.DistanceMatrix(upper + upper.T), T.Tour.random(9, rng)))
        d = np.ones((9, 9))
        np.fill_diagonal(d, 0.0)
        for p in (0, 3, 6):
            d[p, p + 1] = d[p + 1, p] = 7e307
        cases.append((T.DistanceMatrix(d), T.Tour(tuple(range(9)))))
        ends = [
            (3, 0, 2, 1, 4, 7, 6, 8, 5),
            (5, 2, 1, 3, 4, 6, 8, 0, 7),
            (4, 1, 5, 0, 2, 8, 3, 6, 7),
            (0, 2, 6, 5, 4, 1, 3, 7, 8),
        ]
        for (m, start), end in zip(cases, ends):
            for budget in (1, 40, baselines.BLOCK_TRIPLES):
                with mock.patch.object(baselines, "BLOCK_TRIPLES", budget):
                    assert T.three_opt(m, start).order == end, budget
        print("done")
        """
    )
    src = str(Path(T.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "done"


def test_local_search_ends_on_huge_distances():
    """Both searches used to hang once distances reach about 1e5: a delta's
    rounding error, larger than MIN_GAIN there, passed for a gain that the
    next pass undid.  Entries near 1.7e308 also overflow sums to inf.  A
    subprocess turns a hang into a failure."""
    code = textwrap.dedent(
        """
        import warnings
        import numpy as np
        import tsphnn as T
        warnings.simplefilter("ignore", RuntimeWarning)
        cases = []
        for seed in (0, 5, 15):
            rng = np.random.default_rng(seed)
            upper = np.triu(rng.uniform(0, 1.7e308, (9, 9)), 1)
            cases.append((T.DistanceMatrix(upper + upper.T), T.Tour.random(9, rng)))
        m = T.distance_matrix(T.generate_random_instance(6, seed=0, bound=1e5))
        cases.append((m, T.greedy_nearest_neighbor(m, 0)))
        for m, start in cases:
            for search in (T.two_opt, T.three_opt):
                assert sorted(search(m, start).order) == list(range(m.n))
        length = T.tour_length(m, T.three_opt(m, start))
        assert length <= T.tour_length(m, T.two_opt(m, start)) <= T.tour_length(m, start)
        print("done")
        """
    )
    src = str(Path(T.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "done"


@st.composite
def _small_instances(draw):
    """A generated instance with n <= 10 and a greedy start city."""
    n = draw(st.integers(3, 10))
    seed = draw(st.integers(0, 2**32 - 1))
    bound = draw(st.sampled_from((1.0, 100.0)))
    m = T.distance_matrix(T.generate_random_instance(n, seed=seed, bound=bound))
    return m, draw(st.integers(0, n - 1))


@settings(max_examples=100, deadline=None)
@given(_small_instances())
def test_two_opt_output_has_no_improving_move_property(case):
    m, start = case
    out = T.two_opt(m, T.greedy_nearest_neighbor(m, start))
    assert all(delta >= -1e-9 for delta in all_two_opt_deltas(m.d, out.order))


@settings(max_examples=100, deadline=None)
@given(_small_instances())
def test_oracle_local_search_greedy_sandwich_property(case):
    """oracle <= 3-opt <= greedy and oracle <= 2-opt <= greedy, both local
    searches from the same greedy tour."""
    m, start = case
    _, opt = T.brute_force_optimum(m)
    greedy = T.greedy_nearest_neighbor(m, start)
    greedy_len = T.tour_length(m, greedy)
    for search in (T.two_opt, T.three_opt):
        length = T.tour_length(m, search(m, greedy))
        assert opt - 1e-9 <= length <= greedy_len + 1e-12
