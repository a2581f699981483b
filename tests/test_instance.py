import json
import math
import tracemalloc

import numpy as np
import pytest

import tsphnn as T
from tsphnn.errors import (
    DegenerateInstanceError,
    InstanceSizeError,
    InvalidTourError,
    ParseError,
)

# Golden closed-tour lengths of the bundled paper8 city set, in the
# start / annealed / network-refined visiting orders shipped as anchors.
PAPER8_START_ORDER = tuple(range(8))
PAPER8_ANNEALED_ORDER = (0, 6, 3, 4, 5, 1, 2, 7)
PAPER8_REFINED_ORDER = (7, 1, 3, 4, 6, 5, 0, 2)
PAPER8_START_LENGTH = 35.9550
PAPER8_ANNEALED_LENGTH = 32.6606
PAPER8_REFINED_LENGTH = 31.7981


def test_generate_is_deterministic():
    a = T.generate_random_instance(3, seed=42, bound=1.0)
    b = T.generate_random_instance(3, seed=42, bound=1.0)
    assert a == b or (a.id == b.id and a.cities == b.cities)


def test_generate_respects_bound():
    inst = T.generate_random_instance(8, seed=5, bound=10.0)
    assert inst.n == 8
    pts = inst.coords()
    assert np.all(pts >= 0) and np.all(pts <= 10.0)


def test_generate_rejects_small_n():
    with pytest.raises(InstanceSizeError):
        T.generate_random_instance(2, seed=1)


def test_generated_instance_runs_through_every_solver():
    inst = T.generate_random_instance(10, seed=77, bound=1.0)
    m = T.distance_matrix(inst)
    _, opt = T.brute_force_optimum(m)
    greedy = T.greedy_nearest_neighbor(m, 0)
    for tour in (
        greedy,
        T.two_opt(m, greedy),
        T.three_opt(m, greedy),
    ):
        assert opt - 1e-9 <= T.tour_length(m, tour)
    cfg = T.SaConfig(t0=1.0, cooling_rate=0.99, iterations=300, seed=0)
    sa_tour, sa_len, _ = T.anneal(m, greedy, cfg)
    assert sa_len <= T.tour_length(m, greedy) + 1e-12
    hp = T.HopfieldParams(d_pen=10.0, max_sweeps=100, seed=0)
    res = T.run_hopfield(T.normalize_distances(m), hp)
    assert res.converged
    rep = T.solve_hybrid(inst, cfg, hp)
    assert rep.final_length <= rep.sa_length <= rep.sa_start_length + 1e-12


def test_distance_matrix_coincident_points():
    inst = T.Instance(
        id="dup",
        cities=(T.City("A", 1.0, 1.0), T.City("B", 1.0, 1.0), T.City("C", 4.0, 5.0)),
    )
    m = T.distance_matrix(inst)
    assert m.d[0, 1] == 0.0


def test_distance_matrix_3_4_5_triangle():
    inst = T.Instance(
        id="t345",
        cities=(T.City("A", 0.0, 0.0), T.City("B", 3.0, 4.0), T.City("C", 0.0, 4.0)),
    )
    m = T.distance_matrix(inst)
    assert m.d[0, 1] == pytest.approx(5.0, abs=1e-12)


def test_distance_matrix_symmetry_and_zero_diagonal():
    for seed in range(20):
        m = T.distance_matrix(T.generate_random_instance(7, seed=seed))
        assert np.array_equal(m.d, m.d.T)
        assert np.all(np.diagonal(m.d) == 0)
        assert np.all(np.isfinite(m.d)) and np.all(m.d >= 0)


def test_paper8_start_order_length(paper8_m):
    assert T.tour_length(paper8_m, PAPER8_START_ORDER) == pytest.approx(
        PAPER8_START_LENGTH, abs=1e-3
    )


def test_paper8_annealed_order_length(paper8_m):
    assert T.tour_length(paper8_m, PAPER8_ANNEALED_ORDER) == pytest.approx(
        PAPER8_ANNEALED_LENGTH, abs=1e-3
    )


def test_paper8_refined_order_length(paper8_m):
    assert T.tour_length(paper8_m, PAPER8_REFINED_ORDER) == pytest.approx(
        PAPER8_REFINED_LENGTH, abs=1e-3
    )


def test_normalize_scales_by_max():
    d = np.array(
        [
            [0.0, 25.0, 5.0],
            [25.0, 0.0, 10.0],
            [5.0, 10.0, 0.0],
        ]
    )
    m = T.normalize_distances(T.DistanceMatrix(d))
    assert m.d.max() == 1.0
    assert np.allclose(m.d, d / 25.0)


def test_normalize_is_idempotent():
    m = T.distance_matrix(T.generate_random_instance(6, seed=9))
    once = T.normalize_distances(m)
    twice = T.normalize_distances(once)
    assert np.array_equal(once.d, twice.d)


def test_normalize_matrix4_entry(matrix4_m):
    m = T.normalize_distances(matrix4_m)
    assert m.d[0, 1] == pytest.approx(15.0 / 27.0, abs=1e-12)
    assert m.d.max() == 1.0


def test_normalize_rejects_all_zero():
    d = np.zeros((3, 3))
    with pytest.raises(DegenerateInstanceError):
        T.normalize_distances(T.DistanceMatrix(d))


def test_normalize_preserves_optimum_tour():
    m = T.distance_matrix(T.generate_random_instance(8, seed=21))
    t_raw, len_raw = T.brute_force_optimum(m)
    t_norm, len_norm = T.brute_force_optimum(T.normalize_distances(m))
    assert t_raw.order == t_norm.order
    assert len_norm == pytest.approx(len_raw / m.d.max(), rel=1e-12)


def test_tour_length_matrix4_route(matrix4_m):
    # visiting order B, A, D, C closes at cost 15 + 17 + 25 + 14
    assert T.tour_length(matrix4_m, (1, 0, 3, 2)) == 71.0


def test_tour_length_zero_matrix():
    m = T.DistanceMatrix(np.zeros((4, 4)))
    assert T.tour_length(m, (2, 0, 3, 1)) == 0.0


def test_tour_length_rejects_non_permutation(matrix4_m):
    with pytest.raises(InvalidTourError):
        T.tour_length(matrix4_m, (0, 0, 1, 2))
    with pytest.raises(InvalidTourError):
        T.tour_length(matrix4_m, (0, 1, 2))
    with pytest.raises(InvalidTourError):
        T.tour_length(matrix4_m, (0.9, 1.2, 2.5, 3.1))


def test_tour_length_rotation_and_reversal_invariance(rng):
    m = T.distance_matrix(T.generate_random_instance(9, seed=3))
    base = tuple(int(v) for v in rng.permutation(9))
    ref = T.tour_length(m, base)
    for shift in range(9):
        rotated = base[shift:] + base[:shift]
        assert T.tour_length(m, rotated) == pytest.approx(ref, rel=1e-12)
        assert T.tour_length(m, rotated[::-1]) == pytest.approx(ref, rel=1e-12)


def test_save_load_round_trip(tmp_path, paper8):
    path = tmp_path / "inst.json"
    T.save_instance(paper8, path)
    loaded = T.load_instance(path)
    assert loaded == paper8
    assert loaded.cities == paper8.cities


def test_save_load_round_trip_with_matrix(tmp_path, matrix4):
    path = tmp_path / "m4.json"
    T.save_instance(matrix4, path)
    loaded = T.load_instance(path)
    assert np.array_equal(loaded.matrix, matrix4.matrix)
    assert T.tour_length(T.distance_matrix(loaded), (1, 0, 3, 2)) == 71.0


def test_load_missing_cities_field(tmp_path):
    path = tmp_path / "bad.json"
    for payload in ({"id": "x"}, {"cities": 5}):
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="cities") as exc:
            T.load_instance(path)
        assert str(exc.value).startswith(f"{path}:")


def test_load_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text('{"id": "x",\n  "cities": [}')
    with pytest.raises(ParseError, match="line"):
        T.load_instance(path)


def test_round_trip_preserves_tour_lengths(tmp_path, rng):
    inst = T.generate_random_instance(7, seed=13)
    m = T.distance_matrix(inst)
    tour = tuple(int(v) for v in rng.permutation(7))
    before = T.tour_length(m, tour)
    path = tmp_path / "rt.json"
    T.save_instance(inst, path)
    after = T.tour_length(T.distance_matrix(T.load_instance(path)), tour)
    assert after == before  # exact, not approximate


def test_explicit_matrix_is_validated_not_recomputed():
    bad = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.1, 0.0]])
    with pytest.raises(T.TsphnnError, match="symmetric"):
        T.Instance(
            id="bad",
            cities=(T.City("A", 0, 0), T.City("B", 1, 0), T.City("C", 0, 1)),
            matrix=bad,
        )


def test_instance_equality_covers_every_field():
    cities = (T.City("A", 0, 0), T.City("B", 3, 0), T.City("C", 0, 4))
    matrix = np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]])
    inst = T.Instance(id="t", cities=cities, seed=1, matrix=matrix)
    assert inst.__eq__("t") is NotImplemented
    assert not inst == "t" and inst != "t"
    assert inst != T.Instance(id="t", cities=cities, seed=2, matrix=matrix)
    assert inst != T.Instance(id="t", cities=cities, seed=1)
    assert T.Instance(id="t", cities=cities, seed=1) != inst
    same = T.Instance(id="t", cities=cities, seed=1, matrix=matrix.copy())
    assert same.matrix is not inst.matrix and same == inst


def test_distance_matrix_peak_memory_is_two_n_by_n_arrays():
    """Built from two n x n coordinate differences, not an (n, n, 2) array."""
    n = 400
    inst = T.generate_random_instance(n, seed=0)
    tracemalloc.start()
    try:
        T.distance_matrix(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * n * n


def test_distance_matrix_leaves_the_callers_array_writeable():
    """Checking a matrix copies a writeable array instead of freezing it,
    bare or as an instance's explicit matrix, and shares a frozen one."""
    a = np.zeros((3, 3))
    m = T.DistanceMatrix(a)
    a[0, 1] = 1.0
    assert m.d[0, 1] == 0.0 and not m.d.flags.writeable
    b = np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]])
    cities = (T.City("A", 0, 0), T.City("B", 3, 0), T.City("C", 0, 4))
    inst = T.Instance(id="t", cities=cities, matrix=b)
    b[0, 1] = 1.0
    assert inst.matrix[0, 1] == 3.0 and not inst.matrix.flags.writeable
    assert T.DistanceMatrix(inst.matrix).d is inst.matrix


def test_distance_matrix_returns_the_instances_checked_matrix(matrix4):
    """An explicit matrix is checked once, when the instance is built."""
    m = T.distance_matrix(matrix4)
    assert T.distance_matrix(matrix4) is m
    assert m.d is matrix4.matrix


def test_distance_matrices_compare_by_their_arrays(paper8, cityset1):
    """Two matrices of one size compare and hash by their entries, with
    -0.0 equal to 0.0, instead of raising on an ambiguous truth value."""
    a, b = T.distance_matrix(paper8), T.distance_matrix(T.get_builtin("paper8"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    other = T.distance_matrix(T.generate_random_instance(8, seed=1))
    assert a != other and a != T.distance_matrix(cityset1) and a != "paper8"
    zeros = np.zeros((3, 3))
    negative_zeros = np.zeros((3, 3))
    negative_zeros[0, 0] = -0.0
    assert T.DistanceMatrix(zeros) == T.DistanceMatrix(negative_zeros)
    assert hash(T.DistanceMatrix(zeros)) == hash(T.DistanceMatrix(negative_zeros))


def test_city_rejects_non_finite():
    with pytest.raises(T.TsphnnError):
        T.City("A", math.inf, 0.0)


def test_builtin_coordinates_are_exact(cityset1, paper8, matrix4):
    assert [(c.label, c.x, c.y) for c in cityset1.cities] == [
        ("A", 0.25, 0.16), ("B", 0.85, 0.35), ("C", 0.65, 0.24),
        ("D", 0.70, 0.50), ("E", 0.15, 0.22), ("F", 0.25, 0.78),
        ("G", 0.40, 0.45), ("H", 0.90, 0.65), ("I", 0.55, 0.90),
        ("J", 0.60, 0.28),
    ]
    assert [(c.x, c.y) for c in paper8.cities] == [
        (2, 3), (5, 6), (8, 5), (4, 7), (6, 4), (2, 1), (6, 7), (5, 2)
    ]
    assert matrix4.matrix is not None
    assert matrix4.matrix[0].tolist() == [0.0, 15.0, 13.0, 17.0]
    assert matrix4.matrix[1].tolist() == [15.0, 0.0, 14.0, 27.0]
