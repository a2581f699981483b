import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsphnn as T
from tsphnn import _kernels
from tsphnn.tour import decode_grids
from tsphnn.errors import EnumerationTooLargeError, InvalidTourError, InvalidTourMatrixError

# tour-matrix figure rows A..D for the visiting order B, A, D, C
ROUTE_MATRIX = np.array(
    [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
)


def test_tour_validates_permutation():
    with pytest.raises(InvalidTourError):
        T.Tour((0, 1, 1))
    with pytest.raises(InvalidTourError):
        T.Tour((0, 2, 3))
    with pytest.raises(InvalidTourError):
        T.Tour((0.9, 1.2, 2.5))


def test_identity_matrix_is_valid():
    for n in (3, 4, 7):
        assert T.is_valid_permutation_matrix(np.eye(n, dtype=int))


def test_all_zeros_matrix_is_invalid():
    assert not T.is_valid_permutation_matrix(np.zeros((4, 4), dtype=int))


def test_route_matrix_figure_is_valid():
    assert T.is_valid_permutation_matrix(ROUTE_MATRIX)


def test_validity_agrees_with_row_col_count_sums_exhaustively():
    for bits in itertools.product([0, 1], repeat=9):
        v = np.array(bits).reshape(3, 3)
        expected = (
            all(v[r].sum() == 1 for r in range(3))
            and all(v[:, c].sum() == 1 for c in range(3))
            and v.sum() == 3
        )
        assert T.is_valid_permutation_matrix(v) == expected


def test_identity_matrix_decodes_to_identity_tour():
    assert T.matrix_to_tour(np.eye(5, dtype=int)).order == (0, 1, 2, 3, 4)


def test_route_matrix_decodes_to_b_a_d_c():
    assert T.matrix_to_tour(ROUTE_MATRIX).order == (1, 0, 3, 2)


def test_codec_round_trip_over_all_n4_permutations():
    for perm in itertools.permutations(range(4)):
        t = T.Tour(perm)
        assert T.matrix_to_tour(T.tour_to_matrix(t)).order == perm


def test_matrix_to_tour_names_failed_condition():
    with pytest.raises(InvalidTourMatrixError) as exc:
        T.matrix_to_tour(np.zeros((3, 3), dtype=int))
    assert exc.value.condition == "row"
    with pytest.raises(InvalidTourMatrixError) as exc:
        T.matrix_to_tour(np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0]]))
    assert exc.value.condition == "column"


def test_canonicalize_rule_application():
    # cycle 2 -> 0 -> 1 -> 3: the neighbours of 0 are {1, 2}, so the
    # canonical form starts 0, 1
    assert T.canonicalize(T.Tour((2, 0, 1, 3))).order == (0, 1, 3, 2)
    # tour already canonical stays put
    assert T.canonicalize(T.Tour((0, 1, 2, 3))).order == (0, 1, 2, 3)
    # reversed orientation flips to the smaller second element
    assert T.canonicalize(T.Tour((0, 3, 2, 1))).order == (0, 1, 2, 3)


def test_canonicalize_is_idempotent(rng):
    for _ in range(50):
        t = T.Tour.random(7, rng)
        once = T.canonicalize(t)
        assert T.canonicalize(once).order == once.order


def test_canonicalize_collapses_all_symmetries():
    base = (0, 2, 1, 3)
    variants = set()
    for shift in range(4):
        rotated = base[shift:] + base[:shift]
        variants.add(T.canonicalize(T.Tour(rotated)).order)
        variants.add(T.canonicalize(T.Tour(rotated[::-1])).order)
    assert len(variants) == 1


def test_brute_force_matrix4(matrix4_m):
    tour, length = T.brute_force_optimum(matrix4_m)
    assert length == 71.0
    assert tour.order == (0, 1, 2, 3)  # lexicographic tie-break among ties


def test_brute_force_uniform_matrix():
    n, c = 6, 2.5
    d = np.full((n, n), c)
    np.fill_diagonal(d, 0.0)
    _, length = T.brute_force_optimum(T.DistanceMatrix(d))
    assert length == pytest.approx(n * c, rel=1e-12)


def test_brute_force_cityset1(cityset1_m):
    _, length = T.brute_force_optimum(cityset1_m)
    assert length == pytest.approx(2.696, abs=0.01)


def test_brute_force_guards_large_n():
    d = np.zeros((13, 13))
    with pytest.raises(EnumerationTooLargeError):
        T.brute_force_optimum(T.DistanceMatrix(d))


def test_brute_force_beats_random_samples(rng):
    m = T.distance_matrix(T.generate_random_instance(8, seed=10))
    _, opt = T.brute_force_optimum(m)
    for _ in range(1000):
        sample = T.Tour.random(8, rng)
        assert opt <= T.tour_length(m, sample) + 1e-12


def test_brute_force_scaling_invariance():
    m = T.distance_matrix(T.generate_random_instance(7, seed=4))
    tour, length = T.brute_force_optimum(m)
    scaled = T.DistanceMatrix(m.d * 3.75)
    tour_s, length_s = T.brute_force_optimum(scaled)
    assert tour_s.order == tour.order
    assert length_s == pytest.approx(3.75 * length, rel=1e-12)


def test_brute_force_result_is_canonical():
    m = T.distance_matrix(T.generate_random_instance(9, seed=8))
    tour, _ = T.brute_force_optimum(m)
    assert T.canonicalize(tour).order == tour.order


def _reference_optimum(m):
    """Score every canonical tour in lexicographic order, keeping the first
    strict minimum."""
    best, best_len = None, np.inf
    for tail in itertools.permutations(range(1, m.n)):
        if tail[0] < tail[-1]:
            length = _kernels.closed_tour_length(m.d, np.array((0,) + tail))
            if length < best_len:
                best, best_len = (0,) + tail, length
    return best, best_len


@st.composite
def _matrices(draw):
    n = draw(st.integers(4, 8))
    if draw(st.booleans()):
        # integer-grid coordinates: many tours tie to within an ulp
        point = st.tuples(st.integers(0, 3), st.integers(0, 3))
        pts = np.array(draw(st.lists(point, min_size=n, max_size=n)), dtype=float)
        diff = pts[:, None] - pts[None]
        return T.DistanceMatrix(np.hypot(diff[..., 0], diff[..., 1]))
    entries = st.one_of(st.floats(0.0, 100.0), st.sampled_from([0.1, 0.2, 0.3, 0.7]))
    upper = draw(st.lists(entries, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = upper
    return T.DistanceMatrix(d + d.T)


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_brute_force_matches_enumeration_reference(m):
    tour, length = T.brute_force_optimum(m)
    best, best_len = _reference_optimum(m)
    assert tour.order == best
    assert length == best_len


@pytest.mark.parametrize("n", [6, 12])
def test_brute_force_uniform_matrix_returns_identity(n):
    d = np.full((n, n), 2.5)
    np.fill_diagonal(d, 0.0)
    tour, length = T.brute_force_optimum(T.DistanceMatrix(d))
    assert tour.order == tuple(range(n))
    assert length == n * 2.5


def test_brute_force_n12_beats_random_samples(rng):
    m = T.distance_matrix(T.generate_random_instance(12, seed=5))
    tour, opt = T.brute_force_optimum(m)
    assert T.canonicalize(tour).order == tour.order
    assert opt == T.tour_length(m, tour)
    for _ in range(2000):
        assert opt <= T.tour_length(m, T.Tour.random(12, rng))


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 12).flatmap(lambda n: st.permutations(range(n))))
def test_codec_round_trip_property(perm):
    tour = T.Tour(tuple(perm))
    grid = T.tour_to_matrix(tour)
    assert T.matrix_to_tour(grid) == tour
    assert np.array_equal(T.tour_to_matrix(T.matrix_to_tour(grid)), grid)


def test_grids_that_are_not_0_1_are_not_tours():
    """Row and column sums of 1 make no tour unless every entry is 0 or 1."""
    assert not T.is_valid_permutation_matrix(np.array([[2, -1], [-1, 2]]))
    assert T.decode(np.full((4, 4), 0.25)) is None
    with pytest.raises(InvalidTourMatrixError) as exc:
        T.matrix_to_tour(np.array([[2, -1], [-1, 2]]))
    assert exc.value.condition == "row"
    assert decode_grids(np.array([np.full((4, 4), 0.25), np.eye(4)])) == [
        None,
        T.Tour((0, 1, 2, 3)),
    ]


def test_tour_length_takes_a_tour_or_an_index_sequence(matrix4_m):
    tour = T.Tour((1, 0, 3, 2))
    for given_as in (tour, [1, 0, 3, 2], np.array([1, 0, 3, 2])):
        assert T.tour_length(matrix4_m, given_as) == 71.0
    for bad in (T.Tour((0, 1, 2)), (0, 1, 2), [[0, 1], [2, 3]], [0.0, 1.0, 2.0, 3.0]):
        with pytest.raises(InvalidTourError):
            T.tour_length(matrix4_m, bad)
