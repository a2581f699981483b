import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tsphnn as T
from tsphnn import hopfield
from tsphnn.hopfield import (
    _field_bound,
    _net_inputs,
    build_weights,
    grid_to_text,
    random_grid,
    text_to_grid,
)
from tsphnn.svg import render_grid_svg
from tsphnn.tour import decode_grids

ROUTE_MATRIX = np.array(
    [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
)


@pytest.fixture(scope="module")
def m5():
    return T.normalize_distances(T.distance_matrix(T.generate_random_instance(5, seed=2)))


def test_params_reject_negative_or_non_finite_values():
    for name in ("a_pen", "b_pen", "c_pen", "d_pen"):
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(T.TsphnnError, match=name):
                T.HopfieldParams(**{name: bad})
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(T.TsphnnError, match="threshold"):
            T.HopfieldParams(threshold=bad)
    with pytest.raises(T.TsphnnError, match="max_sweeps"):
        T.HopfieldParams(max_sweeps=-1)


def test_zero_penalties_give_zero_weights(m5):
    w = build_weights(m5, T.HopfieldParams(a_pen=0, b_pen=0, c_pen=0, d_pen=0))
    assert np.all(w.w == 0)
    assert np.all(w.bias == 0)


def test_same_city_non_adjacent_positions_weight(m5):
    p = T.HopfieldParams(a_pen=50.0, b_pen=60.0, c_pen=30.0, d_pen=40.0)
    w = build_weights(m5, p)
    n = 5
    # unit (city 2, pos 0) vs (city 2, pos 2): same city, positions not
    # cyclically adjacent, and d[x][x] = 0
    u, v = 2 * n + 0, 2 * n + 2
    assert w.w[u, v] == pytest.approx(-(p.a_pen + p.c_pen), abs=1e-12)


def test_weights_symmetric_with_zero_diagonal():
    m = T.normalize_distances(T.distance_matrix(T.generate_random_instance(4, seed=6)))
    w = build_weights(m, T.HopfieldParams())
    assert np.array_equal(w.w, w.w.T)
    assert np.all(np.diagonal(w.w) == 0)


def test_energy_all_zero_grid_count_term():
    m = T.DistanceMatrix(np.zeros((4, 4)))
    p = T.HopfieldParams(a_pen=0, b_pen=0, c_pen=90.0, d_pen=0)
    assert T.energy(np.zeros((4, 4)), m, p) == pytest.approx(720.0, abs=1e-12)


def test_energy_equals_d_times_length_on_permutation_grids(rng):
    for n in range(4, 9):
        m = T.distance_matrix(T.generate_random_instance(n, seed=n))
        for _ in range(20):
            t = T.Tour.random(n, rng)
            p = T.HopfieldParams(
                a_pen=float(rng.random() * 300),
                b_pen=float(rng.random() * 300),
                c_pen=float(rng.random() * 300),
                d_pen=123.0,
            )
            e = T.energy(T.tour_to_matrix(t).astype(float), m, p)
            assert e == pytest.approx(123.0 * T.tour_length(m, t), abs=1e-9)


def test_energy_identity_grid_matrix4(matrix4_m):
    p = T.HopfieldParams(a_pen=7.0, b_pen=11.0, c_pen=13.0, d_pen=100.0)
    e = T.energy(np.eye(4), matrix4_m, p)
    assert e == pytest.approx(7100.0, abs=1e-9)


def test_energy_terms_on_permutation_grid(paper8_m, rng):
    t = T.Tour.random(8, rng)
    row, col, count, dist = T.energy_terms(T.tour_to_matrix(t).astype(float), paper8_m)
    assert row == 0 and col == 0 and count == 0
    assert dist == pytest.approx(2 * T.tour_length(paper8_m, t), abs=1e-9)


def test_energy_terms_duplicated_city():
    m = T.DistanceMatrix(np.zeros((3, 3)))
    g = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    row, _, _, _ = T.energy_terms(g, m)
    assert row > 0


def test_first_three_terms_zero_iff_permutation_exhaustive():
    m = T.distance_matrix(T.generate_random_instance(3, seed=1))
    for bits in itertools.product([0.0, 1.0], repeat=9):
        g = np.array(bits).reshape(3, 3)
        row, col, count, _ = T.energy_terms(g, m)
        assert ((row == 0) and (col == 0) and (count == 0)) == (
            T.is_valid_permutation_matrix(g.astype(int))
        )


def test_unit_update_zero_net_turns_on(m5):
    w = build_weights(m5, T.HopfieldParams(a_pen=0, b_pen=0, c_pen=0, d_pen=0))
    g = np.zeros((5, 5))
    assert T.unit_update(g, w, (0, 0), threshold=0.0) == 1
    assert T.unit_update(g, w, (0, 0), threshold=1.0) == 0


def test_unit_flip_energy_matches_local_field(rng):
    """Flipping one unit changes the energy by -dv * net exactly."""
    inst = T.generate_random_instance(4, seed=12)
    m = T.normalize_distances(T.distance_matrix(inst))
    p = T.HopfieldParams(a_pen=83.0, b_pen=61.0, c_pen=47.0, d_pen=29.0)
    w = build_weights(m, p)
    for _ in range(100):
        g = (rng.random((4, 4)) < 0.4).astype(float)
        x, i = int(rng.integers(4)), int(rng.integers(4))
        u = x * 4 + i
        net = float(w.w[u] @ g.ravel() + w.bias[u])
        flipped = g.copy()
        flipped[x, i] = 1.0 - flipped[x, i]
        dv = flipped[x, i] - g[x, i]
        assert T.energy(flipped, m, p) - T.energy(g, m, p) == pytest.approx(
            -dv * net, abs=1e-9
        )


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 9),
    seed=st.integers(0, 2**32 - 1),
    penalties=st.tuples(*[st.floats(0, 300)] * 4),
)
def test_net_inputs_match_dense_weights(n, seed, penalties):
    """The grid-structured net inputs that ``run`` uses equal the explicit
    ``w @ g + bias`` of :func:`build_weights` on every unit."""
    rng = np.random.default_rng(seed)
    m = T.normalize_distances(T.distance_matrix(T.generate_random_instance(n, seed=seed)))
    p = T.HopfieldParams(*penalties)
    w = build_weights(m, p)
    g = (rng.random((n, n)) < rng.random()).astype(float)
    dense = w.w @ g.ravel() + w.bias
    assert np.allclose(_net_inputs(g, m, p).ravel(), dense, rtol=0, atol=1e-9)


def test_run_hybrid_and_sweep_build_no_weights(cityset1, cityset1_m, monkeypatch):
    m = T.normalize_distances(cityset1_m)
    p = T.HopfieldParams(d_pen=10.0, seed=4)
    sa = T.SaConfig(t0=1.0, cooling_rate=0.99, iterations=500, seed=2)

    def results():
        res = T.run_hopfield(m, p)
        hybrid = T.solve_hybrid(cityset1, sa, p)
        report = T.sweep(cityset1, [90.0], [10.0, 100.0], trials=5, base=p, seed=3)
        return (
            res.grid.tobytes(), res.energy_trace.tobytes(), res.sweeps_used,
            hybrid.final_tour, hybrid.hnn_result.energy_trace.tobytes(), report.cells,
        )

    expected = results()

    def refuse(*args):
        raise AssertionError("build_weights called at run time")

    monkeypatch.setattr(hopfield, "build_weights", refuse)
    assert results() == expected


def test_run_reconverges_on_fixed_point(cityset1_m):
    m = T.normalize_distances(cityset1_m)
    res = T.run_hopfield(m, T.HopfieldParams(d_pen=10.0, seed=1))
    assert res.converged and res.valid  # a valid permutation grid, stable
    again = T.run_hopfield(m, T.HopfieldParams(d_pen=10.0, seed=99), init=res.grid)
    assert again.converged
    assert again.sweeps_used == 1
    assert np.array_equal(again.grid, res.grid)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(3, 12),
    seed=st.integers(0, 2**32 - 1),
    penalties=st.tuples(*[st.floats(0, 300)] * 4),
    threshold=st.floats(-100, 100),
)
def test_tour_is_a_fixed_point_exactly_when_its_closed_forms_hold(
    n, seed, penalties, threshold
):
    """The stability analysis of a tour's grid.  With every row, column and
    the count on target, an on-unit (x, i) has net input
    C/2 - D*(d[x, prev] + d[x, next]) and an off-unit (x, j) has
    -C/2 - A - B - D*field[x, j].  One sweep from the grid converges, with
    the grid unchanged, exactly when every on-unit reaches the threshold and
    every off-unit stays below it.

    The network's net input and the closed form each round at most n + 5
    terms whose magnitudes sum to at most the |net| bound N of
    ``_check_finite``, so each is within (n + 5)*u*N/(1 - (n + 5)*u) of the
    exact value, u = 2^-53.  Examples with a closed form within
    4*(n + 5)*u*N of the threshold are skipped.
    """
    a, b, c, d = penalties
    m = T.normalize_distances(T.distance_matrix(T.generate_random_instance(n, seed=seed)))
    t = T.Tour.random(n, np.random.default_rng(seed))
    grid = T.tour_to_matrix(t)
    # field[x, j] = d[x, city before position j] + d[x, city after it]
    field = m.d[:, np.roll(t.order, 1)] + m.d[:, np.roll(t.order, -1)]
    on = c / 2 - d * field[grid == 1]
    off = -c / 2 - a - b - d * field[grid == 0]
    bound = c * (n - 0.5) + (a + b) * (n - 1) + c * (n * n - 1) + d * _field_bound(m)
    margin = 4 * (n + 5) * 2.0**-53 * bound
    assume(np.abs(np.concatenate([on, off]) - threshold).min() > margin)
    fixed = bool((on >= threshold).all() and (off < threshold).all())
    p = T.HopfieldParams(a, b, c, d, threshold=threshold, max_sweeps=1)
    res = T.run_hopfield(m, p, init=grid)
    assert res.converged == fixed
    assert np.array_equal(res.grid, grid) == fixed


def test_energy_trace_non_increasing_and_updates_descend():
    inst = T.generate_random_instance(6, seed=5)
    m = T.normalize_distances(T.distance_matrix(inst))
    for seed in range(200):
        res = T.run_hopfield(m, T.HopfieldParams(seed=seed))
        assert res.max_update_delta_e <= 1e-9
        assert np.all(np.diff(res.energy_trace) <= 1e-9)
        assert res.converged


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(4, 12),
    instance_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
    penalties=st.tuples(*[st.floats(0, 300)] * 4),
)
def test_energy_trace_never_rises_property(n, instance_seed, seed, penalties):
    """At threshold 0 asynchronous updates never raise the energy, on any
    instance, penalties and seed (to the tolerance of the fixed-seed test)."""
    m = T.normalize_distances(
        T.distance_matrix(T.generate_random_instance(n, seed=instance_seed))
    )
    res = T.run_hopfield(m, T.HopfieldParams(*penalties, threshold=0.0, seed=seed))
    assert np.all(np.diff(res.energy_trace) <= 1e-9)


def test_run_reports_validity_and_length(cityset1_m):
    m = T.normalize_distances(cityset1_m)
    res = T.run_hopfield(m, T.HopfieldParams(d_pen=10.0, seed=3))
    assert res.valid == (res.tour is not None)
    if res.valid:
        assert T.is_valid_permutation_matrix(res.grid.astype(int))
        assert res.length == pytest.approx(T.tour_length(m, res.tour), rel=1e-12)


def test_run_replays_from_public_pieces(cityset1_m):
    """Stepping unit_update and energy by hand, in one fresh permutation per
    sweep, reproduces the run exactly and advances the caller's generator
    by exactly sweeps_used permutations."""
    m = T.normalize_distances(cityset1_m)
    n = m.n
    # valid fixed points, near-miss fixed points, and runs cut by the budget
    for p in (
        T.HopfieldParams(d_pen=10.0),
        T.HopfieldParams(),
        T.HopfieldParams(max_sweeps=2),
    ):
        w = build_weights(m, p)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            res = T.run_hopfield(m, p, rng=rng)

            replay = np.random.default_rng(seed)
            g = random_grid(n, replay)
            trace = []
            converged = False
            while len(trace) < p.max_sweeps and not converged:
                converged = True
                for u in replay.permutation(n * n):
                    x, i = divmod(int(u), n)
                    new = T.unit_update(g, w, (x, i), p.threshold)
                    if new != g[x, i]:
                        g[x, i] = new
                        converged = False
                trace.append(T.energy(g, m, p))

            assert np.array_equal(res.grid, g)
            assert res.sweeps_used == len(trace)
            assert res.converged == converged
            assert np.array_equal(res.energy_trace, np.array(trace))
            assert rng.random() == replay.random()


def test_run_max_sweeps_zero_is_reported_unconverged(cityset1_m):
    m = T.normalize_distances(cityset1_m)
    res = T.run_hopfield(m, T.HopfieldParams(max_sweeps=0, seed=0))
    assert not res.converged
    assert res.sweeps_used == 0
    assert len(res.energy_trace) == 0


def test_run_determinism(cityset1_m):
    m = T.normalize_distances(cityset1_m)
    a = T.run_hopfield(m, T.HopfieldParams(seed=7))
    b = T.run_hopfield(m, T.HopfieldParams(seed=7))
    assert np.array_equal(a.grid, b.grid)
    assert np.array_equal(a.energy_trace, b.energy_trace)
    assert a.sweeps_used == b.sweeps_used


def test_decode_route_matrix():
    t = T.decode(ROUTE_MATRIX)
    assert t is not None and t.order == (1, 0, 3, 2)


def test_decode_all_zero_grid_is_none():
    assert T.decode(np.zeros((4, 4))) is None


def test_decode_inverts_tour_to_matrix():
    for perm in itertools.permutations(range(4)):
        assert T.decode(T.tour_to_matrix(T.Tour(perm))).order == perm


def test_random_grid_expected_ones(rng):
    g = random_grid(30, rng)
    assert set(np.unique(g)) <= {0.0, 1.0}
    assert abs(g.sum() - 30) < 30  # loose: expectation is n


def test_grid_text_round_trip(rng):
    g = random_grid(6, rng)
    assert np.array_equal(text_to_grid(grid_to_text(g)), g)


def test_grid_svg_counts(rng):
    g = random_grid(5, rng)
    svg = render_grid_svg(g)
    # one background rect plus one per cell; filled cells are black
    assert svg.count("<rect") == 1 + 25
    assert svg.count('fill="black"') == int(g.sum())


def _replay(m, p, g, rng):
    """Step unit_update and energy by hand, one fresh permutation per sweep."""
    w = build_weights(m, p)
    g = g.copy()
    trace, converged = [], False
    while len(trace) < p.max_sweeps and not converged:
        converged = True
        for u in rng.permutation(m.n * m.n):
            x, i = divmod(int(u), m.n)
            new = T.unit_update(g, w, (x, i), p.threshold)
            if new != g[x, i]:
                g[x, i] = new
                converged = False
        trace.append(T.energy(g, m, p))
    return g, trace, converged


def test_lockstep_guard_band_falls_back_to_2d_net_inputs(cityset1_m, monkeypatch):
    """With D = 0, integer penalties and an even C every net input is an
    integer, and many land exactly on threshold 0, inside the guard band.
    Those steps are decided by the trial's own 2-D ``_net_inputs``, and
    every trial still matches the unit_update replay."""
    m = T.normalize_distances(cityset1_m)
    n = m.n
    p = T.HopfieldParams(a_pen=1.0, b_pen=1.0, c_pen=2.0, d_pen=0.0, max_sweeps=20)
    calls = []
    net_inputs = hopfield._net_inputs

    def counting(g, m, p):
        calls.append(g.ndim)
        return net_inputs(g, m, p)

    monkeypatch.setattr(hopfield, "_net_inputs", counting)
    rngs = [np.random.default_rng(seed) for seed in range(8)]
    grids = [random_grid(n, rng) for rng in rngs]
    results = hopfield.run_lockstep(m, p, grids, rngs)
    assert calls.count(2) > 0  # the fallback fired
    for seed, (res, rng) in enumerate(zip(results, rngs)):
        replay = np.random.default_rng(seed)
        g, trace, converged = _replay(m, p, random_grid(n, replay), replay)
        assert np.array_equal(res.grid, g)
        assert np.array_equal(res.energy_trace, np.array(trace))
        assert res.converged == converged
        assert rng.random() == replay.random()


@pytest.mark.parametrize("n", (3, 5, 8, 13))
def test_lockstep_matches_single_runs(n):
    """A stack of trials gives each trial the bits of its own ``run``."""
    m = T.normalize_distances(T.distance_matrix(T.generate_random_instance(n, seed=n)))
    for p in (
        T.HopfieldParams(),
        T.HopfieldParams(d_pen=10.0),
        T.HopfieldParams(threshold=0.5),
        T.HopfieldParams(d_pen=120.0, max_sweeps=3),
    ):
        rngs = [np.random.default_rng([n, seed]) for seed in range(6)]
        grids = [random_grid(n, rng) for rng in rngs]
        stacked = hopfield.run_lockstep(m, p, grids, rngs)
        for seed, (res, rng) in enumerate(zip(stacked, rngs)):
            alone_rng = np.random.default_rng([n, seed])
            alone = T.run_hopfield(m, p, init=random_grid(n, alone_rng), rng=alone_rng)
            assert res.grid.tobytes() == alone.grid.tobytes()
            assert res.energy_trace.tobytes() == alone.energy_trace.tobytes()
            assert res.sweeps_used == alone.sweeps_used
            assert res.converged == alone.converged
            assert res.tour == alone.tour and res.length == alone.length
            assert res.max_update_delta_e.hex() == alone.max_update_delta_e.hex()
            assert rng.random() == alone_rng.random()


def test_lockstep_rejects_bad_grids(cityset1_m):
    m = T.normalize_distances(cityset1_m)
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    with pytest.raises(T.TsphnnError, match="3 grids for 2 generators"):
        hopfield.run_lockstep(m, T.HopfieldParams(), np.zeros((3, 10, 10)), rngs)
    with pytest.raises(T.TsphnnError, match="expected n=10"):
        hopfield.run_lockstep(m, T.HopfieldParams(), np.zeros((2, 9, 9)), rngs)
    with pytest.raises(T.TsphnnError, match="0 or 1"):
        hopfield.run_lockstep(m, T.HopfieldParams(), np.full((2, 10, 10), 0.5), rngs)


def _near_permutation(perm, kind, rng):
    """The grid of ``perm``, or one with a row, a column or the count broken."""
    n = len(perm)
    g = np.zeros((n, n), dtype=np.int64)
    g[perm, np.arange(n)] = 1
    x, i = int(rng.integers(n)), int(rng.integers(n))
    if kind == "flip":  # one unit on or off: a row, a column and the count
        g[x, i] ^= 1
    elif kind == "row":  # a one moved along its row: two columns, count kept
        j = int(g[x].argmax())
        g[x, j], g[x, (j + 1) % n] = 0, 1
    elif kind == "column":  # a one moved along its column: two rows, count kept
        y = int(g[:, i].argmax())
        g[y, i], g[(y + 1) % n, i] = 0, 1
    elif kind == "count":  # a one moved to another row and column, count kept
        y = int(g[:, i].argmax())
        g[y, i], g[(y + 1) % n, (i + 1) % n] = 0, 1
    elif kind == "zeros":
        g[:] = 0
    elif kind == "random":
        g = (rng.random((n, n)) < 1.0 / n).astype(np.int64)
    return g


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 12),
    kinds=st.lists(
        st.sampled_from(["none", "flip", "row", "column", "count", "zeros", "random"]),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(0, 2**32 - 1),
    as_float=st.booleans(),
)
def test_stacked_decode_matches_decode_grid(n, kinds, seed, as_float):
    """``decode_grids`` gives each grid of a stack the Tour or None of
    ``decode_grid``, on permutation and near-permutation grids."""
    rng = np.random.default_rng(seed)
    stack = np.array([_near_permutation(rng.permutation(n), k, rng) for k in kinds])
    if as_float:
        stack = stack.astype(np.float64)
    assert decode_grids(stack) == [T.decode(g) for g in stack]


def test_energy_trace_and_length_read_twice_match_replay(cityset1_m):
    """The trace and the length, computed on first read, have the same bits
    on a second read, and the trace still matches the unit_update replay
    after the trial's generator has moved on."""
    m = T.normalize_distances(cityset1_m)
    n = m.n
    for p in (T.HopfieldParams(d_pen=10.0), T.HopfieldParams(max_sweeps=2)):
        rngs = [np.random.default_rng([9, seed]) for seed in range(5)]
        grids = [random_grid(n, rng) for rng in rngs]
        results = hopfield.run_lockstep(m, p, grids, rngs)
        for rng in rngs:
            rng.random(50)
        for seed, res in enumerate(results):
            first = res.energy_trace.tobytes()
            assert res.energy_trace.tobytes() == first
            replay = np.random.default_rng([9, seed])
            _, trace, _ = _replay(m, p, random_grid(n, replay), replay)
            assert first == np.array(trace).tobytes()
            if res.valid:
                length = res.length
                assert length.hex() == res.length.hex()
                assert length.hex() == T.tour_length(m, res.tour).hex()
            else:
                assert res.length is None


def test_lockstep_record_is_bounded(cityset1_m):
    """A trial keeps its sweep ends in at most sweeps * n^2 bits, rounded up
    to whole bytes, besides the bits before its first in the shared bytes."""
    m = T.normalize_distances(cityset1_m)
    n = m.n
    rngs = [np.random.default_rng(seed) for seed in range(7)]
    results = hopfield.run_lockstep(
        m, T.HopfieldParams(max_sweeps=4), [random_grid(n, rng) for rng in rngs], rngs
    )
    for res in results:
        assert res.sweeps_used <= 4
        assert res.ends.dtype == np.uint8
        assert 8 * res.ends.nbytes < res.ends_at + res.sweeps_used * n * n + 8


@pytest.mark.parametrize(
    "params",
    [
        T.HopfieldParams(a_pen=1e308, d_pen=1e308, threshold=-1e308),
        T.HopfieldParams(a_pen=1e308, c_pen=1e308, d_pen=1e308, threshold=1e308),
        T.HopfieldParams(threshold=1.7e308),  # only the distance to the threshold overflows
        T.HopfieldParams(c_pen=1e306),  # only the count energy, C/2 * n^4, overflows
        T.HopfieldParams(a_pen=1e308, max_sweeps=0),
    ],
)
def test_network_refuses_penalties_that_overflow(paper8, params):
    """Penalties at which a net input or an energy can overflow are refused
    before any dynamics, by ``run``, ``run_lockstep``, the hybrid and the
    sweep alike, with no NumPy warning."""
    m = T.normalize_distances(T.distance_matrix(paper8))
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    sa = T.SaConfig(t0=1.0, cooling_rate=0.99, iterations=50)
    calls = [
        lambda: T.run_hopfield(m, params),
        lambda: hopfield.run_lockstep(m, params, [random_grid(8, r) for r in rngs], rngs),
        lambda: T.solve_hybrid(paper8, sa, params),
        lambda: T.sweep(paper8, [params.c_pen], [params.d_pen], 2, params, seed=0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(T.TsphnnError, match="overflow"):
                call()


def test_network_accepts_large_penalties_that_cannot_overflow(paper8):
    m = T.normalize_distances(T.distance_matrix(paper8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = T.run_hopfield(m, T.HopfieldParams(a_pen=1e300, b_pen=1e300, max_sweeps=3))
        assert np.isfinite(res.energy_trace).all()


def test_network_records_compare_by_identity(m5):
    """A run's result and a weight matrix hold arrays: == answers by
    identity instead of raising on an ambiguous truth value."""
    p = T.HopfieldParams(max_sweeps=5, seed=1)
    first, second = hopfield.run(m5, p), hopfield.run(m5, p)
    assert np.array_equal(first.grid, second.grid)
    assert first == first and first != second
    w = build_weights(m5, p)
    assert w == w and w != build_weights(m5, p)

