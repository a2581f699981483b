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


def test_fractional_sweep_budget_is_refused():
    """A sweep count never equals 1.5, so such a budget would never stop a
    run; it is refused with the other non-integers."""
    with pytest.raises(T.InvalidArgumentError, match="max_sweeps must be an integer, got 1.5"):
        T.HopfieldParams(max_sweeps=1.5)


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


@pytest.mark.parametrize(
    "unit, message",
    [
        ((0, 8), "position must be <= 7, got 8"),
        ((0, -1), "position must be >= 0, got -1"),
        ((8, 0), "city must be <= 7, got 8"),
        ((-1, 0), "city must be >= 0, got -1"),
        ((0.0, 1), "city must be an integer, got 0.0"),
        (None, r"unit must be a \(city, position\) pair, got None"),
        (5, r"unit must be a \(city, position\) pair, got 5"),
        ((1, 2, 3), r"unit must be a \(city, position\) pair, got \(1, 2, 3\)"),
    ],
    ids=[
        "position-past-end", "position-negative", "city-past-end", "city-negative",
        "city-float", "none", "int", "triple",
    ],
)
def test_unit_update_refuses_a_unit_off_the_grid(unit, message):
    """A unit is a (city, position) pair on the grid: one off it is refused
    instead of reading another unit's row of weights."""
    w = build_weights(T.distance_matrix(T.get_builtin("paper8")), T.HopfieldParams())
    with pytest.raises(T.InvalidArgumentError, match=f"^{message}$"):
        T.unit_update(np.zeros((8, 8)), w, unit)
    assert T.unit_update(np.zeros((8, 8)), w, (np.int64(7), 7)) in (0, 1)


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


STRING_GRID = np.eye(8, dtype=int).astype(str)


@pytest.mark.parametrize(
    "grid", [STRING_GRID, STRING_GRID.tolist(), STRING_GRID.astype(bytes)],
    ids=["string-array", "strings", "bytes-array"],
)
def test_a_grid_of_strings_is_refused(grid):
    """A grid of "0" and "1" strings is not read as numbers by any call
    that takes a grid."""
    m = T.distance_matrix(T.get_builtin("paper8"))
    p = T.HopfieldParams()
    for call in (
        lambda: T.energy(grid, m, p),
        lambda: T.run_hopfield(m, p, init=grid),
        lambda: T.unit_update(grid, build_weights(m, p), (0, 0)),
        lambda: render_grid_svg(grid),
        lambda: grid_to_text(grid),
    ):
        with pytest.raises(T.TsphnnError, match="^activation grid entries must be 0 or 1$"):
            call()


def test_a_boolean_grid_is_read_as_its_0_1_grid(rng):
    m = T.normalize_distances(T.distance_matrix(T.get_builtin("paper8")))
    p = T.HopfieldParams(d_pen=10.0, max_sweeps=20)
    g = random_grid(8, rng)
    b = g.astype(bool)
    assert T.energy(b, m, p) == T.energy(g, m, p)
    assert render_grid_svg(b) == render_grid_svg(g)
    assert np.array_equal(T.run_hopfield(m, p, init=b).grid, T.run_hopfield(m, p, init=g).grid)


@pytest.mark.parametrize(
    "grid", [np.zeros((3, 4)), np.full((3, 3), 2.0), [[0, 1], [1]], [[None] * 3] * 3],
    ids=["not-square", "entry-2", "ragged", "none-entries"],
)
def test_render_grid_svg_refuses_what_is_not_a_square_0_1_grid(grid):
    with pytest.raises(T.TsphnnError, match="activation grid"):
        render_grid_svg(grid)


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
    """A trial keeps its sweep ends as one row a sweep, each n^2 bits
    rounded up to whole bytes."""
    m = T.normalize_distances(cityset1_m)
    n = m.n
    rngs = [np.random.default_rng(seed) for seed in range(7)]
    results = hopfield.run_lockstep(
        m, T.HopfieldParams(max_sweeps=4), [random_grid(n, rng) for rng in rngs], rngs
    )
    for res in results:
        assert res.sweeps_used <= 4
        assert res.ends.dtype == np.uint8
        assert res.ends.shape == (res.sweeps_used, (n * n + 7) // 8)


def _replay_ends(m, p, g, rng):
    """The grid at each sweep end of a ``_replay``, as a (sweeps, n^2) stack."""
    w = build_weights(m, p)
    g = g.copy()
    ends, converged = [], False
    while len(ends) < p.max_sweeps and not converged:
        converged = True
        for u in rng.permutation(m.n * m.n):
            x, i = divmod(int(u), m.n)
            new = T.unit_update(g, w, (x, i), p.threshold)
            if new != g[x, i]:
                g[x, i] = new
                converged = False
        ends.append(g.ravel().copy())
    return np.array(ends).reshape(-1, m.n * m.n)


@pytest.mark.parametrize("n", (3, 5, 10))
def test_lockstep_record_rows_are_the_sweep_end_grids(n):
    """Row s of a trial's record unpacks to its grid after sweep s, for
    sizes whose n^2 bits leave 7, 7 and 4 bits of padding a row."""
    m = T.normalize_distances(T.distance_matrix(T.generate_random_instance(n, seed=n)))
    for p in (T.HopfieldParams(d_pen=10.0), T.HopfieldParams(max_sweeps=3)):
        rngs = [np.random.default_rng([n, seed]) for seed in range(6)]
        grids = [random_grid(n, rng) for rng in rngs]
        results = hopfield.run_lockstep(m, p, grids, rngs)
        assert sum(res.sweeps_used for res in results) > len(results)
        for seed, res in enumerate(results):
            replay = np.random.default_rng([n, seed])
            ends = _replay_ends(m, p, random_grid(n, replay), replay)
            bits = np.unpackbits(res.ends, axis=1)
            assert np.array_equal(bits[:, : n * n], ends)
            assert not bits[:, n * n :].any()


def _packed(g):
    """A 0/1 grid as one row-major packed row."""
    return np.packbits(np.asarray(g).ravel() > 0).tobytes()


def test_a_records_first_row_is_its_packed_start_grid(cityset1_m):
    """``rows[0]`` is the start grid packed, for ``run`` from a given grid
    and for every trial of a stack, so a record has one row a sweep more."""
    m = T.normalize_distances(cityset1_m)
    n = m.n
    g = random_grid(n, np.random.default_rng(4))
    res = T.run_hopfield(m, T.HopfieldParams(d_pen=10.0), init=g)
    assert res.rows[0].tobytes() == _packed(g)
    rngs = [np.random.default_rng([4, seed]) for seed in range(6)]
    grids = [random_grid(n, rng) for rng in rngs]
    results = hopfield.run_lockstep(m, T.HopfieldParams(max_sweeps=3), grids, rngs)
    for res, g in zip(results, grids):
        assert res.rows.dtype == np.uint8
        assert res.rows.shape == (res.sweeps_used + 1, (n * n + 7) // 8)
        assert res.rows[0].tobytes() == _packed(g)


def test_no_sweep_keeps_only_the_start_grid(cityset1_m):
    """With ``max_sweeps=0`` a result holds one row: no sweep ran, the final
    grid is the start grid, and the run is not converged."""
    m = T.normalize_distances(cityset1_m)
    n = m.n
    p = T.HopfieldParams(max_sweeps=0)
    tour = T.Tour(tuple(range(n)))
    res = T.run_hopfield(m, p, init=T.tour_to_matrix(tour))
    assert len(res.rows) == 1 and res.sweeps_used == 0 and not res.converged
    assert res.tour == tour and np.array_equal(res.grid, T.tour_to_matrix(tour))
    rngs = [np.random.default_rng([5, seed]) for seed in range(4)]
    grids = [random_grid(n, rng) for rng in rngs]
    for res, g in zip(hopfield.run_lockstep(m, p, grids, rngs), grids):
        assert len(res.rows) == 1 and res.sweeps_used == 0 and not res.converged
        assert res.grid.dtype == np.float64 and np.array_equal(res.grid, g)
        assert res.ends.shape == (0, (n * n + 7) // 8)


@pytest.mark.parametrize("max_sweeps", (1, 2, 3, 200))
def test_convergence_grid_and_ends_read_from_rows_match_replay(max_sweeps):
    """``converged``, ``grid`` and ``ends``, all read from a trial's rows,
    are those of the unit_update replay, whether the budget or a sweep that
    changes nothing stops the trial."""
    m = T.normalize_distances(T.distance_matrix(T.generate_random_instance(6, seed=6)))
    n = m.n
    seen = set()
    for p in (
        T.HopfieldParams(d_pen=10.0, max_sweeps=max_sweeps),
        T.HopfieldParams(threshold=0.5, max_sweeps=max_sweeps),
    ):
        rngs = [np.random.default_rng([max_sweeps, seed]) for seed in range(8)]
        grids = [random_grid(n, rng) for rng in rngs]
        for seed, res in enumerate(hopfield.run_lockstep(m, p, grids, rngs)):
            replay, again = (np.random.default_rng([max_sweeps, seed]) for _ in range(2))
            g, _, converged = _replay(m, p, random_grid(n, replay), replay)
            start = random_grid(n, again).ravel()
            ends = _replay_ends(m, p, start.reshape(n, n), again)
            assert res.converged is converged
            assert np.array_equal(res.grid, g)
            assert np.array_equal(np.unpackbits(res.ends, axis=1, count=n * n), ends)
            rows = np.unpackbits(res.rows, axis=1, count=n * n)
            assert np.array_equal(rows, np.vstack([start, ends]))
            seen.add(converged)
    # here no trial settles within one sweep, every one within 200, some within 2 or 3
    assert seen == {1: {False}, 200: {True}}.get(max_sweeps, {True, False})


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

