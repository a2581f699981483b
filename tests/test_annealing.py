import dataclasses
import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsphnn as T
from tsphnn import _kernels, annealing, pipeline
from tsphnn._rounding import U
from tsphnn.annealing import CHUNK, MAX_ITERATIONS, TEMPERATURE_FLOOR
from tsphnn.errors import InvalidArgumentError, InvalidTemperatureError


def test_config_validation():
    for t0 in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidTemperatureError):
            T.SaConfig(t0=t0, cooling_rate=0.9, iterations=10)
    with pytest.raises(T.TsphnnError):
        T.SaConfig(t0=1.0, cooling_rate=1.0, iterations=10)
    with pytest.raises(T.TsphnnError):
        T.SaConfig(t0=1.0, cooling_rate=0.9, iterations=0)
    with pytest.raises(InvalidArgumentError):
        T.SaConfig(t0=1.0, cooling_rate=0.9, iterations=10, swap_count=0)


def test_swap_same_pairs_twice_restores_tour():
    order = np.arange(10, dtype=np.int64)
    u = np.random.default_rng(5).random(4)
    once = _kernels.swap_positions(order, 2, u)
    twice = _kernels.swap_positions(once, 2, u)
    assert np.array_equal(twice, order)
    assert not np.array_equal(once, order)


def test_swap_always_yields_permutation(rng):
    t = T.Tour(tuple(range(10)))
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        out = T.swap_cities(t, k, rng)
        assert sorted(out.order) == list(range(10))
        assert t.order == tuple(range(10))  # input untouched


def test_swap_k_range_errors(rng):
    t = T.Tour(tuple(range(6)))
    with pytest.raises(InvalidArgumentError):
        T.swap_cities(t, 0, rng)
    with pytest.raises(InvalidArgumentError):
        T.swap_cities(t, 4, rng)  # 2k > n


def test_single_swap_neighbours_differ_in_exactly_two_positions(rng):
    t = T.Tour(tuple(range(4)))
    seen = set()
    for _ in range(500):
        out = T.swap_cities(t, 1, rng)
        diff = [i for i in range(4) if out.order[i] != t.order[i]]
        assert len(diff) == 2
        seen.add(tuple(sorted(diff)))
    # all 6 position pairs are reachable
    assert len(seen) == 6


def test_acceptance_probability_values():
    assert T.acceptance_probability(10.0, 8.0, 5.0) == 1.0
    assert T.acceptance_probability(10.0, 10.0, 5.0) == 1.0
    assert T.acceptance_probability(10.0, 12.0, 4.0) == pytest.approx(
        math.exp(-0.5), abs=1e-12
    )
    with pytest.raises(InvalidTemperatureError):
        T.acceptance_probability(1.0, 2.0, 0.0)
    with pytest.raises(InvalidTemperatureError):
        T.acceptance_probability(1.0, 2.0, -1.0)


def test_temperature_schedule():
    cfg = T.SaConfig(t0=100.0, cooling_rate=0.9, iterations=10)
    assert T.temperature_at(0, cfg) == 100.0
    assert T.temperature_at(2, cfg) == pytest.approx(81.0, rel=1e-12)
    temps = [T.temperature_at(s, cfg) for s in range(10)]
    assert all(a > b for a, b in zip(temps, temps[1:]))


def test_temperature_floor():
    cfg = T.SaConfig(t0=1.0, cooling_rate=0.1, iterations=50)
    assert T.temperature_at(40, cfg) == TEMPERATURE_FLOOR


def test_single_step_with_worse_proposal_returns_start(paper8_m):
    # at the floor temperature no worsening move is accepted, and the
    # best-so-far answer can never fall below the start tour
    start = T.Tour(tuple(range(8)))
    start_len = T.tour_length(paper8_m, start)
    cfg = T.SaConfig(t0=TEMPERATURE_FLOOR, cooling_rate=0.5, iterations=1, seed=3)
    tour, length, _ = T.anneal(paper8_m, start, cfg)
    assert length <= start_len + 1e-12


def test_anneal_improves_paper8_start(paper8_m):
    start = T.Tour(tuple(range(8)))
    cfg = T.SaConfig(t0=10.0, cooling_rate=0.995, iterations=2000, seed=0)
    tour, length, trace = T.anneal(paper8_m, start, cfg)
    assert length <= 35.9550
    assert T.tour_length(paper8_m, tour) == pytest.approx(length, rel=1e-12)


def test_best_of_20_seeds_near_optimum_cityset1(cityset1_m):
    _, opt = T.brute_force_optimum(cityset1_m)
    best = math.inf
    for seed in range(20):
        cfg = T.SaConfig(
            t0=1.0, cooling_rate=0.999, iterations=5000, swap_count=1, seed=seed
        )
        rng = np.random.default_rng(seed)
        start = T.Tour.random(10, rng)
        _, length, _ = T.anneal(cityset1_m, start, cfg, rng=rng)
        best = min(best, length)
    assert best <= opt * 1.01


def test_trace_invariants(paper8_m):
    cfg = T.SaConfig(t0=5.0, cooling_rate=0.99, iterations=300, seed=8)
    start = T.Tour(tuple(range(8)))
    _, length, trace = T.anneal(paper8_m, start, cfg)
    assert len(trace.iteration) == cfg.iterations
    assert np.all(np.diff(trace.temperature) < 0)
    assert np.all(np.diff(trace.best_length) <= 0)
    assert trace.best_length[-1] == length
    assert trace.final_length == trace.current_length[-1]
    assert T.tour_length(paper8_m, trace.final_tour) == pytest.approx(
        trace.final_length, rel=1e-12
    )


def test_hill_climbing_at_floor_temperature(paper8_m):
    # with the schedule pinned at the floor, no accepted move worsens the tour
    cfg = T.SaConfig(t0=TEMPERATURE_FLOOR, cooling_rate=0.5, iterations=2000, seed=4)
    start = T.Tour(tuple(range(8)))
    _, _, trace = T.anneal(paper8_m, start, cfg)
    assert np.all(np.diff(trace.current_length) <= 1e-12)


def test_determinism_same_seed_same_trace(cityset1_m):
    cfg = T.SaConfig(t0=1.0, cooling_rate=0.995, iterations=500, swap_count=2, seed=11)
    start = T.Tour(tuple(range(10)))
    t1, l1, tr1 = T.anneal(cityset1_m, start, cfg)
    t2, l2, tr2 = T.anneal(cityset1_m, start, cfg)
    assert t1.order == t2.order and l1 == l2
    assert np.array_equal(tr1.current_length, tr2.current_length)
    assert np.array_equal(tr1.temperature, tr2.temperature)


def test_anneal_replays_from_public_pieces(cityset1_m):
    """Stepping the public swap/acceptance/temperature functions by hand
    reproduces the solver's trace exactly, and every intermediate tour is a
    valid permutation."""
    cfg = T.SaConfig(t0=2.0, cooling_rate=0.99, iterations=250, swap_count=2, seed=42)
    start = T.Tour(tuple(range(10)))
    _, best_len, trace = T.anneal(cityset1_m, start, cfg)

    rng = np.random.default_rng(cfg.seed)
    draws = rng.random((cfg.iterations, 2 * cfg.swap_count + 1))
    cur = start
    cur_len = T.tour_length(cityset1_m, cur)
    best = cur_len
    for step in range(cfg.iterations):
        temp = T.temperature_at(step, cfg)
        cand = _kernels.swap_positions(
            cur.as_array(), cfg.swap_count, draws[step, : 2 * cfg.swap_count]
        )
        cand_tour = T.Tour(tuple(int(v) for v in cand))  # validates permutation
        cand_len = T.tour_length(cityset1_m, cand_tour)
        p = T.acceptance_probability(cur_len, cand_len, temp)
        if p >= draws[step, 2 * cfg.swap_count]:
            cur, cur_len = cand_tour, cand_len
            best = min(best, cur_len)
        assert trace.current_length[step] == cur_len
        assert trace.best_length[step] == best
    assert best == best_len


class _DrawRecorder:
    """Passes ``random`` calls through to a generator, recording each size."""

    def __init__(self, rng):
        self.rng = rng
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)


@pytest.mark.parametrize("k", (1, 3))
@pytest.mark.parametrize("iters", (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1))
def test_anneal_chunk_boundaries_match_one_draw(cityset1_m, iters, k):
    """Uniforms drawn at most CHUNK steps at a time give the trace of a hand
    replay over one draw of them all, and leave the caller's generator
    where that one draw leaves it."""
    cfg = T.SaConfig(t0=0.5, cooling_rate=0.999, iterations=iters, swap_count=k)
    start = T.Tour(tuple(range(10)))
    recorder = _DrawRecorder(np.random.default_rng(7))
    tour, length, trace = T.anneal(cityset1_m, start, cfg, rng=recorder)
    assert all(rows <= CHUNK and cols == 2 * k + 1 for rows, cols in recorder.sizes)

    replay_rng = np.random.default_rng(7)
    draws = replay_rng.random((iters, 2 * k + 1))
    cur, cur_len = start, T.tour_length(cityset1_m, start)
    best, best_len = cur, cur_len
    temps, current, bests = [], [], []
    for step in range(iters):
        temp = T.temperature_at(step, cfg)
        cand = _kernels.swap_positions(cur.as_array(), k, draws[step, : 2 * k])
        cand_tour = T.Tour(tuple(int(v) for v in cand))
        cand_len = T.tour_length(cityset1_m, cand_tour)
        if T.acceptance_probability(cur_len, cand_len, temp) >= draws[step, 2 * k]:
            cur, cur_len = cand_tour, cand_len
            if cur_len < best_len:
                best, best_len = cur, cur_len
        temps.append(temp)
        current.append(cur_len)
        bests.append(best_len)
    assert trace.temperature.tolist() == temps
    assert trace.current_length.tolist() == current
    assert trace.best_length.tolist() == bests
    assert (tour, length) == (best, best_len)
    assert (trace.final_tour, trace.final_length) == (cur, cur_len)
    assert np.array_equal(recorder.rng.random(4), replay_rng.random(4))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(4, 12),
    instance_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
    t0=st.floats(1e-3, 100.0),
    cooling=st.floats(0.5, 0.9999),
    iters=st.integers(1, 300),
    data=st.data(),
)
def test_anneal_properties(n, instance_seed, seed, t0, cooling, iters, data):
    """On any instance and schedule the best length never rises, ends at the
    returned length, and both reported lengths are exactly their tours'."""
    m = T.distance_matrix(T.generate_random_instance(n, seed=instance_seed))
    k = data.draw(st.integers(1, n // 2), label="swap_count")
    cfg = T.SaConfig(t0=t0, cooling_rate=cooling, iterations=iters, swap_count=k, seed=seed)
    start = T.Tour.random(n, np.random.default_rng(seed))
    tour, length, trace = T.anneal(m, start, cfg)
    assert np.all(np.diff(trace.best_length) <= 0)
    assert trace.best_length[-1] == length
    assert T.tour_length(m, tour) == length
    assert T.tour_length(m, trace.final_tour) == trace.final_length


def test_trace_csv_round_trip(paper8_m):
    cfg = T.SaConfig(t0=1.0, cooling_rate=0.9, iterations=20, seed=1)
    _, _, trace = T.anneal(paper8_m, T.Tour(tuple(range(8))), cfg)
    text = trace.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "iteration,temperature,current,best"
    assert len(lines) == 21
    row = lines[5].split(",")
    assert float(row[1]) == trace.temperature[4]
    assert float(row[3]) == trace.best_length[4]


def _pick_positions_reference(n, k, uniforms):
    """The partial Fisher-Yates pick as a scalar loop, one row at a time."""
    pos = list(range(n))
    for j in range(2 * k):
        r = j + int(uniforms[j] * (n - j))
        if r >= n:
            r = n - 1
        pos[j], pos[r] = pos[r], pos[j]
    return pos[: 2 * k]


def test_pick_positions_match_scalar_fisher_yates():
    rng = np.random.default_rng(12)
    edge = [0.0, 0.5, 1 - 2.0**-53]  # the smallest uniform, a midpoint, the largest
    for n in (2, 3, 4, 5, 10, 50, 127, 128, 300):
        for k in sorted({1, min(2, n // 2), n // 2}):
            u = rng.random((40, 2 * k + 1))
            u[:3, : 2 * k] = np.array(edge)[:, None]
            # Rows whose second draw lands on the first pick's slot, which
            # the first step filled with position 0.
            slots = np.arange(1, min(n, 8))
            u[3 : 3 + len(slots), 0] = (slots + 0.5) / n
            u[3 : 3 + len(slots), 1] = (slots - 0.5) / (n - 1)
            picks = _kernels.pick_positions(n, k, u)
            assert picks.shape == (40, 2 * k)
            assert picks.dtype == _kernels.position_dtype(n)
            assert picks[3 : 3 + len(slots), 0].tolist() == slots.tolist()
            assert not picks[3 : 3 + len(slots), 1].any()
            for row, draws in zip(picks.tolist(), u):
                assert row == _pick_positions_reference(n, k, draws)


def _replay(m, start, cfg, draws):
    """Step the public pieces by hand over ``draws``: the trace's three
    arrays as lists, the best (tour, length) and the final (tour, length)."""
    k = cfg.swap_count
    cur, cur_len = start, T.tour_length(m, start)
    best, best_len = cur, cur_len
    temps, current, bests = [], [], []
    for step in range(cfg.iterations):
        temp = T.temperature_at(step, cfg)
        cand = _kernels.swap_positions(cur.as_array(), k, draws[step, : 2 * k])
        cand_tour = T.Tour(tuple(int(v) for v in cand))
        cand_len = T.tour_length(m, cand_tour)
        if T.acceptance_probability(cur_len, cand_len, temp) >= draws[step, 2 * k]:
            cur, cur_len = cand_tour, cand_len
            if cur_len < best_len:
                best, best_len = cur, cur_len
        temps.append(temp)
        current.append(cur_len)
        bests.append(best_len)
    return temps, current, bests, (best, best_len), (cur, cur_len)


def _anneal_counting_exact_steps(monkeypatch, m, start, cfg):
    """Run ``anneal`` from its seed, counting the steps that reached
    ``acceptance_probability`` (the exact step), and check its output
    against a hand replay."""
    exact = []
    real = annealing.acceptance_probability

    def counted(e, e_new, t):
        exact.append((e, e_new))
        return real(e, e_new, t)

    monkeypatch.setattr(annealing, "acceptance_probability", counted)
    tour, length, trace = T.anneal(m, start, cfg)
    draws = np.random.default_rng(cfg.seed).random((cfg.iterations, 2 * cfg.swap_count + 1))
    temps, current, bests, best, final = _replay(m, start, cfg, draws)
    assert trace.temperature.tolist() == temps
    assert trace.current_length.tolist() == current
    assert trace.best_length.tolist() == bests
    assert (tour, length) == best
    assert (trace.final_tour, trace.final_length) == final
    return exact


def test_screen_leaves_ties_to_the_exact_step(monkeypatch):
    """Swapping opposite corners of a square tour reverses it: the edge
    delta is exactly 0, which the screen cannot decide, so the exact step
    runs and accepts the tie on its in-order length, never reaching the
    schedule, while the crossings are rejected."""
    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    square = T.Instance(
        id="square", cities=tuple(T.City(f"c{i}", x, y) for i, (x, y) in enumerate(corners))
    )
    m = T.distance_matrix(square)
    monkeypatch.setattr(annealing, "SCREEN_GAP", 1)  # screen every step
    cfg = T.SaConfig(t0=1e-3, cooling_rate=0.99, iterations=400, seed=6)
    start = T.Tour((0, 1, 2, 3))
    exact = _anneal_counting_exact_steps(monkeypatch, m, start, cfg)
    assert all(e_new > e for e, e_new in exact)
    assert len(exact) < cfg.iterations
    draws = np.random.default_rng(cfg.seed).random((cfg.iterations, 3))
    cur = start
    ties = 0
    for step in range(cfg.iterations):
        cand = T.Tour(tuple(_kernels.swap_positions(list(cur.order), 1, draws[step, :2])))
        cand_len = T.tour_length(m, cand)
        if T.acceptance_probability(4.0, cand_len, T.temperature_at(step, cfg)) >= draws[step, 2]:
            assert cand_len == 4.0
            ties += 1
            cur = cand
    assert ties


@pytest.mark.parametrize("k", (1, 25))
def test_anneal_chunk_boundary_replay_n50(monkeypatch, k):
    m = T.distance_matrix(T.generate_random_instance(50, seed=8))
    cfg = T.SaConfig(t0=0.05, cooling_rate=0.999, iterations=CHUNK + 1, swap_count=k, seed=4)
    start = T.Tour.random(50, np.random.default_rng(9))
    exact = _anneal_counting_exact_steps(monkeypatch, m, start, cfg)
    assert len(exact) < cfg.iterations  # the screen rejected steps


@pytest.mark.parametrize("bound", (1e200,))
def test_anneal_replays_at_extreme_bounds(monkeypatch, bound):
    """At bound 1e200 the screen works on lengths near 1e201."""
    m = T.distance_matrix(T.generate_random_instance(10, seed=2, bound=bound))
    cfg = T.SaConfig(t0=1.0, cooling_rate=0.99, iterations=600, swap_count=2, seed=5)
    start = T.Tour(tuple(range(10)))
    exact = _anneal_counting_exact_steps(monkeypatch, m, start, cfg)
    assert len(exact) < cfg.iterations


def _tied_instance(n, rng):
    """n distinct cities on a small integer grid, so many distances tie."""
    cells = rng.choice(25, size=n, replace=False)
    return T.Instance(
        id="grid",
        cities=tuple(T.City(f"c{i}", float(c % 5), float(c // 5)) for i, c in enumerate(cells)),
    )


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(4, 14),
    bound=st.sampled_from([1.0, 100.0, 1e5, "grid"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_screen_never_rejects_an_accepted_step(n, bound, seed, data):
    """Every step the screen rejects is one ``acceptance_probability``
    rejects, and every edge delta is within the band of the exact length
    difference.  Uniforms include 0.0, the step's own acceptance
    probability and its float neighbours; temperatures run from the floor
    to 1e300."""
    rng = np.random.default_rng(seed)
    if bound == "grid":
        m = T.distance_matrix(_tied_instance(n, rng))
    else:
        m = T.distance_matrix(T.generate_random_instance(n, seed=seed, bound=bound))
    k = data.draw(st.integers(1, n // 2), label="swap_count")
    steps = 64
    cur = rng.permutation(n).tolist()
    d = m.d.tolist()
    cur_len = _kernels.closed_tour_length(d, cur)
    temps = np.maximum(10.0 ** rng.uniform(-12, 300, steps), TEMPERATURE_FLOOR)
    temps[: steps // 3] = TEMPERATURE_FLOOR  # where a rounding tie could be rejected
    temps[steps // 3 : steps // 3 + 3] = (1e-6, 1.0, 1e300)
    u = rng.random((steps, 2 * k + 1))
    picks = _kernels.pick_positions(n, k, u)
    lengths, probs = [], []
    for j in range(steps):
        cand = _kernels.swap_pairs(cur, picks[j].reshape(k, 2).tolist())
        lengths.append(_kernels.closed_tour_length(d, cand))
        probs.append(annealing.acceptance_probability(cur_len, lengths[-1], temps[j]))
    modes = rng.integers(0, 5, steps)
    for j, (mode, p) in enumerate(zip(modes, probs)):
        if mode == 1:
            u[j, 2 * k] = 0.0
        elif mode == 2:
            u[j, 2 * k] = p
        elif mode == 3:
            u[j, 2 * k] = np.nextafter(p, 0.0)
        elif mode == 4:
            u[j, 2 * k] = np.nextafter(p, 1.0)
    band = annealing._screen_band(m, k)
    assert band > 0
    edges = annealing._changed_edges(picks, n)
    tour = np.array(cur, dtype=picks.dtype)
    cuts = annealing._rejection_cuts(temps, u[:, 2 * k])
    delta = annealing._edge_deltas(m.d, tour, edges)
    undecided = set(annealing._undecided(delta, band, cuts).tolist())
    cities = tour[edges]
    deltas = (m.d[cities[2], cities[3]] - m.d[cities[0], cities[1]]).sum(axis=1)
    for j in range(steps):
        excess = Fraction(lengths[j]) - Fraction(cur_len) - Fraction(float(deltas[j]))
        assert abs(excess) <= Fraction(band)
        if j not in undecided:
            assert probs[j] < u[j, 2 * k]


@settings(max_examples=150, deadline=None)
@given(
    bound=st.sampled_from([1.0, 100.0, 1e5, "grid"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_hold_screen_never_rejects_an_accepted_step(bound, seed, data):
    """Screening one-pair steps one at a time by their scalar edge delta,
    from the gate's n up to 40 (25 on the integer grid), every rejected
    step is one ``acceptance_probability`` rejects, and every delta is
    within the band of the exact length difference.  Pairs are adjacent,
    the wrap-around (0, n - 1), or general, in either order; uniforms
    include 0.0, the step's own acceptance probability and its float
    neighbours; temperatures run from the floor to 1e300."""
    n = data.draw(st.integers(annealing.HOLD_SCREEN_MIN_N, 25 if bound == "grid" else 40), label="n")
    rng = np.random.default_rng(seed)
    if bound == "grid":
        m = T.distance_matrix(_tied_instance(n, rng))
    else:
        m = T.distance_matrix(T.generate_random_instance(n, seed=seed, bound=bound))
    steps = 64
    cur = rng.permutation(n).tolist()
    d = m.d.tolist()
    cur_len = _kernels.closed_tour_length(d, cur)
    temps = np.maximum(10.0 ** rng.uniform(-12, 300, steps), TEMPERATURE_FLOOR)
    temps[: steps // 3] = TEMPERATURE_FLOOR  # where a rounding tie could be rejected
    u = rng.random((steps, 3))
    pairs = _kernels.pick_positions(n, 1, u).tolist()
    for j in range(steps):
        x = int(rng.integers(n - 1))
        pairs[j] = (pairs[j], [x, x + 1], [0, n - 1])[j % 3][:: (-1) ** (j // 3)]
    band = annealing._screen_band(m, 1)
    assert band > 0
    for j, (x, y) in enumerate(pairs):
        cand_len = _kernels.closed_tour_length(d, _kernels.swap_pairs(cur, [(x, y)]))
        p = annealing.acceptance_probability(cur_len, cand_len, temps[j])
        u[j, 2] = (0.0, p, np.nextafter(p, 0.0), np.nextafter(p, 1.0), u[j, 2])[j % 5]
        delta = annealing._pair_delta(d, cur, x, y, n)
        excess = Fraction(cand_len) - Fraction(cur_len) - Fraction(delta)
        assert abs(excess) <= Fraction(band)
        cut = annealing._rejection_cuts(temps[j : j + 1], u[j : j + 1, 2])[0]
        if delta - band >= cut:
            assert p < u[j, 2]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(5, annealing.HOLD_SCREEN_MIN_N - 1),
    bound=st.sampled_from([1.0, 100.0, 1e5, "grid"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_scalar_screen_below_the_hold_gate_never_rejects_an_accepted_step(n, bound, seed):
    """Below ``HOLD_SCREEN_MIN_N``, where one-pair steps after the gap are
    screened alone by ``_pair_delta``, every delta is within the band of
    the exact length difference and every rejected step is one
    ``acceptance_probability`` rejects.  Pairs are adjacent, the
    wrap-around (0, n - 1), two apart (both picks share a neighbour), n - 2
    apart (the city before the first pick is the one after the second) or
    general, in either order; uniforms include 0.0, the step's own
    acceptance probability and its float neighbours; temperatures run from
    the floor to 1e300."""
    rng = np.random.default_rng(seed)
    if bound == "grid":
        m = T.distance_matrix(_tied_instance(n, rng))
    else:
        m = T.distance_matrix(T.generate_random_instance(n, seed=seed, bound=bound))
    steps = 100
    cur = rng.permutation(n).tolist()
    d = m.d.tolist()
    cur_len = _kernels.closed_tour_length(d, cur)
    temps = np.maximum(10.0 ** rng.uniform(-12, 300, steps), TEMPERATURE_FLOOR)
    temps[: steps // 3] = TEMPERATURE_FLOOR  # where a rounding tie could be rejected
    u = rng.random((steps, 3))
    general = _kernels.pick_positions(n, 1, u).tolist()
    band = annealing._screen_band(m, 1)
    assert band > 0
    for j in range(steps):
        x, y = int(rng.integers(n - 2)), int(rng.integers(2))
        pair = (general[j], [x, x + 1], [0, n - 1], [x, x + 2], [y, y + n - 2])[j % 5]
        x, y = pair[:: (-1) ** (j // 5)]
        cand_len = _kernels.closed_tour_length(d, _kernels.swap_pairs(cur, [(x, y)]))
        p = annealing.acceptance_probability(cur_len, cand_len, temps[j])
        u[j, 2] = (0.0, p, np.nextafter(p, 0.0), np.nextafter(p, 1.0), u[j, 2])[j // 10 % 5]
        delta = annealing._pair_delta(d, cur, x, y, n)
        excess = Fraction(cand_len) - Fraction(cur_len) - Fraction(delta)
        assert abs(excess) <= Fraction(band)
        cut = annealing._rejection_cuts(temps[j : j + 1], u[j : j + 1, 2])[0]
        if delta - band >= cut:
            assert p < u[j, 2]


@pytest.mark.parametrize("n, lengths, exact", [(15, 2032, 544), (50, 1157, 528)])
def test_hold_screen_spares_the_lengths_of_held_steps(monkeypatch, n, lengths, exact):
    """The in-order lengths summed by one default SA solve on
    ``generate_random_instance(n, 3)``: one start length, one per exact
    step, and one per step the exact step's cut rejects.  At n = 50 the
    hold screen rejects those steps before their length, which took 3,678
    lengths without it; n = 15 is below its gate, so only its steps after
    the gap are screened alone, which took 2,919 lengths in windows.  The
    steps reaching ``acceptance_probability`` and the walk are the same
    either way.  Only a longer candidate reaches it: a candidate no longer
    than the tour is accepted on its length, which spared 585 calls at
    n = 15 and 628 at n = 50."""
    counts = {"length": 0, "exact": 0}
    real_length, real_accept = _kernels.closed_tour_length, annealing.acceptance_probability

    def length(d, order):
        counts["length"] += 1
        return real_length(d, order)

    def accept(e, e_new, t):
        counts["exact"] += 1
        return real_accept(e, e_new, t)

    monkeypatch.setattr(_kernels, "closed_tour_length", length)
    monkeypatch.setattr(annealing, "acceptance_probability", accept)
    m = T.distance_matrix(T.generate_random_instance(n, 3))
    cfg = T.SaConfig()
    tour, best_len, trace = pipeline._anneal_from_random(m, cfg)
    start_len = trace.start_length
    assert counts == {"length": lengths, "exact": exact}
    monkeypatch.undo()
    rng = np.random.default_rng(cfg.seed)
    start = T.Tour.random(n, rng)
    _, current, bests, best, final = _replay(m, start, cfg, rng.random((cfg.iterations, 3)))
    assert start_len == T.tour_length(m, start)
    assert trace.current_length.tolist() == current
    assert trace.best_length.tolist() == bests
    assert (tour, best_len) == best
    assert (trace.final_tour, trace.final_length) == final


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(4, 14),
    bound=st.one_of(st.just("grid"), st.floats(1.0, 1e5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_screen_never_rejects_an_accepted_step(n, bound, seed):
    """Screening one-pair steps from the table of every position pair's
    swap delta, no rejected step is one ``acceptance_probability``
    accepts, and every looked-up delta is within the band of the exact
    length difference.  Uniforms include the step's own acceptance
    probability and its float neighbours; temperatures run from the floor
    to 1e300."""
    rng = np.random.default_rng(seed)
    if bound == "grid":
        m = T.distance_matrix(_tied_instance(n, rng))
    else:
        m = T.distance_matrix(T.generate_random_instance(n, seed=seed, bound=bound))
    steps = 64
    cur = rng.permutation(n).tolist()
    d = m.d.tolist()
    cur_len = _kernels.closed_tour_length(d, cur)
    temps = np.maximum(10.0 ** rng.uniform(-12, 300, steps), TEMPERATURE_FLOOR)
    temps[: steps // 3] = TEMPERATURE_FLOOR  # where a rounding tie could be rejected
    u = rng.random((steps, 3))
    picks = _kernels.pick_positions(n, 1, u)
    probs = []
    for j, (a, b) in enumerate(picks.tolist()):
        cand_len = _kernels.closed_tour_length(d, _kernels.swap_pairs(cur, [(a, b)]))
        p = annealing.acceptance_probability(cur_len, cand_len, temps[j])
        u[j, 2] = (p, np.nextafter(p, 0.0), np.nextafter(p, 1.0), u[j, 2])[j % 4]
        probs.append((cand_len, p))
    band = annealing._screen_band(m, 1)
    row, pair_edges = annealing._position_pairs(n, picks.dtype)
    table = annealing._edge_deltas(m.d, np.array(cur, dtype=picks.dtype), pair_edges)
    assert table.shape == (n * (n - 1) // 2,)
    deltas = table[row[picks[:, 0], picks[:, 1]]]
    cuts = annealing._rejection_cuts(temps, u[:, 2])
    undecided = set(annealing._undecided(deltas, band, cuts).tolist())
    for j, (cand_len, p) in enumerate(probs):
        excess = Fraction(cand_len) - Fraction(cur_len) - Fraction(float(deltas[j]))
        assert abs(excess) <= Fraction(band)
        if j not in undecided:
            assert p < u[j, 2]


def _pin_configs():
    """About 100 ``anneal`` configs: n = 4 (matrix4) to 50, k in {1, 2,
    n // 2}, a hot short schedule, one that crosses a chunk boundary and a
    cold one whose long gaps build swap-delta tables."""
    schedules = ((1.0, 0.99, 300), (0.05, 0.999, CHUNK + 1), (1e-4, 0.995, 3000))
    builtins = {4: "matrix4", 8: "paper8", 10: "cityset1"}
    for n in (4, 5, 6, 7, 8, 10, 12, 16, 20, 30, 40, 50):
        if n in builtins:
            m = T.distance_matrix(T.get_builtin(builtins[n]))
        else:
            m = T.distance_matrix(T.generate_random_instance(n, seed=n))
        for k in sorted({1, 2, n // 2}):
            for t0, cooling, iters in schedules:
                yield m, T.SaConfig(t0=t0, cooling_rate=cooling, iterations=iters, swap_count=k)


def _walk_digest():
    """sha256 over each pinned config's answer, final state, trace arrays
    and the generator's state after the walk."""
    h = hashlib.sha256()
    for idx, (m, cfg) in enumerate(_pin_configs()):
        rng = np.random.default_rng(idx)
        start = T.Tour.random(m.n, rng)
        tour, length, trace = T.anneal(m, start, cfg, rng=rng)
        h.update(repr((tour.order, length, trace.final_tour.order, trace.final_length)).encode())
        for arr in (trace.temperature, trace.current_length, trace.best_length):
            h.update(arr.tobytes())
        h.update(repr(rng.bit_generator.state).encode())
    return h.hexdigest()


# The walk over ``_pin_configs``, recorded when every window gathered its
# steps' changed edges and no swap-delta table existed.
WALK_DIGEST = "a54ef1009a28c7703f5d80f617f6a06f64983c31d50384df92f7852d6563d046"


def test_walk_matches_its_pinned_digest(monkeypatch):
    """The screen, table included, leaves every answer, trace and
    generator state as it was; the table served some windows and the
    screen rejected some steps."""
    exact, tables = [], []
    real_accept, real_pairs = annealing.acceptance_probability, annealing._position_pairs
    monkeypatch.setattr(
        annealing, "acceptance_probability", lambda *a: exact.append(1) or real_accept(*a)
    )
    monkeypatch.setattr(annealing, "_position_pairs", lambda *a: tables.append(1) or real_pairs(*a))
    assert _walk_digest() == WALK_DIGEST
    assert tables
    assert len(exact) < sum(cfg.iterations for _, cfg in _pin_configs())


@pytest.mark.parametrize("gap", (1, MAX_ITERATIONS + 1))
def test_walk_is_the_same_with_the_screen_at_every_step_or_none(monkeypatch, gap):
    """Screening from the first step after each acceptance, or never,
    gives the pinned walk."""
    monkeypatch.setattr(annealing, "SCREEN_GAP", gap)
    assert _walk_digest() == WALK_DIGEST


@pytest.mark.parametrize("n", (64, 65))
def test_table_is_built_only_while_p_fits_in_a_chunk(monkeypatch, n):
    """On a circle the convex order is the one shortest tour, so at the
    floor temperature no step is accepted and the gap since the start
    outgrows a chunk.  A whole chunk holds P = 2016 position pairs' worth of
    steps at n = 64 but not P = 2080 at n = 65, whose windows gather their
    steps' edges instead."""
    built = []
    real = annealing._position_pairs
    monkeypatch.setattr(annealing, "_position_pairs", lambda *a: built.append(a) or real(*a))
    angles = 2 * np.pi * np.arange(n) / n
    circle = T.Instance(
        id="circle",
        cities=tuple(T.City(f"c{i}", math.cos(a), math.sin(a)) for i, a in enumerate(angles)),
    )
    m = T.distance_matrix(circle)
    cfg = T.SaConfig(t0=TEMPERATURE_FLOOR, cooling_rate=0.5, iterations=3 * CHUNK, seed=2)
    exact = _anneal_counting_exact_steps(monkeypatch, m, T.Tour(tuple(range(n))), cfg)
    assert not any(e_new <= e for e, e_new in exact)
    assert len(exact) < cfg.iterations
    assert len(built) == (n == 64)


@settings(max_examples=300, deadline=None)
@given(
    t0=st.floats(0.0, 1.7976931348623157e308, exclude_min=True),
    cooling=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    first=st.integers(0, MAX_ITERATIONS - 16),
    at_floor=st.booleans(),
)
def test_temperature_bounds_are_at_least_the_schedule(t0, cooling, first, at_floor):
    """``_temperature_bounds`` from ``np.power`` is never below
    ``temperature_at``: for any t0 up to the largest float, any rate, and
    steps up to ``MAX_ITERATIONS``, around where the schedule meets its
    floor or anywhere.  An overflowing bound is infinite, as is its cut,
    and nothing warns.  Away from the floor and from subnormal powers, the
    bound is within 2^-38 of the schedule."""
    cfg = T.SaConfig(t0=t0, cooling_rate=cooling, iterations=1)
    if at_floor:
        crossing = (math.log(TEMPERATURE_FLOOR) - math.log(t0)) / math.log(cooling)
        first = int(min(max(crossing - 8, 0), MAX_ITERATIONS - 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = annealing._temperature_bounds(cfg, first, 16)
        cuts = annealing._rejection_cuts(bounds, np.full(16, 0.5))
    for j, bound in enumerate(bounds.tolist()):
        temp = T.temperature_at(first + j, cfg)
        assert bound >= temp
        if bound == math.inf:
            assert cuts[j] == math.inf
        elif t0 < 1e250 and temp > TEMPERATURE_FLOOR:
            assert bound <= temp * (1 + 2.0**-38)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(4, 14),
    bound=st.sampled_from([1.0, 100.0, 1e5, "grid"]),
    seed=st.integers(0, 2**32 - 1),
    log_ratio=st.floats(-6.0, 6.0),
    first=st.one_of(st.integers(0, 2000), st.integers(0, MAX_ITERATIONS - 64)),
    data=st.data(),
)
def test_exact_step_cut_never_rejects_an_accepted_step(n, bound, seed, log_ratio, first, data):
    """An exact step whose length difference D reaches its cut, made from
    ``_temperature_bounds``, is one ``acceptance_probability`` rejects at
    the step's own ``temperature_at``.  Temperatures run from about 1e-6 to
    1e6 times the instance's scale and down to the floor; uniforms include
    0.0, the step's acceptance probability and its float neighbours."""
    rng = np.random.default_rng(seed)
    if bound == "grid":
        m = T.distance_matrix(_tied_instance(n, rng))
    else:
        m = T.distance_matrix(T.generate_random_instance(n, seed=seed, bound=bound))
    assert annealing._screen_band(m, 1) < math.inf
    k = data.draw(st.integers(1, n // 2), label="swap_count")
    steps = 64
    scale = float(m.d.max()) / n
    cfg = T.SaConfig(t0=scale * 10.0**log_ratio, cooling_rate=0.999, iterations=1, swap_count=k)
    cur = rng.permutation(n).tolist()
    d = m.d.tolist()
    cur_len = _kernels.closed_tour_length(d, cur)
    u = rng.random((steps, 2 * k + 1))
    picks = _kernels.pick_positions(n, k, u)
    cases = []
    for j in range(steps):
        cand = _kernels.swap_pairs(cur, picks[j].reshape(k, 2).tolist())
        cand_len = _kernels.closed_tour_length(d, cand)
        temp = T.temperature_at(first + j, cfg)
        p = annealing.acceptance_probability(cur_len, cand_len, temp)
        above = min(np.nextafter(p, 1.0), np.nextafter(1.0, 0.0))  # a uniform is < 1
        u[j, 2 * k] = (0.0, p, np.nextafter(p, 0.0), above, u[j, 2 * k])[j % 5]
        cases.append((cand_len, p))
    cuts = annealing._rejection_cuts(annealing._temperature_bounds(cfg, first, steps), u[:, 2 * k])
    for j, (cand_len, p) in enumerate(cases):
        if cand_len - cur_len >= cuts[j]:
            assert p < u[j, 2 * k]
        if u[j, 2 * k] == 0.0:
            assert cuts[j] == math.inf


def test_uniforms_below_the_generator_grid_get_infinite_cuts():
    """The cut's proof needs u >= 2^-53, the smallest nonzero uniform
    ``Generator.random()`` draws.  A smaller one, such as the subnormal
    p = u of a cold step (2.07282e-318 at n = 10, seed 3), gets an infinite
    cut, as 0.0 does."""
    uniforms = np.array([0.0, 5e-324, 2.07282e-318, 2.0**-54, 2.0**-53, 0.5])
    cuts = annealing._rejection_cuts(np.full(len(uniforms), 0.2), uniforms)
    assert cuts[:4].tolist() == [math.inf] * 4
    assert np.isfinite(cuts[4:]).all()


def test_cold_walk_evaluates_the_schedule_only_where_a_step_reads_it(monkeypatch):
    """``anneal`` calls ``temperature_at`` only for a step about to reach
    ``acceptance_probability``, and builds no schedule array until the
    trace's temperatures are read.  On a circle at the floor temperature
    every proposal is longer: the first exact steps are all cut before the
    exponential, and later chunks have no exact step, so the walk never
    evaluates the schedule.  A warmer walk evaluates it once per exact
    step that is not cut."""
    called, passed = [], []
    real_temperature, real_accept = annealing.temperature_at, annealing.acceptance_probability

    def temperature_at(step, cfg):
        called.append(step)
        return real_temperature(step, cfg)

    def acceptance_probability(e, e_new, t):
        passed.append(t)
        return real_accept(e, e_new, t)

    monkeypatch.setattr(annealing, "temperature_at", temperature_at)
    monkeypatch.setattr(annealing, "acceptance_probability", acceptance_probability)
    n = 20
    angles = 2 * np.pi * np.arange(n) / n
    circle = T.Instance(
        id="circle",
        cities=tuple(T.City(f"c{i}", math.cos(a), math.sin(a)) for i, a in enumerate(angles)),
    )
    cold = T.SaConfig(t0=TEMPERATURE_FLOOR, cooling_rate=0.5, iterations=3 * CHUNK, seed=2)
    _, _, trace = T.anneal(T.distance_matrix(circle), T.Tour(tuple(range(n))), cold)
    assert called == [] and passed == []
    assert "temperature" not in vars(trace)
    assert trace.temperature.tolist() == [TEMPERATURE_FLOOR] * cold.iterations
    assert called == list(range(cold.iterations))

    called.clear()
    warm = T.SaConfig(t0=0.05, cooling_rate=0.999, iterations=3 * CHUNK + 7, seed=4)
    m = T.distance_matrix(T.get_builtin("cityset1"))
    _, _, trace = T.anneal(m, T.Tour(tuple(range(10))), warm)
    assert 0 < len(called) < warm.iterations
    assert [real_temperature(step, warm) for step in called] == passed
    assert called == sorted(set(called))
    assert "temperature" not in vars(trace)
    called.clear()
    assert trace.temperature is trace.temperature
    assert called == list(range(warm.iterations))


def test_trace_derives_its_step_numbers_and_best_lengths_on_read(paper8_m):
    """A trace stores its current lengths and start length; its step numbers
    and best lengths are computed on first read, then kept, and equal the
    arrays ``anneal`` once stored, bit for bit."""
    cfg = T.SaConfig(t0=2.0, cooling_rate=0.99, iterations=500, seed=3)
    start = T.Tour(tuple(range(8)))
    _, length, trace = T.anneal(paper8_m, start, cfg)
    assert not {"iteration", "best_length", "temperature"} & set(vars(trace))
    assert trace.start_length == T.tour_length(paper8_m, start)
    best = np.minimum(np.minimum.accumulate(trace.current_length), trace.start_length)
    assert trace.best_length.tobytes() == best.tobytes()
    assert trace.iteration.tobytes() == np.arange(cfg.iterations).tobytes()
    assert trace.best_length is trace.best_length and trace.iteration is trace.iteration
    assert trace.best_length[-1] == length
    assert type(trace.final_length) is float
    assert trace.final_length == trace.current_length[-1]
    assert [f.name for f in dataclasses.fields(trace)] == [
        "current_length", "start_length", "final_tour", "config",
    ]


def test_traces_compare_by_identity(paper8_m):
    """A trace holds arrays: == answers by identity instead of raising on
    an ambiguous truth value."""
    cfg = T.SaConfig(t0=1.0, cooling_rate=0.9, iterations=20, seed=1)
    start = T.Tour(tuple(range(8)))
    _, _, first = T.anneal(paper8_m, start, cfg)
    _, _, second = T.anneal(paper8_m, start, cfg)
    assert np.array_equal(first.current_length, second.current_length)
    assert first == first and first != second



def test_window_screen_leaves_ties_to_the_exact_step(monkeypatch):
    """Above the order walk's gate the screen runs, from the first step
    after each acceptance here: on a tied grid instance, steps whose
    window edge delta is exactly 0 are left to the exact step, which
    accepts them on their in-order length without evaluating the schedule,
    while most steps are screened out."""
    n = 8
    assert n > annealing.ORDER_WALK_MAX_N
    m = T.distance_matrix(_tied_instance(n, np.random.default_rng(0)))
    cfg = T.SaConfig(t0=1e-3, cooling_rate=0.99, iterations=400, seed=1)
    start = T.Tour(tuple(range(n)))
    called, exact = [], []
    real_temperature, real_accept = annealing.temperature_at, annealing.acceptance_probability
    monkeypatch.setattr(annealing, "SCREEN_GAP", 1)
    monkeypatch.setattr(
        annealing, "temperature_at", lambda t, c: called.append(t) or real_temperature(t, c)
    )
    monkeypatch.setattr(
        annealing, "acceptance_probability", lambda *a: exact.append(a) or real_accept(*a)
    )
    _, _, trace = T.anneal(m, start, cfg)
    monkeypatch.undo()
    assert len(called) == len(exact) < cfg.iterations
    assert all(e_new > e for e, e_new, _ in exact)

    draws = np.random.default_rng(cfg.seed).random((cfg.iterations, 3))
    assert trace.current_length.tolist() == _replay(m, start, cfg, draws)[1]
    picks = _kernels.pick_positions(n, 1, draws)
    d = m.d.tolist()
    cur = list(start.order)
    cur_len = _kernels.closed_tour_length(d, cur)
    tied = 0
    for step, pair in enumerate(picks.tolist()):
        cand = _kernels.swap_pairs(cur, [pair])
        cand_len = _kernels.closed_tour_length(d, cand)
        p = T.acceptance_probability(cur_len, cand_len, real_temperature(step, cfg))
        if p >= draws[step, 2]:
            edges = annealing._changed_edges(picks[step : step + 1], n)
            delta = annealing._edge_deltas(m.d, np.array(cur, dtype=picks.dtype), edges)[0]
            tied += step not in called and delta == 0.0
            cur, cur_len = cand, cand_len
    assert tied


@pytest.mark.parametrize("k, windows", [(1, False), (2, True)])
def test_one_pair_walks_from_the_gate_screen_no_window(monkeypatch, k, windows):
    """From ``HOLD_SCREEN_MIN_N`` cities the scalar screen serves every
    one-pair step that no swap-delta table serves, so a default walk at
    n = 30 gathers no window's changed edges; a two-pair walk still does.
    The tables come from a copy made before counting, so every counted
    ``_changed_edges`` call is a window's."""
    n = 30
    assert n >= annealing.HOLD_SCREEN_MIN_N
    m = T.distance_matrix(T.generate_random_instance(n, seed=3))
    dtype = _kernels.pick_positions(n, k, np.zeros((1, 2 * k))).dtype
    pairs = annealing._position_pairs(n, dtype)
    real_edges = annealing._changed_edges
    gathered = []
    monkeypatch.setattr(annealing, "_position_pairs", lambda n_, dtype_: pairs)
    monkeypatch.setattr(
        annealing,
        "_changed_edges",
        lambda picks, n_: gathered.append(len(picks)) or real_edges(picks, n_),
    )
    cfg = T.SaConfig(swap_count=k)
    start = T.Tour.random(n, np.random.default_rng(0))
    tour, length, trace = T.anneal(m, start, cfg)
    monkeypatch.undo()
    assert bool(gathered) == windows
    draws = np.random.default_rng(cfg.seed).random((cfg.iterations, 2 * k + 1))
    _, current, _, best, final = _replay(m, start, cfg, draws)
    assert trace.current_length.tolist() == current
    assert (tour, length) == best
    assert (trace.final_tour, trace.final_length) == final


def _count_windows(monkeypatch, n, k):
    """Count the steps of each ``_changed_edges`` call, a window's gather:
    tables come from a copy of ``_position_pairs`` made before counting."""
    dtype = _kernels.pick_positions(n, k, np.zeros((1, 2 * k))).dtype
    pairs = annealing._position_pairs(n, dtype)
    real_edges = annealing._changed_edges
    gathered = []
    monkeypatch.setattr(annealing, "_position_pairs", lambda n_, dtype_: pairs)
    monkeypatch.setattr(
        annealing,
        "_changed_edges",
        lambda picks, n_: gathered.append(len(picks)) or real_edges(picks, n_),
    )
    return gathered


@pytest.mark.parametrize("name", ("paper8", "cityset1"))
def test_one_pair_walks_below_the_gate_screen_no_window(monkeypatch, name):
    """Below ``HOLD_SCREEN_MIN_N`` too, a one-pair step after the gap that
    no swap-delta table serves is screened alone, so default walks on the
    paper's n = 8 and n = 10 instances gather no window, and match the
    hand replay."""
    m = T.distance_matrix(T.get_builtin(name))
    assert annealing.ORDER_WALK_MAX_N < m.n < annealing.HOLD_SCREEN_MIN_N
    gathered = _count_windows(monkeypatch, m.n, 1)
    cfg = T.SaConfig()
    start = T.Tour.random(m.n, np.random.default_rng(0))
    tour, length, trace = T.anneal(m, start, cfg)
    monkeypatch.undo()
    assert gathered == []
    draws = np.random.default_rng(cfg.seed).random((cfg.iterations, 3))
    _, current, _, best, final = _replay(m, start, cfg, draws)
    assert trace.current_length.tolist() == current
    assert (tour, length) == best
    assert (trace.final_tour, trace.final_length) == final


def test_two_pair_window_screen_leaves_ties_to_the_exact_step(monkeypatch):
    """Two-pair walks screen in windows: on a tied grid instance at n = 8,
    screened from the first step after each acceptance, steps whose window
    edge delta is exactly 0 are left to the exact step, which accepts them
    on their in-order length without evaluating the schedule, while most
    steps are screened out."""
    n, k = 8, 2
    m = T.distance_matrix(_tied_instance(n, np.random.default_rng(0)))
    cfg = T.SaConfig(t0=1e-3, cooling_rate=0.99, iterations=400, swap_count=k, seed=5)
    start = T.Tour(tuple(range(n)))
    gathered = _count_windows(monkeypatch, n, k)
    called, exact = [], []
    real_temperature, real_accept = annealing.temperature_at, annealing.acceptance_probability
    monkeypatch.setattr(annealing, "SCREEN_GAP", 1)
    monkeypatch.setattr(
        annealing, "temperature_at", lambda t, c: called.append(t) or real_temperature(t, c)
    )
    monkeypatch.setattr(
        annealing, "acceptance_probability", lambda *a: exact.append(a) or real_accept(*a)
    )
    _, _, trace = T.anneal(m, start, cfg)
    monkeypatch.undo()
    assert gathered
    assert len(called) == len(exact) < cfg.iterations
    assert all(e_new > e for e, e_new, _ in exact)

    draws = np.random.default_rng(cfg.seed).random((cfg.iterations, 2 * k + 1))
    assert trace.current_length.tolist() == _replay(m, start, cfg, draws)[1]
    picks = _kernels.pick_positions(n, k, draws)
    d = m.d.tolist()
    cur = list(start.order)
    cur_len = _kernels.closed_tour_length(d, cur)
    tied = 0
    for step, row in enumerate(picks.tolist()):
        cand = _kernels.swap_pairs(cur, [row[:2], row[2:]])
        cand_len = _kernels.closed_tour_length(d, cand)
        p = T.acceptance_probability(cur_len, cand_len, real_temperature(step, cfg))
        if p >= draws[step, 2 * k]:
            edges = annealing._changed_edges(picks[step : step + 1], n)
            delta = annealing._edge_deltas(m.d, np.array(cur, dtype=picks.dtype), edges)[0]
            tied += step not in called and delta == 0.0
            cur, cur_len = cand, cand_len
    assert tied


def _walk_on_gate(gate, m, start, cfg, rng):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(annealing, "ORDER_WALK_MAX_N", gate)
        tour, length, trace = T.anneal(m, start, cfg, rng=rng)
    arrays = [a.tobytes() for a in (trace.temperature, trace.current_length, trace.best_length)]
    final = (trace.final_tour, trace.final_length, trace.start_length)
    return tour, length, final, arrays, rng.random(4).tolist()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 5),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    t0=st.floats(1e-4, 10.0),
    cooling=st.floats(0.99, 0.9999),
    iters=st.integers(CHUNK + 1, 2 * CHUNK + 1),
    data=st.data(),
)
def test_order_walk_matches_the_list_walk(n, tied, seed, t0, cooling, iters, data):
    """The walk over order indices (gate 5, so n = 5 too) and the walk over
    lists (gate 2) give the same best and final tours and lengths, the same
    trace arrays bit for bit and leave the generator in the same state, on
    tied and untied instances, for every swap count, across a chunk
    boundary."""
    rng = np.random.default_rng(seed)
    if tied:
        m = T.distance_matrix(_tied_instance(n, rng))
    else:
        m = T.distance_matrix(T.generate_random_instance(n, seed=seed))
    k = data.draw(st.integers(1, n // 2), label="swap_count")
    cfg = T.SaConfig(t0=t0, cooling_rate=cooling, iterations=iters, swap_count=k, seed=seed)
    start = T.Tour.random(n, rng)
    orders = _walk_on_gate(5, m, start, cfg, np.random.default_rng(seed))
    lists = _walk_on_gate(2, m, start, cfg, np.random.default_rng(seed))
    assert orders == lists


def _walk_and_next_draws(m, start, cfg):
    """``anneal`` from ``cfg.seed`` and the generator's next four draws."""
    rng = np.random.default_rng(cfg.seed)
    tour, length, trace = T.anneal(m, start, cfg, rng=rng)
    return tour, length, trace, rng.random(4).tolist()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(5, 14),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    log_t0=st.floats(-4.0, 0.0),
    cooling=st.floats(0.95, 0.999),
    chunk=st.integers(64, 256),
    iters=st.integers(300, 3000),
    data=st.data(),
)
def test_frozen_chunks_keep_the_walk(n, tied, seed, log_t0, cooling, chunk, iters, data):
    """With short chunks and a cool schedule, many chunks are rejected whole
    once a swap-delta table proves every step left fails; the walk still
    matches the hand replay bit for bit, on tied and untied instances, and
    leaves the generator where one draw of all its uniforms does."""
    rng = np.random.default_rng(seed)
    if tied:
        m = T.distance_matrix(_tied_instance(n, rng))
    else:
        m = T.distance_matrix(T.generate_random_instance(n, seed=seed))
    k = data.draw(st.sampled_from(sorted({1, 2})), label="swap_count")
    t0 = 10.0**log_t0
    cfg = T.SaConfig(t0=t0, cooling_rate=cooling, iterations=iters, swap_count=k, seed=seed)
    start = T.Tour.random(n, rng)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(annealing, "CHUNK", chunk)
        tour, length, trace, next_draws = _walk_and_next_draws(m, start, cfg)
    replay_rng = np.random.default_rng(seed)
    draws = replay_rng.random((iters, 2 * k + 1))
    temps, current, bests, best, final = _replay(m, start, cfg, draws)
    assert trace.temperature.tolist() == temps
    assert trace.current_length.tolist() == current
    assert trace.best_length.tolist() == bests
    assert (tour, length) == best
    assert (trace.final_tour, trace.final_length) == final
    assert next_draws == replay_rng.random(4).tolist()


def test_frozen_chunks_pick_no_positions(monkeypatch):
    """A default walk on cityset1 makes its last acceptance early, and its
    swap-delta table then proves later chunks frozen, so it picks positions
    for fewer chunks than it draws, and matches the hand replay."""
    calls = []
    real = _kernels.pick_positions
    monkeypatch.setattr(_kernels, "pick_positions", lambda *a: calls.append(1) or real(*a))
    m = T.distance_matrix(T.get_builtin("cityset1"))
    cfg = T.SaConfig()
    start = T.Tour.random(m.n, np.random.default_rng(0))
    tour, length, trace, next_draws = _walk_and_next_draws(m, start, cfg)
    monkeypatch.undo()
    assert 0 < len(calls) < math.ceil(cfg.iterations / CHUNK)
    replay_rng = np.random.default_rng(cfg.seed)
    _, current, _, best, final = _replay(m, start, cfg, replay_rng.random((cfg.iterations, 3)))
    assert trace.current_length.tolist() == current
    assert (tour, length) == best
    assert (trace.final_tour, trace.final_length) == final
    assert next_draws == replay_rng.random(4).tolist()


def test_frozen_chunks_make_no_cuts(monkeypatch):
    """A default walk on paper8 freezes most of its chunks from their first
    step, on the bound of ``_cut_bound`` alone, so it makes rejection cuts
    for fewer chunks than it draws, and matches the hand replay."""
    calls = []
    real = annealing._rejection_cuts
    monkeypatch.setattr(annealing, "_rejection_cuts", lambda *a: calls.append(1) or real(*a))
    m = T.distance_matrix(T.get_builtin("paper8"))
    cfg = T.SaConfig()
    start = T.Tour.random(m.n, np.random.default_rng(0))
    tour, length, trace, next_draws = _walk_and_next_draws(m, start, cfg)
    monkeypatch.undo()
    assert 0 < len(calls) < math.ceil(cfg.iterations / CHUNK)
    replay_rng = np.random.default_rng(cfg.seed)
    _, current, _, best, final = _replay(m, start, cfg, replay_rng.random((cfg.iterations, 3)))
    assert trace.current_length.tolist() == current
    assert (tour, length) == best
    assert (trace.final_tour, trace.final_length) == final
    assert next_draws == replay_rng.random(4).tolist()


_ODD_UNIFORMS = (0.0, U, 1.0, 1.0 - 2.0**-53)


@settings(max_examples=400, deadline=None)
@given(
    log_t0=st.floats(-13.0, 300.0),
    cooling=st.one_of(
        st.floats(0.0, 1.0 - 2.0**-40, exclude_min=True), st.sampled_from([0.5, 1.0 - 2.0**-40])
    ),
    first=st.integers(0, MAX_ITERATIONS - 1),
    near=st.sampled_from([None, "floor", "subnormal"]),
    data=st.data(),
)
def test_cut_bound_is_at_least_every_cut(log_t0, cooling, first, near, data):
    """``_cut_bound`` is at least the largest cut of its chunk, for t0 from
    1e-13 to 1e300, any rate up to 1 - 2^-40 and steps up to
    ``MAX_ITERATIONS``: anywhere, where the schedule meets its floor, or
    where the power turns subnormal.  Its uniforms mix the generator's with
    0.0, U, 1.0 and 1 - 2^-53, the ends of what ``_uniforms`` lets in."""
    t0 = 10.0**log_t0
    cfg = T.SaConfig(t0=t0, cooling_rate=cooling, iterations=1)
    if near is not None:
        level = math.log(TEMPERATURE_FLOOR / t0) if near == "floor" else -1022 * math.log(2)
        first = int(min(max(level / math.log(cooling) - 4, 0), MAX_ITERATIONS - 1))
    count = data.draw(st.integers(1, min(64, MAX_ITERATIONS - first)), label="count")
    uniform = st.one_of(st.floats(U, 1.0), st.sampled_from(_ODD_UNIFORMS))
    accept = np.array(data.draw(st.lists(uniform, min_size=count, max_size=count), label="u"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cuts = annealing._rejection_cuts(annealing._temperature_bounds(cfg, first, count), accept)
        bound = annealing._cut_bound(cfg, first, accept)
    assert type(bound) is float
    assert bound >= cuts.max()


class _Draws:
    """A stand-in generator that serves the rows of ``draws`` in order."""

    def __init__(self, draws):
        self.draws, self.at = draws, 0

    def random(self, size):
        rows = self.draws[self.at : self.at + size[0]].copy()
        self.at += size[0]
        return rows


@pytest.mark.parametrize("name", ("matrix4", "paper8"))
@pytest.mark.parametrize("k", (1, 2))
def test_uniform_of_one_admits_only_probability_one(name, k):
    """A stand-in generator's acceptance uniform of 1.0 admits only steps of
    probability 1, ties included, on the order and the list walks alike:
    the walk matches the hand replay over those draws."""
    m = T.distance_matrix(T.get_builtin(name))
    cfg = T.SaConfig(t0=1.0, cooling_rate=0.99, iterations=600, swap_count=k, seed=3)
    draws = np.random.default_rng(cfg.seed).random((cfg.iterations, 2 * k + 1))
    draws[::6, 2 * k] = 1.0
    start = T.Tour(tuple(range(m.n)))
    tour, length, trace = T.anneal(m, start, cfg, rng=_Draws(draws))
    _, current, _, best, final = _replay(m, start, cfg, draws)
    assert trace.current_length.tolist() == current
    assert (tour, length) == best
    assert (trace.final_tour, trace.final_length) == final


_BAD_ACCEPT = (1.0 + 2.0**-52, 1.5, math.inf, math.nan)
_BAD_PICK = (-0.5, math.nan, 7.0)


@pytest.mark.parametrize("name", ("matrix4", "paper8"))
@pytest.mark.parametrize(
    "column, value", [(-1, v) for v in _BAD_ACCEPT] + [(0, v) for v in _BAD_PICK]
)
def test_uniforms_outside_zero_one_are_refused(name, column, value):
    """A stand-in draw below 0, above 1 or NaN, in the acceptance column or
    a pick column, is refused when its chunk is drawn, on the order walk
    (matrix4) and the list walk (paper8) alike, with no bare exception or
    warning from the walk."""
    m = T.distance_matrix(T.get_builtin(name))
    cfg = T.SaConfig(iterations=CHUNK + 10)
    draws = np.random.default_rng(cfg.seed).random((cfg.iterations, 3))
    draws[CHUNK + 5, column] = value
    rng = _Draws(draws)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="^rng must be a RandomGenerator, got _Draws$"):
            T.anneal(m, T.Tour(tuple(range(m.n))), cfg, rng=rng)
    assert rng.at == cfg.iterations  # refused at the second chunk's draw


@pytest.mark.parametrize("value", _BAD_ACCEPT + _BAD_PICK)
def test_swap_cities_refuses_draws_outside_zero_one(value):
    tour = T.Tour(tuple(range(8)))
    assert T.swap_cities(tour, 1, _Draws(np.array([0.25, 1.0]))) != tour
    with pytest.raises(InvalidArgumentError, match="^rng must be a RandomGenerator, got _Draws$"):
        T.swap_cities(tour, 1, _Draws(np.array([0.25, value])))


def test_random_state_passes_as_a_random_generator():
    """``np.random.RandomState`` draws float64 uniforms in [0, 1), so the
    walk and ``swap_cities`` take it as they take a ``Generator``."""
    m = T.distance_matrix(T.get_builtin("paper8"))
    cfg = T.SaConfig(iterations=CHUNK + 10)
    start = T.Tour(tuple(range(m.n)))
    tour, length, trace = T.anneal(m, start, cfg, rng=np.random.RandomState(0))
    draws = np.random.RandomState(0).random((cfg.iterations, 3))
    _, current, _, best, final = _replay(m, start, cfg, draws)
    assert trace.current_length.tolist() == current
    assert (tour, length) == best
    assert (trace.final_tour, trace.final_length) == final
    picks = np.random.RandomState(1).random(2)
    expected = _kernels.swap_positions(start.as_array(), 1, picks).tolist()
    assert list(T.swap_cities(start, 1, np.random.RandomState(1)).order) == expected
