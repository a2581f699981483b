import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsphnn as T
from tsphnn import _kernels, annealing
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
    for n in (4, 5, 10, 50, 127, 128, 300):
        for k in sorted({1, 2, n // 2}):
            u = rng.random((40, 2 * k + 1))
            u[:3, : 2 * k] = np.array(edge)[:, None]
            picks = _kernels.pick_positions(n, k, u)
            assert picks.shape == (40, 2 * k)
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
    runs (and accepts the tie) while the screen rejects the crossings."""
    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    square = T.Instance(
        id="square", cities=tuple(T.City(f"c{i}", x, y) for i, (x, y) in enumerate(corners))
    )
    m = T.distance_matrix(square)
    monkeypatch.setattr(annealing, "SCREEN_GAP", 1)  # screen every step
    cfg = T.SaConfig(t0=1e-3, cooling_rate=0.99, iterations=400, seed=6)
    exact = _anneal_counting_exact_steps(monkeypatch, m, T.Tour((0, 1, 2, 3)), cfg)
    assert any(e == e_new == 4.0 for e, e_new in exact)
    assert 1 <= len(exact) < cfg.iterations


@pytest.mark.parametrize("k", (1, 25))
def test_anneal_chunk_boundary_replay_n50(monkeypatch, k):
    m = T.distance_matrix(T.generate_random_instance(50, seed=8))
    cfg = T.SaConfig(t0=0.05, cooling_rate=0.999, iterations=CHUNK + 1, swap_count=k, seed=4)
    start = T.Tour.random(50, np.random.default_rng(9))
    exact = _anneal_counting_exact_steps(monkeypatch, m, start, cfg)
    assert len(exact) < cfg.iterations  # the screen rejected steps


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("bound", (1e200, 1e308))
def test_anneal_replays_at_extreme_bounds(monkeypatch, bound):
    """At bound 1e200 the screen works on lengths near 1e201.  At 1e308 the
    tour sums overflow to inf, where every step ties and is accepted; the
    band is infinite, so even a screen at every step leaves them all to the
    exact step."""
    m = T.distance_matrix(T.generate_random_instance(10, seed=2, bound=bound))
    if bound == 1e308:
        monkeypatch.setattr(annealing, "SCREEN_GAP", 1)
    cfg = T.SaConfig(t0=1.0, cooling_rate=0.99, iterations=600, swap_count=2, seed=5)
    start = T.Tour(tuple(range(10)))
    exact = _anneal_counting_exact_steps(monkeypatch, m, start, cfg)
    if bound == 1e308:
        assert T.tour_length(m, start) == math.inf
        assert len(exact) == cfg.iterations
    else:
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
    undecided = set(annealing._screen(m.d, tour, edges, band, cuts).tolist())
    cities = tour[edges]
    deltas = (m.d[cities[2], cities[3]] - m.d[cities[0], cities[1]]).sum(axis=1)
    for j in range(steps):
        excess = Fraction(lengths[j]) - Fraction(cur_len) - Fraction(float(deltas[j]))
        assert abs(excess) <= Fraction(band)
        if j not in undecided:
            assert probs[j] < u[j, 2 * k]


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


class _FixedDraws:
    """A generator stand-in that hands out the rows of ``draws`` in turn."""

    def __init__(self, draws):
        self.draws, self.at = draws, 0

    def random(self, size):
        rows, _ = size
        self.at += rows
        return self.draws[self.at - rows : self.at]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_exact_step_cut_is_not_applied_where_the_band_is_infinite(monkeypatch):
    """Where a tour length can overflow the band is infinite.  A candidate
    whose length overflowed has D = inf, which the infinite cut of a
    uniform of 0.0 would reject, yet ``acceptance_probability`` accepts it
    (exp(-inf) = 0.0 >= 0.0).  The walk leaves such steps to the exact
    step, so it matches the hand replay."""
    m = T.distance_matrix(T.generate_random_instance(10, seed=3, bound=4e307))
    assert annealing._screen_band(m, 1) == math.inf
    start = T.greedy_nearest_neighbor(m)
    assert T.tour_length(m, start) < math.inf
    cfg = T.SaConfig(t0=1.0, cooling_rate=0.99, iterations=400, seed=0)
    draws = np.random.default_rng(1).random((cfg.iterations, 3))
    draws[::2, 2] = 0.0
    exact = []
    real = annealing.acceptance_probability

    def counted(e, e_new, t):
        exact.append(e_new - e)
        return real(e, e_new, t)

    monkeypatch.setattr(annealing, "acceptance_probability", counted)
    tour, length, trace = T.anneal(m, start, cfg, rng=_FixedDraws(draws))
    assert math.inf in exact  # some finite tour proposed an overflowing one
    assert len(exact) == cfg.iterations
    _, current, bests, best, final = _replay(m, start, cfg, draws)
    assert trace.current_length.tolist() == current
    assert trace.best_length.tolist() == bests
    assert (tour, length) == best
    assert (trace.final_tour, trace.final_length) == final


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


def test_traces_compare_by_identity(paper8_m):
    """A trace holds arrays: == answers by identity instead of raising on
    an ambiguous truth value."""
    cfg = T.SaConfig(t0=1.0, cooling_rate=0.9, iterations=20, seed=1)
    start = T.Tour(tuple(range(8)))
    _, _, first = T.anneal(paper8_m, start, cfg)
    _, _, second = T.anneal(paper8_m, start, cfg)
    assert np.array_equal(first.current_length, second.current_length)
    assert first == first and first != second

