import math

import numpy as np
import pytest

import tsphnn as T
from tsphnn import _kernels
from tsphnn.annealing import TEMPERATURE_FLOOR
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
