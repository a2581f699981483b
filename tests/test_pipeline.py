import csv
import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsphnn as T
from tsphnn.errors import InvalidArgumentError
from tsphnn.hopfield import random_grids
from tsphnn.pipeline import METHODS, REPORT_COLUMNS, _trial_rngs


def _sa(seed, iters=400):
    return T.SaConfig(t0=5.0, cooling_rate=0.99, iterations=iters, seed=seed)


def test_hybrid_chain_inequality_many_runs():
    for n in (6, 8, 10):
        inst = T.generate_random_instance(n, seed=n)
        hp = T.HopfieldParams(d_pen=10.0, max_sweeps=50, seed=0)
        for seed in range(100):
            rep = T.solve_hybrid(inst, _sa(seed, iters=200), hp)
            assert rep.final_length <= rep.sa_length + 1e-12
            assert rep.sa_length <= rep.sa_start_length + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 12),
    instance_seed=st.integers(0, 2**32 - 1),
    sa_seed=st.integers(0, 2**32 - 1),
    hnn_seed=st.integers(0, 2**32 - 1),
    t0=st.floats(1e-3, 100.0),
    cooling=st.floats(0.5, 0.9999),
    iters=st.integers(1, 300),
    d_pen=st.floats(0, 300),
    data=st.data(),
)
def test_hybrid_chain_inequality_property(
    n, instance_seed, sa_seed, hnn_seed, t0, cooling, iters, d_pen, data
):
    """final <= sa <= sa_start exactly, on any instance, schedule and D."""
    inst = T.generate_random_instance(n, seed=instance_seed)
    k = data.draw(st.integers(1, n // 2), label="swap_count")
    sa = T.SaConfig(t0=t0, cooling_rate=cooling, iterations=iters, swap_count=k, seed=sa_seed)
    hp = T.HopfieldParams(d_pen=d_pen, max_sweeps=50, seed=hnn_seed)
    rep = T.solve_hybrid(inst, sa, hp)
    assert rep.final_length <= rep.sa_length <= rep.sa_start_length


def test_hybrid_zero_sweeps_falls_back_to_sa(paper8):
    hp = T.HopfieldParams(max_sweeps=0, seed=0)
    rep = T.solve_hybrid(paper8, _sa(3), hp)
    assert not rep.hnn_result.converged
    # the annealed grid decodes to the annealed tour itself, so the final
    # answer equals the SA stage either way
    assert rep.final_length == rep.sa_length
    assert rep.final_tour.order == rep.sa_tour.order


@pytest.mark.parametrize("name", ["cityset1", "paper8", "matrix4"])
def test_default_network_leaves_the_annealed_tour_so_the_hybrid_falls_back(name):
    """At ``HopfieldParams()`` the network, started from the annealed tour's
    grid, leaves it and ends invalid after 2 sweeps on each bundled
    instance at seeds 0-3, so the hybrid always returns SA's tour."""
    for seed in range(4):
        inst = T.get_builtin(name)
        rep = T.solve_hybrid(inst, T.SaConfig(seed=seed), T.HopfieldParams(seed=seed))
        assert not rep.hnn_valid
        assert rep.hnn_result.sweeps_used == 2
        assert rep.final_tour == rep.sa_tour


def test_hybrid_keeps_a_shorter_network_tour(cityset1):
    """A run whose network, started from the annealed tour, settles on a
    shorter valid tour answers with the network's tour."""
    rep = T.solve_hybrid(
        cityset1,
        T.SaConfig(t0=1.0, cooling_rate=0.9, iterations=2, seed=6),
        T.HopfieldParams(a_pen=70, b_pen=30, c_pen=90, d_pen=30, seed=11),
    )
    assert rep.sa_length == pytest.approx(4.1826, abs=1e-4)
    assert rep.hnn_length == pytest.approx(3.2134, abs=1e-4)
    assert rep.final_tour == rep.hnn_result.tour
    assert rep.final_length == rep.hnn_length < rep.sa_length
    assert rep.final_length <= rep.sa_length <= rep.sa_start_length


def test_hybrid_report_stores_five_parts_and_reads_the_rest():
    """A hybrid report stores the annealed tour and trace, the network's
    result and its length; it reads every other fact from them, and takes
    the network's tour only when it is valid and strictly shorter."""
    assert [f.name for f in dataclasses.fields(T.HybridReport)] == [
        "instance_id", "sa_tour", "sa_trace", "hnn_result", "hnn_length",
    ]
    cityset1 = T.get_builtin("cityset1")
    sa = T.SaConfig(t0=1.0, cooling_rate=0.9, iterations=2, seed=6)
    hp = T.HopfieldParams(a_pen=70, b_pen=30, c_pen=90, d_pen=30, seed=11)
    rep = T.solve_hybrid(cityset1, sa, hp)
    assert rep.hnn_valid and rep.hnn_result.tour != rep.sa_tour
    assert (rep.sa_seed, rep.hopfield_seed) == (6, 11)
    assert rep.sa_start_length == rep.sa_trace.start_length
    assert rep.sa_length == rep.sa_trace.best_length[-1]
    parts = ("cityset1", rep.sa_tour, rep.sa_trace, rep.hnn_result)
    shorter = T.HybridReport(*parts, math.nextafter(rep.sa_length, 0.0))
    assert shorter.final_tour == rep.hnn_result.tour
    assert shorter.final_length == math.nextafter(rep.sa_length, 0.0)
    tied = T.HybridReport(*parts, rep.sa_length)
    assert tied.final_tour == rep.sa_tour and tied.final_length == rep.sa_length


def test_hybrid_lengths_build_no_best_length_array(paper8):
    """``sa_length`` is the least of the trace's start and current lengths:
    the last best length, bit for bit, read without building that array."""
    rep = T.solve_hybrid(paper8, _sa(9), T.HopfieldParams(seed=5))
    assert rep.final_length <= rep.sa_length
    assert "best_length" not in vars(rep.sa_trace)
    assert rep.sa_length.hex() == float(rep.sa_trace.best_length[-1]).hex()


def test_a_report_refuses_a_cell_of_another_trial_count():
    """A report's cells each ran the report's ``trials``: one count, which
    the table header and the CSV rows both print."""
    cell = T.CellStats(90.0, 10.0, None, None, None, 0.0, 5.0, 7)
    with pytest.raises(InvalidArgumentError, match="cell C90-D10 has 7 trials, the report 3"):
        T.BenchmarkReport("x", 100.0, 100.0, (cell,), 3, 0, "valid")
    assert T.BenchmarkReport("x", 100.0, 100.0, (cell,), 7, 0, "valid").cells == (cell,)


def test_hybrid_best_of_20_reaches_optimum(paper8, paper8_m):
    _, opt = T.brute_force_optimum(paper8_m)
    best = math.inf
    for seed in range(20):
        rep = T.solve_hybrid(
            paper8,
            T.SaConfig(t0=10.0, cooling_rate=0.995, iterations=3000, seed=seed),
            T.HopfieldParams(seed=seed),
        )
        best = min(best, rep.final_length)
    assert best == pytest.approx(opt, abs=1e-9)


def test_hybrid_records_seeds_and_traces(paper8):
    rep = T.solve_hybrid(paper8, _sa(9), T.HopfieldParams(seed=5))
    assert rep.sa_seed == 9 and rep.hopfield_seed == 5
    assert len(rep.sa_trace.iteration) == 400
    assert rep.instance_id == "paper8"


def test_hybrid_determinism(paper8):
    a = T.solve_hybrid(paper8, _sa(2), T.HopfieldParams(seed=2))
    b = T.solve_hybrid(paper8, _sa(2), T.HopfieldParams(seed=2))
    assert a.final_tour.order == b.final_tour.order
    assert a.final_length == b.final_length
    assert np.array_equal(a.sa_trace.current_length, b.sa_trace.current_length)


def test_sweep_single_valid_trial(cityset1):
    rep = T.sweep(
        cityset1,
        [90.0],
        [10.0],
        trials=1,
        base=T.HopfieldParams(max_sweeps=200),
        seed=5,
    )
    cell = rep.cells[0]
    assert cell.success_rate == 1.0
    assert cell.best == cell.mean == cell.worst


def test_sweep_valid_cell_respects_oracle_bound(cityset1, cityset1_m):
    _, opt = T.brute_force_optimum(cityset1_m)
    rep = T.sweep(
        cityset1,
        [90.0],
        [10.0],
        trials=50,
        base=T.HopfieldParams(max_sweeps=200),
        seed=5,
    )
    cell = rep.cells[0]
    assert cell.success_rate == 1.0
    assert cell.best >= opt - 1e-9
    assert cell.best <= cell.mean <= cell.worst


def test_sweep_success_degrades_as_distance_penalty_grows(cityset1):
    """Within these dynamics the valid-convergence rate falls off as D/C
    grows; the gentle cell dominates the harsh one."""
    rep = T.sweep(
        cityset1,
        [90.0],
        [10.0, 40.0, 100.0],
        trials=40,
        base=T.HopfieldParams(max_sweeps=200),
        seed=7,
    )
    rates = [c.success_rate for c in rep.cells]
    assert rates[0] >= rates[1] >= rates[2]
    assert rates[0] > rates[2]  # the degradation is real, not vacuous


@pytest.mark.parametrize("name", ["cityset1", "paper8"])
def test_default_penalties_find_no_valid_tour_where_a_small_distance_penalty_always_does(name):
    """``HopfieldParams``' docstring: a 200-trial sweep at seed 0 ends valid
    in none of its trials at the defaults (C=90, D=100) and succeeds in
    every one at D=10."""
    rep = T.sweep(T.get_builtin(name), [90.0], [100.0, 10.0], 200, T.HopfieldParams(), 0)
    defaults, gentle = rep.cells
    assert (defaults.d_pen, defaults.best) == (100.0, None)
    assert (gentle.d_pen, gentle.success_rate) == (10.0, 1.0)


def test_sweep_empty_grid_rejected(cityset1):
    with pytest.raises(InvalidArgumentError):
        T.sweep(cityset1, [], [100.0], trials=1, base=T.HopfieldParams(), seed=0)
    with pytest.raises(InvalidArgumentError):
        T.sweep(cityset1, [90.0], [100.0], trials=0, base=T.HopfieldParams(), seed=0)
    for workers in (0, -3):
        with pytest.raises(InvalidArgumentError):
            T.sweep(
                cityset1, [90.0], [100.0], trials=1, base=T.HopfieldParams(), seed=0,
                workers=workers,
            )
    with pytest.raises(T.TsphnnError):
        T.sweep(
            cityset1, [90.0, math.nan], [100.0], trials=1, base=T.HopfieldParams(), seed=0
        )


def test_sweep_optimal_metric_is_stricter(cityset1):
    base = T.HopfieldParams(max_sweeps=200)
    valid = T.sweep(cityset1, [90.0], [10.0], trials=30, base=base, seed=3)
    optimal = T.sweep(
        cityset1, [90.0], [10.0], trials=30, base=base, seed=3,
        success_metric="optimal",
    )
    assert optimal.cells[0].success_rate <= valid.cells[0].success_rate


def _scaled(inst, factor):
    """``inst`` with every coordinate multiplied by ``factor``."""
    cities = tuple(T.City(c.label, c.x * factor, c.y * factor) for c in inst.cities)
    return T.Instance(id=inst.id, cities=cities)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 7), instance_seed=st.integers(0, 2**32 - 1), k=st.integers(-30, 40))
def test_optimal_sweep_is_independent_of_coordinate_scale(n, instance_seed, k):
    """Scaling by 2^k keeps the network's distances bit-identical, so the
    trials are the same: success rates and mean sweeps are equal, and every
    length scales by exactly 2^k."""
    inst = T.generate_random_instance(n, instance_seed)
    kwargs = dict(trials=20, base=T.HopfieldParams(), seed=1, success_metric="optimal")
    base = T.sweep(inst, [90.0], [2.0, 10.0], **kwargs)
    scaled = T.sweep(_scaled(inst, 2.0**k), [90.0], [2.0, 10.0], **kwargs)
    for a, b in zip(base.cells, scaled.cells):
        assert (b.success_rate, b.mean_sweeps) == (a.success_rate, a.mean_sweeps)
        for x, y in ((a.best, b.best), (a.mean, b.mean), (a.worst, b.worst)):
            assert y == (None if x is None else x * 2.0**k)


def test_optimal_counts_a_tour_one_ulp_above_the_oracle_at_every_scale():
    """The D=10 cell's one optimal trial sums the oracle's cycle from
    another start, 1 ulp above the oracle's length, and counts at every
    scale; no D=2 trial counts at any, its best being 5 % above the
    optimum."""
    inst = T.generate_random_instance(6, 4)
    for k in (0, 27, -30):
        report = T.sweep(
            _scaled(inst, 2.0**k), [90.0], [2.0, 10.0], 60, T.HopfieldParams(), 3,
            success_metric="optimal",
        )
        assert [c.success_rate * 60 for c in report.cells] == [0, 1], k


def test_sweep_deterministic_across_worker_counts(paper8):
    base = T.HopfieldParams(max_sweeps=100)
    kwargs = dict(trials=12, base=base, seed=9)
    r1 = T.sweep(paper8, [90.0], [10.0, 60.0], workers=1, **kwargs)
    r4 = T.sweep(paper8, [90.0], [10.0, 60.0], workers=4, **kwargs)
    assert T.render_report(r1, "csv") == T.render_report(r4, "csv")
    assert T.render_report(r1, "table") == T.render_report(r4, "table")


def test_render_single_cell_table(cityset1):
    rep = T.sweep(
        cityset1, [90.0], [10.0], trials=1, base=T.HopfieldParams(max_sweeps=50), seed=1
    )
    table = T.render_report(rep, "table")
    lines = table.strip().splitlines()
    assert len(lines) == 3  # meta line, header, one data row
    header = " ".join(lines[1].split())
    assert "Best Mean Worst % Succ. Iter." in header
    assert REPORT_COLUMNS == ("Best", "Mean", "Worst", "% Succ.", "Iter.")


def test_render_empty_cells_use_dash(cityset1):
    # D=100 at these dynamics never converges to a valid grid
    rep = T.sweep(
        cityset1, [90.0], [100.0], trials=3, base=T.HopfieldParams(max_sweeps=50), seed=1
    )
    assert rep.cells[0].success_rate == 0.0
    assert "—" in T.render_report(rep, "table")


def test_csv_round_trip(cityset1):
    rep = T.sweep(
        cityset1,
        [90.0, 100.0],
        [10.0, 100.0],
        trials=5,
        base=T.HopfieldParams(max_sweeps=100),
        seed=2,
    )
    text = T.render_report(rep, "csv")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(rep.cells)
    for row, cell in zip(rows, rep.cells):
        assert row["cell"] == cell.cell_id
        assert float(row["C"]) == cell.c_pen
        assert float(row["D"]) == cell.d_pen
        assert float(row["success_rate"]) == cell.success_rate
        assert float(row["mean_sweeps"]) == cell.mean_sweeps
        assert int(row["trials"]) == cell.trials
        if cell.best is None:
            assert row["best"] == ""
        else:
            assert float(row["best"]) == cell.best
            assert float(row["mean"]) == cell.mean
            assert float(row["worst"]) == cell.worst


def test_unknown_render_format_rejected(cityset1):
    rep = T.sweep(
        cityset1, [90.0], [10.0], trials=1, base=T.HopfieldParams(max_sweeps=10), seed=0
    )
    with pytest.raises(InvalidArgumentError):
        T.render_report(rep, "yaml")


def test_sweep_csv_independent_of_block_budget(paper8, monkeypatch):
    """Blocks of one trial, blocks that split a cell unevenly and one block
    per cell give byte-identical reports."""
    from tsphnn import pipeline

    kwargs = dict(trials=7, base=T.HopfieldParams(), seed=13)
    expected = T.render_report(T.sweep(paper8, [90.0], [10.0, 100.0], **kwargs), "csv")
    calls = []
    run_lockstep = pipeline.run_lockstep

    def counting(m, p, grids, rngs):
        calls.append(len(rngs))
        return run_lockstep(m, p, grids, rngs)

    monkeypatch.setattr(pipeline, "run_lockstep", counting)
    n2 = 8 * 8
    for budget, blocks in ((1, [1] * 7), (3 * n2 + 5, [3, 3, 1]), (7 * n2, [7])):
        calls.clear()
        monkeypatch.setattr(pipeline, "BLOCK_ELEMENTS", budget)
        report = T.sweep(paper8, [90.0], [10.0, 100.0], **kwargs)
        assert T.render_report(report, "csv") == expected
        assert calls == blocks * 2  # two cells


def test_default_budget_runs_each_benchmark_cell_as_one_block(cityset1, monkeypatch):
    """At the default ``BLOCK_ELEMENTS``, a 150-trial cell on cityset1 and a
    40-trial cell at n = 20, the penalty-sweep benchmark's cells, each reach
    ``run_lockstep`` as one call."""
    from tsphnn import pipeline

    calls = []
    run_lockstep = pipeline.run_lockstep

    def counting(m, p, grids, rngs):
        calls.append(len(rngs))
        return run_lockstep(m, p, grids, rngs)

    monkeypatch.setattr(pipeline, "run_lockstep", counting)
    for inst, trials in ((cityset1, 150), (T.generate_random_instance(20, seed=20), 40)):
        calls.clear()
        T.sweep(inst, [90.0], [10.0, 100.0], trials=trials, base=T.HopfieldParams(), seed=3)
        assert calls == [trials] * 2  # two cells


def _reference_states(seed, cell, first, stop):
    return [np.random.default_rng([seed, cell, t]).bit_generator.state for t in range(first, stop)]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**30], ids=str)
@pytest.mark.parametrize("cell", [0, 7])
def test_block_generators_are_default_rng_of_the_seed_triple(seed, cell):
    """A block's generators are in the states ``default_rng([seed, cell,
    t])`` gives, for seeds of one to four 32-bit words and past the pool of
    four entropy words, for a block that starts past trial 0 and for the
    largest trial number a sweep can run."""
    for first, stop in ((0, 5), (4, 7), (9, 10), (2**30 - 2, 2**30)):
        rngs = _trial_rngs(seed, cell, first, stop)
        assert [r.bit_generator.state for r in rngs] == _reference_states(seed, cell, first, stop)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**96 - 1),
    cell=st.integers(0, 40),
    first=st.integers(0, 1000),
    size=st.integers(1, 6),
)
def test_block_generators_are_default_rng_property(seed, cell, first, size):
    """If NumPy's SeedSequence hash or PCG64 seeding ever drifts from the
    copy in ``_trial_rngs``, this fails before any golden does."""
    rngs = _trial_rngs(seed, cell, first, first + size)
    assert [r.bit_generator.state for r in rngs] == _reference_states(
        seed, cell, first, first + size
    )


def test_sweep_hands_each_block_its_trials_default_rng_generators(paper8, monkeypatch):
    """Each block reaches ``run_lockstep`` with the grids and generators of
    ``default_rng([seed, cell, t])`` for its trials, in trial order, when a
    cell spans several blocks."""
    from tsphnn import pipeline

    seen_grids, seen_states = [], []
    run_lockstep = pipeline.run_lockstep

    def capturing(m, p, grids, rngs):
        seen_grids.append(grids.copy())
        seen_states.append([r.bit_generator.state for r in rngs])
        return run_lockstep(m, p, grids, rngs)

    monkeypatch.setattr(pipeline, "run_lockstep", capturing)
    monkeypatch.setattr(pipeline, "BLOCK_ELEMENTS", 3 * 8 * 8)
    seed = 2**32 + 5
    T.sweep(paper8, [90.0], [10.0, 100.0], 7, T.HopfieldParams(max_sweeps=5), seed)
    assert [len(states) for states in seen_states] == [3, 3, 1] * 2  # two cells
    expected = [np.random.default_rng([seed, cell, t]) for cell in range(2) for t in range(7)]
    # the block's grids are drawn before it runs
    assert np.array_equal(np.concatenate(seen_grids), random_grids(8, expected))
    assert sum(seen_states, []) == [r.bit_generator.state for r in expected]


def test_sweep_refuses_trials_past_its_unit_bound_at_once(paper8, monkeypatch):
    """A trial count whose grid units, cells x trials x n^2, pass
    ``SWEEP_UNITS`` is refused before any grid is drawn or block runs; one
    trial a cell always runs."""
    from tsphnn import pipeline

    def refuse(*args):
        raise AssertionError("a block was made")

    hp = T.HopfieldParams(max_sweeps=5)
    cells = [10.0, 100.0]
    n2 = 8 * 8
    for name in ("random_grids", "run_lockstep"):
        monkeypatch.setattr(pipeline, name, refuse)
    most = pipeline.SWEEP_UNITS // (2 * n2)
    with pytest.raises(InvalidArgumentError, match=f"^trials must be <= {most}, got {10**30}$"):
        T.sweep(paper8, [90.0], cells, 10**30, hp, 0)
    monkeypatch.undo()

    for units, most in ((2 * 3 * n2 + n2, 3), (1, 1)):
        monkeypatch.setattr(pipeline, "SWEEP_UNITS", units)
        assert T.sweep(paper8, [90.0], cells, most, hp, 0).trials == most
        with pytest.raises(InvalidArgumentError, match=f"^trials must be <= {most}, got"):
            T.sweep(paper8, [90.0], cells, most + 1, hp, 0)


def test_sweep_measures_each_valid_tour_once(cityset1, monkeypatch):
    """Each valid trial's tour is measured once, on the raw distances; the
    network-scale length is never formed."""
    from tsphnn import _kernels, pipeline

    measured = []
    closed_tour_length = _kernels.closed_tour_length

    def counting(d, order):
        measured.append(d)
        return closed_tour_length(d, order)

    valid = []
    run_lockstep = pipeline.run_lockstep

    def recording(m, p, grids, rngs):
        results = run_lockstep(m, p, grids, rngs)
        valid.extend(r.valid for r in results)
        return results

    monkeypatch.setattr(_kernels, "closed_tour_length", counting)
    monkeypatch.setattr(pipeline, "run_lockstep", recording)
    T.sweep(
        cityset1, [90.0, 100.0], [10.0, 100.0, 110.0, 120.0], trials=150,
        base=T.HopfieldParams(), seed=22,
    )
    raw = T.distance_matrix(cityset1).d
    assert len(valid) == 8 * 150
    assert len(measured) == sum(valid) == 300
    assert all(np.array_equal(d, raw) for d in measured)


def test_sweep_forms_no_energy(paper8, monkeypatch):
    """The sweep reads no energy trace: with the energy sums patched to
    raise, its table and CSV are byte-identical."""
    from tsphnn import hopfield

    def sweep():
        report = T.sweep(
            paper8, [90.0], [10.0, 100.0], trials=12, base=T.HopfieldParams(), seed=5
        )
        return T.render_report(report, "table"), T.render_report(report, "csv")

    expected = sweep()

    def refuse(*args):
        raise AssertionError("an energy was formed")

    monkeypatch.setattr(hopfield, "_terms", refuse)
    assert sweep() == expected


@pytest.mark.parametrize(
    "coords, words",
    [
        # differences overflow, so some distance is infinite
        ([(-1e308, 1e308), (1e308, -1e308), (1e308, 1e308), (-1e308, -1e308)], "non-finite"),
        # every distance is finite, but n times the largest is not
        ([(0.0, 9e307), (9e307, 0.0), (9e307, 9e307), (0.0, 0.0)], "tour lengths overflow"),
    ],
)
def test_library_refuses_instances_whose_tour_lengths_overflow(coords, words):
    """``solve``, ``solve_hybrid`` and ``sweep`` refuse what the CLI refuses,
    with a typed error and no NumPy warning, rather than answer ``inf``."""
    cities = tuple(T.City(f"c{i}", x, y) for i, (x, y) in enumerate(coords))
    inst = T.Instance(id="huge", cities=cities)
    sa = T.SaConfig(iterations=50)
    calls = [
        lambda: T.solve_hybrid(inst, sa, T.HopfieldParams()),
        lambda: T.sweep(inst, [90.0], [10.0], trials=2, base=T.HopfieldParams(), seed=0),
    ] + [lambda method=method: T.solve(inst, method, sa) for method in METHODS]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(T.TsphnnError, match=words):
                call()


def test_solve_refuses_an_unknown_method(paper8):
    with pytest.raises(InvalidArgumentError, match="unknown method 'magic'"):
        T.solve(paper8, "magic")


def test_entry_points_refuse_a_config_of_the_wrong_type(paper8):
    """``solve``, ``solve_hybrid`` and ``sweep`` take only config records,
    with one typed refusal for every method, whether or not it reads the
    record, as the CLI builds both records for every method."""
    hp = T.HopfieldParams()
    calls = [
        (lambda: T.solve(paper8, "sa", None), "sa must be a SaConfig, got NoneType"),
        (lambda: T.solve(paper8, "exact", "x"), "sa must be a SaConfig, got str"),
        (
            lambda: T.solve_hybrid(paper8, {"seed": 1}, hp),
            "sa must be a SaConfig, got dict",
        ),
        (
            lambda: T.sweep(paper8, [90.0], [10.0], 1, base=None, seed=0),
            "base must be a HopfieldParams, got NoneType",
        ),
    ] + [
        (lambda method=method: T.solve(paper8, method, hp=T.SaConfig()),
         "hp must be a HopfieldParams, got SaConfig")
        for method in METHODS
    ]
    for call, message in calls:
        with pytest.raises(InvalidArgumentError, match=message) as excinfo:
            call()
        assert type(excinfo.value) is InvalidArgumentError
