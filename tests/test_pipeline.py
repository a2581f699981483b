import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsphnn as T
from tsphnn.errors import InvalidArgumentError
from tsphnn.pipeline import REPORT_COLUMNS


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
