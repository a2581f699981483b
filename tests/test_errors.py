"""Every refusal of the public API is a typed ``TsphnnError`` (or, for an
unknown builtin name, a ``KeyError``) that says what was wrong."""

import dataclasses
import inspect
import math
import os
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tsphnn as T
from tsphnn.annealing import MAX_ITERATIONS
from tsphnn.errors import quote
from tsphnn.hopfield import random_grid, run_lockstep
from tsphnn.svg import render_grid_svg, render_tour_svg

PAPER8 = T.get_builtin("paper8")
M8 = T.distance_matrix(PAPER8)
SHORT = T.Tour((0, 1, 2, 3))
W8 = T.build_weights(M8, T.HopfieldParams())


def _report_without_cells():
    report = T.BenchmarkReport(
        instance_id="paper8", a_pen=100.0, b_pen=100.0, cells=(), trials=1,
        master_seed=0, success_metric="valid",
    )
    return T.render_report(report)


REFUSALS = {
    "matrix-not-square": (
        lambda: T.DistanceMatrix(np.zeros((3, 4))),
        T.TsphnnError, "distance matrix must be square",
    ),
    "matrix-too-small": (
        lambda: T.DistanceMatrix(np.zeros((2, 2))),
        T.InstanceSizeError, "needs at least 3 cities",
    ),
    "matrix-negative": (
        lambda: T.DistanceMatrix([[0, -1, 1], [-1, 0, 1], [1, 1, 0]]),
        T.TsphnnError, "negative entries",
    ),
    "matrix-diagonal": (
        lambda: T.DistanceMatrix([[1, 1, 1], [1, 0, 1], [1, 1, 0]]),
        T.TsphnnError, "diagonal must be zero",
    ),
    "instance-matrix-size": (
        lambda: T.Instance(id="x", cities=PAPER8.cities[:3], matrix=M8.d),
        T.TsphnnError, "matrix is 8x8 but instance has 3 cities",
    ),
    "gen-bound-zero": (
        lambda: T.generate_random_instance(5, 0, bound=0),
        T.TsphnnError, "bound must be positive",
    ),
    "gen-bound-inf": (
        lambda: T.generate_random_instance(5, 0, bound=math.inf),
        T.TsphnnError, "bound must be positive and finite, got inf",
    ),
    "anneal-tour-size": (
        lambda: T.anneal(M8, SHORT, T.SaConfig(t0=1.0, cooling_rate=0.9, iterations=1)),
        T.InvalidTourError, "start tour has 4 cities, matrix has 8",
    ),
    "two-opt-tour-size": (
        lambda: T.two_opt(M8, SHORT),
        T.InvalidTourError, "tour has 4 cities, matrix has 8",
    ),
    "three-opt-tour-size": (
        lambda: T.three_opt(M8, SHORT),
        T.InvalidTourError, "tour has 4 cities, matrix has 8",
    ),
    "tour-length-tour-size": (
        lambda: T.tour_length(M8, SHORT),
        T.InvalidTourError, r"tour \[0, 1, 2, 3\] is not a permutation of 0\.\.7",
    ),
    "render-tour-svg-tour-size": (
        lambda: render_tour_svg(PAPER8, SHORT),
        T.InvalidTourError, "tour has 4 cities, instance has 8",
    ),
    "greedy-start": (
        lambda: T.greedy_nearest_neighbor(M8, 8),
        T.InvalidArgumentError, "start must be <= 7, got 8",
    ),
    "matrix-to-tour-not-square": (
        lambda: T.matrix_to_tour(np.zeros((3, 4))),
        T.InvalidTourMatrixError, "matrix must be square",
    ),
    "lockstep-unequal-grids": (
        lambda: run_lockstep(
            M8, T.HopfieldParams(), [np.zeros((8, 8)), np.zeros((7, 7))],
            [np.random.default_rng(0), np.random.default_rng(1)],
        ),
        T.TsphnnError, "equal-shaped",
    ),
    "energy-not-square": (
        lambda: T.energy(np.zeros((8, 7)), M8, T.HopfieldParams()),
        T.TsphnnError, "activation grid must be square",
    ),
    "sweep-metric": (
        lambda: T.sweep(PAPER8, [90.0], [10.0], 1, T.HopfieldParams(), 0, "fastest"),
        T.InvalidArgumentError, "unknown success metric 'fastest'",
    ),
    "report-without-cells": (
        _report_without_cells, T.InvalidArgumentError, "report has no cells",
    ),
    "unknown-builtin": (
        lambda: T.get_builtin("paper9"), KeyError, "unknown builtin instance 'paper9'",
    ),
    "hnn-penalty-huge-int": (
        lambda: T.HopfieldParams(a_pen=10**400),
        T.InvalidArgumentError, "a_pen must be nonnegative and finite, got a number past",
    ),
    "gen-bound-huge-int": (
        lambda: T.generate_random_instance(5, 0, bound=10**400),
        T.TsphnnError, "bound must be positive and finite, got a number past",
    ),
    "city-huge-int": (
        lambda: T.City("a", 10**400, 0.0),
        T.InvalidArgumentError, "city 'a' x must be finite, got a number past",
    ),
    "sa-cooling-array": (
        lambda: T.SaConfig(cooling_rate=np.array([0.5])),
        T.InvalidArgumentError, r"cooling_rate must be a real number, got array\(\[0\.5\]\)",
    ),
    "sweep-grid-none": (
        lambda: T.sweep(PAPER8, None, [10.0], 1, T.HopfieldParams(), 0),
        T.InvalidArgumentError, "c_values and d_values must be iterables of real numbers",
    ),
    "sweep-grid-string": (
        lambda: T.sweep(PAPER8, ["a"], [10.0], 1, T.HopfieldParams(), 0),
        T.InvalidArgumentError, "c_pen must be a real number, got 'a'",
    ),
    "city-label-list": (
        lambda: T.City([0] * 5, 0, 0), T.InvalidArgumentError, "label must be a str, got list",
    ),
    "city-label-none": (
        lambda: T.City(None, 0, 0), T.InvalidArgumentError, "label must be a str, got NoneType",
    ),
    "city-label-object": (
        lambda: T.City(object(), 0, 0),
        T.InvalidArgumentError, "label must be a str, got object",
    ),
    "instance-unhashable-label": (
        lambda: T.Instance(
            id="x", cities=(T.City([0] * 5, 0, 0), T.City("b", 1, 0), T.City("c", 0, 1))
        ),
        T.InvalidArgumentError, "label must be a str, got list",
    ),
    "instance-id-int": (
        lambda: T.Instance(id=5, cities=PAPER8.cities),
        T.InvalidArgumentError, "id must be a str, got int",
    ),
    "instance-seed-string": (
        lambda: T.Instance(id="x", cities=PAPER8.cities, seed="7"),
        T.InvalidArgumentError, "seed must be an integer, got '7'",
    ),
    "instance-seed-negative": (
        lambda: T.Instance(id="x", cities=PAPER8.cities, seed=-1),
        T.InvalidArgumentError, "seed must be >= 0, got -1",
    ),
    "render-grid-none": (
        lambda: render_grid_svg(None), T.TsphnnError, r"grid must be square, got shape \(\)",
    ),
    "render-grid-int": (
        lambda: render_grid_svg(5), T.TsphnnError, r"grid must be square, got shape \(\)",
    ),
    "report-cells-int": (
        lambda: dataclasses.replace(ONE_CELL, cells=5),
        T.InvalidArgumentError, "cells must be a tuple, got int",
    ),
    "report-cell-int": (
        lambda: dataclasses.replace(ONE_CELL, cells=(5,)),
        T.InvalidArgumentError, "cell must be a CellStats, got int",
    ),
    "report-a-pen-string": (
        lambda: dataclasses.replace(ONE_CELL, a_pen="a"),
        T.InvalidArgumentError, "a_pen must be a real number, got 'a'",
    ),
    "cell-c-pen-string": (
        lambda: T.CellStats("z", 10.0, None, None, None, 0.0, 5.0, 1),
        T.InvalidArgumentError, "c_pen must be a real number, got 'z'",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_is_typed(call, error, message):
    with pytest.raises(error, match=message) as excinfo:
        call()
    assert type(excinfo.value) is error
    if error is T.InvalidTourMatrixError:
        assert excinfo.value.condition == "count"


def test_lockstep_of_no_trials_is_empty():
    assert run_lockstep(M8, T.HopfieldParams(), [], []) == []


# Each integer argument of the public API: a call taking it, and a value in range.
INTEGER_ARGUMENTS = {
    "sa-iterations": (lambda v: T.SaConfig(t0=1.0, cooling_rate=0.9, iterations=v), 10),
    "sa-swap-count": (
        lambda v: T.SaConfig(t0=1.0, cooling_rate=0.9, iterations=1, swap_count=v), 2,
    ),
    "sa-seed": (lambda v: T.SaConfig(t0=1.0, cooling_rate=0.9, iterations=1, seed=v), 3),
    "hnn-max-sweeps": (lambda v: T.HopfieldParams(max_sweeps=v), 7),
    "hnn-seed": (lambda v: T.HopfieldParams(seed=v), 3),
    "sweep-trials": (lambda v: T.sweep(PAPER8, [90.0], [10.0], v, T.HopfieldParams(), 0), 2),
    "sweep-workers": (
        lambda v: T.sweep(PAPER8, [90.0], [10.0], 1, T.HopfieldParams(), 0, workers=v), 2,
    ),
    "sweep-seed": (lambda v: T.sweep(PAPER8, [90.0], [10.0], 1, T.HopfieldParams(), v), 3),
    "gen-n": (lambda v: T.generate_random_instance(v, 0), 5),
    "gen-seed": (lambda v: T.generate_random_instance(5, v), 3),
    "swap-k": (lambda v: T.swap_cities(T.Tour(tuple(range(8))), v, np.random.default_rng(0)), 3),
    "greedy-start": (lambda v: T.greedy_nearest_neighbor(M8, v), 3),
    "random-tour-n": (lambda v: T.Tour.random(v, np.random.default_rng(0)), 6),
}
NOT_INTEGERS = [2.5, 3.0, math.nan, math.inf, "3", None]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("call, _", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_integer_argument_refuses_a_non_integer(call, _, value):
    """A float, even a whole or non-finite one, a string or None is not an
    integer argument, whatever the range check would say of it."""
    with pytest.raises(T.InvalidArgumentError, match="must be an integer") as excinfo:
        call(value)
    assert type(excinfo.value) is T.InvalidArgumentError


@pytest.mark.parametrize("call, value", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_integer_argument_takes_a_numpy_integer(call, value):
    assert call(np.int64(value)) == call(value)


@pytest.mark.parametrize(
    "call, low, high, message",
    [
        (lambda v: T.SaConfig(t0=1.0, cooling_rate=0.9, iterations=v), 1, MAX_ITERATIONS,
         "iterations must be"),
        (lambda v: T.swap_cities(T.Tour(tuple(range(7))), v, np.random.default_rng(0)), 1, 3,
         "k must be"),
        (lambda v: T.anneal(M8, T.Tour(tuple(range(8))), T.SaConfig(
            t0=1.0, cooling_rate=0.9, iterations=1, swap_count=v)), 1, 4, "swap_count must be"),
    ],
    ids=["sa-iterations", "swap-k", "anneal-swap-count"],
)
def test_integer_argument_range_is_inclusive(call, low, high, message):
    """Both ends of a range are in it, and a refusal names the end passed."""
    call(np.int64(low))
    call(high)
    with pytest.raises(T.InvalidArgumentError, match=f"{message} >= {low}, got {low - 1}"):
        call(low - 1)
    with pytest.raises(T.InvalidArgumentError, match=f"{message} <= {high}, got {high + 1}"):
        call(high + 1)


def test_numpy_integer_configs_give_the_same_runs():
    """SA and the network given NumPy integers for every count and seed
    take the walks they take with Python ints, and their records hold ints."""
    start = T.Tour(tuple(range(8)))
    runs = []
    for kind in (int, np.int64):
        cfg = T.SaConfig(
            t0=1.0, cooling_rate=0.99, iterations=kind(300), swap_count=kind(2), seed=kind(5)
        )
        hp = T.HopfieldParams(d_pen=10.0, max_sweeps=kind(7), seed=kind(3))
        assert {type(v) for v in (cfg.iterations, cfg.swap_count, cfg.seed)} == {int}
        assert {type(v) for v in (hp.max_sweeps, hp.seed)} == {int}
        tour, length, trace = T.anneal(M8, start, cfg)
        result = T.run_hopfield(T.normalize_distances(M8), hp)
        runs.append(
            (
                tour, length, trace.current_length.tolist(), trace.best_length.tolist(),
                trace.temperature.tolist(), trace.final_tour, trace.final_length,
                result.grid.tolist(), result.converged, result.tour, result.sweeps_used,
                result.energy_trace.tolist(),
            )
        )
    assert runs[0] == runs[1]


TINY = math.nextafter(0.0, 1.0)


@pytest.mark.parametrize(
    "call, taken, refused, message",
    [
        (lambda v: T.SaConfig(cooling_rate=v), [TINY, math.nextafter(1.0, 0.0)],
         [0.0, 1.0, -1.0], r"cooling_rate must be in \(0, 1\)"),
        (lambda v: T.SaConfig(t0=v), [TINY, 1e308], [0.0, -TINY],
         "t0 must be positive and finite"),
        (lambda v: T.HopfieldParams(c_pen=v), [0.0, 1e308], [-TINY],
         "c_pen must be nonnegative and finite"),
        (lambda v: T.HopfieldParams(threshold=v), [-1e308, 1e308], [], "threshold must be finite"),
    ],
    ids=["sa-cooling-rate", "sa-t0", "hnn-c-pen", "hnn-threshold"],
)
def test_real_argument_range_ends(call, taken, refused, message):
    """A real argument takes the floats just inside its range and refuses
    its excluded ends, NaN and the infinities, naming the value passed."""
    for value in taken:
        call(value)
    for value in refused + [math.nan, math.inf, -math.inf]:
        with pytest.raises(T.InvalidArgumentError, match=f"{message}, got {value}"):
            call(value)


def test_real_arguments_are_stored_as_floats():
    """A record keeps the Python float of each real argument, whatever real
    type it was given, as it keeps the int of each integer argument."""
    cfg = T.SaConfig(t0=np.float32(0.5), cooling_rate=np.float64(0.9))
    hp = T.HopfieldParams(a_pen=100, b_pen=np.int64(90), d_pen=np.float32(10), threshold=True)
    city = T.City("a", 1, np.float32(2.5))
    values = [cfg.t0, cfg.cooling_rate, hp.a_pen, hp.b_pen, hp.c_pen, hp.d_pen, hp.threshold]
    assert {type(v) for v in values + [city.x, city.y]} == {float}
    assert values == [0.5, 0.9, 100.0, 90.0, 90.0, 10.0, 1.0] and (city.x, city.y) == (1.0, 2.5)
    with pytest.raises(T.InvalidTemperatureError, match="t0 must be a real number, got '1'"):
        T.SaConfig(t0="1")


def test_report_records_keep_python_floats():
    """A sweep report's records keep each real field as a Python float and
    each count as an int, whatever real or integer type they were given, so
    a report renders the same; a cell with no valid trial keeps None."""
    cell = T.CellStats(
        np.float32(90), 10, np.float64(2.5), None, 3, np.float64(0.5), np.int64(5), np.int64(2)
    )
    report = T.BenchmarkReport(
        "x", np.int64(100), np.float32(0.5), (cell,), np.int64(2), 0, "valid"
    )
    values = [cell.c_pen, cell.d_pen, cell.best, cell.worst, cell.success_rate, cell.mean_sweeps]
    assert {type(v) for v in values + [report.a_pen, report.b_pen]} == {float}
    assert {type(v) for v in (cell.trials, report.trials, report.master_seed)} == {int}
    assert cell.mean is None and values == [90.0, 10.0, 2.5, 3.0, 0.5, 5.0]


# Junk for any scalar argument: none is of the argument's record type, and
# every count among them is refused or small, so no call runs for long.
JUNK = [
    None, "3", 1.5, math.nan, math.inf, -math.inf, -1, 0, 1e30, 10**400, [], [1, 2],
    np.zeros((2, 2)), object(), True,
]
SHORT_SA = T.SaConfig(iterations=1)
FEW_SWEEPS = T.HopfieldParams(max_sweeps=5)
SCALAR_ARGUMENTS = {
    **{
        f"sa-{name}": lambda v, name=name: T.SaConfig(**{name: v})
        for name in ("t0", "cooling_rate", "iterations", "swap_count", "seed")
    },
    **{
        f"hnn-{name}": lambda v, name=name: T.HopfieldParams(**{name: v})
        for name in ("a_pen", "b_pen", "c_pen", "d_pen", "threshold", "max_sweeps", "seed")
    },
    "city-label": lambda v: T.City(v, 0.0, 0.0),
    "city-x": lambda v: T.City("a", v, 0.0),
    "city-y": lambda v: T.City("a", 0.0, v),
    "instance-id": lambda v: T.Instance(id=v, cities=PAPER8.cities),
    "instance-seed": lambda v: T.Instance(id="x", cities=PAPER8.cities, seed=v),
    "unit-update-unit": lambda v: T.unit_update(np.zeros((8, 8)), W8, v),
    "gen-n": lambda v: T.generate_random_instance(v, 0),
    "gen-seed": lambda v: T.generate_random_instance(5, v),
    "gen-bound": lambda v: T.generate_random_instance(5, 0, bound=v),
    "accept-t": lambda v: T.acceptance_probability(1.0, 2.0, v),
    "temperature-step": lambda v: T.temperature_at(v, SHORT_SA),
    "solve-sa": lambda v: T.solve(PAPER8, "greedy", v),
    "solve-hp": lambda v: T.solve(PAPER8, "greedy", SHORT_SA, v),
    "hybrid-sa": lambda v: T.solve_hybrid(PAPER8, v, FEW_SWEEPS),
    "hybrid-hp": lambda v: T.solve_hybrid(PAPER8, SHORT_SA, v),
    "sweep-base": lambda v: T.sweep(PAPER8, [90.0], [10.0], 1, v, 0),
    "sweep-c-values": lambda v: T.sweep(PAPER8, v, [10.0], 1, FEW_SWEEPS, 0),
    "sweep-d-values": lambda v: T.sweep(PAPER8, [90.0], v, 1, FEW_SWEEPS, 0),
    **{
        f"cell-{name}": lambda v, name=name: dataclasses.replace(ONE_CELL.cells[0], **{name: v})
        for name in (f.name for f in dataclasses.fields(T.CellStats))
    },
    **{
        f"report-{name}": lambda v, name=name: dataclasses.replace(ONE_CELL, **{name: v})
        for name in ("instance_id", "a_pen", "b_pen", "trials", "master_seed", "success_metric")
    },
}


@pytest.mark.parametrize("call", SCALAR_ARGUMENTS.values(), ids=SCALAR_ARGUMENTS.keys())
@settings(max_examples=3 * len(JUNK), deadline=None)
@given(value=st.sampled_from(JUNK))
def test_junk_argument_returns_or_raises_a_typed_error(call, value):
    """The public API's contract over generated junk: a call either returns
    or refuses with a ``TsphnnError``; no bare exception escapes."""
    try:
        call(value)
    except T.TsphnnError:
        pass


# The record arguments of the public entry points that raised a bare
# ``AttributeError`` or ``TypeError`` from inside the call before.
RECORD_ARGUMENTS = {
    "solve-inst": lambda v: T.solve(v, "greedy"),
    "hybrid-inst": lambda v: T.solve_hybrid(v, SHORT_SA, FEW_SWEEPS),
    "sweep-inst": lambda v: T.sweep(v, [90.0], [10.0], 1, FEW_SWEEPS, 0),
    "run-hopfield-m": lambda v: T.run_hopfield(v, FEW_SWEEPS),
    "run-hopfield-p": lambda v: T.run_hopfield(M8, v),
    "render-report": T.render_report,
    "instance-cities": lambda v: T.Instance(id="x", cities=v),
    "instance-city": lambda v: T.Instance(id="x", cities=(PAPER8.cities[0], v, v)),
    "oracle-m": T.brute_force_optimum,
    "canonicalize-t": T.canonicalize,
    "tour-to-matrix-t": T.tour_to_matrix,
    "build-weights-m": lambda v: T.build_weights(v, FEW_SWEEPS),
    "build-weights-p": lambda v: T.build_weights(M8, v),
    "energy-m": lambda v: T.energy(np.zeros((8, 8)), v, FEW_SWEEPS),
    "energy-p": lambda v: T.energy(np.zeros((8, 8)), M8, v),
    "energy-terms-m": lambda v: T.energy_terms(np.zeros((8, 8)), v),
    "unit-update-w": lambda v: T.unit_update(np.zeros((8, 8)), v, (0, 0)),
    "distance-matrix-inst": T.distance_matrix,
    "normalize-m": T.normalize_distances,
    "swap-t": lambda v: T.swap_cities(v, 1, np.random.default_rng(0)),
    "swap-rng": lambda v: T.swap_cities(SHORT, 1, v),
    "temperature-cfg": lambda v: T.temperature_at(0, v),
    "tour-length-m": lambda v: T.tour_length(v, SHORT),
    "lockstep-m": lambda v: run_lockstep(v, FEW_SWEEPS, [], []),
    "lockstep-p": lambda v: run_lockstep(M8, v, [], []),
    "lockstep-rng": lambda v: run_lockstep(M8, FEW_SWEEPS, [np.zeros((8, 8))], [v]),
    "tour-random-rng": lambda v: T.Tour.random(5, v),
    "random-grid-rng": lambda v: random_grid(5, v),
    "render-tour-inst": render_tour_svg,
    "save-instance-inst": lambda v: T.save_instance(v, os.devnull),
    "report-cells": lambda v: dataclasses.replace(ONE_CELL, cells=v),
    "report-cell": lambda v: dataclasses.replace(ONE_CELL, cells=(v,)),
}


@pytest.mark.parametrize("call", RECORD_ARGUMENTS.values(), ids=RECORD_ARGUMENTS.keys())
@settings(max_examples=3 * len(JUNK), deadline=None)
@given(value=st.sampled_from(JUNK))
def test_junk_record_argument_raises_a_typed_error(call, value):
    """No junk value is taken where a record belongs: each is refused with
    ``InvalidArgumentError`` at the entry point."""
    with pytest.raises(T.InvalidArgumentError, match=" must be an? "):
        call(value)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("solve-inst", None, "inst must be an Instance, got NoneType"),
        ("hybrid-inst", PAPER8.cities, "inst must be an Instance, got tuple"),
        ("sweep-inst", 5, "inst must be an Instance, got int"),
        ("run-hopfield-m", M8.d, "m must be a DistanceMatrix, got ndarray"),
        ("run-hopfield-p", None, "p must be a HopfieldParams, got NoneType"),
        ("run-hopfield-p", SHORT_SA, "p must be a HopfieldParams, got SaConfig"),
        ("render-report", None, "r must be a BenchmarkReport, got NoneType"),
        ("instance-cities", list(PAPER8.cities), "cities must be a tuple, got list"),
        ("instance-cities", (1, 2, 3), "city must be a City, got int"),
        ("instance-city", "a", "city must be a City, got str"),
        ("unit-update-w", M8, "w must be a WeightMatrix, got DistanceMatrix"),
        ("swap-rng", random, "rng must be a RandomGenerator, got module"),
        ("temperature-cfg", None, "cfg must be a SaConfig, got NoneType"),
        ("tour-length-m", None, "m must be a DistanceMatrix, got NoneType"),
        ("lockstep-m", M8.d, "m must be a DistanceMatrix, got ndarray"),
        ("lockstep-p", None, "p must be a HopfieldParams, got NoneType"),
        ("lockstep-rng", 5, "rngs\\[0\\] must be a Generator, got int"),
        ("tour-random-rng", None, "rng must be a Generator, got NoneType"),
        ("tour-random-rng", 5, "rng must be a Generator, got int"),
        ("random-grid-rng", 5, "rng must be a Generator, got int"),
        ("render-tour-inst", None, "inst must be an Instance, got NoneType"),
        ("save-instance-inst", None, "inst must be an Instance, got NoneType"),
    ],
)
def test_record_argument_refusal_names_the_argument(key, value, message):
    with pytest.raises(T.InvalidArgumentError, match=f"^{message}$"):
        RECORD_ARGUMENTS[key](value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: T.run_hopfield(M8, FEW_SWEEPS, rng=5), "rng must be a Generator, got int"),
        (
            lambda: T.run_hopfield(M8, FEW_SWEEPS, init=np.zeros((8, 8)), rng=5),
            "rng must be a Generator, got int",
        ),
        (
            lambda: run_lockstep(M8, FEW_SWEEPS, [np.zeros((8, 8))], 5),
            "rngs must be a Sequence, got int",
        ),
    ],
)
def test_network_refuses_a_generator_of_another_type(call, message):
    """Not rows of ``RECORD_ARGUMENTS``, as some junk is taken here:
    ``run_hopfield``'s ``rng=None`` draws from ``p.seed``, and an empty list
    is ``run_lockstep``'s ``rngs`` for no trials.  Each raised a bare
    ``AttributeError`` or ``TypeError`` before."""
    with pytest.raises(T.InvalidArgumentError, match=f"^{message}$"):
        call()


def test_render_tour_svg_refuses_a_tour_of_another_type():
    """``tour=None``, the default, draws the cities alone."""
    for value in [v for v in JUNK if v is not None] + [SHORT.order]:
        with pytest.raises(T.InvalidArgumentError, match="^tour must be a Tour, got "):
            render_tour_svg(PAPER8, value)


# Every public callable, and the public functions of the modules that the
# package does not import by name.
PUBLIC_CALLABLES = {
    **{name: getattr(T, name) for name in T.__all__ if callable(getattr(T, name))},
    "hopfield.run_lockstep": run_lockstep,
    "svg.render_tour_svg": render_tour_svg,
    "svg.render_grid_svg": render_grid_svg,
}


def _required_positionals(func) -> int:
    try:
        parameters = inspect.signature(func).parameters.values()
    except ValueError:  # an exception type, which takes any arguments
        return 0
    return sum(
        p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        for p in parameters
    )


@pytest.mark.parametrize("value", [None, 5])
@pytest.mark.parametrize("func", PUBLIC_CALLABLES.values(), ids=PUBLIC_CALLABLES.keys())
def test_public_callable_given_none_or_5_returns_or_raises_a_typed_error(func, value):
    """Every required positional argument set to None, then to 5: the call
    returns or refuses with a ``TsphnnError``, or, for ``get_builtin``, with
    its documented ``KeyError``."""
    try:
        func(*[value] * _required_positionals(func))
    except T.TsphnnError:
        pass
    except KeyError:
        assert func is T.get_builtin


class _ReprRaises:
    def __repr__(self):
        raise RuntimeError("no repr")


# Values a refusal cannot show whole: 10**5000 is past Python's 4,300-digit
# limit for integer strings, and the others are long or have no repr.
HOSTILE = {
    "huge-int": 10**5000,
    "huge-negative-int": -(10**5000),
    "long-string": "x" * 10**6,
    "long-list": [0] * 100_000,
    "tuple-of-huge-int": (0, 10**5000),
    "repr-raises": _ReprRaises(),
}
SQUARE8 = T.Tour(tuple(range(8)))
# A duplicate label, and tour lengths past the float range: each instance
# is refused with its id quoted.
TWINS = (T.City("a", 0.0, 0.0), T.City("a", 1.0, 0.0), T.City("b", 0.0, 1.0))
OVERFLOWING = tuple(
    T.City(label, x, y)
    for label, (x, y) in zip("abcd", [(0.0, 9e307), (9e307, 0.0), (9e307, 9e307), (0.0, 0.0)])
)
ONE_CELL = T.BenchmarkReport(
    instance_id="paper8", a_pen=100.0, b_pen=100.0,
    cells=(T.CellStats(90.0, 10.0, None, None, None, 0.0, 5.0, 1),), trials=1,
    master_seed=0, success_metric="valid",
)
# Each argument a refusal quotes: a call passing the value, and whether a
# huge positive value is refused.  Where it is not, the argument has no
# upper end and a huge count may run without end, so it is not drawn.
QUOTED_ARGUMENTS = {
    "sa-iterations": (lambda v: T.SaConfig(iterations=v), True),
    "sa-swap-count": (lambda v: T.SaConfig(swap_count=v), False),
    "sa-seed": (lambda v: T.SaConfig(seed=v), False),
    "hnn-max-sweeps": (lambda v: T.HopfieldParams(max_sweeps=v), False),
    "hnn-seed": (lambda v: T.HopfieldParams(seed=v), False),
    "temperature-step": (lambda v: T.temperature_at(v, SHORT_SA), True),
    "swap-k": (lambda v: T.swap_cities(SQUARE8, v, np.random.default_rng(0)), True),
    "anneal-swap-count": (
        lambda v: T.anneal(M8, SQUARE8, T.SaConfig(iterations=1, swap_count=v)), True,
    ),
    "greedy-start": (lambda v: T.greedy_nearest_neighbor(M8, v), True),
    "gen-n": (lambda v: T.generate_random_instance(v, 0), True),
    "gen-seed": (lambda v: T.generate_random_instance(5, v), False),
    "random-tour-n": (lambda v: T.Tour.random(v, np.random.default_rng(0)), True),
    "sweep-trials": (lambda v: T.sweep(PAPER8, [90.0], [10.0], v, FEW_SWEEPS, 0), False),
    "sweep-workers": (
        lambda v: T.sweep(PAPER8, [90.0], [10.0], 1, FEW_SWEEPS, 0, workers=v), False,
    ),
    "sweep-seed": (lambda v: T.sweep(PAPER8, [90.0], [10.0], 1, FEW_SWEEPS, v), False),
    "tour-order": (T.Tour, True),
    "tour-length-order": (lambda v: T.tour_length(M8, v), True),
    "city-label": (lambda v: T.City(v, None, 0.0), True),
    "instance-id": (lambda v: T.Instance(id=v, cities=TWINS), True),
    "instance-seed": (lambda v: T.Instance(id="x", cities=PAPER8.cities, seed=v), False),
    "unit-update-unit": (lambda v: T.unit_update(np.zeros((8, 8)), W8, v), True),
    "solve-instance-id": (
        lambda v: T.solve(T.Instance(id=v, cities=OVERFLOWING), "greedy"), True,
    ),
    "solve-method": (lambda v: T.solve(PAPER8, v), True),
    "sweep-success-metric": (
        lambda v: T.sweep(PAPER8, [90.0], [10.0], 1, FEW_SWEEPS, 0, success_metric=v), True,
    ),
    "report-format": (lambda v: T.render_report(ONE_CELL, v), True),
    "builtin-name": (T.get_builtin, True),
}


@pytest.mark.parametrize(
    "call, huge_is_refused", QUOTED_ARGUMENTS.values(), ids=QUOTED_ARGUMENTS.keys()
)
@settings(max_examples=3 * len(HOSTILE), deadline=None)
@given(key=st.sampled_from(sorted(HOSTILE)))
def test_hostile_value_is_refused_with_a_short_message(call, huge_is_refused, key):
    """However large, long or unprintable the value, the refusal is typed
    (a ``KeyError`` for a builtin name) and its message is short."""
    assume(huge_is_refused or key != "huge-int")
    with pytest.raises(KeyError if call is T.get_builtin else T.TsphnnError) as excinfo:
        call(HOSTILE[key])
    assert len(str(excinfo.value)) < 200


class MisshapenDraws:
    """A stand-in generator whose ``random(size)`` returns ``reshape(u)`` for
    an array ``u`` of that size."""

    def __init__(self, reshape):
        self.reshape = reshape

    def random(self, size):
        return self.reshape(np.full(size, 0.5))


MISSHAPEN = "rng must be a RandomGenerator, got MisshapenDraws"

# ``anneal`` with one argument replaced: each must be of its record type.
ANNEAL_ARGUMENTS = {
    "m": lambda v: T.anneal(v, SQUARE8, SHORT_SA),
    "start": lambda v: T.anneal(M8, v, SHORT_SA),
    "cfg": lambda v: T.anneal(M8, SQUARE8, v),
    "rng": lambda v: T.anneal(M8, SQUARE8, SHORT_SA, v),
}


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("m", None, "m must be a DistanceMatrix, got NoneType"),
        ("m", M8.d, "m must be a DistanceMatrix, got ndarray"),
        ("start", list(range(8)), "start must be a Tour, got list"),
        ("start", SQUARE8.order, "start must be a Tour, got tuple"),
        ("cfg", None, "cfg must be a SaConfig, got NoneType"),
        ("cfg", T.HopfieldParams(), "cfg must be a SaConfig, got HopfieldParams"),
        ("rng", 5, "rng must be a RandomGenerator, got int"),
        ("rng", np.random.SeedSequence(0), "rng must be a RandomGenerator, got SeedSequence"),
        ("rng", random, "rng must be a RandomGenerator, got module"),
        ("rng", MisshapenDraws(np.ndarray.tolist), MISSHAPEN),
        ("rng", MisshapenDraws(lambda u: u[:-1]), MISSHAPEN),
        ("rng", MisshapenDraws(lambda u: u[:, :-1]), MISSHAPEN),
        ("rng", MisshapenDraws(lambda u: u.astype(np.float32)), MISSHAPEN),
    ],
)
def test_anneal_refuses_an_argument_of_another_type(name, value, message):
    """Each of these raised a bare ``AttributeError`` from inside the walk
    before."""
    with pytest.raises(T.InvalidArgumentError, match=f"^{message}"):
        ANNEAL_ARGUMENTS[name](value)


@pytest.mark.parametrize("name", ANNEAL_ARGUMENTS)
def test_anneal_refuses_junk_for_every_argument(name):
    """No junk value is taken for any argument; ``rng=None``, the default,
    draws from ``cfg.seed``."""
    for value in JUNK:
        if name == "rng" and value is None:
            continue
        with pytest.raises(T.InvalidArgumentError, match=f"^{name} must be a "):
            ANNEAL_ARGUMENTS[name](value)


# The baselines with one argument replaced: each must be of its record type.
BASELINE_ARGUMENTS = {
    "greedy-m": ("m", lambda v: T.greedy_nearest_neighbor(v)),
    "two_opt-m": ("m", lambda v: T.two_opt(v, SQUARE8)),
    "two_opt-t": ("t", lambda v: T.two_opt(M8, v)),
    "three_opt-m": ("m", lambda v: T.three_opt(v, SQUARE8)),
    "three_opt-t": ("t", lambda v: T.three_opt(M8, v)),
}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("greedy-m", None, "m must be a DistanceMatrix, got NoneType"),
        ("two_opt-m", M8.d, "m must be a DistanceMatrix, got ndarray"),
        ("two_opt-t", list(range(8)), "t must be a Tour, got list"),
        ("three_opt-m", None, "m must be a DistanceMatrix, got NoneType"),
        ("three_opt-t", None, "t must be a Tour, got NoneType"),
        ("three_opt-t", SQUARE8.order, "t must be a Tour, got tuple"),
    ],
)
def test_baseline_refuses_an_argument_of_another_type(key, value, message):
    """Each of these raised a bare ``AttributeError`` before."""
    with pytest.raises(T.InvalidArgumentError, match=f"^{message}$"):
        BASELINE_ARGUMENTS[key][1](value)


@pytest.mark.parametrize("key", BASELINE_ARGUMENTS)
def test_baseline_refuses_junk_for_every_record_argument(key):
    name, call = BASELINE_ARGUMENTS[key]
    for value in JUNK:
        with pytest.raises(T.InvalidArgumentError, match=f"^{name} must be a "):
            call(value)


def test_quote_shows_a_short_value_as_its_repr_and_cuts_the_rest():
    short = [0, "grid", (1, 2.5), [], np.array([0.5]), True, None, 10**40 - 1]
    assert [quote(v) for v in short] == [repr(v) for v in short]
    assert quote("[" * 41) == repr("[" * 40) + "..."
    assert quote(-(10**40)) == "<negative int of 133 bits>"
    assert quote(list(range(13))) == repr(list(range(12)))[:-1] + ", ...]"
    assert quote([_ReprRaises()]) == "<list>"
    assert quote("\0" * 10**6) == repr("\0" * 40)[:100] + "..."


@pytest.mark.parametrize("n", [10**24, np.iinfo(np.intp).max // 8 + 1], ids=["1e24", "past-intp"])
def test_random_tour_refuses_an_n_numpy_cannot_size(n):
    """Past ``intp.max // 8`` cities NumPy cannot size the permutation; no
    count at or below that end is tried, as one may be allocated."""
    with pytest.raises(T.InvalidArgumentError, match=f"n must be <= {np.iinfo(np.intp).max // 8}"):
        T.Tour.random(n, np.random.default_rng(0))


@pytest.mark.parametrize(
    "call",
    [
        lambda v: T.solve(PAPER8, v),
        lambda v: T.sweep(PAPER8, [90.0], [10.0], 1, FEW_SWEEPS, 0, success_metric=v),
        lambda v: T.render_report(ONE_CELL, v),
    ],
    ids=["solve-method", "sweep-success-metric", "report-format"],
)
def test_name_argument_refuses_an_array(call):
    """An array is not compared with each name, which would raise a bare
    ``ValueError``: only a string can be one of the names."""
    with pytest.raises(T.InvalidArgumentError, match=r"unknown .* array\(\[0\., 0\.\]\)"):
        call(np.zeros(2))


def test_a_tour_of_another_size_is_refused_briefly(matrix4):
    long_tour = T.Tour(tuple(range(100_000)))
    with pytest.raises(T.InvalidTourError, match=r"^tour \[0, 1, 2, .*, \.\.\.\] is not a perm"):
        T.tour_length(M8, long_tour)
    for tour in (T.Tour(tuple(range(5))), T.Tour((0, 1, 2)), long_tour):
        with pytest.raises(T.TsphnnError, match=f"tour has {tour.n} cities, instance has 4"):
            render_tour_svg(matrix4, tour)
