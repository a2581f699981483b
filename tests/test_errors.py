"""Every refusal of the public API is a typed ``TsphnnError`` (or, for an
unknown builtin name, a ``KeyError``) that says what was wrong."""

import numpy as np
import pytest

import tsphnn as T
from tsphnn.hopfield import run_lockstep

PAPER8 = T.get_builtin("paper8")
M8 = T.distance_matrix(PAPER8)
SHORT = T.Tour((0, 1, 2, 3))


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
    "anneal-tour-size": (
        lambda: T.anneal(M8, SHORT, T.SaConfig(t0=1.0, cooling_rate=0.9, iterations=1)),
        T.TsphnnError, "start tour has 4 cities, matrix has 8",
    ),
    "two-opt-tour-size": (
        lambda: T.two_opt(M8, SHORT),
        T.TsphnnError, "tour has 4 cities, matrix has 8",
    ),
    "three-opt-tour-size": (
        lambda: T.three_opt(M8, SHORT),
        T.TsphnnError, "tour has 4 cities, matrix has 8",
    ),
    "greedy-start": (
        lambda: T.greedy_nearest_neighbor(M8, 8),
        T.TsphnnError, r"start city 8 out of range 0\.\.7",
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
