import argparse
import contextlib
import io
import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsphnn as T
from tsphnn import cli, pipeline
from tsphnn.annealing import MAX_ITERATIONS
from tsphnn.cli import main
from tsphnn.pipeline import METHODS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_record(out):
    record = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        record[key] = value
    return record


def test_gen_writes_loadable_instance(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, _ = run_cli(capsys, "gen", "--n", "8", "--seed", "1", "--out", str(path))
    assert code == 0
    inst = T.load_instance(path)
    assert inst.n == 8 and inst.seed == 1


def test_gen_rejects_small_n(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gen", "--n", "2", "--seed", "1", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "error" in err


def test_gen_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "gen", "--n", "6", "--seed", "9", "--out", str(a))
    run_cli(capsys, "gen", "--n", "6", "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_solve_exact_matrix4(capsys):
    code, out, _ = run_cli(capsys, "solve", "--instance", "matrix4", "--method", "exact")
    assert code == 0
    record = parse_record(out)
    assert record["valid"] == "true"
    assert float(record["length"]) == 71.0
    assert record["method"] == "exact"
    assert "seed" in record and "tour" in record


def test_solve_every_method_smoke(capsys):
    for method in ("exact", "greedy", "2opt", "3opt"):
        code, out, _ = run_cli(
            capsys, "solve", "--instance", "paper8", "--method", method
        )
        assert code == 0
        assert parse_record(out)["valid"] == "true"
    code, out, _ = run_cli(
        capsys,
        "solve", "--instance", "paper8", "--method", "sa",
        "--iters", "500", "--seed", "3",
    )
    assert code == 0 and parse_record(out)["valid"] == "true"


def test_solve_hybrid_deterministic_record(capsys):
    argv = (
        "solve", "--instance", "paper8", "--method", "hybrid",
        "--iters", "800", "--seed", "5",
    )
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    record = parse_record(out1)
    assert float(record["final_length"] if "final_length" in record else record["length"]) > 0
    assert float(record["sa_length"]) <= float(record["sa_start_length"])


def test_solve_hnn_zero_sweeps_exits_1(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", "--instance", "paper8", "--method", "hnn",
        "--max-sweeps", "0", "--seed", "0",
    )
    assert code == 1
    record = parse_record(out)
    assert record["valid"] == "false"
    assert "tour" not in record


def test_solve_hnn_gentle_penalty_finds_tour(tmp_path, capsys):
    grid_path = tmp_path / "grid.txt"
    code, out, _ = run_cli(
        capsys,
        "solve", "--instance", "cityset1", "--method", "hnn",
        "--D", "10", "--seed", "1", "--grid-out", str(grid_path),
    )
    record = parse_record(out)
    assert code == 0 and record["valid"] == "true"
    from tsphnn.hopfield import text_to_grid

    grid = text_to_grid(grid_path.read_text())
    assert T.is_valid_permutation_matrix(grid.astype(int))


def test_solve_unknown_method_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", "paper8", "--method", "magic"])
    assert exc.value.code == 2


def test_solve_missing_instance_exits_2(tmp_path, capsys):
    for path in ("/nope/missing.json", str(tmp_path)):
        code, _, err = run_cli(capsys, "solve", "--instance", path, "--method", "greedy")
        assert code == 2 and "error" in err


def test_solve_out_of_memory_exits_2(capsys, monkeypatch):
    from tsphnn import pipeline

    def anneal(*args, **kwargs):
        raise MemoryError("Unable to allocate 21.8 TiB")

    monkeypatch.setattr(pipeline, "anneal", anneal)
    code, out, err = run_cli(capsys, "solve", "--instance", "paper8", "--method", "sa")
    assert code == 2 and out == "" and "21.8 TiB" in err


def test_solve_oversized_sa_trace_exits_2(capsys, monkeypatch):
    """A run whose 32-byte-per-step SA trace would pass the bound is refused
    with a typed error before anything is annealed or allocated."""
    from tsphnn import pipeline
    from tsphnn.annealing import MAX_ITERATIONS

    def anneal(*args, **kwargs):
        raise AssertionError("anneal started")

    monkeypatch.setattr(pipeline, "anneal", anneal)
    for method in ("sa", "hybrid"):
        for iters in (MAX_ITERATIONS + 1, 300_000_000):
            code, out, err = run_cli(
                capsys, "solve", "--instance", "paper8", "--method", method,
                "--iters", str(iters),
            )
            assert code == 2 and out == ""
            assert f"iterations must be <= {MAX_ITERATIONS}" in err
    T.SaConfig(t0=1.0, cooling_rate=0.99, iterations=MAX_ITERATIONS)
    with pytest.raises(T.InvalidArgumentError):
        T.SaConfig(t0=1.0, cooling_rate=0.99, iterations=MAX_ITERATIONS + 1)


def test_solve_hnn_n200_completes(tmp_path, capsys):
    """n=200 would need 12.8 GB of dense weights; the network needs none."""
    path = tmp_path / "n200.json"
    run_cli(capsys, "gen", "--n", "200", "--seed", "5", "--out", str(path))
    tracemalloc.start()
    try:
        code, out, _ = run_cli(
            capsys, "solve", "--instance", str(path), "--method", "hnn", "--seed", "1"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record = parse_record(out)
    assert code in (0, 1) and record["n"] == "200" and record["converged"] == "true"
    assert peak < 50e6


@pytest.mark.parametrize("matrix", [[[0, 1, 2], [1, 0]], [["a", "b", "c"]] * 3])
def test_solve_bad_matrix_exits_2(tmp_path, capsys, matrix):
    path = tmp_path / "inst.json"
    cities = [{"label": lab, "x": 0.0, "y": float(i)} for i, lab in enumerate("ABC")]
    path.write_text(json.dumps({"cities": cities, "matrix": matrix}))
    code, _, err = run_cli(capsys, "solve", "--instance", str(path), "--method", "exact")
    assert code == 2
    assert f"{path}: matrix:" in err and "Traceback" not in err


def test_non_finite_parameters_exit_2(capsys):
    for argv in (
        ("solve", "--instance", "paper8", "--method", "hnn", "--D", "nan"),
        ("solve", "--instance", "paper8", "--method", "hnn", "--threshold", "nan"),
        ("solve", "--instance", "paper8", "--method", "sa", "--t0", "inf"),
        ("sweep", "--instance", "paper8", "--c-grid", "nan", "--d-grid", "10"),
        ("sweep", "--instance", "paper8", "--c-grid", "90", "--d-grid", "10",
         "--workers", "0"),
        ("sweep", "--instance", "paper8", "--c-grid", "90", "--d-grid", "10",
         "--workers", "-3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "error" in err


def test_sweep_end_to_end_with_csv(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys,
        "sweep", "--instance", "cityset1",
        "--c-grid", "90", "--d-grid", "10,100",
        "--trials", "3", "--max-sweeps", "50", "--seed", "4",
        "--out", str(out_csv),
    )
    assert code == 0
    header = " ".join(out.splitlines()[1].split())
    assert "Best Mean Worst % Succ. Iter." in header
    text = out_csv.read_text()
    assert text.splitlines()[0] == (
        "cell,C,D,best,mean,worst,success_rate,mean_sweeps,trials"
    )
    assert len(text.splitlines()) == 3


def test_sweep_optimal_success_metric_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--instance", "paper8",
        "--c-grid", "90", "--d-grid", "10",
        "--trials", "2", "--max-sweeps", "50", "--seed", "1",
        "--success-metric", "optimal",
    )
    assert code == 0
    assert "metric=optimal" in out


def test_sweep_refuses_a_huge_trial_count_at_once(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a block was made")

    monkeypatch.setattr(pipeline, "run_lockstep", refuse)
    code, out, err = run_cli(
        capsys,
        "sweep", "--instance", "paper8", "--c-grid", "90", "--d-grid", "10",
        "--trials", str(10**30), "--max-sweeps", "5",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: trials must be <= ")


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "default: 20000" in out  # --iters
    assert "default: 90.0" in out  # --C


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_help_shows_every_default(capsys, command):
    """Every option with a default shows it, and the network flags show
    :class:`HopfieldParams`'s own defaults."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    entries = {}  # each option's help entry, its lines joined
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  -"):
            option = line.split()[0].rstrip(",")
            entries[option] = ""
        if entries:
            entries[option] += " " + line.strip()
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    actions = subparsers.choices[command]._actions
    defaulted = [a for a in actions if a.default not in (None, argparse.SUPPRESS)]
    assert defaulted
    for action in defaulted:
        assert f"(default: {action.default})" in entries[action.option_strings[0]]
    network = {"--A": "a_pen", "--B": "b_pen", "--C": "c_pen", "--D": "d_pen",
               "--threshold": "threshold", "--max-sweeps": "max_sweeps", "--seed": "seed"}
    shown = {a.option_strings[0]: a.default for a in defaulted if a.option_strings[0] in network}
    assert len(shown) == (7 if command == "solve" else 5)
    for option, default in shown.items():
        assert default == getattr(T.HopfieldParams(), network[option])


def test_sweep_deterministic_bytes_across_workers(tmp_path, capsys):
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = (
        "sweep", "--instance", "paper8",
        "--c-grid", "90", "--d-grid", "10",
        "--trials", "6", "--max-sweeps", "50", "--seed", "2",
    )
    _, out_a, _ = run_cli(capsys, *base, "--workers", "1", "--out", str(csv_a))
    _, out_b, _ = run_cli(capsys, *base, "--workers", "3", "--out", str(csv_b))
    assert out_a == out_b
    assert csv_a.read_bytes() == csv_b.read_bytes()


def test_plot_tour_svg(tmp_path, capsys):
    tour_path = tmp_path / "tour.json"
    tour_path.write_text(json.dumps({"order": [1, 0, 3, 2]}))
    svg_path = tmp_path / "tour.svg"
    code, _, _ = run_cli(
        capsys,
        "plot", "--instance", "matrix4", "--tour", str(tour_path),
        "--out", str(svg_path),
    )
    assert code == 0
    svg = svg_path.read_text()
    assert svg.count("<circle") == 4
    assert svg.count("<polygon") == 1
    assert svg.count("<text") == 4


def test_plot_grid_svg(tmp_path, capsys):
    grid_path = tmp_path / "grid.txt"
    grid = np.eye(4, dtype=int)
    grid_path.write_text("\n".join("".join(str(v) for v in row) for row in grid) + "\n")
    svg_path = tmp_path / "grid.svg"
    code, _, _ = run_cli(
        capsys,
        "plot", "--instance", "matrix4", "--grid", str(grid_path),
        "--out", str(svg_path),
    )
    assert code == 0
    svg = svg_path.read_text()
    assert svg.count("<rect") == 1 + 16
    assert svg.count('fill="black"') == 4


@pytest.mark.parametrize(
    "text, message",
    [
        ("0100\n1000\n01x1\n0010\n", "grid row 3"),
        ("0100\n1000\n010\n0010\n", "grid row 3"),
        ("010\n100\n001\n", "expected n=4"),
    ],
    ids=["bad-cell", "short-row", "wrong-size"],
)
def test_plot_bad_grid_file_exits_2(tmp_path, capsys, text, message):
    grid_path = tmp_path / "grid.txt"
    grid_path.write_text(text)
    code, _, err = run_cli(
        capsys,
        "plot", "--instance", "matrix4", "--grid", str(grid_path),
        "--out", str(tmp_path / "x.svg"),
    )
    assert code == 2 and message in err


def test_plot_long_bad_grid_row_is_quoted_short(tmp_path, capsys):
    grid_path = tmp_path / "grid.txt"
    grid_path.write_text("[" * 100_000)
    code, _, err = run_cli(
        capsys,
        "plot", "--instance", "paper8", "--grid", str(grid_path),
        "--out", str(tmp_path / "x.svg"),
    )
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 2 and len(errors) == 1
    assert "grid row 1" in errors[0] and len(errors[0]) < 200


def test_plot_long_bad_tour_is_quoted_short(tmp_path, capsys):
    tour_path = tmp_path / "tour.json"
    tour_path.write_text(json.dumps({"order": [0] * 100_000}))
    code, _, err = run_cli(
        capsys,
        "plot", "--instance", "paper8", "--tour", str(tour_path),
        "--out", str(tmp_path / "x.svg"),
    )
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 2 and len(errors) == 1
    assert "is not a permutation" in errors[0] and len(errors[0]) < 200 + len(str(tour_path))


def test_plot_size_mismatch_exits_2(tmp_path, capsys):
    tour_path = tmp_path / "tour.json"
    tour_path.write_text(json.dumps({"order": [0, 1, 2]}))
    code, _, err = run_cli(
        capsys,
        "plot", "--instance", "matrix4", "--tour", str(tour_path),
        "--out", str(tmp_path / "x.svg"),
    )
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "payload",
    [
        {"tour": [0, 1, 2, 3]},
        {"order": [0, 1, "x", 3]},
        {"order": 5},
        {"order": [0.9, 1.2, 2.5, 3.1]},
    ],
)
def test_plot_bad_tour_file_exits_2(tmp_path, capsys, payload):
    tour_path = tmp_path / "tour.json"
    tour_path.write_text(json.dumps(payload))
    code, _, err = run_cli(
        capsys,
        "plot", "--instance", "matrix4", "--tour", str(tour_path),
        "--out", str(tmp_path / "x.svg"),
    )
    assert code == 2
    assert f"{tour_path}:" in err and "order" in err


def test_plot_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run_cli(capsys, "plot", "--instance", "cityset1", "--out", str(a))
    run_cli(capsys, "plot", "--instance", "cityset1", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_solve_writes_tour_file_for_plotting(tmp_path, capsys):
    tour_path = tmp_path / "best.json"
    code, out, _ = run_cli(
        capsys,
        "solve", "--instance", "paper8", "--method", "2opt",
        "--out", str(tour_path),
    )
    assert code == 0
    payload = json.loads(tour_path.read_text())
    assert sorted(payload["order"]) == list(range(8))
    svg_path = tmp_path / "best.svg"
    code, _, _ = run_cli(
        capsys,
        "plot", "--instance", "paper8", "--tour", str(tour_path),
        "--out", str(svg_path),
    )
    assert code == 0 and svg_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--instance", "paper8", "--method", "sa"),
        ("solve", "--instance", "paper8", "--method", "hnn"),
        ("solve", "--instance", "paper8", "--method", "hybrid"),
        ("sweep", "--instance", "paper8", "--c-grid", "90", "--d-grid", "10"),
        ("gen", "--n", "5", "--out", "unused.json"),
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[-1:]),
)
def test_negative_seed_exits_2(tmp_path, capsys, monkeypatch, argv):
    """A negative seed is a usage error, refused where it enters the
    library, not a NumPy traceback."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2 and out == ""
    assert "error: seed must be >= 0, got -1" in err and "Traceback" not in err
    assert not (tmp_path / "unused.json").exists()


def test_negative_seed_rejected_by_the_library():
    for make in (
        lambda: T.SaConfig(t0=1.0, cooling_rate=0.9, iterations=10, seed=-1),
        lambda: T.HopfieldParams(seed=-1),
        lambda: T.generate_random_instance(5, seed=-1),
        lambda: T.sweep(T.get_builtin("paper8"), [90.0], [10.0], 1, T.HopfieldParams(), seed=-1),
    ):
        with pytest.raises(T.InvalidArgumentError, match="seed must be >= 0"):
            make()


def _main_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_SPECIAL_FLOATS = st.sampled_from(
    ["-1", "0", "-0.0", "nan", "inf", "-inf", "5e-324", "2.2e-308", "1e308", "1", "10"]
)
_SPECIAL_INTS = st.sampled_from(["-1180591620717411303424", "-1", "0", str(MAX_ITERATIONS + 1)])
# flag -> (ordinary values, odd values); --iters stays at most 2000 unless refused.
_SA_FLAGS = {
    "t0": (st.floats(1e-3, 100.0).map(repr), _SPECIAL_FLOATS),
    "cooling": (st.floats(0.5, 0.99999).map(repr), _SPECIAL_FLOATS),
    "iters": (st.integers(1, 2000).map(str), _SPECIAL_INTS),
    "swaps": (st.integers(1, 2).map(str), st.integers(-2, 8).map(str)),
    "seed": (st.integers(0, 2**64).map(str), _SPECIAL_INTS),
}


@settings(max_examples=80, deadline=None)
@given(
    method=st.sampled_from(["sa", "hybrid"]),
    instance=st.sampled_from(["matrix4", "paper8", "cityset1"]),
    odd=st.sets(st.sampled_from(sorted(_SA_FLAGS)), max_size=3),
    data=st.data(),
)
def test_sa_flags_fuzz(method, instance, odd, data):
    """SA flag values, ordinary or odd (negative, 0, NaN, +-inf, subnormal,
    1e308, 2k > n, one over MAX_ITERATIONS), give exit 0, 1 or 2, never a
    traceback, and the same stdout twice."""
    argv = ["solve", f"--instance={instance}", f"--method={method}"]
    for flag, (ordinary, special) in sorted(_SA_FLAGS.items()):
        value = data.draw(special if flag in odd else ordinary, label=flag)
        argv.append(f"--{flag}={value}")
    first = _main_in_process(argv)
    second = _main_in_process(argv)
    assert first[0] in (0, 1, 2)
    assert "Traceback" not in first[2]
    assert first[:2] == second[:2]


def test_gen_refuses_a_bound_that_overflows_tour_lengths(tmp_path, capsys):
    path = tmp_path / "huge.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NumPy RuntimeWarning fails the test
        code, _, err = run_cli(
            capsys, "gen", "--n", "8", "--seed", "1", "--bound", "1e308", "--out", str(path)
        )
    assert code == 2 and "overflow" in err and not path.exists()
    assert T.generate_random_instance(8, seed=1, bound=1e308).n == 8  # the library accepts it


@pytest.mark.parametrize(
    "coords",
    [
        # differences overflow, so some distance is infinite
        [(-1e308, 1e308), (1e308, -1e308), (1e308, 1e308), (-1e308, -1e308)],
        # every distance is finite, but n times the largest is not
        [(0.0, 9e307), (9e307, 0.0), (9e307, 9e307), (0.0, 0.0)],
    ],
)
@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--method", "exact"),
        ("solve", "--method", "sa", "--iters", "50"),
        ("sweep", "--c-grid", "90", "--d-grid", "10", "--trials", "2"),
    ],
)
def test_instances_whose_tour_lengths_overflow_exit_2(tmp_path, capsys, coords, argv):
    path = tmp_path / "huge.json"
    cities = [{"label": f"c{i}", "x": x, "y": y} for i, (x, y) in enumerate(coords)]
    path.write_text(json.dumps({"id": "huge", "cities": cities}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv[:1], "--instance", str(path), *argv[1:])
    assert code == 2 and out == "" and err.startswith("error: ")


_ODD_FLOATS = st.sampled_from(["-1", "0", "-0.0", "nan", "inf", "-inf", "5e-324", "1e308"])
_ODD_INTS = st.sampled_from(["-1180591620717411303424", "-1", "0", "1180591620717411303424"])
_ODD_GRIDS = st.sampled_from(
    ["", ",", "nan", "90,inf", "-1,10", "1e308,5e-324", "-0.0", "ten", "90;10", "90,,10"]
)
_PENALTY = st.floats(0.0, 300.0).map(repr)
# flag -> (ordinary values, odd values)
_HNN_FLAGS = {
    "A": (_PENALTY, _ODD_FLOATS),
    "B": (_PENALTY, _ODD_FLOATS),
    "C": (_PENALTY, _ODD_FLOATS),
    "D": (st.floats(0.0, 30.0).map(repr), _ODD_FLOATS),  # low enough for valid tours
    "threshold": (st.floats(-50.0, 50.0).map(repr), _ODD_FLOATS),
    "max-sweeps": (st.integers(1, 30).map(str), _ODD_INTS),
    "seed": (st.integers(0, 2**64).map(str), _ODD_INTS),
}
# --trials stays small when odd: a huge count would run for hours
_SWEEP_FLAGS = {
    "c-grid": (st.sampled_from(["90", "10,90", "0,300"]), _ODD_GRIDS),
    "d-grid": (st.sampled_from(["10", "10,100", "0"]), _ODD_GRIDS),
    "trials": (
        st.integers(1, 3).map(str),
        st.sampled_from(["-1", "0", "-99999999999999999999", "99999999999999999999"]),
    ),
    "max-sweeps": (st.integers(1, 20).map(str), _ODD_INTS),
    "threshold": (st.floats(-50.0, 50.0).map(repr), _ODD_FLOATS),
    "workers": (st.integers(1, 4).map(str), _ODD_INTS),
    "seed": (st.integers(0, 2**64).map(str), _ODD_INTS),
    "success-metric": (st.sampled_from(["valid", "optimal"]), st.sampled_from(["best", ""])),
}


def _fuzz_twice(argv, csv_dir):
    """Run ``argv`` twice, each with its own CSV path where it takes one;
    both runs must agree and end in exit 0, 1 or 2 without a traceback."""
    runs = []
    for name in ("first.csv", "second.csv"):
        path = csv_dir / name
        if path.exists():
            path.unlink()
        out_flag = [f"--out={path}"] if argv[0] == "sweep" else []
        code, out, err = _main_in_process([*argv, *out_flag])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        runs.append((code, out, path.read_text() if path.exists() else None))
    assert runs[0] == runs[1]


@settings(max_examples=60, deadline=None)
@given(
    method=st.sampled_from(["hnn", "hybrid"]),
    instance=st.sampled_from(["matrix4", "paper8", "cityset1"]),
    odd=st.sets(st.sampled_from(sorted(_HNN_FLAGS)), max_size=3),
    data=st.data(),
)
def test_network_flags_fuzz(tmp_path_factory, method, instance, odd, data):
    """Network flag values, ordinary or odd (negative, 0, -0.0, NaN, +-inf,
    subnormal, 1e308, integers past 64 bits), give exit 0, 1 or 2, never a
    traceback, and the same stdout twice."""
    argv = ["solve", f"--instance={instance}", f"--method={method}", "--iters=300"]
    for flag, (ordinary, special) in sorted(_HNN_FLAGS.items()):
        value = data.draw(special if flag in odd else ordinary, label=flag)
        argv.append(f"--{flag}={value}")
    _fuzz_twice(argv, tmp_path_factory.mktemp("fuzz"))


@settings(max_examples=60, deadline=None)
@given(
    instance=st.sampled_from(["matrix4", "paper8", "cityset1"]),
    odd=st.sets(st.sampled_from(sorted(_SWEEP_FLAGS)), max_size=3),
    data=st.data(),
)
def test_sweep_flags_fuzz(tmp_path_factory, instance, odd, data):
    """Sweep flag values, ordinary or odd (the numeric ones above, plus
    empty and malformed grid lists and an unknown metric), give exit 0, 1
    or 2, never a traceback, and the same stdout and CSV twice."""
    argv = ["sweep", f"--instance={instance}"]
    for flag, (ordinary, special) in sorted(_SWEEP_FLAGS.items()):
        value = data.draw(special if flag in odd else ordinary, label=flag)
        argv.append(f"--{flag}={value}")
    _fuzz_twice(argv, tmp_path_factory.mktemp("fuzz"))


@pytest.mark.parametrize(
    "argv",
    [
        [
            "sweep", "--instance", "paper8", "--c-grid", "90", "--d-grid=1e308",
            "--A", "1e308", "--threshold=-1e308", "--trials", "2",
        ],
        [
            "solve", "--instance", "cityset1", "--method", "hybrid",
            "--C", "1e308", "--D", "1e308", "--A", "1e308", "--threshold=1e308",
        ],
    ],
    ids=["sweep", "hybrid"],
)
def test_penalties_whose_net_inputs_overflow_exit_2(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NumPy RuntimeWarning fails the test
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "overflow" in err and "Traceback" not in err


_BIG = "1" + "0" * 400  # past the largest float
_CITIES = '{"label": "B", "x": 1, "y": 0}, {"label": "C", "x": 0, "y": 1}'
# files that Python's float(), int() or json module, or UTF-8 decoding, cannot read
_UNREADABLE = {
    "coordinate-401-digits": f'{{"cities": [{{"label": "A", "x": {_BIG}, "y": 0}}, {_CITIES}]}}',
    "matrix-401-digits": (
        f'{{"cities": [{{"label": "A", "x": 0, "y": 0}}, {_CITIES}], '
        f'"matrix": [[0, {_BIG}, 1], [{_BIG}, 0, 1], [1, 1, 0]]}}'
    ),
    "integer-5001-digits": (
        f'{{"cities": [{{"label": "A", "x": {"9" * 5001}, "y": 0}}, {_CITIES}]}}'
    ),
    "nested-100000": "[" * 100_000,
    "not-utf8": b'{"id": "\xff", "cities": []}',
}


@pytest.mark.parametrize("name", sorted(_UNREADABLE))
@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--method", "exact", "--instance", "F"),
        ("solve", "--method", "greedy", "--instance", "F"),
        ("solve", "--method", "sa", "--iters", "50", "--instance", "F"),
        ("solve", "--method", "hnn", "--instance", "F"),
        ("sweep", "--c-grid", "90", "--d-grid", "10", "--trials", "2", "--instance", "F"),
        ("plot", "--instance", "paper8", "--tour", "F"),
        ("plot", "--instance", "paper8", "--grid", "F"),
    ],
    ids=["exact", "greedy", "sa", "hnn", "sweep", "plot-tour", "plot-grid"],
)
def test_unreadable_files_exit_2(tmp_path, capsys, name, argv):
    """Numbers past Python's limits, deep nesting and bytes that are not
    UTF-8 are input errors wherever a file is read, not tracebacks."""
    path = tmp_path / "input"
    content = _UNREADABLE[name]
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    else:
        path.write_bytes(content)
    argv = [str(path) if a == "F" else a for a in argv]
    if argv[0] == "plot":
        argv += ["--out", str(tmp_path / "x.svg")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


_ODD_COORDS = st.sampled_from(
    [5e-324, -5e-324, 2.2e-308, 1e154, 1e200, 1e308, -1e308, 1.7e308, float("nan"),
     float("inf"), 2**70, 10**400, -(10**400), "1.5", "x", None, True, [], {}]
)
_ODD_ENTRIES = st.sampled_from([-1.0, 1e308, float("nan"), float("-inf"), 10**400, "1", None])


def _instance_text(data):
    """The text or bytes of an instance file: n = 2-6 cities on a small
    grid (so often coincident), with up to three odd changes."""
    n = data.draw(st.sampled_from([3, 4, 5, 6, 2]), label="n")
    point = st.tuples(st.integers(0, 3), st.integers(0, 3))
    points = data.draw(st.lists(point, min_size=n, max_size=n), label="points")
    cities = [{"label": "ABCDEF"[i], "x": x, "y": y} for i, (x, y) in enumerate(points)]
    payload = {"id": "fuzz", "cities": cities}
    kinds = ["coordinate", "type", "missing", "duplicate", "matrix", "top", "bytes"]
    odd = data.draw(st.sets(st.sampled_from(kinds), max_size=3), label="odd")
    for kind in sorted(odd - {"top", "bytes"}):
        city = cities[data.draw(st.integers(0, n - 1))]
        if kind == "coordinate":
            city[data.draw(st.sampled_from("xy"))] = data.draw(_ODD_COORDS, label="coordinate")
        elif kind == "type":
            field = data.draw(st.sampled_from(["label", "x", "y", "id", "seed", "cities"]))
            value = data.draw(st.sampled_from([None, [], {}, "7", 3.5, [[1]]]), label=field)
            (payload if field in ("id", "seed", "cities") else city)[field] = value
        elif kind == "missing":
            field = data.draw(st.sampled_from(["label", "x", "y", "cities"]), label="missing")
            (payload if field == "cities" else city).pop(field, None)
        elif kind == "duplicate":
            city["label"] = "A"
        elif kind == "matrix":
            size = n + data.draw(st.sampled_from([0, 0, 0, 1, -1]), label="size")
            matrix = [[float(abs(i - j)) for j in range(size)] for i in range(size)]
            change = data.draw(st.sampled_from(["none", "ragged", "asymmetric", "entry"]))
            if size > 1 and change == "ragged":
                matrix[1].pop()
            elif size > 1 and change == "asymmetric":
                matrix[0][1] += 1.0
            elif size > 1 and change == "entry":
                matrix[0][1] = matrix[1][0] = data.draw(_ODD_ENTRIES, label="entry")
            payload["matrix"] = matrix
    if "top" in odd:
        payload = data.draw(st.sampled_from([[], "cities", 3, None]), label="top")
    text = json.dumps(payload)
    if "bytes" in odd:
        text = data.draw(
            st.sampled_from([text[: len(text) // 2], "[" * 100_000, text.replace('"', "\x00", 1)])
        )
        if data.draw(st.booleans(), label="not-utf8"):
            return text.encode() + b"\xff\xfe"
    return text.encode()


@settings(max_examples=250, deadline=None)
@given(
    argv=st.sampled_from(
        [
            ["solve", "--method=exact"],
            ["solve", "--method=greedy"],
            ["solve", "--method=sa", "--iters=300"],
            ["solve", "--method=hnn", "--max-sweeps=50"],
            ["sweep", "--c-grid=90", "--d-grid=10,100", "--trials=3", "--max-sweeps=50"],
        ]
    ),
    data=st.data(),
)
def test_instance_files_fuzz(tmp_path_factory, argv, data):
    """Generated instance files (wrong types, missing fields, duplicate
    labels, coincident cities, n = 2-6, subnormal, extreme and huge-integer
    coordinates, bad matrices, invalid UTF-8, deep nesting) give exit 0, 1
    or 2, never a traceback, and the same stdout and CSV twice."""
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "instance.json"
    path.write_bytes(_instance_text(data))
    _fuzz_twice([*argv, f"--instance={path}"], folder)


@pytest.mark.parametrize(
    "argv",
    [("solve", "--method", method, "--iters", "50") for method in METHODS]
    + [("sweep", "--c-grid", "90", "--d-grid", "10,100", "--trials", "3")],
    ids=[*METHODS, "sweep"],
)
def test_each_command_builds_one_distance_matrix(capsys, monkeypatch, argv):
    """Counted under every name a package module holds it by, the distance
    matrix is built once per command."""
    calls = []
    distance_matrix = T.distance_matrix

    def counting(inst):
        calls.append(inst.id)
        return distance_matrix(inst)

    for name, module in list(sys.modules.items()):
        holds = vars(module).get("distance_matrix") is distance_matrix
        if name.split(".")[0] == "tsphnn" and holds:
            monkeypatch.setattr(module, "distance_matrix", counting)
    code, _, _ = run_cli(capsys, *argv[:1], "--instance", "paper8", *argv[1:])
    assert code in (0, 1) and calls == ["paper8"]


def test_solve_sa_flag_defaults_are_sa_config_defaults():
    args = cli.build_parser().parse_args(["solve", "--instance", "paper8", "--method", "sa"])
    parsed = T.SaConfig(args.t0, args.cooling, args.iters, args.swaps, args.seed)
    assert parsed == T.SaConfig()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "instance, flags",
    [
        ("paper8", ()),
        ("cityset1", ("--seed", "5", "--D", "10", "--iters", "3000", "--swaps", "2")),
        ("matrix4", ("--seed", "2", "--t0", "20", "--cooling", "0.99", "--max-sweeps", "3")),
    ],
    ids=["defaults", "gentle-D", "short"],
)
def test_library_solve_gives_the_cli_record(capsys, method, instance, flags):
    """``pipeline.solve`` with the configs the flags name answers with the
    record ``tsphnn solve`` prints: same tour, length and extra fields."""
    code, out, _ = run_cli(capsys, "solve", "--instance", instance, "--method", method, *flags)
    args = cli.build_parser().parse_args(
        ["solve", "--instance", instance, "--method", method, *flags]
    )
    sa = T.SaConfig(args.t0, args.cooling, args.iters, args.swaps, args.seed)
    hp = T.HopfieldParams(
        a_pen=args.A, b_pen=args.B, c_pen=args.C, d_pen=args.D,
        threshold=args.threshold, max_sweeps=args.max_sweeps, seed=args.seed,
    )
    inst = T.get_builtin(instance)
    # With no flags, the library's own defaults must give the same record.
    report = T.solve(inst, method, sa, hp) if flags else T.solve(inst, method)
    record = {"method": method, "instance": inst.id, "n": inst.n, "seed": args.seed}
    record["valid"] = report.tour is not None
    if report.tour is not None:
        record.update(length=report.length, tour=report.tour.order)
    cli._emit({**record, **report.extras})
    assert capsys.readouterr().out == out
    assert code == (0 if report.tour is not None else 1)
    assert (report.hnn_result is not None) == (method == "hnn")


@pytest.mark.parametrize("n", [10**24, np.iinfo(np.intp).max // 16 + 1])
def test_gen_refuses_a_count_numpy_cannot_size(tmp_path, capsys, n):
    path = tmp_path / "huge.json"
    code, out, err = run_cli(capsys, "gen", "--n", str(n), "--out", str(path))
    assert code == 2 and out == "" and not path.exists()
    assert err.startswith("error: n must be <= ") and "Traceback" not in err
