import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsphnn as T
from tsphnn import cli
from tsphnn.annealing import MAX_ITERATIONS
from tsphnn.cli import main


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
    def anneal(*args, **kwargs):
        raise MemoryError("Unable to allocate 21.8 TiB")

    monkeypatch.setattr(cli, "anneal", anneal)
    code, out, err = run_cli(capsys, "solve", "--instance", "paper8", "--method", "sa")
    assert code == 2 and out == "" and "21.8 TiB" in err


def test_solve_oversized_sa_trace_exits_2(capsys, monkeypatch):
    """A run whose 32-byte-per-step SA trace would pass the bound is refused
    with a typed error before anything is annealed or allocated."""
    from tsphnn import pipeline
    from tsphnn.annealing import MAX_ITERATIONS

    def anneal(*args, **kwargs):
        raise AssertionError("anneal started")

    monkeypatch.setattr(cli, "anneal", anneal)
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


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "default: 20000" in out  # --iters
    assert "default: 90.0" in out  # --C


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
