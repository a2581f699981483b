"""The benchmark's recorded answers, checked in-process for golden seeds 0,
21, 42 and 63.

Each workload of ``perfbench/workloads.py`` is built for each seed under a
temporary directory and run through ``cli.main``; the digest of every
command's stdout and sweep CSV (``perfbench/checks.py``) must equal the one
recorded in ``perfbench/golden/<workload>.json``.  An answer change then
fails here, not only in the benchmark.  The names the benchmark reaches into
the package by must resolve too.  The benchmark's files are only read.
"""

import contextlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from tsphnn import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")
tracing = _load("tracing")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_golden_seed_0(workload, tmp_path):
    golden = json.loads((PERFBENCH / "golden" / f"{workload}.json").read_text())["seeds"]["0"]
    digests = []
    for cmd in workloads.build(workload, 0, tmp_path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(cmd.argv))
        csv_text = Path(cmd.csv_path).read_text(encoding="utf-8") if cmd.csv_path else ""
        digests.append(checks.digest(out.getvalue(), csv_text))
    assert digests == golden


@pytest.mark.parametrize("seed", [21, 42, 63])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_golden_later_seeds(workload, seed, tmp_path):
    """Golden seeds spread over the recorded 0-63, checked as seed 0 is."""
    seeds = json.loads((PERFBENCH / "golden" / f"{workload}.json").read_text())["seeds"]
    golden = seeds[str(seed)]
    digests = []
    for cmd in workloads.build(workload, seed, tmp_path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(cmd.argv))
        csv_text = Path(cmd.csv_path).read_text(encoding="utf-8") if cmd.csv_path else ""
        digests.append(checks.digest(out.getvalue(), csv_text))
    assert digests == golden


@pytest.mark.parametrize("module, attr", [t[1:] for t in tracing.TARGETS])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_setup_hooks_exist():
    from tsphnn import _kernels, builtin

    assert isinstance(_kernels.NUMBA_ENABLED, bool)
    assert callable(cli.build_parser) and callable(cli.main)
    assert builtin.BUILTIN_INSTANCES and callable(builtin.get_builtin)
