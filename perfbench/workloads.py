"""The three workloads: which instances, which commands, which seeds.

Random instances are drawn by the benchmark's own RNG from the workload
seed and written as instance files, so the program receives only the
generated inputs.  Solver and sweep seeds derive from the same seed.
Each workload has a ``smoke`` variant of the same shape at a tiny size.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

HEURISTICS = ("greedy", "2opt", "3opt")
STOCHASTIC = (("sa", ()), ("hnn", ("--D", "10")), ("hnn", ()), ("hybrid", ()))

# name -> builtin instances, random instance sizes, exact oracle on/off
SOLVE_PLANS = {
    "paper-small": (("cityset1", "paper8", "matrix4"), (10, 10, 10), True),
    "random-large": ((), (30, 50), False),
}
SMOKE_SOLVE_PLANS = {
    "paper-small": (("paper8", "matrix4"), (7,), True),
    "random-large": ((), (12,), False),
}

# (instance, c grid, d grid, trials, extra flags); "random" is a generated file.
SWEEP_PLAN = (
    ("cityset1", "90,100", "10,100,110,120", 150, ()),
    ("paper8", "90", "10,100", 100, ("--success-metric", "optimal")),
    (("random", 20), "90", "10,100", 40, ()),
)
SMOKE_SWEEP_PLAN = (
    ("cityset1", "90", "10,100", 4, ()),
    ("paper8", "90", "10", 3, ("--success-metric", "optimal")),
    (("random", 8), "90", "10", 3, ()),
)

WORKLOADS = ("paper-small", "random-large", "penalty-sweep")
SOLVER_SEEDS = 2
SMOKE_SA_ITERS = ("--iters", "500")


@dataclass(frozen=True)
class Command:
    cid: str
    argv: Tuple[str, ...]
    kind: str  # "solve" or "sweep"
    method: str  # solve method, or "sweep"
    instance: str  # builtin name or instance file path
    csv_path: Optional[str] = None
    cells: int = 0
    trials: int = 0


def _random_instance(rng: np.random.Generator, n: int, ident: str) -> dict:
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    return {
        "id": ident,
        "seed": None,
        "cities": [
            {"label": f"c{i}", "x": float(x), "y": float(y)} for i, (x, y) in enumerate(pts)
        ],
    }


def write_instance(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def build(workload: str, seed: int, workdir: Path, smoke: bool = False):
    """Write the workload's instance files under ``workdir`` and return
    the command list, each command a ``tsphnn`` argv."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {list(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    inst_rng = np.random.default_rng([seed, 0])
    seed_rng = np.random.default_rng([seed, 1])

    def new_instance(n, tag):
        path = workdir / f"{tag}-n{n}.json"
        write_instance(_random_instance(inst_rng, n, f"{workload}-s{seed}-{tag}-n{n}"), path)
        return str(path)

    commands = []

    def add(argv, **fields):
        shown = [a.replace(str(workdir) + "/", "") for a in argv]
        cid = f"{len(commands):03d} " + " ".join(shown)
        commands.append(Command(cid=cid, argv=tuple(argv), **fields))

    if workload in SOLVE_PLANS:
        builtins, sizes, exact = (SMOKE_SOLVE_PLANS if smoke else SOLVE_PLANS)[workload]
        instances = list(builtins) + [new_instance(n, f"r{i}") for i, n in enumerate(sizes)]
        solver_seeds = [int(s) for s in seed_rng.integers(0, 2**31 - 1, SOLVER_SEEDS)]
        for inst in instances:
            for method in (("exact",) if exact else ()) + HEURISTICS:
                add(["solve", "--instance", inst, "--method", method],
                    kind="solve", method=method, instance=inst)
            for s in solver_seeds:
                for method, flags in STOCHASTIC:
                    argv = ["solve", "--instance", inst, "--method", method,
                            "--seed", str(s), *flags]
                    if smoke and method in ("sa", "hybrid"):
                        argv += SMOKE_SA_ITERS
                    add(argv, kind="solve", method=method, instance=inst)
    else:
        for i, (inst, c_grid, d_grid, trials, flags) in enumerate(
            SMOKE_SWEEP_PLAN if smoke else SWEEP_PLAN
        ):
            if isinstance(inst, tuple):
                inst = new_instance(inst[1], f"r{i}")
            csv_path = str(workdir / f"sweep{i}.csv")
            sweep_seed = int(seed_rng.integers(0, 2**31 - 1))
            argv = ["sweep", "--instance", inst, "--c-grid", c_grid, "--d-grid", d_grid,
                    "--trials", str(trials), "--seed", str(sweep_seed), *flags,
                    "--out", csv_path]
            cells = len(c_grid.split(",")) * len(d_grid.split(","))
            add(argv, kind="sweep", method="sweep", instance=inst, csv_path=csv_path,
                cells=cells, trials=trials)
    return commands
