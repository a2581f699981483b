"""Benchmark the ``tsphnn`` command line on three seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-small --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-golden 0-63 [--workload NAME]

One process runs the workload's command list through ``tsphnn.cli.main``
on one thread (a closed loop with one client), again and again until
``--seconds`` is spent, and checks every output: the contract checks in
``checks.py`` plus byte-equality of stdout and sweep CSV with the golden
digests recorded under ``golden/`` (and with the run's first pass).

``--trace 0`` reports the end-to-end metrics: time of one pass of the
command list (raw, and rescaled by the speed probe in ``speed.py`` so
that drift in machine speed cancels), set-up time of a fresh
interpreter, per-method time, peak RSS, solution quality and failure
counts.  ``--trace 1`` alternates
untraced passes with passes traced by ``tracing.Tracer`` and reports
per-layer metrics, the tracing overhead and the ``sweep --workers 2``
timing and identity check.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units reported there are the ones listed in ``BENCHMARK.json``.
A fuller record goes to ``perfbench/out/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import checks
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden"

SETUP_SAMPLES = 11
# Probe budget around each command: a share of the command's own time,
# never below PROBE_MIN_S; the probe before the first command runs
# PROBE_FIRST_S.  About 5 % of a run goes to probing.
PROBE_SHARE = 0.05
PROBE_MIN_S = 0.002
PROBE_FIRST_S = 0.05
# Interpreter start to "CLI ready": import, builtin instances, parser, and
# the JIT warm-up the kernels need when numba is active.
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1])\n"
    "from tsphnn import _kernels, cli\n"
    "from tsphnn.builtin import BUILTIN_INSTANCES, get_builtin\n"
    "[get_builtin(name) for name in BUILTIN_INSTANCES]\n"
    "cli.build_parser()\n"
    "if _kernels.NUMBA_ENABLED: _kernels.warmup()\n"
    "print('ready', flush=True)\n"
)

# Every end-to-end metric the benchmark computes, with its unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "wall_s": "s",
    "speed_probe_us": "us",
    "exact_s": "s",
    "sa_s": "s",
    "hnn_s": "s",
    "hybrid_s": "s",
    "local_search_s": "s",
    "sweep_s": "s",
    "sweep_trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "gap_pct": "%",
    "hnn_valid_rate": "ratio",
    "fail_rate": "ratio",
    "answers_changed": "count",
}
METHOD_METRICS = {
    "exact": "exact_s",
    "sa": "sa_s",
    "hnn": "hnn_s",
    "hybrid": "hybrid_s",
    "greedy": "local_search_s",
    "2opt": "local_search_s",
    "3opt": "local_search_s",
    "sweep": "sweep_s",
}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.startswith("us_per_"):
        return "us"
    if last.endswith(("_ratio", "_speedup")):
        return "ratio"
    if last.endswith("_pct"):
        return "%"
    if last == "bytes":
        return "B"
    return "count"


def source_digest() -> str:
    """Identifies the measured code where no git metadata is at hand."""
    h = hashlib.sha256()
    for path in sorted((SRC / "tsphnn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


def git_commit() -> str:
    """HEAD of the checkout's git metadata, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(samples: int):
    """Median seconds from spawning a fresh interpreter until the CLI is ready."""
    times = []
    for i in range(samples + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait()
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError("set-up probe did not reach the ready point")
        if i:  # the first spawn also writes bytecode caches; not timed
            times.append(elapsed)
    return statistics.median(times), times


class Runner:
    """Runs commands in-process and checks their outputs."""

    def __init__(self, cli):
        self.cli = cli
        self._instances = {}

    def execute(self, cmd, extra=()):
        """Run one command; returns (exit code, stdout, csv text, seconds, error)."""
        if cmd.csv_path and os.path.exists(cmd.csv_path):
            os.remove(cmd.csv_path)
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main([*cmd.argv, *extra])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed command, not a crash
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - t0
        csv_text = ""
        if cmd.csv_path and os.path.exists(cmd.csv_path):
            csv_text = Path(cmd.csv_path).read_text(encoding="utf-8")
        return code, out.getvalue(), csv_text, seconds, error

    def run_pass(self, commands, tracer=None, extra=()):
        """Run the commands back to back with a speed probe around each.

        Returns (results, rescaled seconds per command).
        """
        results = []
        probes = [speed.probe(PROBE_FIRST_S)]
        for cmd in commands:
            if tracer is not None:
                tracer.command_id = cmd.cid
            results.append(self.execute(cmd, extra))
            probes.append(speed.probe(max(PROBE_MIN_S, PROBE_SHARE * results[-1][3])))
        return results, speed.rescale([r[3] for r in results], probes)

    def instance(self, ref):
        """(distance matrix, 1-tree bound) for a builtin name or file path."""
        if ref not in self._instances:
            if os.path.exists(ref):
                payload = json.loads(Path(ref).read_text(encoding="utf-8"))
            else:
                from tsphnn.builtin import BUILTIN_INSTANCES

                inst = BUILTIN_INSTANCES[ref]
                payload = {
                    "cities": [{"x": c.x, "y": c.y} for c in inst.cities],
                    "matrix": None if inst.matrix is None else inst.matrix.tolist(),
                }
            d = checks.distances(payload)
            self._instances[ref] = (d, checks.one_tree_bound(d))
        return self._instances[ref]

    def evaluate(self, commands, results):
        """Check one pass; returns a record per command."""
        records = []
        by_instance = {}
        for cmd, (code, stdout, csv_text, seconds, error) in zip(commands, results):
            d, bound = self.instance(cmd.instance)
            rec = {
                "cid": cmd.cid,
                "method": cmd.method,
                "code": code,
                "seconds": seconds,
                "digest": checks.digest(stdout, csv_text),
                "bound": bound,
            }
            try:
                if error is not None:
                    rec["problems"] = ["raised: " + error.strip().splitlines()[-1]]
                elif cmd.kind == "solve":
                    rec["problems"], parsed = checks.check_solve(cmd, code, stdout, d, bound)
                    rec["parsed"] = parsed
                    by_instance.setdefault(cmd.instance, []).append((cmd, parsed))
                else:
                    rec["problems"], rec["rows"] = checks.check_sweep(
                        cmd, code, stdout, csv_text, bound
                    )
            except (KeyError, ValueError) as exc:
                rec["problems"] = [f"malformed output: {exc!r}"]
            records.append(rec)
        cross = {}
        for pairs in by_instance.values():
            cross.update(checks.cross_check(pairs))
        for rec in records:
            rec["problems"] += cross.get(rec["cid"], [])
        return records


def pass_metrics(records, ref_seconds):
    """End-to-end metrics of one checked pass."""
    m = {"wall_s": 0.0, "wall_ref_s": sum(ref_seconds)}
    for metric in set(METHOD_METRICS.values()):
        m[metric] = 0.0
    gaps = []
    nets = valid_nets = 0.0
    trials = 0
    for rec in records:
        m["wall_s"] += rec["seconds"]
        m[METHOD_METRICS[rec["method"]]] += rec["seconds"]
        parsed = rec.get("parsed", {})
        if rec["method"] == "hnn":
            nets += 1
            valid_nets += parsed.get("valid", False)
        if "hnn_valid" in parsed:
            nets += 1
            valid_nets += parsed["hnn_valid"]
        if rec["method"] not in ("exact", "sweep") and "length" in parsed:
            gaps.append(parsed["length"] / rec["bound"] - 1)
        for row in rec.get("rows", []):
            trials += int(row["trials"])
            if row["mean"]:
                gaps.append(float(row["mean"]) / rec["bound"] - 1)
            # Sweep success is "converged to a valid grid"; the optimal-tour
            # metric is stricter and says nothing about validity, so skip it.
            if "optimal" not in rec["cid"]:
                nets += int(row["trials"])
                valid_nets += float(row["success_rate"]) * int(row["trials"])
    m["sweep_trials_per_s"] = trials / m["sweep_s"] if m["sweep_s"] else 0.0
    m["gap_pct"] = 100 * statistics.fmean(gaps) if gaps else 0.0
    m["hnn_valid_rate"] = valid_nets / nets if nets else 0.0
    return m


def load_golden(workload, seed):
    path = GOLDEN / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get("seeds", {}).get(str(seed))


def compare(checked_passes, golden):
    """Failed executions, and commands whose output ever differs from the
    golden digest (or, without one for this seed, from the first pass)."""
    reference = golden or [r["digest"] for r in checked_passes[0]]
    failed = sum(1 for records in checked_passes for r in records if r["problems"])
    changed = set()
    for records in checked_passes:
        if len(records) != len(reference):
            return failed, len(reference)
        changed.update(i for i, r in enumerate(records) if r["digest"] != reference[i])
    return failed, len(changed)


def workers2_check(runner, commands, first_results, ref_seconds):
    """Time ``sweep --workers 2`` and require output identical to one worker.

    Returns (raw seconds, speed-up over one worker in rescaled time, problems).
    """
    pairs = [
        (c, r, t) for c, r, t in zip(commands, first_results, ref_seconds) if c.kind == "sweep"
    ]
    if not pairs:
        return 0.0, 0.0, []
    results, ref2 = runner.run_pass([c for c, _, _ in pairs], extra=("--workers", "2"))
    problems = [
        f"{cmd.cid}: --workers 2 output differs from --workers 1"
        for (cmd, one, _), two in zip(pairs, results)
        if two[4] or two[0] != 0 or two[1:3] != one[1:3]
    ]
    return sum(r[3] for r in results), sum(t for _, _, t in pairs) / sum(ref2), problems


def median_dict(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def run_workload(workload, seed, seconds, trace, workdir, smoke=False):
    """Run one workload; returns (summary dict, spans of the traced passes)."""
    from tsphnn import cli

    commands = workloads.build(workload, seed, workdir, smoke=smoke)
    runner = Runner(cli)
    setup_s, setup_samples = measure_setup(3 if smoke else SETUP_SAMPLES)
    golden = None if smoke else load_golden(workload, seed)

    plain, traced, tracers = [], [], []
    started = time.perf_counter()
    while True:
        plain.append(runner.run_pass(commands))
        if trace:
            tracer = tracing.Tracer()
            with tracer:
                traced.append(runner.run_pass(commands, tracer))
            tracers.append(tracer)
        spent = time.perf_counter() - started
        if spent * (1 + 1 / len(plain)) > seconds:
            break

    checked = [runner.evaluate(commands, results) for results, _ in plain + traced]
    failed, changed = compare(checked, golden)
    extra_problems = []
    metrics = median_dict([pass_metrics(recs, ref) for recs, (_, ref) in zip(checked, plain)])
    metrics["speed_probe_us"] = statistics.median(
        1e6 * speed.REFERENCE_UNIT_S * sum(r[3] for r in results) / sum(ref)
        for results, ref in plain
    )
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(len(recs) for recs in checked)
    metrics["fail_rate"] = failed / attempted
    metrics["answers_changed"] = changed
    spans = []
    if trace:
        layers = median_dict(
            [t.layer_metrics(sum(r[3] for r in res)) for t, (res, _) in zip(tracers, traced)]
        )
        untraced = statistics.median(sum(ref) for _, ref in plain)
        layers["trace.overhead_pct"] = 100 * (
            statistics.median(sum(ref) for _, ref in traced) / untraced - 1
        )
        busy, speedup, extra_problems = workers2_check(runner, commands, *plain[0])
        layers["pipeline.sweep.workers2_busy_s"] = busy
        layers["pipeline.sweep.workers2_speedup"] = speedup
        attempted += sum(1 for c in commands if c.kind == "sweep")
        failed += len(extra_problems)
        metrics.update(layers)
        for t in tracers:
            spans += t.span_records(offset=len(spans))

    from tsphnn import _kernels

    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "numba_active": bool(_kernels.NUMBA_ENABLED),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source": source_digest(),
        "golden": "recorded" if golden else "absent for this seed",
        "commands": len(commands),
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "answers_changed": changed,
        "setup_samples_s": setup_samples,
        "metrics": metrics,
        "problems": sorted(
            {f"{r['cid']}: {p}" for recs in checked for r in recs for p in r["problems"]}
        )
        + extra_problems,
        "pass_seconds": [{r["cid"]: r["seconds"] for r in recs} for recs in checked],
    }
    return summary, spans


def print_summary(summary):
    meta = ("workload", "seed", "trace", "numba_active", "python", "numpy", "nproc",
            "commit", "source", "golden", "commands", "passes", "traced_passes")
    print("# tsphnn benchmark: " + " ".join(f"{k}={summary[k]}" for k in meta))
    for problem in summary["problems"]:
        print(f"# problem: {problem}")
    metrics = summary["metrics"]
    for name in [*END_TO_END_UNITS, *sorted(set(metrics) - set(END_TO_END_UNITS))]:
        unit = END_TO_END_UNITS.get(name) or layer_unit(name)
        print(f"{name} = {metrics[name]:.6g} {unit}")


def result_line(summary, names):
    """The final JSON line: the listed metrics only, with their units."""
    metrics = {
        m["name"]: {"value": summary["metrics"][m["name"]], "unit": m["unit"]} for m in names
    }
    return json.dumps(
        {
            "correct": summary["failed"] == 0 and summary["answers_changed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": metrics,
        }
    )


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_golden(seeds, names):
    """Record the output digests of every command, checked, for each seed."""
    from tsphnn import cli

    GOLDEN.mkdir(exist_ok=True)
    for workload in names:
        path = GOLDEN / f"{workload}.json"
        table = json.loads(path.read_text())["seeds"] if path.exists() else {}
        for seed in seeds:
            commands = workloads.build(workload, seed, OUT / "golden" / workload)
            runner = Runner(cli)
            results, _ = runner.run_pass(commands)
            records = runner.evaluate(commands, results)
            bad = [f"{r['cid']}: {p}" for r in records for p in r["problems"]]
            if bad:
                raise SystemExit(f"{workload} seed {seed} fails its checks: {bad}")
            table[str(seed)] = [r["digest"] for r in records]
            print(f"{workload} seed {seed}: {len(records)} commands", flush=True)
        write_golden(path, table)


def write_golden(path, table):
    """One line per seed, so a re-recording diffs by seed."""
    rows = [f'  "{seed}": {json.dumps(table[seed])}' for seed in sorted(table, key=int)]
    path.write_text(
        f'{{"recorded_at": "{git_commit()}", "seeds": {{\n' + ",\n".join(rows) + "\n}}\n"
    )


def smoke(bench):
    """Tiny run of every workload: names present, checks pass, inputs repeat."""
    wanted = set(END_TO_END_UNITS) | {m["name"] for m in bench["per_layer"]}
    problems = []
    for workload in workloads.WORKLOADS:
        dirs = [OUT / "smoke" / f"{workload}-{tag}" for tag in "ab"]
        for d in dirs:
            workloads.build(workload, 7, d, smoke=True)
        for f in sorted(p.name for p in dirs[0].glob("*.json")):
            if (dirs[0] / f).read_bytes() != (dirs[1] / f).read_bytes():
                problems.append(f"{workload}: instance file {f} differs for one seed")
        summary, _ = run_workload(workload, 7, 0, 1, dirs[0], smoke=True)
        missing = wanted - set(summary["metrics"])
        if missing:
            problems.append(f"{workload}: missing metrics {sorted(missing)}")
        if summary["failed"] or summary["answers_changed"]:
            problems.append(f"{workload}: checks failed: {summary['problems']}")
        print(f"smoke {workload}: {summary['commands']} commands, "
              f"failed={summary['failed']} answers_changed={summary['answers_changed']}")
    for problem in problems:
        print(f"smoke problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of every workload")
    parser.add_argument("--record-golden", metavar="LO-HI", help="record golden digests")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "tsphnn" / "__init__.py").is_file():
        print(f"error: no tsphnn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.smoke:
        return smoke(bench)
    if args.record_golden:
        record_golden(parse_seeds(args.record_golden), args.workload or workloads.WORKLOADS)
        return 0
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    workload = args.workload[0]
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    summary, spans = run_workload(workload, args.seed, seconds, args.trace, OUT / "work" / tag)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if spans:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(spans) + "\n")
    print_summary(summary)
    print(result_line(summary, bench["per_layer" if args.trace else "end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
