"""Benchmark the JIT-compiled kernels against the pure-Python fallback.

The execution path is chosen at import time from the TSPHNN_NO_NUMBA
environment variable, so this script re-invokes itself in two worker
subprocesses (one per path), times each kernel, checks that both paths
computed the same answers, and prints a speedup table.  When numba cannot
be imported, only the fallback timings are printed.

Usage: python benchmarks/bench_kernels.py
"""

import importlib.util
import json
import os
import subprocess
import sys
import time

import numpy as np


def _time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_worker():
    import tsphnn as T
    from tsphnn import _kernels

    results = {"numba": _kernels.NUMBA_ENABLED, "timings": {}, "checks": {}}

    inst10 = T.generate_random_instance(10, seed=1)
    m10 = T.distance_matrix(inst10)
    inst30 = T.generate_random_instance(30, seed=2)
    m30 = T.distance_matrix(inst30)
    inst50 = T.generate_random_instance(50, seed=3)
    m50 = T.distance_matrix(inst50)

    # one throwaway call per kernel so JIT compilation is not timed
    _kernels.warmup()

    def bench(name, fn, check):
        results["timings"][name] = _time(fn)
        results["checks"][name] = check()

    m12 = T.distance_matrix(T.generate_random_instance(12, seed=6))
    for label, m in (("held_karp n=10", m10), ("held_karp n=12", m12)):
        found = []
        bench(label, lambda: found.append(T.brute_force_optimum(m)), lambda: repr(found[-1]))

    greedy30 = T.greedy_nearest_neighbor(m30, 0)
    out2 = None

    def two():
        nonlocal out2
        out2 = T.two_opt(m30, greedy30)

    bench("two_opt n=30", two, lambda: repr(T.tour_length(m30, out2)))

    out3 = None

    def three():
        nonlocal out3
        out3 = T.three_opt(m30, greedy30)

    bench("three_opt n=30", three, lambda: repr(T.tour_length(m30, out3)))

    cfg = T.SaConfig(t0=1.0, cooling_rate=0.9995, iterations=20000, swap_count=1, seed=4)
    start = T.Tour(tuple(range(50)))
    sa_len = None

    def sa():
        nonlocal sa_len
        _, sa_len, _ = T.anneal(m50, start, cfg)

    bench("anneal n=50 iters=20k", sa, lambda: repr(sa_len))

    m20 = T.normalize_distances(T.distance_matrix(T.generate_random_instance(20, seed=5)))
    hp = T.HopfieldParams(d_pen=10.0, max_sweeps=100)
    total = None

    def hop():
        nonlocal total
        total = 0.0
        for seed in range(20):
            res = T.run_hopfield(m20, T.HopfieldParams(d_pen=10.0, max_sweeps=100, seed=seed))
            total += float(res.energy_trace.sum())

    bench("hopfield n=20 x20 runs", hop, lambda: repr(total))

    print(json.dumps(results))


def _worker(label, no_numba):
    env = dict(os.environ, TSPHNN_NO_NUMBA=no_numba)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker"],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"{label} worker failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_parent():
    fallback = _worker("fallback", "1")
    assert fallback["numba"] is False, "fallback path still used numba"
    jit = _worker("numba", "0") if importlib.util.find_spec("numba") else None
    if jit is None or not jit["numba"]:
        print("numba not installed: fallback-only timings, nothing to compare")
        print(f"{'kernel':<26} {'fallback':>10}")
        for name, slow in fallback["timings"].items():
            print(f"{name:<26} {slow:>9.4f}s")
        return

    mismatches = [
        name for name in jit["checks"] if jit["checks"][name] != fallback["checks"][name]
    ]
    print(f"{'kernel':<26} {'numba':>10} {'fallback':>10} {'speedup':>8}")
    for name, fast in jit["timings"].items():
        slow = fallback["timings"][name]
        print(f"{name:<26} {fast:>9.4f}s {slow:>9.4f}s {slow / fast:>7.1f}x")
    if mismatches:
        raise SystemExit(f"result mismatch between paths: {mismatches}")
    print("all kernel results identical across paths")


if __name__ == "__main__":
    if "--worker" in sys.argv:
        run_worker()
    else:
        run_parent()
