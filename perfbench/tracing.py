"""In-memory span tracer that wraps the public functions of each tsphnn module.

The tracer patches module attributes from outside the package: every
reference to a traced function in any loaded ``tsphnn`` module (including
names imported with ``from .x import y``) is replaced by a timing wrapper
for the duration of a traced pass, then restored.  Each call records a
span ``(name, start, end, parent, command_id)``; spans nest through a
stack, so a layer's self time is its busy time minus that of its direct
children.  Counters are recorded at the same boundaries, so ratios are
measured where the work happens.
"""

import math
import sys
import time
from collections import defaultdict

# (span name, module, attribute).  ``_kernels`` is not listed: its cost is
# charged to the module that calls it.
TARGETS = (
    ("instance.load_instance", "tsphnn.instance", "load_instance"),
    ("instance.distance_matrix", "tsphnn.instance", "distance_matrix"),
    ("instance.normalize_distances", "tsphnn.instance", "normalize_distances"),
    ("tour.brute_force_optimum", "tsphnn.tour", "brute_force_optimum"),
    ("tour.decode", "tsphnn.tour", "decode_grid"),
    ("annealing.anneal", "tsphnn.annealing", "anneal"),
    ("hopfield.build_weights", "tsphnn.hopfield", "build_weights"),
    ("hopfield.run", "tsphnn.hopfield", "run"),
    ("hopfield.energy", "tsphnn.hopfield", "energy"),
    ("baselines.greedy_nearest_neighbor", "tsphnn.baselines", "greedy_nearest_neighbor"),
    ("baselines.two_opt", "tsphnn.baselines", "two_opt"),
    ("baselines.three_opt", "tsphnn.baselines", "three_opt"),
    ("pipeline.solve_hybrid", "tsphnn.pipeline", "solve_hybrid"),
    ("pipeline.sweep", "tsphnn.pipeline", "sweep"),
    ("pipeline.render_report", "tsphnn.pipeline", "render_report"),
    ("cli.main", "tsphnn.cli", "main"),
)


def _count_brute_force(counters, args, kwargs, result):
    n = args[0].n
    counters["tour.brute_force_optimum.tours_scored"] += math.factorial(n - 1) // 2


def _count_anneal(counters, args, kwargs, result):
    cfg = args[2]
    trace = result[2]
    cur = trace.current_length
    counters["annealing.anneal.steps"] += cfg.iterations
    # Moves are read off the public trace: a step moved when the walker's
    # length changed from the previous step (the first step has no
    # predecessor on the trace and is not counted).
    counters["annealing.anneal.moved"] += int((cur[1:] != cur[:-1]).sum())
    counters["annealing.anneal.uphill"] += int((cur[1:] > cur[:-1]).sum())


def _count_build_weights(counters, args, kwargs, result):
    n = args[0].n
    # The largest dense weight matrix built, which sets the memory peak.
    counters["hopfield.build_weights.bytes"] = max(
        counters["hopfield.build_weights.bytes"], 8 * n**4
    )


def _count_run(counters, args, kwargs, result):
    n = args[0].n
    counters["hopfield.run.sweeps"] += result.sweeps_used
    counters["hopfield.run.unit_visits"] += result.sweeps_used * n * n
    counters["hopfield.run.converged"] += int(result.converged)
    counters["hopfield.run.valid"] += int(result.valid)


def _count_sweep(counters, args, kwargs, result):
    counters["pipeline.sweep.trials"] += len(result.cells) * result.trials


def _count_main(counters, args, kwargs, result):
    if result == 1:
        counters["cli.main.exit_1"] += 1
    elif result == 2:
        counters["cli.main.exit_2"] += 1


COUNTER_KEYS = (
    "tour.brute_force_optimum.tours_scored",
    "annealing.anneal.steps",
    "annealing.anneal.moved",
    "annealing.anneal.uphill",
    "hopfield.build_weights.bytes",
    "hopfield.run.sweeps",
    "hopfield.run.unit_visits",
    "hopfield.run.converged",
    "hopfield.run.valid",
    "pipeline.sweep.trials",
    "cli.main.exit_1",
    "cli.main.exit_2",
)

COUNTERS = {
    "tour.brute_force_optimum": _count_brute_force,
    "annealing.anneal": _count_anneal,
    "hopfield.build_weights": _count_build_weights,
    "hopfield.run": _count_run,
    "pipeline.sweep": _count_sweep,
    "cli.main": _count_main,
}


class Tracer:
    """Records spans and counters while installed; a no-op otherwise."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.command_id = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.command_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every reference to each target in the loaded tsphnn modules."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "tsphnn"]
        for name, module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_metrics(self, wall):
        """Per-layer calls, busy and self seconds, their shares of ``wall``
        (the traced passes' wall time), counters and derived ratios."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            self_s[name] += end - start - child_time[idx]

        c = self.counters
        out = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.busy_pct"] = 100 * busy[name] / wall
            out[f"{name}.self_pct"] = 100 * self_s[name] / wall
        out.update({k: c[k] for k in COUNTER_KEYS})

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        steps = c["annealing.anneal.steps"]
        out["annealing.anneal.us_per_step"] = ratio(busy["annealing.anneal"], steps, 1e6)
        out["annealing.anneal.moved_ratio"] = ratio(c["annealing.anneal.moved"], steps)
        out["annealing.anneal.uphill_ratio"] = ratio(c["annealing.anneal.uphill"], steps)
        visits = c["hopfield.run.unit_visits"]
        runs = calls["hopfield.run"]
        out["hopfield.run.us_per_unit_visit"] = ratio(busy["hopfield.run"], visits, 1e6)
        out["hopfield.run.converged_ratio"] = ratio(c["hopfield.run.converged"], runs)
        out["hopfield.run.valid_ratio"] = ratio(c["hopfield.run.valid"], runs)
        trials = c["pipeline.sweep.trials"]
        out["pipeline.sweep.us_per_trial"] = ratio(busy["pipeline.sweep"], trials, 1e6)
        return out

    def span_records(self, offset=0):
        """Spans as dicts; ``parent`` indexes the list, shifted by ``offset``
        when several tracers' spans are concatenated."""
        return [
            {"name": n, "start": s, "end": e, "parent": None if p is None else p + offset,
             "command": cid}
            for n, s, e, p, cid in self.spans
        ]
