"""Simulated annealing over tour space.

Moves swap k disjoint position pairs; worsening moves are accepted with the
Metropolis probability exp(-delta/T) under a geometric cooling schedule.
The solver reports the best tour seen rather than the final walker state
(the final state is kept on the trace).
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import _kernels
from .errors import InvalidArgumentError, InvalidTemperatureError, TsphnnError
from .instance import DistanceMatrix
from .tour import Tour

TEMPERATURE_FLOOR = 1e-12
CHUNK = 2048  # steps whose uniforms `anneal` draws at once


@dataclass(frozen=True)
class SaConfig:
    """Annealing schedule: start temperature, geometric cooling rate,
    iteration budget, pairs swapped per move, and RNG seed."""

    t0: float
    cooling_rate: float
    iterations: int
    swap_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.t0 < np.inf:
            raise InvalidTemperatureError(
                f"t0 must be positive and finite, got {self.t0}"
            )
        if not 0 < self.cooling_rate < 1:
            raise TsphnnError(
                f"cooling_rate must be in (0, 1), got {self.cooling_rate}"
            )
        if self.iterations < 1:
            raise TsphnnError(f"iterations must be >= 1, got {self.iterations}")
        if self.swap_count < 1:
            raise InvalidArgumentError(
                f"swap_count must be >= 1, got {self.swap_count}"
            )


@dataclass(frozen=True)
class SaTrace:
    """Per-iteration schedule and length records plus the final walker state."""

    iteration: np.ndarray
    temperature: np.ndarray
    current_length: np.ndarray
    best_length: np.ndarray
    final_tour: Tour
    final_length: float

    def to_csv(self) -> str:
        lines = ["iteration,temperature,current,best"]
        for i in range(len(self.iteration)):
            lines.append(
                f"{int(self.iteration[i])},{float(self.temperature[i])!r},"
                f"{float(self.current_length[i])!r},{float(self.best_length[i])!r}"
            )
        return "\n".join(lines) + "\n"


def swap_cities(t: Tour, k: int, rng: np.random.Generator) -> Tour:
    """Exchange the cities at k disjoint randomly chosen position pairs.

    Returns a new tour; applying the same pairs again restores the input.
    """
    n = t.n
    if k < 1 or 2 * k > n:
        raise InvalidArgumentError(f"k={k} out of range 1..{n // 2} for n={n}")
    out = _kernels.swap_positions(t.as_array(), k, rng.random(2 * k))
    return Tour(tuple(int(v) for v in out))


def acceptance_probability(e: float, e_new: float, t: float) -> float:
    """1.0 for non-worsening candidates, else the Metropolis factor
    exp(-(e_new - e) / t).  ``np.exp``, not ``math.exp``: the two differ in
    the last bit on a few per cent of inputs, and the walk's answers are
    defined by this one."""
    if not t > 0:
        raise InvalidTemperatureError(f"temperature must be positive, got {t}")
    if e_new <= e:
        return 1.0
    return float(np.exp(-(e_new - e) / t))


def temperature_at(step: int, cfg: SaConfig) -> float:
    """Geometric schedule t0 * rate^step, floored to avoid division by zero."""
    return float(max(cfg.t0 * cfg.cooling_rate**step, TEMPERATURE_FLOOR))


def anneal(
    m: DistanceMatrix,
    start: Tour,
    cfg: SaConfig,
    rng: np.random.Generator = None,
) -> Tuple[Tour, float, SaTrace]:
    """Run exactly ``cfg.iterations`` annealing steps from ``start``.

    Each step proposes a ``swap_count``-pair exchange and accepts it when
    the acceptance probability beats one uniform draw.  Deterministic for a
    fixed seed; passing ``rng`` lets callers chain draws instead.

    The walk runs on Python lists and floats.  Its 2k+1 uniforms per step
    are drawn ``CHUNK`` steps at a time, the same values and generator state
    as one draw of them all, so it holds at most ``CHUNK * (2k+1)`` uniforms
    at once besides the trace's 32 bytes per step.
    """
    n = m.n
    if start.n != n:
        raise TsphnnError(f"start tour has {start.n} cities, matrix has {n}")
    k = cfg.swap_count
    if 2 * k > n:
        raise InvalidArgumentError(f"swap_count={k} too large for n={n}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    iters = cfg.iterations
    d = m.d.tolist()
    cur = list(start.order)
    cur_len = _kernels.closed_tour_length(d, cur)
    best, best_len = cur, cur_len
    temps, cur_lens, best_lens = np.empty(iters), np.empty(iters), np.empty(iters)
    for first in range(0, iters, CHUNK):
        rows = rng.random((min(CHUNK, iters - first), 2 * k + 1)).tolist()
        for step, u in enumerate(rows, first):
            temp = temperature_at(step, cfg)
            cand = _kernels.swap_positions(cur, k, u)
            cand_len = _kernels.closed_tour_length(d, cand)
            if acceptance_probability(cur_len, cand_len, temp) >= u[2 * k]:
                cur, cur_len = cand, cand_len
                if cur_len < best_len:
                    best, best_len = cur, cur_len
            temps[step] = temp
            cur_lens[step] = cur_len
            best_lens[step] = best_len
    trace = SaTrace(
        iteration=np.arange(iters),
        temperature=temps,
        current_length=cur_lens,
        best_length=best_lens,
        final_tour=Tour(tuple(cur)),
        final_length=float(cur_lens[-1]),
    )
    return Tour(tuple(best)), float(best_len), trace
