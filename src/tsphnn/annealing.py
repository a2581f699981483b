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
    """1.0 for non-worsening candidates, else the Metropolis factor."""
    if not t > 0:
        raise InvalidTemperatureError(f"temperature must be positive, got {t}")
    return float(_kernels.metropolis(e, e_new, t))


def temperature_at(step: int, cfg: SaConfig) -> float:
    """Geometric schedule t0 * rate^step, floored to avoid division by zero."""
    return float(
        _kernels.temperature(cfg.t0, cfg.cooling_rate, TEMPERATURE_FLOOR, step)
    )


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
    """
    n = m.n
    if start.n != n:
        raise TsphnnError(f"start tour has {start.n} cities, matrix has {n}")
    if 2 * cfg.swap_count > n:
        raise InvalidArgumentError(
            f"swap_count={cfg.swap_count} too large for n={n}"
        )
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    uniforms = rng.random((cfg.iterations, 2 * cfg.swap_count + 1))
    best, best_len, final, temps, cur_lens, best_lens = _kernels.anneal_loop(
        m.d,
        start.as_array(),
        cfg.t0,
        cfg.cooling_rate,
        TEMPERATURE_FLOOR,
        cfg.iterations,
        cfg.swap_count,
        uniforms,
    )
    final_tour = Tour(tuple(int(v) for v in final))
    trace = SaTrace(
        iteration=np.arange(cfg.iterations),
        temperature=temps,
        current_length=cur_lens,
        best_length=best_lens,
        final_tour=final_tour,
        final_length=float(cur_lens[-1]),
    )
    return Tour(tuple(int(v) for v in best)), float(best_len), trace
