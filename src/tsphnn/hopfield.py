"""Discrete Hopfield network for the TSP.

The network has one binary unit per (city, position) pair, n^2 in total.
Its quadratic energy

    E = A/2 * rowTerm + B/2 * colTerm + C/2 * countTerm + D/2 * distTerm

penalizes a city appearing in two positions (A), two cities sharing one
position (B), the total activation count missing n (C), and, for states
that are permutation matrices, measures twice the closed tour length (D
term), so E = D * tour_length there.  :func:`build_weights` sets the
weights and bias analytically so that the standard network energy equals
E: pair penalties become inhibitory weights, the count term a uniform
inhibition of C between distinct units plus a bias of C*(n - 1/2) per unit
(the half folds the binary diagonal v^2 = v into the linear part when
self-connections are zeroed).  :func:`run` never forms that n^2 x n^2
matrix: a unit's net input follows from the active units in its row, its
column and the grid, and from a distance field.  With symmetric weights,
zero self-connections and threshold 0, asynchronous updates never increase
E, so the dynamics settle into a fixed point.

Activations live in {0, 1}; a unit switches to 1 exactly when its net
input reaches the threshold.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import TsphnnError
from .instance import DistanceMatrix, tour_length
from .tour import Tour, decode_grid


@dataclass(frozen=True)
class HopfieldParams:
    """Penalty constants, activation threshold, sweep budget, and seed.

    Defaults (A=B=100, C=90, D=100, threshold 0) are the best-behaved
    combination observed on the bundled 10-city set.
    """

    a_pen: float = 100.0
    b_pen: float = 100.0
    c_pen: float = 90.0
    d_pen: float = 100.0
    threshold: float = 0.0
    max_sweeps: int = 200
    seed: int = 0

    def __post_init__(self):
        for name in ("a_pen", "b_pen", "c_pen", "d_pen"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise TsphnnError(f"{name} must be finite and nonnegative, got {value}")
        if not np.isfinite(self.threshold):
            raise TsphnnError(f"threshold must be finite, got {self.threshold}")
        if self.max_sweeps < 0:
            raise TsphnnError(f"max_sweeps must be >= 0, got {self.max_sweeps}")


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric n^2 x n^2 connection weights with zero diagonal, plus the
    per-unit bias.  Unit (x, i) flattens to index x*n + i."""

    n: int
    w: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True)
class HopfieldResult:
    grid: np.ndarray
    converged: bool
    valid: bool
    tour: Optional[Tour]
    length: Optional[float]
    energy_trace: np.ndarray
    sweeps_used: int
    max_update_delta_e: float


def build_weights(m: DistanceMatrix, p: HopfieldParams) -> WeightMatrix:
    """Derive connection weights and bias from the distance matrix.

    w[(x,i),(y,j)] = -A*[x==y][i!=j] - B*[i==j][x!=y] - C*[(x,i)!=(y,j)]
                     - D*d[x,y]*([j==i+1 mod n] + [j==i-1 mod n])

    with the diagonal forced to zero and bias C*(n - 1/2) on every unit.
    """
    n = m.n
    n2 = n * n
    units = np.arange(n2)
    x = units // n
    i = units % n
    same_city = x[:, None] == x[None, :]
    same_pos = i[:, None] == i[None, :]
    adjacent = (i[None, :] == (i[:, None] + 1) % n).astype(np.float64)
    adjacent += (i[None, :] == (i[:, None] - 1) % n).astype(np.float64)

    w = np.zeros((n2, n2))
    w -= p.a_pen * (same_city & ~same_pos)
    w -= p.b_pen * (same_pos & ~same_city)
    w -= p.c_pen
    w -= p.d_pen * m.d[x[:, None], x[None, :]] * adjacent
    np.fill_diagonal(w, 0.0)
    bias = np.full(n2, p.c_pen * (n - 0.5))
    w.flags.writeable = False
    bias.flags.writeable = False
    return WeightMatrix(n=n, w=w, bias=bias)


def _check_binary(g: np.ndarray, n: int = None) -> np.ndarray:
    v = np.asarray(g, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise TsphnnError(f"activation grid must be square, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise TsphnnError(f"grid is {v.shape[0]}x{v.shape[0]}, expected n={n}")
    if not np.all((v == 0) | (v == 1)):
        raise TsphnnError("activation grid entries must be 0 or 1")
    return v


def _distance_field(g: np.ndarray, d: np.ndarray) -> np.ndarray:
    """field[x, i] = sum_y d[x, y] * (g[y, i+1] + g[y, i-1]), positions mod n."""
    return d @ (np.roll(g, -1, axis=1) + np.roll(g, 1, axis=1))


def _net_inputs(g: np.ndarray, m: DistanceMatrix, p: HopfieldParams) -> np.ndarray:
    """Every unit's net input, ``w @ g + bias`` of :func:`build_weights`, from
    the active units in its row, its column, the grid and the distance field."""
    return (
        p.c_pen * (m.n - 0.5)
        - p.a_pen * (g.sum(axis=1, keepdims=True) - g)
        - p.b_pen * (g.sum(axis=0, keepdims=True) - g)
        - p.c_pen * (g.sum() - g)
        - p.d_pen * _distance_field(g, m.d)
    )


def energy_terms(
    g: np.ndarray, m: DistanceMatrix
) -> Tuple[float, float, float, float]:
    """The four unweighted sums of the energy function.

    The first three vanish simultaneously exactly when the grid is a
    permutation matrix; the fourth equals twice the closed tour length on
    such grids.
    """
    v = _check_binary(g, m.n)
    n = m.n
    row = float((v.sum(axis=1) ** 2 - (v * v).sum(axis=1)).sum())
    col = float((v.sum(axis=0) ** 2 - (v * v).sum(axis=0)).sum())
    count = float((v.sum() - n) ** 2)
    dist = float((v * _distance_field(v, m.d)).sum())
    return row, col, count, dist


def energy(g: np.ndarray, m: DistanceMatrix, p: HopfieldParams) -> float:
    """Weighted energy A/2*row + B/2*col + C/2*count + D/2*dist."""
    row, col, count, dist = energy_terms(g, m)
    return (
        p.a_pen / 2 * row + p.b_pen / 2 * col + p.c_pen / 2 * count + p.d_pen / 2 * dist
    )


def unit_update(
    g: np.ndarray, w: WeightMatrix, unit: Tuple[int, int], threshold: float = 0.0
) -> int:
    """New activation for one unit: 1 when its net input reaches the threshold.

    net = sum_v w[unit, v] * g[v] + bias[unit].  Pure; the grid is not
    modified.
    """
    v = _check_binary(g, w.n)
    u = unit[0] * w.n + unit[1]
    net = np.dot(w.w[u], v.ravel()) + w.bias[u]
    return 1 if net >= threshold else 0


def random_grid(n: int, rng: np.random.Generator) -> np.ndarray:
    """Each unit on independently with probability 1/n, so the expected
    number of ones is n."""
    return (rng.random((n, n)) < 1.0 / n).astype(np.float64)


def run(
    m: DistanceMatrix,
    p: HopfieldParams,
    init: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
) -> HopfieldResult:
    """Sweep all n^2 units in a fresh seeded random order, asynchronously,
    until a full sweep changes nothing or the sweep budget runs out.

    Updates are immediately visible within a sweep.  Records the energy
    after every sweep and decodes a tour whenever the final grid is a valid
    permutation matrix (an invalid final grid is an outcome, not an error).
    Passing ``rng`` lets callers that fan out many trials supply their own
    derived stream instead of ``p.seed``; it advances by one permutation of
    the n^2 units per sweep run.
    """
    n = m.n
    if rng is None:
        rng = np.random.default_rng(p.seed)
    if init is None:
        grid = random_grid(n, rng)
    else:
        grid = _check_binary(init, n).copy()

    flat = grid.ravel()
    trace = []
    converged, max_de = False, -np.inf
    for _ in range(p.max_sweeps):
        order = rng.permutation(n * n)
        changed, rest = False, order
        # Net inputs change only when a unit flips, so jump to the next unit
        # in the order whose threshold decision differs from its state.
        while True:
            net = _net_inputs(grid, m, p).ravel()
            flips = np.flatnonzero((net[rest] >= p.threshold) != flat[rest])
            if flips.size == 0:
                break
            u, rest = rest[flips[0]], rest[flips[0] + 1 :]
            dv = 1.0 - 2.0 * flat[u]
            max_de = max(max_de, -dv * net[u])
            flat[u] += dv
            changed = True
        trace.append(energy(grid, m, p))
        if not changed:
            converged = True
            break

    grid.flags.writeable = False
    tour = decode_grid(grid.astype(np.int64))
    return HopfieldResult(
        grid=grid,
        converged=converged,
        valid=tour is not None,
        tour=tour,
        length=None if tour is None else tour_length(m, tour),
        energy_trace=np.array(trace),
        sweeps_used=len(trace),
        max_update_delta_e=float(max_de),
    )


decode = decode_grid


def grid_to_text(g: np.ndarray) -> str:
    """Rows of 0/1 characters, one line per city."""
    v = _check_binary(g)
    return "\n".join("".join(str(int(b)) for b in row) for row in v) + "\n"


def text_to_grid(text: str, n: int = None) -> np.ndarray:
    """Inverse of :func:`grid_to_text`, spaces between cells allowed; n x n if given."""
    rows = [line.replace(" ", "") for line in text.strip().splitlines() if line.strip()]
    for number, row in enumerate(rows, 1):
        if len(row) != len(rows) or set(row) - {"0", "1"}:
            raise TsphnnError(f"grid row {number} is not {len(rows)} cells of 0 or 1: {row!r}")
    return _check_binary(np.array([[float(ch) for ch in row] for row in rows]), n)
