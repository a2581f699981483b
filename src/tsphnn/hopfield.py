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
column and the grid, and from a distance field.  :func:`run_lockstep` runs
many independent trials as one stack, one flip per trial per step, with the
same results as running them one at a time; :func:`run` is a stack of one,
so the dynamics have a single loop.  The dynamics keep each trial's start
grid and its grid at each sweep end, one bit a unit, and a
:class:`HopfieldResult` reads every other fact of the run from them.

With symmetric weights, zero self-connections and threshold 0,
asynchronous updates never increase E, so the dynamics settle into a
fixed point.

Activations live in {0, 1}; a unit switches to 1 exactly when its net
input reaches the threshold.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._rounding import U
from .errors import InvalidArgumentError, TsphnnError, check_int, check_real, check_record, quote
from .instance import DistanceMatrix
from .tour import Tour, decode_grid, decode_grids, tour_length


@dataclass(frozen=True)
class HopfieldParams:
    """Penalty constants, activation threshold, sweep budget, and seed.

    The defaults (A=B=100, C=90, D=100, threshold 0) weigh tour length
    heavily against validity: a 200-trial ``sweep`` at seed 0 finds a valid
    tour in none of its trials on the bundled cityset1 and paper8 sets,
    and with D=10 in every one.
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
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0, closed=True))
        object.__setattr__(self, "threshold", check_real("threshold", self.threshold))
        for name in ("max_sweeps", "seed"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 0))


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Symmetric n^2 x n^2 connection weights with zero diagonal, plus the
    per-unit bias.  Unit (x, i) flattens to index x*n + i.  Two weight
    matrices compare equal only when they are the same object."""

    n: int
    w: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True, eq=False)
class HopfieldResult:
    """The outcome of one network run: its tour, its largest update delta E
    and ``rows``, its start grid and then its grid at each sweep end, one
    row-major packed grid of ceil(n^2 / 8) bytes a row (at most
    ``max_sweeps + 1``).  Every other fact is read from the rows: a sweep
    flips each unit at most once, so it changed the grid exactly when its
    row differs from the one before.  ``grid``, ``energy_trace`` (the
    :func:`energy` after each sweep) and ``length`` (the decoded tour's, on
    the distances the network ran on) are computed on first read and then
    kept; the sweep reads none of them.  Two results compare equal only
    when they are the same object.
    """

    tour: Optional[Tour]
    max_update_delta_e: float
    m: DistanceMatrix = field(repr=False)
    p: HopfieldParams = field(repr=False)
    rows: np.ndarray = field(repr=False)

    @property
    def sweeps_used(self) -> int:
        return len(self.rows) - 1

    @property
    def ends(self) -> np.ndarray:
        return self.rows[1:]

    @property
    def converged(self) -> bool:
        return len(self.rows) > 1 and self.rows[-1].tobytes() == self.rows[-2].tobytes()

    @property
    def valid(self) -> bool:
        """Whether the final grid decodes to a tour."""
        return self.tour is not None

    @cached_property
    def grid(self) -> np.ndarray:
        g = _unpack(self.rows[-1:], self.m.n)[0].astype(np.float64)
        g.flags.writeable = False
        return g

    @cached_property
    def energy_trace(self) -> np.ndarray:
        grids = _unpack(self.ends, self.m.n)
        return np.array([energy(v, self.m, self.p) for v in grids], dtype=np.float64)

    @cached_property
    def length(self) -> Optional[float]:
        return None if self.tour is None else tour_length(self.m, self.tour)


def _unpack(rows: np.ndarray, n: int) -> np.ndarray:
    """The (k, n, n) 0/1 stack of k packed grids."""
    return np.unpackbits(rows, axis=1, count=n * n).reshape(-1, n, n)


def build_weights(m: DistanceMatrix, p: HopfieldParams) -> WeightMatrix:
    """Derive connection weights and bias from the distance matrix.

    w[(x,i),(y,j)] = -A*[x==y][i!=j] - B*[i==j][x!=y] - C*[(x,i)!=(y,j)]
                     - D*d[x,y]*([j==i+1 mod n] + [j==i-1 mod n])

    with the diagonal forced to zero and bias C*(n - 1/2) on every unit.
    """
    check_record("m", m, DistanceMatrix)
    check_record("p", p, HopfieldParams)
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


def _check_grids(grids, n: Optional[int] = None) -> np.ndarray:
    """The grids as a fresh (k, n, n) float stack, refused unless they are
    square, n x n when ``n`` is given, and every entry is 0 or 1.  A single
    grid is checked as a stack of one.  The one conversion of every grid a
    caller passes: entries are compared before they are converted, so a
    number or a boolean passes and a string such as "1", which equals no
    number, does not."""
    try:
        v = np.array(grids)
    except ValueError as exc:  # grids of unequal shapes
        raise TsphnnError(f"activation grids must be equal-shaped number arrays: {exc}") from exc
    if v.shape == (0,) and n is not None:  # an empty stack
        v = v.reshape(0, n, n)
    if v.ndim != 3 or v.shape[1] != v.shape[2]:
        raise TsphnnError(f"activation grid must be square, got shape {v.shape[1:]}")
    if n is not None and v.shape[1] != n:
        raise TsphnnError(f"grid is {v.shape[1]}x{v.shape[1]}, expected n={n}")
    if not np.all((v == 0) | (v == 1)):
        raise TsphnnError("activation grid entries must be 0 or 1")
    return v.astype(np.float64, copy=False)


@lru_cache(maxsize=None)
def _ring(n: int) -> np.ndarray:
    """ring[j, i] = [j == i+1 mod n] + [j == i-1 mod n], so that
    (g @ ring)[y, i] = g[y, i+1] + g[y, i-1], exactly for 0/1 grids."""
    eye = np.eye(n)
    ring = np.roll(eye, 1, axis=0) + np.roll(eye, -1, axis=0)
    ring.flags.writeable = False
    return ring


@lru_cache(maxsize=None)
def _ones(n: int) -> np.ndarray:
    ones = np.ones((n, 1))
    ones.flags.writeable = False
    return ones


def _distance_field(g: np.ndarray, d: np.ndarray) -> np.ndarray:
    """field[x, i] = sum_y d[x, y] * (g[y, i+1] + g[y, i-1]), positions mod n,
    for one grid or a stack of grids."""
    return d @ (g @ _ring(g.shape[-1]))


def _net_inputs(g: np.ndarray, m: DistanceMatrix, p: HopfieldParams) -> np.ndarray:
    """Every unit's net input, ``w @ g + bias`` of :func:`build_weights`, from
    the active units in its row, its column, the grid and the distance field:

        C*(n - 1/2) - A*(row - g) - B*(col - g) - C*(total - g) - D*field

    evaluated left to right, for one grid or a stack of grids.  The counts
    are products with a column of ones, exact for 0/1 grids, so everything
    but the distance field has the same bits for a grid and for a stack.
    """
    ones = _ones(m.n)
    row = g @ ones
    col = ones.T @ g
    return (
        p.c_pen * (m.n - 0.5)
        - p.a_pen * (row - g)
        - p.b_pen * (col - g)
        - p.c_pen * (col @ ones - g)
        - p.d_pen * _distance_field(g, m.d)
    )


def _terms(v: np.ndarray, field: np.ndarray) -> Tuple[float, float, float, float]:
    """The four energy sums of a 0/1 grid, given its distance field.

    The first three are exact integer counts.  The distance term sums the
    n^2 products of the contiguous grid in the order of a 2-D ``sum()``.
    """
    rows = v.sum(axis=1)
    cols = v.sum(axis=0)
    return (
        float((rows * rows - rows).sum()),
        float((cols * cols - cols).sum()),
        float((rows.sum() - v.shape[0]) ** 2),
        float((v * field).sum()),
    )


def energy_terms(
    g: np.ndarray, m: DistanceMatrix
) -> Tuple[float, float, float, float]:
    """The four unweighted sums of the energy function, from :func:`_terms`.

    The first three vanish simultaneously exactly when the grid is a
    permutation matrix; the fourth equals twice the closed tour length on
    such grids.
    """
    check_record("m", m, DistanceMatrix)
    v = _check_grids([g], m.n)[0]
    return _terms(v, _distance_field(v, m.d))


def energy(g: np.ndarray, m: DistanceMatrix, p: HopfieldParams) -> float:
    """Weighted energy A/2*row + B/2*col + C/2*count + D/2*dist."""
    check_record("p", p, HopfieldParams)
    row, col, count, dist = energy_terms(g, m)
    return p.a_pen / 2 * row + p.b_pen / 2 * col + p.c_pen / 2 * count + p.d_pen / 2 * dist


def unit_update(
    g: np.ndarray, w: WeightMatrix, unit: Tuple[int, int], threshold: float = 0.0
) -> int:
    """New activation for one unit: 1 when its net input reaches the threshold.

    net = sum_v w[unit, v] * g[v] + bias[unit].  Pure; the grid is not
    modified.
    """
    check_record("w", w, WeightMatrix)
    v = _check_grids([g], w.n)[0]
    try:
        x, i = unit
    except (TypeError, ValueError):
        raise InvalidArgumentError(
            f"unit must be a (city, position) pair, got {quote(unit)}"
        ) from None
    u = check_int("city", x, 0, w.n - 1) * w.n + check_int("position", i, 0, w.n - 1)
    net = np.dot(w.w[u], v.ravel()) + w.bias[u]
    return 1 if net >= threshold else 0


def _check_rngs(rngs) -> None:
    """Refuse ``rngs`` unless it is a sequence of ``np.random.Generator``."""
    check_record("rngs", rngs, Sequence)
    for t, rng in enumerate(rngs):
        if not isinstance(rng, np.random.Generator):  # names no trial that passes
            check_record(f"rngs[{t}]", rng, np.random.Generator)


def random_grids(n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """A (len(rngs), n, n) stack of grids, grid t drawn from ``rngs[t]``:
    each unit on independently with probability 1/n, so the expected number
    of ones is n.  Each generator fills its grid's n^2 doubles in place, the
    same draws as ``rngs[t].random((n, n))``."""
    _check_rngs(rngs)
    u = np.empty((len(rngs), n, n))
    for row, rng in zip(u, rngs):
        rng.random(out=row)
    return (u < 1.0 / n).astype(np.float64)


def random_grid(n: int, rng: np.random.Generator) -> np.ndarray:
    """One grid of :func:`random_grids`, drawn from ``rng``."""
    check_record("rng", rng, np.random.Generator)
    return random_grids(n, [rng])[0]


def run(
    m: DistanceMatrix,
    p: HopfieldParams,
    init: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
) -> HopfieldResult:
    """Sweep all n^2 units in a fresh seeded random order, asynchronously,
    until a full sweep changes nothing or the sweep budget runs out.

    Updates are immediately visible within a sweep.  Records the grid
    after every sweep, for the energy trace, and decodes a tour whenever
    the final grid is a valid permutation matrix (an invalid final grid is
    an outcome, not an error).
    Passing ``rng`` lets callers that fan out many trials supply their own
    derived stream instead of ``p.seed``.  With ``init=None`` it first draws
    the n^2 uniforms of the start grid (:func:`random_grid`); then it
    advances by one permutation of the n^2 units per sweep run.  The run is
    a stack of one trial in :func:`run_lockstep`.
    """
    check_record("m", m, DistanceMatrix)
    check_record("p", p, HopfieldParams)
    if rng is None:
        rng = np.random.default_rng(p.seed)
    check_record("rng", rng, np.random.Generator)
    grid = random_grid(m.n, rng) if init is None else init
    return run_lockstep(m, p, [grid], [rng])[0]


def _field_bound(m: DistanceMatrix) -> float:
    """F = 2 * max_x sum_y |d[x, y]|, at least |field| at any unit of any
    0/1 grid; finite under :class:`DistanceMatrix`'s rule."""
    return 2.0 * float(np.abs(m.d).sum(axis=1).max())


def _check_finite(m: DistanceMatrix, p: HopfieldParams, f: float) -> None:
    """Refuse penalties at which a net input, its distance to the threshold
    or an energy may overflow.

    On a 0/1 grid a unit's row and column hold at most n - 1 other active
    units, the grid at most n^2 - 1, and its field is at most F = ``f``
    (:func:`_field_bound`), so |net| <= C*(n - 1/2) + A*(n - 1) + B*(n - 1) +
    C*(n^2 - 1) + D*F.  The energy's sums are at most n^3 (row, column), n^4
    (count) and n^2*F (distance), so |E| <= A/2*n^3 + B/2*n^3 + C/2*n^4 +
    D/2*n^2*F.  Every partial sum of either is at most the whole, and by the
    summation lemma of :mod:`._rounding` each computed sum, F's included, is
    within a factor 1 +- gamma_{n+8} of the exact one: both are refused when
    twice the computed bound is not finite.  Python floats overflow silently.
    """
    n = m.n
    a, b, c, d = p.a_pen, p.b_pen, p.c_pen, p.d_pen
    net = c * (n - 0.5) + (a + b) * (n - 1) + c * (n * n - 1) + d * f
    e = (a + b) / 2 * n**3 + c / 2 * n**4 + d / 2 * n * n * f
    if not math.isfinite(2 * (net + abs(p.threshold))) or not math.isfinite(2 * e):
        raise TsphnnError(
            f"penalties A={a:g} B={b:g} C={c:g} D={d:g} with threshold "
            f"{p.threshold:g} let net inputs or energies on {n} cities overflow"
        )


def _guard_band(m: DistanceMatrix, p: HopfieldParams, f: float) -> float:
    """Half-width of the band around the threshold outside which a net input
    computed from a stacked matrix product decides as the 2-D one does.

    A field entry sums n exact products d[x, y] * s[y, i], s in {0, 1, 2},
    of total size at most F = ``f`` (:func:`_field_bound`), so by the
    summation lemma of :mod:`._rounding` two orders of it differ by at most
    2*gamma_{n-1}*F; the rest of the net input has the same bits both ways.
    While no product D * field is subnormal, the roundings of
    net = fl(P - fl(D * field)) add at most 2*U*D*F*(1 + gamma_{n-1}) +
    U' * (|net_1| + |net_2|), U' = U / (1 - U), to the nets' difference
    delta.  They decide differently only if the threshold t lies between
    them; then |net_i| <= |t| + delta, so with g = gamma_{n-1}, delta <=
    (2*(g + U*(1 + g))*D*F + 2*U'*|t|) / (1 - 2*U') <= 4*(n + 1)*U*(D*F + |t|),
    with room for the returned value's three roundings.
    """
    return 4 * (m.n + 1) * U * (p.d_pen * f + abs(p.threshold))


def run_lockstep(
    m: DistanceMatrix,
    p: HopfieldParams,
    grids: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> List[HopfieldResult]:
    """Run one network trial per generator, trial t from ``grids[t]`` with
    ``rngs[t]``, all in lockstep.  Trial t's result is that of
    ``run(m, p, init=grids[t], rng=rngs[t])``, and ``rngs[t]`` ends in the
    same state.

    Each step computes the net inputs of every running trial as one
    (trials, n, n) stack and makes at most one flip per trial: the first
    unit, from the trial's scan position in its own sweep order, whose
    threshold decision differs from its state.  Only the rows that flip are
    written.  A trial's record starts with its packed start grid; a trial
    whose scan finds none ends its sweep, packs its grid as the next row of
    its record, and stops if its scan position is still 0 (the sweep
    flipped nothing) or the sweep budget is spent, else draws its next
    order from its own generator.  The trials that start a sweep together
    draw their orders into one array, each shuffling its row of 0..n^2-1 in
    place, which is what ``permutation(n^2)`` does, so the orders and
    generator states are those of ``run``.  Only the running rows' grids,
    order ranks and scan positions shrink as trials stop; each trial's
    sweep count and largest update delta E stay at its trial number, and a
    stopped trial keeps only its record.

    The stacked product may sum the distance field in another order than
    the 2-D one.  So when a trial's scan, from its position through its
    chosen flip, passes a net input inside :func:`_guard_band` of the
    threshold, that trial's step is decided by its own 2-D
    :func:`_net_inputs` instead.  So the flips, grids and the energy traces
    that :class:`HopfieldResult` computes from them do not depend on how
    trials are stacked.  Only ``max_update_delta_e`` is read from the
    stacked net input of each flip; it has the 2-D bits wherever the two
    products sum alike.
    """
    check_record("m", m, DistanceMatrix)
    check_record("p", p, HopfieldParams)
    _check_rngs(rngs)
    n = m.n
    n2 = n * n
    count = len(rngs)
    if len(grids) != count:
        raise TsphnnError(f"{len(grids)} grids for {count} generators")
    g = _check_grids(grids, n)
    f = _field_bound(m)
    _check_finite(m, p, f)
    trial = np.arange(count)  # the trial that each row of the state runs
    rank = np.empty((count, n2), dtype=np.int64)  # each unit's place in its order
    pos = np.zeros(count, dtype=np.int64)  # the place the scan has reached
    # each trial's facts, by trial number; a stopped trial's are its outcome
    sweeps = np.zeros(count, dtype=np.int64)
    max_de = np.full(count, -np.inf)
    # the start grids, then the grids at sweep ends, packed, and their trials
    records = [np.packbits(g.reshape(count, n2) > 0, axis=1)]
    owners = [np.arange(count)]
    units = np.arange(n2)
    band = _guard_band(m, p, f)

    def start_sweeps(rows):
        orders = np.empty((rows.size, n2), dtype=np.int64)
        orders[:] = units
        for order, t in zip(orders, trial[rows].tolist()):
            rngs[t].shuffle(order)
        rank[rows[:, None], orders] = units
        pos[rows] = 0

    def next_flips(net):
        # each row's next flip at or after its scan position: the unit and
        # its place in the order, n2 where the rest of the sweep has none
        key = np.where(((net >= p.threshold) != (flat > 0)) & todo, rank, n2)
        u = key.argmin(axis=1)
        return u, key[rows, u]

    if p.max_sweeps == 0:
        trial = trial[:0]
    else:
        start_sweeps(trial)
    rows = np.arange(trial.size)
    while trial.size:
        flat = g.reshape(trial.size, n2)
        net = _net_inputs(g, m, p).reshape(trial.size, n2)
        todo = rank >= pos[:, None]
        u, k = next_flips(net)
        gap = np.abs(net - p.threshold)
        if gap.min() <= band:
            near = (gap <= band) & todo & (rank <= k[:, None])
            for r in np.flatnonzero(near.any(axis=1)):
                net[r] = _net_inputs(g[r], m, p).ravel()
            u, k = next_flips(net)
        flip = k < n2
        hit, at = rows[flip], u[flip]
        x = net[hit, at]
        on = x >= p.threshold  # a flip sets its unit to its threshold decision
        flat[hit, at] = on
        de = np.where(on, -x, x)  # -dv * x, dv = 1 turning a unit on and -1 off
        flipped = trial[hit]
        best = max_de[flipped]
        max_de[flipped] = np.where(de > best, de, best)  # a tie keeps best's signed zero
        ended = rows[~flip]
        was, pos = pos, k + 1  # an ended sweep whose scan was at 0 flipped no unit
        if ended.size:
            who = trial[ended]
            records.append(np.packbits(flat[ended] > 0, axis=1))
            owners.append(who)
            sweeps[who] += 1
            stop = np.zeros(trial.size, dtype=bool)
            stop[ended] = (was[ended] == 0) | (sweeps[who] == p.max_sweeps)
            start_sweeps(ended[~stop[ended]])
            if stop.any():
                g, rank, pos, trial = (a[~stop] for a in (g, rank, pos, trial))
                rows = np.arange(trial.size)
    return _results(m, p, max_de, sweeps, records, owners)


def _results(m, p, max_de, sweeps, records, owners) -> List[HopfieldResult]:
    """One result per trial, from its largest update delta E, sweep count
    and rows.  ``records`` holds the packed rows in the order they were
    made, each trial's start grid first, and ``owners`` their trials; trial
    t has ``sweeps[t] + 1`` rows.  The rows are sorted by trial, in order
    within each, and the trials' last rows are decoded together.
    """
    rows = np.concatenate(records)[np.argsort(np.concatenate(owners), kind="stable")]
    stops = np.cumsum(sweeps + 1)
    tours = decode_grids(_unpack(rows[stops - 1], m.n))
    stops = stops.tolist()
    return [
        HopfieldResult(tour=tour, max_update_delta_e=de, m=m, p=p, rows=rows[start:stop])
        for tour, de, start, stop in zip(tours, max_de.tolist(), [0] + stops, stops)
    ]


decode = decode_grid


def grid_to_text(g: np.ndarray) -> str:
    """Rows of 0/1 characters, one line per city."""
    v = _check_grids([g])[0]
    return "\n".join("".join(str(int(b)) for b in row) for row in v) + "\n"


def text_to_grid(text: str, n: int = None) -> np.ndarray:
    """Inverse of :func:`grid_to_text`, spaces between cells allowed; n x n if given."""
    rows = [line.replace(" ", "") for line in text.strip().splitlines() if line.strip()]
    for number, row in enumerate(rows, 1):
        if len(row) != len(rows) or set(row) - {"0", "1"}:
            raise TsphnnError(
                f"grid row {number} is not {len(rows)} cells of 0 or 1: {quote(row)}"
            )
    return _check_grids([[[float(ch) for ch in row] for row in rows]], n)[0]
