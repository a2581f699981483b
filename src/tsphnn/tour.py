"""Tour representation and length, permutation-matrix codec, and the exact solver.

A tour is a closed, undirected visiting order: rotations and reversals of
the same cycle are the same tour, and :func:`canonicalize` picks one
representative.  The n x n "tour matrix" encoding (rows = cities,
columns = visit positions) is a tour exactly when it is a permutation
matrix, each row and column a single 1 among 0s; every decoder asks one
predicate.
"""

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from . import _kernels
from .errors import (
    EnumerationTooLargeError,
    InvalidTourError,
    InvalidTourMatrixError,
    check_int,
    check_record,
    quote,
)
from .instance import DistanceMatrix

BRUTE_FORCE_MAX_N = 12


@dataclass(frozen=True)
class Tour:
    """A permutation of 0..n-1 giving the visiting order of a closed tour."""

    order: tuple

    def __post_init__(self):
        try:
            order = tuple(operator.index(v) for v in self.order)
        except TypeError as exc:
            raise InvalidTourError(f"{quote(self.order)} is not a list of integers") from exc
        n = len(order)
        if sorted(order) != list(range(n)):
            raise InvalidTourError(f"{quote(order)} is not a permutation of 0..{n - 1}")
        object.__setattr__(self, "order", order)

    @property
    def n(self) -> int:
        return len(self.order)

    def as_array(self) -> np.ndarray:
        return np.array(self.order, dtype=np.int64)

    @staticmethod
    def random(n: int, rng: np.random.Generator) -> "Tour":
        # Past this n, NumPy cannot size the permutation's 8-byte array at all.
        n = check_int("n", n, 0, np.iinfo(np.intp).max // 8)
        check_record("rng", rng, np.random.Generator)
        return Tour(tuple(int(v) for v in rng.permutation(n)))


def tour_length(m: DistanceMatrix, tour) -> float:
    """Closed-tour length: consecutive edges plus the edge back to the start.

    ``tour`` is a :class:`Tour`, used as it is, or any sequence of city
    indices, checked by building a ``Tour`` from it.  Either way it must
    visit the matrix's n cities, or :class:`InvalidTourError` is raised.
    """
    check_record("m", m, DistanceMatrix)
    if not isinstance(tour, Tour):
        tour = Tour(tour)
    if tour.n != m.n:
        raise InvalidTourError(
            f"tour {quote(list(tour.order))} is not a permutation of 0..{m.n - 1}"
        )
    return float(_kernels.closed_tour_length(m.d, tour.order))


def _permutation_checks(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For each matrix of a (..., n, n) stack: is every row a single 1 among
    0s, and does every column then hold a single 1?"""
    ones = v == 1
    rows = ((ones | (v == 0)).all(axis=-1) & (ones.sum(axis=-1) == 1)).all(axis=-1)
    return rows, (ones.sum(axis=-2) == 1).all(axis=-1)


def is_valid_permutation_matrix(tm: np.ndarray) -> bool:
    """True iff ``tm`` is square, each row and column a single 1 among 0s."""
    return decode_grid(tm) is not None


def tour_to_matrix(t: Tour) -> np.ndarray:
    """Binary grid with a 1 at (city, position) for each visit."""
    check_record("t", t, Tour)
    n = t.n
    v = np.zeros((n, n), dtype=np.int64)
    for position, city in enumerate(t.order):
        v[city, position] = 1
    return v


def matrix_to_tour(tm: np.ndarray) -> Tour:
    """Inverse of :func:`tour_to_matrix`; rejects non-permutation matrices.

    The raised :class:`InvalidTourMatrixError` carries which condition
    failed first: "count" (not square), "row" or "column".  The 0 x 0
    matrix decodes to the empty tour.
    """
    v = np.asarray(tm)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise InvalidTourMatrixError(f"matrix must be square, got {v.shape}", "count")
    rows, columns = _permutation_checks(v)
    if not rows:
        raise InvalidTourMatrixError("some city row is not a single 1 among 0s", "row")
    if not columns:
        raise InvalidTourMatrixError(
            "some position column does not hold exactly one 1", "column"
        )
    return Tour(tuple(v.argmax(axis=0).tolist()) if v.size else ())


def canonicalize(t: Tour) -> Tour:
    """Rotate to start at city 0, oriented so 0's smaller neighbour comes second.

    Tours equal up to rotation/reversal canonicalize identically, collapsing
    the 2n symmetries of a closed tour.  A tour of 0 or 1 cities is its own.
    """
    check_record("t", t, Tour)
    order = t.order
    n = t.n
    if n < 2:
        return t
    at = order.index(0)
    forward = tuple(order[(at + i) % n] for i in range(n))
    backward = tuple(order[(at - i) % n] for i in range(n))
    return Tour(forward if forward[1] < backward[1] else backward)


@lru_cache(maxsize=None)
def _closing_sets(r: int):
    """The index arrays of :func:`_shortest_closings` on r cities, which
    depend on r alone, read-only: others[j, i], the index of the j-th of
    the r - 1 cities other than the i-th; the one-city sets; and for each
    size from 2 up, the sets of that size and each set less each city.  A
    set is a bit mask over the other cities, bit j for the j-th."""
    m = r - 1
    bits = 1 << np.arange(m)
    sizes = ((np.arange(1 << m)[:, None] & bits) > 0).sum(axis=1)
    others = np.arange(m)[:, None] + (np.arange(m)[:, None] >= np.arange(r))
    arrays = [others, bits]
    for size in range(2, r):
        sets = np.flatnonzero(sizes == size)
        arrays += [sets, sets[:, None] ^ bits]
    for a in arrays:
        a.flags.writeable = False
    return others, bits, tuple(zip(arrays[2::2], arrays[3::2]))


def _shortest_closings(d: np.ndarray, rest: np.ndarray, start: np.ndarray, second):
    """For each next city ``rest[i]``, the least length of a canonical tour
    that reaches it with length ``start[i]``, visits the rest of ``rest``
    and returns to city 0; NaN where no canonical tour does.  ``rest``
    holds r >= 2 cities.

    A tour is canonical when its last city is above its second one,
    ``second``, or above the next city itself when ``second`` is None.
    Held & Karp's dynamic program over (visited set, last city), batched
    over the next city: f[S, j, i] is the shortest path that reaches
    ``rest[i]`` with length ``start[i]`` and then visits the set S of the
    other r - 1 cities, ending at the j-th of them.  Each layer fills the
    sets of one size from those one smaller, for every next city at once.
    With the sets first, a layer gathers whole (r-1, r) blocks and reduces
    across them: at n = 8, 10 and 12 a solve took 0.79, 0.62 and 0.48
    times as long as with the order f[i, S, j] (medians of 21, 21 and 9
    alternated calls, 2 cores).  It adds each edge to the running length,
    as ``closed_tour_length`` does; rounding x + c is monotone in x, so
    every minimum is exact in floating point, not just to an ulp.

    Memory: the table holds 8 r (r-1) 2^(r-1) bytes, and the layer of the
    C = C(r-1, (r-1) // 2) sets of the middle size gathers 8 r (r-1)^2 C
    more and reduces them to 8 r (r-1) C, for a peak of about
    8 r (r-1) (2^(r-1) + r C) bytes: 3.3 MB at r = 11, the first level of
    n = 12.
    """
    r = rest.shape[0]
    others, bits, layers = _closing_sets(r)
    cities = rest[others]  # cities[j, i]: the j-th city of rest other than rest[i]
    step = d[cities[:, None], cities]  # step[k, j, i]: the edge from the j-th to the k-th
    f = np.full((1 << (r - 1), r - 1, r), np.nan)
    f[bits, np.arange(r - 1)] = start + d[cities, rest]
    for sets, prev in layers:
        # the path into k comes from S without k; where k is not in S the
        # lookup hits a larger set, still NaN
        paths = f[prev]
        paths += step
        f[sets] = np.fmin.reduce(paths, axis=2)
        del paths  # freed before the next layer gathers its own
    last_ok = cities > (rest if second is None else second)
    return np.fmin.reduce(np.where(last_ok, f[-1] + d[cities, 0], np.nan), axis=0)


def brute_force_optimum(m: DistanceMatrix) -> Tuple[Tour, float]:
    """Globally shortest closed tour, by Held & Karp's O(n^2 2^n) dynamic
    program; guarded to n <= 12.

    Returns what scoring all (n-1)!/2 canonical tours in lexicographic
    order and keeping the first strict minimum would: the lexicographically
    smallest canonical tour whose length, summed edge by edge from city 0,
    is the floating-point minimum, and that length.  The tour is built city
    by city, each time taking the smallest next city from which the
    minimum is still reached (:func:`_shortest_closings`, one batched DP
    per level); the last city is the one left.  The first level, with r =
    n - 1 candidates, is the largest: its peak is about 8 r (r-1) (2^(r-1)
    + r C(r-1, (r-1) // 2)) bytes, 3.3 MB at n = 12.
    """
    check_record("m", m, DistanceMatrix)
    n = m.n
    if n > BRUTE_FORCE_MAX_N:
        raise EnumerationTooLargeError(
            f"n={n} exceeds exact-search guard of {BRUTE_FORCE_MAX_N}"
        )
    d = m.d
    order = [0]
    length = None  # sums start at the first edge, not 0.0, keeping a -0.0 sign
    while True:
        rest = np.array([c for c in range(1, n) if c not in order])
        start = d[0, rest] if length is None else length + d[order[-1], rest]
        if len(rest) == 1:
            break  # every choice kept a canonical tour, so the last city closes one
        ends = _shortest_closings(d, rest, start, order[1] if len(order) > 1 else None)
        k = np.nanargmin(ends)  # the first next city that keeps the minimum
        order.append(int(rest[k]))
        length = start[k]
    return Tour(tuple(order) + (int(rest[0]),)), float(start[0] + d[rest[0], 0])


def decode_grid(grid: np.ndarray) -> Optional[Tour]:
    """Tour encoded by a grid, or None when the grid is not a permutation
    matrix (:func:`matrix_to_tour`)."""
    try:
        return matrix_to_tour(grid)
    except InvalidTourMatrixError:
        return None


def decode_grids(grids: np.ndarray) -> List[Optional[Tour]]:
    """:func:`decode_grid` of every grid in a (k, n, n) stack, in one pass of
    the same permutation-matrix checks; each position's city is then its
    column's argmax, and a 0 x 0 grid's tour is empty."""
    v = np.asarray(grids)
    ok = np.logical_and(*_permutation_checks(v))
    cities = v.argmax(axis=1).tolist() if v.shape[1] else [()] * len(v)
    return [Tour(tuple(c)) if valid else None for c, valid in zip(cities, ok.tolist())]
