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
    failed first: "count" (not square), "row" or "column".
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
    return Tour(tuple(int(city) for city in np.argmax(v, axis=0)))


def canonicalize(t: Tour) -> Tour:
    """Rotate to start at city 0, oriented so 0's smaller neighbour comes second.

    Tours equal up to rotation/reversal canonicalize identically, collapsing
    the 2n symmetries of a closed tour.
    """
    check_record("t", t, Tour)
    order = t.order
    n = t.n
    at = order.index(0)
    forward = tuple(order[(at + i) % n] for i in range(n))
    backward = tuple(order[(at - i) % n] for i in range(n))
    return Tour(forward if forward[1] < backward[1] else backward)


def _shortest_closings(d: np.ndarray, rest: np.ndarray, start: np.ndarray, second):
    """For each next city ``rest[i]``, the least length of a canonical tour
    that reaches it with length ``start[i]``, visits the rest of ``rest``
    and returns to city 0; NaN where no canonical tour does.

    A tour is canonical when its last city is above its second one,
    ``second``, or above the next city itself when ``second`` is None.
    Held & Karp's dynamic program over (next city, visited set, last city)
    adds each edge to the running length, as ``closed_tour_length`` does;
    rounding x + c is monotone in x, so every minimum is exact in floating
    point, not just to an ulp.
    """
    r = rest.shape[0]
    bits = 1 << np.arange(r)  # bit t of a visited set is rest[t]
    step = d[np.ix_(rest, rest)]  # symmetric: step[k, j] = d[rest[j], rest[k]]
    sizes = ((np.arange(1 << r)[:, None] & bits) > 0).sum(axis=1)
    layers = []  # the sets of each size, and each set without each city
    for size in range(2, r + 1):
        sets = np.flatnonzero(sizes == size)
        layers.append((sets, sets[:, None] ^ bits))
    ends = np.full(r, np.nan)
    for i in range(r):
        f = np.full((1 << r, r), np.nan)  # f[s, j]: shortest path through s to j
        f[bits[i], i] = start[i]
        for sets, prev in layers:
            # the path into k comes from s without k; where k is not in s the
            # lookup hits a larger set, still NaN
            f[sets] = np.fmin.reduce(f[prev] + step, axis=2)
        last_ok = rest > (rest[i] if second is None else second)
        ends[i] = np.fmin.reduce(np.where(last_ok, f[-1] + d[rest, 0], np.nan))
    return ends


def brute_force_optimum(m: DistanceMatrix) -> Tuple[Tour, float]:
    """Globally shortest closed tour, by Held & Karp's O(n^2 2^n) dynamic
    program; guarded to n <= 12.

    Returns what scoring all (n-1)!/2 canonical tours in lexicographic
    order and keeping the first strict minimum would: the lexicographically
    smallest canonical tour whose length, summed edge by edge from city 0,
    is the floating-point minimum, and that length.  The tour is built city
    by city, each time taking the smallest next city from which the
    minimum is still reached.
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
    while len(order) < n:
        rest = np.array([c for c in range(1, n) if c not in order])
        start = d[0, rest] if length is None else length + d[order[-1], rest]
        ends = _shortest_closings(d, rest, start, order[1] if len(order) > 1 else None)
        k = np.nanargmin(ends)  # the first next city that keeps the minimum
        order.append(int(rest[k]))
        length = start[k]
    return Tour(tuple(order)), float(length + d[order[-1], 0])


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
    column's argmax."""
    v = np.asarray(grids)
    ok = np.logical_and(*_permutation_checks(v))
    cities = v.argmax(axis=1).tolist()
    return [Tour(tuple(c)) if valid else None for c, valid in zip(cities, ok.tolist())]
