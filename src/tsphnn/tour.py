"""Tour representation, permutation-matrix codec, and the exhaustive solver.

A tour is a closed, undirected visiting order: rotations and reversals of
the same cycle are the same tour, and :func:`canonicalize` picks one
representative.  The n x n binary "tour matrix" encoding (rows = cities,
columns = visit positions) is a permutation matrix exactly when the tour
is legal.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import _kernels
from .errors import EnumerationTooLargeError, InvalidTourError, InvalidTourMatrixError
from .instance import DistanceMatrix

BRUTE_FORCE_MAX_N = 12


@dataclass(frozen=True)
class Tour:
    """A permutation of 0..n-1 giving the visiting order of a closed tour."""

    order: tuple

    def __post_init__(self):
        order = tuple(int(v) for v in self.order)
        n = len(order)
        if sorted(order) != list(range(n)):
            raise InvalidTourError(f"{order} is not a permutation of 0..{n - 1}")
        object.__setattr__(self, "order", order)

    @property
    def n(self) -> int:
        return len(self.order)

    def as_array(self) -> np.ndarray:
        return np.array(self.order, dtype=np.int64)

    @staticmethod
    def random(n: int, rng: np.random.Generator) -> "Tour":
        return Tour(tuple(int(v) for v in rng.permutation(n)))


def is_valid_permutation_matrix(tm: np.ndarray) -> bool:
    """True iff every row and column holds exactly one 1 and the total is n."""
    return decode_grid(tm) is not None


def tour_to_matrix(t: Tour) -> np.ndarray:
    """Binary grid with a 1 at (city, position) for each visit."""
    n = t.n
    v = np.zeros((n, n), dtype=np.int64)
    for position, city in enumerate(t.order):
        v[city, position] = 1
    return v


def matrix_to_tour(tm: np.ndarray) -> Tour:
    """Inverse of :func:`tour_to_matrix`; rejects non-permutation matrices.

    The raised :class:`InvalidTourMatrixError` carries which condition
    failed first ("row", "column" or "count").
    """
    v = np.asarray(tm)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise InvalidTourMatrixError(f"matrix must be square, got {v.shape}", "count")
    n = v.shape[0]
    if not np.all(v.sum(axis=1) == 1):
        raise InvalidTourMatrixError("some city row does not hold exactly one 1", "row")
    if not np.all(v.sum(axis=0) == 1):
        raise InvalidTourMatrixError(
            "some position column does not hold exactly one 1", "column"
        )
    if int(v.sum()) != n:
        raise InvalidTourMatrixError(f"matrix holds {int(v.sum())} ones, wants {n}", "count")
    return Tour(tuple(int(city) for city in np.argmax(v, axis=0)))


def canonicalize(t: Tour) -> Tour:
    """Rotate to start at city 0, oriented so 0's smaller neighbour comes second.

    Tours equal up to rotation/reversal canonicalize identically, collapsing
    the 2n symmetries of a closed tour.
    """
    order = t.order
    n = t.n
    at = order.index(0)
    forward = tuple(order[(at + i) % n] for i in range(n))
    backward = tuple(order[(at - i) % n] for i in range(n))
    return Tour(forward if forward[1] < backward[1] else backward)


def brute_force_optimum(m: DistanceMatrix) -> Tuple[Tour, float]:
    """Globally shortest closed tour by enumerating all (n-1)!/2 candidates.

    Ties break to the lexicographically smallest canonical tour.  Guarded to
    n <= 12; the search space grows factorially.
    """
    n = m.n
    if n > BRUTE_FORCE_MAX_N:
        raise EnumerationTooLargeError(
            f"n={n} exceeds exhaustive-search guard of {BRUTE_FORCE_MAX_N}"
        )
    best, best_len = _kernels.brute_force_search(m.d)
    return Tour(tuple(int(v) for v in best)), float(best_len)


def decode_grid(grid: np.ndarray) -> Optional[Tour]:
    """Tour encoded by a binary grid, or None when the grid is not a
    permutation matrix."""
    try:
        return matrix_to_tour(grid)
    except InvalidTourMatrixError:
        return None
