"""Bundled named instances used by the CLI, examples and test suite.

``cityset1`` is a 10-city set on the unit square, ``paper8`` an 8-city set
on a small integer grid, and ``matrix4`` a 4-city instance defined by an
explicit distance matrix (its coordinates are nominal placeholders used
only for plotting).
"""

import numpy as np

from .errors import quote
from .instance import City, Instance

_CITYSET1 = [
    ("A", 0.25, 0.16),
    ("B", 0.85, 0.35),
    ("C", 0.65, 0.24),
    ("D", 0.70, 0.50),
    ("E", 0.15, 0.22),
    ("F", 0.25, 0.78),
    ("G", 0.40, 0.45),
    ("H", 0.90, 0.65),
    ("I", 0.55, 0.90),
    ("J", 0.60, 0.28),
]

_PAPER8 = [
    ("A", 2.0, 3.0),
    ("B", 5.0, 6.0),
    ("C", 8.0, 5.0),
    ("D", 4.0, 7.0),
    ("E", 6.0, 4.0),
    ("F", 2.0, 1.0),
    ("G", 6.0, 7.0),
    ("H", 5.0, 2.0),
]

_MATRIX4_D = np.array(
    [
        [0.0, 15.0, 13.0, 17.0],
        [15.0, 0.0, 14.0, 27.0],
        [13.0, 14.0, 0.0, 25.0],
        [17.0, 27.0, 25.0, 0.0],
    ]
)

_MATRIX4_COORDS = [("A", 0.0, 0.0), ("B", 1.0, 0.0), ("C", 1.0, 1.0), ("D", 0.0, 1.0)]


def _mk(id_, rows, matrix=None):
    return Instance(
        id=id_,
        cities=tuple(City(lab, x, y) for lab, x, y in rows),
        matrix=matrix,
    )


BUILTIN_INSTANCES = {
    "cityset1": _mk("cityset1", _CITYSET1),
    "paper8": _mk("paper8", _PAPER8),
    "matrix4": _mk("matrix4", _MATRIX4_COORDS, _MATRIX4_D),
}


def get_builtin(name: str) -> Instance:
    # Only a string is looked up, so an unhashable name is unknown too.
    if isinstance(name, str) and name in BUILTIN_INSTANCES:
        return BUILTIN_INSTANCES[name]
    raise KeyError(f"unknown builtin instance {quote(name)}; have {sorted(BUILTIN_INSTANCES)}")
