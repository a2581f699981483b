"""City sets, Euclidean distance matrices, normalization and persistence.

An :class:`Instance` is an immutable set of labelled planar points.  Its
distances are Euclidean unless the instance carries an explicit matrix
(loaded from file or bundled), in which case that matrix is validated and
used as-is instead of being recomputed from coordinates.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DegenerateInstanceError,
    InstanceSizeError,
    InvalidArgumentError,
    ParseError,
    TsphnnError,
)


@dataclass(frozen=True)
class City:
    """A labelled point in the plane."""

    label: str
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise TsphnnError(f"city {self.label!r} has non-finite coordinates")


@dataclass(frozen=True, eq=False)
class Instance:
    """An ordered set of at least three uniquely labelled cities.

    ``matrix``, when present, is an explicit distance matrix that overrides
    coordinate-derived distances; it is checked once, and kept frozen with
    the :class:`DistanceMatrix` that :func:`distance_matrix` returns.
    ``seed`` records how the instance was generated, when it was generated
    at all.
    """

    id: str
    cities: tuple
    seed: Optional[int] = None
    matrix: Optional[np.ndarray] = None
    _distances: Optional["DistanceMatrix"] = field(default=None, init=False, repr=False)

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        if (self.id, self.cities, self.seed) != (other.id, other.cities, other.seed):
            return False
        if (self.matrix is None) != (other.matrix is None):
            return False
        return self.matrix is None or np.array_equal(self.matrix, other.matrix)

    def __post_init__(self):
        if len(self.cities) < 3:
            raise InstanceSizeError(
                f"instance needs at least 3 cities, got {len(self.cities)}"
            )
        labels = [c.label for c in self.cities]
        if len(set(labels)) != len(labels):
            raise TsphnnError(f"duplicate city labels in instance {self.id!r}")
        if self.matrix is not None:
            m = DistanceMatrix(self.matrix)
            if m.n != len(self.cities):
                raise TsphnnError(
                    f"matrix is {m.n}x{m.n} but instance has {len(self.cities)} cities"
                )
            object.__setattr__(self, "matrix", m.d)
            object.__setattr__(self, "_distances", m)

    @property
    def n(self) -> int:
        return len(self.cities)

    def coords(self) -> np.ndarray:
        """(n, 2) coordinate array in city order."""
        return np.array([[c.x, c.y] for c in self.cities], dtype=np.float64)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Square, symmetric, finite, nonnegative matrix with a zero diagonal,
    on at least 3 cities.

    The one check of every distance matrix, an :class:`Instance`'s
    explicit one included.  The array is frozen, so a matrix can be shared
    by every caller without being copied or checked again.  A read-only
    C-contiguous float64 array is shared as it is; any other input is
    copied, so the caller's own array stays writeable.  Two matrices are
    equal when their arrays are, and equal matrices hash alike.
    """

    d: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, DistanceMatrix):
            return NotImplemented
        return np.array_equal(self.d, other.d)

    def __hash__(self):
        # + 0.0 turns -0.0, which equals 0.0, into 0.0.
        return hash((self.d + 0.0).tobytes())

    def __post_init__(self):
        d = self.d
        if not (
            type(d) is np.ndarray
            and d.dtype == np.float64
            and d.flags.c_contiguous
            and not d.flags.writeable
        ):
            d = np.array(d, dtype=np.float64, order="C")
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise TsphnnError(f"distance matrix must be square, got shape {d.shape}")
        if d.shape[0] < 3:
            raise InstanceSizeError("distance matrix needs at least 3 cities")
        if not np.all(np.isfinite(d)):
            raise TsphnnError("distance matrix has non-finite entries")
        if np.any(d < 0):
            raise TsphnnError("distance matrix has negative entries")
        if np.any(np.diagonal(d) != 0):
            raise TsphnnError("distance matrix diagonal must be zero")
        if not np.array_equal(d, d.T):
            raise TsphnnError("distance matrix must be symmetric")
        d.flags.writeable = False
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.d.shape[0]


def _labels(n: int):
    """A, B, ..., Z, AA, AB, ... spreadsheet-style labels."""
    out = []
    for i in range(n):
        s = ""
        v = i
        while True:
            s = chr(ord("A") + v % 26) + s
            v = v // 26 - 1
            if v < 0:
                break
        out.append(s)
    return out


def generate_random_instance(n: int, seed: int, bound: float = 1.0) -> Instance:
    """n cities drawn uniformly from [0, bound]^2, reproducible from the seed."""
    if n < 3:
        raise InstanceSizeError(f"instance needs at least 3 cities, got {n}")
    if not bound > 0:
        raise TsphnnError(f"bound must be positive, got {bound}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, bound, size=(n, 2))
    cities = tuple(
        City(lab, float(x), float(y)) for lab, (x, y) in zip(_labels(n), pts)
    )
    return Instance(id=f"rand-n{n}-seed{seed}-b{bound:g}", cities=cities, seed=seed)


def distance_matrix(inst: Instance) -> DistanceMatrix:
    """Pairwise Euclidean distances, or the instance's explicit matrix if set."""
    if inst.matrix is not None:
        return inst._distances
    x, y = inst.coords().T
    d = np.subtract.outer(x, x)
    np.hypot(d, np.subtract.outer(y, y), out=d)  # at most two n x n arrays at once
    d.flags.writeable = False  # shared, not copied
    return DistanceMatrix(d)


def normalize_distances(m: DistanceMatrix) -> DistanceMatrix:
    """Scale so the largest entry is exactly 1.0.  Idempotent."""
    peak = float(m.d.max())
    if peak == 0.0:
        raise DegenerateInstanceError("all distances are zero; cannot normalize")
    scaled = m.d / peak
    scaled.flags.writeable = False  # shared, not copied
    return DistanceMatrix(scaled)


def save_instance(inst: Instance, path) -> None:
    """Write the instance as JSON; coordinates round-trip exactly."""
    payload = {
        "id": inst.id,
        "seed": inst.seed,
        "cities": [{"label": c.label, "x": c.x, "y": c.y} for c in inst.cities],
    }
    if inst.matrix is not None:
        payload["matrix"] = [[float(v) for v in row] for row in inst.matrix]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_text(path) -> str:
    """A file's text; bytes that are not UTF-8 raise :class:`ParseError`
    naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read_json(path):
    """The JSON value in a UTF-8 file.  Text that is not JSON, an integer
    past Python's digit limit or nesting past its recursion limit raises
    :class:`ParseError` naming the file."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_instance(path) -> Instance:
    """Read an instance written by :func:`save_instance`.

    Raises :class:`ParseError` with line/field context on malformed input.
    """
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: top level must be an object")
    if "cities" not in payload:
        raise ParseError(f"{path}: missing field 'cities'")
    if not isinstance(payload["cities"], list):
        raise ParseError(f"{path}: cities must be a list")
    cities = []
    for idx, entry in enumerate(payload["cities"]):
        for field in ("label", "x", "y"):
            if not isinstance(entry, dict) or field not in entry:
                raise ParseError(f"{path}: cities[{idx}] missing field '{field}'")
        try:
            cities.append(
                City(str(entry["label"]), float(entry["x"]), float(entry["y"]))
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: cities[{idx}]: {exc}") from exc
    matrix = payload.get("matrix")
    try:
        matrix = None if matrix is None else np.asarray(matrix, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: matrix: {exc}") from exc
    try:
        return Instance(
            id=str(payload.get("id", "unnamed")),
            cities=tuple(cities),
            seed=payload.get("seed"),
            matrix=matrix,
        )
    except TsphnnError as exc:
        raise ParseError(f"{path}: {exc}") from exc
