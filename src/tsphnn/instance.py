"""City sets, Euclidean distance matrices, normalization and persistence.

An :class:`Instance` is an immutable set of labelled planar points.  Its
distances are Euclidean unless the instance carries an explicit matrix
(loaded from file or bundled), in which case that matrix is validated and
used as-is instead of being recomputed from coordinates.
"""

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DegenerateInstanceError,
    InstanceSizeError,
    InvalidArgumentError,
    ParseError,
    TsphnnError,
    check_int,
    check_real,
    check_record,
    quote,
)


@dataclass(frozen=True)
class City:
    """A labelled point in the plane."""

    label: str
    x: float
    y: float

    def __post_init__(self):
        check_record("label", self.label, str)
        for axis in ("x", "y"):
            try:
                value = check_real(axis, getattr(self, axis))
            except InvalidArgumentError as exc:
                # The label is quoted only while refusing.
                raise InvalidArgumentError(f"city {quote(self.label)} {exc}") from None
            object.__setattr__(self, axis, value)


@dataclass(frozen=True)
class Instance:
    """An ordered set of at least three uniquely labelled cities.

    ``matrix``, when present, is an explicit distance matrix that overrides
    coordinate-derived distances; it is checked once, and kept frozen with
    the :class:`DistanceMatrix` that :func:`distance_matrix` returns.
    ``seed`` records how the instance was generated, when it was generated
    at all.  Two instances are equal when their ids, cities, seeds and
    checked matrices are, and equal instances hash alike.
    """

    id: str
    cities: tuple
    seed: Optional[int] = None
    matrix: Optional[np.ndarray] = field(default=None, compare=False)  # compared as _distances
    _distances: Optional["DistanceMatrix"] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        check_record("id", self.id, str)
        if self.seed is not None:
            object.__setattr__(self, "seed", check_int("seed", self.seed, 0))
        check_record("cities", self.cities, tuple)
        for city in self.cities:
            check_record("city", city, City)
        if len(self.cities) < 3:
            raise InstanceSizeError(
                f"instance needs at least 3 cities, got {len(self.cities)}"
            )
        labels = [c.label for c in self.cities]
        if len(set(labels)) != len(labels):
            raise TsphnnError(f"duplicate city labels in instance {quote(self.id)}")
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


def _lengths_overflow(n: int, longest: float) -> bool:
    """Whether 2*n*M overflows for n cities of largest distance M, the case
    that :class:`DistanceMatrix` refuses."""
    return math.isinf(2.0 * n * longest)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Square, symmetric, finite, nonnegative matrix with a zero diagonal,
    on at least 3 cities, whose n and largest entry M have 2*n*M finite.

    That last rule keeps every sum a solver forms finite, so no solver has
    an overflow mode.  Each partial sum of such a sum is exactly at most
    n*M in size: a tour length's, of n edges (the oracle's partial tours
    too); an SA edge delta's, of the rounded differences of its changed
    edges, at most one per tour position, as an edge listed twice adds an
    exact 0; a 2-opt delta's, two distances less two; a 3-opt sum's, three
    with n >= 5; a row of d, which the network's field bound doubles.  Each
    term reaches it through at most 2n roundings, so by the summation lemma
    of :mod:`._rounding` it is computed at most (1 + gamma_{2n}) * n*M <
    2*n*M, which does not overflow while fl(2*n*M) is finite.

    The one check and the one conversion of every distance matrix, an
    :class:`Instance`'s explicit one and an instance file's included.  Its
    entries must be numbers: strings, bytes and booleans are refused, not
    read as numbers.  The array is frozen, so a matrix can be shared by
    every caller without being copied or checked again.  A read-only
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
            try:
                # Input that is not an array is first held as objects, each
                # entry as given: NumPy makes float64 of a list that mixes
                # truth values with floats.
                d = np.array(d, dtype=None if isinstance(d, np.ndarray) else object, order="C")
                # Text and truth values are not distances, as an array of
                # their own or among the objects of a mixed one; the objects
                # are checked by type, each type once.
                kinds = set(map(type, d.flat)) if d.dtype.kind == "O" else ()
                if d.dtype.kind in "USb" or any(
                    issubclass(kind, (str, bytes, bool, np.bool_)) for kind in kinds
                ):
                    raise TypeError
                d = d.astype(np.float64, copy=False)
            except (TypeError, ValueError, OverflowError):
                raise TsphnnError(
                    f"distance matrix must be a square array of numbers, got {quote(self.d)}"
                ) from None
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise TsphnnError(f"distance matrix must be square, got shape {d.shape}")
        if d.shape[0] < 3:
            raise InstanceSizeError("distance matrix needs at least 3 cities")
        if not np.all(np.isfinite(d)):
            raise TsphnnError("distance matrix has non-finite entries")
        if np.any(d < 0):
            raise TsphnnError("distance matrix has negative entries")
        longest = float(d.max())
        if _lengths_overflow(d.shape[0], longest):
            raise TsphnnError(
                f"tour lengths overflow ({d.shape[0]} cities, largest distance {longest:g})"
            )
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
    # Past this n, NumPy cannot size the (n, 2) coordinate array at all.
    n = check_int("n", n, None, np.iinfo(np.intp).max // 16)
    if n < 3:
        raise InstanceSizeError(f"instance needs at least 3 cities, got {quote(n)}")
    # The plain base type, which callers of this refusal have matched.
    bound = check_real("bound", bound, 0, error=TsphnnError)
    seed = check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, bound, size=(n, 2))
    cities = tuple(City(lab, x, y) for lab, (x, y) in zip(_labels(n), pts))
    return Instance(id=f"rand-n{n}-seed{seed}-b{bound:g}", cities=cities, seed=seed)


def distance_matrix(inst: Instance) -> DistanceMatrix:
    """Pairwise Euclidean distances, or the instance's explicit matrix if set."""
    check_record("inst", inst, Instance)
    if inst.matrix is not None:
        return inst._distances
    x, y = inst.coords().T
    with np.errstate(over="ignore"):  # DistanceMatrix refuses an infinite distance
        d = np.subtract.outer(x, x)
        np.hypot(d, np.subtract.outer(y, y), out=d)  # at most two n x n arrays at once
    d.flags.writeable = False  # shared, not copied
    try:
        return DistanceMatrix(d)
    except TsphnnError as exc:
        raise TsphnnError(f"instance {quote(inst.id)}: {exc}") from None


def normalize_distances(m: DistanceMatrix) -> DistanceMatrix:
    """Scale so the largest entry is exactly 1.0.  Idempotent."""
    check_record("m", m, DistanceMatrix)
    peak = float(m.d.max())
    if peak == 0.0:
        raise DegenerateInstanceError("all distances are zero; cannot normalize")
    scaled = m.d / peak
    scaled.flags.writeable = False  # shared, not copied
    return DistanceMatrix(scaled)


def save_instance(inst: Instance, path) -> None:
    """Write the instance as JSON; coordinates round-trip exactly.  ``path``
    is a ``str`` or ``os.PathLike``, never a file descriptor."""
    check_record("inst", inst, Instance)
    check_record("path", path, (str, os.PathLike))
    payload = {
        "id": inst.id,
        "seed": inst.seed,
        "cities": [{"label": c.label, "x": c.x, "y": c.y} for c in inst.cities],
    }
    if inst.matrix is not None:
        payload["matrix"] = inst.matrix.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_text(path) -> str:
    """A file's text; bytes that are not UTF-8 raise :class:`ParseError`
    naming the file.  ``path`` is a ``str`` or ``os.PathLike``: ``open``
    would take an integer as a file descriptor, read it and close it."""
    check_record("path", path, (str, os.PathLike))
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


def _number(path, field: str, value):
    """``value``, refused where a number belongs if it is a JSON ``true`` or
    ``false``, which :mod:`json` reads as a ``bool`` and so as 1 or 0."""
    if isinstance(value, bool):
        raise ParseError(f"{path}: {field} must be a JSON number, got {json.dumps(value)}")
    return value


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
        x, y = (_number(path, f"cities[{idx}]: {axis}", entry[axis]) for axis in "xy")
        try:
            cities.append(City(entry["label"], x, y))
        except TsphnnError as exc:
            raise ParseError(f"{path}: cities[{idx}]: {exc}") from exc
    matrix = payload.get("matrix")
    if matrix is not None:
        for i, row in enumerate(matrix if isinstance(matrix, list) else ()):
            for j, value in enumerate(row if isinstance(row, list) else ()):
                _number(path, f"matrix[{i}][{j}]", value)
        try:
            matrix = DistanceMatrix(matrix).d
        except TsphnnError as exc:
            raise ParseError(f"{path}: matrix: {exc}") from exc
    seed = _number(path, "seed", payload.get("seed"))
    try:
        return Instance(
            id=payload.get("id", "unnamed"),
            cities=tuple(cities),
            seed=seed,
            matrix=matrix,
        )
    except TsphnnError as exc:
        raise ParseError(f"{path}: {exc}") from exc
