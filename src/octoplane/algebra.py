"""Arithmetic for the Cayley-Dickson tower of algebras over the reals.

Level n of the tower is a 2^n-dimensional real algebra: level 0 is R,
level 1 is C, level 2 the quaternions, level 3 the octonions, level 4
the sedenions, and so on.  Each level doubles the previous one via

    (a, b) * (c, d) = (a*c - conj(d)*b,  d*a + b*conj(c))
    conj((a, b))    = (conj(a), -b)
    |(a, b)|^2      = |a|^2 + |b|^2

In this doubling basis the product of two basis elements is always
e_i * e_j = +/- e_(i xor j): the tower is a twisted group algebra of
(Z/2)^n (Albuquerque-Majid 1999).  So only the signs are tabulated, and
every index of a basis product is computed as i ^ j.

Coordinates may be exact (int / Fraction, no rounding anywhere) or
double-precision floats.  All values are immutable and every operation
is a pure function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

import numpy as np

Scalar = Union[int, Fraction, float]

#: ``build_table`` refuses levels above this; tables grow as 4^level.
TABLE_LEVEL_CAP = 6


class LevelMismatchError(ValueError):
    """Raised when a binary operation mixes numbers of different levels."""


class TableSizeError(ValueError):
    """Raised when a requested multiplication table would be too large."""


class ZeroDivisorWarning(UserWarning):
    """conj(x)/|x|^2 stops being a reliable inverse once zero divisors exist."""


def _is_exact(value: Scalar) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


@lru_cache(maxsize=None)
def _signs(level: int) -> tuple[tuple[int, ...], ...]:
    """Sign rows of the basis products: e_i * e_j = _signs(level)[i][j] * e_(i ^ j).

    Built by doubling one level at a time: the doubling product evaluated
    on basis elements, where conj(e_j) = e_j for j = 0 and -e_j otherwise.
    Halves are joined by setting the top bit, so the index of every
    product is i xor j and only its sign is data.
    """
    if level == 0:
        return ((1,),)
    prev = _signs(level - 1)
    half = range(1 << (level - 1))
    # (e_i, 0)(e_j, 0) = (e_i e_j, 0) and (e_i, 0)(0, e_j) = (0, e_j e_i)
    low = [prev[i] + tuple(prev[j][i] for j in half) for i in half]
    # (0, e_i)(e_j, 0) = (0, e_i conj(e_j)) and (0, e_i)(0, e_j) = (-conj(e_j) e_i, 0)
    high = [
        tuple(-prev[i][j] if j else prev[i][j] for j in half)
        + tuple(prev[j][i] if j else -prev[j][i] for j in half)
        for i in half
    ]
    return tuple(low + high)


@lru_cache(maxsize=None)
def _struct_rows(level: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Per-row (j, i ^ j, sign) triples; the multiply kernel's layout."""
    return tuple(
        tuple((j, i ^ j, s) for j, s in enumerate(row)) for i, row in enumerate(_signs(level))
    )


def _mul_coords(level: int, xc: tuple, yc: tuple) -> tuple:
    """Bilinear product of coordinate tuples through the basis table."""
    if level == 0:
        return (xc[0] * yc[0],)
    rows = _struct_rows(level)
    out = [0] * (1 << level)
    for i, v in enumerate(xc):
        if v == 0:
            continue
        for j, k, s in rows[i]:
            w = yc[j]
            if w != 0:
                if s == 1:
                    out[k] += v * w
                else:
                    out[k] -= v * w
    return tuple(out)


@lru_cache(maxsize=None)
def _gather_layout(level: int) -> tuple[np.ndarray, np.ndarray]:
    """(columns, signs) with e_i * e_j = signs[k, i] * e_k for j = columns[k, i].

    e_i * e_j lies on the axis of e_(i ^ j), so for each i and k exactly
    one j = k ^ i puts it on the axis of e_k.  The arrays are shared
    between calls and read-only.
    """
    index = np.arange(1 << level)
    columns = index[:, None] ^ index
    gathered_signs = np.array(_signs(level), dtype=np.int64)[index, columns]
    columns.flags.writeable = False
    gathered_signs.flags.writeable = False
    return columns, gathered_signs


def _max_abs(rows: np.ndarray) -> int:
    return max(int(rows.max()), -int(rows.min())) if rows.size else 0


def _python_int(c) -> int:
    """``c`` as an int; a bool, float or Fraction raises TypeError."""
    if isinstance(c, bool):
        raise TypeError("batched products take integer coordinates, got a bool")
    return operator.index(c)


_as_python_ints = np.frompyfunc(_python_int, 1, 1)


def _integer_rows(rows, dim: int) -> np.ndarray:
    """``rows`` as an (N, dim) integer array, refusing anything not an integer.

    A list or non-integer array is read entry by entry as Python ints (numpy
    infers float64 for a list holding one >= 2^63), then held in int64 if all fit."""
    integer = isinstance(rows, np.ndarray) and rows.dtype.kind in "iu"
    rows = rows if integer else np.asarray(rows, dtype=object)
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise ValueError(f"expected an (N, {dim}) array, got shape {rows.shape}")
    if integer:
        return rows
    rows = _as_python_ints(rows)
    return rows.astype(np.int64) if _max_abs(rows) < 1 << 63 else rows


#: ``mul_batch`` gathers at most this many entries of ``ys`` at once: what
#: 256 dense rows gather at level 4, half a MB in int64.
_GATHER_BLOCK = 1 << 16


def mul_batch(level: int, xs, ys) -> np.ndarray:
    """Row-by-row products of two batches of integer elements at ``level``.

    ``xs`` and ``ys`` are (N, 2^level) arrays of integer coordinates; row n
    of the result holds the coordinates of xs[n] * ys[n], exactly as
    ``CDNumber.__mul__`` gives them.  Float and Fraction coordinates raise
    TypeError instead of being truncated; they take the scalar product.

    Output coordinate k is the sum over i of signs[k, i] * x_i * y_j with
    j = columns[k, i] (``_gather_layout``), one ``einsum`` over the rows of
    ``ys`` gathered along those columns.  Axes that no row of ``xs`` uses
    are left out of the gather, so sparse left factors cost little.  Rows
    run in blocks, each as many rows as gather at most 2^16 entries
    (``_GATHER_BLOCK``, half a MB of int64) and at least one, so the
    gather of a dense batch takes no more memory at level 6 than at level
    4; blocks change no result.

    Exactness: each output coordinate is a sum of at most 2^level terms
    +/- x_i y_j, so it and every partial sum are bounded by
    max|x| * max|y| * 2^level.  Below 2^62 that fits in int64 with room to
    spare and the products run in int64; above it they run on Python ints
    in object arrays, which cannot overflow.
    """
    dim = 1 << level
    xs = _integer_rows(xs, dim)
    ys = _integer_rows(ys, dim)
    if len(xs) != len(ys):
        raise ValueError(f"batches differ in length: {len(xs)} vs {len(ys)}")
    columns, signs = _gather_layout(level)
    if (_max_abs(xs) * _max_abs(ys)) << level < 1 << 62:
        xs, ys = xs.astype(np.int64, copy=False), ys.astype(np.int64, copy=False)
    else:
        xs, ys, signs = xs.astype(object), ys.astype(object), signs.astype(object)
    used = xs.any(axis=0).nonzero()[0]
    if len(used) < dim:  # a dense left factor is read in place, not copied
        xs, columns, signs = xs.take(used, axis=1), columns[:, used], signs.take(used, axis=1)
    step = max(1, _GATHER_BLOCK // (dim * max(1, len(used))))
    out = np.empty((len(xs), dim), dtype=xs.dtype)
    for start in range(0, len(xs), step):
        block = slice(start, start + step)
        np.einsum("ni,nki,ki->nk", xs[block], ys[block, columns], signs, out=out[block])
    return out


@dataclass(frozen=True, slots=True, init=False)
class CDNumber:
    """An element of the level-n Cayley-Dickson algebra.

    ``coords[i]`` is the coefficient of basis element e_i; the tuple has
    length 2^level.  Basis indexing follows the doubling order: the
    level-(n+1) pair (a, b) stores a's coordinates in the first half and
    b's in the second, so embeddings between levels preserve indices.
    Equality and hashing compare (level, coords).
    """

    level: int
    coords: tuple

    def __init__(self, level: int, coords: Iterable[Scalar]):
        coords = tuple(coords)
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        if len(coords) != 1 << level:
            raise ValueError(
                f"level {level} needs {1 << level} coordinates, got {len(coords)}"
            )
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coords", coords)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, level: int) -> "CDNumber":
        return cls(level, (0,) * (1 << level))

    @classmethod
    def one(cls, level: int) -> "CDNumber":
        return cls.basis(level, 0)

    @classmethod
    def basis(cls, level: int, index: int) -> "CDNumber":
        dim = 1 << level
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for level {level}")
        return cls(level, tuple(1 if i == index else 0 for i in range(dim)))

    @classmethod
    def from_scalar(cls, value: Scalar, level: int) -> "CDNumber":
        return cls(level, (value,) + (0,) * ((1 << level) - 1))

    # -- ring operations ----------------------------------------------

    def _require_same_level(self, other: "CDNumber") -> None:
        if self.level != other.level:
            raise LevelMismatchError(
                f"level mismatch: {self.level} vs {other.level}"
            )

    def __add__(self, other):
        if not isinstance(other, CDNumber):
            return NotImplemented
        self._require_same_level(other)
        return CDNumber(self.level, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        if not isinstance(other, CDNumber):
            return NotImplemented
        self._require_same_level(other)
        return CDNumber(self.level, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return CDNumber(self.level, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, CDNumber):
            self._require_same_level(other)
            return CDNumber(self.level, _mul_coords(self.level, self.coords, other.coords))
        if isinstance(other, (int, float, Fraction)):
            return CDNumber(self.level, tuple(a * other for a in self.coords))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return CDNumber(self.level, tuple(other * a for a in self.coords))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, Fraction)):
            if _is_exact(other) and self.is_exact():
                inv = Fraction(1, 1) / other
                return CDNumber(self.level, tuple(a * inv for a in self.coords))
            return CDNumber(self.level, tuple(a / other for a in self.coords))
        return NotImplemented

    # -- conjugation, norm, inverse ------------------------------------

    def conj(self) -> "CDNumber":
        """Conjugate: identity on e_0, sign flip on every other basis axis.

        Equals the recursive rule (a, b)* = (a*, -b) unrolled.
        """
        c = self.coords
        return CDNumber(self.level, (c[0],) + tuple(-a for a in c[1:]))

    def norm_sq(self) -> Scalar:
        """Squared norm, the sum of squared coordinates (kept exact when possible)."""
        total = 0
        for a in self.coords:
            total += a * a
        return total

    def inverse(self) -> "CDNumber":
        """conj(x) / |x|^2, the two-sided inverse at levels <= 3.

        At level >= 4 the same formula is returned but a ZeroDivisorWarning
        is emitted: with zero divisors around, multiplying by it does not
        undo multiplication by x.
        """
        ns = self.norm_sq()
        if ns == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self.level >= 4:
            warnings.warn(
                f"inverse at level {self.level}: algebra has zero divisors",
                ZeroDivisorWarning,
                stacklevel=2,
            )
        return self.conj() / ns

    # -- structure helpers ---------------------------------------------

    def embed(self, target_level: int) -> "CDNumber":
        """Zero-pad into a higher level; an index-preserving algebra map."""
        if target_level < self.level:
            raise ValueError(
                f"cannot embed level {self.level} into lower level {target_level}"
            )
        pad = (1 << target_level) - (1 << self.level)
        return CDNumber(target_level, self.coords + (0,) * pad)

    @property
    def real(self) -> Scalar:
        return self.coords[0]

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def is_exact(self) -> bool:
        return all(_is_exact(a) for a in self.coords)

    def max_abs(self) -> float:
        return max(abs(a) for a in self.coords)

    def __repr__(self):
        terms = []
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            terms.append(str(a) if i == 0 else f"{a}*e{i}")
        body = " + ".join(terms) if terms else "0"
        return f"CDNumber(level={self.level}: {body})"


# -- module-level operations ------------------------------------------


def basis_element(level: int, index: int) -> CDNumber:
    """The basis vector e_index at the given level."""
    return CDNumber.basis(level, index)


def embed(x: CDNumber, target_level: int) -> CDNumber:
    return x.embed(target_level)


def inner_product(x: CDNumber, y: CDNumber) -> Scalar:
    """The bilinear form (conj(x)y + conj(y)x) / 2, returned as a scalar.

    conj(y)x is the conjugate of conj(x)y, so the sum is real and the value
    is just the e_0 coordinate of conj(x)y.  It coincides with the Euclidean
    dot product of the coordinate vectors.
    """
    x._require_same_level(y)
    return (x.conj() * y).coords[0]


@dataclass(frozen=True, slots=True)
class MultiplicationTable:
    """Signed basis-product table for one level of the tower.

    entry(i, j) = (sign, i ^ j) with e_i * e_j = sign * e_(i ^ j).  Products
    of basis elements are always a single signed basis element, so the
    table describes multiplication completely; only the signs are stored.
    """

    level: int
    _sign_rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return 1 << self.level

    def entry(self, i: int, j: int) -> tuple[int, int]:
        dim = self.dim
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"indices ({i}, {j}) out of range for level {self.level}")
        return self._sign_rows[i][j], i ^ j

    def rows(self) -> list[list[tuple[int, int]]]:
        return [
            [(s, i ^ j) for j, s in enumerate(row)] for i, row in enumerate(self._sign_rows)
        ]

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "basis": [f"e{i}" for i in range(self.dim)],
            "table": [
                [{"sign": s, "index": k} for s, k in row] for row in self.rows()
            ],
        }

    def __repr__(self):
        return f"MultiplicationTable(level={self.level}, dim={self.dim})"


def build_table(level: int) -> MultiplicationTable:
    """Close the doubling product over basis elements at ``level``.

    Guarded at level 6: the table has 4^level entries and nothing at desk
    scale needs more.
    """
    if level < 0:
        raise ValueError(f"level must be non-negative, got {level}")
    if level > TABLE_LEVEL_CAP:
        raise TableSizeError(
            f"level {level} table would have {4 ** level} entries; cap is {TABLE_LEVEL_CAP}"
        )
    return MultiplicationTable(level, _signs(level))


# -- JSON scalar/number helpers ----------------------------------------


def scalar_to_json(value: Scalar):
    """Exact scalars become 'num/den' decimal strings; floats stay numbers."""
    if type(value) is int:
        return str(value)  # what str(Fraction(value)) gives, without building one
    if _is_exact(value):
        return str(Fraction(value))
    return float(value)


def scalar_from_json(value) -> Scalar:
    if isinstance(value, str):
        return Fraction(value)
    return float(value)


def cd_to_json(x: CDNumber) -> dict:
    return {"level": x.level, "coords": [scalar_to_json(a) for a in x.coords]}


def cd_from_json(data: dict) -> CDNumber:
    """Read back what ``cd_to_json`` writes; anything else raises ValueError.

    The level must be an int and the coordinates a list of 'num/den'
    strings (exact) or numbers (floats), bools excluded: ``int`` would
    truncate a level of 2.9, and a string would pass as a sequence of
    one-character coordinates.
    """
    if not isinstance(data, dict) or not {"level", "coords"} <= data.keys():
        raise ValueError(f"expected an object with 'level' and 'coords', got {data!r}")
    level, coords = data["level"], data["coords"]
    if isinstance(level, bool) or not isinstance(level, int):
        raise ValueError(f"level must be an integer, got {level!r}")
    if not isinstance(coords, list) or not all(
        isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in coords
    ):
        raise ValueError(f"coords must be a list of strings or numbers, got {coords!r}")
    if len(coords).bit_length() != level + 1:  # also keeps 1 << level small
        raise ValueError(f"level {level} needs 2^{level} coordinates, got {len(coords)}")
    try:
        values = tuple(scalar_from_json(v) for v in coords)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad coordinate in {coords!r}: {exc}") from exc
    return CDNumber(level, values)
