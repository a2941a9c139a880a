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

A scalar product (``CDNumber.__mul__``, through ``_mul_coords``) follows
one rule: output k is ``0 +/- x0*y(0^k) +/- x1*y(1^k) ...``, i ascending,
with every term made, zero factors included.  Levels 1 to
``TABLE_LEVEL_CAP`` run it as a straight-line expression compiled once per
level from those signs, and higher levels as a plain loop.  Batches of
integer elements take ``_Batch``, the exact batch kernel: one gather of
signed products per batch, in int64 or Python ints as the carried entry
bound allows.  ``left_mult_matrix`` and ``right_mult_matrix`` read the
same gather layout.

Coordinates may be exact (int / Fraction, no rounding anywhere) or
double-precision floats.  All values are immutable and every operation
is a pure function, so everything here is safe to share across threads.

A public function of the package that refuses an argument's type, range
or shape raises ``ArgumentError``, a ValueError.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

import numpy as np

Scalar = Union[int, Fraction, float]

#: ``build_table`` refuses levels above this, and ``_mul_coords`` compiles no
#: kernel above it but makes the same terms in a loop; tables and kernels
#: grow as 4^level.
TABLE_LEVEL_CAP = 6

#: No tuple holds 2^level coordinates above this level.
_MAX_LEVEL = sys.maxsize.bit_length() - 1


class ArgumentError(ValueError):
    """Raised when a public function rejects an argument its caller passed."""


class LevelMismatchError(ValueError):
    """Raised when a binary operation mixes numbers of different levels."""


class TableSizeError(ArgumentError):
    """Raised when a requested multiplication table would be too large."""


class ZeroDivisorWarning(UserWarning):
    """conj(x)/|x|^2 stops being a reliable inverse once zero divisors exist."""


def _int_arg(name: str, value, low: int, high: float = math.inf) -> int:
    """``value`` as a Python int: the one rule for public integer arguments.

    An int, a numpy integer, or a float or Fraction equal to an int passes
    when it lies in [low, high].  A bool, a non-integral value, NaN, an
    infinity, a string or None raises one ArgumentError that names the
    argument and its range.
    """
    if type(value) is int or not isinstance(value, (bool, np.bool_)):  # ints skip a slow check
        try:
            number = int(value)
            if number == value and low <= number <= high:
                return number
        except (TypeError, ValueError, OverflowError):  # None, a string, a NaN, an infinity
            pass
    bounds = f"in [{low}, {high}]" if high < math.inf else f">= {low}"
    raise ArgumentError(f"{name} must be an integer {bounds}, got {value!r}")


#: The coordinate types a ``CDNumber`` stores.
_SCALAR_TYPES = frozenset((int, Fraction, float))


def _coordinate(value) -> Scalar:
    """``value`` as a coordinate: an int, Fraction or float is kept, a numpy
    integer becomes an int and a numpy float a float.  A bool, a complex
    number, a string, None or any other type raises ArgumentError."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)  # a numpy bool is no np.integer, so it is refused below
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, Fraction):
        return value
    raise ArgumentError(f"coordinates must be ints, Fractions or floats, got {value!r}")


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
def _product_kernel(level: int):
    """The scalar product at ``level``, one expression per output.

    Output k is ``0 +/- x0*y(0^k) +/- x1*y(1^k) ...``, i ascending, with
    ``+`` where _signs(level)[i][i ^ k] is +1 and every term made.  It is
    compiled on a level's first product.  The source has 4^level terms and
    takes about 20 ms to compile at level 6, four times as long at each
    level above, so ``_mul_coords`` stops at ``TABLE_LEVEL_CAP``.
    """
    dim = 1 << level
    signs = _signs(level)
    outputs = (
        "0" + "".join(f" {'+' if signs[i][i ^ k] == 1 else '-'} x{i}*y{i ^ k}" for i in range(dim))
        for k in range(dim)
    )
    source = (
        "def kernel(xc, yc):\n"
        f"    {', '.join(f'x{i}' for i in range(dim))}, = xc\n"
        f"    {', '.join(f'y{i}' for i in range(dim))}, = yc\n"
        f"    return ({', '.join(outputs)},)\n"
    )
    namespace: dict = {}
    exec(compile(source, f"<level-{level} product kernel>", "exec"), namespace)
    return namespace["kernel"]


def _mul_coords(level: int, xc: tuple, yc: tuple) -> tuple:
    """Bilinear product of coordinate tuples through the basis signs.

    Output k is ``0 +/- x0*y(0^k) +/- x1*y(1^k) ...``, i ascending, with
    every term made, zero factors included.  The level alone picks how:
    level 0 is ``x0*y0``, levels 1 to ``TABLE_LEVEL_CAP`` run the compiled
    ``_product_kernel`` and higher levels a loop over i ascending that adds
    each term to output i ^ j.  Both make the same terms in the same order
    from the int 0, so they agree bit for bit and type for type: signed
    zeros, inf, NaN and mixed int / float / Fraction coordinates included.
    """
    if level == 0:
        return (xc[0] * yc[0],)
    if level <= TABLE_LEVEL_CAP:
        return _product_kernel(level)(xc, yc)
    signs = _signs(level)
    out = [0] * (1 << level)
    for i, v in enumerate(xc):
        for j, (w, s) in enumerate(zip(yc, signs[i])):
            if s == 1:
                out[i ^ j] += v * w
            else:
                out[i ^ j] -= v * w
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


#: A ``_Batch`` product gathers at most this many entries of its right
#: factor at once: what 256 dense rows gather at level 4, half a MB in int64.
_GATHER_BLOCK = 1 << 16


class _Batch:
    """N elements of one level as the rows of an integer array: the exact batch kernel.

    Implements just what the identity predicates of ``properties`` use, row
    by row: products, whose row n holds rows[n] * other.rows[n] exactly as
    ``CDNumber.__mul__`` gives it; ``!=``, true where two rows differ; and
    ``norm_sq``.  ``bound`` bounds |entry| and is carried, not measured:
    whoever makes a batch states it, and a product's is bx * by << level,
    since each output coordinate, and each of its partial sums, adds
    2^level terms +/- x_i y_j.  It alone picks the arithmetic: int64 below
    2^62, and Python ints in object arrays above, which cannot overflow.

    Output coordinate k of a product is the sum over i of signs[k, i] x_i y_j
    with j = columns[k, i] (``_gather_layout``), one ``einsum`` over the rows
    of ``other`` gathered along those columns.  Axes that no row of ``self``
    uses are left out of the gather, so sparse left factors cost little, and
    rows run in blocks that gather at most ``_GATHER_BLOCK`` entries each (one
    row at least), so a dense batch takes no more memory at level 6 than at
    level 4.  Neither a loose bound nor the blocks change any result.
    """

    __slots__ = ("level", "rows", "bound")

    def __init__(self, level: int, rows: np.ndarray, bound: int):
        self.level = level
        self.rows = rows
        self.bound = bound

    def __mul__(self, other: "_Batch") -> "_Batch":
        level, dim = self.level, 1 << self.level
        bound = self.bound * other.bound << level
        columns, signs = _gather_layout(level)
        xs, ys = self.rows, other.rows
        if bound < 1 << 62:
            xs, ys = xs.astype(np.int64, copy=False), ys.astype(np.int64, copy=False)
        else:
            xs, ys, signs = xs.astype(object), ys.astype(object), signs.astype(object)
        used = xs.any(axis=0).nonzero()[0]
        if len(used) < dim:  # a dense left factor is read in place, not copied
            xs, columns, signs = xs.take(used, axis=1), columns[:, used], signs.take(used, axis=1)
        step = max(1, _GATHER_BLOCK // (dim * max(1, len(used))))
        blocks = [  # one at least, so an empty batch gives an empty (0, dim) array
            np.einsum("ni,nki,ki->nk", xs[n : n + step], ys[n : n + step, columns], signs)
            for n in range(0, max(1, len(xs)), step)
        ]
        return _Batch(level, blocks[0] if len(blocks) == 1 else np.concatenate(blocks), bound)

    def __ne__(self, other: "_Batch") -> np.ndarray:
        return (self.rows != other.rows).any(axis=1)

    def norm_sq(self) -> np.ndarray:
        rows = self.rows
        # below 2^31 a product of two norms still fits in int64
        if self.bound**2 << self.level >= 1 << 31:
            rows = rows.astype(object)
        return (rows * rows).sum(axis=1)


def right_mult_matrix(a: CDNumber) -> np.ndarray:
    """Matrix of x -> x a, as floats: column j is e_j a, whose entry k is
    signs[k, j] a_(j ^ k) (``_gather_layout``).  ``+ 0.0`` turns the -0.0 of
    a negated zero into the 0.0 that a product's sum from 0 gives."""
    columns, signs = _gather_layout(a.level)
    return signs * np.array(a.coords, dtype=float)[columns] + 0.0


def left_mult_matrix(b: CDNumber) -> np.ndarray:
    """Matrix of x -> b x, as floats: column j is b e_j, whose entry k is the
    sign of e_(j ^ k) e_j times b_(j ^ k), read as in ``right_mult_matrix``."""
    columns, signs = _gather_layout(b.level)
    return np.take_along_axis(signs, columns, 1) * np.array(b.coords, dtype=float)[columns] + 0.0


class _FrozenSlots:
    """Base of the frozen value types, which list their ``__slots__`` by hand.

    ``@dataclass(slots=True)`` builds a second class, and on CPython 3.10
    and 3.11 the frozen ``__setattr__`` still names the first, so assigning
    a name that is not a field raises TypeError instead of
    FrozenInstanceError.  Copying and pickling restore slots through
    setattr, which a frozen class refuses, so state goes through these two
    methods instead, as dataclass does for the slots it makes.
    """

    __slots__ = ()

    def __getstate__(self):
        return [getattr(self, name) for name in self.__slots__]

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, init=False)
class CDNumber(_FrozenSlots):
    """An element of the level-n Cayley-Dickson algebra.

    ``coords[i]`` is the coefficient of basis element e_i; the tuple has
    length 2^level.  Basis indexing follows the doubling order: the
    level-(n+1) pair (a, b) stores a's coordinates in the first half and
    b's in the second, so embeddings between levels preserve indices.
    Equality and hashing compare (level, coords).

    The level follows the integer rule (``_int_arg``), and each coordinate
    is stored as an int, Fraction or float (``_coordinate``).  Arithmetic
    can only yield those, so its results skip both checks (``_cd``).
    """

    __slots__ = ("level", "coords")
    level: int
    coords: tuple

    def __init__(self, level: int, coords: Iterable[Scalar]):
        level = _int_arg("level", level, 0, _MAX_LEVEL)
        coords = tuple(coords)
        if len(coords) != 1 << level:
            raise ArgumentError(
                f"level {level} needs {1 << level} coordinates, got {len(coords)}"
            )
        if not _SCALAR_TYPES.issuperset(map(type, coords)):
            coords = tuple(map(_coordinate, coords))
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coords", coords)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, level: int) -> "CDNumber":
        return cls.from_scalar(0, level)

    @classmethod
    def one(cls, level: int) -> "CDNumber":
        return cls.basis(level, 0)

    @classmethod
    def basis(cls, level: int, index: int) -> "CDNumber":
        level = _int_arg("level", level, 0, _MAX_LEVEL)
        dim = 1 << level
        index = _int_arg("basis index", index, 0, dim - 1)
        return cls(level, tuple(1 if i == index else 0 for i in range(dim)))

    @classmethod
    def from_scalar(cls, value: Scalar, level: int) -> "CDNumber":
        level = _int_arg("level", level, 0, _MAX_LEVEL)
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
        return _cd(self.level, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        if not isinstance(other, CDNumber):
            return NotImplemented
        self._require_same_level(other)
        return _cd(self.level, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return _cd(self.level, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, CDNumber):
            self._require_same_level(other)
            return _cd(self.level, _mul_coords(self.level, self.coords, other.coords))
        if isinstance(other, (int, float, Fraction)):
            other = _coordinate(other)
            return _cd(self.level, tuple(a * other for a in self.coords))
        return NotImplemented

    __rmul__ = __mul__  # scaling commutes bit for bit; a CDNumber left factor takes __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, Fraction)):
            other = _coordinate(other)
            if _is_exact(other) and self.is_exact():
                inv = Fraction(1, 1) / other
                return _cd(self.level, tuple(a * inv for a in self.coords))
            return _cd(self.level, tuple(a / other for a in self.coords))
        return NotImplemented

    # -- conjugation, norm, inverse ------------------------------------

    def conj(self) -> "CDNumber":
        """Conjugate: identity on e_0, sign flip on every other basis axis.

        Equals the recursive rule (a, b)* = (a*, -b) unrolled.
        """
        c = self.coords
        return _cd(self.level, (c[0],) + tuple(-a for a in c[1:]))

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
        target_level = _int_arg("target level", target_level, self.level)
        pad = (1 << target_level) - (1 << self.level)
        return _cd(target_level, self.coords + (0,) * pad)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def is_exact(self) -> bool:
        return all(_is_exact(a) for a in self.coords)

    def max_abs(self) -> Scalar:
        """Largest coordinate size; NaN when a coordinate is NaN."""
        return _max_size(self.coords)

    def __repr__(self):
        terms = []
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            terms.append(str(a) if i == 0 else f"{a}*e{i}")
        body = " + ".join(terms) if terms else "0"
        return f"CDNumber(level={self.level}: {body})"


_set_level, _set_coords = CDNumber.level.__set__, CDNumber.coords.__set__


def _cd(level: int, coords: tuple) -> CDNumber:
    """A ``CDNumber`` made without ``__init__``'s checks, for coordinates that
    can only be ints, Fractions or floats: what arithmetic yields, and integer
    rows read back with ``tolist``.  ``coords`` is a tuple of 2^level of them."""
    x = object.__new__(CDNumber)
    _set_level(x, level)
    _set_coords(x, coords)
    return x


# -- module-level operations ------------------------------------------


def _max_size(values: tuple) -> Scalar:
    """The largest ``abs`` of the values, NaN when one is NaN: ``max`` keeps a
    NaN only in first place.  Their sum is NaN only when a value is NaN or
    both infinities occur, so only then are the values scanned for a NaN."""
    size = max(map(abs, values))
    total = sum(values)
    if total == total:
        return size
    return math.nan if any(v != v for v in values) else size


def associator(x: CDNumber, y: CDNumber, z: CDNumber) -> CDNumber:
    """(xy)z - x(yz), exactly on exact input; zero iff the triple associates."""
    return (x * y) * z - x * (y * z)


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


@dataclass(frozen=True)
class MultiplicationTable(_FrozenSlots):
    """Signed basis-product table for one level of the tower.

    entry(i, j) = (sign, i ^ j) with e_i * e_j = sign * e_(i ^ j).  Products
    of basis elements are always a single signed basis element, so the
    table describes multiplication completely; only the signs are stored.
    """

    __slots__ = ("level", "_sign_rows")
    level: int
    _sign_rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return 1 << self.level

    def entry(self, i: int, j: int) -> tuple[int, int]:
        i = _int_arg("row index", i, 0, self.dim - 1)
        j = _int_arg("column index", j, 0, self.dim - 1)
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
    level = _int_arg("level", level, 0)
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
    """Read back what ``cd_to_json`` writes; anything else raises ArgumentError.

    The level must be an integral number and the coordinates a list of
    'num/den' strings (exact) or numbers (floats), bools excluded: a string
    would pass as a sequence of one-character coordinates.
    """
    if not isinstance(data, dict) or not {"level", "coords"} <= data.keys():
        raise ArgumentError(f"expected an object with 'level' and 'coords', got {data!r}")
    level, coords = _int_arg("level", data["level"], 0), data["coords"]
    if not isinstance(coords, list) or not all(
        isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in coords
    ):
        raise ArgumentError(f"coords must be a list of strings or numbers, got {coords!r}")
    if len(coords).bit_length() != level + 1:  # also keeps 1 << level small
        raise ArgumentError(f"level {level} needs 2^{level} coordinates, got {len(coords)}")
    try:
        values = tuple(scalar_from_json(v) for v in coords)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ArgumentError(f"bad coordinate in {coords!r}: {exc}") from exc
    return CDNumber(level, values)
