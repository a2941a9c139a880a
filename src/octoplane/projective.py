"""The projective plane over a normed algebra with conjugation.

Points are unit-norm triples (x, y, z) whose entries generate an
associative subalgebra, taken up to the equivalence that identifies
(x, y, z) with (xt, yt, zt) for unit t in that subalgebra.  Equivalence
is detected through the Gram products w_i w_j* for i <= j,

    x x*,  x y*,  x z*,  y y*,  y z*,  z z*

which determine the class completely.  Affine charts anchored at one of
the three coordinates identify pieces of the plane with pairs of algebra
elements.  The projective line is the two-entry case, a ``LinePoint``
(x, y) with Gram products x x*, x y*, y y*, identified with the sphere
S^d.  ``equivalent`` (also named ``line_equivalent``) and
``equivalent_representative`` take either kind of point.

Everything here runs in floating point over algebra dimension
d in {1, 2, 4, 8}; d = 8 (octonions) is the default.  Three absolute
thresholds decide the geometric checks.  ``DEFAULT_TOL`` = 1e-9 bounds
membership, equivalence and chart-domain errors on unit-scale data, and is
written so that NaN fails it: non-finite coordinates fail every geometric
check instead of slipping through.  ``ANCHOR_FLOOR`` = 1e-12 is the least
coefficient that anchors a chart, whose anchor entry is divided by it.
``SEPARATION_THRESHOLD`` = 1e-6 is what a separating functional must
exceed on both points, far above ``DEFAULT_TOL`` so that both lie in its
chart; the lemma in ``separating_functional`` shows the sign grid clears it.
All values are immutable, all functions pure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    ArgumentError, CDNumber, LevelMismatchError, _FrozenSlots, _int_arg, _max_size, associator,
)

DEFAULT_TOL = 1e-9
#: Algebra dimensions the plane construction supports.
SUPPORTED_DIMS = (1, 2, 4, 8)
#: A functional coordinate below this cannot anchor a chart.
ANCHOR_FLOOR = 1e-12
#: ``separating_functional`` accepts a functional whose value on each
#: point has a norm above this.
SEPARATION_THRESHOLD = 1e-6


class MembershipError(ValueError):
    """Raised when a triple or pair fails the defining constraints."""


class OutsideChartError(ValueError):
    """Raised when a chart is evaluated at a class outside its domain."""


class SeparationError(RuntimeError):
    """Raised when no sign-grid functional separates two points; the lemma
    in ``separating_functional`` rules that out for valid points."""


def level_for_dim(dim: int) -> int:
    dim = _int_arg("dimension", dim, 1, 8)
    if dim not in SUPPORTED_DIMS:
        raise ArgumentError(f"dimension must be one of {SUPPORTED_DIMS}, got {dim}")
    return dim.bit_length() - 1


def _as_float(x: CDNumber) -> CDNumber:
    return CDNumber(x.level, tuple(float(c) for c in x.coords))


def _check_entries(entries: tuple[CDNumber, ...]) -> None:
    """Entries share a level <= 3 and their squared norms sum to 1 within
    ``DEFAULT_TOL``; a NaN or infinite coordinate makes the sum non-finite,
    and that fails."""
    level = entries[0].level
    total = 0
    for e in entries:
        if e.level != level:
            raise LevelMismatchError("point entries must share a level")
        total += e.norm_sq()
    if level > 3:
        raise MembershipError(f"projective construction needs level <= 3, got {level}")
    if not abs(total - 1.0) <= DEFAULT_TOL:
        raise MembershipError(f"norms sum to {total!r}, expected 1")


def _associator_span(x: CDNumber, y: CDNumber, z: CDNumber) -> None:
    """Require the associator (xy)z - x(yz) to vanish within ``DEFAULT_TOL``.

    This is the finite proxy for 'the subalgebra generated by the entries
    is associative': necessary always, and exact for triples produced by
    the charts.  One ordering suffices: at levels <= 3 the algebra is
    alternative, so the associator is an alternating function of its
    arguments (Schafer, An Introduction to Nonassociative Algebras, ch.
    III) and every ordering gives it up to sign.  Conjugates need no extra
    checks since w* differs from -w by a real and associators with real
    arguments vanish.
    """
    err = associator(x, y, z).max_abs()
    if not err <= DEFAULT_TOL:
        raise MembershipError(f"entries do not associate: associator magnitude {err:.3e}")


@dataclass(frozen=True, eq=False)
class TriplePoint(_FrozenSlots):
    """A representative (x, y, z) of a projective-plane point.

    Entries share a level <= 3, their squared norms sum to 1 within
    ``DEFAULT_TOL``, and their associator vanishes within it.  Equality is
    identity: representatives are compared through ``equivalent``.
    """

    __slots__ = ("x", "y", "z")
    x: CDNumber
    y: CDNumber
    z: CDNumber

    def __post_init__(self):
        _check_entries((self.x, self.y, self.z))
        _associator_span(self.x, self.y, self.z)

    @property
    def level(self) -> int:
        return self.x.level

    def entries(self) -> tuple[CDNumber, CDNumber, CDNumber]:
        return (self.x, self.y, self.z)

    def __repr__(self):
        return f"TriplePoint({self.x!r}, {self.y!r}, {self.z!r})"


@dataclass(frozen=True, eq=False)
class LinePoint(_FrozenSlots):
    """A representative (x, y) of a projective-line point; norms sum to 1
    within ``DEFAULT_TOL``."""

    __slots__ = ("x", "y")
    x: CDNumber
    y: CDNumber

    def __post_init__(self):
        _check_entries((self.x, self.y))

    @property
    def level(self) -> int:
        return self.x.level

    def entries(self) -> tuple[CDNumber, CDNumber]:
        return (self.x, self.y)

    def __repr__(self):
        return f"LinePoint({self.x!r}, {self.y!r})"


def _drift(us: Sequence[CDNumber], vs: Sequence[CDNumber]) -> float:
    """Largest coordinate gap between matching invariants; NaN if a gap is."""
    return _max_size(tuple((a - b).max_abs() for a, b in zip(us, vs)))


@dataclass(frozen=True, eq=False, repr=False)
class InvariantSextuple(_FrozenSlots):
    """The six products that pin down a projective-plane class.

    The diagonal products must be real and sum to 1 within ``DEFAULT_TOL``."""

    __slots__ = ("xx", "xy", "xz", "yy", "yz", "zz")
    xx: CDNumber
    xy: CDNumber
    xz: CDNumber
    yy: CDNumber
    yz: CDNumber
    zz: CDNumber

    def __post_init__(self):
        for name, diag in (("xx", self.xx), ("yy", self.yy), ("zz", self.zz)):
            off = [abs(c) for c in diag.coords[1:] if not abs(c) <= DEFAULT_TOL]
            if off:
                raise MembershipError(f"{name}* must be real, imaginary size {max(off):.3e}")
        trace = self.xx.coords[0] + self.yy.coords[0] + self.zz.coords[0]
        if not abs(trace - 1.0) <= DEFAULT_TOL:
            raise MembershipError(f"diagonal trace is {trace!r}, expected 1")

    def as_tuple(self) -> tuple[CDNumber, ...]:
        return (self.xx, self.xy, self.xz, self.yy, self.yz, self.zz)

    def max_difference(self, other: "InvariantSextuple") -> float:
        return _drift(self.as_tuple(), other.as_tuple())


@dataclass(frozen=True, eq=False)
class Functional(_FrozenSlots):
    """A real triple (a, b, c) defining the map (x, y, z) -> ax + by + cz.

    Coefficients are stored as floats; they must be finite and not all zero.
    """

    __slots__ = ("a", "b", "c")
    a: float
    b: float
    c: float

    def __post_init__(self):
        coeffs = tuple(map(float, (self.a, self.b, self.c)))
        if not all(map(math.isfinite, coeffs)):
            raise ArgumentError(f"functional coefficients must be finite, got {coeffs}")
        if not any(coeffs):
            raise ArgumentError("functional coefficients must not all vanish")
        for name, value in zip(("a", "b", "c"), coeffs):
            object.__setattr__(self, name, value)

    def coefficients(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    def anchor(self) -> int:
        """Index of the chart-anchoring coordinate (largest coefficient)."""
        coeffs = self.coefficients()
        m = max(range(3), key=lambda i: abs(coeffs[i]))
        if abs(coeffs[m]) < ANCHOR_FLOOR:
            raise OutsideChartError(
                f"coefficients {coeffs} too small to anchor a chart"
            )
        return m

    def __repr__(self):
        return f"Functional({self.a}, {self.b}, {self.c})"


def _gram(p: TriplePoint | LinePoint) -> tuple[CDNumber, ...]:
    """w_i w_j* for i <= j, row by row: six products for a triple, three for a pair."""
    ws = p.entries()
    conjs = [w.conj() for w in ws]
    return tuple(w * c for i, w in enumerate(ws) for c in conjs[i:])


def invariants_of(p: TriplePoint) -> InvariantSextuple:
    """The six equivalence invariants of a triple."""
    return InvariantSextuple(*_gram(p))


def equivalent(p: TriplePoint | LinePoint, q: TriplePoint | LinePoint) -> bool:
    """Do two representatives, both triples or both pairs, name the same point?

    No diagonal or trace check is redone: the real part of each w w* is
    ``norm_sq`` summed in its order, and the membership check passed it.
    """
    if type(p) is not type(q):
        raise TypeError(f"cannot compare a {type(p).__name__} with a {type(q).__name__}")
    if p.level != q.level:
        raise LevelMismatchError("points must share a level")
    return _drift(_gram(p), _gram(q)) <= DEFAULT_TOL


line_equivalent = equivalent


def eval_functional(f: Functional, p: TriplePoint) -> CDNumber:
    """ax + by + cz; the class lies in the chart domain iff this is nonzero."""
    return p.x * f.a + p.y * f.b + p.z * f.c


def in_chart_domain(f: Functional, p: TriplePoint) -> bool:
    return math.sqrt(eval_functional(f, p).norm_sq()) > DEFAULT_TOL


def chart_forward(f: Functional, p: TriplePoint) -> tuple[CDNumber, CDNumber]:
    """Chart map: the two non-anchor entries times conj(l)/|l|^2.

    Well-defined on classes because every factor is built from the six
    invariants; that is verified by tests, not assumed here.
    """
    m = f.anchor()
    ell = eval_functional(f, p)
    ns = ell.norm_sq()
    if math.sqrt(ns) <= DEFAULT_TOL:
        raise OutsideChartError("class lies outside this chart's domain")
    factor = ell.conj() / ns
    others = [e for i, e in enumerate(p.entries()) if i != m]
    return (others[0] * factor, others[1] * factor)


def chart_backward(f: Functional, u: CDNumber, v: CDNumber) -> TriplePoint:
    """Inverse chart: (u, v) into the anchor-m slot pattern, normalized.

    With anchor coefficient c_m and the remaining coefficients f_i, the
    anchor entry is (1 - sum f_i w_i) / c_m and the triple is scaled to
    unit norm.  The scale is positive even at u = v = 0, where the anchor
    entry is 1/c_m.
    """
    m = f.anchor()
    coeffs = list(f.coefficients())
    c_m = coeffs.pop(m)
    u = _as_float(u)
    v = _as_float(v)
    t = (CDNumber.one(u.level) - u * coeffs[0] - v * coeffs[1]) / c_m
    r = math.sqrt(u.norm_sq() + v.norm_sq() + t.norm_sq())
    entries = [u, v]
    entries.insert(m, t)
    return TriplePoint(*(w / r for w in entries))


#: The sign grid's 13 directions, in {0, 1, -1}^3 with first nonzero entry 1.
_GRID = [
    Functional(a, b, c)
    for a in (0.0, 1.0, -1.0)
    for b in (0.0, 1.0, -1.0)
    for c in (0.0, 1.0, -1.0)
    if next(filter(None, (a, b, c)), 0.0) > 0.0
]
#: ``_GRID``'s coefficients as a (3, 13, 1) array: the a, b and c columns.
_GRID_COEFFS = np.array([f.coefficients() for f in _GRID]).T[:, :, None]


def separating_functional(p: TriplePoint, q: TriplePoint) -> Functional:
    """A sign-grid functional that vanishes on neither point.

    The grid always holds one.  On a point, |ax + by + cz|^2 = v^T G v for
    v = (a, b, c) and G the real Gram matrix of the entries, positive
    semidefinite with trace 1 within ``DEFAULT_TOL``; its top eigenvalue is
    at least about 1/3.  So a grid vector scoring at most
    ``SEPARATION_THRESHOLD`` lies within 1.8e-6 of one plane, and three
    independent ones would have a nonzero integer determinant below 1.6e-5:
    a point's failing directions share a plane.  No plane holds more than 4
    of the 13 directions, so at least 5 separate both points.

    f and -f score bit-identically (IEEE negation and rounding are
    symmetric), so the grid keeps the one that a nested scan over all 26
    sign vectors meets first.  Coordinate k of every ``eval_functional``
    value, (ax + by) + cz, fills a (13, 2) slab for the 13 functionals and
    the two points; the squared slabs are added in coordinate order, as
    ``CDNumber.norm_sq`` adds them, since ``np.sum`` regroups eight terms
    pairwise and can move the last bit of a near-tie.  ``argmax`` keeps the
    first of equal scores, as a strict scan in grid order would.
    """
    if p.level != q.level:
        raise LevelMismatchError("points must share a level")
    points = np.array([[e.coords for e in t.entries()] for t in (p, q)], dtype=float)
    x, y, z = points.transpose(1, 2, 0)[:, :, None]
    a, b, c = _GRID_COEFFS
    squares = ((a * x + b * y) + c * z) ** 2
    norm_sq = squares[0]
    for slab in squares[1:]:
        norm_sq += slab
    lengths = np.sqrt(norm_sq)
    scores = np.minimum(lengths[:, 0], lengths[:, 1])
    best = int(scores.argmax())
    if not scores[best] > SEPARATION_THRESHOLD:
        raise SeparationError(f"no sign-grid functional separates the points: {scores[best]:.3e}")
    return _GRID[best]


# -- the projective line, its sphere model, and the cell maps ------------


def line_include(p: LinePoint) -> TriplePoint:
    """[x, y] -> [x, y, 0]; embeds the line in the plane."""
    return TriplePoint(*p.entries(), CDNumber.zero(p.level))


def attaching_map(x: CDNumber, y: CDNumber) -> LinePoint:
    """The sphere S^(2d-1) onto the projective line, (x, y) -> [x, y]."""
    return LinePoint(x, y)


def disk_extension(x: CDNumber, y: CDNumber) -> TriplePoint:
    """(x, y) in the unit disk to [x, y, sqrt(1 - |x|^2 - |y|^2)].

    Extends ``attaching_map`` over the disk.  The square root is not
    Lipschitz at the boundary, so the DEFAULT_TOL band at |x|^2 + |y|^2 = 1
    is collapsed to the boundary itself; there the third entry is exactly
    zero and the image coincides with the included line point.
    """
    if x.level != y.level:
        raise LevelMismatchError("disk coordinates must share a level")
    slack = 1.0 - x.norm_sq() - y.norm_sq()
    if not slack >= -DEFAULT_TOL:
        raise MembershipError(f"norms exceed 1 by {-slack:.3e}")
    z = CDNumber.from_scalar(math.sqrt(slack) if slack > DEFAULT_TOL else 0.0, x.level)
    return TriplePoint(_as_float(x), _as_float(y), z)


def line_to_sphere(p: LinePoint) -> np.ndarray:
    """[x, y] -> (2 x y*, |x|^2 - |y|^2) in R^(d+1); lands on the unit sphere.

    Every component is one of the class invariants, so the map is constant
    on equivalence classes by construction.
    """
    w = (p.x * p.y.conj()) * 2.0
    t = p.x.norm_sq() - p.y.norm_sq()
    return np.array([float(c) for c in w.coords] + [float(t)])


def sphere_to_line(s: np.ndarray) -> LinePoint:
    """Inverse of ``line_to_sphere`` up to equivalence.

    Splits s = (w, t); whichever of 1 -/+ t is larger gives a stable real
    representative for y or x, and the other entry is read off from
    2 x y* = w.  |s|^2 is checked at ``DEFAULT_TOL``; the point built has
    norms summing to 1 + (|s|^2 - 1) / (2 (1 -/+ t)), within half that.
    """
    s = np.asarray(s, dtype=float)
    dim = s.shape[0] - 1
    level = level_for_dim(dim)
    norm_sq = float(s @ s)
    if not abs(norm_sq - 1.0) <= DEFAULT_TOL:
        raise MembershipError(f"sphere point has squared norm {norm_sq!r}")
    w, t = s[:-1], float(s[-1])
    if t <= 0.0:
        ry = math.sqrt((1.0 - t) / 2.0)
        y = CDNumber.from_scalar(ry, level)
        x = CDNumber(level, tuple(float(c) / (2.0 * ry) for c in w))
    else:
        rx = math.sqrt((1.0 + t) / 2.0)
        x = CDNumber.from_scalar(rx, level)
        y = CDNumber(level, tuple(float(c) / (2.0 * rx) for c in w)).conj()
    return LinePoint(x, y)


# -- seeded sampling helpers ----------------------------------------------


def _gaussian_entries(level: int, count: int, rng: random.Random) -> list[CDNumber]:
    """``count`` Gaussian elements, drawn in turn and scaled together to unit total norm."""
    while True:
        draws = [[rng.gauss(0.0, 1.0) for _ in range(1 << level)] for _ in range(count)]
        norm = math.sqrt(sum(sum(c * c for c in coords) for coords in draws))
        if norm > 1e-6:
            return [CDNumber(level, tuple(c / norm for c in coords)) for coords in draws]


def random_unit(level: int, rng: random.Random) -> CDNumber:
    """Unit-norm element with Gaussian direction."""
    return _gaussian_entries(level, 1, rng)[0]


def random_line_point(dim: int, rng: random.Random) -> LinePoint:
    return LinePoint(*_gaussian_entries(level_for_dim(dim), 2, rng))


def random_triple_point(dim: int, rng: random.Random) -> TriplePoint:
    """Random member of the constrained triple set, via a random chart."""
    level = level_for_dim(dim)
    anchor = rng.randrange(3)
    coeffs = [0.0, 0.0, 0.0]
    coeffs[anchor] = rng.choice((1.0, -1.0)) * rng.uniform(0.5, 2.0)
    scale = rng.uniform(0.2, 2.0)
    u = CDNumber(level, tuple(rng.gauss(0.0, scale) for _ in range(1 << level)))
    v = CDNumber(level, tuple(rng.gauss(0.0, scale) for _ in range(1 << level)))
    return chart_backward(Functional(*coeffs), u, v)


def random_unit_in_subalgebra(
    entries: Sequence[CDNumber], rng: random.Random
) -> CDNumber:
    """Unit element of the subalgebra generated by the given entries."""
    level = entries[0].level
    span = [CDNumber.one(level), *entries]
    span += [a * b for i, a in enumerate(entries) for b in entries[i + 1:]]
    while True:
        u = CDNumber.zero(level)
        for w in span:
            u = u + w * rng.gauss(0.0, 1.0)
        norm = math.sqrt(u.norm_sq())
        if norm > 1e-6:
            return u / norm


def equivalent_representative(
    p: TriplePoint | LinePoint, rng: random.Random
) -> TriplePoint | LinePoint:
    """A different representative (w_0 u, w_1 u, ...) of a triple's or a pair's class."""
    u = random_unit_in_subalgebra(p.entries(), rng)
    return type(p)(*(w * u for w in p.entries()))
