"""Cellular (co)homology and desk-scale Hopf-invariant evidence.

The homology engine is exact: (co)homology is read from the invariant
factors of the boundary matrices of a CW description, found by integer
elimination; only ``smith_normal_form`` also builds the unimodular
transforms, after a row echelon pass, so its U and V are one valid pair
among many and differ from those of earlier versions.  The Hopf
invariant of the cell-attaching sphere maps is not computed from cup
products here; instead two proxies are provided and labelled as such:
the bidegree of the multiplication (signs of determinants of the
left/right multiplication operators), and, for the complex case, the
Gauss linking number of two fiber circles of the classifying map.  Each
checks its samples against the value proven for it: every det within
``projective.DEFAULT_TOL`` of +1, every rounded linking number 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from .algebra import ArgumentError, CDNumber, _int_arg, left_mult_matrix, right_mult_matrix
from .projective import DEFAULT_TOL, LinePoint, random_unit, sphere_to_line

Matrix = list[list[int]]


class InconsistencyError(RuntimeError):
    """A computation produced results that contradict each other."""


class GeometryError(RuntimeError):
    """The linking-number geometry could not be set up robustly."""


# -- integer matrices ------------------------------------------------------


def _to_int_matrix(matrix) -> Matrix:
    rows = []
    for row in matrix:
        out = []
        for v in row:
            try:
                iv = int(v)
                integral = iv == v
            except (OverflowError, ValueError):  # an infinity, a NaN, a non-numeric string
                integral = False
            if not integral:
                raise ArgumentError(f"matrix entry {v!r} is not an integer")
            out.append(iv)
        rows.append(out)
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ArgumentError("ragged matrix")
    return rows


def _eye(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _zeros(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact integer matrix product; b with no rows has no columns."""
    n_inner = len(b)
    out = _zeros(len(a), len(b[0]) if b else 0)
    for i, row in enumerate(a):
        if len(row) != n_inner:
            raise ArgumentError("shape mismatch")
        orow = out[i]
        for k, v in enumerate(row):
            if v == 0:
                continue
            brow = b[k]
            for j, w in enumerate(brow):
                orow[j] += v * w
    return out


class SNFResult(NamedTuple):
    s: Matrix
    u: Matrix
    v: Matrix


def _balanced_quotient(x: int, p: int) -> int:
    """q with x - q p in (-p/2, p/2], for p > 0."""
    q, r = divmod(x, p)
    return q + 1 if 2 * r > p else q


def _reduce_below(a: Matrix, r: int, c: int, m: int) -> bool:
    """Reduce rows r+1..m-1 by row r to balanced remainders in column c (a[r][c] > 0).
    True if one is left nonzero: it is below the pivot, so the caller repivots."""
    prow, p = a[r], a[r][c]
    left = False
    for i in range(r + 1, m):
        if a[i][c]:
            q = _balanced_quotient(a[i][c], p)
            a[i] = [x - q * y for x, y in zip(a[i], prow)]
            left = left or a[i][c] != 0
    return left


def _echelon(a: Matrix, m: int, n: int) -> None:
    """Bring the top-left m x n block of ``a`` to row echelon form with whole-row
    operations only: in each column the entry of least absolute value becomes a
    positive pivot, and the rows below keep balanced remainders until it is alone."""
    r = 0
    for c in range(n):
        while True:
            live = [i for i in range(r, m) if a[i][c]]
            if not live:
                break
            i = min(live, key=lambda i: abs(a[i][c]))
            a[r], a[i] = a[i], a[r]
            if a[r][c] < 0:  # _balanced_quotient needs p > 0
                a[r] = [-x for x in a[r]]
            if not _reduce_below(a, r, c, m):
                break
        if live:
            r += 1


def _diagonalize(a: Matrix, m: int, n: int) -> None:
    """Bring the top-left m x n block of ``a`` to Smith form in place.

    Row operations act on whole rows of ``a`` and column operations on
    whole columns, so entries beside and below the block record them.
    The diagonal ends non-negative with each entry dividing the next.
    Each pass pivots on the first entry of least nonzero absolute value in
    row-major order, which keeps entries small; its column operations all
    read column t and none writes it, so each row takes them in one slice.
    """
    t = 0
    while t < min(m, n):
        while True:
            best, pi = None, None
            for i in range(t, m):
                row = a[i]
                for j in range(t, n):
                    x = row[j]
                    if x and (best is None or abs(x) < best):
                        best, pi, pj = abs(x), i, j
                if best == 1:  # no entry is smaller, and a later row's 1 comes later
                    break
            if pi is None:
                break
            a[pi], a[t] = a[t], a[pi]
            if pj != t:
                for row in a:
                    row[pj], row[t] = row[t], row[pj]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]

            dirty = _reduce_below(a, t, t, m)
            prow, p = a[t], a[t][t]
            qs = [_balanced_quotient(x, p) if x else 0 for x in prow[t + 1 : n]]
            if any(qs):
                for row in a:
                    c = row[t]
                    if c:
                        row[t + 1 : n] = [x - q * c for x, q in zip(row[t + 1 : n], qs)]
            if dirty or any(prow[t + 1 : n]):
                continue
            if p == 1:
                break
            # pivot must divide the rest of the block; if not, folding the
            # offending row into row t produces a smaller remainder above
            offender = next(
                (i for i in range(t + 1, m) if any(a[i][j] % p for j in range(t + 1, n))),
                None,
            )
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
        if a[t][t] == 0:
            break
        t += 1


def _shape(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def smith_normal_form(matrix) -> SNFResult:
    """Diagonalize an integer matrix: S = U A V with U, V unimodular.

    The diagonal of S is non-negative and each entry divides the next.
    The elimination runs on [[A, I], [I]], whose last n rows are n long:
    row operations act on the top m rows and column operations on the
    first n columns, so it leaves [[S, U], [V]].  A row echelon pass first
    leaves ``_diagonalize`` a nearly diagonal block.  S is unique; U and V
    are valid but not unique.
    """
    a = _to_int_matrix(matrix)
    m, n = _shape(a)
    work = [row + e for row, e in zip(a, _eye(m))] + _eye(n)
    _echelon(work, m, n)
    _diagonalize(work, m, n)
    return SNFResult([row[:n] for row in work[:m]], [row[n:] for row in work[:m]], work[m:])


def invariant_factors(matrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, found without building U or V."""
    a = _to_int_matrix(matrix)
    m, n = _shape(a)
    _diagonalize(a, m, n)
    return tuple(a[i][i] for i in range(min(m, n)) if a[i][i])


# -- finitely generated abelian groups -------------------------------------


def _chain_from_orders(orders: Iterable[int]) -> tuple[int, ...]:
    """Invariant factors of the sum of Z/d over ``orders``, without factoring.

    Each order is inserted into a divisibility chain by replacing (c, d)
    with (gcd, lcm), which keeps the group; prime by prime this is an
    insertion sort of exponents, so the chain stays one.
    """
    chain: list[int] = []
    for d in orders:
        d = _int_arg("order", d, 1)
        if d == 1:
            continue
        for i, c in enumerate(chain):
            g = gcd(c, d)
            chain[i], d = g, c // g * d
        chain.append(d)
    return tuple(c for c in chain if c > 1)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in normal form.

    ``torsion`` is a divisibility chain: each coefficient is at least 2
    and divides the next.  For rational coefficients ``rank`` counts the
    vector-space dimension and the torsion list is empty.
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rank", _int_arg("rank", self.rank, 0))
        torsion = tuple([_int_arg("torsion coefficient", t, 2) for t in self.torsion])
        object.__setattr__(self, "torsion", torsion)
        for prev, t in zip(torsion, torsion[1:]):
            if t % prev:
                raise ArgumentError(f"torsion {torsion} is not a divisibility chain")

    @classmethod
    def from_parts(cls, rank: int, orders: Iterable[int] = ()) -> "AbelianGroup":
        return cls(rank, _chain_from_orders(orders))

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


# -- coefficients -----------------------------------------------------------


@dataclass(frozen=True)
class CoefficientSpec:
    """One of: the integers, the integers mod m, or the rationals."""

    kind: str
    modulus: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("Z", "Zmod", "Q"):
            raise ArgumentError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "Zmod":
            object.__setattr__(self, "modulus", _int_arg("modulus", self.modulus, 2))
        elif self.modulus is not None:
            raise ArgumentError(f"{self.kind} coefficients take no modulus")

    @classmethod
    def parse(cls, text: str) -> "CoefficientSpec":
        if not isinstance(text, str):
            raise ArgumentError(f"coefficients must be Z, Q or Zmod:m, got {text!r}")
        text = text.strip()
        if text == "Z":
            return INTEGERS
        if text == "Q":
            return RATIONALS
        if text.startswith("Zmod:"):
            try:
                modulus = int(text[len("Zmod:"):])
            except ValueError:
                pass  # not a number: the message below names the forms
            else:
                return cls("Zmod", modulus)
        raise ArgumentError(f"cannot parse coefficients {text!r}; use Z, Q or Zmod:m")

    def __str__(self):
        if self.kind == "Zmod":
            return f"Z/{self.modulus}"
        return self.kind


INTEGERS = CoefficientSpec("Z")
RATIONALS = CoefficientSpec("Q")


# -- CW descriptions ---------------------------------------------------------


class CWDescription:
    """Cells with dimensions plus integer boundary matrices.

    ``boundaries[d]`` maps d-chains to (d-1)-chains and has shape
    (#cells of dim d-1) x (#cells of dim d).  Omitted matrices are zero.
    The composite of consecutive boundaries must vanish.
    """

    def __init__(self, cells: Iterable[tuple[str, int]], boundaries: Mapping[int, object]):
        try:
            pairs = [(cid, dim) for cid, dim in cells]
        except (TypeError, ValueError):  # not iterable, or an entry that is no pair
            raise ArgumentError(f"cells must be (name, dimension) pairs, got {cells!r}") from None
        if not isinstance(boundaries, Mapping):
            raise ArgumentError(f"boundaries must be a mapping of degrees, got {boundaries!r}")
        self.cells = tuple((str(cid), _int_arg("cell dimension", dim, 0)) for cid, dim in pairs)
        counts: dict[int, int] = {}
        for _, dim in self.cells:
            counts[dim] = counts.get(dim, 0) + 1
        self._counts = counts
        self.max_dim = max(counts) if counts else -1

        mats: dict[int, Matrix] = {}
        for d, mat in boundaries.items():
            d = _int_arg("boundary degree", d, 0)
            mat = _to_int_matrix(mat)
            expected = (self.cell_count(d - 1), self.cell_count(d))
            if _shape(mat) != expected:
                raise ArgumentError(f"boundary {d} has shape {_shape(mat)}, expected {expected}")
            mats[d] = mat
        self._boundaries = mats

        for d in range(1, self.max_dim):  # at max_dim, boundary(d + 1) has no columns
            composite = mat_mul(self.boundary(d), self.boundary(d + 1))
            if any(any(row) for row in composite):
                raise ArgumentError(f"boundary composite at dimension {d + 1} is nonzero")

    def cell_count(self, dim: int) -> int:
        return self._counts.get(dim, 0)

    def boundary(self, d: int) -> Matrix:
        if d in self._boundaries:
            return [row[:] for row in self._boundaries[d]]
        return _zeros(self.cell_count(d - 1), self.cell_count(d))

    def __repr__(self):
        dims = sorted(self._counts)
        body = ", ".join(f"{self._counts[d]}x{d}d" for d in dims)
        return f"CWDescription({body})"


_BUILTIN_BUILDERS = {
    "RP2": lambda: CWDescription([("v", 0), ("a", 1), ("f", 2)], {2: [[2]]}),
    "CP2": lambda: CWDescription([("v", 0), ("c2", 2), ("c4", 4)], {}),
    "HP2": lambda: CWDescription([("v", 0), ("c4", 4), ("c8", 8)], {}),
    "OP2": lambda: CWDescription([("v", 0), ("c8", 8), ("c16", 16)], {}),
    "OP1/S8": lambda: CWDescription([("v", 0), ("c8", 8)], {}),
    "hypothetical-OP3": lambda: CWDescription(
        [("v", 0), ("c8", 8), ("c16", 16), ("c24", 24)], {}
    ),
}


def builtin_cw(name: str) -> CWDescription:
    """Standard minimal cell structures by name."""
    try:
        builder = _BUILTIN_BUILDERS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ArgumentError(
            f"space must be one of {sorted(_BUILTIN_BUILDERS)}, got {name!r}"
        ) from None
    return builder()


# -- (co)homology ------------------------------------------------------------


def _boundary_factors(cw: CWDescription, degrees: Iterable[int]) -> dict[int, tuple[int, ...]]:
    """Invariant factors of boundary_d for each d in ``degrees``; a boundary
    with no cells on one side is zero, is not factored and is left out."""
    nonzero = [d for d in degrees if cw.cell_count(d) and cw.cell_count(d - 1)]
    return {d: invariant_factors(cw.boundary(d)) for d in nonzero}


def _degree_factors(
    cw: CWDescription, k: int, factors: Mapping[int, tuple[int, ...]]
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Free rank n_k - |f_k| - |f_(k+1)| in degree k, with the invariant
    factors f_k of boundary_k and f_(k+1) of boundary_(k+1), from ``factors``."""
    lower, upper = factors.get(k, ()), factors.get(k + 1, ())
    return cw.cell_count(k) - len(lower) - len(upper), lower, upper


def homology(cw: CWDescription, k: int) -> AbelianGroup:
    """H_k with integer coefficients: ker boundary_k / im boundary_(k+1).

    The torsion is the chain of invariant factors of boundary_(k+1) above 1.
    """
    k = _int_arg("degree", k, 0)
    rank, _, upper = _degree_factors(cw, k, _boundary_factors(cw, (k, k + 1)))
    return AbelianGroup(rank, tuple(f for f in upper if f > 1))


def cohomology(
    cw: CWDescription, k: int, coefficients: CoefficientSpec = INTEGERS
) -> AbelianGroup:
    """H^k of the cellular cochain complex with the given coefficients.

    The coboundary delta_k = boundary_(k+1)^T has the invariant factors of
    boundary_(k+1), so integral cohomology has the rank of H_k and the
    torsion of H_(k-1), the factors of boundary_k above 1.  Rational
    coefficients keep only the free rank.  Mod-m coefficients use the
    universal-coefficient bookkeeping
    H^k(C; Z/m) = H^k(C; Z) (x) Z/m  (+)  Tor(H^(k+1)(C; Z), Z/m).
    """
    k = _int_arg("degree", k, 0)
    coefficients = _coefficients_arg(coefficients)
    return _cohomology(cw, k, coefficients, _boundary_factors(cw, (k, k + 1)))


def _coefficients_arg(coefficients: CoefficientSpec) -> CoefficientSpec:
    if not isinstance(coefficients, CoefficientSpec):
        raise ArgumentError(f"coefficients must be a CoefficientSpec, got {coefficients!r}")
    return coefficients


def _cohomology(cw: CWDescription, k: int, coefficients: CoefficientSpec, factors) -> AbelianGroup:
    rank, lower, upper = _degree_factors(cw, k, factors)
    if coefficients.kind == "Z":
        return AbelianGroup(rank, tuple(f for f in lower if f > 1))
    if coefficients.kind == "Q":
        return AbelianGroup(rank)
    m = coefficients.modulus
    return AbelianGroup.from_parts(0, [m] * rank + [gcd(f, m) for f in lower + upper])


def cohomology_profile(
    cw: CWDescription, coefficients: CoefficientSpec = INTEGERS
) -> list[AbelianGroup]:
    """Cohomology in every degree 0..max_dim, factoring each boundary once."""
    coefficients = _coefficients_arg(coefficients)
    factors = _boundary_factors(cw, range(cw.max_dim + 2))
    return [_cohomology(cw, k, coefficients, factors) for k in range(cw.max_dim + 1)]


# -- Hopf-invariant proxies ---------------------------------------------------


def multiplication_bidegree(level: int, samples: int, seed: int = 0) -> tuple[int, int]:
    """Signs of det(left mult) and det(right mult) by unit elements.

    For a multiplication with multiplicative norm these operators are
    isometries, so |det| = 1; det is continuous and nonzero on the
    connected unit sphere (dimension 2^level - 1 >= 1) and det L_1 = 1,
    so det = +1 for every unit.  Each sampled determinant is checked to be
    that proven value within ``DEFAULT_TOL`` (they come out 1 +- ~1e-15),
    and the pair of signs, (1, 1), is the bidegree of the product as a map
    of spheres.  This is the exact desk-scale proxy for the Hopf invariant
    of the attaching construction.
    """
    level = _int_arg("level", level, 1, 3)
    samples = _int_arg("samples", samples, 1)
    rng = random.Random(_int_arg("seed", seed, 0))
    for _ in range(samples):
        for mult in (left_mult_matrix, right_mult_matrix):
            det = float(np.linalg.det(mult(random_unit(level, rng))))
            if not abs(det - 1.0) <= DEFAULT_TOL:
                raise InconsistencyError(f"det = {det!r} off unit by more than {DEFAULT_TOL}")
    return (1, 1)


def gauss_linking_number(curve_a: np.ndarray, curve_b: np.ndarray) -> float:
    """Gauss double sum for two closed polygons in R^3 (midpoint rule)."""
    a = np.asarray(curve_a, dtype=float)
    b = np.asarray(curve_b, dtype=float)
    ra = (a + np.roll(a, -1, axis=0)) / 2.0
    da = np.roll(a, -1, axis=0) - a
    rb = (b + np.roll(b, -1, axis=0)) / 2.0
    db = np.roll(b, -1, axis=0) - b
    diff = ra[:, None, :] - rb[None, :, :]
    cross = np.cross(da[:, None, :], db[None, :, :])
    dist = np.linalg.norm(diff, axis=2)
    integrand = (diff * cross).sum(axis=2) / dist ** 3
    return float(integrand.sum() / (4.0 * math.pi))


def fiber_circle(point: LinePoint, segments: int) -> np.ndarray:
    """Points (x u, y u) in R^4 for unit complex u; the fiber over [x, y].

    u runs over ``segments`` equally spaced angles, and each complex product
    (a, b)(c, d) = (ac - bd, ad + bc) is taken at all of them at once.
    """
    if point.level != 1:
        raise ArgumentError("fiber circles are built at the complex level")
    theta = 2.0 * math.pi * np.arange(segments) / segments
    c, d = np.cos(theta), np.sin(theta)
    (xa, xb), (ya, yb) = point.x.coords, point.y.coords
    return np.column_stack([xa * c - xb * d, xa * d + xb * c, ya * c - yb * d, ya * d + yb * c])


def _projection_frame(pole: np.ndarray) -> np.ndarray:
    """Rotation in SO(4) sending the unit vector ``pole`` to (0, 0, 0, 1).

    Left multiplication by the unit quaternion e3 conj(pole) is in SO(4)
    and takes pole to e3 |pole|^2 = e3.
    """
    pole = CDNumber(2, pole.tolist())
    return left_mult_matrix(CDNumber.basis(2, 3) * pole.conj())


def _stereographic(points: np.ndarray, frame: np.ndarray) -> np.ndarray:
    rotated = points @ frame.T
    return rotated[:, :3] / (1.0 - rotated[:, 3:4])


def linking_hopf_invariant(
    samples: int = 10, segments: int = 256, seed: int = 0
) -> int:
    """Linking number of two fibers of the complex classifying map.

    Samples pairs of regular values v1, v2 on the 2-sphere with
    |v1 x v2| >= sin 0.1 (an angle in [0.1, pi - 0.1]), builds their fiber
    circles on the 3-sphere, and projects stereographically from a point on
    the fiber over -(v1 + v2) / |v1 + v2|, the point farthest from both
    values.  That point is at least pi/2 + 0.05 from each, and fibers over
    points b apart are 2 sin(b/4) apart, so the pole is at least 0.788 from
    both circles.  The Gauss integral is rounded.  Any two fibers of the
    Hopf map link once, and with this orientation the linking number is
    +1, so each sampled pair must round to that proven value, and 1 is
    returned.  This is the numerical oracle for the complex case,
    independent of the bidegree proxy.
    """
    segments = _int_arg("segments", segments, 64, 1024)  # the Gauss sum builds N x N x 3 arrays
    samples = _int_arg("samples", samples, 1)
    rng = np.random.default_rng(_int_arg("seed", seed, 0))
    for _ in range(samples):
        for _attempt in range(64):
            v1 = rng.normal(size=3)
            v2 = rng.normal(size=3)
            n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
            if n1 < 1e-6 or n2 < 1e-6:
                continue
            v1, v2 = v1 / n1, v2 / n2
            if float(np.linalg.norm(np.cross(v1, v2))) >= math.sin(0.1):
                break
        else:
            raise GeometryError("could not sample well-separated regular values")
        circles = [fiber_circle(sphere_to_line(v), segments) for v in (v1, v2)]
        far = sphere_to_line(-(v1 + v2) / np.linalg.norm(v1 + v2))
        frame = _projection_frame(np.array(far.x.coords + far.y.coords))
        p1, p2 = (_stereographic(c, frame) for c in circles)
        lk = gauss_linking_number(p1, p2)
        rounded = int(round(lk))
        if abs(lk - rounded) > 0.2:
            raise GeometryError(f"linking integral {lk!r} too far from an integer")
        if rounded != 1:
            raise InconsistencyError(f"linking number {rounded} where fibers link once")
    return 1


def ring_consistency_op3() -> str:
    """Additive cohomology of a would-be OP3 cell structure, plus the
    documented reason such a space cannot exist.  Report only; no Steenrod
    operations are computed."""
    cw = builtin_cw("hypothetical-OP3")
    lines = ["cohomology of the hypothetical OP3 cell structure (integer coefficients):"]
    for k, group in enumerate(cohomology_profile(cw)):
        if not group.is_trivial:
            lines.append(f"  H^{k} = {group}")
    lines.append(
        "additive structure: Z in degrees 0, 8, 16, 24, zero elsewhere, "
        "consistent with a truncated polynomial ring Z[x]/(x^4) on a degree-8 class."
    )
    lines.append(
        "obstruction (cited result, not computed here): Steenrod powers mod 2 and 3 "
        "force the generator of a truncated polynomial cohomology ring Z[x]/(x^m), "
        "m > 3, to have degree 2 or 4, so no space realizes this ring with |x| = 8."
    )
    lines.append(
        "note: this report checks the additive cell computation only; Steenrod "
        "operations are out of scope for this tool."
    )
    return "\n".join(lines)
