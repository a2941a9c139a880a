"""Property checkers for the Cayley-Dickson tower.

Each identity is written once, as a predicate on two or three elements
that is true when they violate it.  The predicates run on one carrier,
``_Batch``: N elements of a level as the rows of an integer array, with a
bound on their entries that each stream states and each product
(``algebra._mul_rows``) derives from its factors'.  One chunk loop,
``_first_hit``, judges every candidate: it asks a candidate stream for a
chunk of tuples, 64 at first and doubling up to 512, calls the predicate
once on the chunk, and stops at the first violating row.  That row
counts as one candidate more than those before it, exactly as a walk
one candidate at a time counts.

The sweep of the five identity checkers reads three streams, in order:

1. basis: every tuple of unit basis rows, in lexicographic index order.
2. two-term: at level >= 4, for the checkers that ask for it, every
   ordered pair of two-term signed basis sums e_i +/- e_j, where the
   failures that basis tuples cannot see live, so such a failure
   reproduces without any seed.
3. random: ``samples`` seeded random tuples with exact integer entries,
   drawn as a walk one tuple at a time draws them.

The first violating candidate ends the sweep.  Verdicts are exact:
a "fails" report always carries a counterexample that violates the
identity with no tolerance.  ``samples`` in a report counts the
candidates examined, with one convention: the basis phase counts whole,
dim**arity, even when its violation comes early; the pinned ``audit-all``
output relies on it.

The two-generated check is no identity on a fixed number of elements,
so it walks its candidate pairs one at a time: the first 512 two-term
pairs at level 4, then seeded random pairs.  Each pair is closed exactly
under ``_Batch`` products, into the integer rows of a basis of the
subalgebra it generates, and the same chunk loop tests the associator on
every triple of those rows.  It shares the sweep's argument check and
random stream.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

import numpy as np

from .algebra import CDNumber, _max_abs, _mul_rows, _signs, cd_to_json
from .algebra import associator  # noqa: F401  (kept as properties.associator)

MAX_CHECK_LEVEL = 6
#: ``random_exact`` draws integer coordinates from [-RANDOM_EXACT_SPAN, RANDOM_EXACT_SPAN].
RANDOM_EXACT_SPAN = 9

#: Verdicts the tower is known to produce, by property name and level.
EXPECTED_HOLDS: dict[str, Callable[[int], bool]] = {
    "commutative": lambda level: level <= 1,
    "associative": lambda level: level <= 2,
    "alternative": lambda level: level <= 3,
    "flexible": lambda level: True,
    "norm_multiplicative": lambda level: level <= 3,
    "two_generated_associative": lambda level: level <= 3,
    "division": lambda level: level <= 3,
}


def expected_verdict(name: str, level: int) -> str:
    return "holds" if EXPECTED_HOLDS[name](level) else "fails"


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property check at one level."""

    name: str
    level: int
    verdict: str  # "holds" | "fails"
    counterexample: Optional[tuple[CDNumber, ...]]
    samples: int  # candidate tuples examined, exhaustive sweeps included

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def matches_expectation(self) -> bool:
        return self.verdict == expected_verdict(self.name, self.level)

    def to_json(self) -> dict:
        return {
            "property": self.name,
            "level": self.level,
            "verdict": self.verdict,
            "samples": self.samples,
            "counterexample": None
            if self.counterexample is None
            else [cd_to_json(x) for x in self.counterexample],
        }


def random_exact(level: int, rng: random.Random) -> CDNumber:
    """Random element with integer coordinates in [-RANDOM_EXACT_SPAN, RANDOM_EXACT_SPAN]."""
    span = RANDOM_EXACT_SPAN
    return CDNumber(level, tuple(rng.randint(-span, span) for _ in range(1 << level)))


# -- the identities, each written once: true at the rows that violate it ---


def _noncommuting(x, y) -> np.ndarray:
    return x * y != y * x


def _nonassociating(x, y, z) -> np.ndarray:
    return (x * y) * z != x * (y * z)


def _nonalternative(x, y) -> np.ndarray:
    return (x * (y * y) != (x * y) * y) | ((x * x) * y != x * (x * y))


def _nonflexible(x, y) -> np.ndarray:
    return x * (y * x) != (x * y) * x


def _norm_nonmultiplicative(x, y) -> np.ndarray:
    return (x * y).norm_sq() != x.norm_sq() * y.norm_sq()


# -- the sweep --------------------------------------------------------------


class _Batch:
    """N elements of one level, held as the rows of an integer array.

    Implements just what the identity predicates use, row by row: products
    through ``algebra._mul_rows``, ``!=`` as a boolean array that is true
    where two rows differ, and ``norm_sq``.  One call of a predicate on
    batches then judges a whole chunk of candidates, exactly.  ``bound``
    bounds |entry| and is carried, not measured: a product's is bx * by <<
    level, since each coordinate sums 2^level terms +/- x_i y_j; it alone
    picks int64 or Python ints.
    """

    __slots__ = ("level", "rows", "bound")

    def __init__(self, level: int, rows: np.ndarray, bound: int):
        self.level = level
        self.rows = rows
        self.bound = bound

    def __mul__(self, other: "_Batch") -> "_Batch":
        bound = self.bound * other.bound << self.level
        return _Batch(self.level, _mul_rows(self.level, self.rows, other.rows, bound), bound)

    def __ne__(self, other: "_Batch") -> np.ndarray:
        return (self.rows != other.rows).any(axis=1)

    def norm_sq(self) -> np.ndarray:
        rows = self.rows
        # below 2^31 a product of two norms still fits in int64
        if self.bound**2 << self.level >= 1 << 31:
            rows = rows.astype(object)
        return (rows * rows).sum(axis=1)


#: Candidates are judged in chunks that start small, so an early witness
#: costs little, and double up to a cap; ``_mul_rows`` bounds the memory
#: of each product within a chunk.
_FIRST_CHUNK = 64
_MAX_CHUNK = 512

#: A candidate stream: ``candidates(start, stop)`` gives candidates start
#: .. stop - 1 as one (stop - start, 2^level) integer array per slot.
_Candidates = Callable[[int, int], list[np.ndarray]]


def _first_hit(
    level: int, total: int, candidates: _Candidates, bound: int, violates: Callable[..., np.ndarray]
) -> tuple[int, Optional[tuple[CDNumber, ...]]]:
    """Judge candidates 0 .. total - 1 of a stream in chunks, in order.

    Each chunk is one call of ``violates`` on ``_Batch`` slots whose entries
    the stream keeps within ``bound``.  Returns how many candidates were
    judged through the first violating one, as a walk one candidate at a
    time counts them, and that candidate; or total and None when none does.
    """
    start, size = 0, _FIRST_CHUNK
    while start < total:
        stop = min(start + size, total)
        slots = candidates(start, stop)
        hits = violates(*(_Batch(level, rows, bound) for rows in slots))
        first = int(hits.argmax())
        if hits[first]:
            return start + first + 1, tuple(CDNumber(level, rows[first].tolist()) for rows in slots)
        start, size = stop, min(2 * size, _MAX_CHUNK)
    return total, None


def _ordered_tuples(rows: np.ndarray, arity: int) -> _Candidates:
    """The stream of ordered ``arity``-tuples of ``rows``, first slot major,
    as ``itertools.product(rows, repeat=arity)`` orders them."""

    def candidates(start: int, stop: int) -> list[np.ndarray]:
        index, slots = np.arange(start, stop), []
        for _ in range(arity):
            index, slot = np.divmod(index, len(rows))
            slots.append(rows[slot])
        return slots[::-1]

    return candidates


@lru_cache(maxsize=None)
def _two_term_rows(level: int) -> np.ndarray:
    """The two-term signed basis sums e_i + s*e_j at ``level``, one row of
    coordinates each: i < j in lexicographic order, s = +1 before s = -1."""
    dim = 1 << level
    i, j = np.triu_indices(dim, 1)  # i < j, lexicographic, like itertools.combinations
    rows = np.zeros((2 * len(i), dim), dtype=np.int64)
    n = np.arange(len(rows))
    rows[n, i.repeat(2)] = 1
    rows[n, j.repeat(2)] = np.tile((1, -1), len(i))
    rows.flags.writeable = False  # shared between calls
    return rows


def _check_arguments(level: int, samples: int, cap: int) -> None:
    if not 0 <= level <= cap:
        raise ValueError(f"level must be in [0, {cap}], got {level}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


def _random_tuples(level: int, seed: int, arity: int) -> _Candidates:
    """The stream of ``arity``-tuples of seeded ``random_exact`` draws, in
    the order a walk one tuple at a time draws them.

    Each coordinate is drawn as CPython's ``randint`` draws it, without
    the call layers: ``getrandbits`` of the width's bit length, drawn again
    until below the width.  No element is built, and only what is read is
    drawn, so the stream must be read in order, from candidate 0 on.
    """
    rng, span, width = random.Random(seed), RANDOM_EXACT_SPAN, 2 * RANDOM_EXACT_SPAN + 1
    bits = map(rng.getrandbits, itertools.repeat(width.bit_length()))

    def candidates(start: int, stop: int) -> list[np.ndarray]:
        count = (stop - start) * arity << level
        draws = np.fromiter((r - span for r in bits if r < width), np.int64, count)
        rows = draws.reshape(stop - start, arity, 1 << level)
        return [rows[:, k] for k in range(arity)]

    return candidates


def _sweep(
    name: str,
    level: int,
    samples: int,
    seed: int,
    arity: int,
    violates: Callable[..., np.ndarray],
    two_term: bool = False,
) -> PropertyReport:
    """Run ``violates`` over the basis, two-term and random phases in order.

    ``violates`` takes one ``_Batch`` per slot of a candidate tuple and is
    true at the rows that break the identity; the first such candidate is
    the counterexample.  Every phase is a candidate stream judged by
    ``_first_hit``: the unit basis rows, the two-term rows when
    ``two_term`` is set and level >= 4, then ``samples`` random tuples.
    """
    _check_arguments(level, samples, MAX_CHECK_LEVEL)
    dim = 1 << level
    phases = [(dim**arity, _ordered_tuples(np.eye(dim, dtype=np.int64), arity), 1)]
    if two_term and level >= 4:
        rows = _two_term_rows(level)
        phases.append((len(rows) ** arity, _ordered_tuples(rows, arity), 1))
    phases.append((samples, _random_tuples(level, seed, arity), RANDOM_EXACT_SPAN))
    tested = 0
    for phase, (total, candidates, bound) in enumerate(phases):
        judged, hit = _first_hit(level, total, candidates, bound, violates)
        tested += total if phase == 0 else judged  # the basis phase counts whole
        if hit is not None:
            return PropertyReport(name, level, "fails", hit, tested)
    return PropertyReport(name, level, "holds", None, tested)


# -- the public checkers --------------------------------------------------


def check_commutative(level: int, samples: int, seed: int = 0) -> PropertyReport:
    """xy = yx; survives only up to the complex numbers."""
    return _sweep("commutative", level, samples, seed, 2, _noncommuting)


def check_associative(level: int, samples: int, seed: int = 0) -> PropertyReport:
    """(xy)z = x(yz); survives up to the quaternions."""
    return _sweep("associative", level, samples, seed, 3, _nonassociating)


def check_alternative(level: int, samples: int, seed: int = 0) -> PropertyReport:
    """x(yy) = (xy)y and (xx)y = x(xy); survives up to the octonions.

    Basis pairs alone pass even at level 4, so from level 4 up the check
    also sweeps every pair of two-term signed basis sums, where the
    failures are.
    """
    return _sweep("alternative", level, samples, seed, 2, _nonalternative, two_term=True)


def check_flexible(level: int, samples: int, seed: int = 0) -> PropertyReport:
    """x(yx) = (xy)x; holds at every level of the tower."""
    return _sweep("flexible", level, samples, seed, 2, _nonflexible)


def check_norm_multiplicative(level: int, samples: int, seed: int = 0) -> PropertyReport:
    """|xy|^2 = |x|^2 |y|^2 exactly; fails from the sedenions on."""
    violates = _norm_nonmultiplicative
    return _sweep("norm_multiplicative", level, samples, seed, 2, violates, two_term=True)


def find_zero_divisors(level: int) -> list[tuple[CDNumber, CDNumber]]:
    """Nonzero pairs (u, v) with uv = 0, over all two-term signed basis sums.

    Exhaustive and sound over that pattern: every pair of two-term elements
    with zero product is returned, and no other, in the order of the
    ordered pairs of ``_two_term_rows``, first element major.  Levels <= 3
    are division algebras and return the empty list.

    The scan is sign arithmetic, with no coordinate products.  For
    u = e_i + s*e_j and v = e_k + t*e_l (i < j, k < l), uv is the four
    signed basis units e_i e_k, t e_i e_l, s e_j e_k and st e_j e_l, on the
    axes i ^ k, i ^ l, j ^ k and j ^ l.  Since k != l and i != j, the unit
    at i ^ k can only cancel against the one at j ^ l, which pins
    l = i ^ j ^ k; then i ^ l = j ^ k holds too, so the other two units
    share an axis as well.  So each (i, j) and k has one partner l, the
    first cancellation fixes t, and the four-sign product alone decides
    the second: it does not involve s, so a hit for s = +1 comes with a
    hit for s = -1 at the opposite t.  Taking k in ascending order keeps
    the scan's order.
    """
    if level < 0:
        raise ValueError(f"level must be non-negative, got {level}")
    if level <= 3:
        return []
    if level > MAX_CHECK_LEVEL:
        raise ValueError(f"level must be <= {MAX_CHECK_LEVEL}, got {level}")
    dim = 1 << level
    terms = [CDNumber(level, r) for r in _two_term_rows(level).tolist()]
    # e_k + t*e_l (k < l) is terms[2 * (offset[k] + l) + (t < 0)]
    offset = [k * (2 * dim - k - 3) // 2 - 1 for k in range(dim)]
    signs = _signs(level)
    pairs = []
    for i, j in itertools.combinations(range(dim), 2):
        row_i, row_j = signs[i], signs[j]
        hits = []  # (n, c): v = terms[n] at t = s*c, paired with u = e_i + s*e_j
        for k in range(dim):
            l = i ^ j ^ k
            if l <= k:
                continue
            # e_i e_k + st e_j e_l = 0 gives t = -s sign_ik sign_jl; then
            # t e_i e_l + s e_j e_k = 0 holds iff the four signs multiply to 1
            if row_i[k] * row_j[l] * row_i[l] * row_j[k] == 1:
                hits.append((2 * (offset[k] + l), -row_i[k] * row_j[l]))
        u = 2 * (offset[i] + j)
        for s in (1, -1):
            pairs.extend((terms[u + (s < 0)], terms[n + (s * c < 0)]) for n, c in hits)
    return pairs


def check_division(level: int) -> PropertyReport:
    """No zero divisors among two-term signed basis sums; fails from the sedenions on.

    The counterexample is the first pair ``find_zero_divisors`` returns.
    ``samples`` counts the whole pattern, (2 * C(dim, 2))^2 pairs, since
    the scan is exhaustive; it is 0 below level 4, where no scan runs.
    """
    pairs = find_zero_divisors(level)
    dim = 1 << level
    scanned = (dim * (dim - 1)) ** 2 if level >= 4 else 0
    if pairs:
        return PropertyReport("division", level, "fails", pairs[0], scanned)
    return PropertyReport("division", level, "holds", None, scanned)


def _extend_echelon(pivots: list[tuple[int, list[int]]], coords: Iterable[int]) -> bool:
    """Add integer ``coords`` to the echelon ``pivots`` if they raise its span.

    Elimination is fraction-free: the row is cross-multiplied with each
    pivot row and then divided by the gcd of its entries, so the reduced
    vector is a nonzero multiple of the one rational elimination gives,
    with the same zeros.  Returns whether a pivot row was added.
    """
    v = list(coords)
    for pidx, prow in pivots:
        a = v[pidx]
        if a:
            b = prow[pidx]
            v = [b * c - a * d for c, d in zip(v, prow)]
    g = math.gcd(*v)
    if g:
        pivots.append((next(k for k, c in enumerate(v) if c), [c // g for c in v]))
    return bool(g)


def _subalgebra_basis(level: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The rows of a basis of the subalgebra that integer rows x, y, x* and y* generate.

    Starts from the rows of x, y, x* and y* that ``_extend_echelon`` keeps
    (a conjugate negates entries 1 and up, so an int64 row must not hold
    -2^63); each round forms the ordered products of two basis rows, first
    factor major, as one ``_Batch`` product, and appends those that raise
    the span.  Products of rows older than the last round lie in the span
    already, so they are left out.  The span is closed once a round keeps
    none or it fills the algebra, so there are at most 2^level rounds;
    x = y = 0 give no rows.
    """
    dim, pivots, old = 1 << level, [], 0
    start = np.stack((x, y, x, y))
    start[2:, 1:] *= -1
    basis = start[[_extend_echelon(pivots, row) for row in start.tolist()]]
    while old < len(basis) < dim:
        size, bound = len(basis), _max_abs(basis)
        first, second = np.divmod(np.arange(size * size), size)
        new = (first >= old) | (second >= old)
        left, right = (_Batch(level, basis[k[new]], bound) for k in (first, second))
        products = (left * right).rows
        kept = [_extend_echelon(pivots, p) for p in products.tolist()]
        basis = np.concatenate((basis, products[kept]))
        old = size
    return basis


def check_two_generated_associativity(level: int, samples: int, seed: int = 0) -> PropertyReport:
    """Do x and y always generate an associative subalgebra?

    Each candidate pair is closed exactly: ``_subalgebra_basis`` spans the
    whole subalgebra that x and y generate (x* and y* lie in it), and the
    associator is trilinear, so the subalgebra is associative iff every
    triple of basis elements associates.  True through the octonions, by
    Artin's theorem; false for sedenions.  There is no basis phase; at
    level 4 the first 512 ordered two-term pairs come before the random
    pairs, and the first violations sit early among them.  The
    counterexample is the first non-associating triple of basis elements.
    """
    _check_arguments(level, samples, 4)
    phases = [(samples, _random_tuples(level, seed, 2))]
    if level >= 4:
        phases.insert(0, (512, _ordered_tuples(_two_term_rows(level), 2)))
    name, tested = "two_generated_associative", 0
    for total, candidates in phases:
        for n in range(total):
            tested += 1
            basis = _subalgebra_basis(level, *(slot[0] for slot in candidates(n, n + 1)))
            triples, bound = _ordered_tuples(basis, 3), _max_abs(basis)  # none if x = y = 0
            _, triple = _first_hit(level, len(basis) ** 3, triples, bound, _nonassociating)
            if triple is not None:
                return PropertyReport(name, level, "fails", triple, tested)
    return PropertyReport(name, level, "holds", None, tested)
