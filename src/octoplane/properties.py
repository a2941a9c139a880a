"""Property checkers for the Cayley-Dickson tower.

Each identity is written once, as a predicate on two or three elements
that is true when they violate it.  One sweep runs the predicates of
the five identity checkers over three phases of candidate tuples, in
this order:

1. basis: every tuple of basis elements, in lexicographic index order.
   The predicate runs on signed basis units, whose products come from the
   level's sign table, so the phase costs table reads rather than
   coordinate products; a hit is reported as the candidate tuple of
   ``CDNumber.basis`` elements.
2. two-term: at level >= 4, for the checkers that ask for it, every
   ordered pair of two-term signed basis sums e_i +/- e_j, where the
   failures that basis tuples cannot see live, so such a failure
   reproduces without any seed.  The predicates run here on batches of
   pairs, whose products come from ``algebra.mul_batch``, in chunks that
   grow from 64 to 512 pairs; the first violating pair in the chunk is
   the witness, and it counts as one candidate more than the pairs
   before it, exactly as a walk one pair at a time counts.
3. random: ``samples`` seeded random tuples with exact integer entries.

The first violating candidate ends the sweep.  Verdicts are exact:
a "fails" report always carries a counterexample that violates the
identity with no tolerance.  ``samples`` in a report counts the
candidates examined, with one convention: the basis phase counts whole,
dim**arity, even when its violation comes early; the pinned ``audit-all``
output relies on it.

The two-generated check is no identity on a fixed number of elements,
so it has its own short loop: the first 512 two-term pairs at level 4,
then seeded random pairs, each judged by closing the pair under products
and testing associators on a spanning subset.  It shares the sweep's
argument check and random draws.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .algebra import CDNumber, _signs, cd_to_json, mul_batch

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


def associator(x: CDNumber, y: CDNumber, z: CDNumber) -> CDNumber:
    """(xy)z - x(yz), exactly; zero iff the triple associates."""
    return (x * y) * z - x * (y * z)


# -- the identities, each written once: true when the tuple violates it ---


def _noncommuting(x, y) -> bool:
    return x * y != y * x


def _nonassociating(x, y, z) -> bool:
    return (x * y) * z != x * (y * z)


def _nonalternative(x, y) -> bool:
    return (x * (y * y) != (x * y) * y) | ((x * x) * y != x * (x * y))


def _nonflexible(x, y) -> bool:
    return x * (y * x) != (x * y) * x


def _norm_nonmultiplicative(x, y) -> bool:
    return (x * y).norm_sq() != x.norm_sq() * y.norm_sq()


# -- the sweep --------------------------------------------------------------


class _Unit:
    """The signed basis element sign * e_index at one level.

    Implements just what the identity predicates use, so the basis phase
    evaluates the same predicates as the other phases.  ``_units`` interns
    the units of a level, so equality is identity and a product is one
    list lookup, filled in from the level's sign table.
    """

    __slots__ = ("sign", "index", "position", "products")

    def __init__(self, sign: int, index: int, position: int):
        self.sign = sign
        self.index = index
        self.position = position
        self.products: list[_Unit] = []

    def __mul__(self, other: "_Unit") -> "_Unit":
        return self.products[other.position]

    def norm_sq(self) -> int:
        return self.sign * self.sign


@lru_cache(maxsize=None)
def _units(level: int) -> tuple[_Unit, ...]:
    """The signed basis units at ``level``: +e_i at position i, -e_i at dim + i."""
    signs = _signs(level)
    dim = 1 << level
    units = [_Unit(sign, p % dim, p) for p, sign in enumerate([1] * dim + [-1] * dim)]
    for x in units:
        row = signs[x.index]
        for y in units:
            k = x.index ^ y.index
            x.products.append(units[k if x.sign * y.sign * row[y.index] > 0 else dim + k])
    return tuple(units)


class _Batch:
    """N elements of one level, held as the rows of an integer array.

    Implements just what the identity predicates use, row by row: products
    through ``mul_batch``, ``!=`` as a boolean array that is true where two
    rows differ, and ``norm_sq``.  One call of a predicate on batches then
    judges a whole chunk of candidates, exactly.
    """

    __slots__ = ("level", "rows")

    def __init__(self, level: int, rows: np.ndarray):
        self.level = level
        self.rows = rows

    def __mul__(self, other: "_Batch") -> "_Batch":
        return _Batch(self.level, mul_batch(self.level, self.rows, other.rows))

    def __ne__(self, other: "_Batch") -> np.ndarray:
        return (self.rows != other.rows).any(axis=1)

    def norm_sq(self) -> np.ndarray:
        rows = self.rows
        # below 2^31 a product of two norms still fits in int64
        if rows.size and int(abs(rows).max()) ** 2 << self.level >= 1 << 31:
            rows = rows.astype(object)
        return (rows * rows).sum(axis=1)


#: The two-term phase judges pairs in chunks that start small, so an early
#: witness costs little, and double up to a cap that keeps the gathered
#: operand of one batched product near 1 MB at level 4.
_FIRST_CHUNK = 64
_MAX_CHUNK = 512


def _two_term_rows(level: int) -> np.ndarray:
    """The two-term signed basis sums e_i + s*e_j at ``level``, one row of
    coordinates each: i < j in lexicographic order, s = +1 before s = -1."""
    dim = 1 << level
    i, j = np.triu_indices(dim, 1)  # i < j, lexicographic, like itertools.combinations
    rows = np.zeros((2 * len(i), dim), dtype=np.int64)
    n = np.arange(len(rows))
    rows[n, i.repeat(2)] = 1
    rows[n, j.repeat(2)] = np.tile((1, -1), len(i))
    return rows


def _batched_two_term_sweep(
    level: int, violates: Callable[..., np.ndarray]
) -> tuple[int, Optional[tuple[CDNumber, CDNumber]]]:
    """Judge every ordered two-term pair, first element major, in batches.

    Returns how many pairs were judged, through the first violating one,
    and that pair, or None when all of them pass.
    """
    rows = _two_term_rows(level)
    count = len(rows)
    total = count * count
    start, size = 0, _FIRST_CHUNK
    while start < total:
        index = np.arange(start, min(start + size, total))
        hits = violates(_Batch(level, rows[index // count]), _Batch(level, rows[index % count]))
        if hits.any():
            first = start + int(hits.argmax())
            pair = (rows[first // count], rows[first % count])
            return first + 1, tuple(CDNumber(level, r.tolist()) for r in pair)
        start += size
        size = min(2 * size, _MAX_CHUNK)
    return total, None


def _check_arguments(level: int, samples: int, cap: int) -> None:
    if not 0 <= level <= cap:
        raise ValueError(f"level must be in [0, {cap}], got {level}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


def _random_tuples(level: int, samples: int, seed: int, arity: int) -> Iterator[tuple]:
    """``samples`` tuples of ``arity`` seeded random elements, drawn in order."""
    rng = random.Random(seed)
    draws = (random_exact(level, rng) for _ in range(arity * samples))
    return zip(*[draws] * arity)  # arity draws per tuple


def _sweep(
    name: str,
    level: int,
    samples: int,
    seed: int,
    arity: int,
    violates: Callable[..., object],
    two_term: bool = False,
) -> PropertyReport:
    """Run ``violates`` over the basis, two-term and random phases in order.

    ``violates(*candidate)`` is true when the candidate breaks the identity,
    and then the candidate is the counterexample.  It uses only products,
    norms and ``!=``, so the basis phase runs it on signed units and the
    two-term phase, swept in full at level >= 4 when ``two_term`` is set,
    on batches.
    """
    _check_arguments(level, samples, MAX_CHECK_LEVEL)
    units = _units(level)[: 1 << level]
    tested = len(units) ** arity
    for xs in itertools.product(units, repeat=arity):
        if violates(*xs):
            hit = tuple(CDNumber.basis(level, u.index) for u in xs)
            return PropertyReport(name, level, "fails", hit, tested)
    if two_term and level >= 4:
        judged, pair = _batched_two_term_sweep(level, violates)
        tested += judged
        if pair is not None:
            return PropertyReport(name, level, "fails", pair, tested)
    for xs in _random_tuples(level, samples, seed, arity):
        tested += 1
        if violates(*xs):
            return PropertyReport(name, level, "fails", xs, tested)
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


def _word_closure(x: CDNumber, y: CDNumber, max_len: int) -> list[CDNumber]:
    """Distinct products of words in {x, y, x*, y*} up to ``max_len`` letters,
    under every parenthesization, in order of first appearance.

    Layer n is formed from the products a*b with a from layer m and b
    from layer n - m, for m = 1 .. n-1 in turn, and keeps only the words
    not seen before, in order of first appearance.  A word seen before
    forms no new products: its first occurrence, earlier in the same
    layer or in a shorter one, formed each of them earlier.  So the
    returned list is the one that keeping every repeat would give, from
    far fewer products.

    The coordinates must be integers.  Each layer's products are formed as
    one batch (``mul_batch``), in the order above, and its repeats are
    dropped in that order, by coordinate tuple.
    """
    level = x.level
    words = dict.fromkeys(w.coords for w in (x, y, x.conj(), y.conj()))  # an ordered set
    by_len = [None, np.array(list(words))]  # by_len[n]: the new words of n letters
    for n in range(2, max_len + 1):
        splits = [(by_len[m], by_len[n - m]) for m in range(1, n)]
        products = mul_batch(
            level,
            np.concatenate([a.repeat(len(b), axis=0) for a, b in splits]),
            np.concatenate([b[np.arange(len(a) * len(b)) % len(b)] for a, b in splits]),
        )
        fresh = []
        for p, w in enumerate(map(tuple, products.tolist())):
            if w not in words:
                words[w] = None
                fresh.append(p)
        by_len.append(products[fresh])
    return [CDNumber(level, w) for w in words]


def _greedy_span_basis(elements: Iterable[CDNumber]) -> list[CDNumber]:
    """Subset of the input spanning the same linear space, by exact elimination.

    The coordinates must be integers, as the sweep draws them.  Elimination
    is fraction-free: a row is cross-multiplied with a pivot row and then
    divided by the gcd of its entries, so each reduced vector is a nonzero
    multiple of the one rational elimination gives, with the same zeros,
    and the same elements are kept.
    """
    rows: list[tuple[int, list[int]]] = []
    basis = []
    for el in elements:
        v = list(el.coords)
        for pidx, prow in rows:
            a = v[pidx]
            if a:
                b = prow[pidx]
                v = [b * c - a * d for c, d in zip(v, prow)]
        g = math.gcd(*v)
        if g:
            rows.append((next(k for k, c in enumerate(v) if c), [c // g for c in v]))
            basis.append(el)
    return basis


def check_two_generated_associativity(
    level: int, samples: int, seed: int = 0, word_length: int = 4
) -> PropertyReport:
    """Do x and y always generate an associative subalgebra?

    Words in {x, y, x*, y*} up to ``word_length`` letters are formed under
    all parenthesizations and all associators among them must vanish
    exactly.  True through the octonions, false for sedenions.  There is
    no basis phase; at level 4 the first 512 ordered two-term pairs come
    before the random pairs, and the first violations sit early among them.
    The counterexample is the first non-associating triple of words.
    """
    if word_length < 2:
        raise ValueError("word_length must be at least 2")
    _check_arguments(level, samples, 4)
    candidates = _random_tuples(level, samples, seed, 2)
    if level >= 4:
        terms = [CDNumber(level, r) for r in _two_term_rows(level).tolist()]
        candidates = itertools.chain(
            itertools.islice(itertools.product(terms, repeat=2), 512), candidates
        )
    name = "two_generated_associative"
    for tested, (x, y) in enumerate(candidates, 1):
        # the associator is trilinear, so it vanishes on all word triples iff
        # it vanishes on triples from a spanning subset of the words
        basis = _greedy_span_basis(_word_closure(x, y, word_length))
        for triple in itertools.product(basis, repeat=3):
            if _nonassociating(*triple):
                return PropertyReport(name, level, "fails", triple, tested)
    return PropertyReport(name, level, "holds", None, tested)
