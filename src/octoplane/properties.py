"""Property checkers for the Cayley-Dickson tower.

Each identity is written once, as a predicate on two or three elements
that is true when they violate it.  The predicates run on one carrier,
``algebra._Batch``: N elements of a level as the rows of an integer
array, with a bound on their entries that each candidate stream states
once, when it is made, and each product derives from its factors'.  One
chunk loop, ``_first_hit``, judges every candidate: it asks a candidate
stream for a chunk of tuples, 64 at first and doubling up to 512, calls
the predicate once on the chunk, and stops at the first violating row.
That row counts as one candidate more than those before it, exactly as
a walk one candidate at a time counts.

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
candidates judged, by a product or by the lemma below, with one
convention: the basis phase counts whole, dim**arity, even when its
violation comes early; the pinned ``audit-all`` output relies on it.

The two-term lemma.  Basis units multiply as e_a e_b = s_ab e_(a ^ b),
a twisted group algebra of (Z/2)^level.  So for u = e_i + s*e_j and
v = e_k + t*e_l, uv is four signed units on the axes i ^ k, i ^ l, j ^ k
and j ^ l; unless l = i ^ j ^ k they are distinct, and |uv|^2 = 4, which
is |u|^2 |v|^2.  If they collide, uv is
(s_ik + st s_jl) e_(i ^ k) + (t s_il + s s_jk) e_(i ^ l).  With
alpha = s_ik s_jl and beta = s_il s_jk, if alpha != beta exactly one
coefficient vanishes and |uv|^2 = 4 for every s and t; if alpha = beta,
|uv|^2 is 0 at t = -s alpha, a zero divisor, and 8 otherwise.  No such
pair exists at levels <= 3.  The norm check multiplies only the s = t = +1
pair of each (``_collisions``), the others judged by the lemma; the
zero-divisor scan reads the same table, with no products.

The two-generated check is no identity on a fixed number of elements,
so it walks its candidate pairs one at a time: the two-term pairs at
level 4, then seeded random pairs.  Each pair is closed exactly
under ``_Batch`` products, into the integer rows of a basis of the
subalgebra it generates, and the same chunk loop tests the associator on
every triple of those rows.  It shares the sweep's random stream.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

import numpy as np

from .algebra import TABLE_LEVEL_CAP, CDNumber, _Batch, _cd, _int_arg, _max_abs, _signs, cd_to_json
from .algebra import associator  # noqa: F401  (kept as properties.associator)

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
    samples: int  # candidate tuples judged, by a product or by the two-term lemma

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
    level = _int_arg("level", level, 0)
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


#: Candidates are judged in chunks that start small, so an early witness
#: costs little, and double up to a cap; ``_Batch`` bounds the memory of
#: each product within a chunk.
_FIRST_CHUNK = 64
_MAX_CHUNK = 512

#: A candidate stream: ``candidates(start, stop)`` gives candidates start
#: .. stop - 1 as one ``_Batch`` of stop - start rows per slot, within the
#: entry bound the stream stated when it was made.
_Candidates = Callable[[int, int], list[_Batch]]


def _first_hit(
    total: int, candidates: _Candidates, violates: Callable[..., np.ndarray]
) -> tuple[int, Optional[tuple[CDNumber, ...]]]:
    """Judge candidates 0 .. total - 1 of a stream in chunks, in order.

    Each chunk is one call of ``violates`` on the stream's slots.  Returns
    how many candidates were judged through the first violating one, as a
    walk one candidate at a time counts them, and that candidate; or total
    and None when none does.
    """
    start, size = 0, _FIRST_CHUNK
    while start < total:
        stop = min(start + size, total)
        slots = candidates(start, stop)
        hits = violates(*slots)
        first = int(hits.argmax())
        if hits[first]:
            witness = tuple(_cd(s.level, tuple(s.rows[first].tolist())) for s in slots)
            return start + first + 1, witness
        start, size = stop, min(2 * size, _MAX_CHUNK)
    return total, None


def _ordered_tuples(
    level: int, rows: np.ndarray, arity: int, picks: Optional[np.ndarray] = None
) -> _Candidates:
    """The stream of ordered ``arity``-tuples of ``rows``, first slot major,
    as ``itertools.product(rows, repeat=arity)`` orders them; with ``picks``,
    only the tuples at those positions of that order, ascending."""
    bound = _max_abs(rows)

    def candidates(start: int, stop: int) -> list[_Batch]:
        index = np.arange(start, stop) if picks is None else picks[start:stop]
        slots = []
        for _ in range(arity):
            index, slot = np.divmod(index, len(rows))
            slots.append(_Batch(level, rows[slot], bound))
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


@lru_cache(maxsize=None)
def _collisions(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table of the two-term lemma (module docstring), one row per pair
    p = (i, j), i < j, in the order of ``_two_term_rows``: the dim / 2
    partners q = (k, l), k < l, with k ^ l = i ^ j, so l = i ^ j ^ k, in
    ascending k; alpha = s_ik s_jl at each; and ``hit``, true where
    alpha = beta = s_il s_jk, the colliding pairs that break the norm.
    """
    dim = 1 << level
    i, j = np.triu_indices(dim, 1)
    # the pairs with each xor 1 .. dim - 1, dim // 2 of them each, k ascending
    partners = np.argsort(i ^ j, kind="stable").reshape(dim - 1, dim // 2)[(i ^ j) - 1]
    i, j, k, l = i[:, None], j[:, None], i[partners], j[partners]
    signs = np.array(_signs(level), dtype=np.int8)
    alpha = signs[i, k] * signs[j, l]
    hit = alpha == signs[i, l] * signs[j, k]
    for table in (partners, alpha, hit):
        table.flags.writeable = False  # shared between calls
    return partners, alpha, hit


def _random_tuples(level: int, seed: int, arity: int) -> _Candidates:
    """The stream of ``arity``-tuples of seeded ``random_exact`` draws, in
    the order a walk one tuple at a time draws them.

    Each coordinate is drawn as CPython's ``randint`` draws it, without
    the call layers: ``getrandbits`` of the width's bit length, drawn again
    until below the width.  No element is built, and only what is read is
    drawn, so the stream must be read in order, from candidate 0 on.
    """
    seed = _int_arg("seed", seed, 0)
    rng, span, width = random.Random(seed), RANDOM_EXACT_SPAN, 2 * RANDOM_EXACT_SPAN + 1
    bits = map(rng.getrandbits, itertools.repeat(width.bit_length()))

    def candidates(start: int, stop: int) -> list[_Batch]:
        count = (stop - start) * arity << level
        draws = np.fromiter((r - span for r in bits if r < width), np.int64, count)
        rows = draws.reshape(stop - start, arity, 1 << level)
        return [_Batch(level, rows[:, k], span) for k in range(arity)]

    return candidates


def _sweep(
    name: str,
    level: int,
    samples: int,
    seed: int,
    arity: int,
    violates: Callable[..., np.ndarray],
    two_term: bool = False,
    colliding: bool = False,
) -> PropertyReport:
    """Run ``violates`` over the basis, two-term and random phases in order.

    ``violates`` takes one ``_Batch`` per slot of a candidate tuple and is
    true at the rows that break the identity; the first such candidate is
    the counterexample.  Every phase is a candidate stream judged by
    ``_first_hit``: the unit basis rows, the two-term rows when
    ``two_term`` is set and level >= 4, then ``samples`` random tuples.
    With ``colliding`` the two-term phase reads only the s = t = +1 pair
    of each ``_collisions`` hit, for the norm identity: by the two-term
    lemma no other pair breaks it, and the first pair that does is the
    first hit's s = t = +1.  The pairs it skips count as judged, so the
    judged count is that of the whole stream.
    """
    level = _int_arg("level", level, 0, TABLE_LEVEL_CAP)
    samples = _int_arg("samples", samples, 1)
    dim = 1 << level
    phases = [(dim**arity, None, _ordered_tuples(level, np.eye(dim, dtype=np.int64), arity))]
    if two_term and level >= 4:
        rows = _two_term_rows(level)
        picks = None
        if colliding:  # rows 2p and 2q of each hit: s = t = +1
            partners, _, hit = _collisions(level)
            picks = 2 * len(rows) * hit.nonzero()[0] + 2 * partners[hit]
        phases.append((len(rows) ** arity, picks, _ordered_tuples(level, rows, arity, picks)))
    phases.append((samples, None, _random_tuples(level, seed, arity)))
    tested = 0
    for phase, (total, picks, candidates) in enumerate(phases):
        judged, hit = _first_hit(total if picks is None else len(picks), candidates, violates)
        if picks is not None:
            judged = total if hit is None else int(picks[judged - 1]) + 1
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
    """|xy|^2 = |x|^2 |y|^2 exactly; fails from the sedenions on.

    From level 4 up the check also sweeps the two-term pairs, judged by the
    two-term lemma: it multiplies one pair of each ``_collisions`` hit.
    """
    violates = _norm_nonmultiplicative
    return _sweep(
        "norm_multiplicative", level, samples, seed, 2, violates, two_term=True, colliding=True
    )


def _zero_divisor_rows(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows u, v of ``_two_term_rows`` of every pair with uv = 0, u major: by
    the two-term lemma, each ``_collisions`` hit at s = +1 and -1 (rows 2p
    and 2p + 1) with t = -s alpha (row 2q + 1 when t = -1)."""
    partners, alpha, hit = _collisions(level)
    p, s, c = np.broadcast_to(hit[:, None], (len(hit), 2, hit.shape[1])).nonzero()
    return 2 * p + s, 2 * partners[p, c] + (s ^ (alpha[p, c] == 1))


def find_zero_divisors(level: int) -> list[tuple[CDNumber, CDNumber]]:
    """Nonzero pairs (u, v) with uv = 0, over all two-term signed basis sums.

    Exhaustive and sound over that pattern: every pair of two-term elements
    with zero product is returned, and no other, in the order of the
    ordered pairs of ``_two_term_rows``, first element major.  The scan is
    the sign arithmetic of the two-term lemma, with no coordinate products;
    levels <= 3 are division algebras, and it finds none there.
    """
    level = _int_arg("level", level, 0, TABLE_LEVEL_CAP)
    u, v = _zero_divisor_rows(level)
    terms = [_cd(level, tuple(r)) for r in _two_term_rows(level).tolist()]
    pick = terms.__getitem__
    return list(zip(map(pick, u.tolist()), map(pick, v.tolist())))


def check_division(level: int) -> PropertyReport:
    """No zero divisors among two-term signed basis sums; fails from the sedenions on.

    The counterexample is the first pair ``find_zero_divisors`` returns.
    ``samples`` counts the whole pattern, (2 * C(dim, 2))^2 pairs, since
    the scan is exhaustive; it is 0 below level 4, where it finds none.
    """
    level = _int_arg("level", level, 0, TABLE_LEVEL_CAP)
    rows, (u, v), dim = _two_term_rows(level), _zero_divisor_rows(level), 1 << level
    scanned = (dim * (dim - 1)) ** 2 if level >= 4 else 0
    if len(u):  # only the first pair is built
        pair = tuple(_cd(level, tuple(rows[w].tolist())) for w in (u[0], v[0]))
        return PropertyReport("division", level, "fails", pair, scanned)
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
    level 4 the ordered two-term pairs come before the random pairs, and
    the 77th of them fails, for every seed.  The counterexample is the
    first non-associating triple of basis elements.
    """
    level = _int_arg("level", level, 0, 4)
    samples = _int_arg("samples", samples, 1)
    phases = [(samples, _random_tuples(level, seed, 2))]
    if level >= 4:
        rows = _two_term_rows(level)
        phases.insert(0, (len(rows) ** 2, _ordered_tuples(level, rows, 2)))
    name, tested = "two_generated_associative", 0
    for total, candidates in phases:
        for n in range(total):
            tested += 1
            basis = _subalgebra_basis(level, *(slot.rows[0] for slot in candidates(n, n + 1)))
            triples = _ordered_tuples(level, basis, 3)  # none if x = y = 0
            _, triple = _first_hit(len(basis) ** 3, triples, _nonassociating)
            if triple is not None:
                return PropertyReport(name, level, "fails", triple, tested)
    return PropertyReport(name, level, "holds", None, tested)
