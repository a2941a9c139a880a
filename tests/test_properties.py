import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from octoplane import properties
from octoplane.algebra import CDNumber, _Batch, _max_abs, basis_element, cd_to_json
from octoplane.properties import (
    RANDOM_EXACT_SPAN,
    _extend_echelon,
    _first_hit,
    _nonalternative,
    _nonassociating,
    _noncommuting,
    _nonflexible,
    _norm_nonmultiplicative,
    _ordered_tuples,
    _random_tuples,
    _subalgebra_basis,
    _two_term_rows,
    _zero_divisor_rows,
    associator,
    check_alternative,
    check_associative,
    check_commutative,
    check_division,
    check_flexible,
    check_norm_multiplicative,
    check_two_generated_associativity,
    expected_verdict,
    find_zero_divisors,
    random_exact,
)

from oracles import _ref_sign_rows, ref_mul, ref_rank, ref_span_subset, ref_subalgebra_basis


def e(level, index):
    return basis_element(level, index)


def recheck_pair(report, identity):
    """A failing report must violate its identity exactly when replayed."""
    assert report.counterexample is not None
    assert identity(*report.counterexample) is False


# -- verdict matrix -----------------------------------------------------------


def test_commutative_verdicts():
    assert check_commutative(0, 20).holds
    assert check_commutative(1, 20).holds
    r = check_commutative(2, 20)
    assert not r.holds
    x, y = r.counterexample
    assert x * y != y * x


def test_associative_verdicts():
    for level in (0, 1, 2):
        assert check_associative(level, 20).holds
    r = check_associative(3, 20)
    assert not r.holds
    x, y, z = r.counterexample
    assert not associator(x, y, z).is_zero()


def test_alternative_verdicts():
    assert check_alternative(2, 20).holds
    assert check_alternative(3, 200).holds
    r = check_alternative(4, 20)
    assert not r.holds
    x, y = r.counterexample
    assert x * (y * y) != (x * y) * y or (x * x) * y != x * (x * y)


def test_flexible_holds_up_the_tower():
    for level, samples in ((3, 100), (4, 100), (5, 60)):
        r = check_flexible(level, samples)
        assert r.holds, level


def test_norm_multiplicative_verdicts():
    assert check_norm_multiplicative(1, 50).holds
    assert check_norm_multiplicative(3, 200).holds
    r = check_norm_multiplicative(4, 20)
    assert not r.holds
    x, y = r.counterexample
    assert (x * y).norm_sq() != x.norm_sq() * y.norm_sq()


def test_reports_match_known_expectations():
    for level in range(5):
        for checker, name in (
            (check_commutative, "commutative"),
            (check_associative, "associative"),
            (check_alternative, "alternative"),
            (check_flexible, "flexible"),
            (check_norm_multiplicative, "norm_multiplicative"),
        ):
            report = checker(level, 30, seed=level)
            assert report.verdict == expected_verdict(name, level)


def test_verdicts_are_seed_stable():
    a = check_alternative(4, 25, seed=123)
    b = check_alternative(4, 25, seed=123)
    assert a == b


# -- associator --------------------------------------------------------------


def test_associator_vanishes_on_quaternions():
    rng = random.Random(0)
    for _ in range(50):
        x, y, z = (random_exact(2, rng) for _ in range(3))
        assert associator(x, y, z).is_zero()


def test_associator_witness_octonions():
    a = associator(e(3, 1), e(3, 2), e(3, 4))
    assert a == e(3, 7) * 2


def test_octonion_left_alternative_identity():
    # (xx)y = x(xy) means the associator with repeated first slot vanishes
    rng = random.Random(1)
    for _ in range(100):
        x = random_exact(3, rng)
        y = random_exact(3, rng)
        assert associator(x, x, y).is_zero()
        assert associator(y, x, x).is_zero()


def test_associator_level_mismatch():
    with pytest.raises(Exception):
        associator(e(2, 1), e(3, 1), e(3, 2))


# -- zero divisors -----------------------------------------------------------


def test_division_report():
    for level in (0, 1, 2, 3):
        r = check_division(level)
        assert r.verdict == "holds" and r.samples == 0 and r.counterexample is None
    r = check_division(4)
    assert r.verdict == "fails" and r.matches_expectation()
    assert r.samples == 57600
    assert r.counterexample == find_zero_divisors(4)[0]
    assert check_division(5).counterexample == find_zero_divisors(5)[0]


def test_zero_divisors_empty_through_octonions():
    for level in (0, 1, 2, 3):
        assert find_zero_divisors(level) == []


def test_zero_divisors_sedenions_sound():
    pairs = find_zero_divisors(4)
    assert pairs
    for u, v in pairs:
        assert not u.is_zero() and not v.is_zero()
        assert (u * v).is_zero()
        # confirmed against the doubling recursion too
        assert all(c == 0 for c in ref_mul(u.coords, v.coords))


def test_zero_divisors_contains_known_pair():
    pairs = find_zero_divisors(4)
    u = e(4, 1) + e(4, 10)
    v = e(4, 4) - e(4, 15)
    assert (u * v).is_zero()
    assert (u, v) in pairs


def _ref_two_terms(dim):
    """e_i + s*e_j as coordinate tuples, i < j, s = +1 before s = -1."""
    out = []
    for i, j in itertools.combinations(range(dim), 2):
        for s in (1, -1):
            coords = [0] * dim
            coords[i] = 1
            coords[j] = s
            out.append(tuple(coords))
    return out


def _ref_basis_products(level):
    """ref_mul(e_a, e_b) for every pair of basis units."""
    dim = 1 << level
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    return [[ref_mul(a, b) for b in units] for a in units]


def _ref_product(products, u, v):
    """uv from the basis products of ref_mul, which is bilinear."""
    out = [0] * len(u)
    for a, x in enumerate(u):
        if x:
            for b, y in enumerate(v):
                if y:
                    for k, c in enumerate(products[a][b]):
                        out[k] += x * y * c
    return out


def _scan_digest(pairs):
    """sha256 over the ordered pairs, each factor as its nonzero (index, value)
    list; the digest perfbench/pins.json records."""
    h = hashlib.sha256()
    for u, v in pairs:
        doc = [[[i, int(c)] for i, c in enumerate(w) if c] for w in (u, v)]
        h.update(json.dumps(doc, separators=(",", ":")).encode())
    return h.hexdigest()


def test_zero_divisors_complete_over_pattern():
    # independent rescan of the declared search space, order included
    products = _ref_basis_products(4)
    candidates = _ref_two_terms(16)
    expected = [
        (u, v) for u in candidates for v in candidates if not any(_ref_product(products, u, v))
    ]
    found = [(u.coords, v.coords) for u, v in find_zero_divisors(4)]
    assert found == expected
    assert len(found) == 336
    assert _scan_digest(found) == (
        "8b127ae41c3b14e0a7308a986a1c31a3a4fb3aef8e0685d2ea6ff86dee31214e"
    )


def test_zero_divisors_level5_pinned():
    # the count and ordered-list digest pinned when the scan multiplied
    # every pattern pair out
    found = [(u.coords, v.coords) for u, v in find_zero_divisors(5)]
    assert len(found) == 5040
    assert _scan_digest(found) == (
        "ffb009a4bfa059b13ff7268bf77de07a11ba4e4a19a42a958d062aed9aee7dc1"
    )
    products = _ref_basis_products(5)
    two_terms = set(_ref_two_terms(32))
    for u, v in found:
        assert u in two_terms and v in two_terms
        assert not any(_ref_product(products, u, v))


def test_zero_divisors_level6_sample():
    # count and ordered-list digest pinned before the scan read only signs
    pairs = find_zero_divisors(6)
    assert len(pairs) == 52080
    assert _scan_digest([(u.coords, v.coords) for u, v in pairs]) == (
        "d778b5e4134f396f6b62e3b3a1c49e54d94025315395e6ad2cbf370556718063"
    )
    two_terms = set(_ref_two_terms(64))
    for u, v in random.Random(6).sample(pairs, 200):
        assert u.coords in two_terms and v.coords in two_terms
        assert not any(ref_mul(u.coords, v.coords))


# -- the two-term lemma ----------------------------------------------------------


def _ref_two_term_axes(dim):
    """(i, j, s) for each e_i + s*e_j, in the order of ``_ref_two_terms``."""
    return [(i, j, s) for i, j in itertools.combinations(range(dim), 2) for s in (1, -1)]


def _ref_sign(dim, a, b):
    """s_ab, with e_a e_b = s_ab e_(a ^ b), read from the doubling recursion."""
    return _ref_sign_rows(dim)[a][b][2]


def _ref_product_norm(sign_rows, u, v):
    """|uv|^2 for u = e_i + s*e_j and v = e_k + t*e_l, given as (i, j, s) and
    (k, l, t), from the basis products of the doubling recursion."""
    (i, j, s), (k, l, t) = u, v
    out = {}
    for a, x in ((i, 1), (j, s)):
        for b, y in ((k, 1), (l, t)):
            _, axis, sign = sign_rows[a][b]
            out[axis] = out.get(axis, 0) + sign * x * y
    return sum(c * c for c in out.values())


@pytest.mark.parametrize("level, sample", [(4, None), (5, 50_000)])
def test_only_colliding_two_term_pairs_break_the_norm(level, sample):
    # the two-term lemma, sharpened, from the oracle's products alone: every
    # ordered pair at level 4, a seeded sample at level 5.  |uv|^2 != 4 iff
    # l = i ^ j ^ k and s_ik s_jl = s_il s_jk, and uv = 0 there iff t = -s s_ik s_jl
    dim = 1 << level
    sign_rows, terms = _ref_sign_rows(dim), _ref_two_term_axes(dim)
    if sample is None:
        pairs = list(itertools.product(terms, repeat=2))
    else:
        rng = random.Random(level)
        pairs = [(rng.choice(terms), rng.choice(terms)) for _ in range(sample)]
    broken = zero = 0
    for u, v in pairs:
        (i, j, s), (k, l, t) = u, v
        alpha = _ref_sign(dim, i, k) * _ref_sign(dim, j, l)
        breaks = l == i ^ j ^ k and alpha == _ref_sign(dim, i, l) * _ref_sign(dim, j, k)
        norm = _ref_product_norm(sign_rows, u, v)  # |u|^2 |v|^2 = 2 * 2
        assert (norm != 4) == breaks, (u, v)
        assert (norm == 0) == (breaks and t == -s * alpha), (u, v)
        broken, zero = broken + breaks, zero + (norm == 0)
    assert broken > zero > 0
    if sample is None:
        assert (broken, zero) == (672, 336)


@pytest.mark.parametrize("level", [4, 5])
def test_colliding_pairs_are_the_pairs_whose_axes_meet(level):
    # the lemma's zero divisors from the oracle's signs, u major: the axes
    # collide, alpha = beta, and t = -s alpha
    dim = 1 << level
    axes = list(itertools.combinations(range(dim), 2))
    expected = []
    for p, (i, j) in enumerate(axes):
        for s in (1, -1):
            for q, (k, l) in enumerate(axes):
                if k ^ l != i ^ j:
                    continue
                alpha = _ref_sign(dim, i, k) * _ref_sign(dim, j, l)
                if alpha == _ref_sign(dim, i, l) * _ref_sign(dim, j, k):
                    expected.append((2 * p + (s < 0), 2 * q + (-s * alpha < 0)))
    u, v = _zero_divisor_rows(level)
    assert list(zip(u.tolist(), v.tolist())) == expected


@pytest.mark.parametrize("level", range(4))
def test_no_two_term_pair_breaks_the_norm_through_the_octonions(level):
    u, v = _zero_divisor_rows(level)
    assert len(u) == len(v) == 0


def test_colliding_pair_count_at_the_top_level():
    u, v = _zero_divisor_rows(6)
    assert len(u) == len(v) == len(find_zero_divisors(6)) == 52080
    assert u.nbytes + v.nbytes < 2**20
    assert not u.flags.writeable and not v.flags.writeable


@pytest.mark.parametrize("level, position", [(4, 11_168), (5, 77_632)])
def test_norm_two_term_phase_skips_only_pairs_that_keep_the_norm(level, position):
    # the oracle's products alone: the first ordered two-term pair with
    # |uv|^2 != 4 is where the phase starts, and the pairs before it count
    dim = 1 << level
    sign_rows, terms = _ref_sign_rows(dim), _ref_two_term_axes(dim)
    pairs = itertools.product(terms, repeat=2)
    first = next(n for n, (u, v) in enumerate(pairs) if _ref_product_norm(sign_rows, u, v) != 4)
    assert first == position
    assert check_norm_multiplicative(level, 1).samples == first + 1 + dim**2


# -- two-generated subalgebras -------------------------------------------------


def test_two_generated_holds_for_quaternions_and_octonions():
    assert check_two_generated_associativity(2, 10).holds
    assert check_two_generated_associativity(3, 100).holds


def test_two_generated_fails_for_sedenions():
    r = check_two_generated_associativity(4, 5)
    assert not r.holds
    a, b, c = r.counterexample
    assert (a * b) * c != a * (b * c)


# Every level-4 run below fails on the 77th pair of the two-term phase with
# this triple of words: e0 + e1 and twice e2 + e12.
_TWO_GENERATED_WITNESS = [
    {"level": 4, "coords": ["1", "1"] + ["0"] * 14},
    {"level": 4, "coords": ["0", "0", "1"] + ["0"] * 9 + ["1", "0", "0", "0"]},
    {"level": 4, "coords": ["0", "0", "1"] + ["0"] * 9 + ["1", "0", "0", "0"]},
]


@pytest.mark.parametrize("level", range(5))
def test_two_generated_reports_pinned(level):
    # full reports, samples and witness included, as recorded before the
    # check got a loop of its own and, at level 3 with 100 samples, before
    # the subalgebra was closed exactly
    runs = [(seed, samples) for seed in (0, 1, 7, 42) for samples in (1, 5, 20)]
    if level == 3:
        runs += [(0, 100), (29, 100)]
    for seed, samples in runs:
        report = check_two_generated_associativity(level, samples, seed)
        expected = {
            "property": "two_generated_associative",
            "level": level,
            "verdict": "holds" if level <= 3 else "fails",
            "samples": samples if level <= 3 else 77,
            "counterexample": None if level <= 3 else _TWO_GENERATED_WITNESS,
        }
        assert report.to_json() == expected, (seed, samples)
        assert report.matches_expectation()
        if level == 4:
            a, b, c = (w.coords for w in report.counterexample)
            assert ref_mul(ref_mul(a, b), c) != ref_mul(a, ref_mul(b, c))


def test_two_generated_two_term_phase_is_every_ordered_pair(monkeypatch):
    # with no triple failing, level 4 judges every ordered pair of the two-term
    # rows (three of them here), then the random pairs
    rows = _two_term_rows(4)[:3]
    monkeypatch.setattr(properties, "_two_term_rows", lambda level: rows)
    monkeypatch.setattr(properties, "_nonassociating", lambda x, y, z: np.zeros(len(x.rows), bool))
    report = check_two_generated_associativity(4, 2)
    assert report.holds and report.samples == 3**2 + 2


def test_two_generated_agrees_with_alternative():
    for level in (2, 3, 4):
        alt = check_alternative(level, 30, seed=7)
        two = check_two_generated_associativity(level, 10, seed=7)
        assert alt.verdict == two.verdict


# -- the two-generated helpers against the oracles -----------------------------
# Hypothesis runs derandomized and without an example database here, so every
# run draws the same cases.


@st.composite
def integer_vector_lists(draw):
    """A level and integer vectors of its dimension, many of them dependent."""
    level = draw(st.integers(0, 4))
    dim = 1 << level
    coord = st.integers(-3, 3)
    vectors = []
    for _ in range(draw(st.integers(0, 24))):
        if vectors and draw(st.booleans()):
            # an integer combination of earlier vectors
            picks = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=3))
            factors = draw(st.lists(coord, min_size=len(picks), max_size=len(picks)))
            vectors.append(tuple(sum(f * p[k] for f, p in zip(factors, picks)) for k in range(dim)))
        else:
            vectors.append(tuple(draw(st.lists(coord, min_size=dim, max_size=dim))))
    return level, vectors


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(integer_vector_lists())
def test_extend_echelon_matches_rational_elimination(case):
    _, vectors = case
    pivots = []
    kept = [n for n, v in enumerate(vectors) if _extend_echelon(pivots, v)]
    assert len(pivots) == len(kept)
    assert kept == ref_span_subset(vectors)


def _seeded_element(level, rng, sparse):
    """Integer coordinates; a sparse element is mostly zeros, so products often coincide."""
    if sparse:
        return tuple(rng.choice((-1, 0, 0, 0, 1, 2)) for _ in range(1 << level))
    return random_exact(level, rng).coords


# a smaller seed is not a simpler case, so a failure is reported unshrunk
@pytest.mark.parametrize("level", range(5))
@settings(
    max_examples=6,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(seed=st.integers(0, 2**32 - 1), sparse=st.booleans())
def test_subalgebra_basis_matches_oracle(level, seed, sparse):
    rng = random.Random(seed)
    x = _seeded_element(level, rng, sparse)
    y = _seeded_element(level, rng, sparse)
    basis = [tuple(b) for b in _subalgebra_basis(level, np.array(x), np.array(y)).tolist()]
    assert len(basis) == len(ref_subalgebra_basis(x, y)) == ref_rank(basis)
    # x and y lie in the span, and the span is closed under products
    products = [ref_mul(a, b) for a in basis for b in basis]
    assert ref_rank(basis + [x, y] + products) == len(basis)


def unit_row(level, index):
    return np.eye(1 << level, dtype=np.int64)[index]


def test_subalgebra_basis_known_dimensions():
    # a generic octonion pair generates a quaternion subalgebra
    x, y = np.array(((1, 2, 0, -1, 3, 0, 1, 2), (0, 1, -2, 1, 1, 3, 0, -1)))
    assert _subalgebra_basis(3, x, y).shape == (4, 8)
    # e1 and e2 generate the quaternions inside the sedenions too
    assert _subalgebra_basis(4, unit_row(4, 1), unit_row(4, 2)).shape == (4, 16)
    # e1 alone generates a copy of the complex numbers, through e1 e1 = -1
    assert _subalgebra_basis(2, unit_row(2, 1), np.zeros(4, np.int64)).tolist() == [
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ]
    # 1 + e1 and its conjugate, kept as the start rows are, span them with no product
    assert _subalgebra_basis(2, np.array((1, 1, 0, 0)), np.zeros(4, np.int64)).tolist() == [
        [1, 1, 0, 0],
        [1, -1, 0, 0],
    ]


def test_subalgebra_basis_takes_object_rows_past_int64():
    # entries past int64 go in as Python ints, with no float or unsigned detour
    x = np.array([2**63, 0, 0, 0], dtype=object)
    basis = _subalgebra_basis(2, x, unit_row(2, 1))
    assert basis.dtype == object
    assert basis.tolist() == [[2**63, 0, 0, 0], [0, 1, 0, 0]]
    # a product past int64 is kept exactly: e1 and 2^62 e2 make 2^62 e3
    basis = _subalgebra_basis(2, unit_row(2, 1), (1 << 62) * unit_row(2, 2))
    assert basis.tolist()[-1] == [0, 0, 0, 2**62]


@pytest.mark.parametrize("level", range(5))
def test_zero_pair_generates_an_empty_basis_with_no_triple_to_judge(level):
    zero = np.zeros(1 << level, dtype=np.int64)
    basis = _subalgebra_basis(level, zero, zero)
    assert basis.shape == (0, 1 << level)

    def candidates(start, stop):
        raise AssertionError(f"candidates {start} .. {stop - 1} drawn from an empty basis")

    judged = _first_hit(len(basis) ** 3, candidates, _nonassociating)
    assert judged == (0, None)


def test_two_generated_counts_a_zero_pair_and_holds():
    # at level 0 a seeded pair is (0, 0) once in 361 draws on average
    stream = _random_tuples(0, 0, 2)
    n = next(n for n in itertools.count() if not any(s.rows.any() for s in stream(n, n + 1)))
    report = check_two_generated_associativity(0, n + 2, seed=0)
    assert report.to_json()["samples"] == n + 2 and report.holds


def test_batch_norms_stay_exact_past_int64():
    # the norm predicate multiplies two norms, so large rows leave int64
    rows = np.array([[2**40, 3, 0, -(2**35)], [1, 1, 1, 1]], dtype=np.int64)
    norms = _Batch(2, rows, 2**40).norm_sq()
    expected = [sum(c * c for c in row) for row in rows.tolist()]
    assert norms.tolist() == expected
    assert (norms * norms).tolist() == [n * n for n in expected]


@pytest.mark.parametrize("level", range(4))
def test_batch_norms_stay_exact_at_the_int64_switch(level):
    # equal entries just under the switch's sqrt(2^32 >> level): norms near
    # 2^32, whose products need Python ints
    v = math.isqrt((1 << 32) - 1 >> level)
    rows = np.full((2, 1 << level), v, dtype=np.int64)
    rows[1, 0] = -v
    norms = _Batch(level, rows, v).norm_sq()
    assert norms.tolist() == [v * v << level] * 2
    assert (norms * norms).tolist() == [(v * v << level) ** 2] * 2


class _CheckedBatch(_Batch):
    """A ``_Batch`` whose products and norms are checked as they are made:
    the carried bound covers every entry, and the rows are the oracle's."""

    __slots__ = ()

    def __mul__(self, other):
        product = super().__mul__(other)
        rows = product.rows.tolist()
        assert product.bound >= max(abs(c) for row in rows for c in row)
        pairs = zip(self.rows.tolist(), other.rows.tolist())
        assert rows == [list(ref_mul(tuple(x), tuple(y))) for x, y in pairs]
        return _CheckedBatch(self.level, product.rows, product.bound)

    def norm_sq(self):
        norms = super().norm_sq()
        assert norms.tolist() == [sum(c * c for c in row) for row in self.rows.tolist()]
        return norms


#: Each checker's identity predicate; REF_VIOLATIONS holds its oracle.
PREDICATES = {
    check_commutative: _noncommuting,
    check_associative: _nonassociating,
    check_alternative: _nonalternative,
    check_flexible: _nonflexible,
    check_norm_multiplicative: _norm_nonmultiplicative,
}


@st.composite
def predicate_slots(draw, scale):
    """A checker, a level and its predicate's slots: (N, 2^level) int64 rows
    whose entries lie within 9 of +/-scale."""
    checker = draw(st.sampled_from(list(PREDICATES)))
    level, count = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    entry = st.builds(lambda d, s: s * (scale + d), st.integers(-9, 9), st.sampled_from((1, -1)))
    cells = st.lists(entry, min_size=count << level, max_size=count << level)
    arity = REF_VIOLATIONS[checker][0]
    return checker, level, [
        np.array(draw(cells), dtype=np.int64).reshape(count, 1 << level) for _ in range(arity)
    ]


# products of norms leave int64 from entries near 2^16 on, products from 2^31
@pytest.mark.parametrize("scale", [0, 2**16, 2**31, 2**62 - 16])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_carried_bounds_cover_every_product_of_every_predicate(scale, data):
    checker, level, slots = data.draw(predicate_slots(scale))
    bound = max(int(abs(rows).max()) for rows in slots)
    hits = PREDICATES[checker](*(_CheckedBatch(level, rows, bound) for rows in slots))
    _, violates = REF_VIOLATIONS[checker]
    tuples = zip(*(map(tuple, rows.tolist()) for rows in slots))
    assert hits.tolist() == [violates(*t) for t in tuples]


# -- reports -------------------------------------------------------------------


def test_report_json():
    r = check_alternative(4, 5)
    doc = r.to_json()
    assert doc["property"] == "alternative"
    assert doc["verdict"] == "fails"
    assert doc["level"] == 4
    assert isinstance(doc["samples"], int)
    assert doc["counterexample"] is not None
    json.dumps(doc)


def test_report_holds_has_no_counterexample():
    r = check_flexible(3, 10)
    assert r.holds and r.counterexample is None
    assert r.to_json()["counterexample"] is None


def test_bad_arguments():
    with pytest.raises(ValueError):
        check_alternative(7, 10)
    with pytest.raises(ValueError):
        check_alternative(3, 0)
    with pytest.raises(ValueError):
        check_two_generated_associativity(5, 10)


# -- the basis phase against the doubling recursion ----------------------------


def _ref_norm(t):
    return sum(c * c for c in t)


REF_VIOLATIONS = {
    check_commutative: (2, lambda x, y: ref_mul(x, y) != ref_mul(y, x)),
    check_associative: (
        3,
        lambda x, y, z: ref_mul(ref_mul(x, y), z) != ref_mul(x, ref_mul(y, z)),
    ),
    check_alternative: (
        2,
        lambda x, y: ref_mul(x, ref_mul(y, y)) != ref_mul(ref_mul(x, y), y)
        or ref_mul(ref_mul(x, x), y) != ref_mul(x, ref_mul(x, y)),
    ),
    check_flexible: (2, lambda x, y: ref_mul(x, ref_mul(y, x)) != ref_mul(ref_mul(x, y), x)),
    check_norm_multiplicative: (
        2,
        lambda x, y: _ref_norm(ref_mul(x, y)) != _ref_norm(x) * _ref_norm(y),
    ),
}


@pytest.mark.parametrize("checker", list(REF_VIOLATIONS), ids=lambda c: c.__name__)
@pytest.mark.parametrize("level", range(5))
def test_basis_phase_finds_first_failing_basis_tuple(checker, level):
    arity, violates = REF_VIOLATIONS[checker]
    dim = 1 << level
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    first = next(
        (idx for idx in itertools.product(range(dim), repeat=arity)
         if violates(*(units[i] for i in idx))),
        None,
    )
    report = checker(level, 1, seed=0)
    if first is None:
        # the basis phase passed, so any witness comes from a later phase
        assert report.samples > dim**arity
    else:
        assert report.samples == dim**arity  # the basis phase counts whole
        assert report.counterexample == tuple(e(level, i) for i in first)


# -- the two-term phase at levels 4 to 6 ----------------------------------------

#: Reports whose witness the two-term phase finds, as the one-product-at-a-time
#: sweep gave them: (checker, level, samples, nonzero coordinates of the witness).
#: The phase needs no seed, so they hold for every seed and sample count.
TWO_TERM_REPORTS = [
    (check_alternative, 4, 333, ({0: 1, 1: 1}, {2: 1, 12: 1})),
    (check_norm_multiplicative, 4, 11425, ({1: 1, 10: 1}, {4: 1, 15: 1})),
    (check_alternative, 5, 1165, ({0: 1, 1: 1}, {2: 1, 12: 1})),
    (check_alternative, 6, 4365, ({0: 1, 1: 1}, {2: 1, 12: 1})),
    (check_norm_multiplicative, 5, 78657, ({1: 1, 10: 1}, {4: 1, 15: 1})),
    (check_norm_multiplicative, 6, 577153, ({1: 1, 10: 1}, {4: 1, 15: 1})),
]


@pytest.mark.parametrize(
    "checker, level, samples, witness",
    TWO_TERM_REPORTS,
    ids=[f"{c.__name__}-{level}" for c, level, _, _ in TWO_TERM_REPORTS],
)
def test_two_term_phase_reports_are_pinned(checker, level, samples, witness):
    report = checker(level, 20, seed=0)
    coords = [tuple(w.get(i, 0) for i in range(1 << level)) for w in witness]
    assert report.to_json() == {
        "property": checker.__name__.removeprefix("check_"),
        "level": level,
        "verdict": "fails",
        "samples": samples,
        "counterexample": [cd_to_json(CDNumber(level, c)) for c in coords],
    }
    _, violates = REF_VIOLATIONS[checker]
    assert violates(*coords)


@pytest.mark.parametrize("k", [1, 64, 65, 193])
def test_norm_two_term_phase_counts_the_pairs_before_its_hit(monkeypatch, k):
    # the phase starts at the first zero divisor's s = t = +1 pair, and the
    # k-th pair from there fires: every pair of the whole stream up to it counts
    rows, (u, v) = _two_term_rows(4), _zero_divisor_rows(4)
    start = len(rows) * int(u[0]) + (int(v[0]) & ~1)
    monkeypatch.setattr(properties, "_norm_nonmultiplicative", _fires_at(256 + k, 1))
    report = check_norm_multiplicative(4, 5)
    assert start == 11_168
    assert report.samples == 256 + start + k
    x, y = divmod(start + k - 1, len(rows))
    assert [w.coords for w in report.counterexample] == [tuple(rows[x]), tuple(rows[y])]


@pytest.mark.parametrize("checker, level, k", [
    (check_commutative, 1, 1), (check_commutative, 1, 5), (check_commutative, 1, 69),
    (check_alternative, 4, 257), (check_alternative, 4, 321),
])
def test_sweep_judges_each_phase_from_its_first_candidate(monkeypatch, checker, level, k):
    # the k-th candidate of the sweep fires: the basis phase counts whole,
    # and a later phase counts every candidate up to its hit
    name = {check_commutative: "_noncommuting", check_alternative: "_nonalternative"}[checker]
    monkeypatch.setattr(properties, name, _fires_at(k, 1, RANDOM_EXACT_SPAN))
    report = checker(level, 100, seed=3)
    units = np.eye(1 << level, dtype=np.int64)
    walk = _ordered_walk(level, units, 2)
    if level >= 4:
        walk += _ordered_walk(level, _two_term_rows(level), 2)
    walk += _random_walk(level, 3, 2, 100)
    assert report.samples == max(k, len(units) ** 2)
    assert report.counterexample == walk[k - 1]


def test_norm_two_term_phase_without_a_hit_counts_the_whole_stream(monkeypatch):
    never = lambda x, y: np.zeros(len(x.rows), dtype=bool)  # noqa: E731
    monkeypatch.setattr(properties, "_norm_nonmultiplicative", never)
    report = check_norm_multiplicative(4, 5)
    assert report.holds and report.samples == 256 + len(_two_term_rows(4)) ** 2 + 5


# -- the chunk loop ----------------------------------------------------------------


def _fires_at(k, *bounds):
    """A predicate true only at the k-th candidate it is shown, counting from
    1, that checks each slot carries one of ``bounds`` and keeps within it."""
    seen = [0]

    def violates(*slots):
        assert all(s.bound in bounds and s.bound >= _max_abs(s.rows) for s in slots)
        hits = np.zeros(len(slots[0].rows), dtype=bool)
        if 0 <= k - 1 - seen[0] < len(hits):
            hits[k - 1 - seen[0]] = True
        seen[0] += len(hits)
        return hits

    return violates


def _random_walk(level, seed, arity, count):
    """The first ``count`` tuples of ``random_exact`` draws, one tuple at a time."""
    rng = random.Random(seed)
    return [tuple(random_exact(level, rng) for _ in range(arity)) for _ in range(count)]


def _ordered_walk(level, rows, arity):
    """The ordered ``arity``-tuples of ``rows``, first slot major, one at a time."""
    elements = [CDNumber(level, r) for r in rows.tolist()]
    return list(itertools.product(elements, repeat=arity))


#: (name, total, the first candidate judged, a fresh stream, its entry
#: bound, its candidates walked one at a time); a random stream is read
#: once, from candidate 0, so each test builds its own
CHUNK_STREAMS = [
    ("basis", 8**3, 0, lambda: _ordered_tuples(3, np.eye(8, dtype=np.int64), 3), 1,
     lambda: _ordered_walk(3, np.eye(8, dtype=np.int64), 3)),
    ("two-term", 56**2, 0, lambda: _ordered_tuples(3, _two_term_rows(3), 2), 1,
     lambda: _ordered_walk(3, _two_term_rows(3), 2)),
    ("two-term-from-1000", 56**2, 1000, lambda: _ordered_tuples(3, _two_term_rows(3), 2), 1,
     lambda: _ordered_walk(3, _two_term_rows(3), 2)),
    ("random", 300, 0, lambda: _random_tuples(2, 5, 2), RANDOM_EXACT_SPAN,
     lambda: _random_walk(2, 5, 2, 300)),
]


@pytest.mark.parametrize("stream", CHUNK_STREAMS, ids=lambda s: s[0])
@pytest.mark.parametrize("k", [1, 64, 65, 192, 193, "last"])
def test_first_hit_counts_across_chunk_boundaries(stream, k):
    # chunks hold 64, 128, 256, then 512 candidates from the first judged:
    # 64 and 192 end a chunk, 65 and 193 open the next; the candidates
    # before the first judged count as judged
    _, total, start, candidates, bound, walk = stream
    k = total - start if k == "last" else k
    count, hit = _first_hit(total, candidates(), _fires_at(k, bound), start)
    assert count == start + k
    assert hit == walk()[start + k - 1]


@pytest.mark.parametrize("seed", [0, 7, 42, 4242])
def test_random_stream_draws_as_randint_draws(seed):
    # the stream draws what random_exact's randint calls would, read in two
    # chunks as _first_hit reads it; a Python that draws otherwise fails here
    span = RANDOM_EXACT_SPAN
    for level, arity in itertools.product(range(7), (2, 3)):
        candidates, rng = _random_tuples(level, seed, arity), random.Random(seed)
        slots = [candidates(0, 3), candidates(3, 8)]
        drawn = [[s.rows[n].tolist() for s in chunk]
                 for chunk in slots for n in range(len(chunk[0].rows))]
        walk = [[[rng.randint(-span, span) for _ in range(1 << level)] for _ in range(arity)]
                for _ in range(8)]
        assert drawn == walk


@pytest.mark.parametrize("stream", CHUNK_STREAMS, ids=lambda s: s[0])
def test_first_hit_without_a_hit_judges_every_candidate(stream):
    _, total, start, candidates, bound, _ = stream
    assert _first_hit(total, candidates(), _fires_at(0, bound), start) == (total, None)


@pytest.mark.parametrize("scale", [1, 2**20, 2**40])
def test_ordered_stream_states_the_bound_of_its_rows(scale):
    # the stream measures its rows once, when made; near 2^40 the associator
    # leaves int64, so a bound stated too low would let its products wrap
    rng = random.Random(scale)
    rows = np.array([[rng.randint(-9, 9) * scale for _ in range(8)] for _ in range(4)])
    stream = _ordered_tuples(3, rows, 3)
    assert {s.bound for s in stream(0, 64)} == {_max_abs(rows)}
    _, violates = REF_VIOLATIONS[check_associative]
    walk = list(itertools.product(map(tuple, rows.tolist()), repeat=3))
    k = next(n for n, t in enumerate(walk, 1) if violates(*t))
    count, hit = _first_hit(len(walk), stream, _nonassociating)
    assert count == k
    assert hit == tuple(CDNumber(3, c) for c in walk[k - 1])


def test_first_hit_reads_chunks_that_double_up_to_the_cap():
    # no count or witness depends on the schedule, but the time to an early
    # witness and the memory of a chunk do: 64 rows first, doubling to 512
    read = []

    def candidates(start, stop):
        read.append((start, stop))
        return [_Batch(0, np.zeros((stop - start, 1), dtype=np.int64), 0)]

    assert _first_hit(2000, candidates, _fires_at(0, 0)) == (2000, None)
    sizes = [stop - start for start, stop in read]
    assert sizes == [64, 128, 256, 512, 512, 512, 16]
