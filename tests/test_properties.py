import itertools
import json
import random

import pytest

from octoplane.algebra import CDNumber, basis_element
from octoplane.properties import (
    PropertyReport,
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
    two_term_elements,
)

from oracles import ref_mul


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
    assert r.samples == len(two_term_elements(4)) ** 2 == 57600
    assert r.counterexample == find_zero_divisors(4)[0]


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


def test_zero_divisors_complete_over_pattern():
    # independent rescan of the declared search space
    pairs = set()
    candidates = two_term_elements(4)
    for u in candidates:
        for v in candidates:
            if (u * v).is_zero():
                pairs.add((u, v))
    assert pairs == set(find_zero_divisors(4))


# -- two-generated subalgebras -------------------------------------------------


def test_two_generated_holds_for_quaternions_and_octonions():
    assert check_two_generated_associativity(2, 10).holds
    assert check_two_generated_associativity(3, 100).holds


def test_two_generated_fails_for_sedenions():
    r = check_two_generated_associativity(4, 5)
    assert not r.holds
    a, b, c = r.counterexample
    assert (a * b) * c != a * (b * c)


def test_two_generated_agrees_with_alternative():
    for level in (2, 3, 4):
        alt = check_alternative(level, 30, seed=7)
        two = check_two_generated_associativity(level, 10, seed=7)
        assert alt.verdict == two.verdict


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
