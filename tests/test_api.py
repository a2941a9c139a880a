import copy
import pickle
import types
from dataclasses import FrozenInstanceError

import pytest

import octoplane
from octoplane import (
    AbelianGroup,
    CDNumber,
    CoefficientSpec,
    Functional,
    LinePoint,
    PropertyReport,
    TriplePoint,
    build_table,
    invariants_of,
)

# The package's public names; a change that renames or drops one breaks callers.
PUBLIC_NAMES = [
    "AbelianGroup", "CDNumber", "CWDescription", "CoefficientSpec", "Functional",
    "GeometryError", "INTEGERS", "InconsistencyError", "InvariantSextuple",
    "LevelMismatchError", "LinePoint", "MembershipError", "MultiplicationTable",
    "OutsideChartError", "PropertyReport", "RATIONALS", "SeparationError", "TableSizeError",
    "TriplePoint", "ZeroDivisorWarning", "associator", "attaching_map", "basis_element",
    "build_table", "builtin_cw", "cd_from_json", "cd_to_json", "chart_backward",
    "chart_forward", "check_alternative", "check_associative", "check_commutative",
    "check_flexible", "check_norm_multiplicative", "check_two_generated_associativity",
    "cohomology", "cohomology_profile", "disk_extension", "embed", "equivalent",
    "eval_functional", "expected_verdict", "find_zero_divisors", "gauss_linking_number",
    "homology", "inner_product", "invariant_factors", "invariants_of", "line_equivalent",
    "line_include", "line_to_sphere", "linking_hopf_invariant", "multiplication_bidegree",
    "random_exact", "ring_consistency_op3", "separating_functional", "smith_normal_form",
    "sphere_to_line",
]


def test_public_names_are_unchanged():
    names = sorted(
        name
        for name, value in vars(octoplane).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


ONE, ZERO = CDNumber.one(2), CDNumber.zero(2)
POINT = TriplePoint(ONE, ZERO, ZERO)

# (value, one of its fields, slotted): every value type is immutable.
VALUES = [
    (CDNumber(1, (1, 0)), "coords", True),
    (build_table(2), "level", True),
    (POINT, "x", True),
    (LinePoint(ONE, ZERO), "y", True),
    (invariants_of(POINT), "xy", True),
    (Functional(0, 0, 1), "c", True),
    (PropertyReport("commutative", 1, "holds", None, 0), "verdict", False),
    (AbelianGroup(1), "rank", False),
    (CoefficientSpec("Zmod", 3), "modulus", False),
]


@pytest.mark.parametrize(
    "value, field, slotted", VALUES, ids=[type(v[0]).__name__ for v in VALUES]
)
def test_value_types_are_immutable(value, field, slotted):
    before = getattr(value, field)
    with pytest.raises(FrozenInstanceError):
        setattr(value, field, object())
    assert getattr(value, field) is before
    # a name that is not a field is refused the same way, slotted or not
    with pytest.raises(FrozenInstanceError):
        value.not_a_field = 1
    if slotted:
        assert not hasattr(value, "__dict__")
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and repr(getattr(clone, field)) == repr(before)


@pytest.mark.parametrize(
    "a, b, equal",
    [
        (CDNumber(1, (1, 0)), CDNumber(1, (1.0, 0.0)), True),
        (CDNumber(1, [1, 0]), CDNumber(1, (1, 0)), True),
        (CDNumber(1, (1, 0)), CDNumber(1, (1, 0)).embed(2), False),
        (CDNumber(0, (5,)), 5, False),
        (POINT, TriplePoint(ONE, ZERO, ZERO), False),
    ],
)
def test_value_equality(a, b, equal):
    assert (a == b) is equal
    if equal:
        assert hash(a) == hash(b)
    if isinstance(a, CDNumber):
        assert type(a.coords) is tuple
