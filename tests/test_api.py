import types

import octoplane

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
