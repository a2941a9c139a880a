import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octoplane import projective
from octoplane.algebra import CDNumber, LevelMismatchError, basis_element
from octoplane.projective import (
    Functional,
    InvariantSextuple,
    LinePoint,
    MembershipError,
    OutsideChartError,
    TriplePoint,
    attaching_map,
    chart_backward,
    chart_forward,
    disk_extension,
    equivalent,
    equivalent_line_representative,
    equivalent_representative,
    eval_functional,
    in_chart_domain,
    invariants_of,
    level_for_dim,
    line_equivalent,
    line_include,
    line_to_sphere,
    random_line_point,
    random_triple_point,
    random_unit,
    separating_functional,
    sphere_to_line,
)

from oracles import ref_separating_grid

TOL = 1e-9
DIMS = (1, 2, 4, 8)


def real_triple(a, b, c, level=3):
    return TriplePoint(
        CDNumber.from_scalar(float(a), level),
        CDNumber.from_scalar(float(b), level),
        CDNumber.from_scalar(float(c), level),
    )


def coordinate_functional(i):
    coeffs = [0.0, 0.0, 0.0]
    coeffs[i] = 1.0
    return Functional(*coeffs)


# -- membership ---------------------------------------------------------------


def test_triple_point_requires_unit_norm():
    one = CDNumber.one(3)
    zero = CDNumber.zero(3)
    TriplePoint(one, zero, zero)
    with pytest.raises(MembershipError):
        TriplePoint(one, one, zero)


def test_triple_point_rejects_nonassociating_entries():
    s = 1.0 / math.sqrt(3.0)
    with pytest.raises(MembershipError):
        TriplePoint(
            basis_element(3, 1) * s,
            basis_element(3, 2) * s,
            basis_element(3, 4) * s,
        )


def test_triple_point_rejects_high_levels():
    one = CDNumber.one(4)
    zero = CDNumber.zero(4)
    with pytest.raises(MembershipError):
        TriplePoint(one, zero, zero)


def test_line_point_norm_check():
    LinePoint(CDNumber.one(3), CDNumber.zero(3))
    with pytest.raises(MembershipError):
        LinePoint(CDNumber.one(3), CDNumber.one(3))


ONE_3, ZERO_3 = CDNumber.one(3), CDNumber.zero(3)
E1, E2, E4 = (basis_element(3, k) for k in (1, 2, 4))
INF = math.inf


# an infinite tolerance passed every check when the checks took one
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: TriplePoint(E1 * 3.0, E2 * 3.0, E4 * 3.0, tol=INF), id="triple-point"),
        pytest.param(lambda: LinePoint(ONE_3, ONE_3, tol=INF), id="line-point"),
        pytest.param(
            lambda: chart_forward(Functional(1, 0, 0), real_triple(0, 1, 0), INF), id="chart-forward"
        ),
        pytest.param(
            lambda: equivalent(real_triple(1, 0, 0), real_triple(0, 1, 0), INF), id="equivalent"
        ),
        pytest.param(
            lambda: line_equivalent(LinePoint(ONE_3, ZERO_3), LinePoint(ZERO_3, ONE_3), INF),
            id="line-equivalent",
        ),
        pytest.param(
            lambda: in_chart_domain(Functional(1, 0, 0), real_triple(0, 1, 0), INF),
            id="in-chart-domain",
        ),
        pytest.param(lambda: attaching_map(ONE_3, ONE_3, tol=INF), id="attaching-map"),
        pytest.param(lambda: disk_extension(ONE_3, ONE_3, INF), id="disk-extension"),
        pytest.param(
            lambda: sphere_to_line(np.array([0.0, 3.0, 4.0]), tol=INF), id="sphere-to-line"
        ),
    ],
)
def test_geometric_checks_take_no_tolerance(call):
    with pytest.raises(TypeError):
        call()


def test_motivating_inputs_fail_at_the_one_tolerance():
    with pytest.raises(MembershipError):
        TriplePoint(E1 * 3.0, E2 * 3.0, E4 * 3.0)
    assert not equivalent(real_triple(1, 0, 0), real_triple(0, 1, 0))
    with pytest.raises(MembershipError):
        sphere_to_line(np.array([0.0, 3.0, 4.0]))


# -- invariants and equivalence -------------------------------------------------


def test_invariants_of_unit_axis():
    inv = invariants_of(real_triple(1, 0, 0))
    values = [x.coords[0] for x in inv.as_tuple()]
    assert values == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert all(x.max_abs() == abs(x.coords[0]) for x in inv.as_tuple())


def test_invariants_of_diagonal_pair():
    rng = random.Random(0)
    u = random_unit(3, rng)
    s = 1.0 / math.sqrt(2.0)
    p = TriplePoint(u * s, u * s, CDNumber.zero(3))
    inv = invariants_of(p)
    assert abs(inv.xx.coords[0] - 0.5) < TOL and inv.xx.max_abs() - 0.5 < TOL
    assert abs(inv.yy.coords[0] - 0.5) < TOL
    assert (inv.xy - CDNumber.from_scalar(0.5, 3)).max_abs() < TOL
    for other in (inv.xz, inv.yz, inv.zz):
        assert other.max_abs() < TOL


def test_diagonal_invariants_real_with_unit_trace():
    rng = random.Random(1)
    for dim in DIMS:
        p = random_triple_point(dim, rng)
        inv = invariants_of(p)
        trace = inv.xx.coords[0] + inv.yy.coords[0] + inv.zz.coords[0]
        assert abs(trace - 1.0) < TOL


def test_equivalence_reflexive_and_unit_multiple():
    rng = random.Random(2)
    p = random_triple_point(8, rng)
    assert equivalent(p, p)
    u = random_unit(3, rng)
    a = real_triple(1, 0, 0)
    b = TriplePoint(u, CDNumber.zero(3), CDNumber.zero(3))
    assert equivalent(a, b)


def test_equivalence_distinguishes_axes():
    assert not equivalent(real_triple(1, 0, 0), real_triple(0, 1, 0))


def test_equivalence_symmetric_transitive_on_derived_reps():
    rng = random.Random(3)
    for dim in DIMS:
        p = random_triple_point(dim, rng)
        q = equivalent_representative(p, rng)
        r = equivalent_representative(q, rng)
        assert equivalent(p, q) and equivalent(q, p)
        assert equivalent(q, r) and equivalent(p, r)


# -- functionals ----------------------------------------------------------------


def test_functional_validation():
    with pytest.raises(ValueError):
        Functional(0, 0, 0)
    assert Functional(0, 0, 1).anchor() == 2
    assert Functional(3, -5, 1).anchor() == 1
    with pytest.raises(OutsideChartError):
        Functional(1e-13, 0, 1e-14).anchor()


NAN_AXIS = CDNumber(1, (math.nan, 0.0))
ZERO_1 = CDNumber.zero(1)
ONE_1 = CDNumber.one(1)


@pytest.mark.parametrize(
    "build, error",
    [
        pytest.param(lambda: TriplePoint(NAN_AXIS, ZERO_1, ZERO_1), MembershipError, id="triple-x"),
        pytest.param(lambda: TriplePoint(ONE_1, NAN_AXIS, ZERO_1), MembershipError, id="triple-y"),
        pytest.param(lambda: LinePoint(NAN_AXIS, ZERO_1), MembershipError, id="line-nan"),
        pytest.param(
            lambda: LinePoint(ZERO_1, CDNumber(1, (0.0, math.inf))), MembershipError, id="line-inf"
        ),
        pytest.param(
            lambda: chart_backward(Functional(0, 0, 1), CDNumber(1, (math.inf, 0.0)), ZERO_1),
            MembershipError,
            id="chart-backward",
        ),
        pytest.param(
            lambda: sphere_to_line(np.array([math.nan] * 3)), MembershipError, id="sphere-to-line"
        ),
        pytest.param(lambda: disk_extension(NAN_AXIS, ZERO_1), MembershipError, id="disk"),
        pytest.param(
            lambda: projective._associator_span(NAN_AXIS, ONE_1, ONE_1),
            MembershipError,
            id="associator",
        ),
        pytest.param(
            lambda: InvariantSextuple(
                CDNumber(1, (1.0, math.nan)), ZERO_1, ZERO_1, ZERO_1, ZERO_1, ZERO_1
            ),
            MembershipError,
            id="sextuple-imaginary",
        ),
        pytest.param(
            lambda: InvariantSextuple(NAN_AXIS, ZERO_1, ZERO_1, ZERO_1, ZERO_1, ZERO_1),
            MembershipError,
            id="sextuple-trace",
        ),
        pytest.param(lambda: Functional(math.nan, 0, 0), ValueError, id="functional-nan"),
        pytest.param(lambda: Functional(1, -math.inf, 0), ValueError, id="functional-inf"),
    ],
)
def test_non_finite_inputs_fail_every_check(build, error):
    with pytest.raises(error):
        build()


def test_eval_functional_examples():
    p = real_triple(1, 0, 0)
    assert eval_functional(coordinate_functional(2), p).max_abs() == 0.0
    assert not in_chart_domain(coordinate_functional(2), p)
    value = eval_functional(coordinate_functional(0), p)
    assert (value - CDNumber.one(3)).max_abs() == 0.0


def test_eval_functional_norm_is_class_invariant():
    rng = random.Random(4)
    for _ in range(50):
        p = random_triple_point(8, rng)
        q = equivalent_representative(p, rng)
        f = Functional(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1) + 2.0)
        np_ = math.sqrt(eval_functional(f, p).norm_sq())
        nq = math.sqrt(eval_functional(f, q).norm_sq())
        assert abs(np_ - nq) < TOL


# -- charts ----------------------------------------------------------------------


def test_chart_center():
    f = coordinate_functional(2)
    p = real_triple(0, 0, 1)
    u, v = chart_forward(f, p)
    assert u.max_abs() < TOL and v.max_abs() < TOL
    q = chart_backward(f, CDNumber.zero(3), CDNumber.zero(3))
    assert equivalent(p, q)
    assert (q.z - CDNumber.one(3)).max_abs() < TOL


def test_chart_outside_domain_raises():
    with pytest.raises(OutsideChartError):
        chart_forward(coordinate_functional(2), real_triple(1, 0, 0))


def test_chart_reduces_to_classical_affine_chart_on_reals():
    # with all entries real the chart is (x/z, y/z)
    rng = random.Random(5)
    f = coordinate_functional(2)
    for _ in range(25):
        x, y, z = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1) + 2.0
        n = math.sqrt(x * x + y * y + z * z)
        p = real_triple(x / n, y / n, z / n)
        u, v = chart_forward(f, p)
        assert abs(u.coords[0] - x / z) < 1e-12
        assert abs(v.coords[0] - y / z) < 1e-12
        assert u.max_abs() == abs(u.coords[0])


def test_chart_roundtrip_forward():
    rng = random.Random(6)
    for dim in DIMS:
        level = level_for_dim(dim)
        for anchor in range(3):
            f = coordinate_functional(anchor)
            worst = 0.0
            for _ in range(100):
                u = CDNumber(level, tuple(rng.gauss(0, 1) for _ in range(dim)))
                v = CDNumber(level, tuple(rng.gauss(0, 1) for _ in range(dim)))
                p = chart_backward(f, u, v)
                u2, v2 = chart_forward(f, p)
                worst = max(worst, (u2 - u).max_abs(), (v2 - v).max_abs())
            assert worst < TOL, (dim, anchor, worst)


def test_chart_roundtrip_backward_up_to_equivalence():
    rng = random.Random(7)
    for dim in DIMS:
        f = coordinate_functional(2)
        for _ in range(60):
            p = random_triple_point(dim, rng)
            if not math.sqrt(eval_functional(f, p).norm_sq()) > 1e-3:
                continue
            u, v = chart_forward(f, p)
            q = chart_backward(f, u, v)
            assert equivalent(p, q)


def test_chart_class_invariance():
    rng = random.Random(8)
    f = coordinate_functional(2)
    for _ in range(60):
        u = CDNumber(3, tuple(rng.gauss(0, 1) for _ in range(8)))
        v = CDNumber(3, tuple(rng.gauss(0, 1) for _ in range(8)))
        p = chart_backward(f, u, v)
        q = equivalent_representative(p, rng)
        a1, b1 = chart_forward(f, p)
        a2, b2 = chart_forward(f, q)
        assert (a1 - a2).max_abs() < TOL
        assert (b1 - b2).max_abs() < TOL


def test_chart_nonstandard_functional_roundtrip():
    rng = random.Random(9)
    f = Functional(0.3, -0.2, 1.7)
    for _ in range(40):
        u = CDNumber(3, tuple(rng.gauss(0, 1) for _ in range(8)))
        v = CDNumber(3, tuple(rng.gauss(0, 1) for _ in range(8)))
        p = chart_backward(f, u, v)
        u2, v2 = chart_forward(f, p)
        assert (u2 - u).max_abs() < TOL and (v2 - v).max_abs() < TOL


# -- separating functionals --------------------------------------------------------


def test_separating_functional_examples():
    p = real_triple(1, 0, 0)
    q = real_triple(0, 1, 0)
    f = separating_functional(p, q)
    assert math.sqrt(eval_functional(f, p).norm_sq()) > 1e-6
    assert math.sqrt(eval_functional(f, q).norm_sq()) > 1e-6
    same = real_triple(0, 0, 1)
    f2 = separating_functional(same, same)
    assert math.sqrt(eval_functional(f2, same).norm_sq()) > 1e-6


def test_separating_functional_random_pairs():
    rng = random.Random(10)
    for _ in range(200):
        p = random_triple_point(8, rng)
        q = random_triple_point(8, rng)
        f = separating_functional(p, q)
        assert math.sqrt(eval_functional(f, p).norm_sq()) > 1e-6
        assert math.sqrt(eval_functional(f, q).norm_sq()) > 1e-6


def _separation_pair(dim, kind, seed):
    """Two points at dimension ``dim``; every kind but "random" is rich in ties."""
    rng = random.Random(seed)
    level = level_for_dim(dim)
    if kind == "coordinate":
        points = [
            TriplePoint(*(CDNumber.from_scalar(float(i == j), level) for i in range(3)))
            for j in range(3)
        ]
        return rng.choice(points), rng.choice(points)
    if kind == "adversarial":
        # each point zeroes 8 of the 26 grid functionals: a = -b, and b = c
        x = random_unit(level, rng) * (1.0 / math.sqrt(2.0))
        zero = CDNumber.zero(level)
        return TriplePoint(x, x, zero), TriplePoint(zero, x, -x)
    if kind == "isotropic":
        # at d >= 4 the entries are orthogonal and of one norm, so the eight
        # (+-1, +-1, +-1) functionals score alike but for rounding
        k = math.sqrt(1.0 / 3.0)
        base = TriplePoint(*(basis_element(level, i if dim >= 4 else 0) * k for i in range(3)))
        return equivalent_representative(base, rng), equivalent_representative(base, rng)
    p = random_triple_point(dim, rng)
    if kind == "same":
        return p, p
    if kind == "equivalent":
        return p, equivalent_representative(p, rng)
    return p, random_triple_point(dim, rng)


@pytest.mark.parametrize("dim", DIMS)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(
        ["random", "same", "equivalent", "coordinate", "adversarial", "isotropic"]
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_separating_functional_matches_scalar_grid(dim, kind, seed):
    p, q = _separation_pair(dim, kind, seed)
    expected, score = ref_separating_grid(
        tuple(e.coords for e in p.entries()), tuple(e.coords for e in q.entries())
    )
    assert score > projective.SEPARATION_THRESHOLD
    f = separating_functional(p, q)
    assert f.coefficients() == expected
    assert any(f is g for g in projective._GRID)


def test_separating_functional_rejects_mixed_levels():
    with pytest.raises(LevelMismatchError):
        separating_functional(real_triple(1, 0, 0, level=3), real_triple(1, 0, 0, level=2))


def _rotated_pair(level):
    """(2, 1, 0)/sqrt 5 and (-1, 2, 0)/sqrt 5: no grid functional scores
    above 1/sqrt 5 on both, while a unit one can reach 1/sqrt 2."""
    s = math.sqrt(5.0)
    return real_triple(2 / s, 1 / s, 0, level), real_triple(-1 / s, 2 / s, 0, level)


@pytest.mark.parametrize("level", range(4))
def test_separating_functional_falls_back_to_seeded_draws(level, monkeypatch):
    p, q = _rotated_pair(level)
    coords = [tuple(e.coords for e in t.entries()) for t in (p, q)]
    assert ref_separating_grid(*coords)[1] < 0.5
    monkeypatch.setattr(projective, "SEPARATION_THRESHOLD", 0.5)
    f = separating_functional(p, q)
    # the first of the seeded unit draws that scores above 0.5
    assert f.coefficients() == (0.16142058790209005, 0.8269267053466642, -0.5386423839486222)
    assert min(math.sqrt(eval_functional(f, t).norm_sq()) for t in (p, q)) > 0.5


def test_separating_functional_raises_when_nothing_separates(monkeypatch):
    monkeypatch.setattr(projective, "SEPARATION_THRESHOLD", math.inf)
    p, q = _rotated_pair(3)
    with pytest.raises(projective.SeparationError):
        separating_functional(p, q)


# -- line, sphere, cells -------------------------------------------------------------


def test_line_include_examples():
    p = line_include(LinePoint(CDNumber.one(3), CDNumber.zero(3)))
    assert p.z.is_zero()
    assert equivalent(p, real_triple(1, 0, 0))


def test_line_include_preserves_equivalence():
    rng = random.Random(11)
    for _ in range(40):
        lp = random_line_point(8, rng)
        lq = equivalent_line_representative(lp, rng)
        assert line_equivalent(lp, lq)
        assert equivalent(line_include(lp), line_include(lq))


def test_line_include_reflects_inequivalence():
    # line points are equivalent iff their plane images are
    rng = random.Random(20)
    for _ in range(40):
        lp = random_line_point(8, rng)
        lq = random_line_point(8, rng)
        same_line = line_equivalent(lp, lq)
        same_plane = equivalent(line_include(lp), line_include(lq))
        assert same_line == same_plane


def test_attaching_map_fibers():
    rng = random.Random(12)
    for _ in range(40):
        lp = random_line_point(8, rng)
        lq = equivalent_line_representative(lp, rng)
        assert line_equivalent(attaching_map(lp.x, lp.y), attaching_map(lq.x, lq.y))
    with pytest.raises(MembershipError):
        attaching_map(CDNumber.one(3), CDNumber.one(3))


def test_line_to_sphere_poles():
    north = line_to_sphere(LinePoint(CDNumber.one(3), CDNumber.zero(3)))
    south = line_to_sphere(LinePoint(CDNumber.zero(3), CDNumber.one(3)))
    assert np.allclose(north, [0] * 8 + [1])
    assert np.allclose(south, [0] * 8 + [-1])


def test_line_to_sphere_unit_norm_many():
    rng = random.Random(13)
    worst = 0.0
    for _ in range(10_000):
        s = line_to_sphere(random_line_point(8, rng))
        worst = max(worst, abs(float(np.dot(s, s)) - 1.0))
    assert worst < TOL


def test_line_to_sphere_class_invariant():
    rng = random.Random(14)
    for dim in DIMS:
        for _ in range(30):
            lp = random_line_point(dim, rng)
            lq = equivalent_line_representative(lp, rng)
            assert float(np.max(np.abs(line_to_sphere(lp) - line_to_sphere(lq)))) < TOL


def test_sphere_to_line_poles():
    north = sphere_to_line(np.array([0.0, 0.0, 1.0]))
    assert (north.x - CDNumber.one(1)).max_abs() < TOL and north.y.max_abs() < TOL
    south = sphere_to_line(np.array([0.0, 0.0, -1.0]))
    assert south.x.max_abs() < TOL and (south.y - CDNumber.one(1)).max_abs() < TOL


def test_sphere_to_line_checks_the_squared_norm():
    # at t = 0 the point built has norms summing to 1 + (|s|^2 - 1) / 2
    point = sphere_to_line(np.array([math.sqrt(1.0 + 0.99e-9), 0.0, 0.0]))
    assert abs(point.x.norm_sq() + point.y.norm_sq() - 1.0) <= 0.5e-9
    assert isinstance(LinePoint(point.x, point.y), LinePoint)
    with pytest.raises(MembershipError, match="squared norm"):
        sphere_to_line(np.array([math.sqrt(1.0 + 1.1e-9), 0.0, 0.0]))


def test_sphere_line_roundtrips():
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(10_000):
        s = rng.normal(size=9)
        s /= np.linalg.norm(s)
        lp = sphere_to_line(s)
        worst = max(worst, float(np.max(np.abs(line_to_sphere(lp) - s))))
    assert worst < TOL


def test_line_sphere_line_up_to_equivalence():
    rng = random.Random(16)
    for dim in DIMS:
        for _ in range(100):
            lp = random_line_point(dim, rng)
            lq = sphere_to_line(line_to_sphere(lp))
            assert line_equivalent(lp, lq)


def test_complex_case_matches_complex_arithmetic():
    # independent route: classical formula evaluated with python complex
    rng = random.Random(17)
    for _ in range(200):
        lp = random_line_point(2, rng)
        x = complex(*lp.x.coords)
        y = complex(*lp.y.coords)
        w = 2.0 * x * y.conjugate()
        expected = np.array([w.real, w.imag, abs(x) ** 2 - abs(y) ** 2])
        assert np.allclose(line_to_sphere(lp), expected, atol=1e-12)


def test_disk_extension_examples():
    center = disk_extension(CDNumber.zero(3), CDNumber.zero(3))
    assert equivalent(center, real_triple(0, 0, 1))
    half = CDNumber.from_scalar(0.5, 3)
    mid = disk_extension(half, half)
    assert abs(mid.z.coords[0] - math.sqrt(0.5)) < 1e-12
    with pytest.raises(MembershipError):
        disk_extension(CDNumber.one(3), CDNumber.one(3))


def test_disk_extension_boundary_factors_through_attaching_map():
    rng = random.Random(18)
    for _ in range(200):
        lp = random_line_point(8, rng)
        extended = disk_extension(lp.x, lp.y)
        included = line_include(attaching_map(lp.x, lp.y))
        assert extended.z.is_zero()
        assert equivalent(extended, included)


def test_random_triple_point_is_valid_member():
    rng = random.Random(19)
    for dim in DIMS:
        p = random_triple_point(dim, rng)
        total = p.x.norm_sq() + p.y.norm_sq() + p.z.norm_sq()
        assert abs(total - 1.0) < TOL
