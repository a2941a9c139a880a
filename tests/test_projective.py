import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octoplane import projective
from octoplane.algebra import CDNumber, LevelMismatchError, associator, basis_element
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

from oracles import ref_functional_length, ref_separating_grid

TOL = 1e-9
DIMS = (1, 2, 4, 8)
#: A seeded sampler for each kind of point: the plane's triples and the line's pairs.
SAMPLERS = {"triple": random_triple_point, "line": random_line_point}


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


@pytest.mark.parametrize("same", [equivalent, line_equivalent], ids=["equivalent", "line"])
def test_equivalence_refuses_mixed_kinds(same):
    pair, triple = LinePoint(ONE_3, ZERO_3), real_triple(1, 0, 0)
    for p, q in ((pair, triple), (triple, pair)):
        with pytest.raises(TypeError):
            same(p, q)


@pytest.mark.parametrize("kind", SAMPLERS)
def test_equivalence_symmetric_transitive_on_derived_reps(kind):
    rng = random.Random(3)
    for dim in DIMS:
        p = SAMPLERS[kind](dim, rng)
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
    assert Functional(projective.ANCHOR_FLOOR, 0, 0).anchor() == 0  # the floor itself anchors


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


def test_checks_at_exactly_the_tolerance():
    # "within DEFAULT_TOL" includes it; a chart needs a value above it
    one, zero = CDNumber.one(0), CDNumber.zero(0)
    assert equivalent(LinePoint(one, zero), LinePoint(one, CDNumber.from_scalar(TOL, 0)))
    InvariantSextuple(CDNumber(1, (1.0, TOL)), ZERO_1, ZERO_1, ZERO_1, ZERO_1, ZERO_1)
    p = real_triple(1, 0, TOL)
    assert math.sqrt(eval_functional(coordinate_functional(2), p).norm_sq()) == TOL
    assert not in_chart_domain(coordinate_functional(2), p)
    with pytest.raises(OutsideChartError):
        chart_forward(coordinate_functional(2), p)
    # [e1, e2, t e4] = 2t e7, so t = TOL / 2 puts the associator at exactly TOL
    e1, e2, t_e4 = basis_element(3, 1), basis_element(3, 2), basis_element(3, 4) * (TOL / 2)
    assert associator(e1, e2, t_e4) == basis_element(3, 7) * TOL
    projective._associator_span(e1, e2, t_e4)


def test_max_difference_keeps_a_nan():
    # the NaN gap is the second of six; a plain max keeps only a first NaN
    nan_xy = InvariantSextuple(ONE_1, NAN_AXIS, ZERO_1, ZERO_1, ZERO_1, ZERO_1)
    assert math.isnan(nan_xy.max_difference(nan_xy))
    axes = [invariants_of(real_triple(*row)) for row in ((1, 0, 0), (0, 1, 0))]
    assert axes[0].max_difference(axes[1]) == 1.0


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
    _assert_scalar_grid_pick(*_separation_pair(dim, kind, seed))


def _coords(p):
    return tuple(e.coords for e in p.entries())


def _assert_scalar_grid_pick(p, q):
    """The pick is a ``_GRID`` member, the one the 26-entry scalar scan makes,
    and it scores above the threshold."""
    expected, score = ref_separating_grid(_coords(p), _coords(q))
    assert score > projective.SEPARATION_THRESHOLD
    f = separating_functional(p, q)
    assert f.coefficients() == expected
    assert any(f is g for g in projective._GRID)


def test_no_plane_holds_more_than_four_grid_directions():
    directions = [tuple(map(int, f.coefficients())) for f in projective._GRID]
    # the 13 directions and their negatives are the 26 nonzero sign vectors
    signed = {d for v in directions for d in (v, tuple(-k for k in v))}
    assert len(directions) == 13 and len(signed) == 26
    assert all(next(k for k in v if k) == 1 for v in directions)
    # a plane holding two of them is spanned by them, with normal their cross product
    counts = []
    for i, (a1, b1, c1) in enumerate(directions):
        for a2, b2, c2 in directions[i + 1:]:
            normal = (b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2)
            counts.append(sum(sum(n * k for n, k in zip(normal, v)) == 0 for v in directions))
    assert max(counts) == 4


@pytest.mark.parametrize("dim", DIMS)
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(
        ["random", "same", "equivalent", "coordinate", "adversarial", "isotropic"]
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_opposite_functionals_score_bit_identically(dim, kind, seed):
    for point in map(_coords, _separation_pair(dim, kind, seed)):
        for f in projective._GRID:
            a, b, c = f.coefficients()
            length = ref_functional_length(point, a, b, c)
            assert ref_functional_length(point, -a, -b, -c).hex() == length.hex()


def _adversarial_point(dim, family, eps, rng):
    """(alpha u, beta u, gamma u) for a random unit u, with (alpha, beta,
    gamma) a grid direction (an axis among them), on a plane a = b or
    a + b + c = 0, or ``eps`` off one of those, in random order and signs.

    A grid functional v scores |v . (alpha, beta, gamma)| on it, so it
    vanishes on (or nearly on) every direction in one plane: up to 4 of
    the 13.  The "random" family is a point of ``random_triple_point``."""
    if family == "random":
        return random_triple_point(dim, rng)
    if family == "grid":
        coeffs = list(rng.choice(projective._GRID).coefficients())
    else:
        s, t = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        coeffs = [s, s, t] if family == "a = b" else [s, t, -s - t]
    rng.shuffle(coeffs)
    coeffs = [rng.choice((1.0, -1.0)) * k + eps * rng.gauss(0.0, 1.0) for k in coeffs]
    norm = math.sqrt(sum(k * k for k in coeffs))
    u = random_unit(level_for_dim(dim), rng)
    return TriplePoint(*(u * (k / norm) for k in coeffs))


@pytest.mark.parametrize("dim", DIMS)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    families=st.tuples(*[st.sampled_from(["grid", "a = b", "a + b + c = 0", "random"])] * 2),
    eps=st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-6, 1e-5, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_separating_functional_on_adversarial_points(dim, families, eps, seed):
    # the threshold is the real one: the lemma says the grid always separates
    rng = random.Random(seed)
    p, q = (_adversarial_point(dim, family, eps, rng) for family in families)
    _assert_scalar_grid_pick(p, q)


def test_separating_functional_rejects_mixed_levels():
    with pytest.raises(LevelMismatchError):
        separating_functional(real_triple(1, 0, 0, level=3), real_triple(1, 0, 0, level=2))


def test_separating_functional_needs_a_score_above_the_threshold(monkeypatch):
    # the best grid score on two coordinate axes is exactly 1
    monkeypatch.setattr(projective, "SEPARATION_THRESHOLD", 1.0)
    assert ref_separating_grid(((1.0,), (0.0,), (0.0,)), ((0.0,), (1.0,), (0.0,)))[1] == 1.0
    with pytest.raises(projective.SeparationError):
        separating_functional(real_triple(1, 0, 0, level=0), real_triple(0, 1, 0, level=0))


def test_separating_functional_raises_when_nothing_separates(monkeypatch):
    monkeypatch.setattr(projective, "SEPARATION_THRESHOLD", math.inf)
    rng = random.Random(5)
    with pytest.raises(projective.SeparationError):
        separating_functional(random_triple_point(8, rng), random_triple_point(8, rng))


# -- line, sphere, cells -------------------------------------------------------------


def test_line_include_examples():
    p = line_include(LinePoint(CDNumber.one(3), CDNumber.zero(3)))
    assert p.z.is_zero()
    assert equivalent(p, real_triple(1, 0, 0))


@pytest.mark.parametrize("same", [equivalent, line_equivalent], ids=["equivalent", "line"])
def test_line_include_preserves_equivalence(same):
    rng = random.Random(11)
    for _ in range(40):
        lp = random_line_point(8, rng)
        lq = equivalent_representative(lp, rng)
        assert same(lp, lq)
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


@pytest.mark.parametrize("same", [equivalent, line_equivalent], ids=["equivalent", "line"])
def test_attaching_map_fibers(same):
    rng = random.Random(12)
    for _ in range(40):
        lp = random_line_point(8, rng)
        lq = equivalent_representative(lp, rng)
        assert same(attaching_map(lp.x, lp.y), attaching_map(lq.x, lq.y))
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
            lq = equivalent_representative(lp, rng)
            assert float(np.max(np.abs(line_to_sphere(lp) - line_to_sphere(lq)))) < TOL


def test_sphere_to_line_poles():
    north = sphere_to_line(np.array([0.0, 0.0, 1.0]))
    assert (north.x - CDNumber.one(1)).max_abs() < TOL and north.y.max_abs() < TOL
    south = sphere_to_line(np.array([0.0, 0.0, -1.0]))
    assert south.x.max_abs() < TOL and (south.y - CDNumber.one(1)).max_abs() < TOL


def test_sphere_to_line_equator_takes_y_real():
    # at t = 0 neither 1 - t nor 1 + t is larger; y is the real entry
    point = sphere_to_line(np.array([0.0, 1.0, 0.0]))
    assert point.y.coords[1] == 0.0 and point.x.coords[0] == 0.0
    half = math.sqrt(0.5)
    assert line_equivalent(point, LinePoint(basis_element(1, 1) * half, ONE_1 * half))


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
    # the collapsed band is closed: a slack of exactly DEFAULT_TOL gives z = 0
    x, y = CDNumber.from_scalar(1 - 2**-30, 3), CDNumber.from_scalar(2.9370821391833034e-05, 3)
    assert 1.0 - x.norm_sq() - y.norm_sq() == projective.DEFAULT_TOL
    assert disk_extension(x, y).z.is_zero()


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


def test_random_triple_point_anchor_coefficient_is_uniform_in_size(monkeypatch):
    functionals = []

    def recording(f, u, v):
        functionals.append(f)
        return chart_backward(f, u, v)

    monkeypatch.setattr(projective, "chart_backward", recording)
    rng = random.Random(23)
    for _ in range(400):
        random_triple_point(1, rng)
    sizes = [abs(f.coefficients()[f.anchor()]) for f in functionals]
    assert all(0.5 <= s <= 2.0 for s in sizes)
    assert all(sum(c != 0.0 for c in f.coefficients()) == 1 for f in functionals)
    # uniform on [0.5, 2.0], so about half the sizes lie above the middle,
    # 1.25; its reciprocal, on the same range, would put a fifth there
    assert 0.4 < sum(s > 1.25 for s in sizes) / len(sizes) < 0.6


@pytest.mark.parametrize(
    "entries, products",
    [((1,), 0), ((1, 2), 1), ((1, 2, 4), 3)],
    ids=["single", "pair", "triple"],
)
def test_random_unit_in_subalgebra_spans_every_pair_product(entries, products):
    # e1, e2 and e4 and their pair products e1e2, e1e4 and e2e4 lie on distinct
    # octonion axes, so units drawn from the span of 1, the entries and their
    # pair products fill all of them
    elements = [basis_element(3, i) for i in entries]
    rng = random.Random(29)
    units = [projective.random_unit_in_subalgebra(elements, rng).coords for _ in range(20)]
    assert np.linalg.matrix_rank(np.array(units)) == 1 + len(entries) + products
