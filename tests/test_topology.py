import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octoplane import topology
from octoplane.algebra import CDNumber
from octoplane.projective import random_unit, sphere_to_line
from octoplane.topology import (
    INTEGERS,
    RATIONALS,
    AbelianGroup,
    CoefficientSpec,
    CWDescription,
    InconsistencyError,
    builtin_cw,
    cohomology,
    cohomology_profile,
    fiber_circle,
    gauss_linking_number,
    homology,
    invariant_factors,
    left_mult_matrix,
    linking_hopf_invariant,
    multiplication_bidegree,
    right_mult_matrix,
    ring_consistency_op3,
    smith_normal_form,
)

from oracles import exact_det, int_mat_mul, invariant_factors_by_minors, known_snf, rank_p

Z2 = CoefficientSpec.parse("Zmod:2")
Z3 = CoefficientSpec.parse("Zmod:3")


def snf_is_valid(matrix):
    s, u, v = smith_normal_form(matrix)
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    assert int_mat_mul(int_mat_mul(u, [list(r) for r in matrix]), v) == s
    assert abs(exact_det(u)) == 1
    assert abs(exact_det(v)) == 1
    diag = [s[i][i] for i in range(min(m, n))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if b:
            assert a != 0 and b % a == 0
    assert all(s[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    return diag


# -- smith normal form ---------------------------------------------------------


def test_snf_zero_matrix():
    diag = snf_is_valid([[0, 0], [0, 0], [0, 0]])
    assert diag == [0, 0]


def test_snf_single_entry():
    assert snf_is_valid([[2]]) == [2]
    assert snf_is_valid([[-7]]) == [7]


def test_snf_frozen_example():
    assert snf_is_valid([[2, 4], [6, 8]]) == [2, 4]


def test_snf_random_properties():
    rng = random.Random(0)
    for _ in range(300):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        matrix = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        snf_is_valid(matrix)


def test_snf_against_minor_gcd_oracle():
    rng = random.Random(1)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        matrix = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        diag = [d for d in snf_is_valid(matrix) if d]
        assert diag == invariant_factors_by_minors(matrix)


@pytest.mark.parametrize("rows, cols, rank", [(12, 12, 12), (16, 18, 14), (20, 20, 20)])
def test_snf_at_benchmark_sizes(rows, cols, rank):
    a, diag = known_snf(rows, cols, rank, random.Random(rows * cols))
    s, u, v = smith_normal_form(a)
    assert s == [[diag[i] if i == j < rank else 0 for j in range(cols)] for i in range(rows)]
    assert int_mat_mul(int_mat_mul(u, a), v) == s
    assert abs(exact_det(u)) == 1 and abs(exact_det(v)) == 1
    assert list(invariant_factors(a)) == diag


def test_snf_all_negative_entries():
    # -(L D R) with L, R triangles of ones has entry -(d_0 + ... + d_min(i,j)):
    # every entry is negative, so the first pivot of every column is too
    d = [1, 2, 6, 6, 12, 0, 0]
    a = [[-sum(d[: min(i, j) + 1]) for j in range(7)] for i in range(9)]
    assert snf_is_valid(a) == d
    assert invariant_factors(a) == (1, 2, 6, 6, 12)


@st.composite
def small_int_matrices(draw):
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    entry = st.integers(-20, 20)
    return [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_int_matrices())
def test_invariant_factors_match_snf_diagonal_and_minor_gcds(matrix):
    s = smith_normal_form(matrix).s
    diagonal = [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0)) if s[i][i]]
    assert list(invariant_factors(matrix)) == diagonal == invariant_factors_by_minors(matrix)


def test_invariant_factors():
    assert invariant_factors([[2, 4], [6, 8]]) == (2, 4)
    assert invariant_factors([[0]]) == ()


def test_mat_mul_matches_oracle_on_unit_entries():
    rng = random.Random(2)
    for _ in range(100):
        m, k, n = (rng.randint(1, 4) for _ in range(3))
        a = [[rng.choice((-1, 0, 1)) for _ in range(k)] for _ in range(m)]
        b = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(k)]
        assert topology.mat_mul(a, b) == int_mat_mul(a, b)


def test_snf_rejects_non_integers():
    with pytest.raises(ValueError):
        smith_normal_form([[1.5]])


@pytest.mark.parametrize("entry", [float("inf"), -float("inf")])
def test_infinite_entries_are_rejected_as_non_integers(entry):
    # int() of an infinity raises OverflowError; both entry points say ValueError
    with pytest.raises(ValueError, match="is not an integer"):
        smith_normal_form([[entry]])
    with pytest.raises(ValueError, match="is not an integer"):
        CWDescription([("v", 0), ("a", 1)], {1: [[entry]]})


@pytest.mark.parametrize("entry", [float("nan"), "x"])
def test_unconvertible_entries_are_rejected_as_non_integers(entry):
    # int() of a NaN or of a non-numeric string raises its own ValueError
    for entry_point in (smith_normal_form, invariant_factors):
        with pytest.raises(ValueError, match=r"matrix entry .* is not an integer"):
            entry_point([[entry]])
    with pytest.raises(ValueError, match=r"matrix entry .* is not an integer"):
        CWDescription([("v", 0), ("a", 1)], {1: [[entry]]})


# -- abelian groups --------------------------------------------------------------


def test_group_normalization():
    assert AbelianGroup.from_parts(0, [2, 3]) == AbelianGroup(0, (6,))
    assert AbelianGroup.from_parts(0, [2, 2]) == AbelianGroup(0, (2, 2))
    assert AbelianGroup.from_parts(0, [4, 6]) == AbelianGroup(0, (2, 12))
    assert AbelianGroup.from_parts(1, [1, 1]) == AbelianGroup(1)


def test_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 4))  # 3 does not divide 4
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))


def test_group_str_and_json():
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(1)) == "Z"
    assert str(AbelianGroup(2, (2, 6))) == "Z^2 + Z/2 + Z/6"
    assert AbelianGroup(1, (2,)).to_json() == {"rank": 1, "torsion": [2]}


def test_coefficient_spec():
    assert CoefficientSpec.parse("Z") == INTEGERS
    assert CoefficientSpec.parse("Q") == RATIONALS
    assert CoefficientSpec.parse("Zmod:6").modulus == 6
    assert [str(c) for c in (INTEGERS, RATIONALS, CoefficientSpec.parse("Zmod:6"))] == ["Z", "Q", "Z/6"]
    with pytest.raises(ValueError):
        CoefficientSpec.parse("Zmod:1")
    with pytest.raises(ValueError):
        CoefficientSpec.parse("F2")
    # a modulus that is not a number gets the parser's message, not int()'s
    for text in ("Zmod:x", "Zmod:"):
        with pytest.raises(ValueError, match=rf"^cannot parse coefficients '{text}'; use Z, Q or Zmod:m$"):
            CoefficientSpec.parse(text)


# -- CW descriptions ----------------------------------------------------------------


def test_cw_validates_boundary_shapes():
    with pytest.raises(ValueError):
        CWDescription([("v", 0), ("f", 2)], {2: [[2], [3]]})


def test_cw_validates_dd_zero():
    # two 1-cells a,b and one 2-cell with boundary a+b, d1 nonzero composite
    with pytest.raises(ValueError):
        CWDescription(
            [("v", 0), ("w", 0), ("a", 1), ("f", 2)],
            {1: [[1], [-1]], 2: [[1]]},
        )


def test_cw_rejects_a_composite_made_of_plus_ones():
    # d1 d2 = [[1]] with every factor entry +1
    with pytest.raises(ValueError):
        CWDescription([("v", 0), ("a", 1), ("f", 2)], {1: [[1]], 2: [[1]]})


def test_cw_torus_is_accepted():
    torus = CWDescription(
        [("v", 0), ("a", 1), ("b", 1), ("f", 2)],
        {1: [[0, 0]], 2: [[0], [0]]},
    )
    assert str(homology(torus, 1)) == "Z^2"


def test_builtin_names():
    assert builtin_cw("OP2").cell_count(16) == 1
    assert builtin_cw("OP1/S8").max_dim == 8
    assert builtin_cw("hypothetical-OP3").cell_count(24) == 1
    with pytest.raises(KeyError):
        builtin_cw("OP4")


# -- homology and cohomology -----------------------------------------------------------


def test_homology_op2():
    op2 = builtin_cw("OP2")
    for k in range(-1, 18):
        expected = AbelianGroup(1) if k in (0, 8, 16) else AbelianGroup(0)
        assert homology(op2, k) == expected


def test_homology_rp2():
    rp2 = builtin_cw("RP2")
    assert [str(homology(rp2, k)) for k in range(3)] == ["Z", "Z/2", "0"]


def test_homology_sphere():
    s8 = builtin_cw("OP1/S8")
    assert [str(homology(s8, k)) for k in (0, 8, 4)] == ["Z", "Z", "0"]


def test_cohomology_op2_all_coefficient_families():
    op2 = builtin_cw("OP2")
    cases = {
        INTEGERS: AbelianGroup(1),
        Z2: AbelianGroup(0, (2,)),
        Z3: AbelianGroup(0, (3,)),
        RATIONALS: AbelianGroup(1),
    }
    for coeffs, unit in cases.items():
        for k in range(17):
            expected = unit if k in (0, 8, 16) else AbelianGroup(0)
            assert cohomology(op2, k, coeffs) == expected, (coeffs, k)


def test_cohomology_rp2():
    rp2 = builtin_cw("RP2")
    assert [str(cohomology(rp2, k)) for k in range(3)] == ["Z", "0", "Z/2"]
    assert [str(cohomology(rp2, k, Z2)) for k in range(3)] == ["Z/2", "Z/2", "Z/2"]
    assert [str(cohomology(rp2, k, Z3)) for k in range(3)] == ["Z/3", "0", "0"]
    assert [cohomology(rp2, k, RATIONALS).rank for k in range(3)] == [1, 0, 0]


def test_cohomology_cp2_hp2():
    cp2 = builtin_cw("CP2")
    assert [str(cohomology(cp2, k)) for k in range(5)] == ["Z", "0", "Z", "0", "Z"]
    hp2 = builtin_cw("HP2")
    assert [cohomology(hp2, k).rank for k in (0, 4, 8)] == [1, 1, 1]
    assert all(cohomology(hp2, k).is_trivial for k in (1, 2, 3, 5, 6, 7))


def test_cohomology_moore_space():
    # one 0-cell, one 1-cell, one 2-cell attached with degree 6
    moore = CWDescription([("v", 0), ("a", 1), ("f", 2)], {1: [[0]], 2: [[6]]})
    assert str(homology(moore, 1)) == "Z/6"
    assert str(cohomology(moore, 2)) == "Z/6"
    assert str(cohomology(moore, 1, Z2)) == "Z/2"
    assert str(cohomology(moore, 2, Z3)) == "Z/3"
    assert cohomology(moore, 2, RATIONALS).is_trivial


def test_cohomology_agrees_with_universal_coefficients_from_homology():
    # independent route: H^k(X; Z) = Z^rank(H_k) + torsion(H_(k-1))
    spaces = [builtin_cw(n) for n in ("RP2", "CP2", "OP2", "OP1/S8")]
    spaces.append(
        CWDescription([("v", 0), ("a", 1), ("f", 2)], {1: [[0]], 2: [[6]]})
    )
    for cw in spaces:
        for k in range(cw.max_dim + 1):
            hk = homology(cw, k)
            hk1 = homology(cw, k - 1) if k > 0 else AbelianGroup(0)
            expected = AbelianGroup.from_parts(hk.rank, hk1.torsion)
            assert cohomology(cw, k, INTEGERS) == expected, (cw, k)


def test_huge_prime_torsion_is_read_without_factoring():
    # 2^61 - 1 is prime: trial division up to its square root would not return
    p = 2**61 - 1
    cw = CWDescription([("v", 0), ("a", 1), ("f", 2)], {1: [[0]], 2: [[p]]})
    assert homology(cw, 1) == AbelianGroup(0, (p,))
    assert cohomology(cw, 2, INTEGERS) == AbelianGroup(0, (p,))
    assert cohomology(cw, 2, RATIONALS) == AbelianGroup(0)
    assert cohomology(cw, 1, CoefficientSpec("Zmod", p)) == AbelianGroup(0, (p,))
    assert AbelianGroup.from_parts(0, [p, 2 * p, 3]) == AbelianGroup(0, (p, 6 * p))


def _unimodular_pair(n, rng):
    """A random unimodular matrix G and its inverse, from 3n transvections."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    g_inv = [row[:] for row in g]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]  # G <- E G, E = I + c e_ij
        for row in g_inv:  # G^-1 <- G^-1 E^-1
            row[j] -= c * row[i]
    return g, g_inv


def _seeded_chain_complex(rng, top=3):
    """Boundaries G_(k-1) D_k G_k^-1 of at most 5 x 5, where D_k sends the
    i-th cell of E_k to d_i times the i-th cell of B_(k-1) and kills
    B_k and the free cells, so boundary_k boundary_(k+1) = 0 by construction."""
    extra = [0] + [rng.randint(0, 2) for _ in range(top)]
    sizes = [
        (extra[k + 1] if k < top else 0) + rng.randint(0, 1) + extra[k] for k in range(top + 1)
    ]
    pairs = [_unimodular_pair(n, rng) for n in sizes]
    boundaries = {}
    for k in range(1, top + 1):
        d = [[0] * sizes[k] for _ in range(sizes[k - 1])]
        first_e = sizes[k] - extra[k]
        for i in range(extra[k]):
            d[i][first_e + i] = rng.choice((1, 2, 3, 4, 6, 9))
        d = int_mat_mul(int_mat_mul(pairs[k - 1][0], d), pairs[k][1])
        if d:  # a map out of an empty degree stays implicit
            boundaries[k] = d
    cells = [(f"c{k}_{i}", k) for k in range(top + 1) for i in range(sizes[k])]
    return CWDescription(cells, boundaries)


def _coboundary(cw, k):
    """delta_k : C^k -> C^(k+1), the transpose of boundary_(k+1), as n_(k+1) x n_k."""
    d = cw.boundary(k + 1)
    return [[d[i][j] for i in range(len(d))] for j in range(cw.cell_count(k + 1))]


def test_cohomology_matches_coboundary_oracles():
    rng = random.Random(6)
    for _ in range(40):
        cw = _seeded_chain_complex(rng)
        for k in range(cw.max_dim + 1):
            n_k = cw.cell_count(k)
            out_of, into = _coboundary(cw, k), _coboundary(cw, k - 1)
            rank_out = len(invariant_factors_by_minors(out_of))
            image = invariant_factors_by_minors(into)
            expected = AbelianGroup(n_k - rank_out - len(image), tuple(f for f in image if f > 1))
            assert cohomology(cw, k, INTEGERS) == expected, (cw, k)
            assert cohomology(cw, k, RATIONALS) == AbelianGroup(expected.rank), (cw, k)
            for p, coeffs in ((2, Z2), (3, Z3)):
                dim = n_k - rank_p(out_of, p) - rank_p(into, p)
                assert cohomology(cw, k, coeffs) == AbelianGroup(0, (p,) * dim), (cw, k, p)


def test_profile_factors_each_boundary_once(monkeypatch):
    complexes = [builtin_cw(name) for name in ("RP2", "OP2", "hypothetical-OP3")]
    rng = random.Random(11)
    complexes += [_seeded_chain_complex(rng) for _ in range(10)]
    read = []  # the degree of each boundary read, and so factored
    boundary = CWDescription.boundary

    def logged(cw, d):
        read.append(d)
        return boundary(cw, d)

    # patched after construction, which reads every boundary to check dd = 0
    monkeypatch.setattr(CWDescription, "boundary", logged)
    for cw in complexes:
        for coeffs in (INTEGERS, RATIONALS, CoefficientSpec.parse("Zmod:6")):
            read.clear()
            profile = cohomology_profile(cw, coeffs)
            assert len(read) == len(set(read)), (cw, coeffs, read)
            for k, group in enumerate(profile):
                read.clear()
                assert cohomology(cw, k, coeffs) == group
                assert set(read) <= {k, k + 1}


def test_boundaries_with_an_empty_side_are_left_out():
    # boundary_d with no d-cells or no (d-1)-cells is zero, so it is not factored
    torus = CWDescription([("v", 0), ("a", 1), ("b", 1), ("f", 2)], {1: [[0, 0]], 2: [[0], [0]]})
    assert topology._boundary_factors(torus, range(-1, 5)) == {1: (), 2: ()}
    assert topology._boundary_factors(builtin_cw("OP2"), range(18)) == {}


def test_cohomology_profile_shape():
    profile = cohomology_profile(builtin_cw("OP2"))
    assert len(profile) == 17
    assert profile[8] == AbelianGroup(1)


# -- hopf proxies ------------------------------------------------------------------------


def test_left_mult_identity():
    assert np.allclose(left_mult_matrix(CDNumber.one(3)), np.eye(8))
    assert np.allclose(right_mult_matrix(CDNumber.one(2)), np.eye(4))


def test_mult_operators_are_isometries():
    rng = random.Random(2)
    for level in (1, 2, 3):
        b = random_unit(level, rng)
        for mat in (left_mult_matrix(b), right_mult_matrix(b)):
            gram = mat.T @ mat
            assert np.allclose(gram, np.eye(1 << level), atol=1e-12)


def test_bidegree_all_levels():
    for level in (1, 2, 3):
        assert multiplication_bidegree(level, 300, seed=level) == (1, 1)


def test_bidegree_refuses_a_determinant_off_unit(monkeypatch):
    monkeypatch.setattr(topology, "random_unit", lambda level, rng: random_unit(level, rng) * 2.0)
    with pytest.raises(InconsistencyError, match="off unit"):
        multiplication_bidegree(1, 1)


def test_bidegree_rejects_bad_arguments():
    with pytest.raises(ValueError):
        multiplication_bidegree(4, 10)
    with pytest.raises(ValueError):
        multiplication_bidegree(2, 0)


def test_gauss_linking_reference_configurations():
    th = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    circle_xy = np.stack([np.cos(th), np.sin(th), 0.0 * th], axis=1)
    far_circle = circle_xy + np.array([5.0, 0.0, 0.0])
    assert abs(gauss_linking_number(circle_xy, far_circle)) < 1e-3
    threaded = np.stack([1.0 + np.cos(th), 0.0 * th, np.sin(th)], axis=1)
    linked = gauss_linking_number(circle_xy, threaded)
    assert abs(abs(linked) - 1.0) < 1e-2


def test_fiber_circle_lies_on_three_sphere():
    rng = np.random.default_rng(3)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    circle = fiber_circle(sphere_to_line(v), 64)
    assert np.allclose(np.linalg.norm(circle, axis=1), 1.0, atol=1e-12)


def test_fiber_circle_matches_scalar_products():
    rng = np.random.default_rng(11)
    for segments in (64, 100, 256):
        v = rng.normal(size=3)
        point = sphere_to_line(v / np.linalg.norm(v))
        theta = 2.0 * np.pi * np.arange(segments) / segments
        units = [CDNumber(1, u) for u in zip(np.cos(theta).tolist(), np.sin(theta).tolist())]
        expected = [(*(point.x * u).coords, *(point.y * u).coords) for u in units]
        assert np.array_equal(fiber_circle(point, segments), np.array(expected))


def test_projection_frame_rotates_the_pole_to_the_last_axis():
    rng = np.random.default_rng(12)
    poles = list(np.vstack([np.eye(4), -np.eye(4)]))
    poles.extend(r / np.linalg.norm(r) for r in rng.normal(size=(20, 4)))
    for pole in poles:
        frame = topology._projection_frame(pole)
        assert np.allclose(frame @ frame.T, np.eye(4), atol=1e-12)
        assert abs(np.linalg.det(frame) - 1.0) < 1e-12
        assert np.allclose(frame @ pole, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_linking_pole_is_far_from_both_fiber_circles(monkeypatch):
    circles, distances = [], []
    project = topology._projection_frame

    def recording_circle(point, segments):
        circles.append(fiber_circle(point, segments))
        return circles[-1]

    def recording_frame(pole):
        distances.extend(np.linalg.norm(c - pole, axis=1).min() for c in circles[-2:])
        return project(pole)

    monkeypatch.setattr(topology, "fiber_circle", recording_circle)
    monkeypatch.setattr(topology, "_projection_frame", recording_frame)
    for seed in range(50):
        assert linking_hopf_invariant(samples=10, segments=64, seed=seed) == 1
    assert len(distances) == 50 * 10 * 2
    # the pole's base point is at least pi/2 + 0.05 from both regular values
    assert min(distances) >= 2.0 * math.sin(math.pi / 8 + 0.0125) - 1e-9


def test_linking_hopf_invariant_stable():
    values = {
        segments: linking_hopf_invariant(samples=10, segments=segments, seed=4)
        for segments in (128, 256, 512)
    }
    assert len(set(values.values())) == 1
    assert abs(values[128]) == 1


def test_linking_magnitude_matches_bidegree_product():
    left, right = multiplication_bidegree(1, 100)
    linked = linking_hopf_invariant(samples=3, segments=128, seed=8)
    assert abs(linked) == abs(left * right)


def test_linking_hopf_invariant_seed_stable():
    assert linking_hopf_invariant(5, 128, seed=0) == linking_hopf_invariant(
        5, 128, seed=99
    )


def test_linking_rejects_small_segment_count():
    with pytest.raises(ValueError):
        linking_hopf_invariant(2, 32)


def test_ring_consistency_report():
    report = ring_consistency_op3()
    for needle in ("H^0 = Z", "H^8 = Z", "H^16 = Z", "H^24 = Z", "Steenrod", "degree 2 or 4"):
        assert needle in report
