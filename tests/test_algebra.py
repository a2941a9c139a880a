import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from octoplane.algebra import (
    CDNumber,
    LevelMismatchError,
    TableSizeError,
    ZeroDivisorWarning,
    basis_element,
    build_table,
    cd_from_json,
    cd_to_json,
    embed,
    inner_product,
    _GATHER_BLOCK,
    _Batch,
    _max_abs,
    left_mult_matrix,
    right_mult_matrix,
    scalar_to_json,
)

from oracles import ref_conj, ref_mul, ref_mul_ordered


def e(level, index):
    return basis_element(level, index)


def random_exact(level, rng):
    return CDNumber(level, tuple(rng.randint(-9, 9) for _ in range(1 << level)))


# -- multiplication ---------------------------------------------------------


def test_complex_i_squared():
    assert e(1, 1) * e(1, 1) == CDNumber(1, (-1, 0))


def test_quaternion_products():
    i, j, k = e(2, 1), e(2, 2), e(2, 3)
    assert i * j == k
    assert j * i == -k
    assert i * i == -e(2, 0)


def test_octonion_products_and_nonassociativity():
    assert e(3, 1) * e(3, 4) == e(3, 5)
    assert (e(3, 1) * e(3, 2)) * e(3, 4) == e(3, 7)
    assert e(3, 1) * (e(3, 2) * e(3, 4)) == -e(3, 7)


def test_unit_law_exhaustive_and_random():
    rng = random.Random(0)
    for level in range(5):
        one = CDNumber.one(level)
        for idx in range(1 << level):
            b = e(level, idx)
            assert one * b == b
            assert b * one == b
        for _ in range(20):
            x = random_exact(level, rng)
            assert one * x == x
            assert x * one == x


def test_core_identities_thousand_samples_per_level():
    # unit law, bilinearity, (xy)* = y*x*, and x x* = |x|^2, all exact
    rng = random.Random(99)
    for level in range(5):
        one = CDNumber.one(level)
        for _ in range(1000):
            x = random_exact(level, rng)
            y = random_exact(level, rng)
            assert one * x == x and x * one == x
            a = rng.randint(-5, 5)
            assert (x * a) * y == (x * y) * a
            assert x * (y * a) == (x * y) * a
            assert (x * y).conj() == y.conj() * x.conj()
            ns = CDNumber.from_scalar(x.norm_sq(), level)
            assert x * x.conj() == ns and x.conj() * x == ns


def test_mul_matches_doubling_recursion_on_basis():
    for level in range(5):
        dim = 1 << level
        for i in range(dim):
            for j in range(dim):
                got = (e(level, i) * e(level, j)).coords
                assert got == ref_mul(e(level, i).coords, e(level, j).coords)


def test_mul_matches_doubling_recursion_random():
    rng = random.Random(1)
    for level in range(7):
        for _ in range(60):
            x = random_exact(level, rng)
            y = random_exact(level, rng)
            assert (x * y).coords == ref_mul(x.coords, y.coords)


# Coordinate families for the rounding test.  "zeros" draws int, float and
# Fraction zeros, whose terms are made like any other (a Fraction times 0.0
# is a float, inf times 0.0 is NaN); subnormal products underflow to signed
# zeros and +/-1e200 products overflow to inf, whose sums give NaN.
COORDINATE_FAMILIES = {
    "gauss": lambda rng: rng.gauss(0.0, 1.0),
    "subnormal": lambda rng: rng.uniform(-1.0, 1.0) * 1e-310,
    "huge": lambda rng: rng.choice((1e200, -1e200)) * rng.uniform(0.5, 2.0),
    "inf-nan": lambda rng: rng.choice((math.inf, -math.inf, math.nan, rng.gauss(0.0, 1.0))),
    "zeros": lambda rng: rng.choice((0, 0.0, -0.0, Fraction(0), rng.gauss(0.0, 1.0), 3)),
    "int-float": lambda rng: rng.choice((rng.randint(1, 9), -rng.randint(1, 9), rng.gauss(0.0, 1.0))),
    "int": lambda rng: rng.choice((1, -1)) * rng.randint(1, 9),
    "fraction": lambda rng: Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9)),
}


def _check_product_rounding(level, seed, x_family, y_family):
    rng = random.Random(seed)
    dim = 1 << level
    x = tuple(COORDINATE_FAMILIES[x_family](rng) for _ in range(dim))
    y = tuple(COORDINATE_FAMILIES[y_family](rng) for _ in range(dim))
    got = (CDNumber(level, x) * CDNumber(level, y)).coords
    expected = ref_mul_ordered(x, y)
    assert [(type(c), repr(c)) for c in got] == [(type(c), repr(c)) for c in expected]


_ROUNDING_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    x_family=st.sampled_from(sorted(COORDINATE_FAMILIES)),
    y_family=st.sampled_from(sorted(COORDINATE_FAMILIES)),
)


# a smaller seed is not a simpler case, so a failure is reported unshrunk
@pytest.mark.parametrize("level", range(4))
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(**_ROUNDING_CASES)
def test_product_rounds_as_the_ordered_oracle(level, seed, x_family, y_family):
    _check_product_rounding(level, seed, x_family, y_family)


@pytest.mark.parametrize("level", range(4, 7))
@settings(
    max_examples=4,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(**_ROUNDING_CASES)
def test_product_rounds_as_the_ordered_oracle_at_levels_4_to_6(level, seed, x_family, y_family):
    _check_product_rounding(level, seed, x_family, y_family)


_SCALING_CASES = dict(
    level=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    x_family=st.sampled_from(sorted(COORDINATE_FAMILIES)),
    s_family=st.sampled_from(sorted(COORDINATE_FAMILIES)),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(**_SCALING_CASES)
def test_scaling_commutes_bit_for_bit(level, seed, x_family, s_family):
    # __rmul__ is __mul__, so s * x must give what x * s gives, coordinate by
    # coordinate; False * x is refused (tests/test_arguments.py)
    rng = random.Random(seed)
    x = CDNumber(level, tuple(COORDINATE_FAMILIES[x_family](rng) for _ in range(1 << level)))
    s = COORDINATE_FAMILIES[s_family](rng)
    left, right = (s * x).coords, (x * s).coords
    assert [(type(c), repr(c)) for c in left] == [(type(c), repr(c)) for c in right]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(**_SCALING_CASES)
def test_division_by_a_scalar_divides_each_coordinate(level, seed, x_family, s_family):
    # exactly, through one Fraction reciprocal, when both sides are exact; else one
    # rounding per coordinate, a / s, never a times a rounded 1 / s
    rng = random.Random(seed)
    coords = tuple(COORDINATE_FAMILIES[x_family](rng) for _ in range(1 << level))
    s = COORDINATE_FAMILIES[s_family](rng)
    assume(s != 0)
    exact = all(type(c) in (int, Fraction) for c in coords + (s,))
    expected = [Fraction(a) / s if exact else a / s for a in coords]
    got = (CDNumber(level, coords) / s).coords
    assert [(type(c), repr(c)) for c in got] == [(type(c), repr(c)) for c in expected]


def test_products_above_the_table_cap():
    """Level 7 runs the loop, not a compiled kernel; the embedding is an algebra map."""
    rng = random.Random(7)
    x, y = random_exact(6, rng), random_exact(6, rng)
    assert embed(x * y, 7) == embed(x, 7) * embed(y, 7)
    u, v = random_exact(7, rng), random_exact(7, rng)
    assert (u * v).coords == ref_mul(u.coords, v.coords)


def test_bilinearity():
    rng = random.Random(2)
    for level in (2, 3, 4):
        x, y, z = (random_exact(level, rng) for _ in range(3))
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        assert (x * a + y * b) * z == (x * z) * a + (y * z) * b
        assert z * (x * a + y * b) == (z * x) * a + (z * y) * b


def test_level_mismatch_raises():
    with pytest.raises(LevelMismatchError):
        e(2, 1) * e(3, 1)
    with pytest.raises(LevelMismatchError):
        e(2, 1) + e(3, 1)


# -- batched products ---------------------------------------------------------


def _batch_rows(level, rng, count, scale, sparse):
    """``count`` integer rows; a sparse batch uses only a few columns in every row."""
    dim = 1 << level
    columns = rng.sample(range(dim), rng.randint(0, min(dim, 3))) if sparse else range(dim)
    rows = []
    for _ in range(count):
        row = [0] * dim
        for k in columns:
            row[k] = rng.randint(-9, 9) * scale
        rows.append(row)
    return rows


def _as_batch(level, rows):
    """A ``_Batch`` of ``rows`` bounded by their largest entry: int64 rows
    when every entry fits, else object rows of Python ints."""
    fits = all(-(2**63) <= v < 2**63 for row in rows for v in row)
    array = np.array(rows, dtype=np.int64 if fits else object).reshape(len(rows), 1 << level)
    return _Batch(level, array, _max_abs(array))


def _batch_product(level, xs, ys):
    return (_as_batch(level, xs) * _as_batch(level, ys)).rows


def _assert_batch_matches_oracle(level, xs, ys):
    out = _batch_product(level, xs, ys)
    assert out.shape == (len(xs), 1 << level)
    assert out.tolist() == [list(ref_mul(tuple(x), tuple(y))) for x, y in zip(xs, ys)]


# a smaller seed is not a simpler case, so a failure is reported unshrunk
@pytest.mark.parametrize("level", range(7))
@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 5),
    scale=st.sampled_from((1, 2**20, 2**40)),
    sparse=st.booleans(),
)
def test_mul_batch_matches_doubling_recursion(level, seed, count, scale, sparse):
    rng = random.Random(seed)
    xs = _batch_rows(level, rng, count, scale, sparse)
    ys = _batch_rows(level, rng, count, scale, rng.random() < 0.5)
    _assert_batch_matches_oracle(level, xs, ys)


def test_mul_batch_empty_and_object_path():
    for level in range(7):
        dim = 1 << level
        empty = _Batch(level, np.zeros((0, dim), dtype=np.int64), 0)
        assert (empty * empty).rows.shape == (0, dim)
    # near 2^40 the sums leave int64, so only the object path is exact
    rng = random.Random(5)
    xs = [[rng.randint(2**40 - 9, 2**40 + 9) for _ in range(16)] for _ in range(4)]
    ys = [[-v for v in row] for row in xs]
    assert _batch_product(4, xs, ys).dtype == object
    _assert_batch_matches_oracle(4, xs, ys)
    # Python ints past int64 arrive as an object array
    huge = [[2**70 + k for k in range(8)]]
    _assert_batch_matches_oracle(3, huge, huge)


def test_mul_batch_row_blocks_match_row_by_row_products():
    # a dense level-6 row gathers 64 * 64 entries, so both batches run in
    # several row blocks; the blocks must change no coordinate
    per_block = _GATHER_BLOCK // 64**2
    rng = random.Random(11)
    small = [[rng.randint(-9, 9) for _ in range(64)] for _ in range(3 * per_block + 5)]
    large = [[rng.randint(-9, 9) * 2**40 for _ in range(64)] for _ in range(2 * per_block + 1)]
    for rows, dtype in ((small, np.int64), (large, object)):  # large leaves int64 past 2^62
        xs, ys = rows, rows[::-1]
        out = _batch_product(6, xs, ys)
        assert out.dtype == dtype
        expected = [list((CDNumber(6, x) * CDNumber(6, y)).coords) for x, y in zip(xs, ys)]
        assert out.tolist() == expected


@pytest.mark.parametrize(
    "xs, ys",
    [
        ([[2**63, -1]], [[1, 0]]),
        ([[2**63, 0]], [[1, 0]]),
        ([[2**64 - 1, 5], [-3, 2**63]], [[2, 3], [2**63 + 1, -7]]),
    ],
    ids=["past-int64-and-negative", "past-int64", "below-2-to-64"],
)
def test_mul_batch_takes_integer_lists_past_int64(xs, ys):
    # entries past int64 arrive as object rows of Python ints and stay exact
    out = _batch_product(1, xs, ys)
    assert out.dtype == object
    assert out.tolist() == [list(ref_mul(tuple(x), tuple(y))) for x, y in zip(xs, ys)]


def _product_columns(level, element, left):
    """The multiplication matrix of ``element`` built from its products with
    the basis, one column each: the gathered matrices match it bit for bit."""
    dim = 1 << level
    basis = [CDNumber.basis(level, j) for j in range(dim)]
    cols = [(element * b if left else b * element).coords for b in basis]
    return np.array(cols, dtype=float).T


@pytest.mark.parametrize("level", range(5))
def test_mult_matrices_match_product_columns(level):
    rng, dim = random.Random(level), 1 << level
    units = []
    for _ in range(30):
        v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        r = math.sqrt(sum(c * c for c in v))
        units.append(CDNumber(level, [c / r for c in v]))
    # integer elements with zero coordinates; a float -0.0 too, above level 0,
    # where a product sums from the int 0 and so makes it 0.0 (x0 * y0 keeps it)
    integers = [CDNumber(level, [rng.choice((0, 0, -3, 2)) for _ in range(dim)]) for _ in range(10)]
    zeros = [CDNumber.zero(level)] + ([CDNumber(level, [-0.0] + [1.5] * (dim - 1))] if level else [])
    for x in units + integers + zeros:
        left, right = left_mult_matrix(x), right_mult_matrix(x)
        assert left.dtype == right.dtype == np.float64
        assert left.tobytes() == _product_columns(level, x, True).tobytes()
        assert right.tobytes() == _product_columns(level, x, False).tobytes()


# -- conjugation and norm ---------------------------------------------------


def test_conj_examples():
    assert CDNumber(0, (5,)).conj() == CDNumber(0, (5,))
    assert CDNumber(2, (1, 2, 3, 4)).conj() == CDNumber(2, (1, -2, -3, -4))
    assert e(3, 7).conj() == -e(3, 7)


def test_conj_matches_recursion_and_involution():
    rng = random.Random(3)
    for level in range(5):
        for _ in range(30):
            x = random_exact(level, rng)
            assert x.conj().coords == ref_conj(x.coords)
            assert x.conj().conj() == x


def test_conj_antihomomorphism():
    rng = random.Random(4)
    for level in range(5):
        for _ in range(40):
            x = random_exact(level, rng)
            y = random_exact(level, rng)
            assert (x * y).conj() == y.conj() * x.conj()


def test_norm_sq_examples():
    assert CDNumber.zero(3).norm_sq() == 0
    assert CDNumber(2, (1, 1, 1, 1)).norm_sq() == 4


@pytest.mark.parametrize(
    "coords, expected",
    [
        ((0.5, math.nan), math.nan),
        ((math.nan, 0.5), math.nan),
        ((math.inf, -math.inf), math.inf),
        ((-0.25, 0.5, math.inf, math.nan), math.nan),
        ((3, -7), 7),
        ((Fraction(1, 3), Fraction(-1, 2)), Fraction(1, 2)),
    ],
)
def test_max_abs_keeps_a_nan_and_exact_sizes(coords, expected):
    size = CDNumber(len(coords).bit_length() - 1, coords).max_abs()
    if math.isnan(expected):
        assert math.isnan(size)
    else:
        assert size == expected and type(size) is type(expected)


def test_batch_bound_is_the_largest_absolute_entry():
    # a Python int, so that -(-2^63) does not wrap; an empty batch, such as
    # the basis that x = y = 0 generate, has bound 0
    assert _max_abs(np.array([[3, -7]], dtype=np.int64)) == 7
    extreme = _max_abs(np.array([[-(2**63)]], dtype=np.int64))
    assert extreme == 2**63 and type(extreme) is int
    assert _max_abs(np.zeros((0, 4), dtype=np.int64)) == 0


def test_x_times_conj_is_norm():
    rng = random.Random(5)
    for level in range(5):
        for _ in range(1000 if level == 3 else 100):
            x = random_exact(level, rng)
            ns = x.norm_sq()
            expected = CDNumber.from_scalar(ns, level)
            assert x * x.conj() == expected
            assert x.conj() * x == expected


def test_norm_multiplicative_through_octonions():
    rng = random.Random(6)
    for level in range(4):
        for _ in range(100):
            x = random_exact(level, rng)
            y = random_exact(level, rng)
            assert (x * y).norm_sq() == x.norm_sq() * y.norm_sq()


# -- inverse ----------------------------------------------------------------


def test_inverse_examples():
    assert CDNumber.one(3).inverse() == CDNumber.one(3)
    assert e(1, 1).inverse() == -e(1, 1)


def test_inverse_exact_roundtrip_octonions():
    rng = random.Random(7)
    one = CDNumber.one(3)
    for _ in range(50):
        x = random_exact(3, rng)
        if x.is_zero():
            continue
        inv = x.inverse()
        assert x * inv == one
        assert inv * x == one


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CDNumber.zero(2).inverse()


def test_inverse_warns_at_sedenion_level():
    x = e(4, 3) + e(4, 10)
    with pytest.warns(ZeroDivisorWarning) as record:
        inv = x.inverse()
    assert record[0].filename == __file__  # the warning points at the caller
    # conj/norm formula still satisfies x * inv = 1; it just fails to
    # undo multiplication when x is a zero divisor
    assert x * inv == CDNumber.one(4)


# -- basis and embedding ----------------------------------------------------


def test_basis_element_examples():
    assert e(3, 0) == CDNumber.one(3)
    assert e(3, 7).coords == (0,) * 7 + (1,)
    assert e(4, 15).coords == (0,) * 15 + (1,)
    with pytest.raises(ValueError):
        basis_element(3, 8)
    with pytest.raises(ValueError):
        basis_element(3, -1)


def test_constructor_names_the_coordinates_a_level_needs():
    with pytest.raises(ValueError, match="level 3 needs 8 coordinates, got 2"):
        CDNumber(3, (1, 2))


def test_embed_examples():
    assert embed(e(1, 1), 3) == e(3, 1)
    x = random_exact(2, random.Random(8))
    assert embed(x, 2) == x
    with pytest.raises(ValueError):
        embed(x, 1)


def test_embed_is_homomorphism():
    rng = random.Random(9)
    for _ in range(1000):
        x = random_exact(2, rng)
        y = random_exact(2, rng)
        assert embed(x * y, 3) == embed(x, 3) * embed(y, 3)


# -- multiplication table ---------------------------------------------------


def test_table_level0():
    t = build_table(0)
    assert t.entry(0, 0) == (1, 0)


def test_table_quaternions():
    t = build_table(2)
    assert t.entry(1, 2) == (1, 3)
    assert t.entry(2, 1) == (-1, 3)
    assert t.entry(1, 1) == (-1, 0)
    for j in range(4):
        assert t.entry(0, j) == (1, j)
        assert t.entry(j, 0) == (1, j)
    for i, j in ((4, 0), (0, 4), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            t.entry(i, j)


def test_table_rows_are_signed_permutations():
    # e_i e_j = +/- e_(i xor j): the kernels, the batch layout and the
    # zero-divisor scan compute every product index this way
    for level in range(7):
        t = build_table(level)
        for i in range(t.dim):
            row_targets = [t.entry(i, j)[1] for j in range(t.dim)]
            col_targets = [t.entry(j, i)[1] for j in range(t.dim)]
            assert row_targets == [i ^ j for j in range(t.dim)]
            assert sorted(row_targets) == list(range(t.dim))
            assert sorted(col_targets) == list(range(t.dim))


def test_table_matches_recursion():
    for level in range(5):
        t = build_table(level)
        dim = t.dim
        for i in range(dim):
            for j in range(dim):
                s, k = t.entry(i, j)
                expected = [0] * dim
                expected[k] = s
                got = ref_mul(e(level, i).coords, e(level, j).coords)
                assert list(got) == expected


def test_table_cap():
    build_table(6)
    with pytest.raises(TableSizeError):
        build_table(7)


def test_table_json_schema():
    doc = build_table(2).to_json()
    assert doc["level"] == 2
    assert doc["basis"] == ["e0", "e1", "e2", "e3"]
    assert doc["table"][1][2] == {"sign": 1, "index": 3}
    json.dumps(doc)  # serializable


# -- inner product -----------------------------------------------------------


def test_inner_product_examples():
    assert inner_product(e(3, 1), e(3, 2)) == 0
    assert inner_product(e(3, 0), e(3, 0)) == 1


def test_inner_product_is_dot_product():
    rng = random.Random(10)
    for level in range(5):
        for _ in range(50):
            x = random_exact(level, rng)
            y = random_exact(level, rng)
            dot = sum(a * b for a, b in zip(x.coords, y.coords))
            assert inner_product(x, y) == dot
            assert inner_product(x, x) == x.norm_sq()
    with pytest.raises(LevelMismatchError):
        inner_product(e(2, 0), e(3, 0))


def test_inner_product_formula_is_real():
    # conj(x) y + conj(y) x has no imaginary part at any level
    rng = random.Random(11)
    for level in range(5):
        x = random_exact(level, rng)
        y = random_exact(level, rng)
        s = x.conj() * y + y.conj() * x
        assert s.coords[1:] == (0,) * ((1 << level) - 1)
        assert s.coords[0] == 2 * inner_product(x, y)


def test_real_scalars_multiply_on_either_side():
    # a real scalar s acts as the element s e_0, which commutes with everything
    x = CDNumber(2, (1, -2, Fraction(1, 3), 0))
    for s in (3, Fraction(-1, 2), 0.5):
        as_element = CDNumber.from_scalar(s, 2)
        assert s * x == x * s == as_element * x == x * as_element
    assert 3 * x == CDNumber(2, (3, -6, 1, 0))


# -- serialization and value semantics ---------------------------------------


def test_scalar_json():
    assert scalar_to_json(Fraction(3, 4)) == "3/4"
    assert scalar_to_json(-2) == "-2"
    assert scalar_to_json(-(10**40)) == "-1" + "0" * 40
    assert scalar_to_json(0.5) == 0.5


def test_cd_json_roundtrip_exact():
    x = CDNumber(2, (Fraction(1, 3), -2, 0, Fraction(7, 2)))
    doc = cd_to_json(x)
    assert doc == {"level": 2, "coords": ["1/3", "-2", "0", "7/2"]}
    assert cd_from_json(json.loads(json.dumps(doc))) == x
    for y in (CDNumber(0, (0.25,)), CDNumber(1, (-1.5, 1e300)), CDNumber(1, (10**40, 0))):
        assert cd_from_json(json.loads(json.dumps(cd_to_json(y)))) == y


@pytest.mark.parametrize(
    "doc",
    [
        {"level": 2.9, "coords": ["1", "0", "0", "0"]},
        {"level": True, "coords": [True, "0"]},
        {"level": 1, "coords": [True, "0"]},
        {"level": 2, "coords": "1234"},
        {"level": "1", "coords": ["1", "0"]},
        {"level": 1, "coords": [None, "0"]},
        {"level": 1, "coords": ["1", "0", "0"]},
        {"level": 10**9, "coords": []},
        {"level": -1, "coords": []},
        {"level": 1, "coords": ["1/0", "0"]},
        {"level": 1},
        [1, ["1", "0"]],
    ],
)
def test_cd_from_json_rejects_malformed(doc):
    with pytest.raises(ValueError):
        cd_from_json(doc)


def test_immutability():
    x = e(2, 1)
    with pytest.raises(AttributeError):
        x.level = 3
    y = x * x
    assert x == e(2, 1) and y == -e(2, 0)
