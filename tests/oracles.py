"""Independent reference implementations used as test oracles.

These deliberately do not share code paths with the package: the product
is the textbook doubling recursion on coordinate halves, and its rounding
is pinned by a plain loop over basis signs read from that recursion;
determinants are fraction-free eliminations, invariant factors come from
gcds of minors, ranks mod p from elimination over the field Z/p, and the
separating sign grid is a scalar scan over plain coordinate tuples.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, sqrt


def ref_conj(t):
    if len(t) == 1:
        return t
    h = len(t) // 2
    return ref_conj(t[:h]) + tuple(-v for v in t[h:])


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_mul(x, y):
    """(a, b)(c, d) = (ac - d*b, da + bc*), recursively on tuple halves."""
    if len(x) == 1:
        return (x[0] * y[0],)
    h = len(x) // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    return _vsub(ref_mul(a, c), ref_mul(ref_conj(d), b)) + _vadd(
        ref_mul(d, a), ref_mul(b, ref_conj(c))
    )


@lru_cache(maxsize=None)
def _ref_sign_rows(n):
    """rows[i] lists (j, k, sign) with e_i e_j = sign * e_k, j ascending.

    Each row is read from one ``ref_mul`` of the basis tuple e_i by
    w = (3^0, 3^1, ...): coordinate k of e_i w is the sum of sign * 3^j
    over the j that e_i e_j puts on axis k, so its balanced-ternary digits
    are those signs.  Each j must land on exactly one axis."""
    w = tuple(3**j for j in range(n))
    rows = []
    for i in range(n):
        hits = []
        for k, v in enumerate(ref_mul(tuple(int(t == i) for t in range(n)), w)):
            j = 0
            while v:
                digit = (v + 1) % 3 - 1
                if digit:
                    hits.append((j, k, digit))
                v, j = (v - digit) // 3, j + 1
        hits.sort()
        assert [j for j, _, _ in hits] == list(range(n)), f"row {i} is not a signed permutation"
        rows.append(tuple(hits))
    return tuple(rows)


def ref_mul_ordered(x, y):
    """The product term for term as the package forms it, with its rounding.

    Output k starts from the int 0; for i, then j, ascending, the term
    x_i * y_j is added to (or subtracted from) the output that e_i e_j lands
    on.  Every term is made, zero factors included, so no output stays the
    int 0 unless its terms are ints.  Dimension 1 is the single product
    x_0 * y_0."""
    n = len(x)
    if n == 1:
        return (x[0] * y[0],)
    out = [0] * n
    for i in range(n):
        for j, k, sign in _ref_sign_rows(n)[i]:
            if sign > 0:
                out[k] = out[k] + x[i] * y[j]
            else:
                out[k] = out[k] - x[i] * y[j]
    return tuple(out)


def exact_det(matrix):
    """Exact determinant by rational elimination."""
    m = [[Fraction(v) for v in row] for row in matrix]
    n = len(m)
    sign = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    out = Fraction(sign)
    for k in range(n):
        out *= m[k][k]
    assert out.denominator == 1
    return int(out)


def invariant_factors_by_minors(matrix):
    """d_k = gcd(k x k minors) / gcd((k-1) x (k-1) minors)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    prev = 1
    factors = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[matrix[i][j] for j in ci] for i in ri]
                g = gcd(g, abs(exact_det(sub)))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def int_mat_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def known_snf(rows, cols, rank, rng):
    """A rows x cols matrix P D Q of known Smith form, and the nonzero diagonal of D.

    D holds ``rank`` positive entries: ones, then a divisibility chain of up
    to three torsion coefficients.  P and Q are products of 6 * side random
    transvections (add +-1 times one row or column to another), so they are
    unimodular and the result is dense."""
    torsion = min(rank, rng.randint(1, 3))
    diag, d = [1] * (rank - torsion), 1
    for _ in range(torsion):
        d *= rng.choice((2, 3))
        diag.append(d)
    a = [[diag[i] if i == j and i < rank else 0 for j in range(cols)] for i in range(rows)]
    for _ in range(6 * rows):
        i, j = rng.sample(range(rows), 2)
        c = rng.choice((1, -1))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    for _ in range(6 * cols):
        i, j = rng.sample(range(cols), 2)
        c = rng.choice((1, -1))
        for row in a:
            row[i] += c * row[j]
    return a, diag


def ref_rank(vectors):
    """Exact rank of a list of vectors, by rational elimination with row swaps."""
    rows = [[Fraction(v) for v in vec] for vec in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_p(matrix, p):
    """Rank over the field Z/p (p prime), by elimination mod p with row swaps."""
    rows = [[v % p for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inverse % p
            rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def ref_span_subset(vectors):
    """Indices of the vectors a greedy pass keeps: each one that raises the
    rank of the vectors kept before it."""
    kept = []
    for n, vec in enumerate(vectors):
        if ref_rank([vectors[k] for k in kept] + [vec]) > len(kept):
            kept.append(n)
    return kept


def ref_subalgebra_basis(x, y):
    """A basis of the subalgebra x, y, x* and y* generate, from a worklist:
    an element that raises the rank is kept, and its products with itself
    and, on both sides, with every element kept before it join the list."""
    basis = []
    work = [x, y, ref_conj(x), ref_conj(y)]
    while work and len(basis) < len(x):  # the whole algebra is closed
        w = work.pop(0)
        if ref_rank(basis + [w]) > len(basis):
            work += [ref_mul(w, b) for b in basis] + [ref_mul(b, w) for b in basis]
            work.append(ref_mul(w, w))
            basis.append(w)
    return basis


def ref_separating_grid(p, q):
    """The sign-grid functional a scalar scan picks for two points, each a
    triple of coordinate tuples, with its score.

    The grid is (a, b, c) in {0, 1, -1}^3 minus zero, in that nested order.
    A functional scores the smaller of |ax + by + cz| over the two points,
    each coordinate formed as (x_k a + y_k b) + z_k c and the squares added
    from 0 in coordinate order; the first strictly larger score wins, so the
    result is (None, 0.0) when every functional vanishes on a point."""

    def length(point, a, b, c):
        total = 0
        for xk, yk, zk in zip(*point):
            v = (xk * a + yk * b) + zk * c
            total += v * v
        return sqrt(total)

    best, best_score = None, 0.0
    signs = (0.0, 1.0, -1.0)
    for a in signs:
        for b in signs:
            for c in signs:
                if (a, b, c) == (0.0, 0.0, 0.0):
                    continue
                score = min(length(p, a, b, c), length(q, a, b, c))
                if score > best_score:
                    best, best_score = (a, b, c), score
    return best, best_score
