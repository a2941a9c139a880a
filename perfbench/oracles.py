"""Reference arithmetic for the benchmark's correctness gate.

Nothing here imports octoplane.  Products come from the doubling formula

    (a, b)(c, d) = (ac - conj(d) b,  da + b conj(c))

applied recursively to sparse coordinate maps; matrix identities are
checked with Freivalds' test in exact integers; determinants are taken
modulo a large prime; abelian groups are compared through their
elementary divisors.  Inputs with known answers are built here too:
integer matrices with a known Smith diagonal and chain complexes with
known (co)homology.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

# -- Cayley-Dickson products on coordinate tuples ---------------------------


def _split(x: dict, half: int) -> tuple[dict, dict]:
    lo, hi = {}, {}
    for i, v in x.items():
        if i < half:
            lo[i] = v
        else:
            hi[i - half] = v
    return lo, hi


def _conj(x: dict) -> dict:
    return {i: (v if i == 0 else -v) for i, v in x.items()}


def _combine(x: dict, y: dict, sign: int) -> dict:
    out = dict(x)
    for i, v in y.items():
        w = out.get(i, 0) + sign * v
        if w:
            out[i] = w
        else:
            out.pop(i, None)
    return out


def _mul(x: dict, y: dict, dim: int) -> dict:
    if not x or not y:
        return {}
    if dim == 1:
        v = x.get(0, 0) * y.get(0, 0)
        return {0: v} if v else {}
    half = dim // 2
    a, b = _split(x, half)
    c, d = _split(y, half)
    first = _combine(_mul(a, c, half), _mul(_conj(d), b, half), -1)
    second = _combine(_mul(d, a, half), _mul(b, _conj(c), half), 1)
    out = dict(first)
    out.update((i + half, v) for i, v in second.items())
    return out


def _sparse(x: Sequence) -> dict:
    return {i: v for i, v in enumerate(x) if v}


def cd_mul(x: Sequence, y: Sequence) -> tuple:
    """Product of two coordinate tuples of the same power-of-two length."""
    if len(x) != len(y):
        raise ValueError("operands differ in length")
    out = [0] * len(x)
    for i, v in _mul(_sparse(x), _sparse(y), len(x)).items():
        out[i] = v
    return tuple(out)


def cd_conj(x: Sequence) -> tuple:
    return (x[0],) + tuple(-v for v in x[1:])


def norm_sq(x: Sequence):
    return sum(v * v for v in x)


def _vsub(x: Sequence, y: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(x, y))


def is_zero(x: Sequence) -> bool:
    return all(v == 0 for v in x)


def identity_violated(name: str, witness: Sequence[Sequence]) -> bool:
    """Does the witness break the named identity exactly?"""
    m = cd_mul
    if name == "commutative":
        x, y = witness
        return not is_zero(_vsub(m(x, y), m(y, x)))
    if name in ("associative", "two_generated_associative"):
        x, y, z = witness
        return not is_zero(_vsub(m(m(x, y), z), m(x, m(y, z))))
    if name == "alternative":
        x, y = witness
        return not is_zero(_vsub(m(x, m(y, y)), m(m(x, y), y))) or not is_zero(
            _vsub(m(m(x, x), y), m(x, m(x, y)))
        )
    if name == "flexible":
        x, y = witness
        return not is_zero(_vsub(m(x, m(y, x)), m(m(x, y), x)))
    if name == "norm_multiplicative":
        x, y = witness
        return norm_sq(m(x, y)) != norm_sq(x) * norm_sq(y)
    raise KeyError(name)


def exact_coords(values: Sequence) -> Optional[tuple]:
    """The coordinates as exact rationals, or None if any is a float."""
    if any(isinstance(v, float) for v in values):
        return None
    return tuple(Fraction(v) for v in values)


# -- integer matrices -------------------------------------------------------


def mat_vec(a: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    return [sum(v * w for v, w in zip(row, x) if v) for row in a]


def freivalds(s, u, a, v, rng: random.Random, rounds: int = 2) -> bool:
    """Probabilistic exact test of S = U A V; a false pass has odds 2^-60 per round."""
    cols = len(v[0]) if v else 0
    for _ in range(rounds):
        r = [rng.getrandbits(60) for _ in range(cols)]
        if mat_vec(u, mat_vec(a, mat_vec(v, r))) != mat_vec(s, r):
            return False
    return True


PRIME = (1 << 61) - 1


def det_mod_p(a: Sequence[Sequence[int]], p: int = PRIME) -> int:
    """Determinant of a square integer matrix modulo the prime p."""
    m = [[x % p for x in row] for row in a]
    n = len(m)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det = det * m[k][k] % p
        inv = pow(m[k][k], p - 2, p)
        rowk = m[k]
        for i in range(k + 1, n):
            f = m[i][k] * inv % p
            if f:
                rowi = m[i]
                for j in range(k, n):
                    rowi[j] = (rowi[j] - f * rowk[j]) % p
    return det % p


def snf_failure(a, factors: Sequence[int], s, u, v, rng: random.Random) -> Optional[str]:
    """Why (S, U, V) is not a Smith form of A with the given diagonal, or None."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if len(s) != rows or any(len(r) != cols for r in s):
        return "S has the wrong shape"
    if len(u) != rows or len(v) != cols:
        return "U or V has the wrong shape"
    if any(s[i][j] for i in range(rows) for j in range(cols) if i != j):
        return "S is not diagonal"
    diag = [s[i][i] for i in range(min(rows, cols))]
    if any(d < 0 for d in diag):
        return "negative diagonal entry"
    nonzero = [d for d in diag if d]
    if diag[: len(nonzero)] != nonzero:
        return "zero diagonal entry before a nonzero one"
    if any(b % a_ for a_, b in zip(nonzero, nonzero[1:])):
        return "diagonal is not a divisibility chain"
    if nonzero != list(factors):
        return f"diagonal {nonzero} differs from the known factors {list(factors)}"
    if det_mod_p(u) not in (1, PRIME - 1) or det_mod_p(v) not in (1, PRIME - 1):
        return "U or V is not unimodular"
    if not freivalds(s, u, a, v, rng):
        return "S != U A V"
    return None


# -- abelian groups ----------------------------------------------------------


def _prime_powers(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return out


def group_key(rank: int, orders) -> tuple[int, tuple[int, ...]]:
    """(rank, sorted elementary divisors): equal iff the groups are isomorphic."""
    divisors = []
    for d in orders:
        divisors.extend(_prime_powers(abs(int(d))))
    return rank, tuple(sorted(divisors))


#: Integral, rational and mod-m cohomology of the built-in spaces, from
#: their cell structures: every boundary is zero except RP2's degree-2
#: boundary, which is multiplication by 2.
def builtin_cohomology(name: str, kind: str, modulus: Optional[int]) -> list:
    if name == "RP2":
        if kind == "Z":
            return [group_key(1, ()), group_key(0, ()), group_key(0, (2,))]
        if kind == "Q":
            return [group_key(1, ()), group_key(0, ()), group_key(0, ())]
        g = gcd(2, modulus)
        return [group_key(0, (modulus,)), group_key(0, (g,)), group_key(0, (g,))]
    cell_dims = {
        "CP2": (0, 2, 4),
        "HP2": (0, 4, 8),
        "OP2": (0, 8, 16),
        "OP1/S8": (0, 8),
        "hypothetical-OP3": (0, 8, 16, 24),
    }[name]
    one = group_key(0, (modulus,)) if kind == "Zmod" else group_key(1, ())
    return [one if k in cell_dims else group_key(0, ()) for k in range(max(cell_dims) + 1)]


# -- inputs with known answers ------------------------------------------------


def _transvections(n: int, count: int, rng: random.Random) -> list[tuple[int, int, int]]:
    ops = []
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        ops.append((i, j, rng.choice((1, -1))))
    return ops


def _row_ops(mat: list[list[int]], ops) -> None:
    """mat <- E_k ... E_1 mat, where E(i, j, c) adds c * row j to row i."""
    for i, j, c in ops:
        ri, rj = mat[i], mat[j]
        for k in range(len(ri)):
            if rj[k]:
                ri[k] += c * rj[k]


def _col_ops(mat: list[list[int]], ops) -> None:
    """mat <- mat F_1 ... F_k, where F(i, j, c) adds c * column j to column i."""
    for i, j, c in ops:
        for row in mat:
            if row[j]:
                row[i] += c * row[j]


def _inverse_col_ops(ops):
    """Column operations that multiply on the right by the inverse of the
    matrix that ``ops`` builds as row operations.

    Row operations E_t ... E_1 make G; right multiplication by
    G^-1 = E_1^-1 ... E_t^-1 applies, in order, "column j += -c column i"
    for each row operation "row i += c row j".
    """
    return [(j, i, -c) for i, j, c in ops]


def divisibility_chain(length: int, rng: random.Random) -> list[int]:
    """Invariant factors with a short torsion tail: 1, ..., 1, d1 | d2 | ..."""
    torsion = rng.randint(0, min(3, length))
    chain = [1] * (length - torsion)
    d = rng.choice((2, 3, 4, 5, 6))
    for _ in range(torsion):
        chain.append(d)
        d *= rng.choice((1, 2, 3))
    return chain


def dense_known_snf(rows: int, cols: int, rng: random.Random):
    """A dense integer matrix P D Q with known Smith diagonal D.

    P and Q are products of 6 * side random transvections (add +-1 times
    one row or column to another), so they are unimodular, nearly every
    entry of the result is nonzero, and entries stay within a few hundred.
    Elimination on such inputs still grows the transforms to hundreds of
    digits from about 40 rows on.  Returns (matrix, factors).
    """
    rank = min(rows, cols) - rng.randint(0, 2)
    factors = divisibility_chain(rank, rng)
    a = [[0] * cols for _ in range(rows)]
    for k, d in enumerate(factors):
        a[k][k] = d
    _row_ops(a, _transvections(rows, 6 * rows, rng))
    _col_ops(a, _transvections(cols, 6 * cols, rng))
    return a, factors


def sparse_known_snf(size: int, rng: random.Random):
    """A sparse {-1, 0, 1} matrix: signed permutations of cycle blocks.

    ``size`` is at least 2.  A k-cycle block (k >= 2) I - C has invariant factors 1 (k-1 times) and 0; the
    block I + C has 1 (k-1 times) and then 2 for odd k, 0 for even k.
    Signed row and column permutations keep entries in {-1, 0, 1} and the
    invariant factors unchanged.  Returns (matrix, factors).
    """
    blocks = []
    left = size
    while left:
        k = min(left, rng.randint(2, 9))
        if left - k == 1:
            k = left  # no 1-cycles: their entry would be 1 + sign
        left -= k
        blocks.append((k, rng.choice((1, -1))))
    a = [[0] * size for _ in range(size)]
    ones = 0
    twos = 0
    start = 0
    for k, sign in blocks:
        for i in range(k):
            a[start + i][start + i] = 1
            a[start + i][start + (i + 1) % k] = sign
        ones += k - 1
        if sign == 1 and k % 2 == 1:
            twos += 1
        start += k
    row_perm = rng.sample(range(size), size)
    col_perm = rng.sample(range(size), size)
    row_sign = [rng.choice((1, -1)) for _ in range(size)]
    col_sign = [rng.choice((1, -1)) for _ in range(size)]
    out = [
        [row_sign[i] * col_sign[j] * a[row_perm[i]][col_perm[j]] for j in range(size)]
        for i in range(size)
    ]
    return out, [1] * ones + [2] * twos


class KnownComplex:
    """A chain complex C_top -> ... -> C_0 with known (co)homology.

    In a normal-form basis, C_k splits into B_k (boundaries), H_k (free
    homology) and E_k, and the boundary sends the i-th cell of E_k to
    D_k[i] times the i-th cell of B_(k-1).  Random unimodular base changes
    G_k then give d_k = G_(k-1) d0_k G_k^-1, which is a chain complex
    isomorphic to the normal form.
    """

    def __init__(self, rng: random.Random, top: int = 3, spread: int = 6):
        self.top = top
        free = [rng.randint(0, 2) for _ in range(top + 1)]
        ecount = [0] + [rng.randint(1, spread) for _ in range(top)]
        self.diag = [[]] + [
            [rng.choice((1, 1, 2, 3, 4, 6)) for _ in range(ecount[k])]
            for k in range(1, top + 1)
        ]
        self.free = free
        bcount = [ecount[k + 1] if k < top else 0 for k in range(top + 1)]
        sizes = [bcount[k] + free[k] + ecount[k] for k in range(top + 1)]
        for k in range(top + 1):
            if sizes[k] == 0:  # keep every degree populated
                free[k] = 1
                sizes[k] = 1
        self.sizes = sizes
        changes = [_transvections(n, 2 * n, rng) if n > 1 else [] for n in sizes]
        self.boundaries = {}
        for k in range(1, top + 1):
            d = [[0] * sizes[k] for _ in range(sizes[k - 1])]
            first_e = bcount[k] + free[k]
            for i, factor in enumerate(self.diag[k]):
                d[i][first_e + i] = factor
            _row_ops(d, changes[k - 1])
            _col_ops(d, _inverse_col_ops(changes[k]))
            self.boundaries[k] = d

    def cells(self) -> list[tuple[str, int]]:
        return [(f"c{k}_{i}", k) for k in range(self.top + 1) for i in range(self.sizes[k])]

    def _torsion(self, k: int) -> list[int]:
        return self.diag[k] if 1 <= k <= self.top else []

    def homology(self, k: int):
        return group_key(self.free[k], [d for d in self._torsion(k + 1) if d > 1])

    def cohomology(self, k: int, kind: str, modulus: Optional[int]):
        if kind == "Z":
            return group_key(self.free[k], [d for d in self._torsion(k) if d > 1])
        if kind == "Q":
            return group_key(self.free[k], ())
        orders = [modulus] * self.free[k]
        orders += [gcd(d, modulus) for d in self._torsion(k)]
        orders += [gcd(d, modulus) for d in self._torsion(k + 1)]
        return group_key(0, [d for d in orders if d > 1])
