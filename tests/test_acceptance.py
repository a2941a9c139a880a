"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run with -s to see them on
success).  Tolerances are pinned here and nowhere else: algebraic checks
are exact, chart geometry and determinants are 1e-9.
"""

import json
import math
import random
import subprocess
import sys
import time

import numpy as np

from octoplane.algebra import CDNumber, basis_element
from octoplane.projective import (
    Functional,
    chart_backward,
    chart_forward,
    equivalent_representative,
    eval_functional,
    level_for_dim,
    random_triple_point,
    separating_functional,
)
from octoplane.properties import (
    associator,
    check_alternative,
    check_associative,
    check_commutative,
    check_flexible,
    check_norm_multiplicative,
    find_zero_divisors,
    random_exact,
)
from octoplane.topology import (
    INTEGERS,
    RATIONALS,
    AbelianGroup,
    CoefficientSpec,
    builtin_cw,
    cohomology,
    linking_hopf_invariant,
    multiplication_bidegree,
    smith_normal_form,
)

from oracles import exact_det, int_mat_mul, invariant_factors_by_minors

Z2 = CoefficientSpec.parse("Zmod:2")
Z3 = CoefficientSpec.parse("Zmod:3")


def conclude(number, name, failures, started=None):
    status = "PASS" if not failures else "FAIL"
    suffix = f" [{time.monotonic() - started:.1f}s]" if started is not None else ""
    print(f"criterion {number} ({name}): {status}{suffix}")
    assert not failures, failures


def test_criterion_1_algebraic_audit_matrix():
    started = time.monotonic()
    failures = []

    for level, want in ((0, True), (1, True), (2, False)):
        if check_commutative(level, 100).holds is not want:
            failures.append(f"commutative at level {level}")

    for level, want in ((0, True), (1, True), (2, True), (3, False)):
        if check_associative(level, 100).holds is not want:
            failures.append(f"associative at level {level}")

    witness = associator(basis_element(3, 1), basis_element(3, 2), basis_element(3, 4))
    two_e7 = basis_element(3, 7) * 2
    if witness != two_e7 and witness != -two_e7:
        failures.append(f"associator witness is {witness!r}, expected +-2*e7")

    # exhaustive basis pairs are swept inside the checker; 10^3 random pairs
    if not check_alternative(3, 1000).holds:
        failures.append("alternativity at level 3")
    if check_alternative(4, 1000).holds:
        failures.append("alternativity did not fail at level 4")

    for level in range(6):
        if not check_flexible(level, 100).holds:
            failures.append(f"flexibility at level {level}")

    elapsed = time.monotonic() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    conclude(1, "algebraic audit matrix, exact", failures, started)


def test_criterion_2_norm_multiplicativity_and_zero_divisors():
    started = time.monotonic()
    failures = []

    rng = random.Random(20)
    for _ in range(1000):
        x = random_exact(3, rng)
        y = random_exact(3, rng)
        if (x * y).norm_sq() != x.norm_sq() * y.norm_sq():
            failures.append(f"norm multiplicativity broke at {x!r}, {y!r}")
            break

    pairs = find_zero_divisors(4)
    if not pairs:
        failures.append("no sedenion zero divisors found")
    for u, v in pairs:
        if u.is_zero() or v.is_zero() or not (u * v).is_zero():
            failures.append(f"unsound zero-divisor pair {u!r}, {v!r}")
            break

    for level in (0, 1, 2, 3):
        if find_zero_divisors(level):
            failures.append(f"zero divisors reported at level {level}")

    conclude(2, "norm multiplicativity and zero divisors", failures, started)


def test_criterion_3_chart_roundtrips():
    started = time.monotonic()
    failures = []
    tol = 1e-9
    samples = 1000

    for dim in (1, 2, 4, 8):
        level = level_for_dim(dim)
        for anchor in range(3):
            coeffs = [0.0, 0.0, 0.0]
            coeffs[anchor] = 1.0
            f = Functional(*coeffs)
            rng = random.Random(1000 * dim + anchor)
            max_roundtrip = 0.0
            max_welldef = 0.0
            for _ in range(samples):
                u = CDNumber(level, tuple(rng.gauss(0.0, 1.0) for _ in range(dim)))
                v = CDNumber(level, tuple(rng.gauss(0.0, 1.0) for _ in range(dim)))
                p = chart_backward(f, u, v)
                u2, v2 = chart_forward(f, p)
                max_roundtrip = max(
                    max_roundtrip, (u2 - u).max_abs(), (v2 - v).max_abs()
                )
                q = equivalent_representative(p, rng)
                u3, v3 = chart_forward(f, q)
                max_welldef = max(
                    max_welldef, (u3 - u2).max_abs(), (v3 - v2).max_abs()
                )
            if max_roundtrip >= tol:
                failures.append(
                    f"roundtrip error {max_roundtrip:.2e} at dim {dim}, anchor {anchor}"
                )
            if max_welldef >= tol:
                failures.append(
                    f"well-definedness error {max_welldef:.2e} at dim {dim}, anchor {anchor}"
                )

    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    conclude(3, "chart round trips at 1e-9", failures, started)


def test_criterion_4_separating_functionals():
    started = time.monotonic()
    failures = []
    rng = random.Random(30)
    for trial in range(1000):
        p = random_triple_point(8, rng)
        q = random_triple_point(8, rng)
        try:
            f = separating_functional(p, q)
        except Exception as exc:
            failures.append(f"trial {trial}: {exc}")
            break
        if (
            math.sqrt(eval_functional(f, p).norm_sq()) <= 1e-6
            or math.sqrt(eval_functional(f, q).norm_sq()) <= 1e-6
        ):
            failures.append(f"trial {trial}: functional does not separate")
            break
    conclude(4, "separating functionals, 1000 pairs", failures, started)


def test_criterion_5_cohomology_and_snf():
    started = time.monotonic()
    failures = []

    op2 = builtin_cw("OP2")
    units = {
        INTEGERS: AbelianGroup(1),
        Z2: AbelianGroup(0, (2,)),
        Z3: AbelianGroup(0, (3,)),
        RATIONALS: AbelianGroup(1),
    }
    for coeffs, unit in units.items():
        for k in range(17):
            expected = unit if k in (0, 8, 16) else AbelianGroup(0)
            if cohomology(op2, k, coeffs) != expected:
                failures.append(f"H^{k}(OP2; {coeffs}) wrong")

    rp2 = builtin_cw("RP2")
    if [str(cohomology(rp2, k)) for k in range(3)] != ["Z", "0", "Z/2"]:
        failures.append("H*(RP2; Z) wrong")
    cp2 = builtin_cw("CP2")
    if [str(cohomology(cp2, k)) for k in range(5)] != ["Z", "0", "Z", "0", "Z"]:
        failures.append("H*(CP2; Z) wrong")

    rng = random.Random(40)
    for trial in range(1000):
        matrix = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(4)]
        s, u, v = smith_normal_form(matrix)
        if int_mat_mul(int_mat_mul(u, matrix), v) != s:
            failures.append(f"S != UMV at trial {trial}")
            break
        if abs(exact_det(u)) != 1 or abs(exact_det(v)) != 1:
            failures.append(f"transforms not unimodular at trial {trial}")
            break
        diag = [s[i][i] for i in range(4) if s[i][i]]
        if diag != invariant_factors_by_minors(matrix):
            failures.append(f"invariant factors disagree with minor gcds at trial {trial}")
            break

    conclude(5, "cellular cohomology and SNF oracle", failures, started)


def test_criterion_6_hopf_invariant_proxies():
    started = time.monotonic()
    failures = []

    # determinant tolerance 1e-9 is enforced inside; a violation raises
    for level in (1, 2, 3):
        try:
            bidegree = multiplication_bidegree(level, 1000, seed=level)
        except Exception as exc:
            failures.append(f"bidegree at level {level}: {exc}")
            continue
        if bidegree != (1, 1):
            failures.append(f"bidegree at level {level} is {bidegree}")

    linkings = {}
    for segments in (128, 256, 512):
        try:
            linkings[segments] = linking_hopf_invariant(
                samples=10, segments=segments, seed=6
            )
        except Exception as exc:
            failures.append(f"linking at {segments} segments: {exc}")
    if linkings:
        values = set(linkings.values())
        if len(values) != 1:
            failures.append(f"linking unstable across segment counts: {linkings}")
        elif abs(values.pop()) != 1:
            failures.append(f"linking magnitude not 1: {linkings}")

    # reports must label both methods as proxies
    from octoplane.cli import main as cli_main

    proc = subprocess.run(
        [sys.executable, "-m", "octoplane", "hopf", "--mode", "bidegree", "--level", "3", "--json"],
        capture_output=True,
        text=True,
    )
    if "proxy" not in json.loads(proc.stdout)["method"]:
        failures.append("bidegree report not labelled a proxy")
    proc = subprocess.run(
        [sys.executable, "-m", "octoplane", "hopf", "--mode", "linking", "--segments", "128", "--samples", "3", "--json"],
        capture_output=True,
        text=True,
    )
    if "proxy" not in json.loads(proc.stdout)["method"]:
        failures.append("linking report not labelled a proxy")
    assert cli_main is not None

    conclude(6, "hopf-invariant proxies", failures, started)


def test_criterion_7_audit_determinism():
    started = time.monotonic()
    failures = []
    cmd = [sys.executable, "-m", "octoplane", "audit-all", "--seed", "42", "--json"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    if first.returncode != 0 or second.returncode != 0:
        failures.append(
            f"audit-all exit codes {first.returncode}, {second.returncode}"
        )
    if first.stdout != second.stdout:
        failures.append("audit-all output is not byte-identical across runs")
    if not json.loads(first.stdout)["all_match"]:
        failures.append("audit-all reports a verdict mismatch")
    conclude(7, "seeded audit is byte-identical", failures, started)
