"""The correctness gate: checks on every item and CLI output.

Each check returns None when the output is right and a one-line reason
when it is not.  Checks run outside the timed region.  The arithmetic
comes from ``oracles``; octoplane is used only to read its own JSON
(``cd_from_json``) and for its table of expected verdicts.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from typing import Optional, Sequence

import oracles
from octoplane import algebra, properties

#: Pinned zero-divisor scans: pair count and a digest of the ordered list.
PINS = json.loads((Path(__file__).with_name("pins.json")).read_text())

#: Largest round-trip error or equivalence drift accepted in float items.
FLOAT_TOL = 1e-9


def scan_digest(pairs: Sequence[tuple[Sequence, Sequence]]) -> str:
    """sha256 over the ordered pairs, each factor as its nonzero (index, value) list."""
    h = hashlib.sha256()
    for u, v in pairs:
        doc = [[[i, int(c)] for i, c in enumerate(w) if c] for w in (u, v)]
        h.update(json.dumps(doc, separators=(",", ":")).encode())
    return h.hexdigest()


def zero_divisor_failure(level: int, pairs: Sequence[tuple[Sequence, Sequence]]) -> Optional[str]:
    """Pairs given as coordinate tuples, in the order the scan returned them."""
    pin = PINS["zero_divisors"][str(level)]
    if len(pairs) != pin["count"]:
        return f"level {level} scan found {len(pairs)} pairs, pinned {pin['count']}"
    if scan_digest(pairs) != pin["sha256"]:
        return f"level {level} scan pairs differ from the pinned list or its order"
    for u, v in pairs:
        if oracles.is_zero(u) or oracles.is_zero(v) or not oracles.is_zero(oracles.cd_mul(u, v)):
            return f"pair {u} * {v} is not a zero-divisor pair"
    return None


def witness_failure(name: str, level: int, witness_json) -> Optional[str]:
    """A 'fails' witness, read back from its JSON, must break the identity exactly."""
    elements = [algebra.cd_from_json(doc) for doc in witness_json]
    if any(x.level != level for x in elements):
        return f"{name} witness has the wrong level"
    coords = [oracles.exact_coords(x.coords) for x in elements]
    if any(c is None for c in coords):
        return f"{name} witness is not exact"
    if not oracles.identity_violated(name, coords):
        return f"{name} witness does not violate the identity"
    return None


def verdict_failure(name: str, level: int, verdict: str, witness_json) -> Optional[str]:
    expected = properties.expected_verdict(name, level)
    if verdict != expected:
        return f"{name} at level {level}: verdict {verdict}, expected {expected}"
    if verdict == "holds":
        return None if witness_json is None else f"{name} holds but carries a witness"
    if not witness_json:
        return f"{name} fails without a witness"
    return witness_failure(name, level, witness_json)


def report_failure(report, name: str, level: int) -> Optional[str]:
    if report.name != name or report.level != level:
        return f"report is for {report.name} at level {report.level}"
    return verdict_failure(name, level, report.verdict, report.to_json()["counterexample"])


def inverse_failure(x: Sequence, y: Sequence, products) -> Optional[str]:
    """x x^-1 must be exactly 1 and x^-1 (x y) exactly y."""
    one, back = (oracles.exact_coords(p.coords) for p in products)
    if one is None or back is None:
        return "inverse products are not exact"
    if one != (1,) + (0,) * (len(x) - 1):
        return f"x x^-1 = {one}, not 1"
    if back != tuple(y):
        return "x^-1 (x y) differs from y"
    return None


def max_diff(a: Sequence[float], b: Sequence[float]) -> float:
    return max(abs(p - q) for p, q in zip(a, b))


def roundtrip_failure(u, v, forward, again) -> Optional[str]:
    """Chart round trip error and drift between equivalent representatives."""
    (u2, v2), (u3, v3) = forward, again
    err = max(max_diff(u2.coords, u.coords), max_diff(v2.coords, v.coords))
    drift = max(max_diff(u3.coords, u2.coords), max_diff(v3.coords, v2.coords))
    if not err < FLOAT_TOL:
        return f"chart round-trip error {err:.3e}"
    if not drift < FLOAT_TOL:
        return f"chart drift between representatives {drift:.3e}"
    return None


def _eval_norm(coeffs, point) -> float:
    a, b, c = coeffs
    return math.sqrt(
        sum((a * x + b * y + c * z) ** 2 for x, y, z in zip(point.x.coords, point.y.coords, point.z.coords))
    )


def equivalence_failure(invariants, p, other, functional) -> Optional[str]:
    """Invariants agree across representatives; the functional vanishes on neither point."""
    first = [w.coords for w in invariants[0].as_tuple()]
    for inv in invariants[1:]:
        drift = max(max_diff(a, b.coords) for a, b in zip(first, inv.as_tuple()))
        if not drift < FLOAT_TOL:
            return f"equivalence drift {drift:.3e}"
    coeffs = functional.coefficients()
    if min(_eval_norm(coeffs, p), _eval_norm(coeffs, other)) <= 1e-6:
        return f"functional {coeffs} does not separate the points"
    return None


def sphere_failure(x: Sequence[float], y: Sequence[float], sphere, again) -> Optional[str]:
    """line_to_sphere lands on the unit sphere at (2 x y*, |x|^2 - |y|^2), and the
    line point read back from the sphere maps to the same place."""
    expected = [2.0 * c for c in oracles.cd_mul(x, oracles.cd_conj(y))]
    expected.append(oracles.norm_sq(x) - oracles.norm_sq(y))
    if not max_diff(sphere, expected) < FLOAT_TOL:
        return "sphere point differs from (2 x y*, |x|^2 - |y|^2)"
    if not abs(math.sqrt(sum(c * c for c in sphere)) - 1.0) < FLOAT_TOL:
        return "sphere point is off the unit sphere"
    if not max_diff(again, sphere) < FLOAT_TOL:
        return "sphere -> line -> sphere does not return"
    return None


def snf_failure(a, factors, result, rng: random.Random) -> Optional[str]:
    return oracles.snf_failure(a, factors, result.s, result.u, result.v, rng)


def groups_failure(groups, expected) -> Optional[str]:
    got = [oracles.group_key(g.rank, g.torsion) for g in groups]
    if got != list(expected):
        return f"groups {[str(g) for g in groups]} differ from the known {expected}"
    return None


# -- CLI outputs ----------------------------------------------------------------


def audit_failure(doc) -> Optional[str]:
    if doc.get("all_match") is not True:
        return "audit-all reports a mismatch"
    for entry in doc["checks"]:
        name, level = entry["property"], entry["level"]
        if name == "division":
            expected = properties.expected_verdict("division", level)
            if entry["verdict"] != expected:
                return f"division at level {level}: {entry['verdict']}"
            if entry["counterexample"] is not None:
                u, v = (algebra.cd_from_json(d).coords for d in entry["counterexample"])
                if not oracles.is_zero(oracles.cd_mul(u, v)):
                    return f"division witness at level {level} is not a zero divisor pair"
            continue
        why = verdict_failure(name, level, entry["verdict"], entry["counterexample"])
        if why:
            return why
    return None


def zero_divisors_cli_failure(doc) -> Optional[str]:
    if doc.get("match") is not True:
        return "zero-divisors reports a mismatch"
    pairs = [tuple(algebra.cd_from_json(d).coords for d in pair) for pair in doc["pairs"]]
    return zero_divisor_failure(doc["level"], pairs)
