"""The three workloads: seeded items and the CLI commands each one times.

A workload is a closed loop with one sequential client.  A run executes
whole passes until the timed item time reaches the run length.  A pass
is a list of batches run in order: rounds of items, plus, in exact-tower,
two heavy items that run once per pass.  Every round has the same fixed
mix of item kinds and only the seeded inputs differ, so every run has
the same mix whatever the machine's speed, and the latency percentiles
always sit over that mix.  The counts within a round are chosen so that
the median and the 90th percentile fall inside a cluster of similar
items rather than on the edge between two.

Items call octoplane through module attributes (``properties.check_...``)
looked up at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import functools
import json
import random
import re
from typing import Any, Callable, NamedTuple, Optional

import gate
import oracles
from octoplane import projective, properties, topology
from octoplane.algebra import CDNumber


class Item(NamedTuple):
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # reason the output is wrong, or None


class CliCommand(NamedTuple):
    args: list[str]
    check: Callable[[str], Optional[str]]  # validates stdout


class Workload(NamedTuple):
    name: str
    setup_levels: tuple[int, ...]  # build_table levels the workload uses
    one_pass: Callable[[random.Random], list[list[Item]]]  # batches of items
    cli: Callable[[random.Random], list[CliCommand]]


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


def _json_check(check: Callable[[Any], Optional[str]]) -> Callable[[str], Optional[str]]:
    def parse(stdout: str) -> Optional[str]:
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        return check(doc)

    return parse


# -- exact-tower ------------------------------------------------------------
# properties and the exact-integer product kernel do nearly all the work.
# The inverse items drive the same kernel with Fraction scalars, so a
# speed-up for int or float that slows rationals shows here.  The
# level-5 scan and the level-4 two-generated check run once per pass.

AUDIT_NAMES = ("commutative", "associative", "alternative", "flexible", "norm_multiplicative")
CHECK_SAMPLES = 20
TWO_GENERATED_SAMPLES = 3


def _checker_item(name: str, level: int, rng: random.Random) -> Item:
    seed = _seed(rng)
    attr = "check_" + name

    def run():
        return getattr(properties, attr)(level, CHECK_SAMPLES, seed=seed)

    return Item(f"{name}.L{level}", run, lambda report: gate.report_failure(report, name, level))


def _two_generated_item(level: int, rng: random.Random) -> Item:
    seed = _seed(rng)
    name = "two_generated_associative"

    def run():
        return properties.check_two_generated_associativity(level, TWO_GENERATED_SAMPLES, seed=seed)

    return Item(f"two_generated.L{level}", run, lambda report: gate.report_failure(report, name, level))


def _zero_divisor_item(level: int) -> Item:
    def check(pairs):
        return gate.zero_divisor_failure(level, [(u.coords, v.coords) for u, v in pairs])

    return Item(f"zero_divisors.L{level}", lambda: properties.find_zero_divisors(level), check)


def _random_int_element(level: int, rng: random.Random) -> CDNumber:
    while True:
        coords = tuple(rng.randint(-9, 9) for _ in range(1 << level))
        if any(coords):
            return CDNumber(level, coords)


def _inverse_item(level: int, rng: random.Random) -> Item:
    x = _random_int_element(level, rng)
    y = _random_int_element(level, rng)

    def run():
        xi = x.inverse()
        return x * xi, xi * (x * y)

    return Item(f"inverse.L{level}", run, lambda out: gate.inverse_failure(x.coords, y.coords, out))


def _tower_round(rng: random.Random) -> list[Item]:
    items = [_checker_item(name, level, rng) for name in AUDIT_NAMES for level in range(5)]
    items += [_inverse_item(level, rng) for level in (1, 2, 3) for _ in range(2)]
    items += [_two_generated_item(level, rng) for level in (2, 3) for _ in range(2)]
    items.append(_zero_divisor_item(4))
    return items


#: Rounds per exact-tower pass: about as much time as the two once-per-pass
#: items together, and a pass longer than the run length, so a run is one pass.
TOWER_ROUNDS = 20


def _tower_pass(rng: random.Random) -> list[list[Item]]:
    batches = [_tower_round(rng) for _ in range(TOWER_ROUNDS)]
    batches.insert(TOWER_ROUNDS // 3, [_zero_divisor_item(5)])
    batches.insert(2 * TOWER_ROUNDS // 3, [_two_generated_item(4, rng)])
    return batches


def _tower_cli(rng: random.Random) -> list[CliCommand]:
    seed = str(rng.randrange(1000))
    return [
        CliCommand(["audit-all", "--seed", seed, "--json"], _json_check(gate.audit_failure)),
        CliCommand(
            ["zero-divisors", "--level", "4", "--json"], _json_check(gate.zero_divisors_cli_failure)
        ),
    ]


# -- float-plane --------------------------------------------------------------
# projective and the float product kernel do the work, with no exact
# arithmetic and no topology.  At d = 1 and 2 every product is tiny, so
# per-call overhead added to the kernel shows.

DIMS = (1, 2, 4, 8)
COORDINATE_FUNCTIONALS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
CLI_SAMPLES = 100


def _gauss(level: int, rng: random.Random, scale: float = 1.0) -> CDNumber:
    return CDNumber(level, tuple(rng.gauss(0.0, scale) for _ in range(1 << level)))


def _roundtrip_item(dim: int, coeffs, rng: random.Random) -> Item:
    level = projective.level_for_dim(dim)
    f = projective.Functional(*coeffs)
    u, v = _gauss(level, rng), _gauss(level, rng)
    seed = _seed(rng)

    def run():
        p = projective.chart_backward(f, u, v)
        forward = projective.chart_forward(f, p)
        q = projective.equivalent_representative(p, random.Random(seed))
        return forward, projective.chart_forward(f, q)

    return Item(f"chart_roundtrip.d{dim}", run, lambda out: gate.roundtrip_failure(u, v, *out))


def _equivalence_item(dim: int, rng: random.Random) -> Item:
    level = projective.level_for_dim(dim)
    charts = []
    for _ in range(2):
        anchor = rng.randrange(3)
        coeffs = [0.0, 0.0, 0.0]
        coeffs[anchor] = rng.choice((1.0, -1.0)) * rng.uniform(0.5, 2.0)
        scale = rng.uniform(0.2, 2.0)
        charts.append((projective.Functional(*coeffs), _gauss(level, rng, scale), _gauss(level, rng, scale)))
    seed = _seed(rng)

    def run():
        p = projective.chart_backward(*charts[0])
        other = projective.chart_backward(*charts[1])
        rep_rng = random.Random(seed)
        q = projective.equivalent_representative(p, rep_rng)
        r = projective.equivalent_representative(q, rep_rng)
        invariants = [projective.invariants_of(w) for w in (p, q, r)]
        return invariants, p, other, projective.separating_functional(p, other)

    return Item(f"equivalence.d{dim}", run, lambda out: gate.equivalence_failure(*out))


def _sphere_item(dim: int, rng: random.Random) -> Item:
    level = projective.level_for_dim(dim)
    xs = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    ys = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    norm = sum(c * c for c in xs + ys) ** 0.5
    x = tuple(c / norm for c in xs)
    y = tuple(c / norm for c in ys)
    point = projective.LinePoint(CDNumber(level, x), CDNumber(level, y))

    def run():
        s = projective.line_to_sphere(point)
        return s, projective.line_to_sphere(projective.sphere_to_line(s))

    return Item(f"sphere.d{dim}", run, lambda out: gate.sphere_failure(x, y, *out))


def _plane_round(rng: random.Random) -> list[Item]:
    items = []
    for dim in DIMS:
        items += [_roundtrip_item(dim, coeffs, rng) for coeffs in COORDINATE_FUNCTIONALS]
        items.append(_equivalence_item(dim, rng))
        items += [_sphere_item(dim, rng) for _ in range(2)]
    return items


def _chart_cli_check(doc) -> Optional[str]:
    if doc.get("verdict") != "pass" or not doc["max_error"] < gate.FLOAT_TOL:
        return f"chart-roundtrip verdict {doc.get('verdict')}, max error {doc.get('max_error')}"
    return None


def _equiv_cli_check(stdout: str) -> Optional[str]:
    return None if stdout.rstrip().endswith(": pass") else f"equiv-check says {stdout.strip()!r}"


def _plane_cli(rng: random.Random) -> list[CliCommand]:
    seed = str(rng.randrange(1000))
    n = str(CLI_SAMPLES)
    return [
        CliCommand(
            ["chart-roundtrip", "--level", "8", "--samples", n, "--seed", seed, "--json"],
            _json_check(_chart_cli_check),
        ),
        CliCommand(["equiv-check", "--level", "8", "--samples", n, "--seed", seed], _equiv_cli_check),
    ]


# -- cell-topology --------------------------------------------------------------
# Exact big-integer SNF in topology dominates.  The SNF items need U and
# V; the (co)homology items need only invariant factors.  The only
# products are small ones at levels 1-3, so kernel changes should leave
# this workload flat.

#: (rows, cols) of the dense SNF items: small, medium and large by largest side.
#: Two 32 x 32 items put the 90th percentile inside one SNF kind.
DENSE_SHAPES = ((6, 6), (10, 12), (16, 16), (20, 22), (24, 24), (32, 32), (32, 32), (40, 40), (48, 48))
SPARSE_SIZES = (16, 32, 48, 64)
BUILTIN_SPACES = ("RP2", "CP2", "HP2", "OP2", "OP1/S8", "hypothetical-OP3")
LINKING_SEGMENTS = 256


def _snf_item(kind: str, a, factors, rng: random.Random) -> Item:
    check_rng = random.Random(_seed(rng))
    return Item(
        kind,
        lambda: topology.smith_normal_form(a),
        lambda out: gate.snf_failure(a, factors, out, check_rng),
    )


MODULAR = ("Zmod:2", "Zmod:3", "Zmod:6")


def _complex_items(rng: random.Random) -> list[Item]:
    known = oracles.KnownComplex(rng)
    cells, boundaries = known.cells(), known.boundaries
    degrees = range(known.top + 1)

    def homology():
        cw = topology.CWDescription(cells, boundaries)
        return [topology.homology(cw, k) for k in degrees]

    def cohomology(spec):
        cw = topology.CWDescription(cells, boundaries)
        return [topology.cohomology(cw, k, spec) for k in degrees]

    def profile(spec):
        return topology.cohomology_profile(topology.CWDescription(cells, boundaries), spec)

    def known_cohomology(spec):
        expected = [known.cohomology(k, spec.kind, spec.modulus) for k in degrees]
        return lambda groups: gate.groups_failure(groups, expected)

    expected_homology = [known.homology(k) for k in degrees]
    items = [Item("homology", homology, lambda groups: gate.groups_failure(groups, expected_homology))]
    for kind, fn, text in (
        ("cohomology", cohomology, "Z"),
        ("cohomology", cohomology, rng.choice(MODULAR)),
        ("cohomology_profile", profile, rng.choice(("Q",) + MODULAR)),
    ):
        spec = topology.CoefficientSpec.parse(text)
        items.append(Item(kind, functools.partial(fn, spec), known_cohomology(spec)))
    return items


def _builtin_item(name: str, rng: random.Random) -> Item:
    spec = topology.CoefficientSpec.parse(rng.choice(("Z", "Q") + MODULAR))
    expected = oracles.builtin_cohomology(name, spec.kind, spec.modulus)
    return Item(
        "builtin_profile",
        lambda: topology.cohomology_profile(topology.builtin_cw(name), spec),
        lambda groups: gate.groups_failure(groups, expected),
    )


def _bidegree_item(level: int, rng: random.Random) -> Item:
    seed = _seed(rng)
    return Item(
        f"bidegree.L{level}",
        lambda: topology.multiplication_bidegree(level, 8, seed=seed),
        lambda out: None if out == (1, 1) else f"bidegree {out}, expected (1, 1)",
    )


def _linking_item(rng: random.Random) -> Item:
    seed = _seed(rng)
    return Item(
        "linking",
        lambda: topology.linking_hopf_invariant(samples=1, segments=LINKING_SEGMENTS, seed=seed),
        lambda out: None if abs(out) == 1 else f"linking number {out}",
    )


def _topology_round(rng: random.Random) -> list[Item]:
    items = []
    for rows, cols in DENSE_SHAPES:
        a, factors = oracles.dense_known_snf(rows, cols, rng)
        items.append(_snf_item(f"snf.dense.{rows}x{cols}", a, factors, rng))
    for size in SPARSE_SIZES:
        a, factors = oracles.sparse_known_snf(size, rng)
        items.append(_snf_item(f"snf.sparse.{size}", a, factors, rng))
    for _ in range(2):
        items += _complex_items(rng)
    items += [_builtin_item(name, rng) for name in BUILTIN_SPACES]
    items += [_bidegree_item(level, rng) for level in (1, 2, 3)]
    items.append(_linking_item(rng))
    return items


def _cohomology_cli_check(doc) -> Optional[str]:
    groups = [oracles.group_key(e["group"]["rank"], e["group"]["torsion"]) for e in doc]
    expected = oracles.builtin_cohomology("OP2", "Zmod", 3)
    return None if groups == expected else f"H^*(OP2; Z/3) = {doc}"


_LINKING_LINE = re.compile(r": ([+-]\d+)$")


def _hopf_cli_check(stdout: str) -> Optional[str]:
    match = _LINKING_LINE.search(stdout.strip())
    if match is None or abs(int(match.group(1))) != 1:
        return f"hopf says {stdout.strip()!r}"
    return None


def _topology_cli(rng: random.Random) -> list[CliCommand]:
    seed = str(rng.randrange(1000))
    return [
        CliCommand(
            ["cohomology", "--space", "OP2", "--coeffs", "Zmod:3", "--json"],
            _json_check(_cohomology_cli_check),
        ),
        CliCommand(
            ["hopf", "--mode", "linking", "--segments", str(LINKING_SEGMENTS), "--seed", seed],
            _hopf_cli_check,
        ),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-tower",
            tuple(range(6)),
            _tower_pass,
            _tower_cli,
        ),
        Workload(
            "float-plane",
            (0, 1, 2, 3),
            lambda rng: [_plane_round(rng)],
            _plane_cli,
        ),
        Workload(
            "cell-topology",
            (1, 2, 3),
            lambda rng: [_topology_round(rng)],
            _topology_cli,
        ),
    )
}
