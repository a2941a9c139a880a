"""Command-line front end: tables, property audits, chart checks, topology.

Every sampling path is driven by an explicit seed so identical
invocations produce byte-identical output.  Exit codes: 0 when results
match the known expectations for the tower, 1 on a mismatch or any other
error raised during the run, and 2 when the parser or an ``ArgumentError``
rejects the input, with the subcommand's usage line.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Callable, NamedTuple, Optional

from . import properties, projective, topology
from .algebra import ArgumentError, CDNumber, _int_arg, _max_size, build_table, cd_to_json

_CHECKERS = {
    "commutative": properties.check_commutative,
    "associative": properties.check_associative,
    "alternative": properties.check_alternative,
    "flexible": properties.check_flexible,
    "norm-multiplicative": properties.check_norm_multiplicative,
    "two-generated": properties.check_two_generated_associativity,
}
AUDIT_PROPERTIES = tuple(name for name in _CHECKERS if name != "two-generated")
AUDIT_LEVELS = (0, 1, 2, 3, 4)


def _emit(args: argparse.Namespace, payload, text_lines) -> None:
    """Print the payload as JSON under --json, else the text lines; a payload
    that text mode should not pay for comes as the function that builds it."""
    if args.json:
        if callable(payload):
            payload = payload()
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_table(args: argparse.Namespace) -> int:
    table = build_table(args.level)
    doc = table.to_json()
    lines = [f"multiplication table, level {args.level} (dim {table.dim})"]
    for i, row in enumerate(table.rows()):
        cells = []
        for s, k in row:
            cells.append(f"{'+' if s > 0 else '-'}e{k}")
        lines.append(f"e{i} * : " + " ".join(f"{c:>5s}" for c in cells))
    _emit(args, doc, lines)
    return 0


def _judged(report: properties.PropertyReport) -> dict:
    """The report's JSON with the tower's expected verdict and whether it matches."""
    entry = report.to_json()
    entry["expected"] = properties.expected_verdict(report.name, report.level)
    entry["match"] = report.matches_expectation()
    return entry


def _cmd_check(args: argparse.Namespace) -> int:
    report = _CHECKERS[args.property](args.level, args.samples, seed=args.seed)
    payload = _judged(report)
    payload["seed"] = args.seed
    lines = [
        f"{report.name} at level {args.level}: {report.verdict} "
        f"(expected {payload['expected']}, {report.samples} candidates, seed {args.seed})"
    ]
    if report.counterexample:
        lines.extend(f"  witness: {x!r}" for x in report.counterexample)
    _emit(args, payload, lines)
    return 0 if payload["match"] else 1


def _cmd_zero_divisors(args: argparse.Namespace) -> int:
    pairs = properties.find_zero_divisors(args.level)
    expected_nonempty = not properties.EXPECTED_HOLDS["division"](args.level)
    match = bool(pairs) == expected_nonempty
    lines = [f"level {args.level}: {len(pairs)} zero-divisor pairs"]
    lines.extend(f"  ({u!r}) * ({v!r}) = 0" for u, v in pairs[:10])
    if len(pairs) > 10:
        lines.append(f"  ... {len(pairs) - 10} more")
    _emit(
        args,
        lambda: {
            "level": args.level,
            "count": len(pairs),
            "match": match,
            "pairs": [[cd_to_json(u), cd_to_json(v)] for u, v in pairs],
        },
        lines,
    )
    return 0 if match else 1


def _report_sampled(args: argparse.Namespace, max_error: float, text: str) -> int:
    """Emit a sampled float check, which passes when ``max_error`` is below
    ``projective.DEFAULT_TOL``; ``text`` opens its text line."""
    verdict = "pass" if max_error < projective.DEFAULT_TOL else "fail"
    payload = {
        "level": args.level,
        "samples": args.samples,
        "seed": args.seed,
        "max_error": max_error,
        "verdict": verdict,
    }
    _emit(args, payload, [f"{text} (seed {args.seed}): {verdict}"])
    return 0 if verdict == "pass" else 1


def _cmd_chart_roundtrip(args: argparse.Namespace) -> int:
    dim = args.level
    level = projective.level_for_dim(dim)
    rng = random.Random(args.seed)
    max_error = 0.0
    for m in range(3):
        f = projective.Functional(*(float(i == m) for i in range(3)))
        for _ in range(args.samples):
            u = CDNumber(level, tuple(rng.gauss(0.0, 1.0) for _ in range(dim)))
            v = CDNumber(level, tuple(rng.gauss(0.0, 1.0) for _ in range(dim)))
            p = projective.chart_backward(f, u, v)
            u2, v2 = projective.chart_forward(f, p)
            q = projective.equivalent_representative(p, rng)
            u3, v3 = projective.chart_forward(f, q)
            errors = (e.max_abs() for e in (u2 - u, v2 - v, u3 - u2, v3 - v2))
            max_error = _max_size((max_error, *errors))  # NaN once an error is NaN
    return _report_sampled(
        args,
        max_error,
        f"chart round trips, dimension {dim}: max error {max_error:.3e} "
        f"over {args.samples} samples x 3 functionals",
    )


def _cmd_equiv_check(args: argparse.Namespace) -> int:
    dim = args.level
    rng = random.Random(args.seed)
    max_error = 0.0
    for _ in range(args.samples):
        p = projective.random_triple_point(dim, rng)
        q = projective.equivalent_representative(p, rng)
        r = projective.equivalent_representative(q, rng)
        inv_p = projective.invariants_of(p)
        drifts = (inv_p.max_difference(projective.invariants_of(w)) for w in (q, r))
        max_error = _max_size((max_error, *drifts))  # NaN once a drift is NaN
        # a SeparationError exits 1; the lemma in separating_functional rules it out
        projective.separating_functional(p, projective.random_triple_point(dim, rng))
    return _report_sampled(
        args,
        max_error,
        f"equivalence invariance, dimension {dim}: max drift {max_error:.3e} "
        f"over {args.samples} samples",
    )


def _cmd_cohomology(args: argparse.Namespace) -> int:
    cw = topology.builtin_cw(args.space)
    system = topology.CoefficientSpec.parse(args.coeffs)
    groups = topology.cohomology_profile(cw, system)
    payload = [
        {"degree": k, "group": g.to_json()} for k, g in enumerate(groups)
    ]
    lines = [f"H^*({args.space}; {system})"]
    for k, g in enumerate(groups):
        if not g.is_trivial:
            lines.append(f"  H^{k} = {g}")
    if all(g.is_trivial for g in groups):
        lines.append("  trivial in all degrees")
    _emit(args, payload, lines)
    return 0


def _cmd_hopf(args: argparse.Namespace) -> int:
    # each mode reads one option the other does not; both default to None,
    # so that one given to the wrong mode shows
    foreign = {"bidegree": ("segments", "linking"), "linking": ("level", "bidegree")}
    option, owner = foreign[args.mode]
    if getattr(args, option) is not None:
        raise ArgumentError(
            f"hopf --mode {args.mode} does not read --{option}, a {owner}-mode option"
        )
    if args.mode == "bidegree":
        level = 3 if args.level is None else args.level
        left, right = topology.multiplication_bidegree(level, args.samples, seed=args.seed)
        payload = {
            "hopf_invariant": left * right,
            "method": f"multiplication-bidegree proxy (level {level})",
            "bidegree": [left, right],
            "seed": args.seed,
        }
        lines = [
            f"bidegree proxy at level {level}: ({left:+d}, {right:+d}) "
            f"-> hopf invariant {left * right:+d}"
        ]
    else:
        segments = 256 if args.segments is None else args.segments
        value = topology.linking_hopf_invariant(
            samples=args.samples, segments=segments, seed=args.seed
        )
        payload = {
            "hopf_invariant": value,
            "method": "gauss-linking proxy (complex fibration)",
            "segments": segments,
            "seed": args.seed,
        }
        lines = [
            f"linking proxy (complex case, {segments} segments, seed {args.seed}): "
            f"{value:+d}"
        ]
    _emit(args, payload, lines)
    return 0


def _cmd_audit_all(args: argparse.Namespace) -> int:
    checks = []
    for level in AUDIT_LEVELS:
        for prop in AUDIT_PROPERTIES:
            checks.append(_judged(_CHECKERS[prop](level, args.samples, seed=args.seed)))
        checks.append(_judged(properties.check_division(level)))
    all_match = all(entry["match"] for entry in checks)
    payload = {
        "seed": args.seed,
        "samples": args.samples,
        "checks": checks,
        "all_match": all_match,
    }
    lines = [f"audit over levels {AUDIT_LEVELS} (seed {args.seed}, samples {args.samples})"]
    for entry in checks:
        flag = "ok " if entry["match"] else "BAD"
        lines.append(
            f"  [{flag}] {entry['property']:20s} level {entry['level']}: "
            f"{entry['verdict']} (expected {entry['expected']})"
        )
    lines.append("all verdicts match" if all_match else "MISMATCH against expectations")
    _emit(args, payload, lines)
    return 0 if all_match else 1


def _int_type(name: str, low: int) -> Callable[[str], int]:
    """An argparse type that reads an option's text by the integer rule, ``_int_arg``."""

    def integer(text: str) -> int:  # argparse reports text int() refuses as "invalid integer value"
        try:
            return _int_arg(name, int(text), low)
        except ArgumentError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return integer


SAMPLES = (
    "--samples", dict(type=_int_type("samples", 1), default=100, help="random samples per check")
)
SEED = ("--seed", dict(type=_int_type("seed", 0), default=0, help="PRNG seed; echoed in reports"))


def _level(default: Optional[int]) -> tuple:
    """The --level option; the library, not the parser, checks its range."""
    help = "algebra level (or dimension for chart commands)"
    return ("--level", dict(type=int, default=default, help=help))


class Command(NamedTuple):
    """One subcommand: its handler, its help line and its options, as
    (flag, add_argument keywords) pairs."""

    handler: Callable[[argparse.Namespace], int]
    help: str
    arguments: tuple = ()


COMMANDS: dict[str, Command] = {
    "table": Command(_cmd_table, "signed basis multiplication table", (_level(3),)),
    "check": Command(
        _cmd_check,
        "run one property checker",
        (
            _level(3),
            SAMPLES,
            SEED,
            (
                "--property",
                dict(required=True, choices=sorted(_CHECKERS), help="property to check"),
            ),
        ),
    ),
    "zero-divisors": Command(_cmd_zero_divisors, "two-term zero-divisor scan", (_level(4),)),
    "chart-roundtrip": Command(
        _cmd_chart_roundtrip,
        "chart round-trip errors; --level is 1|2|4|8",
        (_level(8), SAMPLES, SEED),
    ),
    "equiv-check": Command(
        _cmd_equiv_check,
        "equivalence invariance; --level is 1|2|4|8",
        (_level(8), SAMPLES, SEED),
    ),
    "cohomology": Command(
        _cmd_cohomology,
        "cellular cohomology of a built-in space",
        (
            ("--space", dict(required=True, choices=tuple(topology._BUILTIN_BUILDERS))),
            ("--coeffs", dict(default="Z", help="Z, Q, or Zmod:m")),
        ),
    ),
    "hopf": Command(
        _cmd_hopf,
        "hopf-invariant proxies",
        (
            _level(None),  # bidegree mode's default, 3, is filled in by the handler
            SAMPLES,
            SEED,
            ("--mode", dict(choices=("bidegree", "linking"), default="bidegree")),
            ("--segments", dict(type=int, help="polygon segments for linking mode, 64 to 1024")),
        ),
    ),
    "audit-all": Command(_cmd_audit_all, "full expectation matrix, levels 0-4", (SAMPLES, SEED)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octoplane",
        description="Cayley-Dickson tower, projective-plane charts, and cell cohomology",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub_parser = sub.add_parser(name, help=command.help)
        for flag, keywords in command.arguments:
            sub_parser.add_argument(flag, **keywords)
        sub_parser.add_argument("--json", action="store_true", help="machine-readable output")
        sub_parser.set_defaults(parser=sub_parser)  # main reports an ArgumentError through it
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].handler(args)
    except ArgumentError as exc:
        args.parser.error(str(exc))  # exits 2 with the subcommand's usage line
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
