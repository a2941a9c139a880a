import hashlib
import json
import math
from pathlib import Path

import pytest

from octoplane import cli, projective, properties, topology
from octoplane.algebra import CDNumber, LevelMismatchError
from octoplane.cli import main

# the output pins: each entry is a CLI argv or a demo path with the sha256 of its stdout
GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_table_json(capsys):
    code, doc = run_json(capsys, "table", "--level", "3")
    assert code == 0
    assert doc["level"] == 3
    assert doc["basis"][7] == "e7"
    assert doc["table"][1][2] == {"sign": 1, "index": 3}
    # each row hits every basis index exactly once
    for row in doc["table"]:
        assert sorted(cell["index"] for cell in row) == list(range(8))


def test_table_text(capsys):
    code, out = run(capsys, "table", "--level", "1")
    assert code == 0
    assert out.splitlines() == [
        "multiplication table, level 1 (dim 2)",
        "e0 * :   +e0   +e1",
        "e1 * :   +e1   -e0",
    ]


def test_check_matches_expectation_both_ways(capsys):
    code, doc = run_json(capsys, "check", "--property", "alternative", "--level", "3", "--samples", "50")
    assert code == 0 and doc["verdict"] == "holds" and doc["match"] is True
    code, doc = run_json(capsys, "check", "--property", "alternative", "--level", "4", "--samples", "10")
    assert code == 0 and doc["verdict"] == "fails" and doc["match"] is True
    assert doc["seed"] == 0 and doc["expected"] == "fails"


def test_check_two_generated(capsys):
    code, doc = run_json(capsys, "check", "--property", "two-generated", "--level", "2", "--samples", "5")
    assert code == 0 and doc["verdict"] == "holds"


def test_zero_divisors(capsys):
    code, doc = run_json(capsys, "zero-divisors", "--level", "3")
    assert code == 0 and doc["count"] == 0
    code, doc = run_json(capsys, "zero-divisors", "--level", "4")
    assert code == 0 and doc["count"] > 0
    first_u, first_v = doc["pairs"][0]
    assert first_u["level"] == 4 and len(first_v["coords"]) == 16


def test_zero_divisors_text_mode_serialises_nothing(capsys, monkeypatch):
    def refuse(x):
        raise AssertionError("text mode built the JSON payload")

    monkeypatch.setattr(cli, "cd_to_json", refuse)
    code, out = run(capsys, "zero-divisors", "--level", "4")
    assert code == 0 and out.startswith("level 4: 336 zero-divisor pairs\n")
    # ten pairs, then a count of the rest
    lines = out.splitlines()
    assert len(lines) == 12 and all(line.endswith(" = 0") for line in lines[1:11])
    assert lines[11] == "  ... 326 more"


def test_chart_roundtrip(capsys):
    for dim in ("1", "2", "4", "8"):
        code, doc = run_json(capsys, "chart-roundtrip", "--level", dim, "--samples", "25", "--seed", "3")
        assert code == 0
        assert doc["verdict"] == "pass"
        assert doc["max_error"] < 1e-9
        assert doc["seed"] == 3


def test_equiv_check(capsys):
    code, doc = run_json(capsys, "equiv-check", "--level", "8", "--samples", "20", "--seed", "1")
    assert code == 0 and doc["verdict"] == "pass"


def test_equiv_check_exits_1_on_a_separation_error(capsys, monkeypatch):
    # no functional scores above an infinite threshold, so the first pair raises
    monkeypatch.setattr(projective, "SEPARATION_THRESHOLD", math.inf)
    assert main(["equiv-check", "--level", "4", "--samples", "5", "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no sign-grid functional separates the points")


def test_cohomology_json(capsys):
    code, doc = run_json(capsys, "cohomology", "--space", "OP2", "--coeffs", "Z")
    assert code == 0
    by_degree = {entry["degree"]: entry["group"] for entry in doc}
    assert by_degree[0] == {"rank": 1, "torsion": []}
    assert by_degree[8] == {"rank": 1, "torsion": []}
    assert by_degree[16] == {"rank": 1, "torsion": []}
    assert by_degree[5] == {"rank": 0, "torsion": []}


def test_cohomology_mod_coefficients(capsys):
    code, doc = run_json(capsys, "cohomology", "--space", "RP2", "--coeffs", "Zmod:2")
    assert code == 0
    assert [entry["group"]["torsion"] for entry in doc] == [[2], [2], [2]]


def test_cohomology_unknown_space(capsys):
    with pytest.raises(SystemExit) as err:
        main(["cohomology", "--space", "OP4"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage:") and "invalid choice: 'OP4'" in captured.err


def test_hopf_bidegree(capsys):
    code, doc = run_json(capsys, "hopf", "--mode", "bidegree", "--level", "3", "--samples", "50")
    assert code == 0
    assert doc["hopf_invariant"] == 1
    assert doc["bidegree"] == [1, 1]
    assert "proxy" in doc["method"]


def test_hopf_linking(capsys):
    code, doc = run_json(capsys, "hopf", "--mode", "linking", "--segments", "128", "--samples", "3", "--seed", "2")
    assert code == 0
    assert abs(doc["hopf_invariant"]) == 1
    assert "proxy" in doc["method"]
    assert doc["segments"] == 128


def test_audit_all(capsys):
    code, doc = run_json(capsys, "audit-all", "--samples", "30", "--seed", "11")
    assert code == 0
    assert doc["all_match"] is True
    assert doc["seed"] == 11
    assert len(doc["checks"]) == 30  # 6 properties x 5 levels
    division4 = [
        c for c in doc["checks"] if c["property"] == "division" and c["level"] == 4
    ]
    assert division4[0]["verdict"] == "fails" and division4[0]["match"] is True


@pytest.mark.parametrize("entry", [e for e in GOLDEN if "argv" in e], ids=lambda e: e["name"])
def test_cli_output_is_pinned(capsys, entry):
    # sha256 of the whole stdout; any change to a verdict, a count, a
    # counterexample or a printed digit changes it
    code, out = run(capsys, *entry["argv"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == entry["sha256"]


def test_audit_all_deterministic(capsys):
    _, first = run(capsys, "audit-all", "--samples", "25", "--seed", "42", "--json")
    _, second = run(capsys, "audit-all", "--samples", "25", "--seed", "42", "--json")
    assert first == second


def test_sampling_commands_deterministic(capsys):
    for argv in (
        ["chart-roundtrip", "--level", "4", "--samples", "10", "--seed", "5", "--json"],
        ["check", "--property", "flexible", "--level", "4", "--samples", "15", "--seed", "5", "--json"],
        ["hopf", "--mode", "linking", "--segments", "128", "--samples", "2", "--seed", "5", "--json"],
    ):
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second, argv


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["not-a-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["check", "--property", "bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["chart-roundtrip", "--samples", "0"],
        ["equiv-check", "--samples", "0"],
        ["check", "--property", "flexible", "--samples", "-3"],
        ["equiv-check", "--tol", "inf"],
    ],
)
def test_vacuous_runs_are_usage_errors(capsys, argv):
    # zero samples would pass unearned; a tolerance that admits everything
    # cannot be given, since --tol is no option of any command
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


#: Each subcommand with its required arguments, and the shared options it does not
#: read; --tol, which no command reads, is rejected as an unknown option.
UNREAD_OPTIONS = {
    ("table",): ("--samples", "--seed", "--tol"),
    ("check", "--property", "flexible"): ("--tol",),
    ("zero-divisors",): ("--samples", "--seed", "--tol"),
    ("cohomology", "--space", "RP2"): ("--level", "--samples", "--seed", "--tol"),
    ("hopf",): ("--tol",),
    ("audit-all",): ("--level", "--tol"),
}


@pytest.mark.parametrize(
    "argv",
    [list(command) + [flag, "3"] for command, flags in UNREAD_OPTIONS.items() for flag in flags]
    + [["cohomology", "--space", "RP2", "--level", "99", "--tol", "3"]],
    ids=" ".join,
)
def test_unread_options_are_usage_errors(capsys, argv):
    # an option the command would silently ignore is rejected, not dropped
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["hopf", "--mode", "linking", "--level", "9", "--segments", "64", "--samples", "1"],
        ["hopf", "--mode", "linking", "--level", "3"],
        ["hopf", "--mode", "bidegree", "--segments", "7"],
        ["hopf", "--segments", "256"],
    ],
    ids=" ".join,
)
def test_other_hopf_mode_options_are_usage_errors(capsys, argv):
    # --level is read only by bidegree mode and --segments only by linking mode
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    foreign = "--level" if "linking" in argv else "--segments"
    assert captured.err.startswith("usage: octoplane hopf ")
    assert f"does not read {foreign}" in captured.err


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["hopf"], "method", "multiplication-bidegree proxy (level 3)"),
        (["hopf", "--mode", "linking", "--samples", "1"], "segments", 256),
    ],
)
def test_hopf_modes_fill_in_their_defaults(capsys, argv, key, value):
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc[key] == value


#: The commands that read --seed, each with its required arguments.
SEEDED = (
    ["check", "--property", "flexible"],
    ["chart-roundtrip"],
    ["equiv-check"],
    ["hopf"],
    ["hopf", "--mode", "linking"],
    ["audit-all"],
)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--level", "7"],
        ["table", "--level", "-1"],
        ["check", "--property", "commutative", "--level", "9"],
        ["check", "--property", "two-generated", "--level", "5"],
        ["zero-divisors", "--level", "7"],
        ["chart-roundtrip", "--level", "3"],
        ["equiv-check", "--level", "16"],
        ["cohomology", "--space", "RP2", "--coeffs", "Zmod:1"],
        ["cohomology", "--space", "RP2", "--coeffs", "Zmod:x"],
        ["cohomology", "--space", "RP2", "--coeffs", "Zmod:"],
        ["hopf", "--mode", "bidegree", "--level", "5"],
        ["hopf", "--mode", "linking", "--segments", "10"],
    ]
    + [argv + ["--seed", "-1"] for argv in SEEDED],
    ids=" ".join,
)
def test_rejected_input_exits_2(capsys, argv):
    # the library's ArgumentError (table --level 7 is build_table's) and the
    # parser's own rejections end alike, with the given subcommand's usage line
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"usage: octoplane {argv[0]} ")


def test_mathematical_failure_exits_1(capsys, monkeypatch):
    def off_integer(**kwargs):
        raise topology.GeometryError("linking integral 1.5 too far from an integer")

    monkeypatch.setattr(topology, "linking_hopf_invariant", off_integer)
    assert main(["hopf", "--mode", "linking"]) == 1
    assert "too far from an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error",
    [
        projective.MembershipError,
        projective.OutsideChartError,
        LevelMismatchError,
        ValueError,
        RuntimeError,
    ],
)
def test_failures_inside_a_handler_exit_1(capsys, monkeypatch, error):
    # only an ArgumentError is the caller's fault: any other ValueError or
    # RuntimeError raised during the run is a failure, whatever its class
    def fail(f, u, v):
        raise error("raised mid-run")

    monkeypatch.setattr(projective, "chart_backward", fail)
    assert main(["chart-roundtrip", "--level", "2", "--samples", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: raised mid-run\n"


def test_sampled_checks_fail_on_a_nan_error(capsys, monkeypatch):
    # a NaN error must fail the check, not fold away below a finite one
    calls = [0]
    chart_forward = projective.chart_forward

    def nan_on_second_call(f, p):
        calls[0] += 1
        u, v = chart_forward(f, p)
        if calls[0] == 2:
            u = CDNumber(u.level, (math.nan,) + u.coords[1:])
        return u, v

    monkeypatch.setattr(projective, "chart_forward", nan_on_second_call)
    code, doc = run_json(capsys, "chart-roundtrip", "--level", "2", "--samples", "3", "--seed", "3")
    assert code == 1 and doc["verdict"] == "fail" and math.isnan(doc["max_error"])

    drifts = iter([0.0, math.nan])
    monkeypatch.setattr(projective.InvariantSextuple, "max_difference", lambda s, o: next(drifts, 0.0))
    code, doc = run_json(capsys, "equiv-check", "--level", "4", "--samples", "3", "--seed", "3")
    assert code == 1 and doc["verdict"] == "fail" and math.isnan(doc["max_error"])


def test_sampled_checks_fail_at_the_tolerance(capsys, monkeypatch):
    # an error passes only below DEFAULT_TOL; one equal to it fails
    tol = projective.DEFAULT_TOL
    monkeypatch.setattr(projective.InvariantSextuple, "max_difference", lambda s, o: tol)
    code, doc = run_json(capsys, "equiv-check", "--level", "4", "--samples", "3", "--seed", "3")
    assert code == 1 and doc["verdict"] == "fail" and doc["max_error"] == tol


def test_verdict_mismatches_exit_1(capsys, monkeypatch):
    # a scan that finds no sedenion zero divisor contradicts the tower; both
    # zero-divisors and audit-all's division check read the one scan
    scan = properties._zero_divisor_rows
    monkeypatch.setattr(properties, "_zero_divisor_rows", lambda level: scan(0))
    code, doc = run_json(capsys, "zero-divisors", "--level", "4")
    assert code == 1 and doc["match"] is False
    code, doc = run_json(capsys, "audit-all", "--samples", "5")
    assert code == 1 and doc["all_match"] is False
    # and so does commutative octonion multiplication
    def commuting(level, samples, seed):
        return properties.PropertyReport("commutative", level, "holds", None, samples)

    monkeypatch.setitem(cli._CHECKERS, "commutative", commuting)
    code, doc = run_json(capsys, "check", "--property", "commutative", "--level", "3")
    assert code == 1 and doc["match"] is False


def test_zero_divisors_text_lists_ten_pairs_then_counts(capsys, monkeypatch):
    pair = (CDNumber.basis(4, 1), CDNumber.basis(4, 2))
    monkeypatch.setattr(properties, "find_zero_divisors", lambda level: [pair] * 11)
    code, out = run(capsys, "zero-divisors", "--level", "4")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 12 and lines[-1] == "  ... 1 more"


@pytest.mark.parametrize(
    "argv, level",
    [
        (["table"], 3),
        (["check", "--property", "commutative", "--samples", "5"], 3),
        (["zero-divisors"], 4),
        (["chart-roundtrip", "--samples", "5"], 8),
        (["equiv-check", "--samples", "5"], 8),
    ],
)
def test_commands_fill_in_their_default_level(capsys, argv, level):
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["level"] == level
