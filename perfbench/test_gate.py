"""The gate must be able to fail.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import random

import run

run.load_octoplane()

import gate  # noqa: E402
import oracles  # noqa: E402
from octoplane import properties, topology  # noqa: E402
from octoplane.algebra import CDNumber  # noqa: E402
from workloads import Item  # noqa: E402


def failures(item: Item) -> int:
    tally = run.Tally()
    run.execute(item, tally)
    assert tally.attempted == 1
    return tally.failed


def report_item(report, name, level) -> Item:
    return Item("check", lambda: report, lambda r: gate.report_failure(r, name, level))


def test_wrong_verdict_raises_failures():
    report = properties.check_commutative(3, 5, seed=1)
    assert failures(report_item(report, "commutative", 3)) == 0
    flipped = properties.PropertyReport("commutative", 3, "holds", None, report.samples)
    assert failures(report_item(flipped, "commutative", 3)) == 1


def test_witness_that_does_not_violate_raises_failures():
    one = CDNumber.one(3)
    bogus = properties.PropertyReport("commutative", 3, "fails", (one, one), 1)
    assert failures(report_item(bogus, "commutative", 3)) == 1


def snf_item(a, factors, result) -> Item:
    check_rng = random.Random(5)
    return Item("snf", lambda: result, lambda out: gate.snf_failure(a, factors, out, check_rng))


def test_corrupted_transform_raises_failures():
    a, factors = oracles.dense_known_snf(12, 12, random.Random(2))
    result = topology.smith_normal_form(a)
    assert failures(snf_item(a, factors, result)) == 0
    u = [row[:] for row in result.u]
    u[3][5] += 1
    assert failures(snf_item(a, factors, result._replace(u=u))) == 1


def test_wrong_diagonal_raises_failures():
    a, factors = oracles.sparse_known_snf(20, random.Random(3))
    result = topology.smith_normal_form(a)
    assert failures(snf_item(a, factors, result)) == 0
    assert failures(snf_item(a, factors + [2], result)) == 1


def zero_divisor_item(pairs) -> Item:
    return Item("scan", lambda: pairs, lambda out: gate.zero_divisor_failure(4, [(u.coords, v.coords) for u, v in out]))


def test_changed_scan_raises_failures():
    pairs = properties.find_zero_divisors(4)
    assert failures(zero_divisor_item(pairs)) == 0
    assert failures(zero_divisor_item(pairs[:-1])) == 1
    assert failures(zero_divisor_item(pairs[1:] + pairs[:1])) == 1


def test_known_complex_matches_and_wrong_group_fails():
    known = oracles.KnownComplex(random.Random(4))
    cw = topology.CWDescription(known.cells(), known.boundaries)
    degrees = range(known.top + 1)
    groups = [topology.homology(cw, k) for k in degrees]
    expected = [known.homology(k) for k in degrees]
    assert gate.groups_failure(groups, expected) is None
    wrong = [topology.AbelianGroup(g.rank + 1, g.torsion) for g in groups]
    assert gate.groups_failure(wrong, expected) is not None


def test_item_that_raises_is_a_failure():
    def boom():
        raise ValueError("no")

    assert failures(Item("boom", boom, lambda out: None)) == 1


def test_benchmark_json_names_every_metric_the_runs_emit():
    import json
    import tracer

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer = {name: unit for name, (_, unit) in tracer.Tracer().metrics().items()}
    layer["trace.overhead_frac"] = "ratio"
    layer.update({f"cli.{name}.wall_s": "s" for name in run.CLI_COMMANDS})
    layer["cli.import_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert [m["name"] for m in spec["end_to_end"]] == [
        "items_per_s", "item_p50_ms", "item_p90_ms", "setup_s", "cli_s", "peak_rss_mb"
    ]
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
