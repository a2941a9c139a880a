"""octoplane benchmark: three closed-loop workloads over the package's layers.

Run from the repository root:

    python3 perfbench/run.py --workload exact-tower --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py): exact-tower, float-plane, cell-topology.
Each run builds its inputs from --seed and runs the workload's items in
process with one sequential client, in whole passes until the timed item
time reaches --seconds (an exact-tower pass is longer than that, so its
runs are one pass).  Every output is checked outside the timed region.
Between batches, spread over the run, fresh interpreters time the
set-up and the workload's CLI commands.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 reruns the same
items, once plainly and once with spans around every call into
octoplane, and reports the per-layer metrics, including the tracing
overhead; spans and a record of the run go to .perfbench-out/.  No CPU pinning or page-cache dropping is
applied, so every figure is a median over many items or repeats.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: Set-up samples and CLI command sets per run, spread over the run.
REPEATS = 7
SUBPROCESS_TIMEOUT = 120
CLI_COMMANDS = ("audit-all", "zero-divisors", "chart-roundtrip", "equiv-check", "cohomology", "hopf")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_octoplane() -> None:
    """Import octoplane from this checkout's src/, or stop without a result."""
    package = SRC / "octoplane"
    if not (package / "__init__.py").is_file():
        fail(f"no octoplane sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import octoplane

    if Path(octoplane.__file__).resolve().parent != package.resolve():
        fail(f"imported octoplane from {octoplane.__file__}, not from {package}")


def subprocess_env() -> dict[str, str]:
    """The caller's environment with octoplane from src/ and bytecode caching on,
    so child processes start the way an installed copy does whatever the caller set."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_subprocess(argv: list[str]) -> tuple[float, subprocess.CompletedProcess | None]:
    """Wall time of one child process; None when it timed out (it is killed and reaped)."""
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=subprocess_env(), capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return perf_counter() - t0, None
    return perf_counter() - t0, proc


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, what: str, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {reason}")


def setup_argv(levels) -> list[str]:
    """A fresh interpreter that imports octoplane and fills each level's table."""
    code = f"import octoplane\nfor level in {list(levels)!r}:\n    octoplane.build_table(level)\n"
    return [sys.executable, "-c", code]


def run_child(argv, tally: Tally, what: str) -> float:
    seconds, proc = timed_subprocess(argv)
    tally.add(what, None if proc is not None and proc.returncode == 0 else "child process failed")
    return seconds


def run_cli(command, tally: Tally) -> float:
    seconds, proc = timed_subprocess([sys.executable, "-m", "octoplane", *command.args])
    if proc is None:
        reason = "timed out"
    elif proc.returncode != 0:
        reason = f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    else:
        reason = command.check(proc.stdout)
    tally.add("cli " + " ".join(command.args), reason)
    return seconds


def execute(item, tally: Tally, tracer=None, index: int = 0) -> float:
    """Run one item; only the call itself is timed, the gate runs after."""
    if tracer is not None:
        tracer.begin_item(index, item.kind)
    t0 = perf_counter()
    try:
        out = item.run()
        reason = None
    except Exception as exc:  # an item that raises is a failed operation, not a crash
        reason = f"raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    if tracer is not None:
        tracer.end_item()
    if reason is None:
        try:
            reason = item.check(out)
        except Exception as exc:  # a malformed output can trip the gate itself
            reason = f"check raised {type(exc).__name__}: {exc}"
    tally.add(item.kind, reason)
    return seconds


def measure(workload, seed: int, seconds: float, tally: Tally, keep: bool = False, interludes=()):
    """Whole passes of the workload until the timed item time reaches ``seconds``.

    The ``interludes`` run one at a time between batches, spread evenly
    over the first ``seconds`` of item time, so that what they time
    samples the whole run.  Returns the kind and latency of every item,
    in order, and the batches themselves when ``keep`` is set (otherwise
    each is dropped once run, so memory does not grow with the run).
    """
    rng = random.Random(seed)
    kinds, latencies, kept = [], [], []
    pending = list(interludes)
    spent = 0.0
    while spent < seconds:
        for batch in workload.one_pass(rng):
            if pending and spent >= seconds * (len(interludes) - len(pending)) / len(interludes):
                pending.pop(0)()
            for item in batch:
                took = execute(item, tally)
                spent += took
                latencies.append(took)
                kinds.append(item.kind)
            if keep:
                kept.append(batch)
    for interlude in pending:
        interlude()
    return kinds, latencies, kept


def warm_up(levels) -> None:
    """Fill the lazy product tables and the bytecode caches before anything is timed."""
    from octoplane import algebra

    for level in levels:
        algebra.build_table(level)
        algebra.CDNumber.one(level) * algebra.CDNumber.one(level)
    timed_subprocess(setup_argv(levels))


def environment(seed: int) -> dict:
    import numpy

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown: not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown: git unavailable"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
        "note": "no CPU pinning or page-cache dropping is applied; "
        "each figure is a median over items or repeats",
    }


def kind_table(kinds, latencies) -> dict[str, dict]:
    by_kind: dict[str, list[float]] = {}
    for kind, seconds in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(seconds)
    return {
        kind: {"count": len(ts), "median_ms": 1e3 * statistics.median(ts)}
        for kind, ts in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1]))
    }


def end_to_end(workload, args, tally: Tally, record: dict) -> dict:
    argv = setup_argv(workload.setup_levels)
    commands = workload.cli(random.Random(f"cli:{args.seed}"))
    setup, cli_sets = [], []

    def interlude():
        setup.append(run_child(argv, tally, "setup"))
        cli_sets.append(sum(run_cli(c, tally) for c in commands))

    kinds, latencies, _ = measure(workload, args.seed, args.seconds, tally, interludes=[interlude] * REPEATS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record.update(
        items=len(latencies),
        timed_s=sum(latencies),
        percentile_samples=len(latencies),
        setup_samples=setup,
        cli_samples=cli_sets,
        kinds=kind_table(kinds, latencies),
    )
    return {
        "items_per_s": (len(latencies) / sum(latencies), "1/s"),
        "item_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "item_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[8], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "cli_s": (statistics.median(cli_sets), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(workload, args, tally: Tally, record: dict) -> dict:
    import tracer as tracing

    # The first pass only warms caches and the allocator's heap.  Then each
    # batch runs untraced and at once traced, so the two sides of the
    # overhead see the same warm state and the same machine speed.
    _, _, batches = measure(workload, args.seed, args.seconds, tally, keep=True)
    tracer = tracing.Tracer()
    untraced, traced = [], []
    for batch in batches:
        untraced += [execute(item, tally) for item in batch]
        tracer.install()
        try:
            traced += [execute(item, tally, tracer, len(traced) + i) for i, item in enumerate(batch)]
        finally:
            tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (1.0 - sum(untraced) / sum(traced), "ratio")

    mine = {c.args[0]: c for c in workload.cli(random.Random(f"cli:{args.seed}"))}
    for name in CLI_COMMANDS:
        metrics[f"cli.{name}.wall_s"] = (run_cli(mine[name], tally) if name in mine else 0.0, "s")
    help_argv = [sys.executable, "-m", "octoplane", "--help"]
    imports = [run_child(help_argv, tally, "cli --help") for _ in range(REPEATS)]
    metrics["cli.import_s"] = (statistics.median(imports), "s")

    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    record.update(items=len(traced), untraced_s=sum(untraced), traced_s=sum(traced), spans=len(tracer.spans))
    return metrics


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description="octoplane benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed item time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    sys.dont_write_bytecode = True  # leave no caches next to the benchmark's own files
    load_octoplane()
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    warm_up(workload.setup_levels)
    tally = Tally()
    record: dict = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "env": env}
    collect = per_layer if args.trace else end_to_end
    metrics = collect(workload, args, tally, record)
    record.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.reasons,
        metrics={k: v for k, (v, _) in metrics.items()},
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))

    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"env": env, "percentile_samples": record.get("percentile_samples")}))
    for kind, row in record.get("kinds", {}).items():
        print(f"  {kind:32s} n={row['count']:6d}  median {row['median_ms']:10.3f} ms")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
