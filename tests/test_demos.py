import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PINS = {
    Path(e["demo"]).name: e["sha256"]
    for e in json.loads((ROOT / "tests" / "golden.json").read_text())
    if "demo" in e
}


# the scripts the README lists; each must run to completion and print its pinned output
@pytest.mark.parametrize(
    "demo", ["tower_basics.py", "property_audit.py", "projective_charts.py", "cohomology_hopf.py"]
)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == PINS[demo]
