import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", TOOLS / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants


# tools/mutants.py runs each mutant in a copy of the tree without tools/,
# where there is no list to check
needs_tools = pytest.mark.skipif(
    not (TOOLS / "mutants.py").is_file(), reason="this tree has no tools/"
)


@needs_tools
def test_every_equivalent_mutant_names_a_live_site():
    # a stale entry excuses nothing today, but it would excuse a later site
    # that happens to share its line, for a reason written about other code
    mutants, live, keys = _mutants(), {}, set()
    for entry in json.loads((TOOLS / "equivalent_mutants.json").read_text()):
        module = entry["module"]
        if module not in live:
            source = (ROOT / "src" / "octoplane" / f"{module}.py").read_text()
            live[module] = {(s.line, s.change, s.ordinal) for s in mutants.sites(source)}
        key = entry["line"], entry["change"], entry["ordinal"]
        assert key in live[module], entry
        assert (module, key) not in keys, entry
        keys.add((module, key))
        assert entry["reason"], entry


@needs_tools
def test_sites_with_the_same_text_and_change_are_told_apart_by_ordinal():
    source = "x = 1 << 2 << 3\nif x:\n    x = 1 << 2 << 3\n"
    shifts = [(s.lineno, s.ordinal) for s in _mutants().sites(source) if s.change == "<< -> >>"]
    assert shifts == [(1, 0), (1, 1), (3, 2), (3, 3)]
