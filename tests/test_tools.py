import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


# tools/mutants.py runs each mutant in a copy of the tree without tools/,
# where there is no list to check
@pytest.mark.skipif(not (TOOLS / "mutants.py").is_file(), reason="this tree has no tools/")
def test_every_equivalent_mutant_names_a_live_site():
    # a stale entry excuses nothing today, but it would excuse a later site
    # that happens to share its line, for a reason written about other code
    spec = importlib.util.spec_from_file_location("mutants", TOOLS / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    live = {}
    for entry in json.loads((TOOLS / "equivalent_mutants.json").read_text()):
        module = entry["module"]
        if module not in live:
            source = (ROOT / "src" / "octoplane" / f"{module}.py").read_text()
            live[module] = {(site.line, site.change) for site in mutants.sites(source)}
        assert (entry["line"], entry["change"]) in live[module], entry
        assert entry["reason"], entry
