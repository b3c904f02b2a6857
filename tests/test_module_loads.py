"""Each run loads only the modules it uses: a manifest run compiles no
catalog code and a catalog run no manifest code.  Without a bytecode cache
every module a process loads is compiled at start-up, so a module loaded
and never called costs a cold `engelkit` process its compile time.  Each
case runs in a fresh interpreter and reads the engelkit modules whose code
has run.  `report` registers `catalog` in `sys.modules` to run at its first
use; until then it is a lazy module, not a plain one, and does not count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

REPORT_MODULES = """
import json
import sys
import types
print(json.dumps(sorted(name for name, mod in sys.modules.items()
                        if name.startswith("engelkit")
                        and type(mod) is types.ModuleType)))
"""

# the imports of bench/worker.py's corpus process
CORPUS_WORKER = """
from pathlib import Path
from engelkit import manifest, report, sampling
for path in sorted(Path().glob({glob!r})):
    mf = manifest.load_manifest(str(path))
    report.run_manifest(mf, sampling.SamplingPolicy()).machine_text()
"""

# what a manifest run loads and a catalog run does not need
MANIFEST_STACK = {"engelkit.manifest", "engelkit.report", "engelkit.bundles",
                  "engelkit.contact"}
CATALOG_CODE = {"engelkit.catalog", "engelkit.qfield"}

CASES = {
    "corpus worker": (CORPUS_WORKER.format(glob="corpus/*.ek"),
                      "engelkit.report", CATALOG_CODE),
    # the imports and calls of bench/worker.py's sweep process
    "sweep worker": ("""
from engelkit import catalog, cli
cli.catalog_table([catalog.geometry_row("sol_mn", {"c": (2, -1, -1)})])
""", "engelkit.catalog", MANIFEST_STACK),
    "engelkit catalog": ("""
from engelkit import cli
assert cli.main(["catalog", "--geometry", "sol1"]) == 0
""", "engelkit.catalog", MANIFEST_STACK),
    "engelkit run": ("""
from engelkit import cli
assert cli.main(["run", "corpus/nil4.ek"]) == 0
""", "engelkit.report", CATALOG_CODE),
    # framing and commutant tasks do run catalog code, from the registration
    "emitted manifest": (CORPUS_WORKER.format(glob="tests/golden/emit_*.ek"),
                         "engelkit.catalog", set()),
}


def loaded(code):
    """The engelkit modules whose code has run after `code` runs in a
    fresh interpreter at the repository root."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code + REPORT_MODULES],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_run_loads_only_what_it_calls(case):
    code, present, absent = CASES[case]
    mods = loaded(code)
    assert present in mods
    assert not mods & absent
