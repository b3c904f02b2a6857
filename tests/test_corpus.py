"""Every corpus manifest reproduces its checked-in machine report.

The golden `<manifest>.txt` files in tests/golden/ are the `--machine-out`
reports at seed 0 and 64 samples.  A refactor that changes any verdict
text, witness point or token shows up here as a byte-level diff.
"""

from pathlib import Path

import pytest

from engelkit.manifest import load_manifest
from engelkit.report import run_manifest
from engelkit.sampling import SamplingPolicy

ROOT = Path(__file__).resolve().parent.parent
MANIFESTS = sorted((ROOT / "corpus").glob("*.ek"))


def test_every_manifest_has_a_golden_report():
    names = {p.stem for p in MANIFESTS}
    # catalog.txt is the `engelkit catalog` table, checked in test_cli
    golden = {p.stem for p in (ROOT / "tests" / "golden").glob("*.txt")
              if p.stem != "catalog"}
    assert names and names == golden


@pytest.mark.parametrize("path", MANIFESTS, ids=lambda p: p.stem)
def test_corpus_report_matches_golden(path):
    report = run_manifest(load_manifest(str(path)),
                          SamplingPolicy(seed=0, n_samples=64))
    want = (ROOT / "tests" / "golden" / f"{path.stem}.txt").read_text(
        encoding="utf-8")
    assert report.machine_text() == want
    assert report.exit_code == 0
