"""Every corpus manifest reproduces its checked-in machine report.

The golden `<manifest>.txt` files in tests/golden/ are the `--machine-out`
reports at seed 0 and 64 samples, and tests/golden/dense/ holds them at
seed 137 and 1024 samples, where a change in float evaluation order moves
witness values first.  A refactor that changes any verdict text, witness
point or token shows up here as a byte-level diff.  The
manifests in tests/manifests/ carry both golden reports beside them, as
`<name>.txt` and `<name>.dense.txt`; they stay out of corpus/, which the
benchmark runs.
"""

from pathlib import Path

import pytest

from engelkit.manifest import load_manifest
from engelkit.report import run_manifest
from engelkit.sampling import SamplingPolicy

ROOT = Path(__file__).resolve().parent.parent
MANIFESTS = sorted((ROOT / "corpus").glob("*.ek"))
TEST_MANIFESTS = sorted((ROOT / "tests" / "manifests").glob("*.ek"))


def _golden_run(path, golden, policy=None):
    report = run_manifest(load_manifest(str(path)),
                          policy or SamplingPolicy(seed=0, n_samples=64))
    assert report.machine_text() == golden.read_text(encoding="utf-8")
    assert report.exit_code == 0


def test_every_manifest_has_a_golden_report():
    names = {p.stem for p in MANIFESTS}
    # catalog.txt is the `engelkit catalog` table, checked in test_cli, and
    # catalog_fractional.txt its fractional rows, in test_catalog_fractional
    golden = {p.stem for p in (ROOT / "tests" / "golden").glob("*.txt")
              if p.stem not in ("catalog", "catalog_fractional")}
    assert names and names == golden
    dense = {p.stem for p in (ROOT / "tests" / "golden" / "dense").glob("*")}
    assert dense == names


@pytest.mark.parametrize("path", MANIFESTS, ids=lambda p: p.stem)
def test_corpus_report_matches_golden(path):
    _golden_run(path, ROOT / "tests" / "golden" / f"{path.stem}.txt")


@pytest.mark.parametrize("path", MANIFESTS, ids=lambda p: p.stem)
def test_dense_corpus_report_matches_golden(path):
    _golden_run(path, ROOT / "tests" / "golden" / "dense" / f"{path.stem}.txt",
                SamplingPolicy(seed=137, n_samples=1024))


@pytest.mark.parametrize("path", TEST_MANIFESTS, ids=lambda p: p.stem)
def test_extra_manifest_matches_golden(path):
    _golden_run(path, path.with_suffix(".txt"))


@pytest.mark.parametrize("path", TEST_MANIFESTS, ids=lambda p: p.stem)
def test_dense_extra_manifest_matches_golden(path):
    _golden_run(path, path.with_suffix(".dense.txt"),
                SamplingPolicy(seed=137, n_samples=1024))
