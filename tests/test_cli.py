"""`engelkit run` exit codes: bad manifests and bad references exit 2 with
`path:line` on stderr instead of a traceback."""

from pathlib import Path

import pytest

from engelkit.catalog import GEOMETRIES
from engelkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

NIL4_HEAD = """engelkit-manifest 1

[space]
lie A
lie B
lie C
lie D
bracket D A = 0; 1; 0; 0
bracket D B = 0; 0; 1; 0

[form alpha]
comps = 0; 0; -1; 0

[form beta]
comps = 0; -1; 0; 0

[field W]
comps = 1; 0; 0; 0

[field X]
comps = 0; 0; 0; 1

[field R]
comps = 0; 0; -1; 0

[task structure]
op = engel
alpha = alpha
beta = beta
W = W
X = X
"""

BOX_HEAD = """engelkit-manifest 1

[space]
coord x 0 1
coord y {hi}
"""


def line_of(text, line):
    return text.splitlines().index(line) + 1


def run_text(tmp_path, capsys, text):
    path = tmp_path / "case.ek"
    path.write_text(text, encoding="utf-8")
    code = main(["run", str(path)])
    return code, capsys.readouterr().err, str(path)


def test_corpus_manifest_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main(["run", str(ROOT / "corpus" / "nil4.ek"),
                 "--machine-out", str(out)])
    assert code == 0
    assert out.read_text(encoding="utf-8").endswith("exit 0\n")


@pytest.mark.parametrize("bound", ["1/0", "pi/0"])
def test_zero_denominator_bound_exits_2(tmp_path, capsys, bound):
    text = BOX_HEAD.format(hi=f"0 {bound}")
    code, err, path = run_text(tmp_path, capsys, text)
    assert code == 2
    assert f"{path}:{line_of(text, f'coord y 0 {bound}')}:" in err
    assert "Traceback" not in err


def test_non_integer_rank_exits_2(tmp_path, capsys):
    text = NIL4_HEAD + """
[task triple]
op = kengel
data = structure
Z = R
rank = =
"""
    code, err, path = run_text(tmp_path, capsys, text)
    assert code == 2
    assert f"{path}:{line_of(text, '[task triple]')}:" in err
    assert "rank" in err


def test_bad_reeb_expectation_exits_2(tmp_path, capsys):
    text = NIL4_HEAD + "expect = reeb R = 0; 0; 1 +; 0\n"
    code, err, path = run_text(tmp_path, capsys, text)
    assert code == 2
    assert f"{path}:{line_of(text, '[task structure]')}:" in err
    assert "bad expectation" in err


def test_unknown_op_exits_2(tmp_path, capsys):
    text = NIL4_HEAD + "\n[task odd]\nop = nosuchop\n"
    code, err, path = run_text(tmp_path, capsys, text)
    assert code == 2
    assert f"{path}:{line_of(text, '[task odd]')}:" in err
    assert "unknown op 'nosuchop'" in err


WRONG_DIM = {
    "bw": ("xyzt", """
[form lam]
comps = 0; x; 1; 0

[form a]
comps = 0; 0; 0; 0

[field L]
comps = 1; 0; 0; 0

[task bundle]
op = bw
lam = lam
L = L
a = a
""", "needs a 3-dim base space"),
    "t2": ("xyz", """
[form zero]
comps = 0; 0; 0

[form area]
comps = 0; 0; 1

[task bundle]
op = t2
f = x
g = 1
alpha0 = zero
beta0 = zero
Omega = area
prim1 = zero
prim2 = zero
n = 0 0
""", "needs a 2-dim chart"),
}


@pytest.mark.parametrize("op", sorted(WRONG_DIM))
def test_bundle_on_a_wrong_dimension_space_exits_2(tmp_path, capsys, op):
    coords, body, message = WRONG_DIM[op]
    text = "engelkit-manifest 1\n\n[space]\n" + "".join(
        f"coord {c} 0 1\n" for c in coords) + body
    code, err, path = run_text(tmp_path, capsys, text)
    assert code == 2
    assert f"{path}:{line_of(text, '[task bundle]')}:" in err
    assert message in err


def _redeclare(manifest, old, new):
    text = (ROOT / "corpus" / manifest).read_text(encoding="utf-8")
    assert old in text
    return text.replace(old, new)


WRONG_DEGREE = {
    "t2 Omega": (_redeclare("t2_bundle_flat.ek",
                            "[form Omega]\ndegree = 2\ncomps = 1\n",
                            "[form Omega]\ndegree = 1\ncomps = 1; 0\n"),
                 "[task bundle]", "'Omega' needs a 2-form"),
    "t2 prim1": (_redeclare("t2_bundle_flat.ek",
                            "[form prim1]\ncomps = 0; x\n",
                            "[form prim1]\ndegree = 2\ncomps = x\n"),
                 "[task bundle]", "'prim1' needs a 1-form"),
    "bw lam": (_redeclare("heisenberg_bw.ek",
                          "[form lam]\ncomps = 0; -x; 1\n",
                          "[form lam]\ndegree = 2\ncomps = 0; -x; 1\n"),
               "[task bundle]", "'lam' needs a 1-form"),
    "bw a": (_redeclare("heisenberg_bw.ek",
                        "[form a]\ncomps = 0; z; 0\n",
                        "[form a]\ndegree = 2\ncomps = 0; z; 0\n"),
             "[task bundle]", "'a' needs a 1-form"),
    "engel alpha": (NIL4_HEAD.replace(
        "[form alpha]\ncomps = 0; 0; -1; 0\n",
        "[form alpha]\ndegree = 2\ncomps = 0; 0; -1; 0; 0; 0\n"),
        "[task structure]", "'alpha' needs a 1-form"),
}


@pytest.mark.parametrize("case", sorted(WRONG_DEGREE))
def test_wrong_degree_form_argument_exits_2(tmp_path, capsys, case):
    text, section, message = WRONG_DEGREE[case]
    code, err, path = run_text(tmp_path, capsys, text)
    assert code == 2
    assert f"{path}:{line_of(text, section)}:" in err
    assert message in err


def test_catalog_table_matches_golden(capsys):
    assert main(["catalog"]) == 0
    want = (GOLDEN / "catalog.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_emitted_manifest_matches_golden_and_runs(tmp_path, capsys,
                                                  geometry):
    path = tmp_path / f"{geometry}.ek"
    assert main(["catalog", "--geometry", geometry,
                 "--emit-manifest", str(path)]) == 0
    want = (GOLDEN / f"emit_{geometry}.ek").read_text(encoding="utf-8")
    assert path.read_text(encoding="utf-8") == want
    assert main(["run", str(path)]) == 0
