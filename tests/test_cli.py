"""`engelkit run` exit codes: bad manifests and bad references exit 2 with
`path:line` on stderr instead of a traceback."""

from pathlib import Path

import pytest

from engelkit.cli import main

ROOT = Path(__file__).resolve().parent.parent

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
