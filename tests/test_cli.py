"""`engelkit run` exit codes: bad manifests and bad references exit 2 with
`path:line` on stderr instead of a traceback."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from engelkit import catalog
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


def task_block(tmp_path, capsys, text, task):
    """The exit code and the machine-report lines of one task."""
    path = tmp_path / "case.ek"
    out = tmp_path / "report.txt"
    path.write_text(text, encoding="utf-8")
    code = main(["run", str(path), "--machine-out", str(out)])
    capsys.readouterr()
    lines = out.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith(f"task {task} :: "))
    return code, lines[start:lines.index(f"end {task}") + 1]


def test_corpus_manifest_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main(["run", str(ROOT / "corpus" / "nil4.ek"),
                 "--machine-out", str(out)])
    assert code == 0
    assert out.read_text(encoding="utf-8").endswith("exit 0\n")
    # the probe of the report's directory leaves no file behind
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


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


@pytest.mark.parametrize("rank, code", [
    ("0", 2), ("-1", 2), ("5", 2), ("7", 2), ("1", 0), ("4", 0)])
def test_a_rank_outside_1_to_the_dimension_exits_2(tmp_path, capsys, rank,
                                                   code):
    text = NIL4_HEAD + f"""
[task triple]
op = kengel
data = structure
Z = R
rank = {rank}
"""
    got, err, path = run_text(tmp_path, capsys, text)
    assert got == code
    if code == 2:
        assert err == (f"error: {path}:{line_of(text, '[task triple]')}: "
                       f"task 'triple': rank must be an integer from 1 to "
                       f"4, got '{rank}'\n")


def test_a_reference_error_keeps_the_tasks_before_it(tmp_path, capsys):
    # the report of the tasks that ran is written, ending in exit 2, and
    # the error follows on stderr
    reports = []
    for tail in ("", "\n[task reeb]\nop = integrability\ndata = nosuch\n"):
        path = tmp_path / "case.ek"
        out = tmp_path / "report.txt"
        path.write_text(NIL4_HEAD + tail, encoding="utf-8")
        code = main(["run", str(path), "--machine-out", str(out)])
        reports.append((code, capsys.readouterr(),
                        out.read_text(encoding="utf-8")))
    (code0, std0, machine0), (code, std, machine) = reports
    assert (code0, code) == (0, 2)
    lineno = line_of(NIL4_HEAD + tail, "[task reeb]")
    assert std.err == (f"error: {path}:{lineno}: task 'reeb': no prior task "
                       f"'nosuch'\n")
    assert "task structure [engel]" in std.out
    assert std.out.endswith("\n1 task(s), 0 mismatch(es)\n")
    assert machine0.endswith("exit 0\n")
    assert machine == machine0[:-len("exit 0\n")] + "exit 2\n"


def test_bad_reeb_expectation_exits_2(tmp_path, capsys):
    # a bad value, and a field name that is no single one of W, X, T, R
    for expect in ("reeb R = 0; 0; 1 +; 0", "reeb WX = 0; 0; 1; 0"):
        text = NIL4_HEAD + f"expect = {expect}\n"
        code, err, path = run_text(tmp_path, capsys, text)
        assert code == 2
        assert f"{path}:{line_of(text, '[task structure]')}:" in err
        assert "bad expectation" in err


def test_space_failing_jacobi_exits_2(tmp_path, capsys):
    text = """engelkit-manifest 1

[space]
lie A
lie B
lie C
bracket A B = 0; 0; 1
bracket A C = 1; 0; 0
bracket B C = 0; 1; 0
"""
    code, err, path = run_text(tmp_path, capsys, text)
    assert code == 2
    assert err == (f"error: {path}:{line_of(text, '[space]')}: bad space: "
                   f"structure brackets violate the Jacobi identity on "
                   f"(A,B,C)\n")


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
    "engel": ("xyz", """
[form a]
comps = -y; 0; 1

[form b]
comps = 0; 1; 0

[task bundle]
op = engel
alpha = a
beta = b
""", "needs a 4-dim space"),
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
                                                  monkeypatch, geometry):
    # the row is computed once, for the table and the manifest alike
    rows = []
    real = catalog.geometry_row
    monkeypatch.setattr(catalog, "geometry_row",
                        lambda *a: rows.append(a) or real(*a))
    path = tmp_path / f"{geometry}.ek"
    assert main(["catalog", "--geometry", geometry,
                 "--emit-manifest", str(path)]) == 0
    assert len(rows) == 1
    want = (GOLDEN / f"emit_{geometry}.ek").read_text(encoding="utf-8")
    assert path.read_text(encoding="utf-8") == want
    assert main(["run", str(path)]) == 0


@pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--tol", "-1")])
def test_non_positive_samples_or_tol_exits_2(capsys, flag, value):
    with pytest.raises(SystemExit) as exit_:
        main(["run", str(ROOT / "corpus" / "nil4.ek"), flag, value])
    assert exit_.value.code == 2
    assert "--samples and --tol must be positive" in capsys.readouterr().err


def test_negative_seed_exits_2(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["run", str(ROOT / "corpus" / "nil4.ek"), "--seed", "-1"])
    assert exit_.value.code == 2
    assert "--seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("geometry, param", [
    ("sol0", "a=1/0"),      # a zero denominator
    ("sol_mn", "c=1"),      # a scalar for a triple
    ("sol_mn", "c=1,-1"),   # a pair for a triple
    ("sol0", "a=1,2"),      # a pair for a scalar
    ("nil4", "q=3"),        # a name the geometry does not take
    ("sol_mn", "c=1,2,3")])  # weights that do not sum to zero
def test_bad_catalog_params_exit_2(capsys, geometry, param):
    assert main(["catalog", "--geometry", geometry, "--params", param]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")
    assert "Traceback" not in out.err
    assert "Fraction(" not in out.err
    assert "{'" not in out.err   # defaults in --params notation, not a dict
    if param == "c=1,2,3":
        assert out.err == "error: weights 1, 2, 3 do not sum to zero\n"
    if param == "c=1":
        assert out.err == ("error: bad parameter 'c' for sol_mn; "
                           "defaults: c=1,0,-1\n")


TORUS_HEAD = (ROOT / "corpus" / "torus.ek").read_text(
    encoding="utf-8").split("[task ")[0]


@pytest.mark.parametrize("entry, code", [("2*3*sqrt2", 0),
                                         ("(1 + sqrt2)^2", 0),
                                         ("sqrtx", 2), ("1/0", 2),
                                         ("1/(sqrt6 - sqrt2*sqrt3)", 2)])
def test_lattice_entries_are_polynomials_in_square_roots(tmp_path, capsys,
                                                         entry, code):
    row = f"row = {entry}; -sqrt3; 1; 0"
    text = TORUS_HEAD + f"""[lattice L]
gens = 2 3
row = 1; 0; 0; 0
row = 0; 1; 0; 0
{row}
row = 0; 0; 0; 1

[task quotient]
op = lattice
lattice = L
expect = rank 3
"""
    got, err, path = run_text(tmp_path, capsys, text)
    assert got == code
    if code == 2:
        assert err.startswith(f"error: {path}:{line_of(text, row)}: "
                              f"bad lattice entry")


def test_a_huge_generator_exits_2_in_bounded_time(tmp_path):
    # deciding that this 21-digit prime is square-free by trial division
    # would take about 10^10 steps; a subprocess, so that a hang fails the
    # test by its timeout instead of stalling the suite
    gens = "gens = 100000000000000000039"
    text = TORUS_HEAD + f"""[lattice L]
{gens}
row = 1; 0; 0; 0
row = 0; 1; 0; 0
row = 0; 0; 1; 0
row = 0; 0; 0; 1
"""
    path = tmp_path / "case.ek"
    path.write_text(text, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "engelkit.cli", "run", str(path)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=10)
    assert done.returncode == 2
    assert done.stderr == (f"error: {path}:{line_of(text, gens)}: bad "
                           f"generators: radicand 100000000000000000039 is "
                           f"larger than 1000000000\n")


POWER = "(1 + x + y)^14 - (1 + x + y)^14"
SURD_POWER = "(1 + sqrt2 + sqrt3)^14"


@pytest.mark.parametrize("text", [
    TORUS_HEAD.replace("comps = -sin(2*pi*t); cos(2*pi*t); 0; 0",
                       f"comps = -sin(2*pi*t); cos(2*pi*t); 0; {POWER}")
    + """[task structure]
op = engel
alpha = alpha
beta = beta
W = W
X = X
expect = engel_pass
""",
    TORUS_HEAD + f"""[lattice L]
gens = 2 3
row = 1; 0; 0; 0
row = 0; 1; 0; 0
row = {SURD_POWER}; -sqrt3; 1; 0
row = 0; 0; 0; 1

[task quotient]
op = lattice
lattice = L
expect = rank 3
"""], ids=["form", "lattice"])
def test_a_power_of_a_sum_runs_in_bounded_time(tmp_path, text):
    # expanding the power by distributing over every choice of terms
    # takes about 3^14 products; a subprocess, so that a regression fails
    # by its timeout instead of stalling the suite
    assert POWER in text or SURD_POWER in text
    path = tmp_path / "case.ek"
    path.write_text(text, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "engelkit.cli", "run", str(path)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stderr) == (0, "")


def test_an_overflowing_sample_is_skipped_not_a_traceback(tmp_path,
                                                         capsys):
    # exp(exp(exp(10*z))) overflows a float at most samples
    text = TORUS_HEAD + """[metric g]
diag = 1; 1; 1 + exp(exp(exp(10*z)))*(sin(2*z) - 2*sin(z)*cos(z)); 1

[task structure]
op = engel
alpha = alpha
beta = beta
W = W
X = X

[task triple]
op = kengel
data = structure
Z = R
metric = g
"""
    code, block = task_block(tmp_path, capsys, text, "triple")
    assert code in (0, 1)
    assert block[0] == "task triple :: kengel"
    assert any(line.startswith("verdict Killing equation :: ")
               for line in block)


def _renamed(manifest, old, new, before=None):
    """A corpus manifest with coordinate `old` renamed, cut at `before`."""
    text = (ROOT / "corpus" / manifest).read_text(encoding="utf-8")
    return re.sub(rf"\b{old}\b", new, text.split(before)[0] if before
                  else text)


# each op thickens its space by a fixed name, which the base already uses
CLASHES = {
    "contact": (_renamed("torus.ek", "t", "s"), "lift"),
    "filling": (_renamed("torus.ek", "t", "r"), "fill"),
    "bw": (_renamed("heisenberg_bw.ek", "z", "t", "[task invariants]"),
           "bundle"),
    "t2": (_renamed("t2_bundle.ek", "y", "q", "[task invariants]"),
           "bundle"),
}


@pytest.mark.parametrize("op", sorted(CLASHES))
def test_thickening_by_a_used_name_is_a_task_error(tmp_path, capsys, op):
    text, task = CLASHES[op]
    code, block = task_block(tmp_path, capsys, text, task)
    assert code == 1
    assert "token task_error FrameError" in block
    assert any(line.startswith("derived error :: cannot thicken by ")
               for line in block)


FAILURE_TOKENS = {
    "framing_rejected": (NIL4_HEAD.split("[task structure]")[0] + """
[field B]
comps = 0; 1; 0; 0

[task search]
op = framing
W = W
X = B
expect = framing_rejected
""", "search", ["task search :: framing", "token framing_rejected",
                "derived error :: the plane span{W, X} does not "
                "bracket-generate", "expect framing_rejected :: ok"]),
    "kengel_fail": (NIL4_HEAD + """
[task triple]
op = kengel
data = structure
Z = W
expect = kengel_fail
""", "triple", ["task triple :: kengel", "token kengel_fail",
                "token kengel_fail Killing (B,D)",
                "token kengel_fail [Z,X] stays in the plane",
                "token kengel_fail g(Z,W)",
                "verdict [Z,W] stays in the plane :: zero=exact",
                "verdict [Z,X] stays in the plane :: zero=no value=1 at -",
                "verdict g(Z,W) :: zero=no value=1 at -",
                "verdict g(Z,X) :: zero=exact",
                "verdict g(Z,[W,X]) :: zero=exact",
                "verdict Killing equation :: zero=no value=1 at -",
                "derived error :: the triple check fails: [Z,X] stays in "
                "the plane, Killing (B,D), g(Z,W)",
                "expect kengel_fail :: ok"]),
    # Z = 0 passes the triple check, and the framing refuses it
    "kframing_fail": (NIL4_HEAD + """
[field Z]
comps = 0; 0; 0; 0

[task triple]
op = kengel
data = structure
Z = Z
rank = 1

[task framing]
op = kframing
data = triple
expect = kframing_fail
""", "framing", ["task framing :: kframing", "token kframing_fail",
                 "token kframing_fail alpha(Z)",
                 "derived error :: alpha(Z) = 0: nonvanishing=NO min=0 at -",
                 "expect kframing_fail :: ok"]),
    "lattice_error": (TORUS_HEAD + """[lattice L]
gens = 2
row = 1; 0; 0; 0
row = 0; 1; 0; 0
row = sqrt2; 0; 1; 0
row = 0; 0; 1; 1

[task quotient]
op = lattice
lattice = L
expect = lattice_error
""", "quotient", ["task quotient :: lattice", "token lattice_error",
                  "derived error :: the fourth lattice vector must be the "
                  "fibre (0,0,0,1)", "expect lattice_error :: ok"]),
    "t2_fail input": ((ROOT / "corpus" / "t2_bundle.ek").read_text(
        encoding="utf-8").split("[task invariants]")[0].replace(
        "eps = 1/2\n", "eps = 2\n").replace("t2_pass", "t2_fail input"),
        "bundle", ["task bundle :: t2", "token t2_fail",
                   "token t2_fail input",
                   "derived error :: eps = 2 is not in (0,1)",
                   "expect t2_fail input :: ok"]),
}


@pytest.mark.parametrize("token", sorted(FAILURE_TOKENS))
def test_failure_token_report(tmp_path, capsys, token):
    text, task, want = FAILURE_TOKENS[token]
    code, block = task_block(tmp_path, capsys, text, task)
    assert code == 0
    assert block == want + [f"end {task}"]


def test_t2_eps_over_zero_exits_2(tmp_path, capsys):
    text = (ROOT / "corpus" / "t2_bundle.ek").read_text(
        encoding="utf-8").replace("eps = 1/2\n", "eps = 1/0\n")
    code, err, path = run_text(tmp_path, capsys, text)
    assert code == 2
    assert f"{path}:{line_of(text, '[task bundle]')}:" in err
    assert "eps = '1/0'" in err
    assert "Traceback" not in err


KILLING_TOL = TORUS_HEAD + """[metric g]
diag = 1; 1; 1 + z/1000000000000; 1

[task structure]
op = engel
alpha = alpha
beta = beta
W = W
X = X

[task triple]
op = kengel
data = structure
Z = R
metric = g
{override}"""


@pytest.mark.parametrize("override, verdict", [
    ("", "zero=sampled"),
    ("tol = 1e-15\n", "zero=no value=1e-12 at t=0,x=0,y=0,z=0")])
def test_task_tol_override_changes_a_verdict(tmp_path, capsys, override,
                                             verdict):
    text = KILLING_TOL.format(override=override)
    _, block = task_block(tmp_path, capsys, text, "triple")
    assert f"verdict Killing equation :: {verdict}" in block
    assert ("token kengel_fail Killing (z,z)" in block) == bool(override)


TRANSFORM = NIL4_HEAD + """
[task moved]
op = transform
data = structure
{moves}"""


@pytest.mark.parametrize("moves", ["", "lam = 2\nnu = 1\n"],
                         ids=["no move", "two moves"])
def test_transform_needs_exactly_one_move(tmp_path, capsys, moves):
    text = TRANSFORM.format(moves=moves)
    code, err, path = run_text(tmp_path, capsys, text)
    assert code == 2
    assert f"{path}:{line_of(text, '[task moved]')}:" in err
    assert "transform needs exactly one of lam, mu, nu" in err


def test_kframing_on_an_engel_task_exits_2(tmp_path, capsys):
    text = NIL4_HEAD + "\n[task framing]\nop = kframing\ndata = structure\n"
    code, err, path = run_text(tmp_path, capsys, text)
    assert code == 2
    assert f"{path}:{line_of(text, '[task framing]')}:" in err
    assert "task 'structure' did not produce KEngelData" in err


def test_a_dependent_of_a_failed_triple_fails_as_a_check(tmp_path, capsys):
    # the circle direction X fails the triple check, so the triple hands
    # nothing on and the filling task has nothing to check
    text = (ROOT / "corpus" / "torus.ek").read_text(
        encoding="utf-8").replace("Z = R\n", "Z = X\n")
    code, block = task_block(tmp_path, capsys, text, "fill")
    assert code == 1
    assert block == ["task fill :: filling", "token task_error",
                     "token task_error CheckError",
                     "derived error :: task 'triple' failed, so there is "
                     "nothing to check",
                     "expect filling_pass :: MISMATCH", "end fill"]


FLAT_PAIR = """engelkit-manifest 1

[space]
coord x 0 1
coord y 0 1
coord u 0 1
coord v 0 1

[form alpha]
comps = -cos(2*pi*v); -sin(2*pi*v); 1; x

[form beta]
comps = -sin(2*pi*v); cos(2*pi*v); 0; 0

[field Z]
comps = 0; 0; 1; 0

[task flat]
op = engel
alpha = alpha
beta = beta

[task triple]
op = kengel
data = flat
Z = Z
expect = kengel_pass
"""


def test_a_dependent_of_a_pair_that_is_not_engel_fails_as_a_check(
        tmp_path, capsys):
    # the flat-bundle pair fails its flag condition although it analyzes,
    # so the engel task hands nothing on
    _, block = task_block(tmp_path, capsys, FLAT_PAIR, "flat")
    assert "token engel_fail flag" in block
    code, block = task_block(tmp_path, capsys, FLAT_PAIR, "triple")
    assert code == 1
    assert block == ["task triple :: kengel", "token task_error",
                     "token task_error CheckError",
                     "derived error :: task 'flat' failed, so there is "
                     "nothing to check", "expect kengel_pass :: MISMATCH",
                     "end triple"]


def test_a_dependent_of_a_failed_transform_exits_1(tmp_path, capsys):
    # lam = 0 leaves no defining pair to analyze
    text = (ROOT / "corpus" / "torus.ek").read_text(encoding="utf-8") + """
[task moved]
op = transform
data = structure
lam = 0

[task again]
op = identities
data = moved
"""
    code, block = task_block(tmp_path, capsys, text, "again")
    assert code == 1
    assert block[1:4] == ["token task_error", "token task_error CheckError",
                          "derived error :: task 'moved' failed, so there "
                          "is nothing to check"]


def test_a_dependent_that_takes_arguments_fails_as_a_check(tmp_path,
                                                         capsys):
    # each dependent reads its arguments besides data (Z, metric and rank;
    # plane; lam) before it finds that the transform it names failed
    text = (ROOT / "corpus" / "torus.ek").read_text(encoding="utf-8") + """
[task moved]
op = transform
data = structure
lam = 0

[task triple2]
op = kengel
data = moved
Z = R
metric = orthonormal
rank = 1

[task plane2]
op = geodesic
data = moved
plane = R

[task moved2]
op = transform
data = moved
lam = 2
"""
    path = tmp_path / "case.ek"
    out = tmp_path / "report.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--machine-out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    report = out.read_text(encoding="utf-8")
    for task in ("triple2", "plane2", "moved2"):
        assert (f"token task_error CheckError\nderived error :: task "
                f"'moved' failed, so there is nothing to check\n"
                in report.split(f"task {task} :: ")[1])
    assert report.endswith("mismatches 4\nexit 1\n")


@pytest.mark.parametrize("text, task", [
    (FAILURE_TOKENS["lattice_error"][0], "quotient"),
    ((ROOT / "corpus" / "t2_bundle_flat.ek").read_text(encoding="utf-8"),
     "bundle")], ids=["lattice", "t2"])
def test_a_dependent_of_a_failed_bundle_exits_1(tmp_path, capsys, text,
                                                task):
    # lattice and t2 report their own failures and hand nothing on
    text += f"\n[task again]\nop = kinvariants\ndata = {task}\n"
    code, block = task_block(tmp_path, capsys, text, "again")
    assert code == 1
    assert block[1:4] == ["token task_error", "token task_error CheckError",
                          f"derived error :: task '{task}' failed, so there "
                          f"is nothing to check"]


def test_identities_on_a_geodesic_task_exits_2(tmp_path, capsys):
    # a geodesic task has verdicts, but no analyzed pair as its output
    text = (ROOT / "corpus" / "torus.ek").read_text(encoding="utf-8") + """
[task again]
op = identities
data = reeb_plane
"""
    code, err, path = run_text(tmp_path, capsys, text)
    assert code == 2
    assert f"{path}:{line_of(text, '[task again]')}:" in err
    assert ("task 'reeb_plane' did not produce EngelData or KEngelData"
            in err)


@pytest.mark.parametrize("task, op, key, text", [
    ("structure", "engel", "w", NIL4_HEAD.replace("W = W\n", "w = W\n")),
    ("triple", "kengel", "metrc", NIL4_HEAD + """
[task triple]
op = kengel
data = structure
Z = R
metrc = orthonormal
"""),
    ("plane", "geodesic", "plne", NIL4_HEAD + """
[task plane]
op = geodesic
data = structure
plne = R
""")])
def test_an_argument_the_op_does_not_take_exits_2(tmp_path, capsys, task, op,
                                                  key, text):
    code, err, path = run_text(tmp_path, capsys, text)
    assert code == 2
    assert err == (f"error: {path}:{line_of(text, f'[task {task}]')}: task "
                   f"'{task}': op {op} takes no argument '{key}'\n")


def test_a_manifest_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.ek"
    path.write_bytes("engelkit-manifest 1\n# caf\u00e9\n".encode("latin-1"))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: cannot read manifest: 'utf-8' codec can't decode")


def test_a_machine_report_into_a_missing_directory_exits_2(tmp_path,
                                                           capsys):
    out = tmp_path / "missing" / "report.txt"
    code = main(["run", str(ROOT / "corpus" / "nil4.ek"),
                 "--machine-out", str(out)])
    std = capsys.readouterr()
    assert code == 2
    assert std.err == f"error: cannot write {out}: No such file or directory\n"
    assert std.out == ""   # refused before any task ran


def test_a_machine_report_under_a_regular_file_exits_2(tmp_path, capsys):
    # the operating system's reason is reported, not a missing directory
    parent = tmp_path / "notes.txt"
    parent.write_text("", encoding="utf-8")
    out = parent / "report.txt"
    code = main(["run", str(ROOT / "corpus" / "nil4.ek"),
                 "--machine-out", str(out)])
    std = capsys.readouterr()
    assert code == 2
    assert std.err == f"error: cannot write {out}: Not a directory\n"
    assert std.out == ""


def test_an_emitted_manifest_into_a_missing_directory_exits_2(tmp_path,
                                                              capsys):
    out = tmp_path / "missing" / "nil4.ek"
    assert main(["catalog", "--geometry", "nil4",
                 "--emit-manifest", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: cannot write {out}: No such "
                                       f"file or directory\n")


def test_unknown_geometry_exits_2_naming_the_geometries(capsys):
    assert main(["catalog", "--geometry", "nosuch"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: unknown geometry 'nosuch'; choose from "
                       f"{', '.join(sorted(GEOMETRIES))}\n")


def test_integrability_of_an_unknown_task_exits_2(tmp_path, capsys):
    text = NIL4_HEAD + "\n[task reeb]\nop = integrability\ndata = nosuch\n"
    code, err, path = run_text(tmp_path, capsys, text)
    assert code == 2
    assert f"{path}:{line_of(text, '[task reeb]')}:" in err
    assert "no prior task 'nosuch'" in err
