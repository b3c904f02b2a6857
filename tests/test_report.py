"""Report rendering of task verdicts."""

import copy
from pathlib import Path

import pytest

from engelkit import expr as ex
from engelkit import report as report_module
from engelkit.catalog import CatalogError
from engelkit.engel import EngelError
from engelkit.frames import FrameError
from engelkit.kengel import KEngelData, KEngelError
from engelkit.manifest import ManifestError, load_manifest, parse_manifest
from engelkit.report import run_manifest
from engelkit.qfield import FieldError
from engelkit.sampling import SamplingPolicy, Verdict

ROOT = Path(__file__).resolve().parent.parent


def torus_with_kengel_metric(diag):
    head = (ROOT / "corpus" / "torus.ek").read_text(encoding="utf-8")
    head = head.split("[task ")[0]
    return parse_manifest(head + f"""
[metric g]
diag = {diag}

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
""")


def test_a_manifest_loaded_from_a_path_reports_as_from_a_string():
    path = ROOT / "corpus" / "nil4.ek"
    policy = SamplingPolicy(seed=0, n_samples=16)
    by_path = run_manifest(load_manifest(path), policy).machine_text()
    assert "\nmanifest nil4.ek\n" in by_path
    assert by_path == run_manifest(load_manifest(str(path)),
                                   policy).machine_text()


def triple_lines(mf):
    report = run_manifest(mf, SamplingPolicy(seed=0, n_samples=32))
    res = next(r for r in report.results if r.name == "triple")
    return {name: text for kind, name, text in res.lines}, res.tokens


def test_killing_equation_reports_a_sampled_residual():
    # d/dz of the g_zz weight is 2cos(2z) - 2cos(z)^2 + 2sin(z)^2, which
    # vanishes identically but only by sampling
    lines, tokens = triple_lines(
        torus_with_kengel_metric("1; 1; 1 + sin(2*z) - 2*sin(z)*cos(z); 1"))
    assert lines["Killing equation"] == "zero=sampled"
    assert not any(t.startswith("kengel_fail Killing") for t in tokens)


def test_killing_equation_shows_the_first_failing_residual():
    lines, tokens = triple_lines(torus_with_kengel_metric("1; 1; 1 + z; 1"))
    assert lines["Killing equation"].startswith("zero=no value=1 at ")
    assert "kengel_fail Killing (z,z)" in tokens


def task_tokens(text, name):
    report = run_manifest(parse_manifest(text),
                          SamplingPolicy(seed=0, n_samples=32))
    return next(r for r in report.results if r.name == name).tokens


def test_filling_on_a_rank_three_lattice_emits_no_junk_tokens():
    head = (ROOT / "corpus" / "torus.ek").read_text(encoding="utf-8")
    tokens = task_tokens(head.split("[task ")[0] + """
[lattice irrational]
gens = 2 3
row = 1; 0; 0; 0
row = 0; 1; 0; 0
row = -sqrt2; -sqrt3; 1; 0
row = 0; 0; 0; 1

[task quotient]
op = lattice
lattice = irrational

[task fill]
op = filling
data = quotient
""", "fill")
    assert tokens == {"filling_fail"}


def test_integrability_fails_when_frobenius_disagrees(monkeypatch):
    # a closure determinant that fails beside a passing "integrable" verdict
    real = report_module.integrability_report

    def skewed(data, policy):
        out = real(data, policy)
        out["closure det with W"] = Verdict("nonzero", 1.0, {"z": 0.0})
        return out

    monkeypatch.setattr(report_module, "integrability_report", skewed)
    head = (ROOT / "corpus" / "torus.ek").read_text(encoding="utf-8")
    report = run_manifest(parse_manifest(head.split("[task triple]")[0] + """
[task reeb]
op = integrability
data = structure
expect = not_integrable
"""), SamplingPolicy(seed=0, n_samples=32))
    res = report.results[-1]
    assert res.tokens == {"integrability_fail",
                          "integrability_fail frobenius disagrees"}
    assert ("derived", "frobenius agrees", "no") in res.lines
    assert report.exit_code == 1


def test_a_construction_error_fails_its_op_with_the_failing_checks(
        monkeypatch):
    # every op reports a KEngelError the same way: <op>_fail, one token per
    # failing check, and the message as an error line
    def broken(*args, **kwargs):
        raise KEngelError("the Reeb field is not the torus direction",
                          ["Reeb direction"])

    monkeypatch.setattr(report_module, "t2_bundle_condition", broken)
    text = (ROOT / "corpus" / "t2_bundle.ek").read_text(encoding="utf-8")
    report = run_manifest(parse_manifest(text.split("[task invariants]")[0]),
                          SamplingPolicy(seed=0, n_samples=32))
    res = report.results[-1]
    assert res.tokens == {"t2_fail", "t2_fail Reeb direction"}
    assert res.lines == [("derived", "error",
                          "the Reeb field is not the torus direction")]
    assert res.output is None
    assert report.exit_code == 1


def _read(*parts):
    return ROOT.joinpath(*parts).read_text(encoding="utf-8")


TORUS = _read("corpus", "torus.ek")
# per op that hands on an object: a manifest with a task of that op, and
# the task's name
HANDING_ON = {
    "engel": (TORUS, "structure"),
    "kengel": (TORUS, "triple"),
    "kframing": (TORUS + "\n[task framed]\nop = kframing\ndata = triple\n",
                 "framed"),
    "transform": (TORUS + "\n[task moved]\nop = transform\n"
                          "data = structure\nlam = 2\n", "moved"),
    "lattice": (_read("tests", "manifests", "lattice.ek"), "circle"),
    "bw": (_read("corpus", "heisenberg_bw.ek"), "bundle"),
    "t2": (_read("corpus", "t2_bundle.ek"), "bundle"),
}
PRODUCERS = sorted(op for op, made in report_module.MAKES.items()
                   if made is not type(None))


def _failing_flag(built):
    """A copy of a built object whose pair fails its flag condition."""
    if built is None:
        return None
    pair = copy.copy(built.data if isinstance(built, KEngelData) else built)
    pair.defining = dict(pair.defining,
                         flag=Verdict("nonzero", 1.0, {"x": 0.0}))
    if not isinstance(built, KEngelData):
        return pair
    built = copy.copy(built)
    built.data = pair
    return built


@pytest.mark.parametrize("op", PRODUCERS)
def test_an_object_is_handed_on_only_when_its_pair_passed(monkeypatch, op):
    # one rule in run_manifest, for every op that can hand on: the object
    # whose pair fails a defining check is not handed on, whatever the op
    # reported, and a task naming it fails as a check
    text, task = HANDING_ON[op]
    text += f"\n[task again]\nop = kinvariants\ndata = {task}\n"
    policy = SamplingPolicy(seed=0, n_samples=32)

    def results():
        report = run_manifest(parse_manifest(text), policy)
        return {res.name: res for res in report.results}

    passed = results()
    assert isinstance(passed[task].output, report_module.MAKES[op])
    assert passed["again"].tokens == {"invariants_pass"}
    real = report_module.OPS[op]
    monkeypatch.setitem(report_module.OPS, op,
                        lambda *args: _failing_flag(real(*args)))
    failing = results()
    assert failing[task].tokens == passed[task].tokens
    assert failing[task].output is None
    assert failing["again"].tokens == {"task_error", "task_error CheckError"}
    assert failing["again"].lines == [
        ("derived", "error",
         f"task '{task}' failed, so there is nothing to check")]


@pytest.mark.parametrize("path", sorted((ROOT / "corpus").glob("*.ek"))
                         + sorted((ROOT / "tests" / "manifests").glob("*.ek")),
                         ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_a_handed_on_object_has_the_type_its_op_declares(path):
    report = run_manifest(load_manifest(path),
                          SamplingPolicy(seed=0, n_samples=64))
    for res in report.results:
        if res.output is not None:
            assert isinstance(res.output, report_module.MAKES[res.op])


@pytest.mark.parametrize("cls", [EngelError, CatalogError, FieldError,
                                 FrameError, ex.ExprError, ex.ParseError])
def test_an_input_a_check_cannot_handle_is_a_task_error(monkeypatch, cls):
    # run_manifest reports every CheckError, whatever module raised it, as
    # task_error and the class name
    def broken(*args):
        raise cls("cannot handle this")

    monkeypatch.setattr(report_module, "identity_suite", broken)
    head = (ROOT / "corpus" / "torus.ek").read_text(encoding="utf-8")
    tokens = task_tokens(head.split("[task identities]")[0] + """
[task again]
op = identities
data = structure
""", "again")
    assert issubclass(cls, ex.CheckError)
    assert tokens == {"task_error", f"task_error {cls.__name__}"}


@pytest.mark.parametrize("cls", [KEngelError, ManifestError])
def test_construction_and_manifest_errors_are_not_check_errors(cls):
    # each is caught before CheckError: a failed construction fails its op,
    # a bad reference ends the run with exit 2
    assert not issubclass(cls, ex.CheckError)


def exit_code_in_process(path):
    """`engelkit run`'s exit code, through load_manifest and run_manifest;
    any exception escapes."""
    try:
        mf = load_manifest(str(path))
    except ManifestError:
        return 2
    report = run_manifest(mf, SamplingPolicy(seed=0, n_samples=64))
    return 2 if report.reference_error is not None else report.exit_code


def nil4_with(tmp_path, old, new):
    text = (ROOT / "corpus" / "nil4.ek").read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / "huge.ek"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return path


# a component past the float range used to end in an OverflowError
@pytest.mark.parametrize("old, new", [
    ("[field W]\ncomps = 1;", "[field W]\ncomps = -10^400;"),
    pytest.param(
        "[form alpha]\ncomps = 0; 0; -1;",
        "[form alpha]\ncomps = 0; 0; -10^400;",
        # the framing then degenerates under tolerance, and op_engel's
        # failure path calls check_defining_forms, which report.py does not
        # import (a known defect; bench/tests relies on the crash)
        marks=pytest.mark.xfail(raises=NameError, strict=True))])
def test_a_huge_rational_component_ends_in_an_exit_code(tmp_path, old, new):
    assert exit_code_in_process(nil4_with(tmp_path, old, new)) in (0, 1, 2)


def itself(out):
    return out


def first(out):
    return out[0]


# every check an op calls, and how to find the verdicts in what it returns
CHECKS = {
    "analyze": lambda data: data.defining,
    "kengel_check": itself,
    "kengel_invariants": itself,
    "identity_suite": itself,
    "contactization_report": first,
    "tangency_report": first,
    "bracket_pattern_report": itself,
    "dbeta2_criterion": first,
    "integrability_report": itself,
    "transform_forms": lambda out: out[1],
    "rho_criterion": first,
    "boothby_wang": first,
    "filling_check": itself,
    "t2_bundle_condition": first,
}


def test_every_check_returns_a_dict_of_verdicts_only(monkeypatch):
    # derived objects travel beside the verdicts, never among them
    seen = {name: [] for name in CHECKS}

    def wrap(name, real):
        def check(*args, **kwargs):
            out = real(*args, **kwargs)
            seen[name].append(CHECKS[name](out))
            return out
        return check

    for name in CHECKS:
        monkeypatch.setattr(report_module, name,
                            wrap(name, getattr(report_module, name)))
    for path in sorted((ROOT / "corpus").glob("*.ek")) + sorted(
            (ROOT / "tests" / "manifests").glob("*.ek")):
        run_manifest(load_manifest(str(path)),
                     SamplingPolicy(seed=0, n_samples=64))
    for name, results in seen.items():
        assert results, f"no manifest calls {name}"
        for verdicts in results:
            assert type(verdicts) is dict and verdicts, name
            bad = {k: type(v).__name__ for k, v in verdicts.items()
                   if not isinstance(v, Verdict)}
            assert not bad, f"{name} returns non-verdicts {bad}"


TORUS_REEB_T = "reeb T = -sin(2*pi*t); cos(2*pi*t); 0; 0"


@pytest.mark.parametrize("want, mark", [
    ("-2*sin(pi*t)*cos(pi*t); cos(pi*t)^2 - sin(pi*t)^2; 0; 0", "ok"),
    ("-2*sin(pi*t)*cos(pi*t); cos(pi*t)^2 - sin(pi*t)^2 + 1/1000; 0; 0",
     "MISMATCH"),
])
def test_reeb_expectation_is_decided_by_the_zero_check(want, mark):
    # T equals the first expectation only through the double-angle
    # identities, which cleanup does not apply
    text = (ROOT / "corpus" / "torus.ek").read_text(encoding="utf-8")
    assert TORUS_REEB_T in text
    raw = f"reeb T = {want}"
    report = run_manifest(parse_manifest(text.replace(TORUS_REEB_T, raw)),
                          SamplingPolicy(seed=0, n_samples=64))
    assert f"expect {raw} :: {mark}\n" in report.machine_text()
    assert report.exit_code == (0 if mark == "ok" else 1)
