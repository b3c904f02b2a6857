"""Report rendering of task verdicts."""

from pathlib import Path

from engelkit import report as report_module
from engelkit.manifest import parse_manifest
from engelkit.report import run_manifest
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
