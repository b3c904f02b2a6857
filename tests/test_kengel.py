"""The triple check, the adapted K-Engel framing, and the metric a section
of the plane field induces."""

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from engelkit import expr as ex
from engelkit import frames, report
from engelkit.engel import analyze, dbeta2_criterion, integrability_report
from engelkit.frames import FrameSpace, bracket, determinant, zero
from engelkit.kengel import (KEngelData, KEngelError, certify,
                             form_conditions, kengel_check, kengel_framing,
                             kengel_invariants)
from engelkit.manifest import load_manifest, parse_manifest
from engelkit.metric import (framing_metric, orthonormal_metric,
                             tangency_report)
from engelkit.sampling import SamplingPolicy, failed, is_zero_many

TAU = 2 * math.pi


def prolong_space(k):
    """Invariant 3-frame [A,B] = C, [B,C] = kA, [C,A] = kB, plus a circle."""
    return FrameSpace(
        [("lie", "A"), ("lie", "B"), ("lie", "C"),
         ("coord", "t", 0, TAU)],
        brackets={("A", "B"): [0, 0, 1, 0],
                  ("B", "C"): [k, 0, 0, 0],
                  ("C", "A"): [0, k, 0, 0]})


def lorentz_data(policy, k=1):
    """Turning the frame inside the plane spanned with the circle."""
    sp = prolong_space(k)
    alpha = sp.one_form([sp.scalar("cos(t)"), sp.scalar("sin(t)"),
                         ex.ONE, ex.ZERO])
    beta = sp.one_form([sp.scalar("-sin(t)"), sp.scalar("cos(t)"),
                        ex.ZERO, ex.ZERO])
    W = sp.field([sp.scalar("cos(t)"), sp.scalar("sin(t)"),
                  ex.rat(-1), ex.rat(k + 1)])
    return analyze(sp, alpha, beta, policy, W=W, X=sp.basis_field(3))


def cartan_data(policy, k=-1):
    """Turning the frame transverse to the circle direction."""
    sp = prolong_space(k)
    alpha = sp.one_form([ex.ZERO, ex.ZERO, ex.ONE, ex.ZERO])
    beta = sp.one_form([sp.scalar("-sin(t)"), sp.scalar("cos(t)"),
                        ex.ZERO, ex.ZERO])
    X = sp.field([sp.scalar("cos(t)"), sp.scalar("sin(t)"),
                  ex.ZERO, ex.ZERO])
    return analyze(sp, alpha, beta, policy, W=sp.basis_field(3), X=X)


def field_is_zero(V, policy):
    return is_zero_many([ex.cleanup(c) for c in V.comps],
                        V.space.coord_ranges, policy).ok


def form_is_zero(w, policy):
    return is_zero_many([ex.cleanup(c) for c in w.comps.values()]
                        or [ex.ZERO], w.space.coord_ranges, policy).ok


# -- form conditions and invariants ----------------------------------------

def test_form_conditions_torus(torus, policy):
    out = form_conditions(torus, policy)
    assert sorted(out) == ["beta ^ d(alpha)", "d(alpha)^2", "d(beta)^2"]
    assert all(v.ok for v in out.values())
    assert out["beta ^ d(alpha)"].kind == "exact"


def test_kengel_invariants_torus(torus, policy):
    out = kengel_invariants(torus, policy)
    ok = not failed(out)
    assert ok
    assert out["[W,R]"].kind == "exact"
    assert out["R(a_WX)"].kind == "exact"
    assert out["b_WX"].ok
    assert out["d_WR"].ok
    assert out["b_XT + a_WT"].ok


def test_kengel_invariants_nil4(nil4, policy):
    out = kengel_invariants(nil4, policy)
    ok = not failed(out)
    assert ok
    assert all(v.kind == "exact" for v in out.values())


# -- the triple check --------------------------------------------------------

def test_kengel_check_torus_reeb(torus, policy):
    g = orthonormal_metric(torus)
    report = kengel_check(torus, g, torus.R, policy)
    assert not failed(report)
    assert report["[Z,W] stays in the plane"].ok
    assert report["g(Z,[W,X])"].ok


def test_kengel_check_nil4_exact(nil4, policy):
    report = kengel_check(nil4, orthonormal_metric(nil4), nil4.R, policy)
    assert not failed(report)
    for name in ("[Z,W] stays in the plane", "[Z,X] stays in the plane"):
        assert report[name].kind == "exact"


def test_kengel_check_rejects_circle_direction(torus, policy):
    # the circle direction drags the plane field around, is not Killing
    # for the framing metric, and is not orthogonal to the section
    g = orthonormal_metric(torus)
    Z = torus.space.basis_field(3)
    report = kengel_check(torus, g, Z, policy)
    assert not report["[Z,W] stays in the plane"].ok
    assert not report["g(Z,X)"].ok
    assert any(name.startswith("Killing ") for name in failed(report))


# -- the Engel condition against its determinant form ------------------------

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def determinant_engel(data, Z, policy):
    """The Engel verdicts as det(W, X, [Z,V], T) and det(W, X, [Z,V], R):
    alpha and beta of [Z,V] times -det(W, X, T, R) and det(W, X, T, R)."""
    W, X, T, R = data.framing()
    return {f"{name} stays in the plane": zero(
        [determinant([W, X, B, T]), determinant([W, X, B, R])],
        data.space.coord_ranges, policy)
        for name, B in (("[Z,W]", bracket(Z, W)), ("[Z,X]", bracket(Z, X)))}


def corpus_kengel_pairs(monkeypatch, name):
    """(data, g, Z, policy) of every kengel task of a corpus manifest."""
    seen = []
    check = report.kengel_check

    def recording(data, g, Z, policy):
        seen.append((data, g, Z, policy))
        return check(data, g, Z, policy)

    monkeypatch.setattr(report, "kengel_check", recording)
    report.run_manifest(load_manifest(str(CORPUS / f"{name}.ek")),
                        SamplingPolicy(seed=0, n_samples=64))
    return seen


@pytest.mark.parametrize("name", ["cartan_km1", "lorentz_k1", "nil4",
                                  "torus"])
def test_engel_pairings_agree_with_the_determinants(monkeypatch, name):
    pairs = corpus_kengel_pairs(monkeypatch, name)
    assert pairs
    for data, g, Z, policy in pairs:
        # Z + W and Z + T drag X out of the plane: [W,X] and [T,X] leave it
        for V in (Z, (Z + data.W).cleanup(), (Z + data.T).cleanup()):
            got = kengel_check(data, g, V, policy)
            want = determinant_engel(data, V, policy)
            for key in want:
                verdict = got[key]
                assert (verdict.ok, verdict.point) == \
                    (want[key].ok, want[key].point), key
            assert got["[Z,X] stays in the plane"].ok == (V is Z)


def counted_brackets(monkeypatch):
    """Calls of frames.bracket from any engelkit module, as a list."""
    calls = []
    bracket_ = frames.bracket

    def counted(*args):
        calls.append(args)
        return bracket_(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("engelkit") and \
                getattr(module, "bracket", None) is bracket_:
            monkeypatch.setattr(module, "bracket", counted)
    return calls


def test_invariants_and_integrability_read_the_stored_brackets(
        monkeypatch, torus, policy):
    calls = counted_brackets(monkeypatch)
    assert not failed(kengel_invariants(torus, policy))
    assert calls == []
    assert integrability_report(torus, policy)["integrable"].ok
    assert calls == []


def test_tangency_and_dbeta2_read_the_stored_brackets(
        monkeypatch, torus, nil4, policy):
    g = orthonormal_metric(torus)
    calls = counted_brackets(monkeypatch)
    for plane in ("D", "R"):
        assert failed(tangency_report(torus, g, plane, policy)[0])
    assert calls == []
    assert dbeta2_criterion(nil4, policy)[1] == ex.ONE
    assert calls == []


# -- the adapted framing -----------------------------------------------------

def triple(data, Z, rank=None):
    """The triple (data, orthonormal metric, Z), as a kengel task hands
    it on once it passes."""
    return KEngelData(data, orthonormal_metric(data), Z, rank=rank)


def circle_triple_run(tail):
    """torus.ek with the triple's Z the circle direction X, then tail; the
    results by task name."""
    text = (CORPUS / "torus.ek").read_text(encoding="utf-8")
    rep = report.run_manifest(parse_manifest(text.replace("Z = R\n",
                                                          "Z = X\n") + tail),
                              SamplingPolicy(seed=0, n_samples=64))
    return {res.name: res for res in rep.results}


def test_kengel_framing_torus_keeps_forms(torus, policy):
    kd = kengel_framing(triple(torus, torus.R), policy)
    # alpha(R) = 1 already, and beta = -L_X alpha holds on the nose
    assert form_is_zero(kd.data.alpha - torus.alpha, policy)
    assert form_is_zero(kd.data.beta - torus.beta, policy)
    assert field_is_zero(kd.Z - torus.R, policy)
    assert kd.rank is None


def test_kengel_framing_rejects_circle_direction():
    # the kengel task refuses the circle direction and hands nothing on, so
    # a kframing task on it fails as a check, naming the failed task
    results = circle_triple_run("\n[task framing]\nop = kframing\n"
                                "data = triple\n")
    assert results["triple"].output is None
    assert results["framing"].tokens == {"task_error",
                                         "task_error CheckError"}
    assert results["framing"].lines == [
        ("derived", "error", "task 'triple' failed, so there is nothing to "
                             "check")]


def test_lorentz_prolongation_table(policy):
    data = lorentz_data(policy)
    expected = {"c_WX": 1, "a_XT": 1, "b_XT": 1, "d_XT": 1,
                "a_WT": -1, "b_WT": -2}
    for key, val in data.table.items():
        assert val == ex.rat(expected.get(key, 0)), key
    assert data.u == ex.ONE
    assert data.v == ex.rat(-1)
    assert list(data.R.comps) == [ex.ZERO, ex.ZERO, ex.ONE, ex.rat(-1)]


def test_lorentz_prolongation_is_kengel(policy):
    data = lorentz_data(policy)
    kd = kengel_framing(triple(data, data.R), policy)
    out = kengel_invariants(kd.data, policy)
    ok = not failed(out)
    assert ok
    assert all(v.kind == "exact" for v in out.values())


def test_cartan_prolongation_table(policy):
    data = cartan_data(policy)
    expected = {"c_WX": 1, "a_XT": -1, "d_XT": 1, "b_WT": -1}
    for key, val in data.table.items():
        assert val == ex.rat(expected.get(key, 0)), key
    assert data.u == ex.ONE
    assert data.v == ex.ONE
    # the direction commuting with the framing is C + dt, not C - dt
    assert list(data.R.comps) == [ex.ZERO, ex.ZERO, ex.ONE, ex.ONE]


def test_cartan_prolongation_is_kengel(policy):
    data = cartan_data(policy)
    kd = kengel_framing(triple(data, data.R), policy)
    out = kengel_invariants(kd.data, policy)
    ok = not failed(out)
    assert ok


def test_cartan_flipped_circle_direction_fails(policy):
    # C - dt (at k = -1) drags the section: [C - dt, X] = -2 [W, X]
    data = cartan_data(policy)
    sp = data.space
    Z = sp.field([ex.ZERO, ex.ZERO, ex.ONE, ex.rat(-1)])
    drag = bracket(Z, data.X)
    assert not field_is_zero(drag, policy)
    assert field_is_zero(drag + bracket(data.W, data.X).scale(ex.rat(2)),
                         policy)
    report = kengel_check(data, orthonormal_metric(data), Z, policy)
    assert not report["[Z,X] stays in the plane"].ok


def test_kengel_framing_rescales_alpha(torus, policy):
    # 2R passes the triple check, so alpha is halved to make alpha(Z) = 1
    Z = torus.R.scale(ex.rat(2)).cleanup()
    kd = kengel_framing(triple(torus, Z, rank=1), policy)
    half = ex.rat(Fraction(1, 2))
    assert form_is_zero(kd.data.alpha - torus.alpha.scale(half), policy)
    assert field_is_zero(kd.data.R - Z, policy)
    assert kd.rank == 1
    assert not failed(kengel_invariants(kd.data, policy))


def test_rank1_perturbation_identity(torus, policy):
    # re-fibring along R itself leaves the forms alone and carries the rank
    kd = kengel_framing(triple(torus, torus.R, rank=1), policy)
    assert form_is_zero(kd.data.alpha - torus.alpha, policy)
    assert form_is_zero(kd.data.beta - torus.beta, policy)
    assert kd.rank == 1


def test_rank1_perturbation_needs_commuting_field():
    # the circle direction does not commute with the framing: it drags W
    # out of the plane, and that is named among the failed checks
    res = circle_triple_run("")["triple"]
    assert "kengel_fail [Z,W] stays in the plane" in res.tokens
    assert "kengel_pass" not in res.tokens
    kind, name, text = res.lines[-1]
    assert (kind, name) == ("derived", "error")
    assert text.startswith("the triple check fails: ")


# -- the metric making the framing built from a section orthonormal ----------

def section_metric(data, X):
    return framing_metric(data.space, (data.W, X, data.T, data.R))


def test_converse_metric_torus(torus, policy):
    g = section_metric(torus, torus.X)
    assert not failed(kengel_check(torus, g, torus.R, policy))
    gref = orthonormal_metric(torus)
    for i in range(4):
        for j in range(4):
            diff = ex.cleanup(ex.add(g.matrix[i][j],
                                     ex.neg(gref.matrix[i][j])))
            assert ex.normalize(diff) == ex.ZERO


def test_converse_metric_plain_circle_section(torus, policy):
    # any constant rescaling of the section gives another valid metric
    g = section_metric(torus, torus.space.basis_field(3))
    assert not failed(kengel_check(torus, g, torus.R, policy))


def test_converse_metric_nil4_exact(nil4, policy):
    report = kengel_check(nil4, section_metric(nil4, nil4.X), nil4.R, policy)
    assert not failed(report)
    assert all(v.kind == "exact" for name, v in report.items()
               if not name.startswith("Killing "))


def test_converse_metric_needs_eigen_section(torus, policy):
    # adding z times W to the section makes [R, X] pick up a W-component,
    # and the R-flow no longer preserves the induced metric
    sp = torus.space
    z = sp.scalar("z")
    X = (sp.basis_field(3) + torus.W.scale(z)).cleanup()
    report = kengel_check(torus, section_metric(torus, X), torus.R, policy)
    assert failed(report) == ["Killing (x,t)", "Killing (y,t)",
                              "Killing (t,t)"]


def test_converse_metric_rejects_rescaling_flow(torus, policy):
    # a z-dependent rescaling of the section is dragged by the R-flow
    sp = torus.space
    f = sp.scalar("2 + sin(2*pi*z)")
    X = torus.X.scale(f).cleanup()
    report = kengel_check(torus, section_metric(torus, X), torus.R, policy)
    assert failed(report) == ["Killing (t,t)"]


def test_converse_metric_rejects_bad_forms(torus, policy):
    # rescaling beta by a z-dependent factor breaks d(beta)^2 = 0
    sp = torus.space
    f = sp.scalar("1 + cos(2*pi*z)/2")
    beta = torus.beta.scale(f).cleanup()
    data = analyze(sp, torus.alpha, beta, policy,
                   W=torus.W, X=torus.X)
    assert failed(form_conditions(data, policy)) == ["d(beta)^2"]


def test_certify_passes_the_reeb_direction(torus, policy):
    assert certify(torus, torus.R, policy, "Reeb direction is not R",
                   "the torus") is None
    inv = kengel_invariants(torus, policy)
    assert inv and not failed(inv)


def test_certify_names_a_failing_reeb_check(torus, policy):
    with pytest.raises(KEngelError,
                       match="^Reeb direction is not W: zero=no ") as err:
        certify(torus, torus.W, policy, "Reeb direction is not W",
                "the torus")
    assert err.value.names == ["Reeb direction"]
