import sys
from pathlib import Path

import pytest

from engelkit import expr as ex
from engelkit import sampling
from engelkit.engel import (EngelError, analyze, characteristic_field,
                            check_defining_forms, complement_field,
                            dbeta2_criterion, identity_suite,
                            integrability_report, reeb_pair, rho_criterion,
                            transform_forms)
from engelkit.frames import d, fmt_field, interior, pair, wedge, zero
from engelkit.manifest import load_manifest

from conftest import torus_forms, torus_framing_hints, torus_space
from oracle import FDFrame, framing_coefficient_sum

ROOT = Path(__file__).resolve().parent.parent


def test_torus_defining(torus, policy):
    out = check_defining_forms(torus.space, torus.alpha, torus.beta, policy)
    assert out["nonintegrability"].ok
    assert out["span"].ok
    assert out["flag"].kind == "exact"


def test_torus_characteristic_normalization(policy):
    sp = torus_space()
    alpha, _ = torus_forms(sp)
    W = characteristic_field(sp, alpha, policy)
    assert W.comps == (sp.scalar("cos(2*pi*t)"), sp.scalar("sin(2*pi*t)"),
                       ex.ONE, ex.ZERO)


def test_torus_complement(policy):
    sp = torus_space()
    alpha, beta = torus_forms(sp)
    W, _ = torus_framing_hints(sp)
    X = complement_field(sp, alpha, beta, W)
    assert X.comps == (ex.ZERO, ex.ZERO, ex.ZERO, ex.ONE)


def _torus_pair():
    sp = torus_space()
    alpha, beta = torus_forms(sp)
    return sp, alpha, beta, torus_framing_hints(sp)[0], "x"


def _cartan_pair():
    m = load_manifest(str(ROOT / "corpus" / "cartan_km1.ek"))
    return m.space, m.forms["alpha"], m.forms["beta"], m.fields["W"], "t"


CASES = {"torus": _torus_pair, "cartan_km1": _cartan_pair}


def _wrap_everywhere(monkeypatch, fn, calls):
    """Replace fn by a call-recording wrapper in every engelkit module that
    binds it."""
    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "engelkit" or name.startswith("engelkit."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)


@pytest.mark.parametrize("case", CASES)
def test_complement_field_samples_nothing(case, policy, monkeypatch):
    sp, alpha, beta, W, _ = CASES[case]()
    calls = []
    for fn in (sampling.nonvanishing, sampling.is_zero_many):
        _wrap_everywhere(monkeypatch, fn, calls)
    X = complement_field(sp, alpha, beta, W)
    assert calls == []
    # the wrappers do see the sampled steps of the pipeline
    reeb_pair(sp, alpha, beta, policy)
    assert calls
    monkeypatch.undo()
    for theta in (alpha, beta):
        assert zero([pair(theta, X)], sp.coord_ranges, policy).kind == "exact"


@pytest.mark.parametrize("case", CASES)
def test_complement_of_a_nowhere_rational_W(case, policy):
    """A W hint scaled by 1 + c^2 has no rational component, so X comes
    from the fallback gamma = W♭; the adapted W' and X' do not see it."""
    sp, alpha, beta, W, c = CASES[case]()
    scaled = W.scale(sp.scalar(f"1 + {c}^2")).cleanup()
    assert not any(comp[0] == "rat" and comp[1] for comp in scaled.comps)
    plain = analyze(sp, alpha, beta, policy, W=W)
    fallback = analyze(sp, alpha, beta, policy, W=scaled)
    for A, B in ((plain.W, fallback.W), (plain.X, fallback.X)):
        assert zero(A - B, sp.coord_ranges, policy).ok


@pytest.mark.parametrize("case", CASES)
def test_characteristic_field_samples_nothing(case, policy, monkeypatch):
    """K = kernel_line(alpha ^ dalpha) has a nonzero constant component on
    both pairs, so W divides by one and no check samples.  On the torus K
    is -2*pi*(cos(2*pi*t), sin(2*pi*t), 1, 0): -2*pi*cos(2*pi*t) vanishes at
    t = 1/4 and is never a divisor."""
    sp, alpha, _, _, _ = CASES[case]()
    calls = []
    for fn in (sampling.nonvanishing, sampling.is_zero_many):
        _wrap_everywhere(monkeypatch, fn, calls)
    W = characteristic_field(sp, alpha, policy)
    assert calls == []
    monkeypatch.undo()
    v = zero(interior(W, wedge(alpha, d(alpha))), sp.coord_ranges, policy)
    assert v.kind == "exact"


def test_characteristic_field_samples_without_a_constant(policy,
                                                         monkeypatch):
    """Scaled by 1 + x^2, alpha ^ dalpha has no constant component in its
    kernel line, so each component is sampled; W is unchanged."""
    sp = torus_space()
    alpha, _ = torus_forms(sp)
    W = characteristic_field(sp, alpha, policy)
    calls = []
    _wrap_everywhere(monkeypatch, sampling.nonvanishing, calls)
    scaled = characteristic_field(sp, alpha.scale(sp.scalar("1 + x^2")),
                                  policy)
    assert calls == ["nonvanishing"] * 4
    assert scaled.comps == W.comps


def test_torus_transverse_pair(policy):
    sp = torus_space()
    alpha, beta = torus_forms(sp)
    T, R = reeb_pair(sp, alpha, beta, policy)
    assert fmt_field(T) == "-sin(2*pi*t); cos(2*pi*t); 0; 0"
    assert fmt_field(R) == "0; 0; 1; 0"


def test_torus_adapted_framing(torus):
    sp = torus.space
    assert torus.u == ex.rat(-1)
    assert torus.v == sp.scalar("1/(2*pi)")
    assert torus.W.comps == (sp.scalar("-cos(2*pi*t)"),
                             sp.scalar("-sin(2*pi*t)"), ex.rat(-1), ex.ZERO)
    assert torus.X.comps == (ex.ZERO, ex.ZERO, ex.ZERO, sp.scalar("1/(2*pi)"))


def test_torus_table(torus):
    t = torus.table
    assert t["c_WX"] == ex.ONE
    assert t["a_XT"] == ex.ONE
    assert t["d_XT"] == ex.ONE
    for key, val in t.items():
        if key not in ("c_WX", "a_XT", "d_XT"):
            assert val == ex.ZERO, (key, val)


def test_torus_identities_exact(torus, policy):
    for name, verdict in identity_suite(torus, policy).items():
        assert verdict.kind == "exact", name


def test_torus_integrability(torus, policy):
    out = integrability_report(torus, policy)
    assert torus.table["c_TR"] == ex.ZERO
    assert out["c_TR matches dbeta(R,T)"].ok
    assert out["kernel contains T"].ok
    assert out["kernel contains R"].ok
    assert out["integrable"].kind == "exact"
    assert out["closure det with W"].ok
    assert out["closure det with X"].ok


def test_torus_dbeta2(torus, policy):
    out, mu = dbeta2_criterion(torus, policy)
    assert out["a_WR + b_XR"].ok
    assert mu == torus.space.scalar("-1/(2*pi)")
    assert out["d(mu beta)^2"].ok


def oracle_field(V, scale=ex.ONE):
    return lambda x: [ex.evaluate(ex.div(c, scale), x) for c in V.comps]


@pytest.mark.parametrize("name", ["torus", "nil4", "sheared", "rescaled"])
def test_dbeta2_sum_matches_the_unscaled_framing(name, torus, nil4, policy):
    # the sum is read from the rescaled table; the oracle brackets the
    # framing before rescaling, (W/u, X/v, T, R), by finite differences.
    # Only the rescaled pair has an R(mu)/mu term: mu varies along R.
    moves = {"sheared": ("nu", "sin(2*pi*z)"),
             "rescaled": ("mu", "2 + sin(2*pi*z)")}
    data = {"torus": torus, "nil4": nil4}.get(name) or transform_forms(
        torus, moves[name][0], torus.space.scalar(moves[name][1]),
        policy)[0]
    sp = data.space
    frame = FDFrame([c for c, *_ in sp.coord_ranges], sp.names, {
        (sp.names[i], sp.names[j]): {sp.names[k]: c
                                     for k, c in enumerate(vec) if c}
        for (i, j), vec in sp.structure.items()})
    fields = (oracle_field(data.W, data.u), oracle_field(data.X, data.v),
              oracle_field(data.T), oracle_field(data.R))
    cols = policy.points(sp.coord_ranges)
    sums = [framing_coefficient_sum(frame, *fields,
                                    {c: cols[c][i] for c in cols})
            for i in range(8)]
    v = dbeta2_criterion(data, policy)[0]["a_WR + b_XR"]
    if name == "sheared":
        assert v.kind == "nonzero" and max(map(abs, sums)) > 0.1
        assert v.value == pytest.approx(
            framing_coefficient_sum(frame, *fields, dict(v.point)), abs=1e-6)
    else:
        assert v.ok and max(map(abs, sums)) < 1e-6


def test_torus_rho(torus, policy):
    out, _, drho_zero = rho_criterion(torus, policy)
    assert out["dalpha^2"].kind == "exact"
    assert out["beta + X(alpha)"].ok
    assert out["(L_R rho) ^ beta"].ok
    assert out["a_WR"].ok and out["a_XR"].ok
    assert drho_zero.kind == "nonzero"


def is_even_contact_symmetry(data, Z):
    """alpha(Z) = 1 and i_Z dalpha = 0, so the flow of Z keeps alpha."""
    return (ex.cleanup(pair(data.alpha, Z)) == ex.ONE
            and all(ex.cleanup(c) == ex.ZERO
                    for c in interior(Z, d(data.alpha)).comps.values()))


def test_torus_symmetry(torus):
    assert fmt_field(torus.R) == "0; 0; 1; 0"
    assert is_even_contact_symmetry(torus, torus.R)
    assert not is_even_contact_symmetry(torus, torus.T)


def test_torus_analyze_without_hints(policy):
    sp = torus_space()
    alpha, beta = torus_forms(sp)
    data = analyze(sp, alpha, beta, policy)
    assert data.table["c_WX"] == ex.ONE
    assert data.table["a_XT"] == ex.ONE
    assert data.table["d_XT"] == ex.ONE


def test_bad_hint_rejected(policy):
    sp = torus_space()
    alpha, beta = torus_forms(sp)
    with pytest.raises(EngelError):
        analyze(sp, alpha, beta, policy, W=sp.basis_field(0))


def test_transform_rescale_alpha(torus, policy):
    lam = torus.space.scalar("2 + cos(2*pi*z)")
    new, checks = transform_forms(torus, "lam", lam, policy)
    assert set(checks) == {"T unchanged", "R scales by 1/lam",
                           "c_TR scales by 1/lam"}
    for name, verdict in checks.items():
        assert verdict.ok, (name, verdict.describe())


def test_transform_rescale_beta(torus, policy):
    mu = torus.space.scalar("2 + sin(2*pi*z)")
    new, checks = transform_forms(torus, "mu", mu, policy)
    for name, verdict in checks.items():
        assert verdict.ok, (name, verdict.describe())


def test_transform_shear(torus, policy):
    nu = torus.space.scalar("sin(2*pi*z)")
    new, checks = transform_forms(torus, "nu", nu, policy)
    assert set(checks) == {"T shears by nu W", "R shears in the plane",
                           "c_TR shear law"}
    for name, verdict in checks.items():
        assert verdict.ok, (name, verdict.describe())


def test_transform_needs_one_known_move(torus, policy):
    with pytest.raises(ValueError, match="unknown move 'kappa'"):
        transform_forms(torus, "kappa", ex.ONE, policy)


# --- invariant-frame example ------------------------------------------------

def test_nil4_table(nil4):
    t = nil4.table
    assert t["c_WX"] == ex.ONE
    assert t["d_XT"] == ex.ONE
    for key, val in t.items():
        if key not in ("c_WX", "d_XT"):
            assert val == ex.ZERO, (key, val)
    assert nil4.u == ex.ONE and nil4.v == ex.ONE


def test_nil4_identities_exact(nil4, policy):
    for name, verdict in identity_suite(nil4, policy).items():
        assert verdict.kind == "exact", name


def test_nil4_rho(nil4, policy):
    out, _, drho_zero = rho_criterion(nil4, policy)
    assert out["dalpha^2"].kind == "exact"
    assert out["beta + X(alpha)"].kind == "exact"
    assert out["(L_R rho) ^ beta"].kind == "exact"
    assert drho_zero.kind == "exact"


def test_nil4_dbeta2(nil4, policy):
    out, mu = dbeta2_criterion(nil4, policy)
    assert out["a_WR + b_XR"].kind == "exact"
    assert mu == ex.ONE
    assert out["d(mu beta)^2"].kind == "exact"


def test_nil4_symmetry(nil4):
    assert nil4.R.comps == (ex.ZERO, ex.ZERO, ex.rat(-1), ex.ZERO)
    assert is_even_contact_symmetry(nil4, nil4.R)


def test_nil4_integrability(nil4, policy):
    out = integrability_report(nil4, policy)
    assert nil4.table["c_TR"] == ex.ZERO
    assert out["integrable"].kind == "exact"
    assert out["closure det with W"].ok and out["closure det with X"].ok
