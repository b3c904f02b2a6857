import pytest

from engelkit import expr as ex
from engelkit.engel import (EngelError, analyze, characteristic_field,
                            check_defining_forms, complement_field,
                            dbeta2_criterion, identity_suite,
                            integrability_report, reeb_pair, rho_criterion,
                            transform_forms)
from engelkit.frames import d, fmt_field, interior, pair

from conftest import torus_forms, torus_framing_hints, torus_space


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
    X = complement_field(sp, alpha, beta, W, policy)
    assert X.comps == (ex.ZERO, ex.ZERO, ex.ZERO, ex.ONE)


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
    assert out["c_TR"] == ex.ZERO
    assert out["c_TR matches dbeta(R,T)"].ok
    assert out["kernel contains T"].ok
    assert out["kernel contains R"].ok
    assert out["integrable"].kind == "exact"
    assert out["closure det with W"].ok
    assert out["closure det with X"].ok


def test_torus_dbeta2(torus, policy):
    out = dbeta2_criterion(torus, policy)
    assert out["a_WR + b_XR"].ok
    assert out["mu"] == torus.space.scalar("-1/(2*pi)")
    assert out["d(mu beta)^2"].ok


def test_torus_rho(torus, policy):
    out = rho_criterion(torus, policy)
    assert out["dalpha^2"].kind == "exact"
    assert out["beta + X(alpha)"].ok
    assert out["(L_R rho) ^ beta"].ok
    assert out["a_WR"].ok and out["a_XR"].ok
    assert out["drho zero"].kind == "nonzero"


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
    out = rho_criterion(nil4, policy)
    assert out["dalpha^2"].kind == "exact"
    assert out["beta + X(alpha)"].kind == "exact"
    assert out["(L_R rho) ^ beta"].kind == "exact"
    assert out["drho zero"].kind == "exact"


def test_nil4_dbeta2(nil4, policy):
    out = dbeta2_criterion(nil4, policy)
    assert out["a_WR + b_XR"].kind == "exact"
    assert out["mu"] == ex.ONE
    assert out["d(mu beta)^2"].kind == "exact"


def test_nil4_symmetry(nil4):
    assert nil4.R.comps == (ex.ZERO, ex.ZERO, ex.rat(-1), ex.ZERO)
    assert is_even_contact_symmetry(nil4, nil4.R)


def test_nil4_integrability(nil4, policy):
    out = integrability_report(nil4, policy)
    assert out["c_TR"] == ex.ZERO
    assert out["integrable"].kind == "exact"
    assert out["closure det with W"].ok and out["closure det with X"].ok
