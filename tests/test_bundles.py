"""Circle/torus bundle constructions, the lattice family, and fillings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelkit import expr as ex
from engelkit.bundles import (boothby_wang, filling_check, standard_torus,
                              t2_bundle_condition, torus_family)
from engelkit.contact import promote_form, thicken_space
from engelkit.engel import analyze, check_defining_forms
from engelkit.frames import FrameSpace, d, wedge
from engelkit.kengel import (KEngelData, KEngelError, kengel_check,
                             kengel_invariants)
from engelkit.metric import orthonormal_metric
from engelkit.qfield import Generators, parse_surd
from engelkit.sampling import failed, is_zero_many


def su2_frame():
    return FrameSpace([("lie", n) for n in "ABC"],
                      brackets={("A", "B"): [0, 0, 1],
                                ("B", "C"): [1, 0, 0],
                                ("C", "A"): [0, 1, 0]})


def su2_contact_data(sp):
    lam = sp.one_form([ex.ZERO, ex.ZERO, ex.ONE])
    L = sp.basis_field(1)
    a_loc = sp.one_form([ex.ZERO, ex.ONE, ex.ZERO])
    return lam, L, a_loc


def contact_chart():
    return FrameSpace([("coord", n, 0, 1) for n in "xyz"])


# -- circle bundle over a contact 3-space ------------------------------------

def test_circle_product_keeps_brackets(policy):
    sp4 = thicken_space(su2_frame(), "t", 0, 1)
    assert sp4.dim == 4
    assert sp4.names == ["A", "B", "C", "t"]
    assert list(sp4.cbr(0, 1)) == [0, 0, 1, 0]


def test_boothby_wang_invariant_frame(policy):
    sp = su2_frame()
    lam, L, a_loc = su2_contact_data(sp)
    report, kd = boothby_wang(sp, lam, L, a_loc, policy)
    assert kd.rank == 1
    expected = {"c_WX": 1, "b_WT": -1, "a_XT": 1, "d_XT": 1}
    for key, val in kd.data.table.items():
        assert val == ex.rat(expected.get(key, 0)), key
    assert report["contact"].ok
    assert report["L_R alpha"].kind == "exact"
    assert report["L_R beta"].kind == "exact"
    assert not failed(kengel_check(kd.data, kd.g, kd.Z, policy))
    # alpha = dt + a_loc, beta = the contact form
    assert kd.data.alpha.comp((3,)) == ex.ONE
    assert kd.data.beta.comp((2,)) == ex.ONE


def test_boothby_wang_flat_chart(policy):
    # curvature -dy^dz on the chart model of the nil 3-space
    ch = contact_chart()
    lam = ch.one_form([ex.ZERO, ch.scalar("-x"), ex.ONE])
    a_loc = ch.one_form([ex.ZERO, ch.scalar("z"), ex.ZERO])
    _, kd = boothby_wang(ch, lam, ch.basis_field(0), a_loc, policy)
    expected = {"c_WX": 1, "d_XT": 1}
    for key, val in kd.data.table.items():
        assert val == ex.rat(expected.get(key, 0)), key


def test_boothby_wang_rejects_nonclosed_curvature(policy):
    ch = contact_chart()
    lam = ch.one_form([ex.ZERO, ch.scalar("x"), ex.ONE])
    L = ch.field([ch.scalar("1+x"), ex.ZERO, ex.ZERO])
    with pytest.raises(KEngelError, match="omega closed"):
        boothby_wang(ch, lam, L, ch.one_form([ex.ZERO] * 3), policy)


def test_boothby_wang_rejects_transverse_direction(policy):
    ch = contact_chart()
    lam = ch.one_form([ex.ZERO, ch.scalar("-x"), ex.ONE])
    a_loc = ch.one_form([ex.ZERO, ch.scalar("z"), ex.ZERO])
    with pytest.raises(KEngelError, match="legendrian"):
        boothby_wang(ch, lam, ch.basis_field(2), a_loc, policy)


# -- the contact collar -------------------------------------------------------

def test_filling_check_circle_bundle(policy):
    sp = su2_frame()
    _, kd = boothby_wang(sp, *su2_contact_data(sp), policy)
    report = filling_check(kd, policy)
    assert report["contact volume"].ok
    assert report["alpha even contact"].ok
    for key in ("flow rate is twice alpha", "boundary form is beta + alpha",
                "induced pair annihilates the plane", "flag",
                "preserves boundary contact volume"):
        assert report[key].kind == "exact", key


def test_filling_check_torus(policy):
    data = standard_torus(policy)
    kd = KEngelData(data, orthonormal_metric(data), data.R, rank=1)
    report = filling_check(kd, policy)
    assert report["contact volume"].ok
    assert report["preserves boundary contact volume"].kind == "exact"


def test_filling_check_rejects_higher_rank(policy):
    data = standard_torus(policy)
    kd = KEngelData(data, orthonormal_metric(data), data.R, rank=2)
    with pytest.raises(KEngelError, match="rank-1"):
        filling_check(kd, policy)


def test_thickened_pair_volume_identity(torus, policy):
    # eta = beta + s alpha has
    #   eta ^ (d eta)^2 = 2 ds^alpha^beta^dbeta + 2s ds^alpha^beta^dalpha
    sp5 = thicken_space(torus.space)
    s = ex.var("s")
    alpha = promote_form(sp5, torus.alpha)
    beta = promote_form(sp5, torus.beta)
    eta = beta + alpha.scale(s)
    deta = d(eta)
    lhs = wedge(eta, wedge(deta, deta))
    ds = sp5.one_form([ex.ZERO] * 4 + [ex.ONE])
    core = wedge(ds, wedge(alpha, beta))
    rhs = wedge(core, d(beta)).scale(ex.rat(2)) + \
        wedge(core, d(alpha)).scale(ex.mul(ex.rat(2), s))
    diff = lhs - rhs
    v = is_zero_many([ex.cleanup(c) for c in diff.comps.values()]
                     or [ex.ZERO], sp5.coord_ranges, policy)
    assert v.kind == "exact"


# -- torus bundle over a surface chart ----------------------------------------

def surface_chart():
    return FrameSpace([("coord", "x", 0, 1), ("coord", "y", 0, 1)])


def test_t2_bundle_satisfying_instance(policy):
    sigma = surface_chart()
    Omega = sigma.form(2, {(0, 1): ex.ONE})
    zero1 = sigma.one_form([ex.ZERO, ex.ZERO])
    alpha0 = sigma.one_form([ex.ZERO, sigma.scalar("-x^2/2")])
    prim1 = sigma.one_form([ex.ZERO, sigma.scalar("x")])
    W = [ex.ZERO, ex.rat(2), sigma.scalar("x^2/2-2*x"), sigma.scalar("x^2")]
    X = [ex.ONE, ex.ZERO, ex.ZERO, ex.ZERO]
    report, unweighted, kd = t2_bundle_condition(
        sigma, sigma.scalar("x"), ex.ONE, alpha0, zero1, Omega, prim1,
        zero1, 1, 0, Fraction(1, 2), policy, W=W, X=X)
    assert kd is not None and kd.rank == 2
    assert report["first condition"].ok
    assert report["second condition"].ok
    assert report["third condition"].kind == "exact"
    # dropping the f-weight from the twist is not an equivalent condition
    assert not unweighted.ok
    assert kd.data.defining["flag"].ok
    assert not failed(kengel_check(kd.data, kd.g, kd.Z, policy))
    expected = {"c_WX": 1, "d_XT": 1}
    for key, val in kd.data.table.items():
        assert val == ex.rat(expected.get(key, 0)), key
    assert [ex.to_str(c) for c in kd.data.R.comps] == ["0", "0", "1/2", "1"]


def test_t2_bundle_constant_profile_fails_third(policy):
    sigma = surface_chart()
    Omega = sigma.form(2, {(0, 1): ex.ONE})
    zero1 = sigma.one_form([ex.ZERO, ex.ZERO])
    prim1 = sigma.one_form([ex.ZERO, sigma.scalar("x")])
    report, unweighted, kd = t2_bundle_condition(
        sigma, ex.ONE, ex.ONE, zero1, zero1, Omega, prim1, zero1,
        1, 0, Fraction(1, 2), policy)
    assert kd is None
    assert report["first condition"].ok
    assert report["second condition"].ok
    assert not report["third condition"].ok
    assert not unweighted.ok


def test_t2_bundle_singular_profile_samples_around_the_pole(policy):
    # df = -dx/x^2 is singular at the x = 0 corner sample; the first
    # condition retries past it instead of raising SingularPoint
    sigma = surface_chart()
    Omega = sigma.form(2, {(0, 1): ex.ONE})
    zero1 = sigma.one_form([ex.ZERO, ex.ZERO])
    prim1 = sigma.one_form([ex.ZERO, sigma.scalar("x")])
    report, _, kd = t2_bundle_condition(
        sigma, sigma.scalar("1/x"), ex.ONE, zero1, zero1, Omega, prim1,
        zero1, 1, 0, Fraction(1, 2), policy)
    assert kd is None
    assert report["first condition"].ok
    assert report["second condition"].ok
    assert not report["third condition"].ok


def test_t2_bundle_degenerate_g_fails_second(policy):
    sigma = surface_chart()
    Omega = sigma.form(2, {(0, 1): ex.ONE})
    zero1 = sigma.one_form([ex.ZERO, ex.ZERO])
    prim1 = sigma.one_form([ex.ZERO, sigma.scalar("x")])
    report, _, kd = t2_bundle_condition(
        sigma, sigma.scalar("x"), ex.ZERO, zero1, zero1, Omega, prim1,
        zero1, 1, 0, Fraction(1, 2), policy)
    assert kd is None
    assert not report["second condition"].ok


def test_t2_bundle_rejects_bad_primitive(policy):
    sigma = surface_chart()
    Omega = sigma.form(2, {(0, 1): ex.ONE})
    zero1 = sigma.one_form([ex.ZERO, ex.ZERO])
    with pytest.raises(KEngelError, match="primitive"):
        t2_bundle_condition(sigma, sigma.scalar("x"), ex.ONE, zero1, zero1,
                            Omega, zero1, zero1, 1, 0, Fraction(1, 2),
                            policy)


def test_t2_bundle_rejects_bad_eps(policy):
    sigma = surface_chart()
    Omega = sigma.form(2, {(0, 1): ex.ONE})
    zero1 = sigma.one_form([ex.ZERO, ex.ZERO])
    prim1 = sigma.one_form([ex.ZERO, sigma.scalar("x")])
    with pytest.raises(KEngelError, match="eps"):
        t2_bundle_condition(sigma, sigma.scalar("x"), ex.ONE, zero1, zero1,
                            Omega, prim1, zero1, 1, 0, Fraction(3, 2),
                            policy)


# -- flat torus bundles over the 2-torus --------------------------------------

def flat_bundle_space():
    return FrameSpace([("coord", n, 0, 1) for n in "xyuv"])


def flat_bundle_forms(sp, lam1, lam2, p, q):
    alpha = sp.one_form([sp.scalar(p), sp.scalar(q), ex.ONE,
                         sp.scalar(f"{lam1}*x + {lam2}*y")]).cleanup()
    beta = sp.one_form([sp.scalar("-sin(2*pi*v)"), sp.scalar("cos(2*pi*v)"),
                        ex.ZERO, ex.ZERO])
    return alpha, beta


def test_flat_bundle_untwisted(policy):
    sp = flat_bundle_space()
    alpha, beta = flat_bundle_forms(sp, 0, 0, "-cos(2*pi*v)",
                                    "-sin(2*pi*v)")
    W = sp.field([sp.scalar("cos(2*pi*v)"), sp.scalar("sin(2*pi*v)"),
                  ex.ONE, ex.ZERO])
    data = analyze(sp, alpha, beta, policy, W=W, X=sp.basis_field(3))
    expected = {"c_WX": 1, "a_XT": 1, "d_XT": 1}
    for key, val in data.table.items():
        assert val == ex.rat(expected.get(key, 0)), key
    ok = not failed(kengel_invariants(data, policy))
    assert ok


def test_flat_bundle_naive_twist_fails_flag(policy):
    sp = flat_bundle_space()
    alpha, beta = flat_bundle_forms(sp, 1, 0, "-cos(2*pi*v)",
                                    "-sin(2*pi*v)")
    checks = check_defining_forms(sp, alpha, beta, policy)
    assert checks["nonintegrability"].ok
    assert checks["span"].ok
    assert not checks["flag"].ok
    flag = wedge(wedge(alpha, d(alpha)), beta)
    coeff = ex.cleanup(flag.comp((0, 1, 2, 3)))
    resid = ex.normalize(ex.add(coeff, sp.scalar("cos(2*pi*v)")))
    assert resid == ex.ZERO


def test_flat_bundle_periodic_twist(policy):
    # profile chosen so the twist defect is (3 + 2 sin(2 pi v)) > 0
    sp = flat_bundle_space()
    p = "(3*cos(2*pi*v) + sin(2*pi*v)*cos(2*pi*v))/(2*pi)"
    q = "(3*sin(2*pi*v) + sin(2*pi*v)^2)/(2*pi)"
    alpha, beta = flat_bundle_forms(sp, 1, 0, p, q)
    W = sp.field([sp.scalar("cos(2*pi*v)"), sp.scalar("sin(2*pi*v)"),
                  sp.scalar("-(3+sin(2*pi*v))/(2*pi)"), ex.ZERO])
    X = sp.field([ex.ZERO, ex.ZERO, sp.scalar("-x"), ex.ONE])
    data = analyze(sp, alpha, beta, policy, W=W, X=X)
    assert [ex.to_str(c) for c in data.R.comps] == ["0", "0", "1", "0"]
    assert ex.to_str(data.u) == "(2*sin(2*pi*v) + 3)/(2*pi)"
    inv = kengel_invariants(data, policy)
    ok = not failed(inv)
    assert ok
    assert inv["beta ^ d(alpha)"].ok


# -- the lattice quotient family ----------------------------------------------

def lattice_rows(third_row=None):
    rows = [[ex.ONE if i == j else ex.ZERO for j in range(4)]
            for i in range(4)]
    if third_row is not None:
        rows[2] = [parse_surd(str(t), Generators((2, 3))) for t in third_row]
    return rows


def test_torus_family_standard_lattice(policy):
    kd, rank = torus_family(lattice_rows(), policy)
    assert rank == 1
    assert kd.rank == 1
    assert kd.data.table["c_WX"] == ex.ONE


def test_torus_family_rank_two(policy):
    _, rank = torus_family(lattice_rows(["-sqrt2", 0, 1, 0]), policy)
    assert rank == 2


def test_torus_family_rank_three(policy):
    _, rank = torus_family(lattice_rows(["-sqrt2", "-sqrt3", 1, 0]), policy)
    assert rank == 3


def test_torus_family_rejects_moved_fibre(policy):
    rows = lattice_rows()
    rows[3] = rows[0]
    with pytest.raises(KEngelError, match="fourth lattice vector"):
        torus_family(rows, policy)


def test_torus_family_rejects_irrational_t_component(policy):
    rows = lattice_rows([0, 0, 1, "sqrt2"])
    with pytest.raises(KEngelError, match="non-integral t-component sqrt2$"):
        torus_family(rows, policy)


def test_torus_family_rejects_degenerate_lattice(policy):
    rows = lattice_rows()
    rows[1] = rows[0]
    with pytest.raises(KEngelError, match="degenerate"):
        torus_family(rows, policy)


def test_torus_family_reduces_roots_before_checking(policy):
    # a t-component sqrt2^2 is the integer 2, and the row
    # 0; 0; sqrt2^2 - 2; sqrt3^2 - 2 is the fibre 0; 0; 0; 1
    _, rank = torus_family(lattice_rows(["-sqrt2", 0, 1, "sqrt2^2"]), policy)
    assert rank == 2
    rows = lattice_rows(["-sqrt2", 0, 1, 0])
    rows[3] = [parse_surd(t, Generators((2, 3)))
               for t in ("0", "0", "sqrt2^2 - 2", "sqrt3^2 - 2")]
    assert rows[3][2] != ex.ZERO and rows[3][3] != ex.ONE
    _, rank = torus_family(rows, policy)
    assert rank == 2


def test_torus_family_takes_the_determinant_once_reduced(policy):
    # det = 1*2 - sqrt2*sqrt2 is zero, but not as written
    rows = lattice_rows()
    rows[0][1] = parse_surd("sqrt2", Generators((2,)))
    rows[1][:2] = [rows[0][1], ex.rat(2)]
    with pytest.raises(KEngelError, match="degenerate"):
        torus_family(rows, policy)


@settings(max_examples=20, deadline=None)
@given(shears=st.lists(
    st.tuples(st.sampled_from([(0, 1), (1, 0), (0, 2), (2, 0), (1, 2),
                               (2, 1), (0, 3), (1, 3), (2, 3)]),
              st.integers(min_value=-3, max_value=3)),
    max_size=4))
def test_torus_family_rank_is_basis_invariant(policy, shears):
    # integer shears among the generators change the basis, not the rank
    for base, expected in ((None, 1), (["-sqrt2", 0, 1, 0], 2),
                           (["-sqrt2", "-sqrt3", 1, 0], 3)):
        rows = lattice_rows(base)
        for (i, j), k in shears:
            rows[i] = [ex.normalize(ex.add(a, ex.mul(ex.rat(k), b)))
                       for a, b in zip(rows[i], rows[j])]
        _, rank = torus_family(rows, policy)
        assert rank == expected
