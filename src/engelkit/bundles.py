"""Plane pairs assembled from fibre bundles over low-dimensional bases.

Three constructions and one verification live here:

* `boothby_wang`: a contact 3-space with a Legendrian direction gives a
  pair on the product with a circle, with the fibre as Reeb direction.
* `t2_bundle_condition`: three pointwise conditions on data over a surface
  chart decide whether the torus-bundle forms define a structure whose
  symmetry torus has rank 2; on success the forms are built and analyzed.
* `torus_family`: the standard 4-torus structure quotiented by a lattice
  with entries in Q(sqrt(d1), ..., sqrt(dk)); the closure of the Reeb
  orbits is a torus whose dimension is computed exactly, as a rank over Q.
* `filling_check`: a rank-1 structure bounds a contact 5-manifold collar
  via eta = beta + r^2 alpha; all restriction identities are verified.

Everything is chart-level: connection forms enter through user-supplied
local primitives, and verdicts are exact where the arithmetic allows.
"""

from fractions import Fraction

from . import expr as ex
from .contact import promote_form, restrict_to_section, thicken_space
from .engel import analyze
from .frames import (FrameSpace, VectorField, d, interior, lie_form, minor,
                     nonzero, pair, wedge, zero)
from .kengel import KEngelData, KEngelError, certify, kengel_check
from .metric import orthonormal_metric
from .sampling import failed, nonvanishing


def _certified(kd, Z, policy, rank, not_reeb, where, direction):
    """The tail both bundle constructions share.

    Z must be the Reeb direction of kd with every K-Engel invariant, and
    pass the triple check for the metric making the framing orthonormal.
    """
    certify(kd, Z, policy, not_reeb, where)
    g = orthonormal_metric(kd)
    bad = failed(kengel_check(kd, g, kd.R, policy))
    if bad:
        raise KEngelError(f"{direction} direction fails the triple check",
                          bad)
    return KEngelData(kd, g, kd.R, rank=rank)


# ---------------------------------------------------------------------------
# circle bundle over a contact 3-space

def boothby_wang(nspace, lam, L, a_loc, policy):
    """The invariant pair on the circle product over a contact 3-space.

    lam must be contact, L Legendrian, and a_loc a local primitive of the
    curvature omega = i_L(lam ^ dlam).  On the product with the fibre
    coordinate t, the pair is alpha = dt + a_loc, beta = lam; its Reeb
    direction is the fibre and the adapted framing is invariant along it.
    Returns (verdicts, data).
    """
    assert nspace.dim == 3, "the base of the circle bundle must be 3-dim"
    ranges = nspace.coord_ranges
    report = {}
    vol = wedge(lam, d(lam))
    report["contact"] = nonzero(vol.cleanup(), ranges, policy)
    report["legendrian"] = zero([pair(lam, L)], ranges, policy)
    omega = interior(L, vol)
    report["omega closed"] = zero(d(omega), ranges, policy)
    report["primitive matches"] = zero(d(a_loc) - omega, ranges, policy)
    bad = failed(report)
    if bad:
        raise KEngelError("circle-bundle preconditions fail: "
                          + ", ".join(bad), bad)
    sp4 = thicken_space(nspace, "t", 0, 1)
    alpha = promote_form(sp4, a_loc) + \
        sp4.one_form([ex.ZERO, ex.ZERO, ex.ZERO, ex.ONE])
    beta = promote_form(sp4, lam)
    drop = ex.cleanup(ex.neg(pair(a_loc, L)))
    W_hint = VectorField(sp4, list(L.comps) + [drop])
    kd = analyze(sp4, alpha.cleanup(), beta, policy, W=W_hint)
    for name, form in (("L_R alpha", kd.alpha), ("L_R beta", kd.beta)):
        report[name] = zero(lie_form(kd.R, form), sp4.coord_ranges, policy)
    return report, _certified(kd, sp4.basis_field(3), policy, rank=1,
                              not_reeb="Reeb direction is not the fibre",
                              where="the circle product", direction="fibre")


# ---------------------------------------------------------------------------
# torus bundle over a surface chart

T2_FIBRE = ("p", "q")  # the torus fibre coordinates, in frame order


def t2_bundle_condition(sigma, f, g, alpha0, beta0, Omega, prim1, prim2,
                        n1, n2, eps, policy, W=None, X=None):
    """Three conditions deciding the torus-bundle construction over sigma.

    The connection forms are theta_i = (fibre leg) + prim_i with
    d(prim_i) = n_i Omega, and the candidate pair is

        alpha = f theta_1 + (1 - eps f) theta_2 + alpha_0
        beta  = g (theta_1 - eps theta_2) + beta_0

    With N = n_1 - eps n_2 and the twisted area form
    Omega_t = (f N + n_2) Omega + d(alpha_0), the conditions are

        1. at every point, df != 0 or Omega_t != 0   (nonintegrability)
        2. N g^2 Omega + g d(beta_0) + beta_0 ^ dg != 0        (span)
        3. g Omega_t + beta_0 ^ df = 0                         (flag)

    The third is also evaluated with the f-weight dropped from the twist,
    for comparison; only the weighted form is equivalent to
    beta ^ d(alpha) = 0.  Returns the verdicts on the three conditions,
    the verdict on the unweighted one, and data, None when a condition
    fails.  Bad input, eps outside (0,1) or a primitive that does not
    integrate n_i Omega, raises KEngelError naming "input".
    """
    assert sigma.dim == 2 and all(k == "coord" for k in sigma.kinds), \
        "the base must be a 2-dim chart"
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise KEngelError(f"eps = {eps} is not in (0,1)", ["input"])
    ranges = sigma.coord_ranges
    for name, prim, n in (("first", prim1, n1), ("second", prim2, n2)):
        v = zero(d(prim) - Omega.scale(ex.rat(n)), ranges, policy)
        if not v.ok:
            raise KEngelError(f"the {name} primitive does not integrate "
                              f"{n} times the area form: {v.describe()}",
                              ["input"])
    N = Fraction(n1) - eps * Fraction(n2)
    n_ex = ex.rat(N)
    df = d(sigma.form(0, {(): f}))
    dg = d(sigma.form(0, {(): g}))
    twist = ex.cleanup(ex.add(ex.mul(f, n_ex), ex.rat(n2)))
    omega_t = (Omega.scale(twist) + d(alpha0)).cleanup()

    report = {}
    # the condition fails exactly where every component is within tolerance
    report["first condition"] = nonvanishing(
        list(df.comps.values()) + list(omega_t.comps.values()), ranges,
        policy)
    span_form = (Omega.scale(ex.mul(n_ex, ex.pow_(g, 2)))
                 + d(beta0).scale(g) + wedge(beta0, dg)).cleanup()
    report["second condition"] = nonzero(span_form.cleanup(), ranges, policy)
    flag_form = (omega_t.scale(g) + wedge(beta0, df)).cleanup()
    report["third condition"] = zero(flag_form, ranges, policy)
    unweighted = zero((Omega.scale(ex.mul(n_ex, g)) + d(alpha0).scale(g)
                       + wedge(beta0, df)).cleanup(), ranges, policy)
    if failed(report):
        return report, unweighted, None

    sp4 = sigma
    for name in T2_FIBRE:
        sp4 = thicken_space(sp4, name, 0, 1)
    theta1 = sp4.one_form([prim1.comp((0,)), prim1.comp((1,)),
                           ex.ONE, ex.ZERO])
    theta2 = sp4.one_form([prim2.comp((0,)), prim2.comp((1,)),
                           ex.ZERO, ex.ONE])
    eps_ex = ex.rat(eps)
    profile = ex.cleanup(ex.add(ex.ONE, ex.neg(ex.mul(eps_ex, f))))
    alpha = (theta1.scale(f) + theta2.scale(profile)
             + promote_form(sp4, alpha0)).cleanup()
    beta = ((theta1 - theta2.scale(eps_ex)).scale(g)
            + promote_form(sp4, beta0)).cleanup()
    # hints arrive as component lists, since the 4-space only exists here
    hints = {}
    if W is not None:
        hints["W"] = VectorField(sp4, [ex.cleanup(c) for c in W])
    if X is not None:
        hints["X"] = VectorField(sp4, [ex.cleanup(c) for c in X])
    kd = analyze(sp4, alpha, beta, policy, **hints)
    r_expected = VectorField(sp4, [ex.ZERO, ex.ZERO, ex.rat(eps), ex.ONE])
    return report, unweighted, _certified(
        kd, r_expected, policy, rank=2,
        not_reeb="Reeb direction is not the declared torus direction",
        where="the torus bundle", direction="torus")


# ---------------------------------------------------------------------------
# the lattice quotient family

def standard_torus(policy):
    """The turning-plane structure on the 4-torus chart.

    alpha = dz - cos(2 pi t) dx - sin(2 pi t) dy,
    beta = -sin(2 pi t) dx + cos(2 pi t) dy.
    """
    sp = FrameSpace([("coord", n, 0, 1) for n in "xyzt"])
    alpha = sp.one_form([sp.scalar("-cos(2*pi*t)"),
                         sp.scalar("-sin(2*pi*t)"), ex.ONE, ex.ZERO])
    beta = sp.one_form([sp.scalar("-sin(2*pi*t)"),
                        sp.scalar("cos(2*pi*t)"), ex.ZERO, ex.ZERO])
    W = sp.field([sp.scalar("cos(2*pi*t)"), sp.scalar("sin(2*pi*t)"),
                  ex.ONE, ex.ZERO])
    return analyze(sp, alpha, beta, policy, W=W, X=sp.basis_field(3))


def torus_family(rows, policy):
    """Quotient the standard structure by a lattice; rank of the R-closure.

    rows are the four lattice vectors, entries as `qfield.parse_surd`
    reads them.  The structure only descends when the last lattice vector
    is the fibre (0,0,0,1) and every t-component is an integer.  The Reeb
    direction is d/dz; its orbit closure in the quotient is a torus whose
    dimension is the rank over Q of the lattice coordinates u of
    (0,0,1,0).  By Cramer's rule u_k is the (z, k) cofactor of the
    transposed lattice matrix over its determinant, and neither a sign nor
    a nonzero field factor changes that rank, so only minors are taken.
    """
    from .qfield import span_rank, surd_terms
    terms = [[surd_terms(x) for x in row] for row in rows]
    if terms[3] != [{}, {}, {}, {frozenset(): 1}]:
        raise KEngelError("the fourth lattice vector must be the fibre "
                          "(0,0,0,1)")
    for i, row in enumerate(terms):
        if row[3].keys() - {frozenset()} or row[3].get(frozenset(), 0) % 1:
            raise KEngelError(f"lattice vector {i + 1} has non-integral "
                              f"t-component {ex.to_str(rows[i][3])}")
    matrix = [[rows[i][j] for i in range(4)] for j in range(4)]
    every, memo = (0, 1, 2, 3), {}
    if not surd_terms(minor(matrix, every, every, memo)):
        raise KEngelError("degenerate lattice")
    rank = span_rank([[minor(matrix, (0, 1, 3), every[:k] + every[k + 1:],
                             memo) for k in range(4)]])
    data = standard_torus(policy)
    g = orthonormal_metric(data)
    return KEngelData(data, g, data.R, rank=rank), rank


# ---------------------------------------------------------------------------
# the contact collar over a rank-1 structure

def filling_check(kdata, policy):
    """eta = beta + r^2 alpha on the collar r in [1/2, 3/2] is contact.

    With the Liouville-type direction L = (1/r) d/dr (so that r L = d/dr),
    the flow rate L_L eta equals 2 alpha on the nose -- the factor 2 comes
    from differentiating r^2 against the 1/r scaling and is reported, not
    normalized away.  The boundary r = 1 inherits the pair
    (2 alpha, beta + alpha), which annihilates the original plane field,
    and L preserves the boundary's contact volume exactly when the flag
    condition alpha ^ d(alpha) ^ beta = 0 holds.
    """
    if kdata.rank != 1:
        raise KEngelError(
            f"filling needs a rank-1 structure, got rank {kdata.rank}")
    data = kdata.data
    sp = data.space
    sp5 = thicken_space(sp, "r", Fraction(1, 2), Fraction(3, 2))
    r = ex.var("r")
    alpha5 = promote_form(sp5, data.alpha)
    beta5 = promote_form(sp5, data.beta)
    eta = (beta5 + alpha5.scale(ex.pow_(r, 2))).cleanup()
    deta = d(eta)
    vol = wedge(eta, wedge(deta, deta))
    ranges, ranges5 = sp.coord_ranges, sp5.coord_ranges
    report = {"contact volume": nonzero(vol.cleanup(), ranges5, policy)}
    L = VectorField(sp5, [ex.ZERO] * sp.dim + [ex.div(ex.ONE, r)])
    leta = lie_form(L, eta)
    report["flow rate is twice alpha"] = zero(
        leta - alpha5.scale(ex.rat(2)), ranges5, policy)
    boundary = restrict_to_section(eta, ex.ONE, sp)
    report["boundary form is beta + alpha"] = zero(
        boundary - (data.beta + data.alpha), ranges, policy)
    induced_alpha = restrict_to_section(leta, ex.ONE, sp)
    report["induced pair annihilates the plane"] = zero(
        [pair(form, V) for form in (induced_alpha, boundary)
         for V in (data.W, data.X)], ranges, policy)
    even = wedge(data.alpha, d(data.alpha))
    report["alpha even contact"] = nonzero(even.cleanup(), ranges, policy)
    report["flag"] = zero(wedge(even, data.beta), ranges, policy)
    report["preserves boundary contact volume"] = zero(
        [ex.substitute(c, {"r": ex.ONE})
         for c in lie_form(L, vol).comps.values()], ranges, policy)
    bad = failed(report)
    if bad:
        raise KEngelError("filling verdicts fail: " + ", ".join(bad), bad)
    return report
