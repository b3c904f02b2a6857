"""Rank-2 distributions via a defining pair of 1-forms.

A defining pair (alpha, beta) on a framed 4-space cuts out D = ker alpha ∩
ker beta.  The module checks the three defining-form conditions and derives
the characteristic direction W, the complement X and the transverse pair
(T, R) as kernel lines of 3-forms, X that of alpha ^ beta ^ gamma for a
1-form gamma with gamma(W) != 0.  The six brackets and 24-entry table of
the adapted framing are built once and kept on EngelData, and the checks
read them there: the structural identities of the table, the
integrability test for the plane field span(T, R), the exact
transformation laws under rescaling/shearing the pair, and two
curvature-type criteria expressed through the coframe dual to the framing.
"""

from . import expr as ex
from .frames import (bracket, cartan, d, determinant, dual_coframe,
                     interior, kernel_line, nonzero, normalized_kernel_line,
                     pair, wedge, zero)
from .sampling import nonvanishing

PAIRS = ("WX", "WT", "WR", "XT", "XR", "TR")
LETTERS = ("a", "b", "c", "d")


class EngelError(ex.CheckError):
    pass


def check_defining_forms(space, alpha, beta, policy):
    """The three pointwise conditions on a defining pair.

    nonintegrability: alpha ^ dalpha has no zeros
    span:             alpha ^ beta ^ dbeta has no zeros
    flag:             alpha ^ dalpha ^ beta vanishes identically

    Returns the verdicts and the forms they are read from, each taken
    once: (dalpha, dbeta, alpha ^ dalpha, alpha ^ beta).
    """
    da, db = d(alpha), d(beta)
    ada, ab = wedge(alpha, da), wedge(alpha, beta)
    ranges = space.coord_ranges
    return {
        "nonintegrability": nonzero(ada, ranges, policy),
        "span": nonzero(wedge(ab, db), ranges, policy),
        "flag": zero(wedge(ada, beta), ranges, policy),
    }, (da, db, ada, ab)


def characteristic_field(space, ada, policy):
    """Span of ker(alpha ^ dalpha), normalized to a unit component.

    Each component K_k of K = kernel_line(alpha ^ dalpha) that vanishes
    nowhere gives a candidate K / K_k, ranked by `_simplest`.  When some
    K_k is a nonzero constant, only those are divisors and nothing is
    sampled; otherwise each K_k is sampled as nonvanishing.  ada is
    alpha ^ dalpha.
    """
    if ada.is_structurally_zero():
        raise EngelError("alpha ^ dalpha vanishes identically")
    K = kernel_line(ada)
    comps = list(map(ex.cleanup, K.comps))
    pivots = [c for c in comps if _unit(c)] or [
        c for c in comps if nonvanishing([c], space.coord_ranges, policy).ok]
    if not pivots:
        raise EngelError("no normalization pins down ker(alpha ^ dalpha)")
    return _simplest(K.scale(ex.div(ex.ONE, c)).cleanup() for c in pivots)


def complement_field(space, ab, W):
    """A direction X with alpha(X) = beta(X) = 0, independent of W.

    X is the kernel line K of ab ^ gamma, for ab = alpha ^ beta and a
    1-form gamma with gamma(W) != 0, so gamma(K) = 0 keeps K off the line
    of W.  gamma runs over the frame legs e^k whose W_k is a nonzero
    constant, or is W♭ = sum_i W_i e^i, with W♭(W) = |W|^2 > 0, when there
    is none.  K is divided by its first nonzero constant component if it
    has one; no step samples, and a K that vanishes somewhere is left to
    analyze's determinant check.  The candidates are ranked by `_simplest`.
    """
    gammas = [space.form(1, {(k,): ex.ONE})
              for k, c in enumerate(map(ex.cleanup, W.comps)) if _unit(c)]
    candidates = []
    for gamma in gammas or [space.one_form(W.comps)]:
        K = kernel_line(wedge(ab, gamma)).cleanup()
        pivot = next(filter(_unit, K.comps), None)
        if pivot is not None:
            K = K.scale(ex.div(ex.ONE, pivot)).cleanup()
        candidates.append(K)
    return _simplest(candidates)


def _simplest(fields):
    """The structurally smallest quotient-free field, else the smallest
    field; min keeps the first of equal keys."""
    return min(fields, key=lambda f: (any(map(ex.has_div, f.comps)),
                                      sum(map(ex.size, f.comps))))


def _unit(c):
    """Is the canonical c a nonzero constant, a divisor needing no check?

    A constant is a polynomial in pi with rational coefficients.  The
    canonical form cancels like terms, and pi is transcendental, so one
    that is not the rational zero is nonzero.
    """
    return not ex.is_zero(c) and ex.is_constant(c)


def reeb_pair(space, alpha, beta, db, policy):
    """The transverse pair: T spans the dbeta-characteristic direction of
    the span plane field, R the alpha-normalized one.

        i_T (alpha ^ dbeta) = 0,  beta(T) = 1,  alpha(T) = 0
        i_R (beta ^ dbeta) = 0,   beta(R) = 0,  alpha(R) = 1

    T = K_T / beta(K_T) and R = K_R / alpha(K_R) for the kernel lines of
    alpha ^ dbeta and beta ^ dbeta; the normalizers are minus and plus the
    density of alpha ^ beta ^ dbeta, nonvanishing by the span condition.
    alpha(T) = 0 and beta(R) = 0 hold identically.  db is dbeta.
    """
    return tuple(normalized_kernel_line(w, theta, policy,
                                        f"transverse direction {name}",
                                        EngelError)
                 for name, w, theta in (("T", wedge(alpha, db), beta),
                                        ("R", wedge(beta, db), alpha)))


def bracket_table(framing):
    """The six brackets of the framing and their 24 structure functions.

    Returns (brackets, table): brackets maps each pair in PAIRS to [A, B],
    table maps letter_pair to the coefficient of [A, B] on W, X, T, R for
    letter a, b, c, d.
    """
    W, X, T, R = framing
    fields = {"W": W, "X": X, "T": T, "R": R}
    theta = dual_coframe([W, X, T, R])
    brackets = {pq: bracket(fields[pq[0]], fields[pq[1]]) for pq in PAIRS}
    table = {f"{letter}_{pq}": ex.cleanup(pair(theta[li], brackets[pq]))
             for pq in PAIRS for li, letter in enumerate(LETTERS)}
    return brackets, table


class EngelData:
    """A defining pair with its differentials dalpha and dbeta, its
    adapted framing (W, X, T, R), built once, and the framing's brackets
    and bracket table; u and v rescaled the derived W and X, and c_WX_raw
    is beta([W, X]) before the rescaling."""

    def __init__(self, space, alpha, beta, dalpha, dbeta, W, X, T, R, u, v,
                 c_WX_raw, defining, brackets, table):
        self.space = space
        self.alpha = alpha
        self.beta = beta
        self.dalpha = dalpha
        self.dbeta = dbeta
        self.W = W
        self.X = X
        self.T = T
        self.R = R
        self.u = u
        self.v = v
        self.c_WX_raw = c_WX_raw
        self.defining = defining
        self.brackets = brackets
        self.table = table

    def framing(self):
        return (self.W, self.X, self.T, self.R)


def analyze(space, alpha, beta, policy, W=None, X=None):
    """Full pipeline from a defining pair to adapted data.

    W and X hints are verified (kernel membership resp. annihilation) and
    derived from scratch when absent.  They are then rescaled to W' = u W
    and X' = v X with beta([W',X']) = 1 and alpha([X',T]) = 1; W' is
    independent of the admissible W and X.  A failed precondition raises
    EngelError `<step>: <verdict>`.  Each step gets the forms
    check_defining_forms took once; dalpha and dbeta stay on the result.
    """
    ranges = space.coord_ranges
    defining, (da, db, ada, ab) = check_defining_forms(space, alpha, beta,
                                                       policy)
    if W is not None:
        zero(interior(W, ada), ranges, policy).require(
            "W hint not in ker(alpha ^ dalpha)", EngelError)
    else:
        W = characteristic_field(space, ada, policy)
    if X is not None:
        zero([pair(alpha, X), pair(beta, X)], ranges, policy).require(
            "X hint not in ker alpha ∩ ker beta", EngelError)
    else:
        X = complement_field(space, ab, W)
    T, R = reeb_pair(space, alpha, beta, db, policy)
    nonvanishing([ex.cleanup(determinant([W, X, T, R]))], ranges,
                 policy).require("framing det(W, X, T, R)", EngelError)
    c_wx = ex.cleanup(pair(beta, bracket(W, X)))
    nonvanishing([c_wx], ranges, policy).require("beta([W,X])", EngelError)
    d_xt = ex.cleanup(pair(alpha, bracket(X, T)))
    nonvanishing([d_xt], ranges, policy).require("alpha([X,T])", EngelError)
    u = ex.cleanup(ex.div(d_xt, c_wx))
    v = ex.cleanup(ex.div(ex.ONE, d_xt))
    W, X = W.scale(u).cleanup(), X.scale(v).cleanup()
    brackets, table = bracket_table((W, X, T, R))
    for name, key in (("beta([W',X'])", "c_WX"), ("alpha([X',T])", "d_XT")):
        zero([ex.add(table[key], ex.rat(-1))], ranges, policy).require(
            f"{name} != 1 after rescaling", EngelError)
    return EngelData(space, alpha, beta, da, db, W, X, T, R, u, v, c_wx,
                     defining, brackets, table)


# ---------------------------------------------------------------------------
# structural identities of the adapted bracket table

def identity_suite(data, policy):
    """Relations every adapted bracket table satisfies, as named verdicts.

    Directional derivatives of table entries appear as W f, X f, T f.
    """
    sp = data.space
    t = data.table
    W, X, T, R = data.framing()

    def L(V, f):
        return sp.lie_scalar(V, f)

    def m(*fs):
        return ex.mul(*fs)

    checks = [
        ("c_WT", t["c_WT"]),
        ("c_WR", t["c_WR"]),
        ("c_XT", t["c_XT"]),
        ("c_XR", t["c_XR"]),
        ("d_WX", t["d_WX"]),
        ("d_WT", t["d_WT"]),
        ("b_WX - d_WR", ex.add(t["b_WX"], ex.neg(t["d_WR"]))),
        ("b_XT + a_WT", ex.add(t["b_XT"], t["a_WT"])),
        ("d_TR - W(d_XR) + X(d_WR) + a_WX*d_WR + d_XR*d_WR",
         ex.add(t["d_TR"], ex.neg(L(W, t["d_XR"])), L(X, t["d_WR"]),
                m(t["a_WX"], t["d_WR"]), m(t["d_XR"], t["d_WR"]))),
        ("c_TR - a_WR - b_XR",
         ex.add(t["c_TR"], ex.neg(t["a_WR"]), ex.neg(t["b_XR"]))),
        ("b_WR + W(d_TR) - T(d_WR) - a_WT*d_WR - b_WT*d_XR",
         ex.add(t["b_WR"], L(W, t["d_TR"]), ex.neg(L(T, t["d_WR"])),
                ex.neg(m(t["a_WT"], t["d_WR"])),
                ex.neg(m(t["b_WT"], t["d_XR"])))),
        ("b_TR + W(c_TR) - d_WR*c_TR",
         ex.add(t["b_TR"], L(W, t["c_TR"]), ex.neg(m(t["d_WR"], t["c_TR"])))),
        ("c_TR + X(d_TR) - T(d_XR) + a_WT*d_XR - a_XT*d_WR + b_XR",
         ex.add(t["c_TR"], L(X, t["d_TR"]), ex.neg(L(T, t["d_XR"])),
                m(t["a_WT"], t["d_XR"]), ex.neg(m(t["a_XT"], t["d_WR"])),
                t["b_XR"])),
        ("a_TR - X(c_TR) + d_XR*c_TR",
         ex.add(t["a_TR"], ex.neg(L(X, t["c_TR"])),
                m(t["d_XR"], t["c_TR"]))),
    ]
    return {name: zero([e], sp.coord_ranges, policy) for name, e in checks}


# ---------------------------------------------------------------------------
# integrability of the transverse plane field

def integrability_report(data, policy):
    """Integrability of the Reeb plane field span(T, R).

    "integrable" is the vanishing of d(c_TR alpha) ^ beta.  The closure
    determinants det(T, R, [T,R], W) and det(T, R, [T,R], X) vanish exactly
    when [T, R] lies in span(T, R), the Frobenius criterion; the two
    answers must agree.
    """
    sp = data.space
    W, X, T, R = data.framing()
    c_tr = data.table["c_TR"]
    ranges = sp.coord_ranges
    out = {"c_TR matches dbeta(R,T)": zero(
        [ex.add(pair(data.dbeta, R, T), ex.neg(c_tr))], ranges, policy)}
    # the plane field span(T, R) is the kernel of dbeta + c_TR beta ^ alpha
    omega = data.dbeta + wedge(data.beta, data.alpha).scale(c_tr)
    for name, V in (("T", T), ("R", R)):
        out[f"kernel contains {name}"] = zero(interior(V, omega), ranges,
                                              policy)
    out["integrable"] = zero(wedge(d(data.alpha.scale(c_tr)), data.beta),
                             ranges, policy)
    for name, V in (("W", W), ("X", X)):
        out[f"closure det with {name}"] = zero(
            [determinant([T, R, data.brackets["TR"], V])], ranges, policy)
    return out


# ---------------------------------------------------------------------------
# transformation laws for the defining pair

def transform_forms(data, move, coeff, policy):
    """Apply one elementary move to the defining pair (alpha, beta).

    move is "lam" for (lam alpha, beta), "mu" for (alpha, mu beta) or "nu"
    for (alpha, beta + nu alpha), with coeff the function lam, mu or nu.
    Input data must carry the adapted framing (the closed-form laws below
    are stated for it).  Returns the re-analyzed data for the new pair plus
    verdicts comparing the recomputed T, R, c_TR with the closed forms of
    the move.
    """
    sp = data.space
    f = ex.normalize(coeff)
    if move == "lam":
        alpha2, beta2 = data.alpha.scale(f), data.beta
    elif move == "mu":
        alpha2, beta2 = data.alpha, data.beta.scale(f)
    elif move == "nu":
        alpha2, beta2 = data.alpha, data.beta + data.alpha.scale(f)
    else:
        raise ValueError(f"unknown move {move!r}: need lam, mu or nu")
    new = analyze(sp, alpha2.cleanup(), beta2.cleanup(), policy,
                  W=data.W, X=data.X)
    W, X, T, R = data.framing()
    t = data.table
    c_tr = new.table["c_TR"]
    checks = {}

    def lsc(V, g):
        return sp.lie_scalar(V, g)

    def fields_match(name, A, B):
        checks[name] = zero(A - B, sp.coord_ranges, policy)

    def scalar_match(name, a, b):
        checks[name] = zero([ex.add(a, ex.neg(b))], sp.coord_ranges, policy)

    if move == "lam":
        fields_match("T unchanged", new.T, T)
        fields_match("R scales by 1/lam", new.R, R.scale(ex.div(ex.ONE, f)))
        scalar_match("c_TR scales by 1/lam", c_tr, ex.div(t["c_TR"], f))
    elif move == "mu":
        fields_match("R unchanged", new.R, R)
        shifted = (W.scale(ex.neg(ex.div(lsc(X, f), f)))
                   + X.scale(ex.div(lsc(W, f), f)) + T)
        fields_match("T shifts by the mu-gradient", new.T,
                     shifted.scale(ex.div(ex.ONE, f)))
        scalar_match("c_TR shifts by R(mu)/mu", c_tr,
                     ex.add(t["c_TR"], ex.div(lsc(R, f), f)))
    else:
        fields_match("T shears by nu W", new.T, W.scale(f) + T)
        sheared = (W.scale(ex.add(ex.neg(ex.pow_(f, 2)),
                                  ex.neg(lsc(X, f)),
                                  ex.mul(f, t["d_XR"])))
                   + X.scale(ex.add(lsc(W, f),
                                    ex.neg(ex.mul(f, t["d_WR"]))))
                   + T.scale(ex.neg(f)) + R)
        fields_match("R shears in the plane", new.R, sheared)
        scalar_match("c_TR shear law", c_tr,
                     ex.add(t["c_TR"], ex.neg(ex.mul(f, lsc(W, f))),
                            ex.neg(lsc(T, f)),
                            ex.mul(ex.pow_(f, 2), t["d_WR"]),
                            ex.mul(f, t["d_TR"])))
    return new, checks


# ---------------------------------------------------------------------------
# the two coframe criteria

def dbeta2_criterion(data, policy):
    """Whether some rescaling mu beta satisfies d(mu beta) ^ d(mu beta) = 0.

    The verdict is the vanishing of a_WR + b_XR of the framing before the
    rescaling W' = u W, X' = v X, read from the adapted table as
    a'_WR + b'_XR + R(mu)/mu; mu = u v = 1/beta([W,X]) realizes it.
    Returns the verdicts and mu.
    """
    ranges = data.space.coord_ranges
    mu = ex.cleanup(ex.div(ex.ONE, data.c_WX_raw))
    total = ex.add(data.table["a_WR"], data.table["b_XR"],
                   ex.div(data.space.lie_scalar(data.R, mu), mu))
    dmb = d(data.beta.scale(mu).cleanup())
    return {"a_WR + b_XR": zero([total], ranges, policy),
            "d(mu beta)^2": zero(wedge(dmb, dmb), ranges, policy)}, mu


def rho_criterion(data, policy):
    """Invariance of the W-leg of the dual coframe along R.

    Preconditions: dalpha ^ dalpha = 0 and beta = -X(alpha) (the adapted
    framing satisfies the second whenever the pair does).  The verdict is
    (L_R rho) ^ beta = 0 for rho the W-dual coframe leg; equivalent to the
    vanishing of both a_WR and a_XR.  Returns the verdicts, d(rho) and
    the verdict on whether d(rho) vanishes.
    """
    sp = data.space
    W, X, T, R = data.framing()
    ranges = sp.coord_ranges
    out = {}
    out["dalpha^2"] = zero(wedge(data.dalpha, data.dalpha), ranges, policy)
    out["beta + X(alpha)"] = zero(
        data.beta + cartan(X, data.alpha, data.dalpha), ranges, policy)
    rho = dual_coframe([W, X, T, R])[0]
    drho = d(rho)
    out["(L_R rho) ^ beta"] = zero(wedge(cartan(R, rho, drho), data.beta),
                                   ranges, policy)
    out["a_WR"] = zero([data.table["a_WR"]], ranges, policy)
    out["a_XR"] = zero([data.table["a_XR"]], ranges, policy)
    drho = drho.cleanup()
    return out, drho, zero(drho, ranges, policy)

