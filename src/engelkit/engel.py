"""Rank-2 distributions via a defining pair of 1-forms.

A defining pair (alpha, beta) on a framed 4-space cuts out D = ker alpha ∩
ker beta.  The module checks the three defining-form conditions, derives the
characteristic direction W and the transverse pair (T, R) as kernel lines of
3-forms, the adapted framing with its 24-entry bracket table, the structural
identities that table must satisfy, the integrability test for the span(T, R)
plane field, the exact transformation laws under rescaling/shearing the pair,
and two curvature-type criteria expressed through the coframe dual to the
framing.  Only X, a line in the plane ker alpha ∩ ker beta, is solved for.
"""

from . import expr as ex
from .frames import (bracket, d, determinant, dual_coframe, interior,
                     kernel_line, lie_form, nonzero, pair,
                     solve_kernel_greedy, wedge, zero)
from .sampling import nonvanishing

PAIRS = ("WX", "WT", "WR", "XT", "XR", "TR")
LETTERS = ("a", "b", "c", "d")


class EngelError(Exception):
    pass


def check_defining_forms(space, alpha, beta, policy):
    """The three pointwise conditions on a defining pair.

    nonintegrability: alpha ^ dalpha has no zeros
    span:             alpha ^ beta ^ dbeta has no zeros
    flag:             alpha ^ dalpha ^ beta vanishes identically
    """
    da = d(alpha)
    ranges = space.coord_ranges
    return {
        "nonintegrability": nonzero(wedge(alpha, da), ranges, policy),
        "span": nonzero(wedge(wedge(alpha, beta), d(beta)), ranges, policy),
        "flag": zero(wedge(wedge(alpha, da), beta), ranges, policy),
    }


def characteristic_field(space, alpha, policy):
    """Span of ker(alpha ^ dalpha), normalized to a unit component.

    Each component K_k of K = kernel_line(alpha ^ dalpha) that vanishes
    nowhere gives a candidate K / K_k; quotient-free candidates win first,
    then structurally smallest, then the earliest frame direction.
    """
    w3 = wedge(alpha, d(alpha))
    if w3.is_structurally_zero():
        raise EngelError("alpha ^ dalpha vanishes identically")
    K = kernel_line(w3)
    candidates = []
    for k, ck in enumerate(K.comps):
        ck = ex.cleanup(ck)
        if nonvanishing([ck], space.coord_ranges, policy).ok:
            f = K.scale(ex.div(ex.ONE, ck)).cleanup()
            quality = (any(ex.has_div(c) for c in f.comps),
                       sum(ex.size(c) for c in f.comps), k)
            candidates.append((quality, f))
    if not candidates:
        raise EngelError("no normalization pins down ker(alpha ^ dalpha)")
    return min(candidates, key=lambda t: t[0])[1]


def complement_field(space, alpha, beta, W, policy):
    """A direction X with alpha(X) = beta(X) = 0, independent of W.

    The kernel is a plane, so each unit-component normalization is
    completed by greedily zeroing the remaining components.
    """
    candidates = []
    for k in range(space.dim):
        f = solve_kernel_greedy(space, [(alpha, ex.ZERO), (beta, ex.ZERO)],
                                policy, pinned={k: ex.ONE})
        if f is None:
            continue
        f = f.cleanup()
        minors = [ex.add(ex.mul(W.comps[i], f.comps[j]),
                         ex.neg(ex.mul(W.comps[j], f.comps[i])))
                  for i in range(space.dim) for j in range(i + 1, space.dim)]
        if not nonvanishing(minors, space.coord_ranges, policy).ok:
            continue
        quality = (any(ex.has_div(c) for c in f.comps),
                   sum(ex.size(c) for c in f.comps), k)
        candidates.append((quality, f))
    if not candidates:
        raise EngelError("no complement to W inside ker alpha ∩ ker beta")
    return min(candidates, key=lambda t: t[0])[1]


def reeb_pair(space, alpha, beta, policy):
    """The transverse pair: T spans the dbeta-characteristic direction of
    the span plane field, R the alpha-normalized one.

        i_T (alpha ^ dbeta) = 0,  beta(T) = 1,  alpha(T) = 0
        i_R (beta ^ dbeta) = 0,   beta(R) = 0,  alpha(R) = 1

    T = K_T / beta(K_T) and R = K_R / alpha(K_R) for the kernel lines of
    alpha ^ dbeta and beta ^ dbeta; the normalizers are minus and plus the
    density of alpha ^ beta ^ dbeta, nonvanishing by the span condition.
    alpha(T) = 0 and beta(R) = 0 hold identically.
    """
    db = d(beta)
    out = []
    for name, w, theta in (("T", wedge(alpha, db), beta),
                           ("R", wedge(beta, db), alpha)):
        K = kernel_line(w)
        norm = ex.cleanup(pair(theta, K))
        verdict = nonvanishing([norm], space.coord_ranges, policy)
        if not verdict.ok:
            raise EngelError(f"transverse direction {name}: "
                             f"{verdict.describe()}")
        out.append(K.scale(ex.div(ex.ONE, norm)).cleanup())
    return tuple(out)


def bracket_table(framing):
    """24 structure functions of the framing: [A, B] expanded in the frame.

    Keys are letter_pair, with a, b, c, d the W, X, T, R coefficients.
    """
    W, X, T, R = framing
    fields = {"W": W, "X": X, "T": T, "R": R}
    theta = dual_coframe([W, X, T, R])
    table = {}
    for pq in PAIRS:
        br = bracket(fields[pq[0]], fields[pq[1]])
        for li, letter in enumerate(LETTERS):
            table[f"{letter}_{pq}"] = ex.cleanup(pair(theta[li], br))
    return table


def adapted_framing(space, alpha, beta, W, X, T, policy):
    """Rescale W and X so that beta([W,X]) = 1 and alpha([X,T]) = 1.

    Returns (W', X', u, v) with W' = u W, X' = v X.  The rescaled W' is
    independent of the admissible choices of W and X.
    """
    c_wx = ex.cleanup(pair(beta, bracket(W, X)))
    if not nonvanishing([c_wx], space.coord_ranges, policy).ok:
        raise EngelError("beta([W,X]) vanishes somewhere: framing degenerate")
    d_xt = ex.cleanup(pair(alpha, bracket(X, T)))
    if not nonvanishing([d_xt], space.coord_ranges, policy).ok:
        raise EngelError("alpha([X,T]) vanishes somewhere: framing degenerate")
    u = ex.cleanup(ex.div(d_xt, c_wx))
    v = ex.cleanup(ex.div(ex.ONE, d_xt))
    Wp = W.scale(u).cleanup()
    Xp = X.scale(v).cleanup()
    for name, val in (("beta([W',X'])", pair(beta, bracket(Wp, Xp))),
                      ("alpha([X',T])", pair(alpha, bracket(Xp, T)))):
        verdict = zero([ex.add(val, ex.rat(-1))], space.coord_ranges, policy)
        if not verdict.ok:
            raise EngelError(f"{name} != 1 after rescaling: "
                             f"{verdict.describe()}")
    return Wp, Xp, u, v


class EngelData:
    """A defining pair with its adapted framing and bracket table."""

    def __init__(self, space, alpha, beta, W, X, T, R, u, v, W_raw, X_raw,
                 defining):
        self.space = space
        self.alpha = alpha
        self.beta = beta
        self.W = W
        self.X = X
        self.T = T
        self.R = R
        self.u = u
        self.v = v
        self.W_raw = W_raw
        self.X_raw = X_raw
        self.defining = defining
        self._table = None

    @property
    def table(self):
        if self._table is None:
            self._table = bracket_table((self.W, self.X, self.T, self.R))
        return self._table

    @property
    def c_TR(self):
        # beta is the T-dual coframe leg, so this avoids the full table
        if self._table is not None:
            return self._table["c_TR"]
        return ex.cleanup(pair(self.beta, bracket(self.T, self.R)))

    def framing(self):
        return (self.W, self.X, self.T, self.R)


def analyze(space, alpha, beta, policy, W=None, X=None):
    """Full pipeline from a defining pair to adapted data.

    W and X hints are verified (kernel membership resp. annihilation) and
    derived from scratch when absent.
    """
    defining = check_defining_forms(space, alpha, beta, policy)
    da = d(alpha)
    if W is not None:
        v = zero(interior(W, wedge(alpha, da)), space.coord_ranges, policy)
        if not v.ok:
            raise EngelError(
                f"W hint not in ker(alpha ^ dalpha): {v.describe()}")
    else:
        W = characteristic_field(space, alpha, policy)
    if X is not None:
        v = zero([pair(alpha, X), pair(beta, X)], space.coord_ranges, policy)
        if not v.ok:
            raise EngelError(f"X hint not in ker alpha ∩ ker beta: "
                             f"{v.describe()}")
    else:
        X = complement_field(space, alpha, beta, W, policy)
    T, R = reeb_pair(space, alpha, beta, policy)
    det = determinant([W, X, T, R])
    if not nonvanishing([det], space.coord_ranges, policy).ok:
        raise EngelError("framing (W, X, T, R) degenerates somewhere")
    Wp, Xp, u, v = adapted_framing(space, alpha, beta, W, X, T, policy)
    return EngelData(space, alpha, beta, Wp, Xp, T, R, u, v, W, X,
                     defining=defining)


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
    c_tr = data.c_TR
    db = d(data.beta)
    out = {"c_TR": c_tr}
    ranges = sp.coord_ranges
    out["c_TR matches dbeta(R,T)"] = zero(
        [ex.add(pair(db, R, T), ex.neg(c_tr))], ranges, policy)
    # the plane field span(T, R) is the kernel of dbeta + c_TR beta ^ alpha
    omega = db + wedge(data.beta, data.alpha).scale(c_tr)
    for name, V in (("T", T), ("R", R)):
        out[f"kernel contains {name}"] = zero(interior(V, omega), ranges,
                                              policy)
    out["integrable"] = zero(wedge(d(data.alpha.scale(c_tr)), data.beta),
                             ranges, policy)
    tr = bracket(T, R)
    for name, V in (("W", W), ("X", X)):
        out[f"closure det with {name}"] = zero(
            [determinant([T, R, tr, V])], ranges, policy)
    return out


# ---------------------------------------------------------------------------
# transformation laws for the defining pair

def transform_forms(data, lam, mu, nu, policy):
    """Replace (alpha, beta) by (lam alpha, mu beta + nu alpha).

    Input data must carry the adapted framing (the closed-form laws below
    are stated for it).  Returns the re-analyzed data for the new pair plus
    verdicts comparing the recomputed T, R, c_TR with the closed forms for
    the three elementary moves.
    """
    sp = data.space
    lam = ex.normalize(lam)
    mu = ex.normalize(mu)
    nu = ex.normalize(nu)
    alpha2 = data.alpha.scale(lam).cleanup()
    beta2 = (data.beta.scale(mu) + data.alpha.scale(nu)).cleanup()
    new = analyze(sp, alpha2, beta2, policy, W=data.W, X=data.X)
    W, X, T, R = data.framing()
    t = data.table
    checks = {}

    def lsc(V, f):
        return sp.lie_scalar(V, f)

    def fields_match(name, A, B):
        checks[name] = zero(A - B, sp.coord_ranges, policy)

    def scalar_match(name, a, b):
        checks[name] = zero([ex.add(a, ex.neg(b))], sp.coord_ranges, policy)

    if mu == ex.ONE and nu == ex.ZERO:
        fields_match("T unchanged", new.T, T)
        fields_match("R scales by 1/lam", new.R,
                     R.scale(ex.div(ex.ONE, lam)))
        scalar_match("c_TR scales by 1/lam", new.c_TR,
                     ex.div(t["c_TR"], lam))
    elif lam == ex.ONE and nu == ex.ZERO:
        fields_match("R unchanged", new.R, R)
        shifted = (W.scale(ex.neg(ex.div(lsc(X, mu), mu)))
                   + X.scale(ex.div(lsc(W, mu), mu)) + T)
        fields_match("T shifts by the mu-gradient", new.T,
                     shifted.scale(ex.div(ex.ONE, mu)))
        scalar_match("c_TR shifts by R(mu)/mu", new.c_TR,
                     ex.add(t["c_TR"], ex.div(lsc(R, mu), mu)))
    elif lam == ex.ONE and mu == ex.ONE:
        fields_match("T shears by nu W", new.T, W.scale(nu) + T)
        sheared = (W.scale(ex.add(ex.neg(ex.pow_(nu, 2)),
                                  ex.neg(lsc(X, nu)),
                                  ex.mul(nu, t["d_XR"])))
                   + X.scale(ex.add(lsc(W, nu),
                                    ex.neg(ex.mul(nu, t["d_WR"]))))
                   + T.scale(ex.neg(nu)) + R)
        fields_match("R shears in the plane", new.R, sheared)
        scalar_match("c_TR shear law", new.c_TR,
                     ex.add(t["c_TR"], ex.neg(ex.mul(nu, lsc(W, nu))),
                            ex.neg(lsc(T, nu)),
                            ex.mul(ex.pow_(nu, 2), t["d_WR"]),
                            ex.mul(nu, t["d_TR"])))
    return new, checks


# ---------------------------------------------------------------------------
# the two coframe criteria

def dbeta2_criterion(data, policy):
    """Whether some rescaling mu beta satisfies d(mu beta) ^ d(mu beta) = 0.

    Works with the original (unrescaled) framing: the verdict is the
    vanishing of a_WR + b_XR there, and mu = 1/beta([W,X]) realizes it.
    """
    sp = data.space
    W, X = data.W_raw, data.X_raw
    T, R = data.T, data.R
    theta = dual_coframe([W, X, T, R])
    a_wr = ex.cleanup(pair(theta[0], bracket(W, R)))
    b_xr = ex.cleanup(pair(theta[1], bracket(X, R)))
    out = {}
    out["a_WR + b_XR"] = zero([ex.add(a_wr, b_xr)], sp.coord_ranges, policy)
    c_wx = ex.cleanup(pair(data.beta, bracket(W, X)))
    mu = ex.cleanup(ex.div(ex.ONE, c_wx))
    out["mu"] = mu
    scaled = data.beta.scale(mu).cleanup()
    out["d(mu beta)^2"] = zero(wedge(d(scaled), d(scaled)), sp.coord_ranges,
                               policy)
    return out


def rho_criterion(data, policy):
    """Invariance of the W-leg of the dual coframe along R.

    Preconditions: dalpha ^ dalpha = 0 and beta = -X(alpha) (the adapted
    framing satisfies the second whenever the pair does).  The verdict is
    (L_R rho) ^ beta = 0 for rho the W-dual coframe leg; equivalent to the
    vanishing of both a_WR and a_XR.
    """
    sp = data.space
    W, X, T, R = data.framing()
    ranges = sp.coord_ranges
    out = {}
    da = d(data.alpha)
    out["dalpha^2"] = zero(wedge(da, da), ranges, policy)
    out["beta + X(alpha)"] = zero(data.beta + lie_form(X, data.alpha),
                                  ranges, policy)
    rho = dual_coframe([W, X, T, R])[0]
    out["(L_R rho) ^ beta"] = zero(wedge(lie_form(R, rho), data.beta),
                                   ranges, policy)
    out["a_WR"] = zero([data.table["a_WR"]], ranges, policy)
    out["a_XR"] = zero([data.table["a_XR"]], ranges, policy)
    drho = d(rho).cleanup()
    out["drho"] = drho
    out["drho zero"] = zero(drho, ranges, policy)
    return out

