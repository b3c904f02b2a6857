"""The triple check: a field Z that is Engel, Killing, and orthogonal to E.

A structure passing kengel_check admits defining forms with dalpha^2 = 0,
dbeta^2 = 0 and beta ^ dalpha = 0, built here by rescaling alpha so that
alpha(Z) = 1 and taking beta = -L_X alpha.  The canonical Reeb direction of
the rescaled pair then coincides with Z, the whole adapted framing commutes
with it, and the table entries are constant along its orbits.
"""

from . import expr as ex
from .engel import analyze
from .frames import (bracket, d, determinant, dual_coframe, lie_form, pair,
                     wedge, zero)
from .metric import framing_metric, killing_report
from .sampling import failed, fmt_point, nonvanishing


class KEngelError(Exception):
    pass


class KEngelData:
    """An analyzed pair whose Reeb direction is the distinguished field.

    rank, when known, is the dimension of the torus closing up the Z-orbits
    (1 for circle fibres); filling checks require rank 1.
    """

    def __init__(self, data, g, Z, rank=None):
        self.data = data
        self.g = g
        self.Z = Z
        self.rank = rank

    def kframing(self):
        return self.data.framing()


def form_conditions(space, alpha, beta, policy):
    """The three closedness conditions the good defining pair satisfies."""
    da = d(alpha)
    db = d(beta)
    return {name: zero(form, space.coord_ranges, policy)
            for name, form in (("d(alpha)^2", wedge(da, da)),
                               ("d(beta)^2", wedge(db, db)),
                               ("beta ^ d(alpha)", wedge(beta, da)))}


def kengel_invariants(data, policy):
    """Everything a K-Engel pair's adapted data must satisfy.

    Beyond the form conditions: the framing commutes with R, the table
    functions are constant along R, and the entries b_WX, d_WR vanish with
    b_XT = -a_WT.
    """
    sp = data.space
    ranges = sp.coord_ranges
    W, X, T, R = data.framing()
    t = data.table
    out = dict(form_conditions(sp, data.alpha, data.beta, policy))
    for name, V in (("[W,R]", bracket(W, R)), ("[X,R]", bracket(X, R)),
                    ("[T,R]", bracket(T, R))):
        out[name] = zero(V, ranges, policy)
    for key in ("a_WX", "a_WT", "b_WT", "a_XT"):
        out[f"R({key})"] = zero([sp.lie_scalar(R, t[key])], ranges, policy)
    out["b_WX"] = zero([t["b_WX"]], ranges, policy)
    out["d_WR"] = zero([t["d_WR"]], ranges, policy)
    out["b_XT + a_WT"] = zero([ex.add(t["b_XT"], t["a_WT"])], ranges, policy)
    return out


def kengel_check(data, g, Z, policy):
    """Is Z an Engel field, a Killing field, and orthogonal to E?"""
    sp = data.space
    W, X, T, R = data.framing()
    Y = bracket(W, X)
    engel = {}
    for name, V in (("[Z,W]", bracket(Z, W)), ("[Z,X]", bracket(Z, X))):
        dets = [determinant([W, X, V, T]), determinant([W, X, V, R])]
        engel[f"{name} stays in the plane"] = zero(dets, sp.coord_ranges,
                                                   policy)
    killing = killing_report(g, Z, policy)
    ortho = {}
    for name, V in (("g(Z,W)", W), ("g(Z,X)", X), ("g(Z,[W,X])", Y)):
        ortho[name] = zero([g.inner(Z, V)], sp.coord_ranges, policy)
    report = {"engel": engel, "killing": killing, "orthogonal": ortho}
    report["ok"] = not failing(report)
    return report


def failing(report):
    """Names of the failed checks in a kengel_check report."""
    return (failed(report["engel"])
            + [f"Killing {k}" for k in failed(report["killing"])]
            + failed(report["orthogonal"]))


def _refibre(data, Z, policy, label):
    """Rescale alpha so alpha(Z) = 1, rebuild beta = -L_X alpha, re-analyze.

    The rebuilt pair must have Reeb direction Z and pass every K-Engel
    invariant; label names Z in error messages.
    """
    sp = data.space
    a = ex.cleanup(pair(data.alpha, Z))
    v = nonvanishing([a], sp.coord_ranges, policy)
    if not v.ok:
        raise KEngelError(f"alpha({label}) = {ex.to_str(a)} vanishes near "
                          f"{fmt_point(v.point)}")
    alpha1 = data.alpha.scale(ex.div(ex.ONE, a)).cleanup()
    beta1 = lie_form(data.X, alpha1).scale(ex.rat(-1)).cleanup()
    kd = analyze(sp, alpha1, beta1, policy, W=data.W, X=data.X)
    v = zero(kd.R - Z, sp.coord_ranges, policy)
    if not v.ok:
        raise KEngelError(f"Reeb direction of the rebuilt pair is not "
                          f"{label}: {v.describe()}")
    bad = failed(kengel_invariants(kd, policy))
    if bad:
        raise KEngelError("invariants fail on the rebuilt pair: "
                          + ", ".join(bad))
    return kd


def kengel_framing(data, g, Z, policy):
    """Defining forms and framing adapted to the distinguished field Z.

    alpha is rescaled so alpha(Z) = 1, beta is rebuilt as -L_X alpha, and
    the re-analyzed pair must have Reeb direction Z and satisfy every
    K-Engel invariant.
    """
    check = kengel_check(data, g, Z, policy)
    if not check["ok"]:
        raise KEngelError(
            "the triple check fails: " + ", ".join(failing(check)))
    return KEngelData(_refibre(data, Z, policy, "Z"), g, Z)


def converse_metric(data, X, policy):
    """A metric turning a good pair plus an eigen-section into K-Engel data.

    The pair must satisfy the three form conditions and R must preserve the
    line of X.  The returned metric makes the framing (W, X, T, R) built
    from the given section orthonormal; (D, g, R) passes kengel_check.
    """
    sp = data.space
    bad = failed(form_conditions(sp, data.alpha, data.beta, policy))
    if bad:
        raise KEngelError("form conditions fail: " + ", ".join(bad))
    v = zero([pair(data.alpha, X), pair(data.beta, X)], sp.coord_ranges,
             policy)
    if not v.ok:
        raise KEngelError(f"the section is not tangent to the plane field: "
                          f"{v.describe()}")
    W, _, T, R = data.framing()
    framing = (W, X, T, R)
    v = nonvanishing([ex.cleanup(determinant(list(framing)))],
                     sp.coord_ranges, policy)
    if not v.ok:
        raise KEngelError(f"the section is parallel to the characteristic "
                          f"direction near {fmt_point(v.point)}")
    theta = dual_coframe(list(framing))
    rx = bracket(R, X)
    comps = {name: ex.cleanup(pair(th, rx))
             for name, th in zip("WXTR", theta)}
    wv = zero([comps["W"]], sp.coord_ranges, policy)
    if not wv.ok:
        raise KEngelError(
            f"[R,X] has a W-component, so no metric makes R act "
            f"diagonally on this section: {wv.describe()}")
    report = {"[R,X] along W": wv}
    for name in "TR":
        report[f"[R,X] along {name}"] = zero([comps[name]], sp.coord_ranges,
                                             policy)
    scale = zero([comps["X"]], sp.coord_ranges, policy)
    report["[R,X] along X"] = scale
    bad = failed(report)
    if bad:
        if scale.ok:
            raise KEngelError("[R,X] leaves the section's line: "
                              + ", ".join(bad))
        # a genuinely scaling action would need an integrating factor
        # along the R-flow, which these chart models never require
        raise KEngelError(
            f"R rescales the section ([R,X] along X: "
            f"{ex.to_str(comps['X'])}); pick a commuting section")
    for name, V in (("[R,W]", bracket(R, W)), ("[R,T]", bracket(R, T))):
        vz = zero(V, sp.coord_ranges, policy)
        report[name] = vz
        if not vz.ok:
            raise KEngelError(f"{name} != 0: {vz.describe()}")
    g = framing_metric(sp, framing)
    check = kengel_check(data, g, R, policy)
    report["triple check"] = check
    if not check["ok"]:
        raise KEngelError("constructed metric fails the triple check: "
                          + ", ".join(failing(check)))
    return g, report


def rank1_perturbation(kdata, Ri, policy):
    """Re-fibre a K-Engel structure along a commuting field Ri.

    alpha_i = (1/alpha(Ri)) alpha and beta_i = -L_X alpha_i; the rebuilt
    pair must again pass the full invariant set, now with Reeb = Ri.
    """
    data = kdata.data
    for name, V in zip(("W", "X", "T", "R"), data.framing()):
        v = zero(bracket(Ri, V), data.space.coord_ranges, policy)
        if not v.ok:
            raise KEngelError(f"Ri does not commute with {name}: "
                              f"{v.describe()}")
    return KEngelData(_refibre(data, Ri, policy, "Ri"), kdata.g, Ri,
                      rank=kdata.rank)
