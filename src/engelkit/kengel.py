"""The triple check: a field Z that is Engel, Killing, and orthogonal to E.

Z is Engel when its flow preserves D = ker alpha ∩ ker beta, so alpha and
beta vanish on [Z,W] and [Z,X]; the framing's brackets are read, not rebuilt.

A structure passing kengel_check admits defining forms with dalpha^2 = 0,
dbeta^2 = 0 and beta ^ dalpha = 0, built here by rescaling alpha so that
alpha(Z) = 1 and taking beta = -L_X alpha.  The canonical Reeb direction of
the rescaled pair then coincides with Z, the whole adapted framing commutes
with it, and the table entries are constant along its orbits.
"""

from . import expr as ex
from .engel import analyze
from .frames import bracket, d, lie_form, pair, wedge, zero
from .metric import killing_report
from .sampling import failed, fmt_point, nonvanishing


class KEngelError(Exception):
    """A construction failed; names lists the failing checks, if any."""

    def __init__(self, message, names=()):
        super().__init__(message)
        self.names = list(names)


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
    R = data.R
    t = data.table
    out = dict(form_conditions(sp, data.alpha, data.beta, policy))
    for pq in ("WR", "XR", "TR"):
        out[f"[{pq[0]},{pq[1]}]"] = zero(data.brackets[pq], ranges, policy)
    for key in ("a_WX", "a_WT", "b_WT", "a_XT"):
        out[f"R({key})"] = zero([sp.lie_scalar(R, t[key])], ranges, policy)
    out["b_WX"] = zero([t["b_WX"]], ranges, policy)
    out["d_WR"] = zero([t["d_WR"]], ranges, policy)
    out["b_XT + a_WT"] = zero([ex.add(t["b_XT"], t["a_WT"])], ranges, policy)
    return out


def kengel_check(data, g, Z, policy):
    """Is Z an Engel field (alpha and beta vanish on [Z,W] and [Z,X]), a
    Killing field, and orthogonal to E?  The verdicts come in that order,
    the Killing residuals named `Killing (a,b)`."""
    sp = data.space
    W, X = data.W, data.X
    out = {}
    for name, V in (("[Z,W]", bracket(Z, W)), ("[Z,X]", bracket(Z, X))):
        out[f"{name} stays in the plane"] = zero(
            [pair(data.alpha, V), pair(data.beta, V)], sp.coord_ranges,
            policy)
    for name, v in killing_report(g, Z, policy).items():
        out[f"Killing {name}"] = v
    for name, V in (("g(Z,W)", W), ("g(Z,X)", X),
                    ("g(Z,[W,X])", data.brackets["WX"])):
        out[name] = zero([g.inner(Z, V)], sp.coord_ranges, policy)
    return out


def certify(kd, Z, policy, not_reeb, where):
    """Z must be the Reeb direction of kd and every K-Engel invariant hold.

    Raises KEngelError with the text not_reeb, or naming the failing
    invariants on `where`.
    """
    v = zero(kd.R - Z, kd.space.coord_ranges, policy)
    if not v.ok:
        raise KEngelError(f"{not_reeb}: {v.describe()}", ["Reeb direction"])
    bad = failed(kengel_invariants(kd, policy))
    if bad:
        raise KEngelError(f"invariants fail on {where}: " + ", ".join(bad),
                          bad)


def kengel_framing(data, g, Z, policy, rank=None):
    """Defining forms and framing adapted to the distinguished field Z.

    alpha is rescaled so alpha(Z) = 1, beta is rebuilt as -L_X alpha, and
    the re-analyzed pair must have Reeb direction Z and satisfy every
    K-Engel invariant.  rank is carried over to the result.
    """
    bad = failed(kengel_check(data, g, Z, policy))
    if bad:
        raise KEngelError("the triple check fails: " + ", ".join(bad), bad)
    sp = data.space
    a = ex.cleanup(pair(data.alpha, Z))
    v = nonvanishing([a], sp.coord_ranges, policy)
    if not v.ok:
        raise KEngelError(f"alpha(Z) = {ex.to_str(a)} vanishes near "
                          f"{fmt_point(v.point)}", ["alpha(Z)"])
    alpha1 = data.alpha.scale(ex.div(ex.ONE, a)).cleanup()
    beta1 = lie_form(data.X, alpha1).scale(ex.rat(-1)).cleanup()
    kd = analyze(sp, alpha1, beta1, policy, W=data.W, X=data.X)
    certify(kd, Z, policy, "Reeb direction of the rebuilt pair is not Z",
            "the rebuilt pair")
    return KEngelData(kd, g, Z, rank=rank)
