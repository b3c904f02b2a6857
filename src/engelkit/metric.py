"""Frame metrics: Killing residuals, tangency and the bracket pattern.

The metric a computation needs is almost always the one making the adapted
framing orthonormal; it is stored as a symmetric matrix of components over
the space's own basis so that non-orthonormal metrics can be fed through the
same checks.
"""

from . import expr as ex
from .frames import FrameError, bracket, dual_coframe, zero


class Metric:
    """A symmetric 2-tensor given by its matrix over the space's basis."""

    def __init__(self, space, matrix):
        self.space = space
        n = space.dim
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise FrameError(f"metric matrix must be {n} by {n}")
        self.matrix = tuple(tuple(ex.normalize(c) for c in row)
                            for row in matrix)
        for i in range(n):
            for j in range(i):
                if not ex.is_zero(ex.cleanup(ex.add(
                        self.matrix[i][j], ex.neg(self.matrix[j][i])))):
                    raise FrameError("metric matrix must be symmetric")

    def inner(self, U, V):
        terms = []
        for i, ui in enumerate(U.comps):
            if ex.is_zero(ui):
                continue
            for j, vj in enumerate(V.comps):
                if ex.is_zero(vj) or ex.is_zero(self.matrix[i][j]):
                    continue
                terms.append(ex.mul(ui, self.matrix[i][j], vj))
        return ex.cleanup(ex.add(*terms)) if terms else ex.ZERO


def framing_metric(space, framing):
    """The metric making an arbitrary framing orthonormal."""
    theta = dual_coframe(list(framing))
    n = space.dim
    matrix = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            matrix[i][j] = matrix[j][i] = ex.cleanup(ex.add(
                *[ex.mul(th.comp((i,)), th.comp((j,))) for th in theta]))
    return Metric(space, matrix)


def orthonormal_metric(data):
    """The metric making the adapted framing W, X, T, R orthonormal."""
    return framing_metric(data.space, data.framing())


def killing_report(g, Z, policy):
    """Residuals of the Killing equation for Z, one per basis pair."""
    sp = g.space
    out = {}
    zbr = [bracket(Z, sp.basis_field(i)) for i in range(sp.dim)]
    for i in range(sp.dim):
        for j in range(i, sp.dim):
            ei, ej = sp.basis_field(i), sp.basis_field(j)
            resid = ex.add(sp.lie_scalar(Z, g.matrix[i][j]),
                           ex.neg(g.inner(zbr[i], ej)),
                           ex.neg(g.inner(ei, zbr[j])))
            out[f"({sp.names[i]},{sp.names[j]})"] = zero(
                [resid], sp.coord_ranges, policy)
    return out


def tangency_expr(g, U, Up, V, UV, UpV):
    """The obstruction to span(U, U') being geodesically closed along V,
    given the brackets UV = [U, V] and UpV = [U', V].

    For U, U' spanning a plane orthogonal to V this is (minus twice) the
    V-component of the symmetrized second fundamental form:

        V(g(U, U')) + g([U, V], U') + g([U', V], U)
    """
    sp = g.space
    return ex.cleanup(ex.add(
        sp.lie_scalar(V, g.inner(U, Up)),
        g.inner(UV, Up),
        g.inner(UpV, U)))


def tangency_report(data, g, plane, policy):
    """Totally-geodesic test for one of the two canonical plane fields.

    plane="D" tests span(W, X) against the normals T, R; plane="R" tests
    span(T, R) against W, X.  Returns the per-triple verdicts and the
    obstruction expressions they test.
    """
    if plane == "D":
        tangent, normal = "WX", "TR"
    elif plane == "R":
        tangent, normal = "TR", "WX"
    else:
        raise ValueError(f"unknown plane {plane!r}")
    fields = dict(zip("WXTR", data.framing()))
    # [U, V] for U tangent and V normal: a framing bracket, or minus one
    lie = {u + v: data.brackets[u + v] if u + v in data.brackets
           else data.brackets[v + u].scale(ex.rat(-1))
           for u in tangent for v in normal}
    verdicts, exprs = {}, {}
    for ai, na in enumerate(tangent):
        for nb in tangent[ai:]:
            for nv in normal:
                name = f"({na},{nb};{nv})"
                exprs[name] = tangency_expr(g, fields[na], fields[nb],
                                            fields[nv], lie[na + nv],
                                            lie[nb + nv])
                verdicts[name] = zero([exprs[name]],
                                      data.space.coord_ranges, policy)
    return verdicts, exprs


COMMUTATOR_ZEROS = ("a_WT", "c_WT", "d_WT", "a_WR", "c_WR",
                    "b_XT", "c_XT", "b_XR", "c_XR")


def bracket_pattern_report(data, policy):
    """The bracket-coefficient pattern forced by an orthonormal framing
    whose plane field is totally geodesic: nine entries vanish and two
    antisymmetric pairs cancel."""
    t = data.table
    ranges = data.space.coord_ranges
    out = {key: zero([t[key]], ranges, policy) for key in COMMUTATOR_ZEROS}
    for name, a, b in (("a_XT + b_WT", t["a_XT"], t["b_WT"]),
                       ("a_XR + b_WR", t["a_XR"], t["b_WR"])):
        out[name] = zero([ex.add(a, b)], ranges, policy)
    return out

