"""Frame metrics: Killing residuals, tangency and the bracket pattern.

The metric a computation needs is almost always the one making the adapted
framing orthonormal; it is stored as a symmetric matrix of components over
the space's own basis so that non-orthonormal metrics can be fed through the
same checks.
"""

from . import expr as ex
from .frames import VectorField, _det, bracket, cramer, dual_coframe, zero


class Metric:
    """A symmetric 2-tensor given by its matrix over the space's basis."""

    def __init__(self, space, matrix):
        self.space = space
        n = space.dim
        assert len(matrix) == n and all(len(row) == n for row in matrix)
        self.matrix = tuple(tuple(ex.normalize(c) for c in row)
                            for row in matrix)
        for i in range(n):
            for j in range(i):
                assert ex.cleanup(ex.add(self.matrix[i][j],
                                         ex.neg(self.matrix[j][i]))) \
                    == ex.ZERO, "metric matrix must be symmetric"

    def inner(self, U, V):
        terms = []
        for i, ui in enumerate(U.comps):
            if ui == ex.ZERO:
                continue
            for j, vj in enumerate(V.comps):
                if vj == ex.ZERO or self.matrix[i][j] == ex.ZERO:
                    continue
                terms.append(ex.mul(ui, self.matrix[i][j], vj))
        return ex.cleanup(ex.add(*terms)) if terms else ex.ZERO

    def norm_sq(self, U):
        return self.inner(U, U)

    def dual_field(self, w):
        """The vector field A with g(A, V) = w(V) for every V."""
        assert w.degree == 1
        det = ex.cleanup(_det(self.matrix))
        if det == ex.ZERO:
            raise ValueError("metric matrix is degenerate")
        rhs = [w.comp((i,)) for i in range(self.space.dim)]
        return VectorField(self.space, cramer(self.matrix, rhs, det))


def framing_metric(space, framing, weights=None):
    """A metric diagonal in an arbitrary framing with the given weights."""
    theta = dual_coframe(list(framing))
    if weights is None:
        weights = [ex.ONE] * len(theta)
    n = space.dim
    matrix = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(ex.cleanup(ex.add(
                *[ex.mul(w, th.comp((i,)), th.comp((j,)))
                  for w, th in zip(weights, theta)])))
        matrix.append(row)
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


def tangency_expr(g, U, Up, V):
    """The obstruction to span(U, U') being geodesically closed along V.

    For U, U' spanning a plane orthogonal to V this is (minus twice) the
    V-component of the symmetrized second fundamental form:

        V(g(U, U')) + g([U, V], U') + g([U', V], U)
    """
    sp = g.space
    return ex.cleanup(ex.add(
        sp.lie_scalar(V, g.inner(U, Up)),
        g.inner(bracket(U, V), Up),
        g.inner(bracket(Up, V), U)))


def tangency_report(data, g, plane, policy):
    """Totally-geodesic test for one of the two canonical plane fields.

    plane="D" tests span(W, X) against the normals T, R; plane="R" tests
    span(T, R) against W, X.  Returns per-pair verdicts, the overall flag,
    and the first failing obstruction as a witness.
    """
    W, X, T, R = data.framing()
    if plane == "D":
        tangent = [("W", W), ("X", X)]
        normal = [("T", T), ("R", R)]
    elif plane == "R":
        tangent = [("T", T), ("R", R)]
        normal = [("W", W), ("X", X)]
    else:
        raise ValueError(f"unknown plane {plane!r}")
    checks = {}
    witness = None
    geodesic = True
    for ai in range(len(tangent)):
        for bi in range(ai, len(tangent)):
            na, U = tangent[ai]
            nb, Up = tangent[bi]
            for nv, V in normal:
                e = tangency_expr(g, U, Up, V)
                verdict = zero([e], data.space.coord_ranges, policy)
                name = f"({na},{nb};{nv})"
                checks[name] = (e, verdict)
                if not verdict.ok:
                    geodesic = False
                    if witness is None:
                        witness = (name, ex.to_str(e))
    return {"checks": checks, "totally geodesic": geodesic,
            "witness": witness}


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

