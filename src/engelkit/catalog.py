"""Exact catalog of the invariant 4-dim geometries and their framings.

Each geometry is a 4-dim Lie algebra with rational structure constants
(parameters are substituted as declared rationals), held as an all-invariant
`FrameSpace`.  The questions asked are linear-algebraic and answered exactly
over Q:

* does the Jacobi identity hold (`jacobi_check`; building the space does
  not check it, so a failing geometry is reported, not refused),
* what is the commutant of a set of elements,
* given a plane D = span{W, X} that bracket-generates, is there a framing
  {W, X, Y = [W,X], R} with R commuting with the other three and
  transverse to their span,
* and for the found framings, do the exported defining forms pass the
  full K-Engel verification on the same frame space.

No sampling appears anywhere in this module; every verdict is exact.
"""

from fractions import Fraction

from . import expr as ex
from .engel import analyze
from .frames import FrameSpace, dual_coframe, jacobi_residuals
from .kengel import KEngelData, kengel_check, kengel_invariants
from .metric import orthonormal_metric
from .qfield import rational_rank, reduce_rows
from .sampling import SamplingPolicy, failed


class CatalogError(Exception):
    pass


def algebra(names, brackets):
    """A 4-dim all-invariant frame space from index-pair brackets.

    brackets maps (i, j) with i < j to the component vector of [e_i, e_j].
    The Jacobi identity is not enforced here: `jacobi_check` reports it.
    """
    return FrameSpace([("lie", n) for n in names],
                      brackets={(names[i], names[j]): vec
                                for (i, j), vec in brackets.items()})


def bracket_vec(lie, u, v):
    """[u, v]: the sum of (u_i v_j - u_j v_i) [e_i, e_j] over the stored
    brackets; a zero factor is tested first, as a product costs more."""
    out = [Fraction(0)] * lie.dim
    for (i, j), w in lie.structure.items():
        c = ((u[i] * v[j] if u[i] and v[j] else 0)
             - (u[j] * v[i] if u[j] and v[i] else 0))
        if c:
            for k, wk in enumerate(w):
                if wk:
                    out[k] += c * wk
    return out


def fmt_vec(names, vec):
    """A vector as a readable combination, e.g. '-C' or 'X1 + X2'."""
    parts = []
    for name, c in zip(names, vec):
        c = Fraction(c)
        if not c:
            continue
        if c == 1:
            term = name
        elif c == -1:
            term = f"-{name}"
        else:
            term = f"{c}*{name}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"


def jacobi_check(lie):
    """Exact Jacobi verdict; failures list the offending triples."""
    violations = [(tuple(lie.names[i] for i in triple), total)
                  for triple, total in jacobi_residuals(lie)]
    return not violations, violations


def _nullspace(rows):
    """Exact basis of {z : M z = 0} for a list of Fraction rows (which
    `reduce_rows` replaces, never changes)."""
    m = list(rows)
    pivots, _ = reduce_rows(m, 4)
    basis = []
    free = [c for c in range(4) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * 4
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


_UNITS = tuple(tuple(Fraction(int(m == i)) for m in range(4))
               for i in range(4))


def commutant(lie, elements):
    """Exact basis of {Z : [Z, s] = 0 for every s in elements}."""
    rows = []
    for s in elements:
        s = list(map(Fraction, s))
        cols = [bracket_vec(lie, e, s) for e in _UNITS]
        for k in range(4):
            rows.append([cols[i][k] for i in range(4)])
    if not rows:
        rows = [[Fraction(0)] * 4]
    return _nullspace(rows)


def det4(vectors):
    """Exact determinant of four component vectors as columns."""
    m = [[Fraction(vectors[j][i]) for j in range(4)] for i in range(4)]
    return reduce_rows(m, 4)[1]


def bracket_generates(lie, W, X):
    """Does span{W, X} + brackets up to depth two span the algebra?"""
    Y = bracket_vec(lie, W, X)
    span = [list(map(Fraction, W)), list(map(Fraction, X)), Y,
            bracket_vec(lie, Y, W), bracket_vec(lie, Y, X)]
    return rational_rank(span) == 4


def kengel_framing_search(lie, W, X, R_hint=None):
    """A framing {W, X, Y=[W,X], R} with commuting transverse R, if any.

    The commutant of {W, X} already commutes with Y (Jacobi), so R is
    sought there: the declared hint is verified when given, otherwise the
    first transverse basis vector wins.  When the whole commutant lies in
    span{W, X, Y} (in particular when it is zero), that is a certificate
    of nonexistence.
    """
    W = list(map(Fraction, W))
    X = list(map(Fraction, X))
    if not bracket_generates(lie, W, X):
        raise CatalogError("the plane span{W, X} does not bracket-generate")
    Y = bracket_vec(lie, W, X)
    basis = commutant(lie, [W, X, Y])
    out = {"Y": Y, "commutant": basis, "commutant_dim": len(basis),
           "R": None, "det": None, "found": False, "certificate": None}
    candidates = []
    if R_hint is not None:
        R_hint = list(map(Fraction, R_hint))
        for s in (W, X, Y):
            if any(bracket_vec(lie, R_hint, s)):
                raise CatalogError(
                    f"declared R = {fmt_vec(lie.names, R_hint)} does not "
                    f"commute with the framing")
        candidates.append(R_hint)
    candidates.extend(basis)
    for R in candidates:
        det = det4([W, X, Y, R])
        if det:
            out.update({"R": R, "det": det, "found": True})
            return out
    if not basis:
        out["certificate"] = "commutant is trivial"
    else:
        out["certificate"] = ("commutant lies in the span of the framing "
                              "plane and its bracket")
    return out


def export_data(lie, W, X, Y, R, policy):
    """The invariant-frame structure defined by a found framing.

    alpha and beta are the R- and Y-legs of the coframe dual to
    (W, X, Y, R); the plane field is then ker alpha ∩ ker beta and the
    whole analysis pipeline applies with exact arithmetic.
    """
    fields = [lie.field([ex.rat(c) for c in vec]) for vec in (W, X, Y, R)]
    theta = dual_coframe(fields)
    alpha, beta = theta[3], theta[2]
    return analyze(lie, alpha.cleanup(), beta.cleanup(), policy,
                   W=fields[0], X=fields[1])


# ---------------------------------------------------------------------------
# the geometry registry

def _sol_mn_algebra(c):
    c = [Fraction(x) for x in c]
    if sum(c) != 0:
        raise CatalogError(
            f"weights {', '.join(map(str, c))} do not sum to zero")
    return algebra(
        ["X1", "X2", "X3", "T"],
        {(0, 3): [-c[0], 0, 0, 0],
         (1, 3): [0, -c[1], 0, 0],
         (2, 3): [0, 0, -c[2], 0]})


def _sol0_algebra(a, b):
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise CatalogError("both weights of the spiral action must be "
                           "nonzero")
    return algebra(
        ["U1", "U2", "V", "T"],
        {(0, 3): [-a, -b, 0, 0],
         (1, 3): [b, -a, 0, 0],
         (2, 3): [0, 0, 2 * a, 0]})


def _product_algebra(k):
    return algebra(
        ["A", "B", "C", "P"],
        {(0, 1): [0, 0, 1, 0],
         (1, 2): [k, 0, 0, 0],
         (0, 2): [0, -k, 0, 0]})


GEOMETRIES = {
    "s3xr": {
        "label": "S3 x R",
        "build": lambda params: _product_algebra(1),
        "W": (0, 1, 0, 1), "X": (1, 0, 0, 0), "R": (0, 0, 0, 1),
        "params": {},
    },
    "sl2xr": {
        "label": "Sl2~ x R",
        "build": lambda params: _product_algebra(-1),
        "W": (0, 1, 0, 1), "X": (1, 0, 0, 0), "R": (0, 0, 0, 1),
        "params": {},
    },
    "nil3xr": {
        "label": "Nil3 x R",
        "build": lambda params: algebra(
            ["A", "B", "C", "D"],
            {(0, 1): [0, 0, 1, 0],
             (0, 3): [0, 1, 0, 0],
             (1, 3): [-1, 0, 0, 0]}),
        "W": (0, 0, 0, 1), "X": (1, 0, 0, 0), "R": (0, 0, -1, 0),
        "params": {},
    },
    "sol_mn": {
        "label": "Sol4(m,n)",
        "build": lambda params: _sol_mn_algebra(params["c"]),
        "W": (1, 1, 1, 0), "X": (0, 0, 0, 1), "R": None,
        "params": {"c": (1, 0, -1)},
    },
    "sol0": {
        "label": "Sol0^4",
        "build": lambda params: _sol0_algebra(params["a"], params["b"]),
        "W": (1, 0, 1, 0), "X": (0, 0, 0, 1), "R": None,
        "params": {"a": 1, "b": 1},
    },
    "sol1": {
        "label": "Sol1^4",
        "build": lambda params: algebra(
            ["A", "B", "C", "T"],
            {(0, 1): [0, 0, 1, 0],
             (0, 3): [1, 0, 0, 0],
             (1, 3): [0, -1, 0, 0]}),
        "W": (0, 0, 0, 1), "X": (1, 1, 0, 0), "R": (0, 0, 2, 0),
        "params": {},
    },
    "nil4": {
        "label": "Nil4",
        "build": lambda params: algebra(
            ["A", "B", "C", "D"],
            {(0, 3): [0, -1, 0, 0],
             (1, 3): [0, 0, -1, 0]}),
        "W": (1, 0, 0, 0), "X": (0, 0, 0, 1), "R": (0, 0, -1, 0),
        "params": {},
    },
}


def _check_sol_ordering(c):
    c = [Fraction(x) for x in c]
    return c[0] > c[1] > c[2]


def _shape(value):
    return len(value) if isinstance(value, tuple) else None


def fmt_params(params):
    """params in the `--params` notation, `k=v` or `k=v1,v2,v3`, separated
    by spaces and sorted by name; empty for no parameters."""
    return " ".join(
        f"{k}={','.join(str(x) for x in val)}" if isinstance(val, tuple)
        else f"{k}={val}" for k, val in sorted(params.items()))


def geometry_row(name, params=None, policy=None):
    """One catalog row: search for the framing, export and verify if found."""
    if name not in GEOMETRIES:
        raise CatalogError(f"unknown geometry {name!r}")
    entry = GEOMETRIES[name]
    merged = dict(entry["params"])
    for key, value in (params or {}).items():
        if key not in merged or _shape(value) != _shape(merged[key]):
            defaults = fmt_params(entry["params"]) or "none"
            raise CatalogError(f"bad parameter {key!r} for {name}; "
                               f"defaults: {defaults}")
        merged[key] = value
    lie = entry["build"](merged)
    row = {"name": name, "label": entry["label"], "params": merged}
    ok, violations = jacobi_check(lie)
    row["jacobi"] = ok
    if not ok:
        row["outcome"] = "error"
        row["violations"] = violations
        return row
    if name == "sol_mn":
        row["ordering"] = _check_sol_ordering(merged["c"])
    try:
        search = kengel_framing_search(lie, entry["W"], entry["X"],
                                       R_hint=entry["R"])
    except CatalogError as err:
        row["outcome"] = "-"
        row["certificate"] = str(err)
        row["commutant_dim"] = None
        return row
    row["search"] = search
    row["commutant_dim"] = search["commutant_dim"]
    if not search["found"]:
        row["outcome"] = "-"
        row["certificate"] = search["certificate"]
        return row
    row["outcome"] = "+"
    row["framing"] = {
        "W": fmt_vec(lie.names, entry["W"]),
        "X": fmt_vec(lie.names, entry["X"]),
        "Y": fmt_vec(lie.names, search["Y"]),
        "R": fmt_vec(lie.names, search["R"]),
    }
    policy = policy or SamplingPolicy()
    data = export_data(lie, entry["W"], entry["X"], search["Y"],
                       search["R"], policy)
    g = orthonormal_metric(data)
    R_field = data.space.field([ex.rat(c) for c in search["R"]])
    row["triple_ok"] = kengel_check(data, g, R_field, policy)["ok"]
    row["invariants_ok"] = not failed(kengel_invariants(data, policy))
    row["data"] = KEngelData(data, g, R_field)
    return row


CATALOG_SEQUENCE = (
    ("s3xr", None),
    ("sl2xr", None),
    ("nil3xr", None),
    ("sol_mn", {"c": (3, -1, -2)}),
    ("sol_mn", {"c": (1, 0, -1)}),
    ("sol0", None),
    ("sol1", None),
    ("nil4", None),
)


def catalog_run(policy=None):
    """All geometries, with the weight-triple family in both regimes."""
    return [geometry_row(name, params, policy)
            for name, params in CATALOG_SEQUENCE]

