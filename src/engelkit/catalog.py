"""Exact catalog of the invariant 4-dim geometries and their framings.

Each geometry is a 4-dim Lie algebra with rational structure constants
(parameters are substituted as declared rationals), held as an all-invariant
`FrameSpace`.  The questions asked are linear-algebraic and answered exactly
over Q, on ints: the structure constants times their common denominator
and each vector times its own lcm have the same ranks, nullspaces and
nonzero determinants, and a value is divided back to a Fraction at the end:

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
from math import lcm

from . import expr as ex
from .engel import analyze
from .frames import (FrameSpace, clear_denominators, dual_coframe,
                     jacobi_residuals, rational_det, reduce_rows)
from .kengel import kengel_check, kengel_invariants
from .metric import orthonormal_metric
from .qfield import rational_rank
from .sampling import SamplingPolicy, failed


class CatalogError(ex.CheckError):
    pass


def algebra(names, brackets):
    """A 4-dim all-invariant frame space from index-pair brackets.

    brackets maps (i, j) with i < j to the component vector of [e_i, e_j].
    The Jacobi identity is not enforced here: `jacobi_check` reports it.
    """
    return FrameSpace([("lie", n) for n in names],
                      brackets={(names[i], names[j]): vec
                                for (i, j), vec in brackets.items()})


def structure_table(lie):
    """The structure constants times their common denominator D, as the
    int vectors {(i, j): D [e_i, e_j]} for i < j, and D."""
    den = lcm(*(c.denominator for vec in lie.structure.values()
                for c in vec))
    return {key: [c.numerator * (den // c.denominator) for c in vec]
            for key, vec in lie.structure.items()}, den


def bracket_vec(table, u, v):
    """[u, v] of int vectors over an int structure table: the sum of
    (u_i v_j - u_j v_i) table[i, j]."""
    out = [0] * len(u)
    for (i, j), w in table.items():
        c = u[i] * v[j] - u[j] * v[i]
        if c:
            out = [o + c * x for o, x in zip(out, w)]
    return out


def fmt_vec(names, vec):
    """A vector as a readable combination, e.g. '-C' or 'X1 + X2'."""
    parts = []
    for name, c in zip(names, vec):
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


_UNITS = tuple(tuple(int(m == i) for m in range(4)) for i in range(4))


def commutant(lie, elements):
    """Exact basis of {Z : [Z, s] = 0 for every s in elements}: the reduced
    row echelon nullspace, eliminated on integer rows, as Fractions."""
    table = structure_table(lie)[0]
    rows = []
    for s in elements:
        s = clear_denominators(s)[0]
        cols = [bracket_vec(table, e, s) for e in _UNITS]
        rows.extend([cols[i][k] for i in range(4)] for k in range(4))
    pivots, _ = reduce_rows(rows, 4)
    basis = []
    for fc in range(4):
        if fc not in pivots:
            vec = [Fraction(int(c == fc)) for c in range(4)]
            for r, pc in enumerate(pivots):
                vec[pc] = Fraction(-rows[r][fc], rows[r][pc])
            basis.append(vec)
    return basis


def kengel_framing_search(lie, W, X, R_hint=None):
    """A framing {W, X, Y=[W,X], R} with commuting transverse R, if any.

    The commutant of {W, X} already commutes with Y (Jacobi), so R is
    sought there: the declared hint is verified when given, otherwise the
    first transverse basis vector wins.  When the whole commutant lies in
    span{W, X, Y} (in particular when it is zero), that is a certificate
    of nonexistence.  Brackets run on `structure_table`'s ints.
    """
    table, den = structure_table(lie)
    (Wi, sw), (Xi, sx) = clear_denominators(W), clear_denominators(X)
    Yi = bracket_vec(table, Wi, Xi)
    span = [Wi, Xi, Yi, bracket_vec(table, Yi, Wi), bracket_vec(table, Yi, Xi)]
    if rational_rank(span) != 4:
        raise CatalogError("the plane span{W, X} does not bracket-generate")
    Y = [Fraction(y, den * sw * sx) for y in Yi]
    basis = commutant(lie, [Wi, Xi, Yi])
    out = {"Y": Y, "commutant": basis, "commutant_dim": len(basis),
           "R": None, "det": None, "found": False, "certificate": None}
    candidates = []
    if R_hint is not None:
        Ri, sr = clear_denominators(R_hint)
        if any(any(bracket_vec(table, Ri, s)) for s in (Wi, Xi, Yi)):
            raise CatalogError(
                f"declared R = {fmt_vec(lie.names, R_hint)} does not "
                f"commute with the framing")
        candidates.append([Fraction(x, sr) for x in Ri])
    for R in candidates + basis:
        det = rational_det([W, X, Y, R])
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
    if sum(c) != 0:
        raise CatalogError(
            f"weights {', '.join(map(str, c))} do not sum to zero")
    return algebra(
        ["X1", "X2", "X3", "T"],
        {(0, 3): [-c[0], 0, 0, 0],
         (1, 3): [0, -c[1], 0, 0],
         (2, 3): [0, 0, -c[2], 0]})


def _sol0_algebra(a, b):
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
        raise CatalogError(f"unknown geometry {name!r}; choose from "
                           f"{', '.join(sorted(GEOMETRIES))}")
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
        c = merged["c"]
        row["ordering"] = c[0] > c[1] > c[2]
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
    row["triple_ok"] = not failed(kengel_check(data, g, R_field, policy))
    row["invariants_ok"] = not failed(kengel_invariants(data, policy))
    row["data"] = data
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

