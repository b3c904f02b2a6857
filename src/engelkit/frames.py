"""Frames, vector fields and differential forms on a framed box.

A `FrameSpace` is a product of a coordinate box (periodic directions allowed)
and invariant directions with constant structure brackets.  The global frame
is the declaration-order list of coordinate directions and invariant
directions; every field and form is stored componentwise in that frame.

Scalar coefficient functions depend on the chart coordinates only, so the
derivative of a scalar along an invariant direction vanishes and mixed
brackets between coordinate and invariant directions are zero.
"""

from fractions import Fraction
from itertools import combinations, permutations

from . import expr as ex
from .sampling import is_zero_many, nonvanishing


class FrameError(Exception):
    pass


class FrameSpace:
    """Coordinate box times invariant directions, with a fixed global frame.

    entries: sequence of ("coord", name, lo, hi, periodic) and
             ("lie", name) tuples, in frame order.
    brackets: {(nameA, nameB): [n rational components]} for invariant pairs;
              validated against the Jacobi identity at construction.
    params: {name: rational} substituted exactly when parsing scalars.
    """

    def __init__(self, entries, brackets=None, params=None):
        self.entries = []
        self.names = []
        self.coord_ranges = []
        self.kinds = []
        seen = set()
        for ent in entries:
            kind = ent[0]
            if kind == "coord":
                _, name, lo, hi, periodic = ent
                lo = Fraction(lo)
                hi = Fraction(hi)
                if not hi > lo:
                    raise FrameError(f"empty range for coordinate '{name}'")
                self.coord_ranges.append((name, lo, hi, bool(periodic)))
            elif kind == "lie":
                name = ent[1]
            else:
                raise FrameError(f"unknown frame entry kind {kind!r}")
            if name in seen:
                raise FrameError(f"duplicate frame direction '{name}'")
            seen.add(name)
            self.entries.append(ent)
            self.names.append(name)
            self.kinds.append(kind)
        self.dim = len(self.entries)
        if self.dim == 0:
            raise FrameError("a frame space needs at least one direction")
        self.params = {k: Fraction(v) for k, v in (params or {}).items()}
        self.index = {n: i for i, n in enumerate(self.names)}
        self._coords = [name for name, *_ in self.coord_ranges]
        self.structure = {}
        for (a, b), comps in (brackets or {}).items():
            ia, ib = self.index[a], self.index[b]
            if self.kinds[ia] != "lie" or self.kinds[ib] != "lie":
                raise FrameError(
                    f"bracket [{a},{b}] must be between invariant directions")
            if ia == ib:
                raise FrameError(f"bracket [{a},{a}] is trivially zero")
            vec = tuple(Fraction(c) for c in comps)
            if len(vec) != self.dim:
                raise FrameError(
                    f"bracket [{a},{b}] needs {self.dim} components")
            if ia < ib:
                self.structure[(ia, ib)] = vec
            else:
                self.structure[(ib, ia)] = tuple(-c for c in vec)
        self._check_jacobi()

    # -- construction helpers ----------------------------------------------

    def scalar(self, text):
        return ex.parse(text, self._coords, self.params)

    def field(self, comps):
        return VectorField(self, comps)

    def form(self, degree, comps):
        return DiffForm(self, degree, comps)

    def one_form(self, comps_list):
        return DiffForm(self, 1, {(i,): c for i, c in enumerate(comps_list)})

    def basis_field(self, i):
        comps = [ex.ZERO] * self.dim
        comps[i] = ex.ONE
        return VectorField(self, comps)

    def display_name(self, i):
        if self.kinds[i] == "coord":
            return "∂" + self.names[i]
        return self.names[i]

    # -- structure ----------------------------------------------------------

    def cbr(self, i, j):
        """Constant bracket [e_i, e_j] as a Fraction vector."""
        if i == j:
            return (Fraction(0),) * self.dim
        if i < j:
            return self.structure.get((i, j), (Fraction(0),) * self.dim)
        vec = self.structure.get((j, i), (Fraction(0),) * self.dim)
        return tuple(-c for c in vec)

    def _check_jacobi(self):
        lie = [i for i, k in enumerate(self.kinds) if k == "lie"]
        for i, j, k in combinations(lie, 3):
            total = [Fraction(0)] * self.dim
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                inner = self.cbr(b, c)
                for m, cm in enumerate(inner):
                    if cm:
                        outer = self.cbr(a, m)
                        for r in range(self.dim):
                            total[r] += cm * outer[r]
            if any(total):
                raise FrameError(
                    f"structure brackets violate the Jacobi identity on "
                    f"({self.names[i]},{self.names[j]},{self.names[k]})")

    def dir_deriv(self, i, f):
        """Derivative of a scalar along frame direction i."""
        if self.kinds[i] == "coord":
            return ex.normalize(ex.differentiate(f, self.names[i]))
        return ex.ZERO

    def lie_scalar(self, V, f):
        terms = [ex.mul(V.comps[i], self.dir_deriv(i, f))
                 for i in range(self.dim)]
        return ex.normalize(ex.add(*terms)) if terms else ex.ZERO


class VectorField:
    def __init__(self, space, comps):
        assert len(comps) == space.dim
        self.space = space
        self.comps = tuple(ex.normalize(c) for c in comps)

    def __eq__(self, other):
        return (isinstance(other, VectorField)
                and self.space is other.space and self.comps == other.comps)

    def __hash__(self):
        return hash(self.comps)

    def __add__(self, other):
        return VectorField(self.space,
                           [ex.add(a, b) for a, b in zip(self.comps,
                                                         other.comps)])

    def __sub__(self, other):
        return self + other.scale(ex.rat(-1))

    def scale(self, s):
        return VectorField(self.space, [ex.mul(s, c) for c in self.comps])

    def cleanup(self):
        return VectorField(self.space, [ex.cleanup(c) for c in self.comps])

    def __repr__(self):
        return f"VectorField({render_field(self)})"


class DiffForm:
    def __init__(self, space, degree, comps):
        self.space = space
        self.degree = degree
        out = {}
        for idx, c in comps.items():
            idx = tuple(idx)
            assert len(idx) == degree and tuple(sorted(idx)) == idx, \
                f"component index {idx} must be strictly increasing"
            c = ex.normalize(c)
            if c != ex.ZERO:
                out[idx] = c
        self.comps = out

    def comp(self, idx):
        return self.comps.get(tuple(idx), ex.ZERO)

    def comp_signed(self, idx):
        """Component lookup with unsorted/duplicate indices allowed."""
        idx = tuple(idx)
        if len(set(idx)) != len(idx):
            return ex.ZERO
        order = tuple(sorted(idx))
        sign = perm_sign([idx.index(i) for i in order])
        c = self.comps.get(order, ex.ZERO)
        return c if sign == 1 else ex.normalize(ex.mul(ex.rat(-1), c))

    def is_structurally_zero(self):
        return not self.comps

    def __eq__(self, other):
        return (isinstance(other, DiffForm) and self.space is other.space
                and self.degree == other.degree and self.comps == other.comps)

    def __add__(self, other):
        assert self.degree == other.degree
        keys = set(self.comps) | set(other.comps)
        return DiffForm(self.space, self.degree,
                        {k: ex.add(self.comp(k), other.comp(k))
                         for k in keys})

    def __sub__(self, other):
        return self + other.scale(ex.rat(-1))

    def scale(self, s):
        return DiffForm(self.space, self.degree,
                        {k: ex.mul(s, c) for k, c in self.comps.items()})

    def cleanup(self):
        return DiffForm(self.space, self.degree,
                        {k: ex.cleanup(c) for k, c in self.comps.items()})

    def __repr__(self):
        return f"DiffForm(deg={self.degree}, {render_form(self)})"


def _components(x):
    if isinstance(x, DiffForm):
        return list(x.comps.values())
    if isinstance(x, VectorField):
        return list(x.comps)
    return list(x)


def zero(x, coords, policy):
    """Does a form, a field or a list of scalars vanish identically?

    Every component is cleaned up first, so that identities such as
    sin^2 + cos^2 = 1 are decided exactly rather than by sampling.
    """
    return is_zero_many([ex.cleanup(c) for c in _components(x)], coords,
                        policy)


def nonzero(x, coords, policy):
    """Does a form or a field vanish nowhere?

    At every sample some component must exceed tolerance.  Components are
    taken as given, without cleanup; for a plain list of scalars this is
    `nonvanishing` itself.
    """
    return nonvanishing(_components(x), coords, policy)


def perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# calculus

def bracket(X, Y):
    """Lie bracket of vector fields in frame components."""
    sp = X.space
    n = sp.dim
    comps = []
    for k in range(n):
        terms = []
        for i in range(n):
            terms.append(ex.mul(X.comps[i], sp.dir_deriv(i, Y.comps[k])))
            terms.append(ex.neg(ex.mul(Y.comps[i],
                                       sp.dir_deriv(i, X.comps[k]))))
        for (i, j), vec in sp.structure.items():
            if vec[k]:
                coef = ex.add(ex.mul(X.comps[i], Y.comps[j]),
                              ex.neg(ex.mul(X.comps[j], Y.comps[i])))
                terms.append(ex.mul(ex.rat(vec[k]), coef))
        comps.append(ex.add(*terms) if terms else ex.ZERO)
    return VectorField(sp, comps)


def d(w):
    """Exterior derivative via the frame-invariant formula."""
    sp = w.space
    n = sp.dim
    p = w.degree
    if p >= n:
        return DiffForm(sp, p + 1, {})
    out = {}
    for J in combinations(range(n), p + 1):
        terms = []
        for a in range(p + 1):
            rest = J[:a] + J[a + 1:]
            df = sp.dir_deriv(J[a], w.comp(rest))
            if df != ex.ZERO:
                terms.append(df if a % 2 == 0 else ex.neg(df))
        for a in range(p + 1):
            for b in range(a + 1, p + 1):
                vec = sp.cbr(J[a], J[b])
                rest = tuple(x for t, x in enumerate(J) if t not in (a, b))
                for m, cm in enumerate(vec):
                    if cm:
                        val = w.comp_signed((m,) + rest)
                        if val != ex.ZERO:
                            sgn = 1 if (a + b) % 2 == 0 else -1
                            terms.append(ex.mul(ex.rat(sgn * cm), val))
        if terms:
            out[J] = ex.add(*terms)
    return DiffForm(sp, p + 1, out)


def wedge(a, b):
    sp = a.space
    p, q = a.degree, b.degree
    out = {}
    for K in combinations(range(sp.dim), p + q):
        terms = []
        for pos in combinations(range(p + q), p):
            I = tuple(K[t] for t in pos)
            J = tuple(K[t] for t in range(p + q) if t not in pos)
            ca = a.comp(I)
            cb = b.comp(J)
            if ca == ex.ZERO or cb == ex.ZERO:
                continue
            sgn = perm_sign([K.index(x) for x in I + J])
            term = ex.mul(ca, cb)
            terms.append(term if sgn == 1 else ex.neg(term))
        if terms:
            out[K] = ex.add(*terms)
    return DiffForm(sp, p + q, out)


def interior(V, w):
    sp = w.space
    if w.degree == 0:
        raise FrameError("cannot contract a scalar")
    out = {}
    for J in combinations(range(sp.dim), w.degree - 1):
        terms = []
        for i in range(sp.dim):
            val = w.comp_signed((i,) + J)
            if val != ex.ZERO and V.comps[i] != ex.ZERO:
                terms.append(ex.mul(V.comps[i], val))
        if terms:
            out[J] = ex.add(*terms)
    return DiffForm(sp, w.degree - 1, out)


def pair(w, *fields):
    """Full pairing w(V_1, ..., V_p) as a scalar."""
    assert len(fields) == w.degree
    sp = w.space
    terms = []
    for I, c in w.comps.items():
        for sigma in permutations(range(w.degree)):
            prod = [c]
            for slot, t in enumerate(sigma):
                prod.append(fields[slot].comps[I[t]])
            term = ex.mul(*prod)
            terms.append(term if perm_sign(sigma) == 1 else ex.neg(term))
    return ex.normalize(ex.add(*terms)) if terms else ex.ZERO


def lie_form(V, w):
    """Lie derivative of a form (Cartan formula)."""
    return interior(V, d(w)) + d(interior(V, w)) if w.degree > 0 else \
        DiffForm(w.space, 0, {(): w.space.lie_scalar(V, w.comp(()))})


def determinant(fields):
    """det of the component matrix (columns = fields, rows = frame)."""
    sp = fields[0].space
    n = sp.dim
    assert len(fields) == n
    rows = [[f.comps[i] for f in fields] for i in range(n)]
    return ex.normalize(_det(rows))


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    terms = []
    for j in range(n):
        if rows[0][j] == ex.ZERO:
            continue
        minor = [[rows[i][jj] for jj in range(n) if jj != j]
                 for i in range(1, n)]
        term = ex.mul(rows[0][j], _det(minor))
        terms.append(term if j % 2 == 0 else ex.neg(term))
    return ex.add(*terms) if terms else ex.ZERO


def dual_coframe(fields):
    """1-forms theta^k with theta^k(fields[j]) = delta_kj, via exact Cramer."""
    sp = fields[0].space
    n = sp.dim
    assert len(fields) == n
    det = ex.cleanup(determinant(fields))
    if det == ex.ZERO:
        raise FrameError("frame fields are linearly dependent")
    rows = [[f.comps[i] for f in fields] for i in range(n)]
    out = []
    for k in range(n):
        comps = []
        for i in range(n):
            # adjugate entry: cofactor of rows[i][k]
            minor = [[rows[r][c] for c in range(n) if c != k]
                     for r in range(n) if r != i]
            cof = ex.cleanup(_det(minor)) if minor else ex.ONE
            if (i + k) % 2 == 1:
                cof = ex.neg(cof)
            comps.append(ex.cleanup(ex.div(cof, det)))
        out.append(sp.one_form(comps))
    return out


# ---------------------------------------------------------------------------
# rendering

def render_field(V):
    sp = V.space
    pieces = []
    for i, c in enumerate(V.comps):
        if c == ex.ZERO:
            continue
        name = sp.display_name(i)
        if c == ex.ONE:
            pieces.append(name)
        else:
            s = ex.to_str(c)
            if c[0] == "add":
                s = f"({s})"
            pieces.append(f"{s}*{name}")
    if not pieces:
        return "0"
    return " + ".join(pieces).replace("+ -", "- ")


def render_form(w):
    sp = w.space
    if w.degree == 0:
        return ex.to_str(w.comp(()))
    pieces = []
    for idx in sorted(w.comps):
        c = w.comps[idx]
        label = "∧".join(coframe_label(sp, i) for i in idx)
        if c == ex.ONE:
            pieces.append(label)
        else:
            s = ex.to_str(c)
            if c[0] == "add":
                s = f"({s})"
            pieces.append(f"{s}*{label}")
    if not pieces:
        return "0"
    return " + ".join(pieces).replace("+ -", "- ")


def coframe_label(sp, i):
    if sp.kinds[i] == "coord":
        return "d" + sp.names[i]
    return sp.names[i] + "^"


# ---------------------------------------------------------------------------
# linear solving along the frame

class SolveResult:
    def __init__(self, field, ok, message=""):
        self.field = field
        self.ok = ok
        self.message = message

    def __bool__(self):
        return self.ok


def solve_kernel(space, conditions, policy, pinned=None):
    """Solve linear pointwise conditions for a vector field.

    conditions: list of (form, rhs) pairs.  A 1-form theta with scalar rhs c
    imposes theta(V) = c; a p-form (p >= 2) with rhs 0 imposes i_V w = 0,
    one scalar row per (p-1)-component.  `pinned` maps frame indices to
    fixed component expressions.

    Strategy: substitute pinned components; repeatedly solve rows that
    mention a single unknown (certifying the coefficient is nonvanishing on
    samples, or concluding an exact zero when the rhs vanishes identically);
    finish any k x k remainder by exact Cramer elimination over row subsets
    with sampled-nonvanishing determinant.  The assembled field is verified
    against every original condition before being returned.
    """
    n = space.dim
    pinned = dict(pinned or {})
    rows = []
    for form, rhs in conditions:
        if form.degree == 1:
            coeffs = [form.comp((i,)) for i in range(n)]
            rows.append((coeffs, ex.normalize(rhs)))
        else:
            assert ex.normalize(rhs) == ex.ZERO, \
                "higher-degree conditions must be homogeneous"
            per_dir = [interior(space.basis_field(i), form) for i in range(n)]
            for J in combinations(range(n), form.degree - 1):
                coeffs = [per_dir[i].comp(J) for i in range(n)]
                if any(c != ex.ZERO for c in coeffs):
                    rows.append((coeffs, ex.ZERO))
    # fold pinned components into the right-hand sides
    solved = {}
    for i, val in pinned.items():
        solved[i] = ex.normalize(val)
    work = []
    for coeffs, rhs in rows:
        moved = [rhs]
        free = {}
        for i, c in enumerate(coeffs):
            if c == ex.ZERO:
                continue
            if i in solved:
                moved.append(ex.neg(ex.mul(c, solved[i])))
            else:
                free[i] = c
        work.append((free, ex.normalize(ex.add(*moved))))

    ranges = space.coord_ranges
    changed = True
    while changed:
        changed = False
        singles = {}
        for free, rhs in work:
            live = {i: c for i, c in free.items() if i not in solved}
            extra = [ex.neg(ex.mul(c, solved[i]))
                     for i, c in free.items() if i in solved]
            rhs2 = ex.normalize(ex.add(rhs, *extra)) if extra else rhs
            if len(live) == 1:
                (i, c), = live.items()
                singles.setdefault(i, []).append((c, rhs2))
        for i, grp in singles.items():
            if i in solved:
                continue
            if all(r == ex.ZERO for _, r in grp):
                # homogeneous single rows: zero is always consistent, and
                # the final verification rejects it if other rows disagree
                solved[i] = ex.ZERO
                changed = True
                continue
            coeffs = [c for c, _ in grp]
            if nonvanishing(coeffs, ranges, policy).ok:
                c, r = max(grp, key=lambda cr: ex.size(cr[0]))
                solved[i] = ex.cleanup(ex.div(r, c))
                changed = True
    remaining = sorted({i for free, _ in work for i in free} - set(solved))
    if remaining:
        sub = _solve_square(space, work, solved, remaining, policy)
        if sub is None:
            return SolveResult(None, False,
                               "no nondegenerate row subset found")
        solved.update(sub)
    comps = [solved.get(i, ex.ZERO) for i in range(n)]
    field = VectorField(space, comps)
    # verify every original condition
    for form, rhs in conditions:
        if form.degree == 1:
            res = [ex.add(pair(form, field), ex.neg(rhs))]
        else:
            res = interior(field, form)
        verdict = zero(res, ranges, policy)
        if not verdict.ok:
            return SolveResult(field, False,
                               f"condition check failed: {verdict.describe()}")
    return SolveResult(field, True)


def solve_kernel_greedy(space, conditions, policy, pinned=None):
    """solve_kernel for underdetermined systems.

    Walks the unpinned frame directions in order and forces each component
    to zero whenever the pinned system still solves and verifies, producing
    a deterministic representative of the solution family.  Returns the
    last successful field, or None.
    """
    pins = {k: ex.normalize(v) for k, v in (pinned or {}).items()}
    best = None
    res = solve_kernel(space, conditions, policy, pinned=pins)
    if res.ok:
        best = res.field
    for k in range(space.dim):
        if k in pins:
            continue
        trial = dict(pins)
        trial[k] = ex.ZERO
        res = solve_kernel(space, conditions, policy, pinned=trial)
        if res.ok:
            pins = trial
            best = res.field
    return best


def _solve_square(space, work, solved, unknowns, policy):
    """Cramer elimination for the remaining unknowns; None if degenerate."""
    k = len(unknowns)
    rows = []
    for free, rhs in work:
        live = {i: c for i, c in free.items() if i in unknowns}
        if not live:
            continue
        extra = [ex.neg(ex.mul(c, solved[i]))
                 for i, c in free.items() if i in solved]
        rhs2 = ex.normalize(ex.add(rhs, *extra)) if extra else rhs
        rows.append(([live.get(i, ex.ZERO) for i in unknowns], rhs2))
    if len(rows) < k:
        return None
    ranges = space.coord_ranges
    # sampling cannot certify that a pivot determinant is nonvanishing
    # everywhere, so gather every subset that passes and prefer solutions
    # without quotients (a hidden singular pivot always leaves one behind)
    best = None
    best_quality = None
    for subset in combinations(range(len(rows)), k):
        mat = [rows[r][0] for r in subset]
        rhs = [rows[r][1] for r in subset]
        det = ex.normalize(_det(mat))
        if not nonvanishing([det], ranges, policy).ok:
            continue
        out = {}
        for col, i in enumerate(unknowns):
            mcol = [[rhs[r] if c == col else mat[r][c] for c in range(k)]
                    for r in range(k)]
            out[i] = ex.cleanup(ex.div(ex.cleanup(_det(mcol)),
                                       ex.cleanup(det)))
        quality = (any(ex.has_div(c) for c in out.values()),
                   sum(ex.size(c) for c in out.values()))
        if best_quality is None or quality < best_quality:
            best, best_quality = out, quality
        if best_quality[0] is False and best_quality[1] <= k:
            break
    return best
