"""Frames, vector fields and differential forms on a framed box.

A `FrameSpace` is a product of a coordinate box and invariant directions
with constant structure brackets.  The global frame is the declaration-order
list of coordinate directions and invariant directions; every field and form
is stored componentwise in that frame.

Scalar coefficient functions depend on the chart coordinates only, so the
derivative of a scalar along an invariant direction vanishes and mixed
brackets between coordinate and invariant directions are zero.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import lcm, prod

from . import expr as ex
from .sampling import is_zero_many, nonvanishing


class FrameError(ex.CheckError):
    pass


class FrameSpace:
    """Coordinate box times invariant directions, with a fixed global frame.

    entries: sequence of ("coord", name, lo, hi) and ("lie", name) tuples,
             in frame order.
    brackets: {(nameA, nameB): [n rational components]} for invariant pairs,
              kept in `structure` under index pairs (i, j) with i < j, as
              a `rat` keeps them: ints when integral.
              Construction does not check the Jacobi identity: the manifest
              parser rejects a space that fails it, and the catalog reports
              it through `catalog.jacobi_check`.
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
                _, name, lo, hi = ent
                lo = Fraction(lo)
                hi = Fraction(hi)
                if not hi > lo:
                    raise FrameError(f"empty range for coordinate '{name}'")
                self.coord_ranges.append((name, lo, hi))
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
            vec = tuple(ex.rat(c)[1] for c in comps)
            if len(vec) != self.dim:
                raise FrameError(
                    f"bracket [{a},{b}] needs {self.dim} components")
            if ia < ib:
                self.structure[(ia, ib)] = vec
            else:
                self.structure[(ib, ia)] = tuple(-c for c in vec)
        # the directions along which a scalar can have a nonzero derivative,
        # and, per row k, the nonzero constants c of [e_i, e_j] = ... + c e_k
        # in the order of `structure`
        self.coord_dirs = tuple(i for i, kind in enumerate(self.kinds)
                                if kind == "coord")
        self.rows = tuple(tuple((i, j, vec[k])
                                for (i, j), vec in self.structure.items()
                                if vec[k])
                          for k in range(self.dim))

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

    # -- structure ----------------------------------------------------------

    def dir_deriv(self, i, f):
        """Derivative of a scalar along frame direction i."""
        if self.kinds[i] == "coord":
            return ex.derivative(f, self.names[i])
        return ex.ZERO

    def lie_scalar(self, V, f):
        terms = [ex.mul(v, df) for i in self.coord_dirs
                 for v in (V.comps[i],) if not ex.is_zero(v)
                 for df in (self.dir_deriv(i, f),) if not ex.is_zero(df)]
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
        if other.space is not self.space:
            raise FrameError("cannot add fields on different spaces")
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
        return f"VectorField({fmt_field(self)})"


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
            if not ex.is_zero(c):
                out[idx] = c
        self.comps = out

    def comp(self, idx):
        return self.comps.get(tuple(idx), ex.ZERO)

    def is_structurally_zero(self):
        return not self.comps

    def __eq__(self, other):
        return (isinstance(other, DiffForm) and self.space is other.space
                and self.degree == other.degree and self.comps == other.comps)

    def __add__(self, other):
        if other.space is not self.space:
            raise FrameError("cannot add forms on different spaces")
        if other.degree != self.degree:
            raise FrameError(f"cannot add a {other.degree}-form to a "
                             f"{self.degree}-form")
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
        return f"DiffForm(deg={self.degree}, {fmt_form(self)})"


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


def jacobi_residuals(space):
    """The nonzero cyclic sums [a,[b,c]] + [b,[c,a]] + [c,[a,b]].

    a, b, c run over the triples of invariant directions; a coordinate
    direction commutes with every frame direction, so no other triple can
    fail.  Returns ((a, b, c), sum) pairs in triple order.
    """
    st = space.structure
    lie = [i for i, kind in enumerate(space.kinds) if kind == "lie"]
    out = []
    for i, j, k in combinations(lie, 3):
        total = [0] * space.dim
        # [e_j, e_k] = st[j, k], [e_k, e_i] = -st[i, k], [e_i, e_j] = st[i, j]
        for a, inner, sign in ((i, (j, k), 1), (j, (i, k), -1),
                               (k, (i, j), 1)):
            for m, cm in enumerate(st.get(inner, ())):
                outer = st.get((a, m) if a < m else (m, a))
                if cm and outer:
                    coeff = cm * (sign if a < m else -sign)
                    for r, c in enumerate(outer):
                        total[r] += coeff * c
        if any(total):
            out.append(((i, j, k), total))
    return out


def perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# index tables: the index combinatorics of each calculus operation, worked
# out once per shape (dimension and degrees) and shared by every space

@cache
def _signed_index(idx):
    """(sorted idx, the sign of the sort), or (sorted idx, 0) when an index
    repeats, so that w_idx = sign * w_(sorted idx)."""
    order = tuple(sorted(idx))
    if len(set(idx)) != len(idx):
        return order, 0
    return order, perm_sign([idx.index(i) for i in order])


@cache
def _wedge_table(n, p, q):
    """Per increasing K of length p + q in range(n): K and its splits
    (I, J, sign), K's positions taken for I in increasing order, with
    e^I ^ e^J = sign e^K."""
    out = []
    for K in combinations(range(n), p + q):
        splits = []
        for pos in combinations(range(p + q), p):
            rest = tuple(t for t in range(p + q) if t not in pos)
            splits.append((tuple(K[t] for t in pos), tuple(K[t] for t in rest),
                           perm_sign(pos + rest)))
        out.append((K, tuple(splits)))
    return tuple(out)


@cache
def _d_table(n, p):
    """Per increasing J of length p + 1 in range(n): J, its derivative
    terms (J[a], J without J[a], a odd) and its bracket terms
    (J[a], J[b], J without J[a] and J[b], (-1)^(a+b)) for a < b."""
    out = []
    for J in combinations(range(n), p + 1):
        derivs = tuple((J[a], J[:a] + J[a + 1:], a % 2 == 1)
                       for a in range(p + 1))
        pairs = tuple((J[a], J[b],
                       tuple(x for t, x in enumerate(J) if t not in (a, b)),
                       1 if (a + b) % 2 == 0 else -1)
                      for a, b in combinations(range(p + 1), 2))
        out.append((J, derivs, pairs))
    return tuple(out)


@cache
def _interior_table(n, p):
    """Per increasing J of length p - 1 in range(n): J and the terms
    (i, sorted (i,) + J, sign) of the i not in J."""
    return tuple((J, tuple((i,) + _signed_index((i,) + J) for i in range(n)
                           if i not in J))
                 for J in combinations(range(n), p - 1))


@cache
def _pair_table(p):
    """Each permutation sigma of p slots with its sign."""
    return tuple((sigma, perm_sign(sigma)) for sigma in permutations(range(p)))


# ---------------------------------------------------------------------------
# calculus

def bracket(X, Y):
    """Lie bracket of vector fields in frame components; no zero term built."""
    sp = X.space
    xs, ys = X.comps, Y.comps
    comps = []
    for k, row in enumerate(sp.rows):
        terms = []
        for i in sp.coord_dirs:
            for a, b, sign in ((xs[i], ys[k], 1), (ys[i], xs[k], -1)):
                if not (ex.is_zero(a) or ex.is_zero(b)):
                    db = sp.dir_deriv(i, b)
                    if not ex.is_zero(db):
                        terms.append(ex.mul(ex.rat(sign), a, db))
        for i, j, c in row:
            for a, b, sign in ((xs[i], ys[j], 1), (xs[j], ys[i], -1)):
                if not (ex.is_zero(a) or ex.is_zero(b)):
                    terms.append(ex.mul(ex.rat(sign * c), a, b))
        comps.append(ex.add(*terms) if terms else ex.ZERO)
    return VectorField(sp, comps)


def d(w):
    """Exterior derivative via the frame-invariant formula."""
    sp = w.space
    n = sp.dim
    p = w.degree
    if p >= n:
        return DiffForm(sp, p + 1, {})
    comps = w.comps
    out = {}
    for J, derivs, pairs in _d_table(n, p):
        terms = []
        for i, rest, odd in derivs:
            c = comps.get(rest)
            if c is not None:
                df = sp.dir_deriv(i, c)
                if not ex.is_zero(df):
                    terms.append(ex.neg(df) if odd else df)
        for i, j, rest, sgn in pairs:
            vec = sp.structure.get((i, j))
            if vec is None:
                continue
            for m, cm in enumerate(vec):
                if cm:
                    order, sign = _signed_index((m,) + rest)
                    val = comps.get(order) if sign else None
                    if val is not None:
                        terms.append(ex.mul(ex.rat(sign * sgn * cm), val))
        if terms:
            out[J] = ex.add(*terms)
    return DiffForm(sp, p + 1, out)


def wedge(a, b):
    """Exterior product; a form stores only its nonzero components, so an
    absent one is a zero factor and builds no term."""
    ac, bc = a.comps, b.comps
    out = {}
    for K, splits in _wedge_table(a.space.dim, a.degree, b.degree):
        terms = []
        for I, J, sign in splits:
            ca = ac.get(I)
            cb = bc.get(J)
            if ca is None or cb is None:
                continue
            term = ex.mul(ca, cb)
            terms.append(term if sign == 1 else ex.neg(term))
        if terms:
            out[K] = ex.add(*terms)
    return DiffForm(a.space, a.degree + b.degree, out)


def interior(V, w):
    sp = w.space
    if w.degree == 0:
        raise FrameError("cannot contract a scalar")
    comps = w.comps
    out = {}
    for J, slots in _interior_table(sp.dim, w.degree):
        terms = []
        for i, order, sign in slots:
            v = V.comps[i]
            c = comps.get(order)
            if c is not None and not ex.is_zero(v):
                term = ex.mul(v, c)
                terms.append(term if sign == 1 else ex.neg(term))
        if terms:
            out[J] = ex.add(*terms)
    return DiffForm(sp, w.degree - 1, out)


def pair(w, *fields):
    """Full pairing w(V_1, ..., V_p) as a scalar."""
    assert len(fields) == w.degree
    cols = [f.comps for f in fields]
    terms = []
    for I, c in w.comps.items():
        for sigma, sign in _pair_table(w.degree):
            prod = [cols[slot][I[t]] for slot, t in enumerate(sigma)]
            if not any(map(ex.is_zero, prod)):
                term = ex.mul(c, *prod)
                terms.append(term if sign == 1 else ex.neg(term))
    return ex.normalize(ex.add(*terms)) if terms else ex.ZERO


def lie_form(V, w):
    """Lie derivative of a form (Cartan formula)."""
    return cartan(V, w, d(w)) if w.degree > 0 else \
        DiffForm(w.space, 0, {(): w.space.lie_scalar(V, w.comp(()))})


def cartan(V, w, dw):
    """L_V w = i_V dw + d(i_V w), for w of positive degree and dw = d(w)."""
    return interior(V, dw) + d(interior(V, w))


def clear_denominators(vec):
    """(s * vec, s) for s the lcm of a rational vector's denominators."""
    s = lcm(*(x.denominator for x in vec))
    return [x.numerator * (s // x.denominator) for x in vec], s


def reduce_rows(rows, ncols):
    """Fraction-free Gauss-Jordan elimination in place (Bareiss, Math.
    Comp. 22, 1968), over int entries.

    Pivots are sought in the first ncols columns; later columns ride along.
    For a pivot p, the previous one prev (at first 1), every other row
    becomes (p * row - row[col] * pivot row) // prev, exactly: each entry
    stays a minor of the input.  Each pivot row ends with the last pivot d
    at its pivot column, so the rows over d are the reduced row echelon
    form.  Returns the pivot columns and the determinant of the leading
    ncols x ncols block: zero when some column has no pivot, else +-d.
    """
    pivots, prev, sign = [], 1, 1
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]),
                   None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        top = rows[rank]
        p = top[col]
        for r, row in enumerate(rows):
            if r != rank:
                f = row[col]
                rows[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(col)
        prev = p
    return pivots, prev * sign if len(pivots) == ncols else 0


def rational_det(vectors):
    """Exact determinant of n rational n-vectors: that of the vectors
    cleared to ints, each by its own lcm, over the product of the lcms."""
    rows, scales = zip(*map(clear_denominators, vectors))
    return Fraction(reduce_rows(list(rows), len(rows))[1], prod(scales))


def determinant(fields):
    """det of the component matrix (columns = fields, rows = frame)."""
    sp = fields[0].space
    n = sp.dim
    if len(fields) != n:
        raise FrameError(f"a determinant needs {n} fields")
    rows = [[f.comps[i] for f in fields] for i in range(n)]
    every = tuple(range(n))
    return minor(rows, every, every, {})


def minor(matrix, rows, cols, memo):
    """The normalized minor of matrix on the given row and column index
    tuples, by Laplace expansion along its first row, with ring operations
    only.  Every sub-minor is kept in memo under (rows, cols), so one
    shared by several expansions is expanded once."""
    if not rows:
        return ex.ONE
    key = (rows, cols)
    out = memo.get(key)
    if out is None:
        top = matrix[rows[0]]
        terms = []
        for t, c in enumerate(cols):
            if ex.is_zero(top[c]):
                continue
            sub = minor(matrix, rows[1:], cols[:t] + cols[t + 1:], memo)
            if not ex.is_zero(sub):
                term = ex.mul(top[c], sub)
                terms.append(term if t % 2 == 0 else ex.neg(term))
        out = ex.normalize(ex.add(*terms)) if terms else ex.ZERO
        memo[key] = out
    return out


def cramer(rows, rhs, det):
    """Solve rows * u = rhs by Cramer's rule: u_i sums rhs_j times the
    (j, i) cofactor, skipping zero rhs_j, over det, the cleaned-up nonzero
    determinant of rows.  The cofactors share one memo of sub-minors."""
    n = len(rows)
    every = tuple(range(n))
    memo = {}
    out = []
    for i in range(n):
        terms = []
        for j in range(n):
            if not ex.is_zero(rhs[j]):
                sub = minor(rows, every[:j] + every[j + 1:],
                            every[:i] + every[i + 1:], memo)
                term = ex.mul(rhs[j], sub)
                terms.append(term if (i + j) % 2 == 0 else ex.neg(term))
        out.append(ex.cleanup(ex.div(ex.cleanup(ex.add(*terms)), det)))
    return out


# fields' component tuples -> the dual coframe's component lists; emptied
# once it holds more than ex.TABLE_LIMIT entries
_COFRAMES = {}


def dual_coframe(fields):
    """1-forms theta^k with theta^k(fields[j]) = delta_kj: the columns of
    M^-1, for M the matrix whose rows are the fields.  When every component
    is a `rat`, `reduce_rows` takes [M | I], each row cleared to ints, to
    [d I | d M^-1]; else each theta^k is solved by exact Cramer.  The
    forms' canonical components are computed once per component matrix and
    kept in _COFRAMES; they name no space, so each call wraps them, as they
    are, in forms on the fields' space.  No form's components are ever
    mutated, so the forms may share them.  Raises FrameError for dependent
    fields or for other than one field per frame direction."""
    sp = fields[0].space
    n = sp.dim
    if len(fields) != n:
        raise FrameError(f"a coframe needs {n} fields")
    matrix = tuple(f.comps for f in fields)
    comps = _COFRAMES.get(matrix)
    if comps is None:
        if all(c[0] == "rat" for row in matrix for c in row):
            cleared = (clear_denominators([c[1] for c in row])
                       for row in matrix)
            rows = [row + [s * (j == k) for k in range(n)]
                    for j, (row, s) in enumerate(cleared)]
            if not reduce_rows(rows, n)[1]:
                raise FrameError("frame fields are linearly dependent")
            comps = [[ex.normalize(ex.rat(Fraction(row[n + k], row[i])))
                      for i, row in enumerate(rows)] for k in range(n)]
        else:
            det = ex.cleanup(determinant(fields))
            if ex.is_zero(det):
                raise FrameError("frame fields are linearly dependent")
            units = [[ex.ONE if j == k else ex.ZERO for j in range(n)]
                     for k in range(n)]
            comps = [cramer(matrix, e, det) for e in units]
        if len(_COFRAMES) > ex.TABLE_LIMIT:
            _COFRAMES.clear()
        comps = _COFRAMES[matrix] = [sp.one_form(c).comps for c in comps]
    forms = [object.__new__(DiffForm) for _ in comps]
    for form, c in zip(forms, comps):
        form.space, form.degree, form.comps = sp, 1, c
    return forms


def kernel_line(w):
    """The field K with i_K vol = w, for an (n-1)-form w and the frame
    volume form vol = e^0 ^ ... ^ e^(n-1): K^i = (-1)^i w_(0..i-1, i+1..n-1).

    i_K w = i_K i_K vol = 0, so K spans the kernel of w wherever w has no
    zeros, and theta(K) is the density of theta ^ w for a 1-form theta.
    """
    sp = w.space
    n = sp.dim
    assert w.degree == n - 1
    comps = []
    for i in range(n):
        c = w.comp(tuple(j for j in range(n) if j != i))
        comps.append(c if i % 2 == 0 else ex.neg(c))
    return VectorField(sp, comps)


def normalized_kernel_line(w, theta, policy, what, error):
    """K / theta(K) for K = kernel_line(w); raises error, naming what,
    unless theta(K) vanishes nowhere."""
    K = kernel_line(w)
    norm = ex.cleanup(pair(theta, K))
    nonvanishing([norm], w.space.coord_ranges, policy).require(what, error)
    return K.scale(ex.div(ex.ONE, norm)).cleanup()


# ---------------------------------------------------------------------------
# rendering

def fmt_field(V):
    """Components in frame order, as `c1; c2; ...` (the manifest notation)."""
    return "; ".join(ex.to_str(c) for c in V.comps)


def fmt_form(w):
    """Components over increasing index tuples, as `c1; c2; ...`."""
    idx = combinations(range(w.space.dim), w.degree)
    return "; ".join(ex.to_str(w.comp(i)) for i in idx)


# ---------------------------------------------------------------------------
# linear solving along the frame; no analysis calls it since
# engel.complement_field derives X as a kernel line, and it stays only as a
# target of the benchmark tracer (bench/tracer.py)

def solve_kernel(space, conditions, policy, pinned=None):
    """Solve pointwise 1-form conditions for a vector field.

    conditions: list of (theta, c) pairs; the 1-form theta with scalar c
    imposes theta(V) = c.  `pinned` maps frame indices to fixed component
    expressions.  A kernel line, cut out by a form of degree n - 1, needs
    no solve: see kernel_line.

    Strategy: pinned components start out solved, and every solved
    component moves to the right-hand side; repeatedly solve rows that
    mention a single unknown (certifying the coefficient is nonvanishing on
    samples, or concluding an exact zero when the rhs vanishes identically);
    finish a square remainder by exact Cramer elimination.  The assembled
    field is verified against every condition; returns it, or None when no
    step solves or the verification fails.
    """
    n = space.dim
    solved = {i: ex.normalize(val) for i, val in (pinned or {}).items()}
    work = [({i: c for (i,), c in sorted(form.comps.items())},
             ex.normalize(rhs)) for form, rhs in conditions]

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
            if all(ex.is_zero(r) for _, r in grp):
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
            return None
        solved.update(sub)
    field = VectorField(space, [solved.get(i, ex.ZERO) for i in range(n)])
    for form, rhs in conditions:
        if not zero([ex.add(pair(form, field), ex.neg(rhs))], ranges,
                    policy).ok:
            return None
    return field


def solve_kernel_greedy(space, conditions, policy, pinned=None):
    """solve_kernel for underdetermined systems.

    Walks the unpinned frame directions in order and forces each component
    to zero whenever the pinned system still solves and verifies, producing
    a deterministic representative of the solution family.  Returns the
    last successful field, or None.
    """
    pins = {k: ex.normalize(v) for k, v in (pinned or {}).items()}
    best = solve_kernel(space, conditions, policy, pinned=pins)
    for k in range(space.dim):
        if k in pins:
            continue
        trial = dict(pins)
        trial[k] = ex.ZERO
        field = solve_kernel(space, conditions, policy, pinned=trial)
        if field is not None:
            pins = trial
            best = field
    return best


def _solve_square(space, work, solved, unknowns, policy):
    """One Cramer solve when exactly as many rows as unknowns remain and
    their determinant is nonvanishing; None otherwise.  No row subset is
    searched: with two conditions, more rows mean one unknown whose
    coefficients jointly failed the single-row step, and no one of them
    can pivot alone."""
    rows = []
    for free, rhs in work:
        live = {i: c for i, c in free.items() if i in unknowns}
        if not live:
            continue
        extra = [ex.neg(ex.mul(c, solved[i]))
                 for i, c in free.items() if i in solved]
        rhs2 = ex.normalize(ex.add(rhs, *extra)) if extra else rhs
        rows.append(([live.get(i, ex.ZERO) for i in unknowns], rhs2))
    if len(rows) != len(unknowns):
        return None
    mat = [coeffs for coeffs, _ in rows]
    every = tuple(range(len(mat)))
    det = minor(mat, every, every, {})
    if not nonvanishing([det], space.coord_ranges, policy).ok:
        return None
    return dict(zip(unknowns, cramer(mat, [r for _, r in rows],
                                     ex.cleanup(det))))
