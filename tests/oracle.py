"""Independent numeric oracle for the test suite.

Two self-contained calculi, deliberately sharing no code with engelkit:

* finite-difference frame calculus on coordinate charts (floats, central
  differences), for spot-checking symbolic results at sample points;
* exact Fraction linear algebra for frames whose structure data is rational
  (Lie frames), for freezing exact expected tables.

It also holds the per-index Halton digit loop, the reference that the
column-wise construction of sample points must equal bit for bit.

Basis directions are either chart coordinates or abstract Lie directions with
declared constant brackets; a point is a dict coord-name -> float; a vector
field is a function point -> list of components in basis order; a p-form is a
dict increasing-index-tuple -> coefficient function.
"""

from fractions import Fraction
import itertools

H = 1e-5


class FDFrame:
    def __init__(self, coords, basis, brackets=None):
        self.coords = list(coords)
        self.basis = list(basis)
        self.n = len(basis)
        # brackets: {(a, b): {name: Fraction}} for lie names a, b
        self.brackets = dict(brackets or {})
        self.lie_pos = {b: i for i, b in enumerate(basis) if b not in coords}

    def lie_bracket(self, a, b):
        if (a, b) in self.brackets:
            return {k: float(v) for k, v in self.brackets[(a, b)].items()}
        if (b, a) in self.brackets:
            return {k: -float(v) for k, v in self.brackets[(b, a)].items()}
        return {}

    def dir_deriv(self, f, pos, x):
        """E_pos(f) at x: coordinate partial, or 0 for a Lie direction."""
        name = self.basis[pos]
        if name not in self.coords:
            return 0.0
        xp, xm = dict(x), dict(x)
        xp[name] = x[name] + H
        xm[name] = x[name] - H
        return (f(xp) - f(xm)) / (2 * H)

    def apply(self, X, f, x):
        """X(f) at x."""
        comps = X(x)
        return sum(comps[p] * self.dir_deriv(f, p, x) for p in range(self.n))

    def bracket(self, X, Y):
        def comp(x):
            out = []
            for k in range(self.n):
                xk = self.apply(X, lambda q, k=k: Y(q)[k], x)
                yk = self.apply(Y, lambda q, k=k: X(q)[k], x)
                out.append(xk - yk)
            xs, ys = X(x), Y(x)
            for a, pa in self.lie_pos.items():
                for b, pb in self.lie_pos.items():
                    if pa >= pb:
                        continue
                    coeff = xs[pa] * ys[pb] - xs[pb] * ys[pa]
                    for name, c in self.lie_bracket(a, b).items():
                        out[self.lie_pos[name]] += coeff * c
            return out
        return comp

    # -- forms ------------------------------------------------------------

    def formval(self, om, idx, x):
        """Value of the form on an arbitrary basis index tuple (signed sort)."""
        idx = list(idx)
        if len(set(idx)) != len(idx):
            return 0.0
        sign = 1.0
        for i in range(len(idx)):
            for j in range(len(idx) - 1 - i):
                if idx[j] > idx[j + 1]:
                    idx[j], idx[j + 1] = idx[j + 1], idx[j]
                    sign = -sign
        fn = om.get(tuple(idx))
        return sign * fn(x) if fn is not None else 0.0

    def d(self, om, p):
        out = {}
        for J in itertools.combinations(range(self.n), p + 1):
            def coeff(x, J=J):
                total = 0.0
                for a in range(p + 1):
                    rest = J[:a] + J[a + 1:]
                    total += (-1) ** a * self.dir_deriv(
                        lambda q, rest=rest: self.formval(om, rest, q), J[a], x)
                for a in range(p + 1):
                    for b in range(a + 1, p + 1):
                        na, nb = self.basis[J[a]], self.basis[J[b]]
                        if na in self.coords or nb in self.coords:
                            continue
                        rest = tuple(J[c] for c in range(p + 1) if c not in (a, b))
                        for name, c in self.lie_bracket(na, nb).items():
                            total += (-1) ** (a + b) * c * self.formval(
                                om, (self.lie_pos[name],) + rest, x)
                return total
            out[J] = coeff
        return out

    def wedge(self, om1, p1, om2, p2):
        out = {}
        for I, f1 in om1.items():
            for J, f2 in om2.items():
                if set(I) & set(J):
                    continue
                K = I + J
                sorted_K = tuple(sorted(K))
                sign = perm_sign(K)
                def add(x, f1=f1, f2=f2, sign=sign):
                    return sign * f1(x) * f2(x)
                if sorted_K in out:
                    prev = out[sorted_K]
                    out[sorted_K] = lambda x, prev=prev, add=add: prev(x) + add(x)
                else:
                    out[sorted_K] = add
        return out

    def interior(self, X, om, p):
        out = {}
        for J in itertools.combinations(range(self.n), p - 1):
            def coeff(x, J=J):
                comps = X(x)
                return sum(comps[k] * self.formval(om, (k,) + J, x)
                           for k in range(self.n) if k not in J)
            out[J] = coeff
        return out

    def lie_deriv(self, X, om, p):
        dom = self.d(om, p)
        a = self.interior(X, dom, p + 1)
        if p == 0:
            return a
        ix = self.interior(X, om, p)
        dix = self.d(ix, p - 1)
        out = {}
        for J in set(a) | set(dix):
            fa, fb = a.get(J), dix.get(J)
            out[J] = (lambda x, fa=fa, fb=fb:
                      (fa(x) if fa else 0.0) + (fb(x) if fb else 0.0))
        return out

    def pair(self, om, fields, x):
        """Evaluate a p-form on p vector fields at x."""
        p = len(fields)
        vals = [f(x) for f in fields]
        total = 0.0
        for idx in itertools.permutations(range(self.n), p):
            prod = 1.0
            for a, k in enumerate(idx):
                prod *= vals[a][k]
            if prod:
                total += prod * self.formval(om, idx, x)
        return total


def perm_sign(seq):
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


def const_form(vals):
    """1-form with constant components."""
    return {(i,): (lambda x, v=v: v) for i, v in enumerate(vals) if v}


def const_field(vals):
    return lambda x: [float(v) for v in vals]


def gauss_solve(A, b):
    """Solve square float system, partial pivoting."""
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(M[r][c]))
        if abs(M[piv][c]) < 1e-12:
            raise ValueError("singular")
        M[c], M[piv] = M[piv], M[c]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c] / M[c][c]
                for k in range(c, n + 1):
                    M[r][k] -= f * M[c][k]
    return [M[i][n] / M[i][i] for i in range(n)]


def framing_coefficient_sum(frame, W, X, T, R, x):
    """a_WR + b_XR of the framing (W, X, T, R) at x: the W-coefficient of
    [W, R] plus the X-coefficient of [X, R], each solved from the
    framing's component matrix.  The reference for the dbeta^2 criterion,
    which reads this sum from the table of the rescaled framing."""
    cols = [V(x) for V in (W, X, T, R)]
    A = [[col[i] for col in cols] for i in range(len(cols))]
    return (gauss_solve(A, frame.bracket(W, R)(x))[0]
            + gauss_solve(A, frame.bracket(X, R)(x))[1])


# -- exact Fraction path for Lie frames ------------------------------------

class ExactLie:
    """n-dim Lie algebra over Q: names + structure constants."""

    def __init__(self, names, brackets):
        self.names = list(names)
        self.n = len(names)
        self.pos = {nm: i for i, nm in enumerate(names)}
        self.c = {}
        for (a, b), combo in brackets.items():
            vec = [Fraction(0)] * self.n
            for nm, q in combo.items():
                vec[self.pos[nm]] = Fraction(q)
            self.c[(self.pos[a], self.pos[b])] = vec

    def bracket_basis(self, i, j):
        if (i, j) in self.c:
            return self.c[(i, j)][:]
        if (j, i) in self.c:
            return [-q for q in self.c[(j, i)]]
        return [Fraction(0)] * self.n

    def bracket(self, u, v):
        out = [Fraction(0)] * self.n
        for i in range(self.n):
            if not u[i]:
                continue
            for j in range(self.n):
                if not v[j] or i == j:
                    continue
                w = self.bracket_basis(i, j)
                for k in range(self.n):
                    out[k] += u[i] * v[j] * w[k]
        return out

    def jacobi_ok(self):
        for i, j, k in itertools.combinations(range(self.n), 3):
            ei = unit(self.n, i)
            ej = unit(self.n, j)
            ek = unit(self.n, k)
            s = vadd(self.bracket(ei, self.bracket(ej, ek)),
                     self.bracket(ek, self.bracket(ei, ej)),
                     self.bracket(ej, self.bracket(ek, ei)))
            if any(s):
                return False
        return True

    def commutant(self, gens):
        """Basis of {z : [z, g] = 0 for all g in gens}."""
        rows = []
        for g in gens:
            # linear map z -> [z, g]; build its matrix columns over basis
            for k in range(self.n):
                row = []
                for i in range(self.n):
                    row.append(self.bracket(unit(self.n, i), g)[k])
                rows.append(row)
        return frac_nullspace(rows, self.n)

    def dual_coframe(self, fields):
        """fields: n vectors; returns n covectors th with th_i(f_j) = delta."""
        M = [f[:] for f in fields]
        inv = frac_inv(M)
        # th_i components: row i of (M^-1)^T i.e. column i of M^-1
        return [[inv[k][i] for k in range(self.n)] for i in range(self.n)]

    def det(self, fields):
        return frac_det([f[:] for f in fields])

    def adapted_table(self, W, X, T, R):
        """24-entry table of bracket coefficients over the frame (W,X,T,R)."""
        co = self.dual_coframe([W, X, T, R])
        out = {}
        for nm1, nm2, u, v in (("W", "X", W, X), ("W", "T", W, T),
                               ("W", "R", W, R), ("X", "T", X, T),
                               ("X", "R", X, R), ("T", "R", T, R)):
            br = self.bracket(u, v)
            for letter, th in zip("abcd", co):
                out[f"{letter}_{nm1}{nm2}"] = sum(
                    th[k] * br[k] for k in range(self.n))
        return out


def unit(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def vadd(*vs):
    n = len(vs[0])
    return [sum(v[k] for v in vs) for k in range(n)]


def frac_det(M):
    n = len(M)
    M = [row[:] for row in M]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        for r in range(c + 1, n):
            if M[r][c]:
                f = M[r][c] / M[c][c]
                for k in range(c, n):
                    M[r][k] -= f * M[c][k]
    return det


def frac_inv(M):
    n = len(M)
    A = [row[:] + unit(n, i) for i, row in enumerate(M)]
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            raise ValueError("singular over Q")
        A[c], A[piv] = A[piv], A[c]
        inv = Fraction(1) / A[c][c]
        A[c] = [q * inv for q in A[c]]
        for r in range(n):
            if r != c and A[r][c]:
                f = A[r][c]
                A[r] = [A[r][k] - f * A[c][k] for k in range(2 * n)]
    return [row[n:] for row in A]


def frac_rref(rows, ncols):
    """Reduced row echelon form over Q of the first ncols columns (later
    columns ride along): the pivot columns and the reduced rows."""
    rows = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [q * inv for q in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots, rows


def frac_nullspace(rows, ncols):
    """Basis of the nullspace of the row system (list of Fraction rows)."""
    pivots, rows = frac_rref([r for r in rows if any(r)], ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(v)
    return basis


def frac_rank(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [rows[i][k] - f * rows[r][k] for k in range(ncols)]
        rank += 1
        r += 1
        if r == len(rows):
            break
    return rank


def halton(index, base):
    """Van der Corput radical inverse of `index` in `base` (index 0 -> 0),
    one digit at a time from the lowest."""
    f = 1.0
    out = 0.0
    i = index
    while i > 0:
        f /= base
        out += f * (i % base)
        i //= base
    return out
