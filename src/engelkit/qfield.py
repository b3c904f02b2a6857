"""Exact arithmetic in real fields Q(sqrt(d1), ..., sqrt(dk)).

Numbers are stored as rational combinations of square-root monomials: the
key frozenset({2, 3}) stands for sqrt(2)*sqrt(3) = sqrt(6).  The radicands
must be pairwise coprime square-free integers > 1 so that products reduce
by symmetric difference alone.  This is all the lattice rank computation
needs; exact rank over floats would be undecidable.  One fraction-free
eliminator, `reduce_rows`, serves these numbers and rational rows cleared
to ints, which have the same ranks, nullspaces and nonzero determinants.
"""

import re
from fractions import Fraction
from math import gcd, lcm

from . import expr as ex


class FieldError(Exception):
    pass


def _square_free(d):
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


class Generators:
    """A declared basis of radicands, e.g. (2, 3) for Q(sqrt2, sqrt3)."""

    def __init__(self, radicands):
        rads = tuple(sorted(set(int(d) for d in radicands)))
        for d in rads:
            if d < 2:
                raise FieldError(f"radicand {d} is not a surd")
            if not _square_free(d):
                raise FieldError(f"radicand {d} is not square-free")
        for i, a in enumerate(rads):
            for b in rads[i + 1:]:
                if gcd(a, b) != 1:
                    raise FieldError(
                        f"radicands {a} and {b} share a factor; declare "
                        f"coprime generators")
        self.radicands = rads

    def monomials(self):
        """All subsets of the radicand set, sorted for stable printing."""
        out = [frozenset()]
        for d in self.radicands:
            out += [key | {d} for key in out]
        return sorted(out, key=lambda k: (len(k), sorted(k)))

    def __eq__(self, other):
        return isinstance(other, Generators) and \
            self.radicands == other.radicands


class QNum:
    """An element of the field, as {monomial key: Fraction}."""

    def __init__(self, gens, terms=None):
        self.gens = gens
        self.terms = {}
        for key, q in (terms or {}).items():
            key = frozenset(key)
            if not key <= set(gens.radicands):
                raise FieldError(f"monomial {sorted(key)} outside the "
                                 f"declared generators")
            q = Fraction(q)
            if q:
                self.terms[key] = self.terms.get(key, Fraction(0)) + q
        self.terms = {k: q for k, q in self.terms.items() if q}

    @classmethod
    def of(cls, gens, q):
        return cls(gens, {frozenset(): Fraction(q)})

    def is_rational(self):
        return all(not key for key in self.terms)

    def rational_part(self):
        return self.terms.get(frozenset(), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, QNum) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for key, q in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + q
        return QNum(self.gens, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return QNum(self.gens, {k: -q for k, q in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __mul__(self, other):
        if not isinstance(other, QNum):
            return QNum(self.gens,
                        {k: q * other for k, q in self.terms.items()})
        out = {}
        for k1, q1 in self.terms.items():
            for k2, q2 in other.terms.items():
                key = k1 ^ k2
                q = q1 * q2
                for d in k1 & k2:
                    q *= d
                out[key] = out.get(key, Fraction(0)) + q
        return QNum(self.gens, out)

    def inverse(self):
        """Invert by conjugates.

        Flipping the sign of sqrt(d) is a field automorphism, and y times
        its flip holds no sqrt(d).  So one flip per generator turns x into
        a nonzero rational r = x * c, and 1/x = c / r.
        """
        if not self:
            raise ZeroDivisionError("field inverse of zero")
        norm, cofactor = self, QNum.of(self.gens, 1)
        for d in self.gens.radicands:
            flip = QNum(self.gens, {k: -q if d in k else q
                                    for k, q in norm.terms.items()})
            norm, cofactor = norm * flip, cofactor * flip
        return cofactor * (1 / norm.rational_part())

    def __truediv__(self, other):
        return self * (other.inverse() if isinstance(other, QNum)
                       else Fraction(1, other))

    __floordiv__ = __truediv__   # exact in a field, as reduce_rows needs

    def __repr__(self):
        return f"QNum({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in self.gens.monomials():
            if key not in self.terms:
                continue
            q = self.terms[key]
            if not key:
                parts.append(str(q))
                continue
            rad = 1
            for d in key:
                rad *= d
            if q == 1:
                parts.append(f"sqrt{rad}")
            elif q == -1:
                parts.append(f"-sqrt{rad}")
            else:
                parts.append(f"{q}*sqrt{rad}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


def clear_denominators(vec):
    """(s * vec, s) for s the lcm of a rational vector's denominators."""
    s = lcm(*(x.denominator for x in vec))
    return [x.numerator * (s // x.denominator) for x in vec], s


def reduce_rows(rows, ncols):
    """Fraction-free Gauss-Jordan elimination in place (Bareiss, Math.
    Comp. 22, 1968), over int or QNum entries.

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


def parse_qnum(text, gens):
    """Read a polynomial in rationals and sqrtN names into a QNum.

    For example '1 - 2/3*sqrt2 + sqrt6' or '(1 + sqrt2)^2'.
    """
    roots = set(re.findall(r"sqrt[0-9]+", text))
    try:
        poly = ex.to_poly(ex.parse(text, roots))
    except ex.ExprError as err:
        raise FieldError(str(err)) from None
    if poly is None:
        raise FieldError(f"{text!r} is a quotient, not a polynomial")
    total = QNum(gens)
    for mono, q in poly.items():
        term = QNum.of(gens, q)
        for base, n in mono:
            if base[0] != "var":
                raise FieldError(f"{ex.to_str(base)} in {text!r} is not a "
                                 f"square root")
            root = QNum(gens, {_factor_key(int(base[1][4:]), gens): 1})
            for _ in range(n):
                term = term * root
        total = total + term
    return total


def _factor_key(rad, gens):
    """Express sqrt(rad) as a product of declared generators."""
    if rad < 2:
        raise FieldError(f"sqrt{rad} is not a surd")
    key = set()
    rest = rad
    for d in gens.radicands:
        if rest % d == 0:
            key.add(d)
            rest //= d
    if rest != 1:
        raise FieldError(f"sqrt{rad} is outside the declared generators")
    return frozenset(key)


def solve_linear(matrix, rhs):
    """Solve M u = rhs over the field; M is a list of QNum rows."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    if len(reduce_rows(a, n)[0]) < n:
        raise FieldError("singular lattice matrix")
    return [row[n] / row[i] for i, row in enumerate(a)]


def rational_rank(rows):
    """Rank over Q of a list of rational vectors (ints or Fractions)."""
    work = [clear_denominators(row)[0] for row in rows]
    return len(reduce_rows(work, len(work[0]) if work else 0)[0])


def span_rank(vectors):
    """Dimension of the smallest Q-rational subspace containing the span.

    Each real vector splits into per-monomial rational component vectors;
    any rational subspace containing the vector contains each of them, so
    the rank of the stacked components is the answer.
    """
    rows = []
    for vec in vectors:
        keys = set()
        for x in vec:
            keys |= set(x.terms)
        for key in keys:
            rows.append([x.terms.get(key, Fraction(0)) for x in vec])
    if not rows:
        return 0
    return rational_rank(rows)
