"""Exact ranks over Q and over fields Q(sqrt(d1), ..., sqrt(dk)).

A field value is an `expr` polynomial with rational coefficients in the
generator roots `sqrt<d>`, and `surd_terms` reduces it by sqrt(d)^2 = d
into {frozenset of radicands: rational}: frozenset({2, 3}) stands for
sqrt(6).  With pairwise coprime square-free radicands > 1, distinct keys
are Q-linearly independent (Besicovitch, J. London Math. Soc. 15, 1940),
so a value is zero exactly when its dict is empty, and ranks split into
rational rows per key.  Every rank runs through the one fraction-free
eliminator, `reduce_rows`, on rational rows cleared to ints.
"""

import re
from math import gcd, isqrt, lcm

from . import expr as ex

# the largest radicand a generator may have, so that trial division decides
# square-freeness in at most sqrt(MAX_RADICAND) steps
MAX_RADICAND = 10 ** 9


class FieldError(ex.CheckError):
    pass


class Generators:
    """A declared basis of radicands, e.g. (2, 3) for Q(sqrt2, sqrt3)."""

    def __init__(self, radicands):
        rads = tuple(sorted(set(int(d) for d in radicands)))
        for d in rads:
            if d < 2:
                raise FieldError(f"radicand {d} is not a surd")
            if d > MAX_RADICAND:
                raise FieldError(f"radicand {d} is larger than "
                                 f"{MAX_RADICAND}")
            if not all(d % (k * k) for k in range(2, isqrt(d) + 1)):
                raise FieldError(f"radicand {d} is not square-free")
        for i, a in enumerate(rads):
            for b in rads[i + 1:]:
                if gcd(a, b) != 1:
                    raise FieldError(
                        f"radicands {a} and {b} share a factor; declare "
                        f"coprime generators")
        self.radicands = rads


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


_ROOT = re.compile(r"sqrt[0-9]+")


def parse_surd(text, gens):
    """Read a polynomial in rationals and sqrtN names, such as
    '1 - 2/3*sqrt2 + sqrt6' or '(1 + sqrt2)^2', as an expression in the
    generator roots: each sqrtN becomes the product of the roots of the
    generators N factors into, so sqrt6 over (2, 3) is sqrt2*sqrt3.  Text
    that is not such a polynomial is a FieldError."""
    names = set(_ROOT.findall(text))
    try:
        e = ex.parse(text, names)
        roots = {name: ex.mul(*(ex.var(f"sqrt{d}")
                                for d in _factor_key(name, gens)))
                 for name in names}
        # a denominator such as sqrt6 - sqrt2*sqrt3 is zero once split
        e = ex.normalize(ex.substitute(e, roots))
    except ex.ExprError as err:
        raise FieldError(str(err)) from None
    surd_terms(e, text)
    return e


def _factor_key(name, gens):
    """The generators whose product is the radicand of the root `name`."""
    try:
        rad = int(name[4:])
    except ValueError:   # longer than int() reads: no product of generators
        raise FieldError(f"{name} is outside the declared generators") \
            from None
    if rad < 2:
        raise FieldError(f"{name} is not a surd")
    key = []
    for d in gens.radicands:
        if rad % d == 0:
            key.append(d)
            rad //= d
    if rad != 1:
        raise FieldError(f"{name} is outside the declared generators")
    return key


def surd_terms(e, source=None):
    """A polynomial in roots sqrtN as {frozenset of radicands: rational},
    by sqrt(d)^k = d^(k//2) sqrt(d)^(k%2), without zero terms.

    A quotient, or an atom other than a root, is a FieldError naming
    source, the text e was read from, or else e.
    """
    poly = ex.to_poly(e)
    if poly is None:
        raise FieldError(f"{source or ex.to_str(e)!r} is a quotient, not a "
                         f"polynomial")
    out = {}
    for mono, q in poly.items():
        key = set()
        for base, k in mono:
            if base[0] != "var" or not _ROOT.fullmatch(base[1]):
                raise FieldError(f"{ex.to_str(base)} in "
                                 f"{source or ex.to_str(e)!r} is not a "
                                 f"square root")
            d = int(base[1][4:])
            q *= d ** (k // 2)
            if k % 2:
                key.add(d)
        key = frozenset(key)
        out[key] = out.get(key, 0) + q
    return {key: q for key, q in out.items() if q}


def rational_rank(rows):
    """Rank over Q of a list of rational vectors (ints or Fractions)."""
    work = [clear_denominators(row)[0] for row in rows]
    return len(reduce_rows(work, len(work[0]) if work else 0)[0])


def span_rank(vectors):
    """Dimension of the smallest Q-rational subspace containing the span.

    Each vector of field values splits into one rational vector per
    square-root monomial; any rational subspace containing the vector
    contains each of them, so the rank of the stacked components is the
    answer.
    """
    rows = []
    for vec in vectors:
        terms = [surd_terms(x) for x in vec]
        rows += [[t.get(key, 0) for t in terms]
                 for key in set().union(*terms)]
    return rational_rank(rows) if rows else 0
