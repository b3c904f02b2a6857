"""The catalog sweep: a seeded stream of `geometry_row` inputs and its key.

Rows come in shuffled blocks of ten: three Sol4(m,n) weight triples with
exactly one zero weight, three with no zero weight, one Sol0 pair and
three of the five fixed geometries.  Every triple has distinct weights
summing to zero, so the plane bracket-generates and the row ends either
in a found framing or in a nonexistence certificate.

The answer key is the weight rule, not a call into engelkit: a framing
exists exactly when one weight is zero, Sol0 never has one, and the fixed
geometries always do.
"""

import random
from fractions import Fraction

FIXED = ("s3xr", "sl2xr", "nil3xr", "sol1", "nil4")
BLOCK = (("zero",) * 3 + ("nonzero",) * 3 + ("sol0",) + ("fixed",) * 3)


def _rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                    rng.randint(1, 6))


def _zero_triple(rng):
    a = _rational(rng)
    rest = [a, -a]
    rng.shuffle(rest)
    zero_at = rng.randrange(3)
    rest.insert(zero_at, Fraction(0))
    return tuple(rest)


def _nonzero_triple(rng):
    while True:
        a, b = _rational(rng), _rational(rng)
        c = -a - b
        if c and len({a, b, c}) == 3:
            return (a, b, c)


def _row(kind, rng):
    if kind == "zero":
        return ("sol_mn", {"c": _zero_triple(rng)})
    if kind == "nonzero":
        return ("sol_mn", {"c": _nonzero_triple(rng)})
    if kind == "sol0":
        return ("sol0", {"a": _rational(rng), "b": _rational(rng)})
    return (kind, None)


def draw(seed):
    """Endless (geometry, params) rows; a pure function of the seed."""
    rng = random.Random(f"catalog-sweep:{seed}")
    while True:
        kinds = list(BLOCK)
        rng.shuffle(kinds)
        fixed = rng.sample(FIXED, kinds.count("fixed"))
        for kind in kinds:
            yield _row(fixed.pop() if kind == "fixed" else kind, rng)


def expected(name, params):
    """'+' when a commuting transverse framing exists, else '-'."""
    if name == "sol_mn":
        return "+" if sum(1 for c in params["c"] if c == 0) == 1 else "-"
    if name == "sol0":
        return "-"
    if name in FIXED:
        return "+"
    raise ValueError(f"no answer key for geometry {name!r}")


def check_row(row, key):
    """Does a geometry_row result match its key in full?

    A '+' row must also pass the K-Engel triple and invariant
    re-verification; a '-' row must carry its certificate.
    """
    if not row.get("jacobi") or row.get("outcome") != key:
        return False
    if key == "+":
        return bool(row.get("triple_ok") and row.get("invariants_ok"))
    return bool(row.get("certificate"))
