"""Deterministic sample points and numeric zero/nonzero verdicts.

Symbolic zero is decided exactly when possible; otherwise an expression is
probed on a low-discrepancy point set and the verdict records either
"vanished at every sample" or a concrete witness point.  All sampling is a
pure function of (seed, sample count), so repeated runs agree byte for byte.
"""

import math
from functools import partial
from operator import itemgetter
from types import MappingProxyType

from . import expr as ex

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_RETRIES = 16   # singular samples `nonvanishing` replaces before failing
BLOCK_GROWTH = 4   # each block of `is_zero_many` is this much longer


def halton_column(start, count, base):
    """The Van der Corput radical inverses of start, ..., start+count-1 in
    `base` (index 0 -> 0.0), bit for bit as a per-index digit loop gives
    them: f = 1.0; out = 0.0; for each digit d of the index from the lowest,
    f /= base; out += f * d.

    The loop's partial sum over the lowest m digit positions depends only
    on the index mod base**m.  That period is built once, for the largest
    base**m no longer than the window, one position at a time: residue
    d*base**(k-1) + r gets the period of k-1 positions at r plus f_k*d.
    Above position m the digits of an index are those of its aligned block
    q = index // base**m, the same for the whole block, so each block of
    the window is a slice of the period to which the block's higher terms
    are added in turn, lowest first.  Every value thus receives the loop's
    terms in the loop's order.  A term +0.0, from a zero digit or past an
    index's top digit, leaves a nonnegative float unchanged, so the period
    may add it and the blocks skip it without changing a bit.
    """
    stop = start + count
    period, f, run = [0.0], 1.0, 1   # run = base**m, the period's length
    while run * base <= count:
        f /= base
        low = []
        for d in range(base):
            low += map((f * d).__add__, period)
        period = low
        run *= base
    out = []
    for q in range(start // run, (stop - 1) // run + 1):
        first = q * run
        block = period[max(start - first, 0):min(stop - first, run)]
        g = f
        while q:   # the digits above position m, lowest first
            g /= base
            t = g * (q % base)
            if t:
                block = map(t.__add__, block)
            q //= base
        out += block
    return out


class SamplingPolicy:
    """How numeric checks probe expressions.

    seed offsets the Halton sequence (index = seed*n_samples + i), so two
    runs with the same seed visit identical points.  Sample 0 of seed 0 is
    the corner of the box: degenerate loci at coordinate zero are probed
    on purpose.
    """

    def __init__(self, seed=0, n_samples=64, abs_tol=1e-9):
        self.seed = int(seed)
        self.n_samples = int(n_samples)
        self.abs_tol = float(abs_tol)
        if self.seed < 0 or not (self.n_samples > 0 and self.abs_tol > 0):
            raise ValueError("need seed >= 0, n_samples > 0 and abs_tol > 0")
        self._points = {}    # coordinate tuple -> (samples built, columns)
        self._columns = {}   # prime -> its Halton column, as far as built

    def points(self, coords, stop=None):
        """The sample points of named coordinate ranges, as columns.

        coords: sequence of (name, lo, hi).  Returns a read-only mapping
        from each name to the tuple of its value at each sample, in sample
        order; there are n_samples samples, also when coords is empty.
        Every coordinate samples the half-open range [lo, hi), as the
        Halton radical inverse never reaches 1; a manifest's `periodic`
        keyword changes nothing here.  Coordinate j of sample i is
        lo + u * (hi - lo), with u the radical inverse of seed*n + i in
        PRIMES[j].

        The columns are built only as far as a caller reads: stop (at most
        and by default n_samples) asks for samples 0, ..., stop-1, and the
        mapping returned may hold more.  Each prime's column of radical
        inverses grows as a prefix, by `halton_column` on the indices not
        yet built, so each index is built at most once per base per policy;
        the columns of a coordinate tuple grow the same way.  Once all n
        samples are built, every call returns the same mapping.
        """
        coords = tuple(coords)
        stop = self.n_samples if stop is None else min(stop, self.n_samples)
        built, cols = self._points.get(coords, (0, None))
        if cols is None or built < stop:
            grown = self._scaled(
                coords, lambda base: self._column(base, stop)[built:stop])
            if cols is not None:
                grown = {name: cols[name] + new for name, new in grown.items()}
            cols = MappingProxyType(grown)
            self._points[coords] = stop, cols
        return cols

    def fallback(self, coords, first, count):
        """Fallback points first, ..., first + count - 1 past the sample
        points, as columns like those of `points`: the retries of singular
        samples.  Fallback point k has Halton index (seed+1)*n + k."""
        start = (self.seed + 1) * self.n_samples + first
        return MappingProxyType(
            self._scaled(coords, partial(halton_column, start, count)))

    def _column(self, base, stop):
        """The radical inverses in `base` of the sample indices seed*n,
        ..., seed*n + stop - 1 at least: a prefix that `halton_column`
        (bit for bit the per-index digit loop) extends on demand."""
        col = self._columns.setdefault(base, [])
        if len(col) < stop:
            col += halton_column(self.seed * self.n_samples + len(col),
                                 stop - len(col), base)
        return col

    @staticmethod
    def _scaled(coords, column):
        """Columns of named ranges, as a dict: coordinate j maps
        column(PRIMES[j]), a list of Halton values, onto its float range
        [lo, hi)."""
        out = {}
        for j, (name, lo, hi) in enumerate(coords):
            lo, width = float(lo), float(hi) - float(lo)
            us = column(PRIMES[j % len(PRIMES)])
            out[name] = tuple(map(lo.__add__, map(width.__mul__, us)))
        return out


class Verdict:
    """Outcome of a vanishing or a nonvanishing check.

    kind is 'exact' (zero by normalization), 'sampled' (below tolerance at
    every sample point) or 'nonzero' (a witness point and value) for a
    zero check; 'nonvanishing' or 'vanishing' for a nonvanishing check,
    with the smallest sampled magnitude as value and where it was taken.
    """

    PASSING = ("exact", "sampled", "nonvanishing")

    def __init__(self, kind, value=None, point=None):
        assert kind in self.PASSING + ("nonzero", "vanishing")
        self.kind = kind
        self.value = value
        self.point = point

    @property
    def ok(self):
        return self.kind in self.PASSING

    def __repr__(self):
        return f"Verdict({self.describe()})"

    def describe(self):
        if self.kind in ("exact", "sampled"):
            return f"zero={self.kind}"
        if self.kind == "nonzero":
            return (f"zero=no value={fmt_float(self.value)} "
                    f"at {fmt_point(self.point)}")
        word = "yes" if self.ok else "NO"
        return (f"nonvanishing={word} min={fmt_float(self.value)} "
                f"at {fmt_point(self.point)}")

    def require(self, what, error, *args):
        """Raise error(f"{what}: {describe()}", *args) unless it passed."""
        if not self.ok:
            raise error(f"{what}: {self.describe()}", *args)


def failed(verdicts):
    """Names of the failing checks in a {name: Verdict} dict."""
    return [name for name, v in verdicts.items() if not v.ok]


def weakest(verdicts):
    """One verdict standing for several zero checks.

    The first failure if any fails; otherwise 'sampled' when any passed only
    by sampling, else 'exact'.
    """
    verdicts = list(verdicts)
    bad = [v for v in verdicts if not v.ok]
    if bad:
        return bad[0]
    if any(v.kind == "sampled" for v in verdicts):
        return Verdict("sampled")
    return Verdict("exact")


def fmt_float(v):
    return f"{float(v):.12g}"


def fmt_point(pt):
    if not pt:
        return "-"
    return ",".join(f"{k}={fmt_float(v)}" for k, v in sorted(pt.items()))


def is_zero_expr(e, coords, policy):
    """Decide whether a scalar expression vanishes identically on the box."""
    return is_zero_many([e], coords, policy)


def is_zero_many(exprs, coords, policy):
    """Joint vanishing check; first non-vanishing component wins.

    Samples are visited in order, and the components in order at each
    sample.  A sample where a component is singular is skipped for that
    component, but every component must be evaluated somewhere: one that
    no sample could evaluate fails with value nan at the first sample.  The
    samples are evaluated in blocks of growing size, so that a check that
    fails at an early sample evaluates few others, and the points of a
    block are built only when it is reached.
    """
    live = [e for e in map(ex.normalize, exprs) if not ex.is_zero(e)]
    if not live:
        return Verdict("exact")
    unseen = set(range(len(live)))
    start, stop = 0, 1
    while start < policy.n_samples:
        columns = policy.points(coords, stop)
        hit = None   # (sample, value or error) of the first failure
        for j, e in enumerate(live):
            # past a hit, a later component comes first only at an earlier
            # sample, so it is evaluated only before the hit
            end = stop if hit is None else hit[0]
            if end <= start:
                break
            values, errors = ex.evaluate_columns(e, columns, start, end)
            if len(errors) < end - start:
                unseen.discard(j)
            hit = _first_failure(values, errors, start, policy.abs_tol) or hit
        if hit is not None:
            i, found = hit
            if isinstance(found, ex.ExprError):
                raise found
            return Verdict("nonzero", value=found, point=_witness(columns, i))
        start, stop = stop, min(policy.n_samples, BLOCK_GROWTH * stop)
    if unseen:
        return Verdict("nonzero", value=float("nan"),
                       point=_witness(columns, 0))
    return Verdict("sampled")


def _first_failure(values, errors, start, tol):
    """(sample, value or error) where a block of one component first exceeds
    tol or fails otherwise than at a singular point; None if nowhere."""
    found = [(i, err) for i, err in errors.items()
             if not isinstance(err, ex.SingularPoint)]
    if max(map(abs, values)) > tol:
        p = next(p for p, v in enumerate(values) if abs(v) > tol)
        found.append((start + p, values[p]))
    return min(found, key=itemgetter(0), default=None)


def nonvanishing(exprs, coords, policy):
    """Certify that at every sample some component exceeds tolerance.

    The verdict's value is the minimum over samples of the largest
    component magnitude, taken at its first point; an empty list is the
    zero form and vanishes everywhere.  Singular sample points are retried,
    in order, from a fallback sequence, after the samples.
    """
    normed = [ex.normalize(e) for e in exprs]
    if all(map(ex.is_constant, normed)):
        # the same magnitudes at every sample: the loop would keep the first
        columns = policy.points(coords, 1)
        mags, errors = _magnitudes([e for e in normed if e[0] != "rat"],
                                   columns, 1)
        if not errors:
            m = max([_magnitude(e[1]) for e in normed if e[0] == "rat"]
                    + (mags or []), default=0.0)
            return Verdict("nonvanishing" if m > policy.abs_tol
                           else "vanishing", value=m,
                           point=_witness(columns, 0))
    columns = policy.points(coords)
    best = None   # (magnitude, point) of the smallest magnitude so far
    retries = 0
    count = policy.n_samples
    while count:
        mags, errors = _magnitudes(normed, columns, count)
        for i in sorted(errors):
            if not isinstance(errors[i], ex.SingularPoint):
                raise errors[i]
            retries += 1
            if retries > MAX_RETRIES:
                return Verdict("vanishing", value=0.0,
                               point=_witness(columns, i))
            mags[i] = math.inf
        low = min(mags)
        if low < (best[0] if best else math.inf):
            best = (low, _witness(columns, mags.index(low)))
        count = len(errors)
        if count:
            columns = policy.fallback(coords, retries - count, count)
    ok = best is not None and best[0] > policy.abs_tol
    return Verdict("nonvanishing" if ok else "vanishing",
                   value=best[0] if best else 0.0,
                   point=best[1] if best else None)


def _magnitude(q):
    """|q| for a rational q, as a float; math.inf past the float range,
    which certainly exceeds any tolerance."""
    try:
        return abs(float(q))
    except OverflowError:
        return math.inf


def _magnitudes(exprs, columns, count):
    """The largest |e| over exprs at each of the first count points, and at
    each point where some e fails, the error of the first that fails."""
    mags, errors = None, {}
    for e in exprs:
        values, failed_at = ex.evaluate_columns(e, columns, 0, count)
        values = map(abs, values)
        mags = list(values if mags is None else map(max, mags, values))
        for i, err in failed_at.items():
            errors.setdefault(i, err)
    return mags, errors


def _witness(columns, i):
    """Point i of a column set, as a read-only name -> value mapping."""
    return MappingProxyType({name: col[i] for name, col in columns.items()})
