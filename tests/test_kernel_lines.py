"""Kernel lines by duality: the field K with i_K vol = w for an (n-1)-form w.

W, T, R and the contact Reeb field are all derived from `kernel_line`.  The
property tests check the formula on random forms over coordinate and
invariant frames; the corpus tests check the derived T and R exactly on
every analyzed pair, and against a least-squares solve of their defining
systems at the sample points, done with numpy and sharing no solver code
with the package.
"""

from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from engelkit import contact, engel
from engelkit import expr as ex
from engelkit.contact import reeb_solved, thicken_space
from engelkit.engel import EngelError, reeb_pair
from engelkit.frames import (FrameError, FrameSpace, d, interior, kernel_line,
                             pair, wedge, zero)
from engelkit.manifest import load_manifest
from engelkit.report import run_manifest
from engelkit.sampling import SamplingPolicy

ROOT = Path(__file__).resolve().parent.parent
MANIFESTS = (sorted((ROOT / "corpus").glob("*.ek"))
             + [ROOT / "tests" / "manifests" / "integrability.ek"])
POLICY = SamplingPolicy(seed=0, n_samples=64)


# --- the formula on random forms -------------------------------------------

def frame_space(kinds):
    """A frame of coordinate (True) and invariant (False) directions; three
    or more invariant ones carry a Heisenberg bracket."""
    entries = [("coord", f"x{i}", 0, 1) if coord else ("lie", f"e{i}")
               for i, coord in enumerate(kinds)]
    lie = [e[1] for e in entries if e[0] == "lie"]
    brackets = {}
    if len(lie) >= 3:
        vec = [1 if e[1] == lie[2] else 0 for e in entries]
        brackets[(lie[0], lie[1])] = vec
    return FrameSpace(entries, brackets=brackets)


@st.composite
def top_minus_one_forms(draw):
    n = draw(st.sampled_from([3, 4, 5]))
    sp = frame_space(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    coords = [name for name, *_ in sp.coord_ranges]
    atoms = [ex.ONE, ex.PI]
    for c in coords:
        x = ex.var(c)
        atoms += [x, ex.sin(x), ex.parse(f"exp({c})", coords),
                  ex.div(ex.ONE, ex.add(ex.ONE, x))]
    rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    monomials = st.tuples(rats, st.lists(st.sampled_from(atoms), max_size=2))
    scalars = st.lists(monomials, max_size=3).map(
        lambda ms: ex.add(*[ex.mul(ex.rat(q), *fs) for q, fs in ms]))
    comps = {}
    for i in range(n):
        comps[tuple(j for j in range(n) if j != i)] = draw(scalars)
    return sp.form(n - 1, comps)


def _proportional_quotient_form():
    # (-3*x2 - 3)/(x2 + 1) must normalize to -3, or i_K w keeps a
    # (-x2 - 1)/(x2 + 1) + 1 term
    sp = frame_space([True, True, True])
    x2 = ex.var("x2")
    quotient = ex.div(ex.add(ex.mul(ex.rat(-3), x2), ex.rat(-3)),
                      ex.add(x2, ex.ONE))
    return sp.form(2, {(0, 1): quotient, (0, 2): ex.rat(Fraction(1, 3)),
                       (1, 2): ex.ZERO})


@given(top_minus_one_forms())
@example(_proportional_quotient_form())
@settings(max_examples=80, deadline=None)
def test_kernel_line_is_dual_to_the_volume_form(w):
    sp = w.space
    K = kernel_line(w)
    assert interior(K, w).is_structurally_zero()
    vol = sp.form(sp.dim, {tuple(range(sp.dim)): ex.ONE})
    assert interior(K, vol) == w


# --- the derived fields on every analyzed corpus pair ----------------------

@pytest.fixture(scope="module")
def derived():
    """(space, alpha, beta, T, R) of each analyzed pair and (space, eta,
    R_eta) of each contact thickening, as the manifests derive them."""
    pairs, thickenings = [], []

    def recording_pair(space, alpha, beta, db, policy):
        T, R = reeb_pair(space, alpha, beta, db, policy)
        pairs.append((space, alpha, beta, T, R))
        return T, R

    def recording_reeb(sp5, eta, dd, policy):
        field = reeb_solved(sp5, eta, dd, policy)
        thickenings.append((sp5, eta, field))
        return field

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engel, "reeb_pair", recording_pair)
        mp.setattr(contact, "reeb_solved", recording_reeb)
        for path in MANIFESTS:
            run_manifest(load_manifest(str(path)), POLICY)
    return pairs, thickenings


def test_every_manifest_pair_is_recorded(derived):
    pairs, thickenings = derived
    assert len(pairs) == 11 and len(thickenings) == 7


def test_defining_conditions_of_T_and_R_hold_exactly(derived):
    for sp, alpha, beta, T, R in derived[0]:
        db = d(beta)
        checks = [interior(T, wedge(alpha, db)),
                  [ex.add(pair(beta, T), ex.rat(-1))], [pair(alpha, T)],
                  interior(R, wedge(beta, db)),
                  [pair(beta, R)], [ex.add(pair(alpha, R), ex.rat(-1))]]
        for check in checks:
            assert zero(check, sp.coord_ranges, POLICY).kind == "exact"
        # the normalizer of T is minus the span density
        density = wedge(wedge(alpha, beta), db).comp(range(sp.dim))
        K_T = kernel_line(wedge(alpha, db))
        assert zero([ex.add(pair(beta, K_T), density)], sp.coord_ranges,
                    POLICY).kind == "exact"


def sample_points(coords):
    """POLICY's sample columns read back as one dict per sample."""
    cols = POLICY.points(coords)
    return [{name: col[i] for name, col in cols.items()}
            for i in range(POLICY.n_samples)]


def values(exprs, env):
    return np.array([ex.evaluate(e, env) for e in exprs])


def signed_value(w, idx, env):
    """w on an unsorted index tuple at a point: 0 on a repeated index, else
    the sorted component times (-1)^(inversions of idx)."""
    if len(set(idx)) < len(idx):
        return 0.0
    inversions = sum(a > b for a, b in combinations(idx, 2))
    return (-1) ** inversions * ex.evaluate(w.comp(sorted(idx)), env)


def interior_rows(w, env):
    """The matrix of V -> i_V w at a point, one row per (p-1)-index."""
    n = w.space.dim
    return [np.array([signed_value(w, (i,) + J, env) for i in range(n)])
            for J in combinations(range(n), w.degree - 1)]


def least_squares(rows, rhs):
    u, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs, dtype=float),
                            rcond=None)
    return u


def assert_close(field, u, env):
    got = values(field.comps, env)
    assert np.all(np.abs(got - u) <= 1e-9 * np.maximum(1.0, np.abs(u)))


def test_T_and_R_match_a_numeric_solve(derived):
    for sp, alpha, beta, T, R in derived[0]:
        db = d(beta)
        for env in sample_points(sp.coord_ranges):
            a = values([alpha.comp((i,)) for i in range(sp.dim)], env)
            b = values([beta.comp((i,)) for i in range(sp.dim)], env)
            rows = interior_rows(wedge(alpha, db), env)
            u = least_squares(rows + [b, a], [0] * len(rows) + [1, 0])
            assert_close(T, u, env)
            rows = interior_rows(wedge(beta, db), env)
            u = least_squares(rows + [b, a], [0] * len(rows) + [0, 1])
            assert_close(R, u, env)


def test_contact_reeb_field_matches_a_numeric_solve(derived):
    for sp5, eta, R_eta in derived[1]:
        for env in sample_points(sp5.coord_ranges):
            e = values([eta.comp((i,)) for i in range(sp5.dim)], env)
            rows = interior_rows(d(eta), env)
            u = least_squares(rows + [e], [0] * len(rows) + [1])
            assert_close(R_eta, u, env)


# --- a vanishing normalizer --------------------------------------------------

def test_a_closed_beta_has_no_transverse_direction():
    sp = FrameSpace([("coord", n, 0, 1) for n in "xyzt"])
    alpha = sp.one_form([sp.scalar("-cos(2*pi*t)"),
                         sp.scalar("-sin(2*pi*t)"), ex.ONE, ex.ZERO])
    beta = sp.one_form([ex.ONE, ex.ZERO, ex.ZERO, ex.ZERO])   # dbeta = 0
    with pytest.raises(EngelError, match=r"^transverse direction T: "
                                         r"nonvanishing=NO min=0 at "):
        reeb_pair(sp, alpha, beta, d(beta), POLICY)


def test_a_closed_eta_has_no_reeb_field():
    sp5 = thicken_space(FrameSpace([("coord", n, 0, 1)
                                    for n in "xyzt"]))
    eta = sp5.one_form([ex.ONE] + [ex.ZERO] * 4)
    with pytest.raises(FrameError, match=r"^contact Reeb field eta\(K\): "
                                         r"nonvanishing=NO min=0 at "):
        reeb_solved(sp5, eta, wedge(d(eta), d(eta)), POLICY)
