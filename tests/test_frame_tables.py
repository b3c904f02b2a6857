"""The table-driven exterior calculus against the finite-difference oracle.

Random spaces of dimension 2 to 5 mix coordinate and invariant directions,
with random rational structure constants between the invariant ones.
`wedge`, `d`, `interior` and `pair` are compared with `FDFrame` of
tests/oracle.py, which shares no code with engelkit, at a random point, for
every degree that fits the dimension.  A second call of one shape must take
its index signs from the tables, not work them out again.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from engelkit import expr as ex
from engelkit import frames
from engelkit.frames import DiffForm, FrameSpace, d, interior, pair, wedge

from oracle import FDFrame

COORDS = "xyzst"
LIE = "ABCDE"
CONSTANTS = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2))


@st.composite
def spaces(draw):
    """A FrameSpace and its FDFrame: coordinate directions on [0, 1],
    invariant ones bracketing into invariant ones only."""
    kinds = draw(st.lists(st.sampled_from(("coord", "lie")),
                          min_size=2, max_size=5))
    entries = [("coord", COORDS[i], 0, 1) if kind == "coord"
               else ("lie", LIE[i]) for i, kind in enumerate(kinds)]
    names = [ent[1] for ent in entries]
    lie = [i for i, kind in enumerate(kinds) if kind == "lie"]
    brackets, oracle_brackets = {}, {}
    for i, j in combinations(lie, 2):
        vec = [draw(st.sampled_from(CONSTANTS)) if k in lie else 0
               for k in range(len(kinds))]
        if any(vec):
            brackets[(names[i], names[j])] = vec
            oracle_brackets[(names[i], names[j])] = {
                names[k]: Fraction(c) for k, c in enumerate(vec) if c}
    coords = [ent[1] for ent in entries if ent[0] == "coord"]
    return (FrameSpace(entries, brackets),
            FDFrame(coords, names, oracle_brackets))


def scalars(coords):
    leaf = st.integers(-3, 3).map(ex.rat)
    if coords:
        leaf = st.one_of(leaf, st.sampled_from(coords).map(ex.var))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda ab: ex.add(*ab)),
            st.tuples(sub, sub).map(lambda ab: ex.mul(*ab)),
            sub.map(ex.sin),
        ),
        max_leaves=4,
    ).map(ex.normalize)


def forms(draw, space, degree):
    coords = [name for name, *_ in space.coord_ranges]
    comp = st.one_of(st.just(ex.ZERO), scalars(coords))
    return DiffForm(space, degree, {
        idx: draw(comp) for idx in combinations(range(space.dim), degree)})


def fields(draw, space):
    coords = [name for name, *_ in space.coord_ranges]
    comp = st.one_of(st.just(ex.ZERO), st.just(ex.ONE), scalars(coords))
    return space.field([draw(comp) for _ in range(space.dim)])


def oracle_form(w):
    return {I: (lambda x, c=c: ex.evaluate(c, x)) for I, c in w.comps.items()}


def oracle_field(V):
    return lambda x: [ex.evaluate(c, x) for c in V.comps]


def assert_matches(w, oracle, x, tol):
    """Every component of the DiffForm w equals the oracle's at x."""
    for idx in combinations(range(w.space.dim), w.degree):
        want = oracle[idx](x) if idx in oracle else 0.0
        got = ex.evaluate(w.comp(idx), x)
        assert abs(got - want) <= tol * (1 + abs(want)), (idx, got, want)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_calculus_matches_the_finite_difference_oracle(data):
    space, frame = data.draw(spaces())
    n = space.dim
    x = {name: data.draw(st.floats(0.05, 0.95))
         for name, *_ in space.coord_ranges}
    first = [forms(data.draw, space, p) for p in range(n + 1)]
    second = [forms(data.draw, space, p) for p in range(n + 1)]
    V = fields(data.draw, space)
    for p, w in enumerate(first):
        om = oracle_form(w)
        assert_matches(d(w), frame.d(om, p) if p < n else {}, x, 1e-6)
        if p:
            assert_matches(interior(V, w),
                           frame.interior(oracle_field(V), om, p), x, 1e-9)
        for q in range(n - p + 1):
            assert_matches(wedge(w, second[q]),
                           frame.wedge(om, p, oracle_form(second[q]), q),
                           x, 1e-9)
        slots = [fields(data.draw, space) for _ in range(p)]
        want = frame.pair(om, [oracle_field(U) for U in slots], x)
        got = ex.evaluate(pair(w, *slots), x)
        assert abs(got - want) <= 1e-9 * (1 + abs(want))


MIXED = FrameSpace([("coord", "x", 0, 1), ("lie", "A"),
                    ("coord", "y", 0, 1), ("lie", "B"), ("lie", "C")],
                   brackets={("A", "B"): [0, 0, 0, 1, 2],
                             ("A", "C"): [0, 0, 0, -1, "1/2"]})


def test_a_second_call_of_one_shape_computes_no_sign(monkeypatch):
    def comps(degree, text):
        return {idx: MIXED.scalar(text.format(k))
                for k, idx in enumerate(combinations(range(5), degree))}

    a, b = MIXED.form(1, comps(1, "x + {}")), MIXED.form(2, comps(2, "y*{}"))
    V = MIXED.field([MIXED.scalar(f"x^{k}") for k in range(5)])
    warm = (wedge(a, b), d(b), interior(V, b), pair(b, V, V))

    def refuse(perm):
        raise AssertionError("an index sign was worked out again")

    monkeypatch.setattr(frames, "perm_sign", refuse)
    a2, b2 = a.scale(MIXED.scalar("y")), b.scale(MIXED.scalar("x + 1"))
    wedge(a2, b2), d(b2), interior(V, b2), pair(b2, V, V)
    assert warm == (wedge(a, b), d(b), interior(V, b), pair(b, V, V))
    # the tables do take their signs from perm_sign
    frames._wedge_table.cache_clear()
    with pytest.raises(AssertionError, match="worked out again"):
        wedge(a, b)
