"""The sweep draw and its answer key."""

from fractions import Fraction
from itertools import islice

import pytest

import sweep


def take(seed, n):
    return list(islice(sweep.draw(seed), n))


def test_draw_is_a_pure_function_of_the_seed():
    assert take(7, 200) == take(7, 200)
    assert take(7, 200) != take(8, 200)


def test_answer_key_is_a_pure_function_of_the_seed():
    keys = [[sweep.expected(*row) for row in take(seed, 200)]
            for seed in (3, 3)]
    assert keys[0] == keys[1]


def test_blocks_keep_their_mix():
    rows = take(11, 100)
    for start in range(0, 100, 10):
        block = rows[start:start + 10]
        triples = [p["c"] for name, p in block if name == "sol_mn"]
        zeros = [c for c in triples if 0 in c]
        assert len(triples) == 6 and len(zeros) == 3
        assert sum(1 for name, _ in block if name == "sol0") == 1
        fixed = [name for name, _ in block if name in sweep.FIXED]
        assert len(fixed) == len(set(fixed)) == 3


def test_triples_are_admissible():
    for name, params in take(5, 500):
        if name == "sol_mn":
            c = params["c"]
            assert sum(c) == 0 and len(set(c)) == 3
            assert sum(1 for x in c if x == 0) in (0, 1)
        elif name == "sol0":
            assert params["a"] and params["b"]


def test_weight_rule():
    F = Fraction
    assert sweep.expected("sol_mn", {"c": (F(1, 2), 0, F(-1, 2))}) == "+"
    assert sweep.expected("sol_mn", {"c": (F(2), F(-3), F(1))}) == "-"
    assert sweep.expected("sol0", {"a": F(1), "b": F(3)}) == "-"
    for name in sweep.FIXED:
        assert sweep.expected(name, None) == "+"
    with pytest.raises(ValueError):
        sweep.expected("nope", None)


def test_check_row_needs_the_reverification():
    good = {"jacobi": True, "outcome": "+", "triple_ok": True,
            "invariants_ok": True}
    assert sweep.check_row(good, "+")
    assert not sweep.check_row({**good, "invariants_ok": False}, "+")
    assert not sweep.check_row(good, "-")
    cert = {"jacobi": True, "outcome": "-", "certificate": "commutant is "
            "trivial"}
    assert sweep.check_row(cert, "-")
    assert not sweep.check_row({**cert, "certificate": None}, "-")
