"""Exact checks for the invariant-geometry catalog."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelkit import expr as ex
from engelkit.catalog import (CatalogError, GEOMETRIES, LieAlgebra4,
                              catalog_run, commutant, det4, fmt_vec,
                              geometry_row, jacobi_check,
                              kengel_framing_search)
from engelkit.qfield import rational_rank


def build(name, params=None):
    entry = GEOMETRIES[name]
    merged = dict(entry["params"])
    if params:
        merged.update(params)
    return entry["build"](merged)


def rational_table(data):
    out = {}
    for key, val in data.table.items():
        e = ex.normalize(val)
        assert e[0] == "rat", f"{key} is not exactly rational: {val}"
        if e[1]:
            out[key] = e[1]
    return out


def test_fmt_vec():
    names = ["A", "B", "C", "D"]
    assert fmt_vec(names, (1, 1, 1, 0)) == "A + B + C"
    assert fmt_vec(names, (0, 0, -1, 0)) == "-C"
    assert fmt_vec(names, (0, 0, 2, 0)) == "2*C"
    assert fmt_vec(names, (0, Fraction(-1, 2), 0, 1)) == "-1/2*B + D"
    assert fmt_vec(names, (0, 0, 0, 0)) == "0"


def test_det4():
    eye = [[int(i == j) for i in range(4)] for j in range(4)]
    assert det4(eye) == 1
    assert det4([eye[0], eye[1], eye[2], eye[0]]) == 0
    assert det4([eye[1], eye[0], eye[2], eye[3]]) == -1


def test_jacobi_passes_on_every_registry_entry():
    for name in GEOMETRIES:
        ok, violations = jacobi_check(build(name))
        assert ok, (name, violations)


def test_jacobi_reports_offending_triple():
    bad = LieAlgebra4(["A", "B", "C", "D"],
                      {(0, 1): [0, 0, 1, 0],
                       (0, 2): [1, 0, 0, 0]})
    ok, violations = jacobi_check(bad)
    assert not ok
    names, residual = violations[0]
    assert names == ("A", "B", "C")
    assert residual == [0, 0, 1, 0]


def test_commutant_nil4_pair():
    lie = build("nil4")
    basis = commutant(lie, [(1, 0, 0, 0), (0, 0, 0, 1)])
    assert basis == [[0, 0, 1, 0]]


def test_commutant_weighted_translations():
    lie = GEOMETRIES["sol_mn"]["build"]({"c": (0, 1, -1)})
    basis = commutant(lie, [(1, 1, 1, 0), (0, 0, 0, 1)])
    assert basis == [[1, 0, 0, 0]]


def test_commutant_spiral_is_trivial():
    lie = build("sol0")
    assert commutant(lie, [(1, 0, 1, 0), (0, 0, 0, 1)]) == []


def test_commutant_of_nothing_is_everything():
    lie = build("nil4")
    assert len(commutant(lie, [])) == 4


small_vec = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 4)


@settings(max_examples=40, deadline=None)
@given(vecs=st.lists(small_vec, min_size=1, max_size=3),
       keep=st.integers(min_value=0, max_value=2),
       which=st.sampled_from(["s3xr", "nil3xr", "sol1", "nil4"]))
def test_commutant_shrinks_as_the_set_grows(vecs, keep, which):
    lie = build(which)
    subset = vecs[:max(1, min(keep, len(vecs)))]
    big = commutant(lie, vecs)
    small = commutant(lie, subset)
    base = rational_rank(small) if small else 0
    for vec in big:
        rows = small + [vec]
        assert rational_rank(rows) == base or not small and not any(vec)


def test_framing_search_product_geometry():
    lie = build("s3xr")
    res = kengel_framing_search(lie, (0, 1, 0, 1), (1, 0, 0, 0),
                                R_hint=(0, 0, 0, 1))
    assert res["found"]
    assert res["Y"] == [0, 0, -1, 0]
    assert res["R"] == [0, 0, 0, 1]
    assert res["det"] != 0
    assert res["commutant_dim"] == 1


def test_framing_search_without_hint_picks_commutant_vector():
    lie = GEOMETRIES["sol_mn"]["build"]({"c": (1, 0, -1)})
    res = kengel_framing_search(lie, (1, 1, 1, 0), (0, 0, 0, 1))
    assert res["found"]
    assert res["R"] == [0, 1, 0, 0]
    assert res["det"] == -2


def test_framing_search_certificate():
    lie = GEOMETRIES["sol_mn"]["build"]({"c": (3, -1, -2)})
    res = kengel_framing_search(lie, (1, 1, 1, 0), (0, 0, 0, 1))
    assert not res["found"]
    assert res["R"] is None
    assert res["certificate"] == "commutant is trivial"


def test_framing_search_rejects_non_generating_plane():
    lie = build("s3xr")
    with pytest.raises(CatalogError, match="bracket-generate"):
        kengel_framing_search(lie, (0, 0, 0, 1), (1, 0, 0, 0))


def test_framing_search_rejects_bad_hint():
    lie = build("nil4")
    with pytest.raises(CatalogError, match="does not commute"):
        kengel_framing_search(lie, (1, 0, 0, 0), (0, 0, 0, 1),
                              R_hint=(1, 0, 0, 0))


def test_weight_triples_must_sum_to_zero():
    with pytest.raises(CatalogError, match="sum to zero"):
        GEOMETRIES["sol_mn"]["build"]({"c": (1, 1, -1)})


def test_spiral_weights_must_be_nonzero():
    with pytest.raises(CatalogError, match="nonzero"):
        GEOMETRIES["sol0"]["build"]({"a": 0, "b": 1})


def test_unknown_geometry():
    with pytest.raises(CatalogError, match="unknown geometry"):
        geometry_row("nope")


EXPECTED_TABLES = {
    "s3xr": {"c_WX": 1, "b_WT": -1, "a_XT": 1, "d_XT": 1},
    "sl2xr": {"c_WX": 1, "b_WT": 1, "a_XT": -1, "d_XT": 1},
    "nil3xr": {"c_WX": 1, "b_WT": -1, "d_XT": 1},
    "sol_mn": {"c_WX": 1, "a_XT": -1, "d_XT": 1},
    "sol1": {"c_WX": 1, "b_WT": 1, "d_XT": 1},
    "nil4": {"c_WX": 1, "d_XT": 1},
}


def test_catalog_outcome_vector(policy):
    rows = catalog_run(policy)
    assert [r["name"] for r in rows] == [
        "s3xr", "sl2xr", "nil3xr", "sol_mn", "sol_mn", "sol0", "sol1",
        "nil4"]
    assert [r["outcome"] for r in rows] == [
        "+", "+", "+", "-", "+", "-", "+", "+"]
    for row in rows:
        assert row["jacobi"]
        if row["outcome"] == "+":
            assert row["triple_ok"], row["name"]
            assert row["invariants_ok"], row["name"]
            table = rational_table(row["data"].data)
            assert table == EXPECTED_TABLES[row["name"]], row["name"]
        else:
            assert row["certificate"] == "commutant is trivial"
            assert row["commutant_dim"] == 0


def test_commutant_dimensions(policy):
    dims = {(r["name"], tuple(r["params"].get("c", ()))): r["commutant_dim"]
            for r in catalog_run(policy)}
    assert dims == {
        ("s3xr", ()): 1,
        ("sl2xr", ()): 1,
        ("nil3xr", ()): 1,
        ("sol_mn", (3, -1, -2)): 0,
        ("sol_mn", (1, 0, -1)): 1,
        ("sol0", ()): 0,
        ("sol1", ()): 1,
        ("nil4", ()): 1,
    }


def test_exported_forms_weighted_translations(policy):
    row = geometry_row("sol_mn", {"c": (1, 0, -1)}, policy)
    data = row["data"].data
    half = ex.rat(Fraction(1, 2))
    assert ex.normalize(ex.add(data.alpha.comp((0,)), half)) == ex.ZERO
    assert data.alpha.comp((1,)) == ex.ONE
    assert ex.normalize(ex.add(data.alpha.comp((2,)), half)) == ex.ZERO
    assert data.alpha.comp((3,)) == ex.ZERO


def test_exported_forms_match_nilpotent_fixture(policy, nil4):
    row = geometry_row("nil4", policy=policy)
    data = row["data"].data
    for leg in range(4):
        assert ex.normalize(ex.add(
            data.alpha.comp((leg,)),
            ex.neg(nil4.alpha.comp((leg,))))) == ex.ZERO
        assert ex.normalize(ex.add(
            data.beta.comp((leg,)),
            ex.neg(nil4.beta.comp((leg,))))) == ex.ZERO


def test_hyperbolic_splitting_keeps_unit_scales(policy):
    row = geometry_row("sol1", policy=policy)
    data = row["data"].data
    assert row["framing"]["R"] == "2*C"
    assert data.u == ex.ONE
    assert data.v == ex.ONE
    assert list(data.W.comps) == [ex.ZERO, ex.ZERO, ex.ZERO, ex.ONE]


def test_ordering_flag():
    row = geometry_row("sol_mn", {"c": (2, -1, -1)})
    assert row["ordering"] is False
    assert row["outcome"] == "-"
    assert "bracket-generate" in row["certificate"]
    row = geometry_row("sol_mn", {"c": (1, 0, -1)})
    assert row["ordering"] is True


def test_zero_position_report():
    # which position of the zero weight admits a framing, and which respects
    # the ordering c1 > c2 > c3
    report = {pos: geometry_row("sol_mn", {"c": triple})
              for pos, triple in ((1, (0, 1, -1)), (2, (1, 0, -1)),
                                  (3, (1, -1, 0)))}
    assert {pos: row["ordering"] for pos, row in report.items()} == {
        1: False, 2: True, 3: False}
    assert {pos: row["search"]["found"] for pos, row in report.items()} == {
        1: True, 2: True, 3: True}
    assert {pos: row["framing"]["R"] for pos, row in report.items()} == {
        1: "X1", 2: "X2", 3: "X3"}

