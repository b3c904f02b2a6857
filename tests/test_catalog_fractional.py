"""The catalog on fractional parameters, against a golden record.

tests/golden/catalog.txt covers integer parameters only.  This golden holds,
for fixed rows with the denominators the benchmark sweep draws (up to 6 per
weight, so up to 30 for a derived one), the `engelkit catalog` line plus the
exact values behind it: Y = [W, X], the commutant basis of {W, X, Y}, R and
det(W, X, Y, R).  Regenerate it with

    PYTHONPATH=src python3 tests/test_catalog_fractional.py

only when a change is meant to alter these values.
"""

from pathlib import Path

from engelkit.catalog import geometry_row
from engelkit.cli import catalog_table, parse_params
from engelkit.sampling import SamplingPolicy

GOLDEN = Path(__file__).resolve().parent / "golden" / "catalog_fractional.txt"

ROWS = (
    # Sol4(m,n) with one zero weight, in each position
    ("sol_mn", "c=0,1/4,-1/4"), ("sol_mn", "c=0,-7/6,7/6"),
    ("sol_mn", "c=0,5/3,-5/3"), ("sol_mn", "c=0,9/2,-9/2"),
    ("sol_mn", "c=0,-2/5,2/5"),
    ("sol_mn", "c=1/4,0,-1/4"), ("sol_mn", "c=-7/6,0,7/6"),
    ("sol_mn", "c=8/3,0,-8/3"), ("sol_mn", "c=3/2,0,-3/2"),
    ("sol_mn", "c=-9/4,0,9/4"),
    ("sol_mn", "c=7/6,-7/6,0"), ("sol_mn", "c=-1/2,1/2,0"),
    ("sol_mn", "c=4/5,-4/5,0"), ("sol_mn", "c=-5/3,5/3,0"),
    ("sol_mn", "c=9/4,-9/4,0"),
    # Sol4(m,n) with three distinct nonzero weights
    ("sol_mn", "c=5/4,2,-13/4"), ("sol_mn", "c=8/3,4/3,-4"),
    ("sol_mn", "c=1/2,1/3,-5/6"), ("sol_mn", "c=1/5,1/6,-11/30"),
    ("sol_mn", "c=-7/5,3/4,13/20"), ("sol_mn", "c=9/2,-2/3,-23/6"),
    ("sol_mn", "c=-1/6,-5/4,17/12"), ("sol_mn", "c=7/3,-9/5,-8/15"),
    ("sol_mn", "c=3/2,-1/2,-1"), ("sol_mn", "c=-4/3,5/6,1/2"),
    ("sol_mn", "c=6/5,-1/4,-19/20"), ("sol_mn", "c=2/3,-5/2,11/6"),
    ("sol_mn", "c=-9/2,7/6,10/3"), ("sol_mn", "c=1/4,1/6,-5/12"),
    ("sol_mn", "c=-8/5,-7/6,83/30"),
    # two equal weights: the plane does not bracket-generate
    ("sol_mn", "c=1/2,1/2,-1"), ("sol_mn", "c=-2/3,4/3,-2/3"),
    # Sol0 pairs
    ("sol0", "a=7 b=1/5"), ("sol0", "a=-3/2 b=5/6"),
    ("sol0", "a=1/3 b=-1/4"), ("sol0", "a=-9/5 b=-2/3"),
    ("sol0", "a=5/6 b=7"), ("sol0", "a=4/3 b=4/3"),
    ("sol0", "a=-1/6 b=9/2"), ("sol0", "a=8/5 b=-3"),
    ("sol0", "a=2/3 b=1/6"), ("sol0", "a=-7/4 b=-1/5"),
)


def _vec(vec):
    return "[" + ", ".join(str(c) for c in vec) + "]"


def render():
    """The golden text: per row, its table line and its exact values."""
    policy = SamplingPolicy(seed=0, n_samples=64)
    out = []
    for name, params in ROWS:
        row = geometry_row(name, parse_params(params.split()), policy)
        out.append(catalog_table([row]).splitlines()[1])
        search = row.get("search")
        if search is None:
            continue
        basis = ", ".join(_vec(v) for v in search["commutant"])
        out.append(f"  Y = {_vec(search['Y'])}  commutant = [{basis}]")
        R = _vec(search["R"]) if search["found"] else "-"
        out.append(f"  R = {R}  det = {search['det']}")
    return "\n".join(out) + "\n"


def test_fractional_rows_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
