"""Command-line front end: manifest runs and the geometry catalog.

`engelkit run MANIFEST` executes every task in the manifest and exits 0
exactly when each declared expectation matched (1 on mismatches, 2 on
parse or reference errors).  `engelkit catalog` prints the geometry table
and can emit any single geometry as a manifest that re-verifies under
`run`.  Each subcommand imports what it uses only when it runs.
"""

import argparse
import sys
from fractions import Fraction

from .frames import fmt_form
from .sampling import SamplingPolicy


def parse_params(tokens):
    from .catalog import CatalogError
    out = {}
    for token in tokens or ():
        if "=" not in token:
            raise CatalogError(f"bad parameter {token!r}; expected k=v")
        key, value = token.split("=", 1)
        parts = value.split(",")
        try:
            if len(parts) == 1:
                out[key] = Fraction(parts[0])
            else:
                out[key] = tuple(Fraction(p) for p in parts)
        except (ValueError, ZeroDivisionError):
            raise CatalogError(f"parameter {token!r} is not rational")
    return out


def catalog_table(rows):
    from .catalog import fmt_params
    lines = [f"{'geometry':10s} {'params':12s} {'jacobi':6s} "
             f"{'outcome':7s} detail"]
    for row in rows:
        if row["outcome"] == "+":
            fr = row["framing"]
            detail = (f"W = {fr['W']}, X = {fr['X']}, Y = {fr['Y']}, "
                      f"R = {fr['R']}")
            if not row["triple_ok"] or not row["invariants_ok"]:
                detail += "  [verification FAILED]"
        else:
            detail = row.get("certificate", "")
        params = fmt_params(row["params"]) or "-"
        lines.append(f"{row['name']:10s} {params:12s} "
                     f"{'ok' if row['jacobi'] else 'FAIL':6s} "
                     f"{row['outcome']:7s} {detail}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# emitting a geometry as a runnable manifest

def _bracket_lines(lie):
    out = []
    for (i, j), vec in sorted(lie.structure.items()):
        out.append(f"bracket {lie.names[i]} {lie.names[j]} = "
                   f"{_vec_line(vec)}")
    return out


def _vec_line(vec):
    return "; ".join(str(c) for c in vec)


def geometry_manifest(row):
    """A manifest reproducing a `geometry_row` row, runnable with exit 0."""
    from .catalog import CatalogError, GEOMETRIES, fmt_params
    from .manifest import HEADER
    if not row["jacobi"]:
        raise CatalogError(f"geometry {row['name']!r} fails the Jacobi "
                           f"identity")
    entry = GEOMETRIES[row["name"]]
    lie = entry["build"](row["params"])
    lines = [HEADER, f"# catalog geometry: {row['label']}"]
    if row["params"]:
        lines.append(f"# params: {fmt_params(row['params'])}")
    lines += ["", "[space]"]
    lines += [f"lie {n}" for n in lie.names]
    lines += _bracket_lines(lie)
    lines += ["", "[field W]", f"comps = {_vec_line(entry['W'])}",
              "", "[field X]", f"comps = {_vec_line(entry['X'])}"]
    if row["outcome"] != "+":
        lines += ["", "[task search]", "op = framing", "W = W", "X = X",
                  "expect = framing_none",
                  "", "[task commutes]", "op = commutant", "set = W X",
                  "expect = commutant_dim 0"]
        return "\n".join(lines) + "\n"
    data = row["data"].data
    lines += ["", "[field R]",
              f"comps = {_vec_line(row['search']['R'])}",
              "", "[form alpha]", f"comps = {fmt_form(data.alpha)}",
              "", "[form beta]", f"comps = {fmt_form(data.beta)}",
              "", "[task search]", "op = framing", "W = W", "X = X",
              "R = R", "expect = framing_found",
              "", "[task structure]", "op = engel", "alpha = alpha",
              "beta = beta", "W = W", "X = X", "expect = engel_pass",
              "", "[task identities]", "op = identities",
              "data = structure", "expect = identities_pass",
              "", "[task triple]", "op = kengel", "data = structure",
              "Z = R", "expect = kengel_pass",
              "", "[task invariants]", "op = kinvariants",
              "data = structure", "expect = invariants_pass"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def cmd_run(args):
    from .manifest import ManifestError, load_manifest
    from .report import run_manifest
    try:
        mf = load_manifest(args.manifest)
    except ManifestError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    policy = SamplingPolicy(seed=args.seed, n_samples=args.samples,
                            abs_tol=args.tol)
    report = run_manifest(mf, policy)
    if report.reference_error is not None:
        print(f"error: {report.reference_error}", file=sys.stderr)
        return 2
    sys.stdout.write(report.human_text())
    if args.machine_out:
        with open(args.machine_out, "w", encoding="utf-8") as fh:
            fh.write(report.machine_text())
    return report.exit_code


def cmd_catalog(args):
    from .catalog import CatalogError, catalog_run, geometry_row
    try:
        params = parse_params(args.params)
        if args.geometry is not None:
            rows = [geometry_row(args.geometry, params or None)]
        else:
            if params:
                raise CatalogError("--params needs --geometry")
            rows = catalog_run()
        if args.emit_manifest:
            if args.geometry is None:
                raise CatalogError("--emit-manifest needs --geometry")
            text = geometry_manifest(rows[0])
            with open(args.emit_manifest, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {args.emit_manifest}")
            return 0
    except CatalogError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(catalog_table(rows))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="engelkit",
        description="plane-field verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a manifest's tasks")
    p_run.add_argument("manifest")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--samples", type=int, default=64)
    p_run.add_argument("--tol", type=float, default=1e-9)
    p_run.add_argument("--machine-out", default=None,
                       help="write the machine-readable report here")
    p_run.set_defaults(func=cmd_run)

    p_cat = sub.add_parser("catalog", help="geometry catalog table")
    p_cat.add_argument("--geometry", default=None, metavar="NAME",
                       help="restrict the table to one geometry")
    p_cat.add_argument("--params", nargs="*", default=None,
                       help="parameter bindings, e.g. c=1,0,-1")
    p_cat.add_argument("--emit-manifest", default=None, metavar="FILE",
                       help="write the geometry as a runnable manifest")
    p_cat.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and not (args.samples > 0 and args.tol > 0):
        parser.error("--samples and --tol must be positive")
    if args.command == "run" and args.seed < 0:
        parser.error("--seed must be non-negative")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
