"""Command-line front end.

Subcommands: verify (structural suites), sweep (depth growth of one
inequality), constants (testing-constant table of a measure), and
decompose (stopping-time families as JSON).  Exit code 0 means every
exact check and every sweep threshold passed; 1 means a check failed;
2 means the run itself could not be carried out.

The sweep report path writes the CSV, a JSON twin with witnesses, and a
PNG figure next to them (suppressed by --no-plot); an --out that names
one of those twins is refused before the sweep runs.  Figures are side
artifacts: they never influence report bytes or exit codes; a figure
that cannot be written is reported on stderr and skipped.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import figures
from .errors import BadKind, IoFailure, LabError, ShapeMismatch
from .grid import (
    LeafField,
    LeafMeasure,
    aggregate,
    cube_doc,
    doc_value,
    ingest,
    read_input,
    read_json,
)
from .norms import ExponentProfile
from .operators import KernelWeight
from .constants import (
    a0_constant,
    adams_constant,
    ap_characteristic,
    cq_constant,
    ks_testing_constant,
)
from .decompositions import build_principal_cubes, build_sparse_family, stopping_parent
from .harness import ExperimentSpec, sweep, verify_suite
from .report import canonical_json, constants_csv, sweep_csv, write_json, write_text
from .registry import registry_ids


def _parse_ints(text: str) -> tuple[int, ...]:
    """Accepts "2..7" ranges and "1,2" lists."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 2..7 or 1,2, got {text!r}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _emit_json(doc, out: str | None) -> None:
    if out:
        write_json(out, doc)
    else:
        sys.stdout.write(canonical_json(doc))


def _sweep_paths(out: str, plot: bool) -> tuple[str, str | None]:
    """The JSON path and, when plotting, the PNG path a sweep writes next
    to its CSV at `out`; refused with IoFailure where one of them is `out`."""
    stem = os.path.splitext(out)[0]
    json_path, png_path = stem + ".json", (stem + ".png" if plot else None)
    for path in (json_path, png_path):
        if path is not None and os.path.normcase(path) == os.path.normcase(out):
            raise IoFailure(
                f"--out {out} is also the path of the sweep's {path[len(stem) + 1:].upper()} "
                "file; give the CSV another name"
            )
    return json_path, png_path


def _cmd_verify(args) -> int:
    report = verify_suite(
        args.suite, dim=args.dim, depth=args.depth, trials=args.trials, seed=args.seed
    )
    _emit_json(report, args.out)
    return 0 if report["passed"] else 1


def _cmd_sweep(args) -> int:
    json_path, png_path = _sweep_paths(args.out, not args.no_plot) if args.out else (None, None)
    profile = None
    if args.profile is not None:
        profile = ExponentProfile.from_doc(read_json(args.profile))
    spec = ExperimentSpec(
        inequality=args.ineq,
        dims=args.dims,
        depths=args.depths,
        trials=args.trials,
        seed=args.seed,
        m=args.m,
        profile=profile,
    )
    report = sweep(spec)
    if args.out:
        write_text(args.out, sweep_csv(report))
        write_json(json_path, report.to_doc())
        if png_path is not None:
            try:
                figures.render_sweep_figure(report, png_path)
            except LabError as exc:
                print(f"dtl: figure skipped: {type(exc).__name__}: {exc}", file=sys.stderr)
    else:
        sys.stdout.write(sweep_csv(report))
    return 0 if report.passed else 1


def _cmd_constants(args) -> int:
    measure = read_input(args.measure)
    profile = ExponentProfile.from_doc(read_json(args.profile))
    root = measure.root
    if profile.n != root.dim:
        profile = profile.with_dim(root.dim)
    muagg = aggregate(measure)
    reports = []
    gamma = root.dim - profile.beta * profile.p
    reports.append(adams_constant(muagg, gamma))
    reports.append(a0_constant(measure, profile, "weight-a"))
    if measure.kind == "density" and profile.r is not None:
        reports.append(a0_constant(measure, profile, "bump-b"))
    if profile.p > 1:
        reports.append(ks_testing_constant(muagg, profile.beta, profile.p))
        if muagg.total > 0:
            kernel = KernelWeight.canonical(profile.alpha, profile.m, root.dim)
            reports.append(
                cq_constant(muagg, kernel, profile.p, root.root_cube(), mode="greedy")
            )
    if measure.kind == "density":
        reports.append(
            ap_characteristic(LeafField(root, measure.density), "infinity")
        )
    if args.format == "csv":
        _emit(constants_csv(reports), args.out)
    else:
        doc = {
            "kind": "constants",
            "profile": profile.to_doc(),
            "rows": [
                {
                    "name": rep.name,
                    "value": rep.value,
                    "mode": rep.mode,
                    "witness": cube_doc(rep.witness),
                    "params": {
                        k: v
                        for k, v in rep.params.items()
                        if isinstance(v, (int, float, str, bool, type(None)))
                    },
                }
                for rep in reports
            ],
        }
        _emit_json(doc, args.out)
    return 0


def _ingest_as(doc, cls: type, where: str):
    """ingest(doc), refused with BadKind unless it is a `cls`."""
    data = ingest(doc)
    if not isinstance(data, cls):
        want = "field" if cls is LeafField else "measure"
        raise BadKind(f"{where} must be a {want}, got kind {doc['kind']!r}")
    return data


def _cmd_decompose(args) -> int:
    doc = read_json(args.input)
    if args.what == "sparse":
        if isinstance(doc, dict) and "fields" in doc:
            fields = [
                _ingest_as(d, LeafField, "input document key 'fields'")
                for d in doc_value(doc, "fields", list)
            ]
        else:
            fields = [_ingest_as(doc, LeafField, "input document")]
        if not fields:
            raise ShapeMismatch("input document has an empty 'fields' list")
        root = fields[0].root
        fam = build_sparse_family([aggregate(f) for f in fields], root.root_cube())
        out = {
            "kind": "sparse-family",
            "dim": root.dim,
            "depth": root.depth,
            "base": cube_doc(fam.base),
            "cubes": [cube_doc(c) for c in fam.cubes],
            "is_sparse": fam.certificate.is_sparse,
            "carleson": fam.carleson,
            "exceptional_leaves": {
                "%d:%s" % (c.level, ",".join(str(i) for i in c.index)): [
                    int(v) for v in fam.certificate.e_leaves[c]
                ]
                for c in fam.cubes
            },
        }
    else:
        if isinstance(doc, dict) and "field" in doc:
            h = _ingest_as(doc["field"], LeafField, "input document key 'field'")
            nu = None
            if doc.get("measure") is not None:
                nu = _ingest_as(doc["measure"], LeafMeasure, "input document key 'measure'")
        else:
            h = _ingest_as(doc, LeafField, "input document")
            nu = None
        root = h.root
        forest = build_principal_cubes(h, nu, root.root_cube())
        out = {
            "kind": "corona-forest",
            "pair": forest.pair,
            "dim": root.dim,
            "depth": root.depth,
            "base": cube_doc(forest.base),
            "members": [
                {
                    "cube": cube_doc(member),
                    "generation": forest.generation[member],
                    "parent": cube_doc(
                        None if member == forest.base else stopping_parent(forest, member.parent())
                    ),
                    "children": [cube_doc(k) for k in forest.children[member]],
                    "average": forest.averages[member],
                    "exceptional_leaves": [
                        int(v) for v in forest.exceptional_leaves(member)
                    ],
                }
                for member in forest.members
            ],
        }
    _emit_json(out, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dtl", description="dyadic trace-inequality lab"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a structural check suite")
    v.add_argument(
        "--suite",
        default="all",
        choices=("exact", "sparse", "corona", "constants", "all"),
    )
    v.add_argument("--dim", type=int, default=1)
    v.add_argument("--depth", type=int, default=3)
    v.add_argument("--trials", type=int, default=20)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("sweep", help="depth sweep of one inequality")
    s.add_argument("--ineq", required=True, choices=registry_ids())
    s.add_argument("--dims", type=_parse_ints, default="1")
    s.add_argument("--depths", type=_parse_ints, default="2..4")
    s.add_argument("--trials", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--m", type=int, default=2)
    s.add_argument("--profile", default=None)
    s.add_argument("--out", default=None)
    s.add_argument("--no-plot", action="store_true")
    s.set_defaults(fn=_cmd_sweep)

    c = sub.add_parser("constants", help="testing constants of a measure")
    c.add_argument("--measure", required=True)
    c.add_argument("--profile", required=True)
    c.add_argument("--format", default="json", choices=("json", "csv"))
    c.add_argument("--out", default=None)
    c.set_defaults(fn=_cmd_constants)

    d = sub.add_parser("decompose", help="stopping-time decompositions")
    d.add_argument("what", choices=("sparse", "corona"))
    d.add_argument("--input", required=True)
    d.add_argument("--out", default=None)
    d.set_defaults(fn=_cmd_decompose)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LabError as exc:
        print(f"dtl: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
