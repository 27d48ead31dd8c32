"""Command line front end.

Subcommands:
  check <fixture> [--report out.json]       run the invariant suite
  study <family-dir> --f NAME --q {1,2,inf} [--s LIST] [--csv out.csv]
                                            convergence study over a family
  dump-mesh <fixture> --out cells.json      active cells as level-tagged boxes

Exit codes: 0 all good, 1 invariant failure, 2 input or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import HierSplineError
from .fixtures import dump_active_cells, load_fixture
from .hierarchy import build_hierarchical_basis, build_refinable_basis, compute_weights
from .invariants import run_invariant_suite
from .quasiinterp import OperatorConfig
from .study import load_family, run_convergence_study, write_report


def _config(args) -> OperatorConfig:
    return OperatorConfig(quad_increment=args.quad_increment,
                          error_quad_increment=args.error_quad_increment,
                          sup_samples_per_cell=args.sup_samples)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiersplines",
        description="Hierarchical B-spline invariant checks and convergence studies")
    sub = parser.add_subparsers(dest="command", required=True)

    def quad_flags(p):
        p.add_argument("--quad-increment", type=int, default=0,
                       help="extra Gauss points per direction for the dual "
                            "functionals")
        p.add_argument("--error-quad-increment", type=int, default=2,
                       help="extra Gauss points per direction for error "
                            "integrals")
        p.add_argument("--sup-samples", type=int, default=1000,
                       help="sample budget per cell for sup norms")

    p_check = sub.add_parser("check", help="run the invariant suite on a fixture")
    p_check.add_argument("fixture", type=Path)
    p_check.add_argument("--report", type=Path, default=None,
                         help="write a JSON report here")
    quad_flags(p_check)

    p_study = sub.add_parser("study", help="convergence study over a fixture family")
    p_study.add_argument("family", type=Path,
                         help="directory of fixture files, ordered by name")
    p_study.add_argument("--f", dest="function", required=True,
                         help="catalog function: sin, gauss or poly")
    p_study.add_argument("--q", dest="q", default="2", choices=["1", "2", "inf"])
    p_study.add_argument("--s", dest="smoothness", default=None,
                         help="comma list of per-direction derivative orders")
    p_study.add_argument("--csv", type=Path, default=None)
    p_study.add_argument("--report", type=Path, default=None,
                         help="write the full JSON report here")
    quad_flags(p_study)

    p_dump = sub.add_parser("dump-mesh", help="dump active cells for plotting")
    p_dump.add_argument("fixture", type=Path)
    p_dump.add_argument("--out", type=Path, required=True)
    return parser


def _cmd_check(args) -> int:
    fixture = load_fixture(args.fixture)
    report = run_invariant_suite(fixture, config=_config(args))
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        extra = f" ({r.detail})" if r.detail else ""
        print(f"{status} {r.name}: {r.count} checks, "
              f"worst residual {r.worst:.3e}{extra}")
    c = report.counts
    print(f"fixture {report.fixture}: {c['active_classical']} classical / "
          f"{c['active_refinable']} refinable active functions, "
          f"{c['zero_weight']} zero-weight, {c['active_cells']} active cells")
    if args.report:
        args.report.write_text(json.dumps(report.to_dict(), indent=2) + "\n",
                               encoding="utf-8")
    return 0 if report.passed else 1


def _cmd_study(args) -> int:
    fixtures = load_family(args.family)
    q = math.inf if args.q == "inf" else int(args.q)
    smoothness = None
    if args.smoothness:
        try:
            smoothness = [int(s) for s in args.smoothness.split(",")]
        except ValueError:
            raise HierSplineError(
                f"--s must be a comma list of integers, got {args.smoothness!r}") from None
    report = run_convergence_study(fixtures, args.function, q, smoothness,
                                   config=_config(args))
    write_report(report, json_path=args.report, csv_path=args.csv)
    if not args.csv:
        sys.stdout.write(report.csv_text())
    else:
        print(f"wrote {args.csv}")
    if args.report:
        print(f"wrote {args.report}")
    return 0


def _cmd_dump(args) -> int:
    fixture = load_fixture(args.fixture)
    weights = compute_weights(fixture.hierarchy, fixture.levels)
    classical, mesh = build_hierarchical_basis(fixture.hierarchy,
                                               fixture.levels, weights)
    refinable = build_refinable_basis(fixture.hierarchy, fixture.levels, weights)
    payload = dump_active_cells(mesh, bases=(classical, refinable))
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out} ({mesh.cell_count()} cells, "
          f"{len(classical)} active functions)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "study":
            return _cmd_study(args)
        return _cmd_dump(args)
    except (HierSplineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
