"""Command-line entry point.

Subcommands:
  analyze      full pipeline: role table, report.json, DOT and SVG exports
  stats        leader vs non-leader Mann-Whitney U on one measure
  transitions  role/leadership transition table and Barnard's test
  synth        generate a synthetic cohort from a planted-role spec file

Exit codes: 0 success, 1 data or validation problem, 2 environment or I/O
problem. The output directory defaults to $COLLABNET_OUT, then ./collabnet_out.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import statistics
import sys
from pathlib import Path

from . import __version__, pipeline, report, stats, synth
from .model import Dataset, load_dataset, validate_dataset, write_dataset
# build_contingency, role_transitions and unpaired_students stay for bench/tracing.py
from .roles import Thresholds, build_contingency, role_transitions, unpaired_students


def _default_out() -> str:
    return os.environ.get("COLLABNET_OUT", "collabnet_out")


def _add_out_option(parser: argparse.ArgumentParser):
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (default: $COLLABNET_OUT or ./collabnet_out)")


def _analysis_options() -> argparse.ArgumentParser:
    """Parent parser with the options analyze, stats and transitions share."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", required=True,
                        help="dataset.json file or directory with the three CSVs")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="input format (default: inferred from --data)")
    _add_out_option(common)
    common.add_argument("--quantity-cut", type=float, default=0.5,
                        help="quantity classification cut in (0,1), default 0.5")
    common.add_argument("--heterogeneity-cut", type=float, default=0.5,
                        help="heterogeneity classification cut in (0,1), default 0.5")
    common.add_argument("--tails", choices=("one", "two"), default=None,
                        help="tail convention (defaults: one-sided Mann-Whitney,"
                             " two-sided Barnard)")
    common.add_argument("--continuity", action="store_true",
                        help="apply the 0.5 continuity correction to the normal score")
    common.add_argument("--exact-mwu", action="store_true",
                        help="use the exact Mann-Whitney null distribution")
    common.add_argument("--barnard-grid", type=float,
                        default=stats.DEFAULT_GRID_RESOLUTION, metavar="STEP",
                        help="nuisance grid step for Barnard's test, default 1e-4")
    return common


def _thresholds(args) -> Thresholds:
    return Thresholds(quantity_cut=args.quantity_cut,
                      heterogeneity_cut=args.heterogeneity_cut)


def _stats_options(args) -> pipeline.StatsOptions:
    opts = pipeline.StatsOptions(
        mwu_method="exact" if args.exact_mwu else "normal",
        continuity_correction=args.continuity,
        barnard_grid=args.barnard_grid,
    )
    if args.tails:
        opts = dataclasses.replace(opts, mwu_tails=args.tails, barnard_tails=args.tails)
    return opts


def _out_dir(args) -> Path:
    out = Path(args.out if args.out is not None else _default_out())
    out.mkdir(parents=True, exist_ok=True)
    return out


def _input_digests(data_path: str) -> dict[str, str]:
    path = Path(data_path)
    files = ([path] if path.is_file()
             else [path / name for name in ("subtasks.csv", "teams.csv", "interactions.csv")])
    digests = {}
    for f in files:
        if f.is_file():
            digests[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    return digests


def _load_valid(args, *project_ids: str) -> Dataset | None:
    """Load and validate --data and check the project ids; print any problem, return None."""
    dataset = load_dataset(args.data, args.format)
    violations = validate_dataset(dataset)
    for v in violations:
        print(f"violation[{v.kind}]: {v.message}", file=sys.stderr)
    if violations:
        return None
    for pid in project_ids:
        if pid not in dataset.projects:
            print(f"error: unknown project {pid!r};"
                  f" known projects: {', '.join(dataset.project_ids())}", file=sys.stderr)
            return None
    return dataset


def _print_role_table(profiles_by_project):
    rows = [("project", "team", "student", "leader", "quantity", "heterogeneity", "role")]
    for pid in sorted(profiles_by_project):
        for p in profiles_by_project[pid]:
            rows.append((pid, p.team_id, p.student_id,
                         "yes" if p.is_assigned_leader else "",
                         f"{p.quantity:.4f}", f"{p.heterogeneity:.4f}",
                         p.role.describe()))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def cmd_analyze(args) -> int:
    dataset = _load_valid(args)
    if dataset is None:
        return 1
    thresholds = _thresholds(args)
    options = _stats_options(args)
    bundle = pipeline.run_analysis(dataset, thresholds, options,
                                   input_digests=_input_digests(args.data))
    out = _out_dir(args)

    report.write_report_json(bundle, out / "report.json")
    team_profiles: dict[tuple[str, str], list] = {}
    for pid, profiles in bundle.profiles.items():
        for p in profiles:
            team_profiles.setdefault((pid, p.team_id), []).append(p)
    nets = pipeline.team_networks(dataset)
    for (pid, team_id), net in sorted(nets.items()):
        spec = dataset.projects[pid]
        dot = report.export_network_dot(net, team_profiles[(pid, team_id)], spec)
        (out / f"network_{pid}_{team_id}.dot").write_text(dot, encoding="utf-8")
    for pid in sorted(bundle.profiles):
        svg = report.export_quadrant_svg(bundle.profiles[pid], thresholds)
        (out / f"quadrant_{pid}.svg").write_text(svg, encoding="utf-8")
    pids = sorted(bundle.profiles)
    if len(pids) == 2:
        combined = [p for pid in pids for p in bundle.profiles[pid]]
        svg = report.export_quadrant_svg(combined, thresholds)
        (out / f"quadrant_{pids[0]}_{pids[1]}.svg").write_text(svg, encoding="utf-8")

    _print_role_table(bundle.profiles)
    print(f"\nreport written to {out / 'report.json'}")
    return 0


def cmd_stats(args) -> int:
    dataset = _load_valid(args, args.project)
    if dataset is None:
        return 1
    profiles = pipeline.project_profiles(dataset, _thresholds(args))[args.project]
    leaders, others = pipeline.leader_split(profiles, args.measure)
    if not leaders or not others:
        print(f"error: leader-vs-nonleader grouping needs both groups nonempty in"
              f" project {args.project!r} (leaders: {len(leaders)},"
              f" non-leaders: {len(others)})", file=sys.stderr)
        return 1
    result = _stats_options(args).mann_whitney(leaders, others)
    print(f"Mann-Whitney U, {args.measure}, project {args.project},"
          f" leaders (n={len(leaders)}) vs non-leaders (n={len(others)})")
    print(f"  median leaders     = {statistics.median(leaders):.4f}")
    print(f"  median non-leaders = {statistics.median(others):.4f}")
    print(f"  U = {result.u:g}")
    print(f"  Z = {result.z:.4f}")
    print(f"  p (one-sided) = {result.p_one_sided:.6g}")
    print(f"  p (two-sided) = {result.p_two_sided:.6g}")
    print(f"  r = {result.r:.4f}")
    print(f"  method = {result.method}, continuity_correction ="
          f" {result.continuity_correction}")
    out = _out_dir(args)
    target = out / f"mwu_{args.project}_{args.measure}.json"
    target.write_text(json.dumps(result.to_dict(), indent=2) + "\n", encoding="utf-8")
    print(f"result written to {target}")
    return 0


def cmd_transitions(args) -> int:
    dataset = _load_valid(args, args.project_a, args.project_b)
    if dataset is None:
        return 1
    profiles = pipeline.project_profiles(dataset, _thresholds(args))
    comparison = pipeline.compare_projects(
        profiles[args.project_a], profiles[args.project_b], _stats_options(args))
    table = comparison.contingency

    print(f"transitions {args.project_a} -> {args.project_b}:"
          f" {len(comparison.pairs)} students paired")
    if comparison.dropouts:
        print(f"  dropouts (only in {args.project_a}): {', '.join(comparison.dropouts)}")
    if comparison.joiners:
        print(f"  joiners (only in {args.project_b}): {', '.join(comparison.joiners)}")
    print("  contingency (rows: leadership changed/unchanged,"
          " columns: role changed/unchanged):")
    print(f"    [{table.a:3d} {table.b:3d}]")
    print(f"    [{table.c:3d} {table.d:3d}]")
    print(f"  leadership changes = {table.leadership_changes},"
          f" role changes = {table.role_changes}, n = {table.n}")
    doc: dict = {
        "from": args.project_a,
        "to": args.project_b,
        "contingency": {"a": table.a, "b": table.b, "c": table.c, "d": table.d},
        "dropouts": list(comparison.dropouts),
        "joiners": list(comparison.joiners),
    }
    result = comparison.barnard
    if result is not None:
        print(f"  Barnard T = {result.t:.4f}")
        print(f"  p (one-sided) = {result.p_one_sided:.6g}")
        print(f"  p (two-sided) = {result.p_two_sided:.6g}")
        print(f"  nuisance argmax = {result.nuisance_argmax:.6f}"
              f" (grid step {result.grid_resolution:g})")
        doc["barnard"] = result.to_dict()
    else:
        print("  Barnard's test skipped: a contingency row sum is zero")
    out = _out_dir(args)
    target = out / f"transitions_{args.project_a}_{args.project_b}.json"
    target.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"result written to {target}")
    return 0


def cmd_synth(args) -> int:
    cohort = synth.load_cohort_spec(args.spec)
    if args.seed is not None:
        cohort = dataclasses.replace(cohort, seed=args.seed)
    dataset = synth.generate_cohort(cohort)
    out = _out_dir(args)
    written = write_dataset(dataset, out, fmt=args.format or "csv")
    profiles = pipeline.project_profiles(dataset)
    _print_role_table(profiles)
    n_students = cohort.groups * cohort.group_size
    print(f"\ngenerated {n_students} students in {cohort.groups} teams"
          f" (seed {cohort.seed})")
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collabnet",
        description="Collaboration analytics over student-subtask interaction logs.",
    )
    parser.add_argument("--version", action="version", version=f"collabnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = _analysis_options()
    p = sub.add_parser("analyze", parents=[common],
                       help="run the full pipeline and write all reports")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("stats", parents=[common],
                       help="leader vs non-leader Mann-Whitney U test")
    p.add_argument("--project", required=True, help="project id to test")
    p.add_argument("--measure", required=True, choices=("quantity", "heterogeneity"))
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("transitions", parents=[common],
                       help="role transitions and Barnard's test")
    p.add_argument("project_a", help="earlier project id")
    p.add_argument("project_b", help="later project id")
    p.set_defaults(func=cmd_transitions)

    p = sub.add_parser("synth", help="generate a synthetic cohort with planted roles")
    p.add_argument("--spec", required=True, help="planted-cohort spec (JSON)")
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output dataset format, default csv")
    _add_out_option(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
