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
import os
import statistics
import sys
from pathlib import Path

from . import __version__, pipeline, report, roles, stats, synth
from .model import (Dataset, TeamRoster, json_text, load_dataset, validate_dataset,
                    write_dataset, write_text)
# build_contingency, role_transitions and unpaired_students stay for bench/tracing.py
from .roles import Thresholds, build_contingency, role_transitions, unpaired_students


def _default_out() -> str:
    return os.environ.get("COLLABNET_OUT", "collabnet_out")


def _add_out_option(parser: argparse.ArgumentParser):
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (default: $COLLABNET_OUT or ./collabnet_out)")


def _add_data_options(parser: argparse.ArgumentParser):
    parser.add_argument("--data", required=True,
                        help="dataset.json file or directory with the three CSVs")
    _add_out_option(parser)
    parser.add_argument("--tails", choices=("one", "two"), default=None,
                        help="tail convention (defaults: one-sided Mann-Whitney,"
                             " two-sided Barnard)")


def _add_cut_options(parser: argparse.ArgumentParser):
    cuts, group = roles.DEFAULT_THRESHOLDS, parser.add_argument_group("role cuts")
    group.add_argument("--quantity-cut", type=float, default=cuts.quantity_cut,
                       help="quantity classification cut in (0,1), default %(default)s")
    group.add_argument("--heterogeneity-cut", type=float, default=cuts.heterogeneity_cut,
                       help="heterogeneity classification cut in (0,1), default %(default)s")


def _add_mwu_options(parser: argparse.ArgumentParser):
    group = parser.add_argument_group("Mann-Whitney test")
    group.add_argument("--continuity", dest="continuity_correction", action="store_true",
                       help="apply the 0.5 continuity correction to the normal score")
    group.add_argument("--exact-mwu", dest="mwu_method", action="store_const", const="exact",
                       default="normal", help="use the exact Mann-Whitney null distribution")


def _add_barnard_option(parser: argparse.ArgumentParser):
    parser.add_argument_group("Barnard's test").add_argument(
        "--barnard-grid", type=float, default=stats.DEFAULT_GRID_RESOLUTION, metavar="STEP",
        help="nuisance grid step for Barnard's test, default 1e-4")


def _stats_options(args) -> pipeline.StatsOptions:
    """StatsOptions set by the options the subcommand has; their dests are field names."""
    given = {f.name: getattr(args, f.name)
             for f in dataclasses.fields(pipeline.StatsOptions) if hasattr(args, f.name)}
    if args.tails:
        given.update(mwu_tails=args.tails, barnard_tails=args.tails)
    return pipeline.StatsOptions(**given)


def _out_dir(args) -> Path:
    out = Path(args.out if args.out is not None else _default_out())
    out.mkdir(parents=True, exist_ok=True)
    return out


_ID_ESCAPES = str.maketrans({"%": "%25", "/": "%2F", "\\": "%5C"})


def _file_name(kind: str, ext: str, *ids: str) -> str:
    """Output file name from input ids; %, / and \\ are percent-encoded, so each
    id stays one name inside the output directory."""
    return "_".join([kind, *(i.translate(_ID_ESCAPES) for i in ids)]) + ext


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
    dataset = load_dataset(args.data)
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
    thresholds = Thresholds(args.quantity_cut, args.heterogeneity_cut)
    options = _stats_options(args)
    # Every DOT name is fixed before anything is written. Ids are joined with
    # "_", which they may contain, so two teams can share a name; the kinds
    # have their own prefixes, and a one-project chart cannot take a
    # two-project name.
    dot_names: dict[str, TeamRoster] = {}
    for roster in dataset.rosters:
        name = _file_name("network", ".dot", roster.project_id, roster.team_id)
        if name in dot_names:
            first = dot_names[name]
            print(f"error: project {first.project_id!r} team {first.team_id!r} and"
                  f" project {roster.project_id!r} team {roster.team_id!r}"
                  f" would both be written to {name}", file=sys.stderr)
            return 1
        dot_names[name] = roster
    bundle = pipeline.run_analysis(dataset, thresholds, options,
                                   input_digests=_input_digests(args.data))
    out = _out_dir(args)

    report.write_report_json(bundle, out / "report.json")
    nets = pipeline.team_networks(dataset)
    subtasks = {pid: report.dot_subtasks(spec) for pid, spec in dataset.projects.items()}
    for name, roster in dot_names.items():
        write_text(out / name, report.export_network_dot(
            nets[(roster.project_id, roster.team_id)], roster.leader, subtasks[roster.project_id]))
    for pid, profiles in bundle.profiles.items():
        if profiles:
            write_text(out / _file_name("quadrant", ".svg", pid),
                       report.export_quadrant_svg(profiles, thresholds))
    if len(bundle.profiles) == 2 and all(bundle.profiles.values()):
        write_text(out / _file_name("quadrant", ".svg", *bundle.profiles),
                   report.export_quadrant_svg(
                       [p for profiles in bundle.profiles.values() for p in profiles],
                       thresholds))

    _print_role_table(bundle.profiles)
    print(f"\nreport written to {out / 'report.json'}")
    return 0


def cmd_stats(args) -> int:
    dataset = _load_valid(args, args.project)
    if dataset is None:
        return 1
    profiles = pipeline.project_profiles(dataset)[args.project]
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
    target = write_text(out / _file_name("mwu", ".json", args.project, args.measure),
                        json_text(result.to_dict()))
    print(f"result written to {target}")
    return 0


def cmd_transitions(args) -> int:
    dataset = _load_valid(args, args.project_a, args.project_b)
    if dataset is None:
        return 1
    thresholds = Thresholds(args.quantity_cut, args.heterogeneity_cut)
    profiles = pipeline.project_profiles(dataset, thresholds)
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
    print("    [{:3d} {:3d}]\n    [{:3d} {:3d}]".format(*table.cells()))
    print(f"  leadership changes = {table.leadership_changes},"
          f" role changes = {table.role_changes}, n = {table.n}")
    doc: dict = {
        "from": args.project_a,
        "to": args.project_b,
        "contingency": dict(vars(table)),
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
    target = write_text(out / _file_name("transitions", ".json", args.project_a, args.project_b),
                        json_text(doc))
    print(f"result written to {target}")
    return 0


def cmd_synth(args) -> int:
    cohort = synth.load_cohort_spec(args.spec)
    if args.seed is not None:
        cohort = dataclasses.replace(cohort, seed=args.seed)
    dataset = synth.generate_cohort(cohort)
    out = _out_dir(args)
    written = write_dataset(dataset, out, fmt=args.format)
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

    p = sub.add_parser("analyze", help="run the full pipeline and write all reports")
    for add in (_add_data_options, _add_cut_options, _add_mwu_options, _add_barnard_option):
        add(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("stats", help="leader vs non-leader Mann-Whitney U test")
    for add in (_add_data_options, _add_mwu_options):
        add(p)
    p.add_argument("--project", required=True, help="project id to test")
    p.add_argument("--measure", required=True, choices=("quantity", "heterogeneity"))
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("transitions", help="role transitions and Barnard's test")
    for add in (_add_data_options, _add_cut_options, _add_barnard_option):
        add(p)
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
