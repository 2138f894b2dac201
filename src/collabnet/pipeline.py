"""Orchestration from a validated dataset to a full report bundle."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import __version__, measures, roles, stats
from .model import Dataset
from .report import ProjectComparison, ReportBundle
from .roles import ContributionProfile, Thresholds

# The profile measures a leader test compares, in report order.
MEASURES = ("quantity", "heterogeneity")


@dataclass(frozen=True)
class StatsOptions:
    """Test configuration; the defaults match the analysis this tool reproduces."""

    mwu_tails: str = "one"
    mwu_method: str = "normal"
    continuity_correction: bool = False
    barnard_tails: str = "two"
    barnard_grid: float = stats.DEFAULT_GRID_RESOLUTION

    def mann_whitney(self, leaders, others) -> stats.MwuResult:
        """Leader vs non-leader Mann-Whitney U test under these options."""
        return stats.mann_whitney_u(leaders, others, tails=self.mwu_tails,
                                    continuity_correction=self.continuity_correction,
                                    method=self.mwu_method)


def team_networks(dataset: Dataset) -> dict[tuple[str, str], measures.BipartiteNetwork]:
    """Build one bipartite network per (project, team), keyed accordingly."""
    nets = {}
    for roster in dataset.rosters:
        spec = dataset.projects[roster.project_id]
        nets[(roster.project_id, roster.team_id)] = measures.build_network(
            roster, spec, dataset.interactions_for(roster.project_id, roster.team_id))
    return nets


def project_profiles(dataset: Dataset,
                     thresholds: Thresholds = roles.DEFAULT_THRESHOLDS,
                     ) -> dict[str, tuple[ContributionProfile, ...]]:
    """Profile every roster member, grouped by project, ordered by (team, student).

    Every project of the dataset has an entry; one without teams has an empty one.
    """
    nets = team_networks(dataset)
    out: dict[str, list[ContributionProfile]] = {pid: [] for pid in dataset.project_ids()}
    for roster in dataset.rosters:
        spec = dataset.projects[roster.project_id]
        net = nets[(roster.project_id, roster.team_id)]
        out[roster.project_id].extend(roles.profile_team(net, spec, roster, thresholds))
    return {pid: tuple(profs) for pid, profs in out.items()}


def leader_split(profiles, measure: str) -> tuple[list[float], list[float]]:
    """Split one project's profiles into (leader values, non-leader values)."""
    if measure not in MEASURES:
        raise ValueError(f"measure must be {' or '.join(map(repr, MEASURES))}, got {measure!r}")
    leaders = [getattr(p, measure) for p in profiles if p.is_assigned_leader]
    others = [getattr(p, measure) for p in profiles if not p.is_assigned_leader]
    return leaders, others


def _metadata(thresholds: Thresholds, options: StatsOptions,
              input_digests: dict[str, str]) -> dict:
    return {
        "tool": "collabnet",
        "version": __version__,
        "thresholds": {**asdict(thresholds), "boundary_rule": "high_inclusive"},
        "stats_options": asdict(options),
        "inputs": {name: input_digests[name] for name in sorted(input_digests)},
    }


def compare_projects(before, after, options: StatsOptions = StatsOptions(),
                     ) -> ProjectComparison:
    """Compare two projects' profiles: transitions of the students in both,
    the unpaired students, the contingency table and Barnard's test.

    Barnard's test is skipped (`barnard` is None) when a contingency row sum
    is zero, i.e. when nobody's leadership changed or everybody's did.
    """
    pairs = roles.role_transitions(before, after)
    dropouts, joiners = roles.unpaired_students(before, after)
    table = roles.build_contingency(pairs)
    barnard = None
    if 0 < table.leadership_changes < table.n:
        barnard = stats.barnard_test(table, tails=options.barnard_tails,
                                     grid_resolution=options.barnard_grid)
    return ProjectComparison(pairs, dropouts, joiners, table, barnard)


def run_analysis(dataset: Dataset, thresholds: Thresholds = roles.DEFAULT_THRESHOLDS,
                 options: StatsOptions = StatsOptions(),
                 input_digests: dict[str, str] | None = None) -> ReportBundle:
    """Run the full pipeline: profiles, leader tests, transitions, Barnard.

    Transitions are computed between consecutive projects in sorted id
    order. The Mann-Whitney leader comparison is skipped for a project
    whose leader or non-leader group is empty; Barnard is skipped when a
    contingency margin is zero. `metadata["inputs"]` holds exactly the
    given `input_digests`, key-sorted, or `{}` when none are given.
    """
    profiles = project_profiles(dataset, thresholds)

    bundle = ReportBundle(
        metadata=_metadata(thresholds, options, input_digests or {}),
        profiles=profiles,
    )
    for pid in sorted(profiles):
        for measure_name in MEASURES:
            leaders, others = leader_split(profiles[pid], measure_name)
            if leaders and others:
                bundle.mwu[f"{pid}/{measure_name}"] = options.mann_whitney(leaders, others)

    pids = dataset.project_ids()
    for before, after in zip(pids, pids[1:]):
        bundle.transitions[f"{before}->{after}"] = compare_projects(
            profiles[before], profiles[after], options)
    return bundle
