#!/usr/bin/env python3
"""Build the bundled study-shaped fixture under fixtures/study/.

Two projects with the cohort layout of the original study: 21 students in
seven teams of three, one dropout before the second project, and the two
merged teams. Per-student (quantity, heterogeneity) bands are chosen so
that the classified roles, the leadership handovers, and the resulting
2x2 change table reproduce the published structure:

  * every first-project leader classifies as a comprehensive contributor,
    plus S18 as the only non-leader comprehensive contributor;
  * the leader-vs-member quantity split in the first project has U = 1
    (S18 outscores exactly one leader, S12);
  * across projects: 9 leadership changes, 13 role changes, and the
    change table (a, b, c, d) = (8, 1, 5, 6) over the 20 paired students.

Point values follow the published totals per project. The first project's
published point frequencies sum to 76 subtasks while its type counts sum
to 78, so two extra 3-point subtasks pad the difference.

Run from the repository root:  python scripts/build_study_fixture.py
"""

import random
import sys
from pathlib import Path

from collabnet import pipeline, synth
from collabnet.model import Dataset, InteractionRecord, TeamRoster, write_dataset
from collabnet.roles import Role

OUT_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "study"

TP1_TEMPLATE = synth.ProjectTemplate(
    project_id="TP1",
    type_counts={"Written": 35, "Research": 26, "Design": 17},
    point_values={2: 19, 3: 30, 5: 17, 10: 12},
)
TP2_TEMPLATE = synth.ProjectTemplate(
    project_id="TP2",
    type_counts={"Written": 22, "Analysis": 31, "Logistics": 5},
    point_values={2: 7, 3: 23, 5: 27, 10: 1},
)

TP1_TEAMS = {
    "Team_1": ["S1", "S3", "S7"],
    "Team_2": ["S13", "S15", "S5"],
    "Team_3": ["S16", "S20", "S21"],
    "Team_4": ["S14", "S2", "S6"],
    "Team_5": ["S12", "S17", "S4"],
    "Team_6": ["S10", "S11", "S19"],
    "Team_7": ["S18", "S8", "S9"],
}
TP1_LEADERS = {"Team_1": "S1", "Team_2": "S13", "Team_3": "S16", "Team_4": "S14",
               "Team_5": "S12", "Team_6": "S10", "Team_7": "S8"}

# S6 drops out; S2 and S14 move into existing teams.
TP2_TEAMS = {
    "Team_1": ["S1", "S2", "S3", "S7"],
    "Team_2": ["S13", "S14", "S15", "S5"],
    "Team_3": ["S16", "S20", "S21"],
    "Team_5": ["S12", "S17", "S4"],
    "Team_6": ["S10", "S11", "S19"],
    "Team_7": ["S18", "S8", "S9"],
}
TP2_LEADERS = {"Team_1": "S3", "Team_2": "S13", "Team_3": "S20",
               "Team_5": "S12", "Team_6": "S11", "Team_7": "S18"}

HIGH_H = (0.82, 0.97)
LOW_H = (0.0, 0.35)

# per-student (quantity band, heterogeneity band); distinct quantity bands keep
# the leader-vs-member ordering tie-free
TP1_BANDS = {
    # leaders: comprehensive contributors; S12 is the weakest leader
    "S1": ((0.72, 0.74), HIGH_H),
    "S13": ((0.75, 0.77), HIGH_H),
    "S16": ((0.78, 0.80), HIGH_H),
    "S14": ((0.81, 0.83), HIGH_H),
    "S12": ((0.66, 0.68), HIGH_H),
    "S10": ((0.84, 0.86), HIGH_H),
    "S8": ((0.87, 0.89), HIGH_H),
    # S18: the only non-leader comprehensive contributor, above S12 only
    "S18": ((0.69, 0.71), HIGH_H),
    # versatile participants; disjoint bands keep quantities tie-free
    "S2": ((0.100, 0.112), HIGH_H),
    "S11": ((0.120, 0.132), HIGH_H),
    "S3": ((0.140, 0.152), HIGH_H),
    "S20": ((0.160, 0.172), HIGH_H),
    "S7": ((0.180, 0.192), HIGH_H),
    "S21": ((0.200, 0.212), HIGH_H),
    "S15": ((0.220, 0.232), HIGH_H),
    "S19": ((0.240, 0.252), HIGH_H),
    "S5": ((0.260, 0.272), HIGH_H),
    "S17": ((0.280, 0.292), HIGH_H),
    "S4": ((0.300, 0.312), HIGH_H),
    "S6": ((0.320, 0.332), HIGH_H),
    # free rider
    "S9": ((0.04, 0.08), LOW_H),
}

TP2_BANDS = {
    # comprehensive contributors (all leaders)
    "S3": ((0.60, 0.64), (0.75, 0.95)),
    "S13": ((0.65, 0.69), (0.75, 0.95)),
    "S20": ((0.70, 0.74), (0.75, 0.95)),
    # versatile leaders
    "S11": ((0.36, 0.39), (0.75, 0.95)),
    "S18": ((0.40, 0.43), (0.75, 0.95)),
    "S12": ((0.38, 0.41), (0.75, 0.95)),
    # versatile members (ex-leaders and continuing participants)
    "S1": ((0.20, 0.24), (0.70, 0.95)),
    "S14": ((0.22, 0.26), (0.70, 0.95)),
    "S10": ((0.24, 0.28), (0.70, 0.95)),
    "S8": ((0.26, 0.30), (0.70, 0.95)),
    "S21": ((0.16, 0.20), (0.70, 0.95)),
    "S17": ((0.18, 0.22), (0.70, 0.95)),
    "S4": ((0.14, 0.18), (0.70, 0.95)),
    "S19": ((0.12, 0.16), (0.70, 0.95)),
    # free riders
    "S16": ((0.04, 0.08), LOW_H),
    "S9": ((0.05, 0.09), LOW_H),
    "S7": ((0.06, 0.10), LOW_H),
    "S15": ((0.07, 0.11), LOW_H),
    "S5": ((0.08, 0.12), LOW_H),
    "S2": ((0.09, 0.13), LOW_H),
}


def build_project_dataset(template, teams, leaders, bands, seed):
    spec = synth.build_project(template, random.Random(seed))
    rosters = []
    interactions = []
    for team_id in sorted(teams):
        members = teams[team_id]
        rosters.append(TeamRoster(team_id=team_id, project_id=spec.project_id,
                                  members=frozenset(members),
                                  leader=leaders[team_id]))
        for student in members:
            q_band, h_band = bands[student]
            for sid in synth.plant_contribution(spec, q_band, h_band):
                interactions.append(InteractionRecord(
                    project_id=spec.project_id, team_id=team_id,
                    student_id=student, subtask_id=sid))
    return spec, rosters, interactions


def build_dataset() -> Dataset:
    spec1, rosters1, inter1 = build_project_dataset(
        TP1_TEMPLATE, TP1_TEAMS, TP1_LEADERS, TP1_BANDS, seed=20301)
    spec2, rosters2, inter2 = build_project_dataset(
        TP2_TEMPLATE, TP2_TEAMS, TP2_LEADERS, TP2_BANDS, seed=20302)
    return Dataset(
        projects={"TP1": spec1, "TP2": spec2},
        rosters=tuple(rosters1 + rosters2),
        interactions=tuple(inter1 + inter2),
        metadata={"generator": "study-fixture-v1", "seeds": "20301,20302"},
    )


def verify(dataset: Dataset) -> int:
    bundle = pipeline.run_analysis(dataset)
    profiles = bundle.profiles
    tp1 = {p.student_id: p for p in profiles["TP1"]}
    failures = []

    leaders = [p for p in profiles["TP1"] if p.is_assigned_leader]
    if len(leaders) != 7 or any(p.role is not Role.COMPREHENSIVE_CONTRIBUTOR for p in leaders):
        failures.append("TP1 leaders are not all comprehensive contributors")
    if tp1["S18"].role is not Role.COMPREHENSIVE_CONTRIBUTOR:
        failures.append("S18 is not a comprehensive contributor in TP1")
    if tp1["S9"].role is not Role.FREE_RIDER:
        failures.append("S9 is not a free rider in TP1")

    for pid in ("TP1", "TP2"):
        values = [p.quantity for p in profiles[pid]]
        if len(set(values)) != len(values):
            failures.append(f"{pid} has tied quantity values")

    mwu = bundle.mwu["TP1/quantity"]
    if mwu.u != 1:
        failures.append(f"TP1 quantity split has U={mwu.u}, expected 1")

    comparison = bundle.transitions["TP1->TP2"]
    table = comparison.contingency
    if table.cells() != (8, 1, 5, 6):
        failures.append(f"contingency {table.cells()}, expected (8, 1, 5, 6)")

    print(f"TP1 roles: {[ (p.student_id, p.role.value) for p in profiles['TP1'] ]}")
    print(f"TP1 leader-vs-member quantity: U={mwu.u:g}, r={mwu.r:.3f}")
    print(f"transitions: {len(comparison.pairs)} students,"
          f" contingency {table.cells()},"
          f" leadership changes {table.leadership_changes},"
          f" role changes {table.role_changes}")
    if comparison.barnard is not None:
        print(f"pooled score statistic T = {comparison.barnard.t:.3f}")
    for msg in failures:
        print(f"FIXTURE ERROR: {msg}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    dataset = build_dataset()
    status = verify(dataset)
    if status:
        return status
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for path in write_dataset(dataset, OUT_DIR, fmt="csv"):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
