import random
import re
from pathlib import Path

import pytest

from collabnet import synth
from collabnet.model import Dataset, InteractionRecord, ProjectSpec, Subtask, TeamRoster

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

TP1_CAPACITIES = {"Written": 35, "Research": 26, "Design": 17}

TP1_TEMPLATE = synth.ProjectTemplate(
    project_id="TP1",
    type_counts={"Written": 35, "Research": 26, "Design": 17},
    point_values={2: 19, 3: 30, 5: 17, 10: 12},
)

# the published point frequencies (sum 76, total weight 327)
TP1_POINTS_TEMPLATE = synth.ProjectTemplate(
    project_id="TP1",
    type_counts={"Written": 33, "Research": 26, "Design": 17},
    point_values={2: 19, 3: 28, 5: 17, 10: 12},
)


def make_spec(project_id="P1", rows=None) -> ProjectSpec:
    """Small six-subtask project: three types, varied points, total weight 25."""
    if rows is None:
        rows = [
            ("A1", "Written", 2), ("A2", "Written", 3),
            ("A3", "Research", 5), ("A4", "Research", 10),
            ("A5", "Design", 2), ("A6", "Design", 3),
        ]
    return ProjectSpec(project_id, tuple(
        Subtask(subtask_id=sid, project_id=project_id, task_type=t, points=p)
        for sid, t, p in rows
    ))


def make_roster(team_id="T1", project_id="P1", members=("S1", "S2", "S3"), leader="S1"):
    return TeamRoster(team_id=team_id, project_id=project_id,
                      members=frozenset(members), leader=leader)


def make_interactions(pairs, team_id="T1", project_id="P1"):
    return tuple(InteractionRecord(project_id=project_id, team_id=team_id,
                                   student_id=s, subtask_id=j)
                 for s, j in pairs)


def make_dataset(spec=None, roster=None, interactions=()):
    spec = spec or make_spec()
    roster = roster or make_roster(project_id=spec.project_id)
    return Dataset(projects={spec.project_id: spec}, rosters=(roster,),
                   interactions=tuple(interactions))


def tp1_spec(seed=7) -> ProjectSpec:
    return synth.build_project(TP1_TEMPLATE, random.Random(seed))


def degree(net, student_id) -> float:
    """Fraction of the project's subtasks the student is connected to."""
    return len({j for i, j in net.edges if i == student_id}) / len(net.subtask_nodes)


def roster(dataset, project_id, team_id) -> TeamRoster:
    """The dataset's roster of one team."""
    return next(r for r in dataset.rosters
                if r.project_id == project_id and r.team_id == team_id)


@pytest.fixture(scope="session")
def study_dataset():
    from collabnet.model import load_dataset
    return load_dataset(FIXTURES / "study")


@pytest.fixture(scope="session")
def study_profiles(study_dataset):
    from collabnet import pipeline
    return pipeline.project_profiles(study_dataset)


_NODE_RE = re.compile(r'^\s+"((?:[^"\\]|\\.)*)" \[')
_EDGE_RE = re.compile(r'^\s+"((?:[^"\\]|\\.)*)" -- "((?:[^"\\]|\\.)*)";')


def parse_dot(text: str):
    """Minimal DOT well-formedness check; returns (nodes, edges, rank_groups)."""
    assert text.startswith("graph ")
    assert text.count("{") == text.count("}")
    nodes, edges, ranks = [], [], 0
    for line in text.splitlines():
        if "rank=" in line:
            ranks += 1
        m = _NODE_RE.match(line)
        if m and " -- " not in line:
            nodes.append(m.group(1))
        m = _EDGE_RE.match(line)
        if m:
            edges.append((m.group(1), m.group(2)))
    for a, b in edges:
        assert a in nodes and b in nodes, f"edge ({a}, {b}) references undeclared node"
    return nodes, edges, ranks

def random_case(seed: int):
    """Seeded (spec, roster, interactions) triple with 2..4 types."""
    rng = random.Random(seed)
    n_types = rng.randint(2, 4)
    types = [f"T{i}" for i in range(n_types)]
    subtasks = []
    k = 0
    for t in types:
        for _ in range(rng.randint(1, 6)):
            k += 1
            subtasks.append(Subtask(f"A{k:02d}", "P", t, rng.randint(1, 10)))
    spec = ProjectSpec("P", tuple(subtasks))
    students = [f"S{i}" for i in range(1, rng.randint(2, 4) + 1)]
    roster = TeamRoster("T1", "P", frozenset(students), leader=students[0])
    events = tuple(
        InteractionRecord("P", "T1", rng.choice(students),
                          rng.choice(subtasks).subtask_id)
        for _ in range(rng.randint(0, 40))
    )
    return spec, roster, events


def student_measures(spec, roster, events):
    from collabnet import measures
    net = measures.build_network(roster, spec, events)
    out = {}
    for s in net.student_nodes:
        d = degree(net, s)
        dw = measures.weighted_degree(net, spec, s)
        h = measures.heterogeneity(
            measures.type_histogram(net, spec, s), spec.type_capacities)
        out[s] = (d, dw, h)
    return net, out
