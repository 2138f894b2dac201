"""The lookup indexes built at construction agree with brute-force scans.

Dataset groups its interactions by (project, team), ProjectSpec
maps subtask ids to subtasks, and BipartiteNetwork keeps a per-student
adjacency. Each index is checked here against the scan it replaced, and
each private field is checked to stay out of equality and repr.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from collabnet import measures, synth
from collabnet.measures import build_network
from collabnet.model import Dataset, InteractionRecord

from conftest import make_dataset, make_interactions, make_roster, make_spec, random_case
from test_synth import study_like_cohort

PROJECTS = ("P1", "P2", "P3")      # P3 has no spec
TEAMS = ("T1", "T2", "T3", "T4")   # not every team gets a roster
STUDENTS = ("S1", "S2", "S3", "S4")
SUBTASKS = ("A1", "A2", "A3", "A4", "A5", "A6", "ZZ")


@st.composite
def datasets(draw):
    keys = draw(st.lists(st.tuples(st.sampled_from(PROJECTS[:2]), st.sampled_from(TEAMS)),
                         unique=True, max_size=5))
    rosters = tuple(
        make_roster(team_id=t, project_id=p, leader=None,
                    members=draw(st.frozensets(st.sampled_from(STUDENTS), min_size=1)))
        for p, t in keys)
    events = draw(st.lists(st.builds(
        InteractionRecord,
        project_id=st.sampled_from(PROJECTS), team_id=st.sampled_from(TEAMS),
        student_id=st.sampled_from(STUDENTS), subtask_id=st.sampled_from(SUBTASKS),
        timestamp=st.sampled_from((None, "t0", "t1"))), max_size=40))
    return Dataset(projects={p: make_spec(p) for p in PROJECTS[:2]},
                   rosters=rosters, interactions=tuple(events))


class TestDatasetIndex:
    @given(datasets())
    @settings(max_examples=200, deadline=None)
    def test_interactions_for_matches_filter(self, ds):
        for p, t in itertools.product(PROJECTS, TEAMS):
            expected = tuple(i for i in ds.interactions
                             if i.project_id == p and i.team_id == t)
            got = ds.interactions_for(p, t)
            assert len(got) == len(expected)
            assert all(a is b for a, b in zip(got, expected))

    @pytest.mark.parametrize("source", ["study", "synth"])
    def test_network_from_index_matches_full_event_list(self, source, study_dataset):
        ds = study_dataset if source == "study" else synth.generate_cohort(study_like_cohort())
        for roster in ds.rosters:
            spec = ds.projects[roster.project_id]
            assert build_network(roster, spec, ds.interactions) == build_network(
                roster, spec, ds.interactions_for(roster.project_id, roster.team_id))


class TestMeasuresMatchScans:
    """The adjacency reads give exactly what the edge and subtask scans gave."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_measures_equal_scan_reference(self, seed):
        spec, roster, events = random_case(seed)
        net = build_network(roster, spec, events)
        for s in net.student_nodes:
            touched = {j for i, j in net.edges if i == s}
            points = sum(st.points for st in spec.subtasks if st.subtask_id in touched)
            counts = {t: 0 for t in sorted(spec.type_capacities)}
            for stk in spec.subtasks:
                if stk.subtask_id in touched:
                    counts[stk.task_type] += 1
            assert measures.weighted_degree(net, spec, s) == points / spec.total_weight
            hist = measures.type_histogram(net, spec, s)
            assert list(hist.counts.items()) == list(counts.items())
            assert hist.total == len(touched)


class TestPrivateFields:
    def test_dataset(self):
        ds = make_dataset(interactions=make_interactions([("S1", "A1"), ("S2", "A3")]))
        twin = dataclasses.replace(ds)
        object.__setattr__(twin, "_interaction_index", {})
        assert twin == ds
        assert "_index" not in repr(ds)
        extra = make_interactions([("S3", "A6")])
        grown = dataclasses.replace(ds, interactions=ds.interactions + extra)
        assert grown.interactions_for("P1", "T1") == ds.interactions + extra
        moved = dataclasses.replace(ds, rosters=(make_roster(team_id="T9"),))
        assert moved.interactions_for("P1", "T9") == ()

    def test_project_spec(self):
        spec = make_spec()
        twin = dataclasses.replace(spec)
        object.__setattr__(twin, "_by_id", {})
        assert twin == spec
        assert "_by_id" not in repr(spec)
        assert spec.subtask("A4").points == 10
        with pytest.raises(KeyError):
            spec.subtask("nope")
        relabeled = dataclasses.replace(spec, subtasks=tuple(
            dataclasses.replace(stk, points=1) for stk in spec.subtasks))
        assert relabeled.subtask("A4").points == 1

    def test_bipartite_network(self):
        spec = make_spec()
        net = build_network(make_roster(), spec, make_interactions([("S1", "A1"), ("S1", "A4")]))
        twin = dataclasses.replace(net)
        object.__setattr__(twin, "_adjacency", {})
        assert twin == net and hash(twin) == hash(net)
        assert "_adjacency" not in repr(net)
        grown = dataclasses.replace(net, edges=net.edges | {("S2", "A3")})
        assert measures.weighted_degree(grown, spec, "S2") == 5 / 25
        for fn in (measures.weighted_degree, measures.type_histogram):
            with pytest.raises(ValueError, match="unknown student"):
                fn(net, spec, "S99")
