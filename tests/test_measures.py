import itertools
import math
import random

import pytest

from collabnet import measures, synth
from collabnet.measures import (
    build_network,
    heterogeneity,
    max_entropy_composition,
    max_entropy_constant,
    type_histogram,
    weighted_degree,
    TypeHistogram,
)

from conftest import (
    TP1_CAPACITIES,
    TP1_POINTS_TEMPLATE,
    degree,
    make_interactions,
    make_roster,
    make_spec,
    roster,
    tp1_spec,
)
from oracles import oracle_max_entropy


class TestBuildNetwork:
    def test_repeated_events_collapse_to_one_edge(self):
        spec = make_spec()
        roster = make_roster()
        net = build_network(roster, spec, make_interactions([("S1", "A1")] * 5))
        assert net.edges == frozenset({("S1", "A1")})
        assert degree(net, "S1") == pytest.approx(1 / 6)

    def test_all_subtasks_present_even_untouched(self):
        spec = make_spec()
        net = build_network(make_roster(), spec, ())
        assert net.subtask_nodes == tuple(sorted(spec.subtask_ids))
        assert net.edges == frozenset()
        assert net.student_nodes == ("S1", "S2", "S3")

    def test_other_team_events_ignored(self):
        spec = make_spec()
        net = build_network(make_roster(), spec,
                            make_interactions([("S9", "A1")], team_id="OTHER"))
        assert net.edges == frozenset()

    def test_nonmember_event_raises(self):
        with pytest.raises(ValueError, match="non-member"):
            build_network(make_roster(), make_spec(),
                          make_interactions([("S9", "A1")]))

    def test_unknown_subtask_raises(self):
        with pytest.raises(ValueError, match="unknown subtask"):
            build_network(make_roster(), make_spec(),
                          make_interactions([("S1", "ZZ")]))

    def test_project_mismatch_raises(self):
        roster = make_roster(project_id="OTHER")
        with pytest.raises(ValueError, match="does not match"):
            build_network(roster, make_spec(), ())

    def test_node_ordering_lexicographic(self):
        spec = make_spec()
        roster = make_roster(members=("Sz", "Sa", "Sm"), leader=None)
        net = build_network(roster, spec, ())
        assert net.student_nodes == ("Sa", "Sm", "Sz")

    def test_new_leader_covers_most_subtasks(self, study_dataset):
        # Team_3 after the leadership handover: S20 leads and touches the
        # most subtasks, the former leader S16 the fewest
        spec = study_dataset.projects["TP2"]
        team = roster(study_dataset, "TP2", "Team_3")
        net = build_network(team, spec,
                            study_dataset.interactions_for("TP2", "Team_3"))
        degrees = {s: degree(net, s) for s in net.student_nodes}
        assert team.leader == "S20"
        assert degrees["S20"] == max(degrees.values())
        assert degrees["S16"] == min(degrees.values())


class TestDegree:
    def test_full_participation(self):
        spec = make_spec()
        net = build_network(make_roster(), spec,
                            make_interactions([("S1", j) for j in spec.subtask_ids]))
        assert degree(net, "S1") == 1.0
        assert weighted_degree(net, spec, "S1") == 1.0

    def test_isolated_student(self):
        spec = make_spec()
        net = build_network(make_roster(), spec, ())
        assert degree(net, "S2") == 0.0
        assert weighted_degree(net, spec, "S2") == 0.0

    def test_21_of_78_subtasks(self):
        spec = tp1_spec()
        chosen = spec.subtask_ids[:21]
        roster = make_roster(project_id="TP1")
        net = build_network(roster, spec, make_interactions(
            [("S1", j) for j in chosen], project_id="TP1"))
        assert degree(net, "S1") == pytest.approx(21 / 78, abs=1e-12)

    def test_unknown_student_raises(self):
        spec = make_spec()
        net = build_network(make_roster(), spec, ())
        with pytest.raises(ValueError, match="unknown student"):
            weighted_degree(net, spec, "S99")

    def test_spec_network_mismatch_raises(self):
        net = build_network(make_roster(), make_spec(), ())
        other = make_spec(project_id="P2")
        for fn in (weighted_degree, measures.type_histogram):
            # the project check comes before the student check
            for student in ("S1", "S99"):
                with pytest.raises(ValueError, match="spec project 'P2' does not match"):
                    fn(net, other, student)


class TestWeightedDegree:
    """Weight arithmetic on the published point frequencies (total 327)."""

    def setup_method(self):
        self.spec = synth.build_project(TP1_POINTS_TEMPLATE, random.Random(3))
        assert self.spec.total_weight == 327
        self.roster = make_roster(project_id="TP1")

    def _net(self, subtask_ids):
        return build_network(self.roster, self.spec, make_interactions(
            [("S1", j) for j in subtask_ids], project_id="TP1"))

    def _ids_with_points(self, points, k):
        ids = [st.subtask_id for st in self.spec.subtasks if st.points == points]
        assert len(ids) >= k
        return ids[:k]

    def test_single_ten_point_subtask(self):
        net = self._net(self._ids_with_points(10, 1))
        assert weighted_degree(net, self.spec, "S1") == pytest.approx(10 / 327, abs=1e-12)

    def test_two_and_three_point_subtasks(self):
        ids = self._ids_with_points(2, 1) + self._ids_with_points(3, 1)
        net = self._net(ids)
        assert weighted_degree(net, self.spec, "S1") == pytest.approx(5 / 327, abs=1e-12)


class TestTypeHistogram:
    def test_balanced_21(self):
        spec = tp1_spec()
        by_type = {}
        for st in spec.subtasks:
            by_type.setdefault(st.task_type, []).append(st.subtask_id)
        chosen = [j for t in sorted(by_type) for j in by_type[t][:7]]
        roster = make_roster(project_id="TP1")
        net = build_network(roster, spec, make_interactions(
            [("S1", j) for j in chosen], project_id="TP1"))
        hist = type_histogram(net, spec, "S1")
        assert hist.counts == {"Written": 7, "Research": 7, "Design": 7}
        assert hist.total == 21

    def test_zero_participation(self):
        spec = make_spec()
        net = build_network(make_roster(), spec, ())
        hist = type_histogram(net, spec, "S3")
        assert hist.counts == {"Design": 0, "Research": 0, "Written": 0}
        assert hist.total == 0

    def test_single_type(self):
        spec = make_spec()
        net = build_network(make_roster(), spec,
                            make_interactions([("S1", "A1"), ("S1", "A2")]))
        hist = type_histogram(net, spec, "S1")
        assert hist.counts == {"Design": 0, "Research": 0, "Written": 2}


class TestMaxEntropy:
    def test_even_split_21(self):
        assert max_entropy_composition(21, TP1_CAPACITIES) == {
            "Written": 7, "Research": 7, "Design": 7}
        assert max_entropy_constant(21, TP1_CAPACITIES) == pytest.approx(
            math.log(3), abs=1e-12)

    def test_capacity_bound_57(self):
        comp = max_entropy_composition(57, TP1_CAPACITIES)
        assert comp == {"Written": 20, "Research": 20, "Design": 17}
        # frozen from the enumeration oracle
        assert max_entropy_constant(57, TP1_CAPACITIES) == pytest.approx(
            1.0957895522009482, abs=1e-12)

    def test_degenerate_small_n(self):
        assert max_entropy_constant(1, TP1_CAPACITIES) == 0.0
        assert max_entropy_constant(0, TP1_CAPACITIES) == 0.0

    def test_n_above_capacity_raises(self):
        with pytest.raises(ValueError, match="exceeds total capacity"):
            max_entropy_constant(79, TP1_CAPACITIES)

    def test_remainder_goes_to_roomiest_type(self):
        comp = max_entropy_composition(58, TP1_CAPACITIES)
        assert comp == {"Written": 21, "Research": 20, "Design": 17}

    def test_matches_oracle_across_range(self):
        for n in range(0, 61):
            assert max_entropy_constant(n, TP1_CAPACITIES) == pytest.approx(
                oracle_max_entropy(n, TP1_CAPACITIES), abs=1e-12), n


class TestHeterogeneity:
    def test_perfectly_even(self):
        hist = TypeHistogram("S1", {"Written": 7, "Research": 7, "Design": 7}, 21)
        assert heterogeneity(hist, TP1_CAPACITIES) == pytest.approx(1.0, abs=1e-12)

    def test_uneven_21(self):
        hist = TypeHistogram("S1", {"Written": 10, "Research": 5, "Design": 6}, 21)
        # frozen from an independent evaluation of the entropy ratio
        assert heterogeneity(hist, TP1_CAPACITIES) == pytest.approx(
            0.9584114221179828, abs=1e-12)

    def test_single_type_participation(self):
        hist = TypeHistogram("S1", {"Written": 5, "Research": 0, "Design": 0}, 5)
        assert heterogeneity(hist, TP1_CAPACITIES) == 0.0

    def test_degenerate_totals(self):
        assert heterogeneity(TypeHistogram("S1", {"Written": 0}, 0),
                             TP1_CAPACITIES) == 0.0
        assert heterogeneity(TypeHistogram("S1", {"Written": 1}, 1),
                             TP1_CAPACITIES) == 0.0

    def test_single_type_project_warns(self):
        hist = TypeHistogram("S1", {"Solo": 3}, 3)
        with pytest.warns(UserWarning, match="single task type"):
            assert heterogeneity(hist, {"Solo": 10}) == 0.0

    def test_count_above_capacity_raises(self):
        hist = TypeHistogram("S1", {"Written": 40, "Research": 0, "Design": 0}, 40)
        with pytest.raises(ValueError, match="capacity"):
            heterogeneity(hist, TP1_CAPACITIES)

    def test_unknown_type_raises(self):
        hist = TypeHistogram("S1", {"Mystery": 1}, 1)
        with pytest.raises(ValueError, match="Mystery"):
            heterogeneity(hist, TP1_CAPACITIES)

    def test_memo_keeps_capacity_order(self):
        # the max-entropy sum runs in capacity insertion order, and these
        # orders give denominators that differ in the last bit
        caps = {"T0": 21, "T1": 18, "T2": 1}
        hist = TypeHistogram("S1", {"T0": 14, "T1": 11, "T2": 1}, 26)
        raw = measures._entropy(hist.counts.values())
        denominators = set()
        for order in itertools.permutations(caps):
            ordered = {t: caps[t] for t in order}
            expected = min(raw / max_entropy_constant(26, ordered), 1.0)
            denominators.add(max_entropy_constant(26, ordered))
            for _ in range(2):  # computed, then memoized
                assert heterogeneity(hist, ordered) == expected, order
        assert len(denominators) > 1


class TestMeasureRelations:
    def test_weighted_degree_equals_degree_under_equal_weights(self):
        rows = [(f"A{i}", t, 4) for i, t in enumerate(
            ["Written", "Written", "Research", "Research", "Design", "Design"])]
        spec = make_spec(rows=rows)
        net = build_network(make_roster(), spec,
                            make_interactions([("S1", "A0"), ("S1", "A3"), ("S1", "A4")]))
        assert weighted_degree(net, spec, "S1") == pytest.approx(
            degree(net, "S1"), abs=1e-15)

    def test_duplicating_events_changes_nothing(self):
        spec = make_spec()
        events = make_interactions([("S1", "A1"), ("S1", "A3"), ("S2", "A4")])
        net1 = build_network(make_roster(), spec, events)
        net2 = build_network(make_roster(), spec, events + events)
        assert net1 == net2

    def test_log_base_invariance(self):
        hist = TypeHistogram("S1", {"Written": 10, "Research": 5, "Design": 6}, 21)
        h_nat = heterogeneity(hist, TP1_CAPACITIES)
        # same ratio computed in base 2
        n = hist.total
        raw2 = -sum((c / n) * math.log2(c / n) for c in hist.counts.values() if c)
        comp = max_entropy_composition(n, TP1_CAPACITIES)
        q2 = -sum((c / n) * math.log2(c / n) for c in comp.values() if c)
        assert h_nat == pytest.approx(raw2 / q2, abs=1e-12)
