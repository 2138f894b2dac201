import pytest

from collabnet import measures
from collabnet.roles import (
    ContingencyTable2x2,
    ContributionProfile,
    Role,
    RoleTransition,
    Thresholds,
    build_contingency,
    classify,
    profile_team,
    role_transitions,
    unpaired_students,
)

from conftest import make_interactions, make_roster, make_spec


def profile(student, role, leader=False, project="P1"):
    q, h = {
        Role.COMPREHENSIVE_CONTRIBUTOR: (0.8, 0.9),
        Role.SPECIALIZED_CONTRIBUTOR: (0.8, 0.1),
        Role.VERSATILE_PARTICIPANT: (0.2, 0.9),
        Role.FREE_RIDER: (0.1, 0.1),
    }[role]
    return ContributionProfile(student_id=student, project_id=project, team_id="T1",
                               quantity=q, heterogeneity=h,
                               is_assigned_leader=leader, role=role)


class TestClassify:
    def test_leader_median_point(self):
        assert classify(0.755, 0.906) is Role.COMPREHENSIVE_CONTRIBUTOR

    def test_member_median_point(self):
        assert classify(0.178, 0.896) is Role.VERSATILE_PARTICIPANT

    def test_boundary_is_high_inclusive(self):
        assert classify(0.5, 0.5) is Role.COMPREHENSIVE_CONTRIBUTOR
        assert classify(0.5, 0.499) is Role.SPECIALIZED_CONTRIBUTOR
        assert classify(0.499, 0.5) is Role.VERSATILE_PARTICIPANT

    def test_origin_is_free_rider(self):
        assert classify(0.0, 0.0) is Role.FREE_RIDER

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            classify(1.2, 0.5)
        with pytest.raises(ValueError):
            classify(0.5, -0.1)

    def test_custom_thresholds(self):
        cuts = Thresholds(quantity_cut=0.3, heterogeneity_cut=0.7)
        assert classify(0.4, 0.5, cuts) is Role.SPECIALIZED_CONTRIBUTOR

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            Thresholds(quantity_cut=0.0)
        with pytest.raises(ValueError):
            Thresholds(heterogeneity_cut=1.0)
        with pytest.raises(TypeError):
            Thresholds(boundary_rule="low_inclusive")


class TestProfileTeam:
    def test_team3_roles_across_projects(self, study_dataset, study_profiles):
        tp1 = {p.student_id: p for p in study_profiles["TP1"] if p.team_id == "Team_3"}
        assert tp1["S16"].role is Role.COMPREHENSIVE_CONTRIBUTOR
        assert tp1["S20"].role is Role.VERSATILE_PARTICIPANT
        assert tp1["S21"].role is Role.VERSATILE_PARTICIPANT
        assert tp1["S16"].is_assigned_leader
        tp2 = {p.student_id: p for p in study_profiles["TP2"] if p.team_id == "Team_3"}
        assert tp2["S20"].role is Role.COMPREHENSIVE_CONTRIBUTOR
        assert tp2["S21"].role is Role.VERSATILE_PARTICIPANT
        assert tp2["S16"].role is Role.FREE_RIDER

    def test_empty_team_all_free_riders(self):
        spec = make_spec()
        roster = make_roster()
        net = measures.build_network(roster, spec, ())
        profiles = profile_team(net, spec, roster)
        assert len(profiles) == 3
        assert all(p.role is Role.FREE_RIDER for p in profiles)
        assert all(p.quantity == 0.0 and p.heterogeneity == 0.0 for p in profiles)

    def test_zero_participation_member_not_omitted(self):
        spec = make_spec()
        roster = make_roster()
        net = measures.build_network(
            roster, spec, make_interactions([("S1", "A1"), ("S2", "A2")]))
        profiles = profile_team(net, spec, roster)
        assert [p.student_id for p in profiles] == ["S1", "S2", "S3"]
        assert profiles[2].role is Role.FREE_RIDER


class TestTransitions:
    def test_study_case(self, study_profiles):
        transitions = role_transitions(study_profiles["TP1"], study_profiles["TP2"])
        assert len(transitions) == 20  # 21 students, one dropout
        by_student = {t.student_id: t for t in transitions}
        s16 = by_student["S16"]
        assert s16.role_before is Role.COMPREHENSIVE_CONTRIBUTOR
        assert s16.role_after is Role.FREE_RIDER
        assert s16.role_changed and s16.leadership_changed

    def test_unchanged_student_flags_false(self):
        before = [profile("S1", Role.VERSATILE_PARTICIPANT)]
        after = [profile("S1", Role.VERSATILE_PARTICIPANT, project="P2")]
        (t,) = role_transitions(before, after)
        assert not t.role_changed and not t.leadership_changed

    def test_leadership_change_is_xor(self):
        before = [profile("S1", Role.COMPREHENSIVE_CONTRIBUTOR, leader=True)]
        after = [profile("S1", Role.COMPREHENSIVE_CONTRIBUTOR, leader=False, project="P2")]
        (t,) = role_transitions(before, after)
        assert t.leadership_changed and not t.role_changed

    def test_duplicate_student_rejected(self):
        dup = [profile("S1", Role.FREE_RIDER), profile("S1", Role.FREE_RIDER)]
        with pytest.raises(ValueError, match="duplicate"):
            role_transitions(dup, [profile("S1", Role.FREE_RIDER, project="P2")])

    def test_unpaired_listing(self, study_profiles):
        dropouts, joiners = unpaired_students(study_profiles["TP1"], study_profiles["TP2"])
        assert dropouts == ("S6",)
        assert joiners == ()


class TestContingency:
    def test_study_table(self, study_profiles):
        transitions = role_transitions(study_profiles["TP1"], study_profiles["TP2"])
        table = build_contingency(transitions)
        assert table.cells() == (8, 1, 5, 6)
        assert table.leadership_changes == 9
        assert table.role_changes == 13
        assert table.n == 20

    def test_empty(self):
        assert build_contingency([]).cells() == (0, 0, 0, 0)

    def test_all_flags_true(self):
        ts = [RoleTransition(f"S{i}", Role.FREE_RIDER, Role.COMPREHENSIVE_CONTRIBUTOR,
                             leadership_changed=True, role_changed=True)
              for i in range(4)]
        assert build_contingency(ts).cells() == (4, 0, 0, 0)

    def test_negative_cell_rejected(self):
        with pytest.raises(ValueError):
            ContingencyTable2x2(-1, 0, 0, 0)
