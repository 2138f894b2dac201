import dataclasses
import json
import math

import pytest

from collabnet import measures, pipeline, synth
from collabnet.roles import Role
from collabnet.synth import (
    InfeasibleTargetError,
    PlantedCohortSpec,
    ProjectTemplate,
    RoleTarget,
    generate_cohort,
    load_cohort_spec,
    plant_contribution,
)

from conftest import TP1_CAPACITIES, TP1_TEMPLATE, tp1_spec
from oracles import oracle_exact_u_distribution, oracle_max_entropy


class TestOracles:
    def test_max_entropy_even_case(self):
        assert oracle_max_entropy(21, TP1_CAPACITIES) == pytest.approx(
            math.log(3), abs=1e-12)

    def test_max_entropy_capacity_bound(self):
        assert oracle_max_entropy(57, TP1_CAPACITIES) == pytest.approx(
            1.0957895522009482, abs=1e-12)

    def test_max_entropy_zero(self):
        assert oracle_max_entropy(0, {"A": 3}) == 0.0

    def test_max_entropy_guards(self):
        with pytest.raises(ValueError, match="capped"):
            oracle_max_entropy(61, TP1_CAPACITIES)
        with pytest.raises(ValueError, match="exceeds"):
            oracle_max_entropy(10, {"A": 3})

    def test_u_distribution_small(self):
        assert oracle_exact_u_distribution(1, 1) == {0: 1, 1: 1}
        dist = oracle_exact_u_distribution(2, 2)
        assert sum(dist.values()) == 6
        assert dist == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}

    def test_u_distribution_study_sizes(self):
        dist = oracle_exact_u_distribution(7, 14)
        assert dist[0] == 1
        assert dist[1] == 1
        assert sum(dist.values()) == 116280

    def test_u_distribution_cap(self):
        with pytest.raises(ValueError, match="capped"):
            oracle_exact_u_distribution(11, 11)


class TestPlantContribution:
    def test_hits_both_bands(self):
        spec = tp1_spec()
        ids = plant_contribution(spec, (0.6, 0.8), (0.7, 0.95))
        chosen = set(ids)
        weight = sum(st.points for st in spec.subtasks if st.subtask_id in chosen)
        share = weight / spec.total_weight
        assert 0.6 <= share <= 0.8
        counts = {t: 0 for t in spec.type_capacities}
        for st in spec.subtasks:
            if st.subtask_id in chosen:
                counts[st.task_type] += 1
        hist = measures.TypeHistogram("S1", counts, sum(counts.values()))
        assert 0.7 <= measures.heterogeneity(hist, spec.type_capacities) <= 0.95

    def test_zero_target(self):
        spec = tp1_spec()
        assert plant_contribution(spec, (0.0, 0.1), (0.0, 0.1)) == ()

    def test_leader_region_feasible(self):
        # heavy, near-even engagement is plantable on the study-sized design
        spec = tp1_spec()
        ids = plant_contribution(spec, (0.7, 0.9), (0.9, 1.0))
        chosen = set(ids)
        w = sum(st.points for st in spec.subtasks if st.subtask_id in chosen)
        assert 0.7 <= w / spec.total_weight <= 0.9

    def test_deterministic(self):
        spec = tp1_spec()
        assert plant_contribution(spec, (0.1, 0.3), (0.6, 0.9)) == \
            plant_contribution(spec, (0.1, 0.3), (0.6, 0.9))

    def test_infeasible_quantity_names_constraint(self):
        spec = tp1_spec()
        # a near-total weight share cannot come from a low-entropy mix
        with pytest.raises(InfeasibleTargetError, match="quantity band"):
            plant_contribution(spec, (0.97, 0.99), (0.0, 0.1))

    def test_infeasible_heterogeneity_names_constraint(self):
        # two types of two subtasks each: normalized entropy is only ever 0 or 1
        from conftest import make_spec
        spec = make_spec(rows=[("A1", "X", 2), ("A2", "X", 2),
                               ("A3", "Y", 2), ("A4", "Y", 2)])
        with pytest.raises(InfeasibleTargetError, match="heterogeneity band"):
            plant_contribution(spec, (0.1, 0.9), (0.40, 0.60))


class TestSpecValidation:
    def make_targets(self, **overrides):
        kwargs = dict(role=Role.COMPREHENSIVE_CONTRIBUTOR,
                      quantity_band=(0.65, 0.9),
                      heterogeneity_band=(0.7, 0.95))
        kwargs.update(overrides)
        return RoleTarget(**kwargs)

    def test_band_must_respect_margin(self):
        with pytest.raises(ValueError, match="margin"):
            self.make_targets(quantity_band=(0.52, 0.9))
        with pytest.raises(ValueError, match="margin"):
            self.make_targets(role=Role.FREE_RIDER,
                              quantity_band=(0.0, 0.48),
                              heterogeneity_band=(0.0, 0.3))

    def test_band_ordering_checked(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            self.make_targets(quantity_band=(0.9, 0.65))

    def test_template_counts_must_agree(self):
        with pytest.raises(ValueError, match="disagree"):
            ProjectTemplate("P1", {"A": 3}, {2: 2})

    def test_target_count_checked(self):
        with pytest.raises(ValueError, match="targets"):
            PlantedCohortSpec(seed=1, groups=2, group_size=3,
                              project=TP1_TEMPLATE,
                              targets=(self.make_targets(),) * 4)

    def test_single_leader_per_group(self):
        t = self.make_targets(is_leader=True)
        with pytest.raises(ValueError, match="leader"):
            PlantedCohortSpec(seed=1, groups=1, group_size=2,
                              project=TP1_TEMPLATE, targets=(t, t))


def study_like_cohort(seed=11):
    return PlantedCohortSpec(
        seed=seed, groups=7, group_size=3, project=TP1_TEMPLATE,
        targets=(
            RoleTarget(Role.COMPREHENSIVE_CONTRIBUTOR, (0.65, 0.9), (0.7, 0.95),
                       is_leader=True),
            RoleTarget(Role.VERSATILE_PARTICIPANT, (0.08, 0.35), (0.65, 0.95)),
            RoleTarget(Role.FREE_RIDER, (0.0, 0.25), (0.0, 0.35)),
        ),
    )


class TestGenerateCohort:
    def test_shape_and_measures(self):
        ds = generate_cohort(study_like_cohort())
        assert len(ds.rosters) == 7
        assert sum(len(r.members) for r in ds.rosters) == 21
        profiles = pipeline.project_profiles(ds)["TP1"]
        by_role = {}
        for p in profiles:
            by_role.setdefault(p.role, []).append(p)
        assert len(by_role[Role.COMPREHENSIVE_CONTRIBUTOR]) == 7
        assert len(by_role[Role.VERSATILE_PARTICIPANT]) == 7
        assert len(by_role[Role.FREE_RIDER]) == 7
        assert all(p.is_assigned_leader
                   for p in by_role[Role.COMPREHENSIVE_CONTRIBUTOR])

    def test_seed_determinism(self):
        assert generate_cohort(study_like_cohort()) == generate_cohort(study_like_cohort())

    def test_different_seeds_differ(self):
        assert generate_cohort(study_like_cohort(1)) != generate_cohort(study_like_cohort(2))

    def test_metadata_records_generator(self):
        ds = generate_cohort(study_like_cohort())
        assert ds.metadata["generator"] == synth.GENERATOR_ID
        assert ds.metadata["seed"] == "11"

    def test_generated_data_flows_through_ingestion(self, tmp_path):
        from collabnet.model import load_dataset, validate_dataset, write_dataset
        ds = generate_cohort(study_like_cohort())
        write_dataset(ds, tmp_path, fmt="csv")
        again = load_dataset(tmp_path)
        assert validate_dataset(again) == []
        assert again.interactions == ds.interactions

    def test_plants_each_band_pair_once(self, monkeypatch):
        calls = []

        def counting(spec, quantity_band, heterogeneity_band):
            calls.append((quantity_band, heterogeneity_band))
            return plant_contribution(spec, quantity_band, heterogeneity_band)

        monkeypatch.setattr(synth, "plant_contribution", counting)
        cohort = study_like_cohort()
        generate_cohort(cohort)
        assert calls == [(t.quantity_band, t.heterogeneity_band) for t in cohort.targets]
        calls.clear()
        per_student = dataclasses.replace(cohort, targets=cohort.targets * 7)
        assert generate_cohort(per_student) == generate_cohort(cohort)
        assert len(calls) == 3 + 3

    def test_first_infeasible_target_raises_first(self):
        cohort = PlantedCohortSpec(
            seed=3, groups=1, group_size=3, project=TP1_TEMPLATE,
            targets=(
                RoleTarget(Role.FREE_RIDER, (0.0, 0.25), (0.0, 0.35)),
                RoleTarget(Role.SPECIALIZED_CONTRIBUTOR, (0.97, 0.99), (0.0, 0.1)),
                RoleTarget(Role.SPECIALIZED_CONTRIBUTOR, (0.95, 0.99), (0.0, 0.1)),
            ),
        )
        with pytest.raises(InfeasibleTargetError, match=r"quantity band \[0\.97, 0\.99\]"):
            generate_cohort(cohort)

    def test_construction_check_fires(self, monkeypatch):
        monkeypatch.setattr(synth, "plant_contribution", lambda spec, q, h: ())
        with pytest.raises(InfeasibleTargetError,
                           match=r"planted student 'S1' measured \(0\.0000, 0\.0000\),"
                                 r" outside bands \(0\.65, 0\.9\) x \(0\.7, 0\.95\)"):
            generate_cohort(study_like_cohort())

    def test_per_student_targets(self):
        spec = PlantedCohortSpec(
            seed=3, groups=2, group_size=2, project=TP1_TEMPLATE,
            targets=(
                RoleTarget(Role.COMPREHENSIVE_CONTRIBUTOR, (0.65, 0.9), (0.7, 0.95),
                           is_leader=True),
                RoleTarget(Role.FREE_RIDER, (0.0, 0.2), (0.0, 0.3)),
                RoleTarget(Role.VERSATILE_PARTICIPANT, (0.1, 0.3), (0.65, 0.9),
                           is_leader=True),
                RoleTarget(Role.VERSATILE_PARTICIPANT, (0.1, 0.3), (0.65, 0.9)),
            ),
        )
        ds = generate_cohort(spec)
        profiles = {p.student_id: p for p in pipeline.project_profiles(ds)["TP1"]}
        assert profiles["S1"].role is Role.COMPREHENSIVE_CONTRIBUTOR
        assert profiles["S2"].role is Role.FREE_RIDER
        assert profiles["S3"].role is Role.VERSATILE_PARTICIPANT
        assert profiles["S3"].is_assigned_leader


class TestCohortSpecFile:
    def test_load_round_trip(self, tmp_path):
        doc = {
            "seed": 9,
            "groups": 2,
            "group_size": 3,
            "project": {
                "project_id": "TP1",
                "type_counts": {"Written": 35, "Research": 26, "Design": 17},
                "point_values": {"2": 19, "3": 30, "5": 17, "10": 12},
            },
            "targets": [
                {"role": "comprehensive_contributor",
                 "quantity_band": [0.65, 0.9],
                 "heterogeneity_band": [0.7, 0.95],
                 "is_leader": True},
                {"role": "versatile_participant",
                 "quantity_band": [0.08, 0.35],
                 "heterogeneity_band": [0.65, 0.95]},
                {"role": "free_rider",
                 "quantity_band": [0.0, 0.25],
                 "heterogeneity_band": [0.0, 0.35]},
            ],
        }
        path = tmp_path / "cohort.json"
        path.write_text(json.dumps(doc))
        spec = load_cohort_spec(path)
        assert spec.seed == 9
        assert spec.project.size == 78
        assert spec.targets[0].is_leader
        generate_cohort(spec)  # feasible end to end

    def test_missing_key_reported(self, tmp_path):
        path = tmp_path / "cohort.json"
        path.write_text(json.dumps({"seed": 1}))
        with pytest.raises(ValueError, match="missing cohort spec key"):
            load_cohort_spec(path)
