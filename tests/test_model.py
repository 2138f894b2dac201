import dataclasses
import shutil

import pytest

from collabnet import model, pipeline
from collabnet.model import (
    DataFormatError,
    Dataset,
    InteractionRecord,
    ProjectSpec,
    Subtask,
    TeamRoster,
    dataset_to_json,
    load_dataset,
    parse_interactions,
    parse_project_specs,
    parse_team_rosters,
    validate_dataset,
    write_dataset,
)

from conftest import FIXTURES, make_dataset, make_interactions, make_roster, make_spec


class TestTypes:
    def test_subtask_rejects_nonpositive_points(self):
        with pytest.raises(ValueError, match="points"):
            Subtask("A1", "P1", "Written", 0)

    def test_subtask_rejects_empty_type(self):
        with pytest.raises(ValueError, match="task_type"):
            Subtask("A1", "P1", "", 2)

    @pytest.mark.parametrize("ids, field", [(("", "P1"), "subtask_id"),
                                            (("A1", ""), "project_id")])
    def test_subtask_rejects_empty_ids(self, ids, field):
        with pytest.raises(ValueError, match=f"^{field} must be nonempty$"):
            Subtask(*ids, "Written", 2)

    def test_project_spec_computes_capacities(self):
        spec = make_spec()
        assert spec.type_capacities == {"Written": 2, "Research": 2, "Design": 2}
        assert sum(spec.type_capacities.values()) == len(spec.subtasks)
        assert spec.total_weight == 25

    def test_project_spec_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_spec(rows=[("A1", "Written", 2), ("A1", "Design", 3)])

    def test_project_spec_rejects_empty(self):
        with pytest.raises(ValueError, match="no subtasks"):
            ProjectSpec("P1", ())

    def test_project_spec_rejects_foreign_subtask(self):
        st = Subtask("A1", "OTHER", "Written", 2)
        with pytest.raises(ValueError, match="belongs to"):
            ProjectSpec("P1", (st,))

    def test_roster_rejects_empty_members(self):
        with pytest.raises(ValueError, match="no members"):
            TeamRoster("T1", "P1", frozenset())

    def test_roster_allows_nonmember_leader_for_validation(self):
        # construction tolerates it; validate_dataset reports it
        roster = TeamRoster("T1", "P1", frozenset({"S1"}), leader="S9")
        assert roster.leader == "S9"

    @pytest.mark.parametrize("events", [(), (("A", "A1"), ("B", "A1"))])
    def test_dataset_rejects_a_repeated_roster_key(self, events):
        # refused at construction: validation indexes one roster per key, so it
        # would miss the clash without events and misreport A with them
        spec = make_spec()
        rosters = (make_roster(members=("A",), leader=None),
                   make_roster(members=("B",), leader=None),
                   make_roster(team_id="T2", members=("C",), leader=None))
        with pytest.raises(ValueError, match="^duplicate roster for team 'T1' in project 'P1'$"):
            Dataset(projects={"P1": spec}, rosters=rosters,
                    interactions=make_interactions(events))


class TestParsing:
    def test_study_subtasks_file_capacities(self):
        specs = parse_project_specs(FIXTURES / "study" / "subtasks.csv")
        assert len(specs["TP1"].subtasks) == 78
        assert specs["TP1"].type_capacities == {"Written": 35, "Research": 26, "Design": 17}
        assert specs["TP2"].type_capacities == {"Written": 22, "Analysis": 31, "Logistics": 5}

    def test_single_subtask_file(self, tmp_path):
        f = tmp_path / "subtasks.csv"
        f.write_text("project_id,subtask_id,task_type,points\nP1,A1,Solo,4\n")
        (spec,) = parse_project_specs(f).values()
        assert spec.type_capacities == {"Solo": 1}
        assert len(spec.type_capacities) == 1

    def test_zero_points_names_the_row(self, tmp_path):
        f = tmp_path / "subtasks.csv"
        f.write_text("project_id,subtask_id,task_type,points\n"
                     "P1,A1,Written,2\nP1,A2,Written,0\n")
        with pytest.raises(DataFormatError, match="line\\[3\\]"):
            parse_project_specs(f)

    def test_duplicate_subtask_id_rejected(self, tmp_path):
        f = tmp_path / "subtasks.csv"
        f.write_text("project_id,subtask_id,task_type,points\n"
                     "P1,A1,Written,2\nP1,A1,Design,3\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            parse_project_specs(f)

    def test_interactions_in_file_order_with_duplicates(self, tmp_path):
        f = tmp_path / "interactions.csv"
        f.write_text("project_id,team_id,student_id,subtask_id,timestamp\n"
                     "P1,T1,S1,A1,\nP1,T1,S1,A2,2024-03-01T10:00:00\nP1,T1,S1,A1,\n")
        records = parse_interactions(f)
        assert len(records) == 3
        assert [r.subtask_id for r in records] == ["A1", "A2", "A1"]
        assert records[0].timestamp is None
        assert records[1].timestamp == "2024-03-01T10:00:00"

    def test_interactions_header_only(self, tmp_path):
        f = tmp_path / "interactions.csv"
        f.write_text("project_id,team_id,student_id,subtask_id,timestamp\n")
        assert parse_interactions(f) == ()

    def test_interactions_missing_value_names_row(self, tmp_path):
        f = tmp_path / "interactions.csv"
        f.write_text("project_id,team_id,student_id,subtask_id,timestamp\n"
                     "P1,T1,S1,,\n")
        with pytest.raises(DataFormatError, match="line\\[2\\].*subtask_id"):
            parse_interactions(f)

    def test_missing_column_rejected(self, tmp_path):
        f = tmp_path / "interactions.csv"
        f.write_text("project_id,team_id,student_id\nP1,T1,S1\n")
        with pytest.raises(DataFormatError, match="subtask_id"):
            parse_interactions(f)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="format"):
            write_dataset(make_dataset(), tmp_path, fmt="xml")

    def test_invalid_json_bundle_reported(self, tmp_path):
        f = tmp_path / "dataset.json"
        f.write_text("{not json")
        with pytest.raises(DataFormatError, match="invalid JSON"):
            load_dataset(f)
        f.write_text('{"projects": [], "teams": []}')
        with pytest.raises(DataFormatError, match="interactions"):
            load_dataset(f)

    def test_team_rosters_leader_flag(self, tmp_path):
        f = tmp_path / "teams.csv"
        f.write_text("project_id,team_id,student_id,is_leader\n"
                     "P1,T1,S1,1\nP1,T1,S2,0\nP1,T2,S3,0\n")
        rosters = parse_team_rosters(f)
        assert len(rosters) == 2
        assert rosters[0].leader == "S1"
        assert rosters[1].leader is None

    def test_team_rosters_two_leaders_rejected(self, tmp_path):
        f = tmp_path / "teams.csv"
        f.write_text("project_id,team_id,student_id,is_leader\n"
                     "P1,T1,S1,1\nP1,T1,S2,1\n")
        with pytest.raises(DataFormatError, match="two leaders"):
            parse_team_rosters(f)

    def test_team_rosters_bad_flag_rejected(self, tmp_path):
        f = tmp_path / "teams.csv"
        f.write_text("project_id,team_id,student_id,is_leader\nP1,T1,S1,yes\n")
        with pytest.raises(DataFormatError, match="is_leader"):
            parse_team_rosters(f)


class TestDatasetIO:
    def test_load_study_fixture(self, study_dataset):
        assert study_dataset.project_ids() == ("TP1", "TP2")
        assert len(study_dataset.rosters_for_project("TP1")) == 7
        assert len(study_dataset.rosters_for_project("TP2")) == 6
        members = {s for r in study_dataset.rosters_for_project("TP1") for s in r.members}
        assert len(members) == 21

    def test_missing_paths(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.json")

    def test_json_round_trip(self, study_dataset, tmp_path):
        write_dataset(study_dataset, tmp_path, fmt="json")
        again = load_dataset(tmp_path / "dataset.json")
        assert again == study_dataset
        # the bundle written back to CSV is the fixture, byte for byte
        for path in write_dataset(again, tmp_path / "csv"):
            assert path.read_bytes() == (FIXTURES / "study" / path.name).read_bytes(), path.name

    def test_csv_round_trip(self, study_dataset, tmp_path):
        write_dataset(study_dataset, tmp_path, fmt="csv")
        again = load_dataset(tmp_path)
        # CSV carries no metadata block
        assert again == dataclasses.replace(study_dataset, metadata={})

    def test_round_trip_preserves_metadata(self, tmp_path):
        ds = dataclasses.replace(make_dataset(), metadata={"generator": "x", "seed": "1"})
        write_dataset(ds, tmp_path, fmt="json")
        assert load_dataset(tmp_path / "dataset.json").metadata == ds.metadata

    def test_serialization_deterministic(self, study_dataset):
        assert dataset_to_json(study_dataset) == dataset_to_json(study_dataset)

    def test_utf8_bom_csv_matches_plain(self, tmp_path):
        # spreadsheet exports often prefix each CSV with a UTF-8 byte-order mark
        for src in (FIXTURES / "study").glob("*.csv"):
            (tmp_path / src.name).write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        bom = load_dataset(tmp_path)
        plain = load_dataset(FIXTURES / "study")
        assert bom == plain
        assert pipeline.project_profiles(bom) == pipeline.project_profiles(plain)

    def test_utf8_bom_json_matches_plain(self, study_dataset, tmp_path):
        write_dataset(study_dataset, tmp_path, fmt="json")
        bundle = tmp_path / "dataset.json"
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + bundle.read_bytes())
        assert load_dataset(bom) == load_dataset(bundle)

    def test_parsing_deterministic(self):
        a = load_dataset(FIXTURES / "study")
        b = load_dataset(FIXTURES / "study")
        assert a == b

    def test_empty_timestamp_round_trips(self, tmp_path):
        ds = make_dataset(interactions=make_interactions([("S1", "A1")]))
        write_dataset(ds, tmp_path, fmt="json")
        again = load_dataset(tmp_path / "dataset.json")
        assert again.interactions[0].timestamp is None


class TestValidation:
    def test_consistent_dataset_is_clean(self, study_dataset):
        assert validate_dataset(study_dataset) == []

    def test_unknown_subtask(self):
        ds = make_dataset(interactions=make_interactions([("S1", "A1"), ("S1", "ZZ")]))
        violations = validate_dataset(ds)
        assert [v.kind for v in violations] == [model.UNKNOWN_SUBTASK]
        assert "ZZ" in violations[0].message

    def test_leader_not_member(self):
        roster = TeamRoster("T1", "P1", frozenset({"S1", "S2"}), leader="S9")
        ds = make_dataset(roster=roster)
        kinds = [v.kind for v in validate_dataset(ds)]
        assert kinds == [model.LEADER_NOT_MEMBER]

    def test_student_not_in_roster(self):
        ds = make_dataset(interactions=make_interactions([("S99", "A1")]))
        kinds = [v.kind for v in validate_dataset(ds)]
        assert kinds == [model.STUDENT_NOT_IN_ROSTER]

    def test_unknown_team_and_project(self):
        spec = make_spec()
        ds = Dataset(
            projects={spec.project_id: spec},
            rosters=(make_roster(),),
            interactions=(
                InteractionRecord("P1", "T9", "S1", "A1"),
                InteractionRecord("P9", "T1", "S1", "A1"),
            ),
        )
        kinds = {v.kind for v in validate_dataset(ds)}
        assert model.UNKNOWN_TEAM in kinds
        assert model.UNKNOWN_PROJECT in kinds

    def test_team_of_a_project_without_subtasks(self, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(FIXTURES / "study", data)
        with open(data / "teams.csv", "a", encoding="utf-8") as fh:
            fh.write("TP9,Team_X,S99,0\n")
        violations = validate_dataset(load_dataset(data))
        assert [(v.kind, v.message) for v in violations] == [
            (model.UNKNOWN_PROJECT, "team 'Team_X' references unknown project 'TP9'")]

    def test_student_in_multiple_teams(self):
        spec = make_spec()
        ds = Dataset(
            projects={spec.project_id: spec},
            rosters=(
                make_roster(team_id="T1", members=("S1", "S2"), leader=None),
                make_roster(team_id="T2", members=("S1", "S3"), leader=None),
            ),
            interactions=(),
        )
        kinds = [v.kind for v in validate_dataset(ds)]
        assert kinds == [model.STUDENT_IN_MULTIPLE_TEAMS]

    def test_violations_do_not_mutate(self):
        ds = make_dataset(interactions=make_interactions([("S99", "ZZ")]))
        before = dataset_to_json(ds)
        validate_dataset(ds)
        assert dataset_to_json(ds) == before
