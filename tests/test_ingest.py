"""CSV and JSON ingest: the csv.reader parsers against a csv.DictReader oracle,
physical line numbers in error messages, one JSON parse per bundle, and
write_dataset output that loads back unchanged in either format.

The reference parsers below are the DictReader-based ones the package used
before it read CSVs positionally. They number rows by counting the rows
DictReader returns, so on a file with blank lines or quoted line breaks
their line numbers are mapped to physical lines before messages are
compared; every other byte of a message must match.
"""

import csv
import dataclasses
import io
import json
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from collabnet import cli, model
from collabnet.model import (
    TABLES,
    INTERACTION_FIELDS,
    SUBTASK_FIELDS,
    TEAM_FIELDS,
    DataFormatError,
    InteractionRecord,
    Dataset,
    ProjectSpec,
    Subtask,
    TeamRoster,
    load_dataset,
    parse_interactions,
    parse_project_specs,
    parse_team_rosters,
    write_dataset,
)

from conftest import FIXTURES

# ---------------------------------------------------------------------------
# Reference: the DictReader parsers
# ---------------------------------------------------------------------------


class _RefRowError(ValueError):
    pass


def _ref_rows(path, required):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise DataFormatError(f"{path}: missing column(s) {', '.join(missing)}")
        return list(enumerate(reader, start=2))


def _ref_value(row, column):
    value = row.get(column)
    if value is None or value == "":
        raise _RefRowError(f"missing value for {column!r}")
    return str(value)


def _ref_points(raw):
    try:
        points = int(raw)
    except (TypeError, ValueError):
        raise _RefRowError(f"points must be an integer, got {raw!r}") from None
    if points < 1:
        raise _RefRowError(f"points must be positive, got {points}")
    return points


def ref_project_specs(path):
    by_project, seen = {}, set()
    for loc, row in _ref_rows(path, SUBTASK_FIELDS):
        try:
            project_id = _ref_value(row, "project_id")
            subtask_id = _ref_value(row, "subtask_id")
            task_type = _ref_value(row, "task_type")
            points = _ref_points(row.get("points"))
            if (project_id, subtask_id) in seen:
                raise _RefRowError(f"duplicate subtask_id {subtask_id!r}")
        except _RefRowError as exc:
            raise DataFormatError(f"{path}:line[{loc}]: {exc}") from None
        seen.add((project_id, subtask_id))
        by_project.setdefault(project_id, []).append(
            Subtask(subtask_id=subtask_id, project_id=project_id,
                    task_type=task_type, points=points))
    return {pid: ProjectSpec(pid, tuple(sts)) for pid, sts in by_project.items()}


def ref_team_rosters(path):
    members, leaders, order = {}, {}, []
    for loc, row in _ref_rows(path, TEAM_FIELDS):
        try:
            project_id = _ref_value(row, "project_id")
            team_id = _ref_value(row, "team_id")
            student_id = _ref_value(row, "student_id")
            raw_leader = row.get("is_leader")
            if str(raw_leader) not in ("0", "1"):
                raise _RefRowError(f"is_leader must be 0 or 1, got {raw_leader!r}")
            key = (project_id, team_id)
            if str(raw_leader) == "1" and leaders.get(key, student_id) != student_id:
                raise _RefRowError(
                    f"team {team_id!r} in project {project_id!r} has two leaders")
        except _RefRowError as exc:
            raise DataFormatError(f"{path}:line[{loc}]: {exc}") from None
        if key not in members:
            members[key] = set()
            order.append(key)
        members[key].add(student_id)
        if str(raw_leader) == "1":
            leaders[key] = student_id
    return tuple(TeamRoster(team_id=tid, project_id=pid,
                            members=frozenset(members[(pid, tid)]),
                            leader=leaders.get((pid, tid)))
                 for pid, tid in order)


def ref_interactions(path):
    records = []
    for loc, row in _ref_rows(path, INTERACTION_FIELDS):
        ts = row.get("timestamp")
        try:
            records.append(InteractionRecord(
                project_id=_ref_value(row, "project_id"),
                team_id=_ref_value(row, "team_id"),
                student_id=_ref_value(row, "student_id"),
                subtask_id=_ref_value(row, "subtask_id"),
                timestamp=str(ts) if ts not in (None, "") else None,
            ))
        except _RefRowError as exc:
            raise DataFormatError(f"{path}:line[{loc}]: {exc}") from None
    return tuple(records)


PARSERS = {
    "subtasks": (SUBTASK_FIELDS, parse_project_specs, ref_project_specs),
    "teams": (TEAM_FIELDS, parse_team_rosters, ref_team_rosters),
    "interactions": (INTERACTION_FIELDS, parse_interactions, ref_interactions),
}

# ---------------------------------------------------------------------------
# Generated CSV files
# ---------------------------------------------------------------------------

# Each field is usually a value its column accepts, sometimes any of VALUES.
GOOD = {"points": ("1", "2", "10"), "is_leader": ("0", "0", "1")}
GOOD_TEXT = ("A", "B1", "x,y", 'say "hi"', "two\nlines", " ")
VALUES = ("", "0", "1", "-2", "A", "x,y", 'say "hi"', "two\nlines", " ")


@st.composite
def csv_files(draw, columns):
    """(text, physical start line of each non-blank data row) for a CSV file."""
    header = list(columns) + draw(st.lists(st.sampled_from(("extra", "notes")), max_size=2))
    header += draw(st.lists(st.sampled_from(columns), max_size=2))   # duplicate names
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(columns)))                # a missing column
    header = draw(st.permutations(header))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    starts = []
    for _ in range(draw(st.integers(0, 8))):
        out.write("\n" * draw(st.sampled_from((0, 0, 0, 1, 2))))      # blank lines
        width = len(header) + draw(st.sampled_from((0,) * 12 + (-1, -3, 1, 2)))
        names = header + ["extra"] * 2
        row = [draw(st.sampled_from(VALUES if draw(st.integers(0, 30)) == 0
                                    else GOOD.get(name, GOOD_TEXT)))
               for name in names[:max(width, 1)]]
        starts.append(out.getvalue().count("\n") + 1)
        writer.writerow(row)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + out.getvalue(), starts


def _outcome(parse, path):
    try:
        return "ok", parse(path)
    except DataFormatError as exc:
        return "error", str(exc)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest")


@pytest.mark.parametrize("name", list(PARSERS))
def test_parser_matches_dictreader_reference(name, scratch):
    columns, parse, reference = PARSERS[name]

    @given(csv_files(columns))
    @settings(max_examples=300, deadline=None)
    def check(generated):
        text, starts = generated
        path = scratch / f"{name}.csv"
        path.write_text(text, encoding="utf-8", newline="")
        got, expected = _outcome(parse, path), _outcome(reference, path)
        if expected[0] == "error":
            # the reference counts rows; the parser reports physical lines
            expected = ("error", re.sub(r":line\[(\d+)\]",
                                        lambda m: f":line[{starts[int(m[1]) - 2]}]",
                                        expected[1]))
        assert got == expected

    check()


# ---------------------------------------------------------------------------
# Physical line numbers
# ---------------------------------------------------------------------------

def _study_with(tmp_path, edit):
    data = tmp_path / "data"
    data.mkdir()
    for src in (FIXTURES / "study").glob("*.csv"):
        (data / src.name).write_bytes(src.read_bytes())
    path = data / "interactions.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    edit(lines)
    path.write_text("\n".join(lines), encoding="utf-8")
    return data, path


def _drop_student(lines, index):
    fields = lines[index].split(",")
    fields[2] = ""
    lines[index] = ",".join(fields)


def test_error_after_a_blank_line_names_the_physical_line(tmp_path):
    def edit(lines):
        lines.insert(3, "")           # physical line 4 is blank
        _drop_student(lines, 5)       # physical line 6
    data, path = _study_with(tmp_path, edit)
    with pytest.raises(DataFormatError) as info:
        load_dataset(data)
    assert str(info.value) == f"{path}:line[6]: missing value for 'student_id'"


def test_error_after_a_multiline_field_names_the_physical_line(tmp_path):
    def edit(lines):
        lines[2] += '"first\nsecond"'  # row 3's timestamp spans physical lines 3 and 4
        _drop_student(lines, 4)        # physical line 6
    data, path = _study_with(tmp_path, edit)
    with pytest.raises(DataFormatError) as info:
        load_dataset(data)
    assert str(info.value) == f"{path}:line[6]: missing value for 'student_id'"


def test_multiline_field_is_kept_whole(tmp_path):
    def edit(lines):
        lines[2] += '"first\nsecond"'
    _, path = _study_with(tmp_path, edit)
    plain = parse_interactions(FIXTURES / "study" / "interactions.csv")
    records = parse_interactions(path)
    assert records[1].timestamp == "first\nsecond"
    assert records[:1] + records[2:] == plain[:1] + plain[2:]


def test_error_without_blank_lines_keeps_its_row_number(tmp_path):
    data, path = _study_with(tmp_path, lambda lines: _drop_student(lines, 5))
    with pytest.raises(DataFormatError) as info:
        load_dataset(data)
    assert str(info.value) == f"{path}:line[6]: missing value for 'student_id'"


# ---------------------------------------------------------------------------
# JSON bundles
# ---------------------------------------------------------------------------

def test_json_bundle_is_parsed_once(study_dataset, tmp_path, monkeypatch):
    write_dataset(study_dataset, tmp_path, fmt="json")
    calls = []
    real_load = json.load

    def counting_load(fh, *args, **kwargs):
        calls.append(fh.name)
        return real_load(fh, *args, **kwargs)

    monkeypatch.setattr(model.json, "load", counting_load)
    assert load_dataset(tmp_path / "dataset.json") == study_dataset
    assert len(calls) == 1


@pytest.mark.parametrize("doc, message", [
    ([], "expected a JSON object with a 'projects' key"),
    ({"teams": [], "interactions": []}, "expected a JSON object with a 'projects' key"),
    ({"projects": [], "teams": 3, "interactions": {}}, "'teams' must be a list of row objects"),
    ({"projects": [{"project_id": "P1", "subtask_id": "A1", "task_type": "W",
                    "points": "x"}], "teams": 3},
     "projects[0]: points must be an integer, got 'x'"),
    ({"projects": [], "teams": [], "interactions": [], "metadata": [1]},
     "'metadata' must be an object"),
    ({"projects": [["P1", "A1", "W", 2]], "teams": 3},
     "projects[0]: row must be an object, got list"),
    ({"projects": [], "teams": [{"project_id": "P1", "team_id": "T1", "student_id": "S1",
                                 "is_leader": 1}, ["P1", "T1", "S2", 0]]},
     "teams[1]: row must be an object, got list"),
    ({"projects": [], "teams": [], "interactions": ["P1,T1,S1,A1"]},
     "interactions[0]: row must be an object, got str"),
    # str() loaded null as 'None', 1 as '1' and [1, 2] as '[1, 2]'
    ({"projects": [], "teams": [], "interactions": [], "metadata": {"a": "x", "seed": None}},
     ": metadata['seed'] must be a string, got None"),
    ({"projects": [], "teams": [], "interactions": [], "metadata": {"seed": 1}},
     ": metadata['seed'] must be a string, got 1"),
    ({"projects": [], "teams": [], "interactions": [], "metadata": {"seed": [1, 2]}},
     ": metadata['seed'] must be a string, got [1, 2]"),
])
def test_json_sections_fail_in_order(doc, message, tmp_path):
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        load_dataset(path)
    assert str(info.value).startswith(f"{path}")
    assert str(info.value).endswith(message)


def test_json_values_convert_as_before(tmp_path):
    doc = {
        "projects": [{"project_id": "P1", "subtask_id": 7, "task_type": "W", "points": 2.0}],
        "teams": [{"project_id": "P1", "team_id": 0, "student_id": False, "is_leader": 1}],
        "interactions": [{"project_id": "P1", "team_id": 0, "student_id": False,
                          "subtask_id": 7, "timestamp": 0}],
    }
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    ds = load_dataset(path)
    assert ds.projects["P1"].subtasks == (Subtask("7", "P1", "W", 2),)
    assert ds.rosters == (TeamRoster("0", "P1", frozenset({"False"}), "False"),)
    assert ds.interactions == (InteractionRecord("P1", "0", "False", "7", "0"),)


def test_fractional_points_rejected_in_csv(tmp_path):
    path = tmp_path / "subtasks.csv"
    path.write_text("project_id,subtask_id,task_type,points\nP1,A1,W,2.5\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        parse_project_specs(path)
    assert str(info.value) == f"{path}:line[2]: points must be an integer, got '2.5'"


@pytest.mark.parametrize("points, shown", [(2.5, "2.5"), (True, "True"), (False, "False"),
                                           (float("inf"), "inf"), (float("nan"), "nan")])
def test_json_points_must_be_integral(points, shown, tmp_path):
    # as in a CSV, where '2.5' is refused: no truncation to 2, no bool as 1
    doc = {"projects": [{"project_id": "P1", "subtask_id": "A1", "task_type": "W",
                         "points": points}], "teams": [], "interactions": []}
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}:projects[0]: points must be an integer, got {shown}"


# ---------------------------------------------------------------------------
# Rows the csv module refuses
# ---------------------------------------------------------------------------

LONG = "x" * 200_000   # over csv.field_size_limit()'s default of 131,072


def test_field_over_the_csv_limit_names_its_line(tmp_path):
    def edit(lines):
        lines.insert(3, "")                                 # physical line 4 is blank
        lines.insert(len(lines) - 1, f"TP1,Team 1,S01,{LONG},")
    data, path = _study_with(tmp_path, edit)
    last = len(path.read_text(encoding="utf-8").split("\n")) - 1
    with pytest.raises(DataFormatError) as info:
        load_dataset(data)
    assert str(info.value) == (
        f"{path}:line[{last}]: field larger than field limit ({csv.field_size_limit()})")


def test_header_over_the_csv_limit_is_line_one(tmp_path):
    path = tmp_path / "subtasks.csv"
    path.write_text(f"project_id,subtask_id,task_type,points,{LONG}\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        parse_project_specs(path)
    assert str(info.value).startswith(f"{path}:line[1]: field larger than field limit")


def test_field_over_the_csv_limit_exits_1_with_one_error_line(tmp_path, capsys):
    data, path = _study_with(tmp_path, lambda lines: lines.insert(-1, f"TP1,Team 1,S01,{LONG},"))
    assert cli.main(["analyze", "--data", str(data), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:line[") and err.count("\n") == 1
    assert not (tmp_path / "out" / "report.json").exists()


def test_nul_in_a_row_loads_or_names_its_line(tmp_path):
    # csv.reader refuses NUL before Python 3.11 and keeps it from 3.11 on
    data, path = _study_with(tmp_path, lambda lines: lines.__setitem__(
        2, lines[2].replace("Team", "Te\0am", 1)))
    if sys.version_info >= (3, 11):
        assert load_dataset(data).interactions[1].team_id.startswith("Te\0am")
    else:
        with pytest.raises(DataFormatError) as info:
            load_dataset(data)
        assert str(info.value) == f"{path}:line[3]: line contains NUL"


# ---------------------------------------------------------------------------
# Round trips through write_dataset
# ---------------------------------------------------------------------------

def test_a_bare_carriage_return_survives_a_csv_write(tmp_path):
    ds = Dataset(projects={"P1": ProjectSpec("P1", (Subtask("A1", "P1", "W", 2),))},
                 rosters=(TeamRoster("T1", "P1", frozenset({"cr\rx", "S2"}), "cr\rx"),),
                 interactions=(InteractionRecord("P1", "T1", "S2", "A1", "2024\r01"),
                               InteractionRecord("P1", "T1", "cr\rx", "A1", None)))
    write_dataset(ds, tmp_path)
    assert load_dataset(tmp_path) == ds
    # a row holding a bare \r is quoted whole; every other row keeps its plain bytes
    teams = (tmp_path / "teams.csv").read_bytes()
    assert teams == b'project_id,team_id,student_id,is_leader\nP1,T1,S2,0\n"P1","T1","cr\rx","1"\n'
    interactions = (tmp_path / "interactions.csv").read_bytes().split(b"\n")
    assert interactions[1:] == [b'"P1","T1","S2","A1","2024\r01"', b'"P1","T1","cr\rx","A1",""', b""]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_leader_who_is_not_a_member_is_not_written(fmt, tmp_path):
    # the leader flag rides on a member row, so the leader was dropped and the
    # reloaded dataset validated clean
    ds = Dataset(projects={"P1": ProjectSpec("P1", (Subtask("A1", "P1", "W", 2),))},
                 rosters=(TeamRoster("T1", "P1", frozenset({"S1", "S2"}), "S9"),),
                 interactions=())
    assert [v.kind for v in model.validate_dataset(ds)] == [model.LEADER_NOT_MEMBER]
    with pytest.raises(ValueError) as info:
        write_dataset(ds, tmp_path / "out", fmt=fmt)
    assert str(info.value) == "leader 'S9' of team 'T1' (project 'P1') is not a member"
    assert list((tmp_path / "out").iterdir()) == []


def test_tables_match_the_written_files(study_dataset, tmp_path):
    assert [p.name for p in write_dataset(study_dataset, tmp_path)] == [t.file for t in TABLES]
    for table in TABLES:
        header = (tmp_path / table.file).read_text(encoding="utf-8").split("\n", 1)[0]
        assert tuple(header.split(",")) == table.columns
    doc = json.loads(model.dataset_to_json(study_dataset))
    assert list(doc) == [t.key for t in TABLES]
    for table in TABLES:
        assert all(tuple(row) == table.columns for row in doc[table.key])


# Ids and timestamps hold what a CSV must quote or a reader could trip on:
# line breaks (a bare \r too), quotes, commas, a byte-order mark and non-ASCII.
# NUL is left out: csv.reader refuses it before Python 3.11.
ID_TEXT = st.text(st.sampled_from("\r\n\",\ufeff ") | st.characters(codec="utf-8",
                                                                     exclude_characters="\0"),
                  min_size=1, max_size=5)


@st.composite
def datasets(draw):
    projects, rosters = {}, []
    for pid in draw(st.lists(ID_TEXT, min_size=1, max_size=3, unique=True)):
        projects[pid] = ProjectSpec(pid, tuple(
            Subtask(sid, pid, draw(ID_TEXT), draw(st.integers(1, 10**6)))
            for sid in draw(st.lists(ID_TEXT, min_size=1, max_size=4, unique=True))))
        for tid in draw(st.lists(ID_TEXT, max_size=3, unique=True)):
            members = draw(st.frozensets(ID_TEXT, min_size=1, max_size=4))
            leader = draw(st.none() | st.sampled_from(sorted(members)))
            rosters.append(TeamRoster(tid, pid, members, leader))
    interactions = draw(st.lists(st.builds(InteractionRecord, ID_TEXT, ID_TEXT, ID_TEXT,
                                           ID_TEXT, st.none() | ID_TEXT), max_size=6))
    metadata = draw(st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=2))
    return Dataset(projects=projects, rosters=tuple(rosters),
                   interactions=tuple(interactions), metadata=metadata)


def test_any_dataset_survives_write_dataset(scratch):
    @given(datasets())
    @settings(max_examples=200, deadline=None)
    def check(ds):
        write_dataset(ds, scratch / "csv")
        assert load_dataset(scratch / "csv") == dataclasses.replace(ds, metadata={})
        write_dataset(ds, scratch / "json", fmt="json")
        assert load_dataset(scratch / "json" / "dataset.json") == ds

    check()
