"""Domain model for student-subtask collaboration datasets.

Defines the core entities (subtasks, project specs, team rosters,
interaction events), ingestion from CSV files or a single JSON bundle,
canonical serialization, and referential-integrity validation.

On-disk formats
---------------
subtasks.csv      header: project_id,subtask_id,task_type,points
teams.csv         header: project_id,team_id,student_id,is_leader   (is_leader in {0,1})
interactions.csv  header: project_id,team_id,student_id,subtask_id,timestamp
                  (timestamp ISO-8601 or empty; kept as provenance, unused by measures)
dataset.json      one object with keys "projects", "teams", "interactions",
                  each a list of row objects mirroring the CSV fields; an
                  optional "metadata" object carries string provenance tags.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

SUBTASK_FIELDS = ("project_id", "subtask_id", "task_type", "points")
TEAM_FIELDS = ("project_id", "team_id", "student_id", "is_leader")
INTERACTION_FIELDS = ("project_id", "team_id", "student_id", "subtask_id", "timestamp")

# Violation kinds reported by validate_dataset
UNKNOWN_PROJECT = "UnknownProject"
UNKNOWN_TEAM = "UnknownTeam"
UNKNOWN_SUBTASK = "UnknownSubtask"
STUDENT_NOT_IN_ROSTER = "StudentNotInRoster"
LEADER_NOT_MEMBER = "LeaderNotMember"
STUDENT_IN_MULTIPLE_TEAMS = "StudentInMultipleTeams"


class DataFormatError(ValueError):
    """Malformed input data; the message names the file location when known."""


@dataclass(frozen=True, slots=True)
class Subtask:
    """One teacher-authored unit of work with a type label and point value."""

    subtask_id: str
    project_id: str
    task_type: str
    points: int

    def __post_init__(self):
        if not self.subtask_id:
            raise ValueError("subtask_id must be nonempty")
        if not self.project_id:
            raise ValueError("project_id must be nonempty")
        if not self.task_type:
            raise ValueError("task_type must be nonempty")
        if not isinstance(self.points, int) or self.points < 1:
            raise ValueError(f"points must be a positive integer, got {self.points!r}")


@dataclass(frozen=True)
class ProjectSpec:
    """The task design of one project: an ordered collection of subtasks."""

    project_id: str
    subtasks: tuple[Subtask, ...]
    type_capacities: dict[str, int] = field(init=False, compare=False, repr=False)
    total_weight: int = field(init=False, compare=False, repr=False)
    subtask_ids: tuple[str, ...] = field(init=False, compare=False, repr=False)
    _by_id: dict[str, Subtask] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "subtasks", tuple(self.subtasks))
        if not self.subtasks:
            raise ValueError(f"project {self.project_id!r} has no subtasks")
        by_id: dict[str, Subtask] = {}
        caps: dict[str, int] = {}
        for st in self.subtasks:
            if st.project_id != self.project_id:
                raise ValueError(
                    f"subtask {st.subtask_id!r} belongs to project {st.project_id!r},"
                    f" not {self.project_id!r}"
                )
            if st.subtask_id in by_id:
                raise ValueError(f"duplicate subtask_id {st.subtask_id!r}")
            by_id[st.subtask_id] = st
            caps[st.task_type] = caps.get(st.task_type, 0) + 1
        object.__setattr__(self, "type_capacities", caps)
        object.__setattr__(self, "total_weight", sum(st.points for st in self.subtasks))
        object.__setattr__(self, "subtask_ids", tuple(by_id))
        object.__setattr__(self, "_by_id", by_id)

    def subtask(self, subtask_id: str) -> Subtask:
        return self._by_id[subtask_id]


@dataclass(frozen=True, slots=True)
class TeamRoster:
    """Membership of one team in one project, with an optional assigned leader.

    Leader membership is deliberately not enforced here; validate_dataset
    reports it as a LeaderNotMember violation so that inconsistent data can
    be surfaced instead of rejected at construction.
    """

    team_id: str
    project_id: str
    members: frozenset[str]
    leader: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if not self.members:
            raise ValueError(f"team {self.team_id!r} has no members")


@dataclass(frozen=True, slots=True)
class InteractionRecord:
    """One raw student-subtask interaction event."""

    project_id: str
    team_id: str
    student_id: str
    subtask_id: str
    timestamp: str | None = None


@dataclass(frozen=True, slots=True)
class Violation:
    """One referential-integrity breach; violations are data, not errors."""

    kind: str
    message: str


@dataclass(frozen=True)
class Dataset:
    """A full input bundle: project specs, team rosters, interaction events.

    Rosters are sorted by (project_id, team_id), and a key repeated across
    two rosters is refused. Interactions are indexed by (project_id, team_id)
    once, at construction, so per-team lookups do not rescan the events.
    """

    projects: dict[str, ProjectSpec]
    rosters: tuple[TeamRoster, ...]
    interactions: tuple[InteractionRecord, ...]
    metadata: dict[str, str] = field(default_factory=dict)
    _interaction_index: dict[tuple[str, str], tuple[InteractionRecord, ...]] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        ordered = tuple(sorted(self.rosters, key=lambda r: (r.project_id, r.team_id)))
        for r0, r1 in zip(ordered, ordered[1:]):
            if (r0.project_id, r0.team_id) == (r1.project_id, r1.team_id):
                raise ValueError(
                    f"duplicate roster for team {r1.team_id!r} in project {r1.project_id!r}")
        object.__setattr__(self, "rosters", ordered)
        object.__setattr__(self, "interactions", tuple(self.interactions))
        groups: dict[tuple[str, str], list[InteractionRecord]] = {}
        for rec in self.interactions:
            groups.setdefault((rec.project_id, rec.team_id), []).append(rec)
        object.__setattr__(self, "_interaction_index",
                           {key: tuple(recs) for key, recs in groups.items()})

    def project_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.projects))

    def rosters_for_project(self, project_id: str) -> tuple[TeamRoster, ...]:
        return tuple(r for r in self.rosters if r.project_id == project_id)

    def interactions_for(self, project_id: str, team_id: str) -> tuple[InteractionRecord, ...]:
        """The team's events in file order; empty for an unknown team."""
        return self._interaction_index.get((project_id, team_id), ())


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _require_format(fmt: str) -> str:
    if fmt not in ("csv", "json"):
        raise DataFormatError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    return fmt


# Columns quoted raw in their error messages; every other column is text.
_RAW_COLUMNS = frozenset({"points", "is_leader"})


def _read_csv_rows(path, columns: tuple[str, ...]):
    """Yield (line, values) for each non-blank CSV row, after checking the header.

    values holds the row's fields named by columns, in that order. The rules
    are csv.DictReader's, without a dict per row: a repeated header name
    takes its last column, a field past the end of a short row reads None,
    and extra fields are ignored. line is the physical line on which the
    row starts, so blank lines and quoted line breaks are counted.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        index = {name: i for i, name in enumerate(next(reader, []))}
        missing = [c for c in columns if c not in index]
        if missing:
            raise DataFormatError(f"{path}: missing column(s) {', '.join(missing)}")
        positions = [index[c] for c in columns]
        pick, width = itemgetter(*positions), max(positions) + 1
        line = reader.line_num + 1
        for row in reader:
            if len(row) >= width:
                yield line, pick(row)
            elif row:
                yield line, tuple(row[i] if i < len(row) else None for i in positions)
            line = reader.line_num + 1


def _read_json(path):
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc


def _json_text(value) -> str | None:
    """A JSON value as a CSV field would carry it: str, or None when missing."""
    return None if value is None or value == "" else str(value)


def _json_rows(doc, path, key: str, columns: tuple[str, ...]):
    """One section of a parsed JSON bundle as (index, values) pairs.

    The section is checked at the call. values holds the row's fields named
    by columns, in that order, with text columns converted by _json_text.
    """
    if not isinstance(doc, dict) or key not in doc:
        raise DataFormatError(f"{path}: expected a JSON object with a {key!r} key")
    section = doc[key]
    if not isinstance(section, list):
        raise DataFormatError(f"{path}: {key!r} must be a list of row objects")
    raw = [c in _RAW_COLUMNS for c in columns]

    def rows():
        for i, row in enumerate(section):
            if not isinstance(row, dict):
                raise DataFormatError(f"{_location(path, 'json', key, i)}: row must be "
                                      f"an object, got {type(row).__name__}")
            yield i, tuple(row.get(c) if r else _json_text(row.get(c))
                           for c, r in zip(columns, raw))
    return rows()


class _RowError(ValueError):
    """A rejected value; the caller prefixes its location (row or spec file) to the message."""


def _location(path, fmt: str, section: str, loc: int) -> str:
    return f"{path}:{'line' if fmt == 'csv' else section}[{loc}]"


def _require_values(values, columns: tuple[str, ...]) -> None:
    """Reject the row at its first missing value, in column order."""
    for value, column in zip(values, columns):
        if value is None or value == "":
            raise _RowError(f"missing value for {column!r}")


def _parse_integer(raw, what: str) -> int:
    """An integer from CSV text or a JSON value; JSON bools and fractional
    (or non-finite) numbers are refused, as '2.5' is in a CSV."""
    try:
        if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
            raise ValueError
        return int(raw)
    except (TypeError, ValueError):
        raise _RowError(f"{what} must be an integer, got {raw!r}") from None


def _project_specs(rows, path, fmt: str) -> dict[str, ProjectSpec]:
    by_project: dict[str, list[Subtask]] = {}
    seen: set[tuple[str, str]] = set()
    for loc, (project_id, subtask_id, task_type, raw_points) in rows:
        try:
            _require_values((project_id, subtask_id, task_type), SUBTASK_FIELDS)
            points = _parse_integer(raw_points, "points")
            if points < 1:
                raise _RowError(f"points must be positive, got {points}")
            if (project_id, subtask_id) in seen:
                raise _RowError(f"duplicate subtask_id {subtask_id!r}")
        except _RowError as exc:
            raise DataFormatError(f"{_location(path, fmt, 'projects', loc)}: {exc}") from None
        seen.add((project_id, subtask_id))
        by_project.setdefault(project_id, []).append(
            Subtask(subtask_id, project_id, task_type, points))
    return {pid: ProjectSpec(pid, tuple(sts)) for pid, sts in by_project.items()}


def parse_project_specs(path) -> dict[str, ProjectSpec]:
    """Parse subtasks.csv rows into one ProjectSpec per project, in file order."""
    return _project_specs(_read_csv_rows(path, SUBTASK_FIELDS), path, "csv")


def _team_rosters(rows, path, fmt: str) -> tuple[TeamRoster, ...]:
    members: dict[tuple[str, str], set[str]] = {}
    leaders: dict[tuple[str, str], str] = {}
    for loc, (project_id, team_id, student_id, raw_leader) in rows:
        try:
            _require_values((project_id, team_id, student_id), TEAM_FIELDS)
            if str(raw_leader) not in ("0", "1"):
                raise _RowError(f"is_leader must be 0 or 1, got {raw_leader!r}")
            key = (project_id, team_id)
            is_leader = str(raw_leader) == "1"
            if is_leader and leaders.get(key, student_id) != student_id:
                raise _RowError(
                    f"team {team_id!r} in project {project_id!r} has two leaders")
        except _RowError as exc:
            raise DataFormatError(f"{_location(path, fmt, 'teams', loc)}: {exc}") from None
        members.setdefault(key, set()).add(student_id)
        if is_leader:
            leaders[key] = student_id
    return tuple(TeamRoster(tid, pid, frozenset(team), leaders.get((pid, tid)))
                 for (pid, tid), team in members.items())


def parse_team_rosters(path) -> tuple[TeamRoster, ...]:
    """Parse teams.csv membership rows into rosters, one per (project, team)."""
    return _team_rosters(_read_csv_rows(path, TEAM_FIELDS), path, "csv")


def _interactions(rows, path, fmt: str) -> tuple[InteractionRecord, ...]:
    records = []
    append = records.append
    for loc, (project_id, team_id, student_id, subtask_id, ts) in rows:
        if not (project_id and team_id and student_id and subtask_id):
            try:
                _require_values((project_id, team_id, student_id, subtask_id),
                                INTERACTION_FIELDS)
            except _RowError as exc:
                raise DataFormatError(
                    f"{_location(path, fmt, 'interactions', loc)}: {exc}") from None
        append(InteractionRecord(project_id, team_id, student_id, subtask_id, ts or None))
    return tuple(records)


def parse_interactions(path) -> tuple[InteractionRecord, ...]:
    """Parse interactions.csv events in file order; duplicates are preserved."""
    return _interactions(_read_csv_rows(path, INTERACTION_FIELDS), path, "csv")


def load_dataset(path) -> Dataset:
    """Load a dataset from a directory of the three CSVs or a JSON bundle file.

    A directory is read as CSVs, anything else as a JSON bundle. The bundle
    is parsed once; its sections are then checked in the order projects,
    teams, interactions, metadata.
    """
    path = Path(path)
    if path.is_dir():
        projects = parse_project_specs(path / "subtasks.csv")
        rosters = parse_team_rosters(path / "teams.csv")
        interactions = parse_interactions(path / "interactions.csv")
        metadata = {}
    else:
        if not path.is_file():
            raise FileNotFoundError(f"dataset bundle not found: {path}")
        doc = _read_json(path)
        projects = _project_specs(
            _json_rows(doc, path, "projects", SUBTASK_FIELDS), path, "json")
        rosters = _team_rosters(_json_rows(doc, path, "teams", TEAM_FIELDS), path, "json")
        interactions = _interactions(
            _json_rows(doc, path, "interactions", INTERACTION_FIELDS), path, "json")
        metadata = doc.get("metadata", {})
        if not isinstance(metadata, dict):
            raise DataFormatError(f"{path}: 'metadata' must be an object")
        metadata = {str(k): str(v) for k, v in metadata.items()}
    return Dataset(projects=projects, rosters=rosters,
                   interactions=interactions, metadata=metadata)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_text(path, text: str) -> Path:
    """Write text to path as UTF-8, over the file's old bytes; returns the path.

    Every file collabnet writes goes through here. The file is opened without
    O_TRUNC and cut to the new length after the write. A truncate to zero
    would make ext4 (auto_da_alloc) start the file's writeback when it is
    closed, which costs a re-run into the same directory several times a
    first run's writes; writing over the old bytes never starts that flush.
    A new file gets the mode open(path, "w") would give it; an existing file
    keeps its mode. Line endings are written as given, on every platform.
    The write is neither atomic nor synced: after a crash the file may hold
    old and new bytes mixed, and a re-run rewrites it.
    """
    path = Path(path)
    data = text.encode("utf-8")
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
    return path


def json_text(doc) -> str:
    """A JSON document as collabnet writes every JSON file: indent 2, newline-ended."""
    return json.dumps(doc, indent=2) + "\n"


def _subtask_rows(dataset: Dataset) -> list[dict]:
    rows = []
    for pid in sorted(dataset.projects):
        for st in dataset.projects[pid].subtasks:
            rows.append({"project_id": pid, "subtask_id": st.subtask_id,
                         "task_type": st.task_type, "points": st.points})
    return rows


def _team_rows(dataset: Dataset) -> list[dict]:
    rows = []
    for roster in dataset.rosters:
        for student in sorted(roster.members):
            rows.append({"project_id": roster.project_id, "team_id": roster.team_id,
                         "student_id": student,
                         "is_leader": 1 if student == roster.leader else 0})
    return rows


def _interaction_rows(dataset: Dataset) -> list[dict]:
    return [{"project_id": i.project_id, "team_id": i.team_id,
             "student_id": i.student_id, "subtask_id": i.subtask_id,
             "timestamp": i.timestamp or ""}
            for i in dataset.interactions]


def dataset_to_json(dataset: Dataset) -> str:
    """Serialize to the canonical JSON bundle (deterministic byte output)."""
    doc = {
        "projects": _subtask_rows(dataset),
        "teams": _team_rows(dataset),
        "interactions": _interaction_rows(dataset),
    }
    if dataset.metadata:
        doc["metadata"] = {k: dataset.metadata[k] for k in sorted(dataset.metadata)}
    return json_text(doc)


def write_dataset(dataset: Dataset, out_dir, fmt: str = "csv") -> list[Path]:
    """Write the dataset in canonical form; returns the paths written."""
    _require_format(fmt)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        return [write_text(out_dir / "dataset.json", dataset_to_json(dataset))]
    written = []
    for name, fields, rows in (
        ("subtasks.csv", SUBTASK_FIELDS, _subtask_rows(dataset)),
        ("teams.csv", TEAM_FIELDS, _team_rows(dataset)),
        ("interactions.csv", INTERACTION_FIELDS, _interaction_rows(dataset)),
    ):
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(fields), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        written.append(write_text(out_dir / name, buf.getvalue()))
    return written


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_dataset(dataset: Dataset) -> list[Violation]:
    """List every referential-integrity breach; an empty list means valid.

    Pure function: the dataset is never mutated, and violations are returned
    as data rather than raised.
    """
    violations: list[Violation] = []
    roster_index: dict[tuple[str, str], TeamRoster] = {}

    for roster in dataset.rosters:
        roster_index[(roster.project_id, roster.team_id)] = roster
        if roster.project_id not in dataset.projects:
            violations.append(Violation(
                UNKNOWN_PROJECT,
                f"team {roster.team_id!r} references unknown project {roster.project_id!r}",
            ))
        if roster.leader is not None and roster.leader not in roster.members:
            violations.append(Violation(
                LEADER_NOT_MEMBER,
                f"leader {roster.leader!r} of team {roster.team_id!r}"
                f" (project {roster.project_id!r}) is not a member",
            ))

    teams_by_student: dict[tuple[str, str], list[str]] = {}
    for roster in dataset.rosters:
        for student in roster.members:
            teams_by_student.setdefault((roster.project_id, student), []).append(roster.team_id)
    for (pid, student), team_ids in sorted(teams_by_student.items()):
        if len(team_ids) > 1:
            violations.append(Violation(
                STUDENT_IN_MULTIPLE_TEAMS,
                f"student {student!r} belongs to teams {sorted(team_ids)}"
                f" in project {pid!r}",
            ))

    known_subtasks = {pid: spec._by_id for pid, spec in dataset.projects.items()}
    for idx, rec in enumerate(dataset.interactions):
        subtasks = known_subtasks.get(rec.project_id)
        roster = roster_index.get((rec.project_id, rec.team_id))
        if (subtasks is not None and rec.subtask_id in subtasks
                and roster is not None and rec.student_id in roster.members):
            continue
        ident = (f"interaction[{idx}] ({rec.student_id!r} on {rec.subtask_id!r},"
                 f" team {rec.team_id!r}, project {rec.project_id!r})")
        if subtasks is None:
            violations.append(Violation(
                UNKNOWN_PROJECT, f"{ident}: unknown project"))
        elif rec.subtask_id not in subtasks:
            violations.append(Violation(
                UNKNOWN_SUBTASK, f"{ident}: unknown subtask"))
        if roster is None:
            violations.append(Violation(
                UNKNOWN_TEAM, f"{ident}: no roster for this team"))
        elif rec.student_id not in roster.members:
            violations.append(Violation(
                STUDENT_NOT_IN_ROSTER, f"{ident}: student not on this team"))
    return violations
