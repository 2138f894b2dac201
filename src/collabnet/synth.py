"""Synthetic cohorts with planted roles.

The generator constructs each student's subtask set explicitly: it picks a
per-type count mix whose normalized entropy lands in the requested
heterogeneity band, then swaps cheap subtasks for expensive ones until the
weighted share lands in the requested quantity band. Construction either
succeeds or reports the binding constraint; there is no rejection sampling.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from . import measures, pipeline
from .model import (Dataset, InteractionRecord, ProjectSpec, Subtask, TeamRoster,
                    _parse_integer, _read_json)
from .roles import DEFAULT_THRESHOLDS, QUADRANTS, Role

GENERATOR_ID = "planted-cohort-v1"
_MAX_HISTOGRAM_CANDIDATES = 2_000_000


class InfeasibleTargetError(ValueError):
    """A planted target cannot be met; the message names the binding constraint."""


# ---------------------------------------------------------------------------
# Cohort specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectTemplate:
    """Compact project design: subtask counts per type and per point value."""

    project_id: str
    type_counts: dict[str, int]
    point_values: dict[int, int]

    def __post_init__(self):
        if not self.project_id:
            raise ValueError("project_id must be nonempty")
        n_types = sum(self.type_counts.values())
        n_points = sum(self.point_values.values())
        if n_types < 1:
            raise ValueError("template needs at least one subtask")
        if n_types != n_points:
            raise ValueError(
                f"type counts ({n_types}) and point value counts ({n_points}) disagree"
            )
        for t, c in self.type_counts.items():
            if c < 1:
                raise ValueError(f"type {t!r} must have a positive count")
        for p, c in self.point_values.items():
            if p < 1 or c < 1:
                raise ValueError("point values and their counts must be positive")

    @property
    def size(self) -> int:
        return sum(self.type_counts.values())


_PLANT_MARGIN = 0.05


def _check_band(band: tuple[float, float], high: bool, cut: float, what: str, role: Role):
    lo, hi = band
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"{what} band {band} must satisfy 0 <= lo <= hi <= 1")
    if high and lo < cut + _PLANT_MARGIN:
        raise ValueError(
            f"{what} band {band} for {role.value} must start at or above "
            f"{cut + _PLANT_MARGIN} (margin {_PLANT_MARGIN} from the {cut} cut)"
        )
    if not high and hi > cut - _PLANT_MARGIN:
        raise ValueError(
            f"{what} band {band} for {role.value} must end at or below "
            f"{cut - _PLANT_MARGIN} (margin {_PLANT_MARGIN} from the {cut} cut)"
        )


@dataclass(frozen=True)
class RoleTarget:
    """One planted student: role, measure bands, and leadership flag."""

    role: Role
    quantity_band: tuple[float, float]
    heterogeneity_band: tuple[float, float]
    is_leader: bool = False

    def __post_init__(self):
        object.__setattr__(self, "quantity_band", tuple(self.quantity_band))
        object.__setattr__(self, "heterogeneity_band", tuple(self.heterogeneity_band))
        high_q, high_h = QUADRANTS[self.role]
        _check_band(self.quantity_band, high_q, DEFAULT_THRESHOLDS.quantity_cut,
                    "quantity", self.role)
        _check_band(self.heterogeneity_band, high_h, DEFAULT_THRESHOLDS.heterogeneity_cut,
                    "heterogeneity", self.role)


@dataclass(frozen=True)
class PlantedCohortSpec:
    """Seeded cohort layout: groups x group_size students over one project.

    targets holds either group_size entries (the same pattern repeats in
    every group) or groups*group_size entries (one per student, group-major).
    """

    seed: int
    groups: int
    group_size: int
    project: ProjectTemplate
    targets: tuple[RoleTarget, ...]

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.groups < 1 or self.group_size < 1:
            raise ValueError("groups and group_size must be at least 1")
        if self.seed < 0 or self.seed >= 2**64:
            raise ValueError("seed must fit in 64 bits")
        n = self.groups * self.group_size
        if len(self.targets) not in (self.group_size, n):
            raise ValueError(
                f"need {self.group_size} (pattern) or {n} (per-student) targets,"
                f" got {len(self.targets)}"
            )
        for g in range(self.groups):
            leaders = sum(1 for t in self.targets_for_group(g) if t.is_leader)
            if leaders > 1:
                raise ValueError(f"group {g + 1} has {leaders} leader targets")

    def targets_for_group(self, group: int) -> tuple[RoleTarget, ...]:
        if len(self.targets) == self.group_size:
            return self.targets
        start = group * self.group_size
        return self.targets[start:start + self.group_size]


def _band(raw, key: str) -> tuple[float, float]:
    if (not isinstance(raw, list) or len(raw) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in raw)):
        raise ValueError(f"{key} must be two numbers, got {raw!r}")
    return float(raw[0]), float(raw[1])


def _target(t: dict, key: str) -> RoleTarget:
    names = [r.value for r in Role]
    if t["role"] not in names:
        raise ValueError(f"{key}.role must be one of {', '.join(names)}, got {t['role']!r}")
    bands = (_band(t["quantity_band"], f"{key}.quantity_band"),
             _band(t["heterogeneity_band"], f"{key}.heterogeneity_band"))
    flag = t.get("is_leader", False)
    if not isinstance(flag, bool):
        raise ValueError(f"{key}.is_leader must be true or false, got {flag!r}")
    return RoleTarget(Role(t["role"]), *bands, is_leader=flag)


def load_cohort_spec(path) -> PlantedCohortSpec:
    """Read a PlantedCohortSpec from its JSON file format.

    Counts, sizes, the seed and the point values must be integers (a bool or
    a fractional number is refused, an integral 2.0 loads), band bounds JSON
    numbers and is_leader a JSON bool. Every refusal names the file, and the
    key where the reader knows it.
    """
    doc = _read_json(path)
    try:
        project = ProjectTemplate(
            project_id=doc["project"]["project_id"],
            type_counts={str(k): _parse_integer(v, f"project.type_counts.{k}")
                         for k, v in doc["project"]["type_counts"].items()},
            point_values={_parse_integer(k, "project.point_values key"):
                          _parse_integer(v, f"project.point_values.{k}")
                          for k, v in doc["project"]["point_values"].items()},
        )
        targets = [_target(t, f"targets[{i}]") for i, t in enumerate(doc["targets"])]
        return PlantedCohortSpec(
            seed=_parse_integer(doc["seed"], "seed"),
            groups=_parse_integer(doc["groups"], "groups"),
            group_size=_parse_integer(doc["group_size"], "group_size"),
            project=project,
            targets=targets,
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing cohort spec key {exc}") from exc
    except (TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed cohort spec: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Planting
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _histogram_entropies(caps: tuple[tuple[str, int], ...]) -> tuple[tuple[tuple[int, ...], int, float], ...]:
    """All feasible per-type count vectors, in sorted type order, with the
    heterogeneity `measures.heterogeneity` gives them under these capacities
    (in the spec's order, which the measure's float sums follow)."""
    capacities = dict(caps)
    types = sorted(capacities)
    combos = 1
    for c in capacities.values():
        combos *= c + 1
    if combos > _MAX_HISTOGRAM_CANDIDATES:
        raise ValueError(f"type capacities {capacities} too large to enumerate")
    out = []
    for counts in itertools.product(*(range(capacities[t] + 1) for t in types)):
        n = sum(counts)
        hist = measures.TypeHistogram("", dict(zip(types, counts)), n)
        out.append((counts, n, measures.heterogeneity(hist, capacities)))
    return tuple(out)


def plant_contribution(spec: ProjectSpec, quantity_band: tuple[float, float],
                       heterogeneity_band: tuple[float, float]) -> tuple[str, ...]:
    """Pick subtasks whose weighted share and normalized type entropy land
    inside the requested bands; deterministic for a fixed spec.

    Raises InfeasibleTargetError naming the constraint that cannot be met.
    """
    q_lo, q_hi = quantity_band
    h_lo, h_hi = heterogeneity_band
    types = sorted(spec.type_capacities)
    total_weight = spec.total_weight
    eps = 1e-9

    candidates = [
        (counts, n, h)
        for counts, n, h in _histogram_entropies(tuple(spec.type_capacities.items()))
        if h_lo - eps <= h <= h_hi + eps
    ]
    if not candidates:
        raise InfeasibleTargetError(
            f"heterogeneity band [{h_lo}, {h_hi}] is unreachable with type"
            f" capacities {spec.type_capacities}"
        )
    h_mid = (h_lo + h_hi) / 2
    candidates.sort(key=lambda c: (abs(c[2] - h_mid), c[1], c[0]))

    pools = {
        t: sorted((st for st in spec.subtasks if st.task_type == t),
                  key=lambda st: (st.points, st.subtask_id))
        for t in types
    }
    w_lo = q_lo * total_weight - eps
    w_hi = q_hi * total_weight + eps
    closest_gap = None

    for counts, n, _h in candidates:
        chosen: dict[str, list[Subtask]] = {}
        spare: dict[str, list[Subtask]] = {}
        for t, k in zip(types, counts):
            chosen[t] = list(pools[t][:k])
            spare[t] = list(pools[t][k:])
        weight = sum(st.points for lst in chosen.values() for st in lst)
        if weight > w_hi:
            gap = weight / total_weight - q_hi
            if closest_gap is None or gap < closest_gap:
                closest_gap = gap
            continue
        while weight < w_lo:
            budget = w_hi - weight
            best = None  # (gain, type, out subtask, in subtask)
            for t in types:
                for out_st in chosen[t]:
                    for in_st in spare[t]:
                        gain = in_st.points - out_st.points
                        if gain <= 0 or gain > budget:
                            continue
                        key = (-gain, t, out_st.subtask_id, in_st.subtask_id)
                        if best is None or key < best[0]:
                            best = (key, t, out_st, in_st)
            if best is None:
                break
            _, t, out_st, in_st = best
            chosen[t].remove(out_st)
            spare[t].remove(in_st)
            chosen[t].append(in_st)
            spare[t].append(out_st)
            weight += in_st.points - out_st.points
        if w_lo <= weight <= w_hi:
            return tuple(sorted(st.subtask_id for lst in chosen.values() for st in lst))
        gap = q_lo - weight / total_weight
        if closest_gap is None or gap < closest_gap:
            closest_gap = gap

    raise InfeasibleTargetError(
        f"quantity band [{q_lo}, {q_hi}] is unreachable for any subtask mix in"
        f" heterogeneity band [{h_lo}, {h_hi}]; closest miss is"
        f" {closest_gap:.4f} in weighted share"
    )


# ---------------------------------------------------------------------------
# Cohort generation
# ---------------------------------------------------------------------------

def build_project(template: ProjectTemplate, rng: random.Random) -> ProjectSpec:
    """Materialize a template into subtasks; point values are shuffled over
    the type blocks by the cohort's seeded generator."""
    type_list = [t for t in sorted(template.type_counts)
                 for _ in range(template.type_counts[t])]
    point_list = [p for p in sorted(template.point_values)
                  for _ in range(template.point_values[p])]
    rng.shuffle(point_list)
    subtasks = tuple(
        Subtask(
            subtask_id=f"{template.project_id}-A{i + 1:03d}",
            project_id=template.project_id,
            task_type=type_list[i],
            points=point_list[i],
        )
        for i in range(template.size)
    )
    return ProjectSpec(template.project_id, subtasks)


def plant_project(template: ProjectTemplate, teams: dict[str, list[str]],
                  leaders: dict[str, str],
                  bands: dict[str, tuple[tuple[float, float], tuple[float, float]]],
                  seed: int) -> Dataset:
    """One project whose students measure inside their (quantity, heterogeneity)
    bands; deterministic for a fixed seed.

    Teams are planted in the order of `teams` (team id -> members); `leaders`
    maps a team id to its leader, and a team without an entry has none.
    """
    spec = build_project(template, random.Random(seed))
    pid = spec.project_id
    planted = [(team_id, student) for team_id, members in teams.items()
               for student in members]

    # plant each distinct band pair once, in first-appearance order
    contribution = {pair: plant_contribution(spec, *pair)
                    for pair in dict.fromkeys(bands[s] for _, s in planted)}
    dataset = Dataset(
        projects={pid: spec},
        rosters=tuple(TeamRoster(team_id=team_id, project_id=pid,
                                 members=frozenset(members), leader=leaders.get(team_id))
                      for team_id, members in teams.items()),
        interactions=tuple(InteractionRecord(project_id=pid, team_id=team_id,
                                             student_id=student, subtask_id=sid)
                           for team_id, student in planted
                           for sid in contribution[bands[student]]),
        metadata={"generator": GENERATOR_ID, "seed": str(seed)},
    )

    # construction guarantee: re-measure every student through the pipeline
    measured = {p.student_id: p for p in pipeline.project_profiles(dataset)[pid]}
    for _, student in planted:
        dw, h = measured[student].quantity, measured[student].heterogeneity
        q_band, h_band = bands[student]
        (q_lo, q_hi), (h_lo, h_hi) = q_band, h_band
        if not (q_lo - 1e-9 <= dw <= q_hi + 1e-9
                and h_lo - 1e-9 <= h <= h_hi + 1e-9):
            raise InfeasibleTargetError(
                f"planted student {student!r} measured ({dw:.4f}, {h:.4f}),"
                f" outside bands {q_band} x {h_band}"
            )
    return dataset


def generate_cohort(cohort: PlantedCohortSpec) -> Dataset:
    """Generate a dataset whose measured (quantity, heterogeneity) pairs land
    inside each student's requested bands; deterministic for a fixed seed."""
    teams, leaders, bands = {}, {}, {}
    for g in range(cohort.groups):
        team_id = f"Team_{g + 1}"
        members = teams[team_id] = []
        for k, target in enumerate(cohort.targets_for_group(g)):
            student = f"S{g * cohort.group_size + k + 1}"
            members.append(student)
            bands[student] = (target.quantity_band, target.heterogeneity_band)
            if target.is_leader:
                leaders[team_id] = student
    return plant_project(cohort.project, teams, leaders, bands, cohort.seed)
