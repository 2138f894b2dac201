"""Synthetic cohorts with planted roles.

The generator constructs each student's subtask set explicitly: it picks a
per-type count mix whose normalized entropy lands in the requested
heterogeneity band, then swaps cheap subtasks for expensive ones until the
weighted share lands in the requested quantity band. Construction either
succeeds or reports the binding constraint; there is no rejection sampling.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from functools import lru_cache

from . import measures, pipeline
from .model import Dataset, InteractionRecord, ProjectSpec, Subtask, TeamRoster
from .roles import Role

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


_QUADRANT = {
    Role.COMPREHENSIVE_CONTRIBUTOR: (True, True),
    Role.SPECIALIZED_CONTRIBUTOR: (True, False),
    Role.VERSATILE_PARTICIPANT: (False, True),
    Role.FREE_RIDER: (False, False),
}
_PLANT_MARGIN = 0.05


def _check_band(band: tuple[float, float], high: bool, what: str, role: Role):
    lo, hi = band
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"{what} band {band} must satisfy 0 <= lo <= hi <= 1")
    if high and lo < 0.5 + _PLANT_MARGIN:
        raise ValueError(
            f"{what} band {band} for {role.value} must start at or above "
            f"{0.5 + _PLANT_MARGIN} (margin {_PLANT_MARGIN} from the 0.5 cut)"
        )
    if not high and hi > 0.5 - _PLANT_MARGIN:
        raise ValueError(
            f"{what} band {band} for {role.value} must end at or below "
            f"{0.5 - _PLANT_MARGIN} (margin {_PLANT_MARGIN} from the 0.5 cut)"
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
        high_q, high_h = _QUADRANT[self.role]
        _check_band(self.quantity_band, high_q, "quantity", self.role)
        _check_band(self.heterogeneity_band, high_h, "heterogeneity", self.role)


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


def load_cohort_spec(path) -> PlantedCohortSpec:
    """Read a PlantedCohortSpec from its JSON file format."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        project = ProjectTemplate(
            project_id=doc["project"]["project_id"],
            type_counts={str(k): int(v) for k, v in doc["project"]["type_counts"].items()},
            point_values={int(k): int(v) for k, v in doc["project"]["point_values"].items()},
        )
        targets = tuple(
            RoleTarget(
                role=Role(t["role"]),
                quantity_band=tuple(float(x) for x in t["quantity_band"]),
                heterogeneity_band=tuple(float(x) for x in t["heterogeneity_band"]),
                is_leader=bool(t.get("is_leader", False)),
            )
            for t in doc["targets"]
        )
        return PlantedCohortSpec(
            seed=int(doc["seed"]),
            groups=int(doc["groups"]),
            group_size=int(doc["group_size"]),
            project=project,
            targets=targets,
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing cohort spec key {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed cohort spec: {exc}") from exc


# ---------------------------------------------------------------------------
# Planting
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _histogram_entropies(caps: tuple[tuple[str, int], ...]) -> tuple[tuple[tuple[int, ...], int, float], ...]:
    """All feasible per-type count vectors with their normalized entropy."""
    limits = [c for _, c in caps]
    combos = 1
    for c in limits:
        combos *= c + 1
    if combos > _MAX_HISTOGRAM_CANDIDATES:
        raise ValueError(f"type capacities {dict(caps)} too large to enumerate")
    out = []
    for counts in itertools.product(*(range(c + 1) for c in limits)):
        n = sum(counts)
        if n <= 1:
            h = 0.0
        else:
            q = measures._max_entropy(n, caps)
            h = measures._entropy(counts) / q if q > 0 else 0.0
        out.append((counts, n, h))
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
    caps_key = tuple((t, spec.type_capacities[t]) for t in types)
    total_weight = spec.total_weight
    eps = 1e-9

    candidates = [
        (counts, n, h) for counts, n, h in _histogram_entropies(caps_key)
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


def generate_cohort(cohort: PlantedCohortSpec) -> Dataset:
    """Generate a dataset whose measured (quantity, heterogeneity) pairs land
    inside each student's requested bands; deterministic for a fixed seed."""
    rng = random.Random(cohort.seed)
    spec = build_project(cohort.project, rng)
    pid = spec.project_id

    # plant each distinct band pair once, in first-appearance order
    contribution = {bands: plant_contribution(spec, *bands) for bands in dict.fromkeys(
        (t.quantity_band, t.heterogeneity_band) for t in cohort.targets)}
    rosters = []
    interactions = []
    planted: list[tuple[str, RoleTarget]] = []  # (student, target)
    for g in range(cohort.groups):
        team_id = f"Team_{g + 1}"
        members = []
        leader = None
        for k, target in enumerate(cohort.targets_for_group(g)):
            student = f"S{g * cohort.group_size + k + 1}"
            members.append(student)
            if target.is_leader:
                leader = student
            for sid in contribution[(target.quantity_band, target.heterogeneity_band)]:
                interactions.append(InteractionRecord(
                    project_id=pid, team_id=team_id,
                    student_id=student, subtask_id=sid))
            planted.append((student, target))
        rosters.append(TeamRoster(team_id=team_id, project_id=pid,
                                  members=frozenset(members), leader=leader))

    dataset = Dataset(
        projects={pid: spec},
        rosters=tuple(rosters),
        interactions=tuple(interactions),
        metadata={"generator": GENERATOR_ID, "seed": str(cohort.seed)},
    )

    # construction guarantee: re-measure every student through the pipeline
    measured = {p.student_id: p for p in pipeline.project_profiles(dataset)[pid]}
    for student, target in planted:
        dw, h = measured[student].quantity, measured[student].heterogeneity
        q_lo, q_hi = target.quantity_band
        h_lo, h_hi = target.heterogeneity_band
        if not (q_lo - 1e-9 <= dw <= q_hi + 1e-9
                and h_lo - 1e-9 <= h <= h_hi + 1e-9):
            raise InfeasibleTargetError(
                f"planted student {student!r} measured ({dw:.4f}, {h:.4f}),"
                f" outside bands {target.quantity_band} x {target.heterogeneity_band}"
            )
    return dataset
