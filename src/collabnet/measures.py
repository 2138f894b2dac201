"""Student-subtask bipartite networks and the two contribution measures.

A network is built per (team, project) with binary edges: a student is
connected to a subtask if at least one interaction event links them.
Quantity of contribution is the point-weighted share of the project's
subtasks a student touched; heterogeneity is the Shannon entropy of the
student's per-type subtask counts, normalized by the highest entropy any
student with that many subtasks could reach given how many subtasks of
each type the project offers.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .model import InteractionRecord, ProjectSpec, TeamRoster


@dataclass(frozen=True)
class BipartiteNetwork:
    """Binary student-subtask incidence for one team in one project.

    subtask_nodes always spans every subtask of the project, including
    untouched ones, so degree shares are comparable across teams. The
    per-student adjacency is built once from the edges.
    """

    team_id: str
    project_id: str
    student_nodes: tuple[str, ...]
    subtask_nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    _adjacency: dict[str, frozenset[str]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        adjacency: dict[str, set[str]] = {s: set() for s in self.student_nodes}
        for i, j in self.edges:
            if i not in adjacency:
                adjacency[i] = set()
            adjacency[i].add(j)
        object.__setattr__(self, "_adjacency",
                           {s: frozenset(js) for s, js in adjacency.items()})

    def _touched(self, student_id: str) -> frozenset[str]:
        """The student's incident subtasks; ValueError for a non-member."""
        if student_id not in self.student_nodes:
            raise ValueError(
                f"unknown student {student_id!r}; network has {list(self.student_nodes)}"
            )
        return self._adjacency[student_id]


def build_network(roster: TeamRoster, spec: ProjectSpec,
                  interactions: Iterable[InteractionRecord]) -> BipartiteNetwork:
    """Build the binary bipartite network for one (team, project).

    Repeated events on the same (student, subtask) pair collapse to a single
    edge. Events for other teams or projects are ignored; events that match
    the team but reference a non-member or an unknown subtask raise.
    """
    if roster.project_id != spec.project_id:
        raise ValueError(
            f"roster project {roster.project_id!r} does not match spec {spec.project_id!r}"
        )
    team_id, project_id = roster.team_id, roster.project_id
    # distinct pairs in first-seen order, so the first offending event raises
    pairs = dict.fromkeys((rec.student_id, rec.subtask_id) for rec in interactions
                          if rec.team_id == team_id and rec.project_id == project_id)
    for student_id, subtask_id in pairs:
        if student_id not in roster.members:
            raise ValueError(
                f"interaction references non-member {student_id!r}"
                f" of team {team_id!r}"
            )
        if subtask_id not in spec._by_id:
            raise ValueError(
                f"interaction references unknown subtask {subtask_id!r}"
                f" in project {spec.project_id!r}"
            )
    return BipartiteNetwork(
        team_id=team_id,
        project_id=project_id,
        student_nodes=tuple(sorted(roster.members)),
        subtask_nodes=tuple(sorted(spec.subtask_ids)),
        edges=frozenset(pairs),
    )


def _touched_in(net: BipartiteNetwork, spec: ProjectSpec, student_id: str) -> frozenset[str]:
    """The student's incident subtasks, once the spec and the network agree on the project."""
    if spec.project_id != net.project_id:
        raise ValueError(
            f"spec project {spec.project_id!r} does not match network {net.project_id!r}"
        )
    return net._touched(student_id)


def weighted_degree(net: BipartiteNetwork, spec: ProjectSpec, student_id: str) -> float:
    """Point-weighted share of the project's subtasks the student touched.

    Both the numerator and the denominator sum over every subtask of the
    project, so the value is 1.0 exactly when the student touched them all.
    """
    by_id = spec._by_id
    got = sum(by_id[j].points for j in _touched_in(net, spec, student_id))
    return got / spec.total_weight


@dataclass(frozen=True)
class TypeHistogram:
    """Counts of one student's incident subtasks per task type."""

    student_id: str
    counts: dict[str, int]
    total: int


def type_histogram(net: BipartiteNetwork, spec: ProjectSpec, student_id: str) -> TypeHistogram:
    """Count the student's incident subtasks per task type (zero-filled)."""
    counts = {t: 0 for t in sorted(spec.type_capacities)}
    by_id = spec._by_id
    for j in _touched_in(net, spec, student_id):
        counts[by_id[j].task_type] += 1
    return TypeHistogram(student_id=student_id, counts=counts, total=sum(counts.values()))


def _entropy(counts: Iterable[int]) -> float:
    """Shannon entropy (natural log) of a count vector; zero counts drop out."""
    counts = [c for c in counts if c > 0]
    n = sum(counts)
    if n == 0:
        return 0.0
    return -sum((c / n) * math.log(c / n) for c in counts)


def max_entropy_composition(n: int, capacities: Mapping[str, int]) -> dict[str, int]:
    """Distribute n items across types as evenly as the capacity caps allow.

    Types whose full capacity is below the even share are pinned at their
    cap and the remainder is split over the rest; leftover units after the
    integer split go to the roomiest types (ties broken by type name).
    """
    if n < 0 or n != int(n):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    for t, cap in capacities.items():
        if cap < 0 or cap != int(cap):
            raise ValueError(f"capacity of {t!r} must be a nonnegative integer, got {cap!r}")
    total = sum(capacities.values())
    if n > total:
        raise ValueError(f"n={n} exceeds total capacity {total}")

    composition = {t: 0 for t in capacities}
    active = sorted(capacities, key=lambda t: (capacities[t], t))
    remaining = int(n)
    while active and capacities[active[0]] * len(active) < remaining:
        t = active.pop(0)
        composition[t] = capacities[t]
        remaining -= capacities[t]
    if active:
        base, extra = divmod(remaining, len(active))
        for t in active:
            composition[t] = base
        for t in sorted(active, key=lambda t: (-capacities[t], t))[:extra]:
            composition[t] += 1
    return composition


def max_entropy_constant(n: int, capacities: Mapping[str, int]) -> float:
    """Highest entropy reachable by n items under the per-type capacity caps.

    Equals the entropy of the most-even feasible integer composition; 0 for
    n in {0, 1} since a single item carries no diversity.
    """
    return _entropy(max_entropy_composition(n, capacities).values())


def heterogeneity(hist: TypeHistogram, capacities: Mapping[str, int]) -> float:
    """Capacity-normalized entropy of a type histogram, in [0, 1].

    Degenerate cases are pinned to 0: no participation, a single subtask,
    or a single-type project (where diversity is meaningless; a warning is
    emitted for the latter).
    """
    for t, c in hist.counts.items():
        if t not in capacities:
            raise ValueError(f"histogram type {t!r} not in capacities")
        if c < 0 or c > capacities[t]:
            raise ValueError(
                f"count {c} for type {t!r} outside capacity 0..{capacities[t]}"
            )
    if len(capacities) == 1:
        warnings.warn(
            "project has a single task type; heterogeneity is not meaningful"
            " and is reported as 0.0",
            stacklevel=2,
        )
        return 0.0
    if hist.total <= 1:
        return 0.0
    raw = _entropy(hist.counts.values())
    if raw == 0.0:
        return 0.0
    # raw <= Q holds mathematically; clamp the last-ulp float noise
    return min(raw / _max_entropy(hist.total, tuple(capacities.items())), 1.0)


@functools.lru_cache(maxsize=1024)
def _max_entropy(n: int, capacities: tuple[tuple[str, int], ...]) -> float:
    """max_entropy_constant memoized per (n, capacities in insertion order).

    The order stays in the key because _entropy sums in that order.
    """
    return max_entropy_constant(n, dict(capacities))
