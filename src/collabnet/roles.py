"""Four-quadrant role classification over (quantity, heterogeneity).

Splitting the unit square at configurable cuts (default 0.5/0.5) yields
four mutually exclusive roles. Values exactly on a cut classify as "high":
the boundary rule is fixed and documented for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from . import measures
from .model import ProjectSpec, TeamRoster


class Role(Enum):
    COMPREHENSIVE_CONTRIBUTOR = "comprehensive_contributor"
    SPECIALIZED_CONTRIBUTOR = "specialized_contributor"
    VERSATILE_PARTICIPANT = "versatile_participant"
    FREE_RIDER = "free_rider"

    def describe(self) -> str:
        return self.value.replace("_", " ")


@dataclass(frozen=True)
class Thresholds:
    """Classification cuts; values equal to a cut count as high."""

    quantity_cut: float = 0.5
    heterogeneity_cut: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.quantity_cut < 1.0):
            raise ValueError(f"quantity_cut must be in (0, 1), got {self.quantity_cut}")
        if not (0.0 < self.heterogeneity_cut < 1.0):
            raise ValueError(
                f"heterogeneity_cut must be in (0, 1), got {self.heterogeneity_cut}"
            )


DEFAULT_THRESHOLDS = Thresholds()


def classify(quantity: float, heterogeneity: float,
             thresholds: Thresholds = DEFAULT_THRESHOLDS) -> Role:
    """Map a (quantity, heterogeneity) pair to its role quadrant."""
    if not (0.0 <= quantity <= 1.0):
        raise ValueError(f"quantity must be in [0, 1], got {quantity}")
    if not (0.0 <= heterogeneity <= 1.0):
        raise ValueError(f"heterogeneity must be in [0, 1], got {heterogeneity}")
    high_q = quantity >= thresholds.quantity_cut
    high_h = heterogeneity >= thresholds.heterogeneity_cut
    if high_q and high_h:
        return Role.COMPREHENSIVE_CONTRIBUTOR
    if high_q:
        return Role.SPECIALIZED_CONTRIBUTOR
    if high_h:
        return Role.VERSATILE_PARTICIPANT
    return Role.FREE_RIDER


@dataclass(frozen=True)
class ContributionProfile:
    """One student's measured contribution and role for one project."""

    student_id: str
    project_id: str
    team_id: str
    quantity: float
    heterogeneity: float
    is_assigned_leader: bool
    role: Role


def profile_team(net: measures.BipartiteNetwork, spec: ProjectSpec, roster: TeamRoster,
                 thresholds: Thresholds = DEFAULT_THRESHOLDS) -> tuple[ContributionProfile, ...]:
    """Profile every roster member, including those with zero participation."""
    profiles = []
    for student in sorted(roster.members):
        dw = measures.weighted_degree(net, spec, student)
        hist = measures.type_histogram(net, spec, student)
        h = measures.heterogeneity(hist, spec.type_capacities)
        profiles.append(ContributionProfile(
            student_id=student,
            project_id=spec.project_id,
            team_id=roster.team_id,
            quantity=dw,
            heterogeneity=h,
            is_assigned_leader=(student == roster.leader),
            role=classify(dw, h, thresholds),
        ))
    return tuple(profiles)


@dataclass(frozen=True)
class RoleTransition:
    """One student's role and leadership change between two projects."""

    student_id: str
    role_before: Role
    role_after: Role
    leadership_changed: bool
    role_changed: bool


def _index_profiles(profiles: Iterable[ContributionProfile]) -> dict[str, ContributionProfile]:
    index: dict[str, ContributionProfile] = {}
    for p in profiles:
        if p.student_id in index:
            raise ValueError(f"duplicate profile for student {p.student_id!r}")
        index[p.student_id] = p
    return index


def role_transitions(profiles_before: Iterable[ContributionProfile],
                     profiles_after: Iterable[ContributionProfile]) -> tuple[RoleTransition, ...]:
    """Pair profiles by student and record role and leadership changes.

    Students present in only one collection are excluded; use
    unpaired_students to list them.
    """
    before = _index_profiles(profiles_before)
    after = _index_profiles(profiles_after)
    transitions = []
    for student in sorted(before.keys() & after.keys()):
        p1, p2 = before[student], after[student]
        transitions.append(RoleTransition(
            student_id=student,
            role_before=p1.role,
            role_after=p2.role,
            leadership_changed=(p1.is_assigned_leader != p2.is_assigned_leader),
            role_changed=(p1.role != p2.role),
        ))
    return tuple(transitions)


def unpaired_students(profiles_before: Iterable[ContributionProfile],
                      profiles_after: Iterable[ContributionProfile],
                      ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(dropouts, joiners): students present in only one of the two projects."""
    before = {p.student_id for p in profiles_before}
    after = {p.student_id for p in profiles_after}
    return tuple(sorted(before - after)), tuple(sorted(after - before))


@dataclass(frozen=True)
class ContingencyTable2x2:
    """Counts over (leadership changed?, role changed?).

    a: changed leadership and changed role   b: changed leadership, same role
    c: same leadership, changed role         d: neither changed
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name in "abcd":
            if getattr(self, name) < 0:
                raise ValueError(f"cell {name} must be nonnegative")

    @property
    def n(self) -> int:
        return self.a + self.b + self.c + self.d

    @property
    def leadership_changes(self) -> int:
        return self.a + self.b

    @property
    def role_changes(self) -> int:
        return self.a + self.c

    def cells(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def build_contingency(transitions: Sequence[RoleTransition]) -> ContingencyTable2x2:
    """Tally transitions into the 2x2 leadership-change / role-change table."""
    a = b = c = d = 0
    for t in transitions:
        if t.leadership_changed and t.role_changed:
            a += 1
        elif t.leadership_changed:
            b += 1
        elif t.role_changed:
            c += 1
        else:
            d += 1
    return ContingencyTable2x2(a, b, c, d)
