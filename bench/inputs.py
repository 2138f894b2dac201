"""Seeded synthetic cohorts for the benchmark.

Every synthetic input the benchmark feeds to `collabnet analyze` is built
here from the workload seed; the benchmark writes it in canonical CSV form
through `collabnet.model.write_dataset`, so the program under test only
ever sees files on disk. The same seed always gives byte-identical files.

Each student gets one behaviour that aims at one of the four role
quadrants. The dominant task type holds about half of a project's subtasks
and the large point values, so a student working almost only on it reaches
high quantity with low heterogeneity (a specialized contributor). Students
who touch nothing or a single subtask tie at the bottom of both measures.
Touched subtasks get repeated events, which the network build collapses.
"""

from __future__ import annotations

import random

from collabnet.model import Dataset, InteractionRecord, ProjectSpec, Subtask, TeamRoster

TEAM_SIZE = 3
TYPE_NAMES = ("Written", "Research", "Design", "Code")

BEHAVIOURS = ("comprehensive", "specialized", "versatile", "free_rider")
LEADER_MIX = (0.5, 0.3, 0.1, 0.1)
MEMBER_MIX = (0.15, 0.15, 0.35, 0.35)
REPEAT_P = 0.3  # chance of one more event on an already touched subtask


def make_project(rng: random.Random, project_id: str, n_subtasks: int) -> ProjectSpec:
    """A project of n_subtasks over 3 or 4 types with a seeded type mix."""
    types = list(TYPE_NAMES[:rng.choice((3, 4))])
    rng.shuffle(types)
    dominant, others = types[0], types[1:]
    n_dominant = round(n_subtasks * rng.uniform(0.45, 0.55))
    # every minor type gets at least two subtasks, the rest land at random
    minor = {t: 2 for t in others}
    for _ in range(n_subtasks - n_dominant - 2 * len(others)):
        minor[rng.choice(others)] += 1
    labels = [dominant] * n_dominant + [t for t in others for _ in range(minor[t])]
    rng.shuffle(labels)
    subtasks = tuple(
        Subtask(subtask_id=f"{project_id}-{i:03d}", project_id=project_id, task_type=t,
                points=rng.choice((3, 5, 10) if t == dominant else (1, 2, 3)))
        for i, t in enumerate(labels, start=1)
    )
    return ProjectSpec(project_id, subtasks)


def touched_subtasks(rng: random.Random, spec: ProjectSpec, behaviour: str) -> list[str]:
    """The distinct subtasks one student works on under a behaviour."""
    ids = list(spec.subtask_ids)
    caps = spec.type_capacities
    dominant = max(sorted(caps), key=caps.__getitem__)
    main = [st.subtask_id for st in spec.subtasks if st.task_type == dominant]
    side = [st.subtask_id for st in spec.subtasks if st.task_type != dominant]
    if behaviour == "comprehensive":
        return rng.sample(ids, round(len(ids) * rng.uniform(0.55, 0.8)))
    if behaviour == "specialized":
        return (rng.sample(main, round(len(main) * rng.uniform(0.75, 0.95)))
                + rng.sample(side, rng.randint(0, 1)))
    if behaviour == "versatile":
        return rng.sample(side, min(len(side), rng.randint(3, 8)))
    # free rider: nothing, one subtask, or a few of a single type
    k = rng.choice((0, 1, 1, 2, 3))
    pool = main if rng.random() < 0.5 else side
    return rng.sample(pool, min(k, len(pool)))


def _teams(rng: random.Random, students: list[str]) -> list[list[str]]:
    order = list(students)
    rng.shuffle(order)
    return [order[i:i + TEAM_SIZE] for i in range(0, len(order), TEAM_SIZE)]


def _dealt(rng: random.Random, mix: tuple[float, ...], n: int) -> list[str]:
    """n behaviours in the proportions of mix, shuffled.

    Dealing exact shares instead of drawing each student's behaviour keeps
    the event count, and so the cost of an operation, steady across seeds.
    """
    counts = [int(w * n) for w in mix]
    dealt = [b for b, c in zip(BEHAVIOURS, counts) for _ in range(c)]
    dealt += rng.choices(BEHAVIOURS, weights=mix, k=n - len(dealt))
    rng.shuffle(dealt)
    return dealt


def _events(rng: random.Random, spec: ProjectSpec, roster: TeamRoster,
            student: str, behaviour: str) -> list[InteractionRecord]:
    events = []
    for subtask_id in touched_subtasks(rng, spec, behaviour):
        repeats = 1
        while rng.random() < REPEAT_P:
            repeats += 1
        for _ in range(repeats):
            stamp = (f"2025-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
                     f"T{rng.randint(8, 19):02d}:{rng.randint(0, 59):02d}:00")
            events.append(InteractionRecord(
                project_id=spec.project_id, team_id=roster.team_id,
                student_id=student, subtask_id=subtask_id, timestamp=stamp))
    return events


def make_cohort(seed: int, n_teams: int, project_sizes: tuple[int, ...]) -> Dataset:
    """Teams of three over one or more projects, every student in every project.

    From the second project on, teams are reshuffled and each team's leader
    is, where possible, a student who has not led before, so leadership
    changes for about two thirds of the cohort between projects.
    """
    rng = random.Random(seed)
    students = [f"S{i:04d}" for i in range(1, n_teams * TEAM_SIZE + 1)]
    projects, rosters, events = {}, [], []
    led: set[str] = set()
    for p, size in enumerate(project_sizes, start=1):
        spec = make_project(rng, f"P{p}", size)
        projects[spec.project_id] = spec
        teams = []
        for t, members in enumerate(_teams(rng, students), start=1):
            fresh = sorted(set(members) - led)
            teams.append(TeamRoster(team_id=f"T{t:03d}", project_id=spec.project_id,
                                    members=frozenset(members),
                                    leader=rng.choice(fresh or sorted(members))))
        leading = iter(_dealt(rng, LEADER_MIX, len(teams)))
        following = iter(_dealt(rng, MEMBER_MIX, len(students) - len(teams)))
        for roster in teams:
            for student in sorted(roster.members):
                behaviour = next(leading if student == roster.leader else following)
                events.extend(_events(rng, spec, roster, student, behaviour))
        rosters.extend(teams)
        led |= {r.leader for r in teams}
    events.sort(key=lambda e: (e.timestamp, e.project_id, e.team_id, e.student_id))
    return Dataset(projects=projects, rosters=tuple(rosters), interactions=tuple(events))
