"""Deterministic exporters: DOT network drawings, quadrant SVG charts, and
the machine-readable report bundle.

Exporters only format numbers produced by the measures, roles, and stats
modules; no arithmetic happens here. Fixed inputs yield byte-identical
output, so all three formats are safe to golden-file in tests.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .measures import BipartiteNetwork
from .model import ProjectSpec, json_text, write_text
from .roles import (DEFAULT_THRESHOLDS, QUADRANTS, ContingencyTable2x2, ContributionProfile,
                    RoleTransition, Thresholds)
from .stats import BarnardResult, MwuResult

SCHEMA_VERSION = 1

_PROJECT_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b")
_VIEW = 600
_MARGIN = 50
_PLOT = _VIEW - 2 * _MARGIN
_STAR_RADIUS = 8.0


def _dot_quote(first: str, *more: str) -> str:
    """One double-quoted DOT string (an id or a label), lines joined by \\n."""
    text = first.replace("\\", "\\\\").replace('"', '\\"')
    for line in more:  # a loop, not a list and a join: most calls quote a one-line id
        text += "\\n" + line.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


@dataclass(frozen=True)
class DotSubtasks:
    """One project's subtask nodes as DOT text, shared by every team's drawing.

    `quoted` maps each subtask id to its quoted DOT id, and `lines` to its
    node line in the rank=sink block (a box labeled with type and points).
    """

    project_id: str
    quoted: dict[str, str]
    lines: dict[str, str]


def dot_subtasks(spec: ProjectSpec) -> DotSubtasks:
    """Render the spec's subtask nodes once, for every team of the project."""
    quoted, lines = {}, {}
    for st in spec.subtasks:
        sid = st.subtask_id
        quoted[sid] = q = _dot_quote(sid)
        lines[sid] = f"    {q} [shape=box, label={_dot_quote(sid, f'{st.task_type} ({st.points})')}];"
    return DotSubtasks(spec.project_id, quoted, lines)


def export_network_dot(net: BipartiteNetwork, leader: str | None,
                       subtasks: DotSubtasks) -> str:
    """Render one team's bipartite network as a DOT graph.

    Students sit on the left rank (ellipses, the roster's `leader`
    double-ringed), subtasks on the right (boxes annotated with type and
    points). `subtasks` is `dot_subtasks` of the network's project.
    """
    if subtasks.project_id != net.project_id:
        raise ValueError(
            f"spec project {subtasks.project_id!r} does not match network {net.project_id!r}"
        )

    quoted = {}
    lines = [f"graph {_dot_quote(f'collab_{net.project_id}_{net.team_id}')} {{"]
    lines.append("  rankdir=LR;")
    lines.append('  node [fontsize=10, fontname="Helvetica"];')
    lines.append("  { rank=source;")
    for student in net.student_nodes:
        quoted[student] = q = _dot_quote(student)
        attrs = ["shape=ellipse", 'style=filled']
        if student == leader:
            attrs += ['fillcolor="#ffd27f"', "peripheries=2",
                      f"label={_dot_quote(student, '(leader)')}"]
        else:
            attrs += ['fillcolor="#e8e8e8"', f"label={q}"]
        lines.append(f"    {q} [{', '.join(attrs)}];")
    lines.append("  }")
    lines.append("  { rank=sink;")
    lines += (subtasks.lines[sid] for sid in net.subtask_nodes)
    lines.append("  }")
    for student, sid in sorted(net.edges):
        lines.append(f"  {quoted.get(student) or _dot_quote(student)}"
                     f" -- {subtasks.quoted.get(sid) or _dot_quote(sid)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _x(q: float) -> str:
    return f"{_MARGIN + q * _PLOT:.2f}"


def _y(h: float) -> str:
    return f"{_VIEW - _MARGIN - h * _PLOT:.2f}"


def _star_points(q: float, h: float) -> str:
    cx = _MARGIN + q * _PLOT
    cy = _VIEW - _MARGIN - h * _PLOT
    pts = []
    for k in range(10):
        r = _STAR_RADIUS if k % 2 == 0 else _STAR_RADIUS * 0.45
        angle = -math.pi / 2 + k * math.pi / 5
        pts.append(f"{cx + r * math.cos(angle):.2f},{cy + r * math.sin(angle):.2f}")
    return " ".join(pts)


# what the XML 1.0 Char production leaves out of str; a negated class of the
# allowed ranges means the same but takes ~4 ms to compile at import
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _svg_text(s: str) -> str:
    """Escape an id for SVG text content; characters XML forbids become U+FFFD."""
    s = _XML_FORBIDDEN.sub("\ufffd", s)
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def export_quadrant_svg(profiles: Sequence[ContributionProfile],
                        thresholds: Thresholds = DEFAULT_THRESHOLDS) -> str:
    """Render profiles as a quantity-heterogeneity scatter on the unit square.

    Dashed lines mark the classification cuts, leaders draw as stars and
    other members as circles, and each quadrant is labeled with its role.
    With profiles from exactly two projects, dashed arrows connect each
    paired student's positions.
    """
    profiles = list(profiles)
    if not profiles:
        raise ValueError("profiles must be nonempty")
    project_ids = sorted({p.project_id for p in profiles})
    color = {pid: _PROJECT_COLORS[i % len(_PROJECT_COLORS)]
             for i, pid in enumerate(project_ids)}

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW}" height="{_VIEW}"'
        f' viewBox="0 0 {_VIEW} {_VIEW}">',
        f'  <rect x="0" y="0" width="{_VIEW}" height="{_VIEW}" fill="white"/>',
        f'  <rect x="{_MARGIN}" y="{_MARGIN}" width="{_PLOT}" height="{_PLOT}"'
        ' fill="none" stroke="black" stroke-width="1"/>',
    ]
    # cut lines
    out.append(f'  <line x1="{_x(thresholds.quantity_cut)}" y1="{_y(0)}"'
               f' x2="{_x(thresholds.quantity_cut)}" y2="{_y(1)}"'
               ' stroke="grey" stroke-width="1" stroke-dasharray="6,4"/>')
    out.append(f'  <line x1="{_x(0)}" y1="{_y(thresholds.heterogeneity_cut)}"'
               f' x2="{_x(1)}" y2="{_y(thresholds.heterogeneity_cut)}"'
               ' stroke="grey" stroke-width="1" stroke-dasharray="6,4"/>')
    # axis labels and ticks
    out.append(f'  <text x="{_VIEW / 2:.2f}" y="{_VIEW - 12}" text-anchor="middle"'
               ' font-size="14">quantity of contribution</text>')
    out.append(f'  <text x="16" y="{_VIEW / 2:.2f}" text-anchor="middle" font-size="14"'
               f' transform="rotate(-90 16 {_VIEW / 2:.2f})">heterogeneity of contribution</text>')
    for v in (0.0, 0.5, 1.0):
        out.append(f'  <text x="{_x(v)}" y="{_VIEW - _MARGIN + 18}" text-anchor="middle"'
                   f' font-size="11">{v:g}</text>')
        out.append(f'  <text x="{_MARGIN - 8}" y="{_y(v)}" text-anchor="end"'
                   f' font-size="11" dominant-baseline="middle">{v:g}</text>')
    # quadrant labels, centred on their side of the quantity cut, at the top or bottom edge
    cut = thresholds.quantity_cut
    for role, (high_q, high_h) in QUADRANTS.items():
        qx = (1.0 + cut) / 2 if high_q else cut / 2
        out.append(f'  <text x="{_x(qx)}" y="{_y(0.97 if high_h else 0.03)}"'
                   f' text-anchor="middle" font-size="12" fill="#555555">{role.describe()}</text>')
    # legend
    for i, pid in enumerate(project_ids):
        ly = _MARGIN + 16 + 18 * i
        out.append(f'  <circle cx="{_MARGIN + 14}" cy="{ly}" r="5" fill="{color[pid]}"/>')
        out.append(f'  <text x="{_MARGIN + 26}" y="{ly + 4}" font-size="12">'
                   f'{_svg_text(pid)}</text>')
    out.append(f'  <text x="{_MARGIN + 26}" y="{_MARGIN + 16 + 18 * len(project_ids) + 4}"'
               ' font-size="12">star = assigned leader</text>')

    # transition arrows between exactly two projects
    if len(project_ids) == 2:
        first = {p.student_id: p for p in profiles if p.project_id == project_ids[0]}
        second = {p.student_id: p for p in profiles if p.project_id == project_ids[1]}
        for student in sorted(first.keys() & second.keys()):
            p1, p2 = first[student], second[student]
            if (p1.quantity, p1.heterogeneity) == (p2.quantity, p2.heterogeneity):
                continue
            out.append(f'  <line x1="{_x(p1.quantity)}" y1="{_y(p1.heterogeneity)}"'
                       f' x2="{_x(p2.quantity)}" y2="{_y(p2.heterogeneity)}"'
                       ' stroke="#999999" stroke-width="1" stroke-dasharray="3,3"'
                       ' marker-end="url(#arrow)"/>')

    # marker definition (referenced above, harmless when unused)
    out.insert(1, '  <defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5"'
                  ' markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
                  '<path d="M 0 0 L 10 5 L 0 10 z" fill="#999999"/></marker></defs>')

    for p in sorted(profiles, key=lambda p: (p.project_id, p.student_id)):
        fill = color[p.project_id]
        if p.is_assigned_leader:
            out.append(f'  <polygon points="{_star_points(p.quantity, p.heterogeneity)}"'
                       f' fill="{fill}" stroke="black" stroke-width="0.8"/>')
        else:
            out.append(f'  <circle cx="{_x(p.quantity)}" cy="{_y(p.heterogeneity)}" r="5"'
                       f' fill="{fill}" stroke="black" stroke-width="0.5"/>')
        out.append(f'  <text x="{float(_x(p.quantity)) + 8:.2f}"'
                   f' y="{float(_y(p.heterogeneity)) + 4:.2f}"'
                   f' font-size="10">{_svg_text(p.student_id)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Report bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectComparison:
    """One project pair: paired transitions, unpaired students, the leadership x
    role contingency table, and Barnard's test (None when it was skipped)."""

    pairs: tuple[RoleTransition, ...]
    dropouts: tuple[str, ...]
    joiners: tuple[str, ...]
    contingency: ContingencyTable2x2
    barnard: BarnardResult | None


@dataclass
class ReportBundle:
    """Everything one analysis run produced, plus the metadata to audit it."""

    metadata: dict
    profiles: dict[str, tuple[ContributionProfile, ...]]
    transitions: dict[str, ProjectComparison] = field(default_factory=dict)
    mwu: dict[str, MwuResult] = field(default_factory=dict)


def _profile_dict(p: ContributionProfile) -> dict:
    return {
        "student_id": p.student_id,
        "team_id": p.team_id,
        "quantity": p.quantity,
        "heterogeneity": p.heterogeneity,
        "is_assigned_leader": p.is_assigned_leader,
        "role": p.role.value,
    }


def _transition_dict(t: RoleTransition) -> dict:
    return {**vars(t), "role_before": t.role_before.value, "role_after": t.role_after.value}


def _contingency_dict(table: ContingencyTable2x2) -> dict:
    return {
        **vars(table),
        "leadership_changes": table.leadership_changes,
        "role_changes": table.role_changes,
        "n": table.n,
    }


def _comparison_dict(comparison: ProjectComparison) -> dict:
    entry = {
        "pairs": [_transition_dict(t) for t in comparison.pairs],
        "dropouts": list(comparison.dropouts),
        "joiners": list(comparison.joiners),
        "contingency": _contingency_dict(comparison.contingency),
    }
    if comparison.barnard is not None:
        entry["barnard"] = comparison.barnard.to_dict()
    return entry


def report_to_json(bundle: ReportBundle) -> str:
    """Serialize the bundle with stable key ordering (deterministic bytes)."""
    doc: dict = {"schema_version": SCHEMA_VERSION, "metadata": bundle.metadata}
    doc["profiles"] = {
        pid: [_profile_dict(p) for p in bundle.profiles[pid]]
        for pid in sorted(bundle.profiles)
    }
    doc["mann_whitney"] = {
        key: bundle.mwu[key].to_dict() for key in sorted(bundle.mwu)
    }
    doc["transitions"] = {
        key: _comparison_dict(bundle.transitions[key]) for key in sorted(bundle.transitions)
    }
    return json_text(doc)


def write_report_json(bundle: ReportBundle, path) -> Path:
    """Write report.json; returns the path written."""
    return write_text(path, report_to_json(bundle))
