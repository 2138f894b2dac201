import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, strategies as st

from collabnet import measures, pipeline, report
from collabnet.measures import BipartiteNetwork
from collabnet.model import Dataset, ProjectSpec, Subtask
from collabnet.report import (
    ReportBundle,
    export_network_dot,
    export_quadrant_svg,
    report_to_json,
    write_report_json,
)
from collabnet.roles import ContributionProfile, Role

from conftest import make_roster, make_spec, parse_dot, roster


def reference_dot(net, profiles, spec):
    """The DOT text as rendered line by line, with no block reuse."""
    q = report._dot_quote
    leaders = {p.student_id for p in profiles if p.is_assigned_leader}
    lines = [f"graph {q(f'collab_{net.project_id}_{net.team_id}')} {{", "  rankdir=LR;",
             '  node [fontsize=10, fontname="Helvetica"];', "  { rank=source;"]
    for s in net.student_nodes:
        if s in leaders:
            attrs = f'fillcolor="#ffd27f", peripheries=2, label={q(s, "(leader)")}'
        else:
            attrs = f'fillcolor="#e8e8e8", label={q(s)}'
        lines.append(f"    {q(s)} [shape=ellipse, style=filled, {attrs}];")
    lines.append("  }")
    lines.append("  { rank=sink;")
    for sid in net.subtask_nodes:
        st = spec.subtask(sid)
        label = q(sid, f"{st.task_type} ({st.points})")
        lines.append(f"    {q(sid)} [shape=box, label={label}];")
    lines.append("  }")
    lines += [f"  {q(s)} -- {q(j)};" for s, j in sorted(net.edges)]
    return "\n".join(lines) + "\n}\n"


def team3_inputs(study_dataset, study_profiles, project="TP1"):
    spec = study_dataset.projects[project]
    net = measures.build_network(roster(study_dataset, project, "Team_3"), spec,
                                 study_dataset.interactions_for(project, "Team_3"))
    profiles = [p for p in study_profiles[project] if p.team_id == "Team_3"]
    return net, profiles, spec


class TestDotExport:
    def test_team3_structure(self, study_dataset, study_profiles):
        net, profiles, spec = team3_inputs(study_dataset, study_profiles)
        dot = export_network_dot(net, profiles, spec)
        nodes, edges, ranks = parse_dot(dot)
        students = [n for n in nodes if n.startswith("S")]
        subtasks = [n for n in nodes if n.startswith("TP1-")]
        assert len(students) == 3
        assert len(subtasks) == 78
        assert ranks == 2
        # bipartite: every edge joins a student to a subtask
        for a, b in edges:
            assert a in students and b in subtasks
        assert 'peripheries=2' in dot          # leader flagged
        assert '\\nDesign (' in dot            # type and points annotated

    def test_empty_network(self):
        spec = make_spec()
        roster = make_roster()
        net = measures.build_network(roster, spec, ())
        profiles = [
            ContributionProfile(s, "P1", "T1", 0.0, 0.0, s == "S1", Role.FREE_RIDER)
            for s in ("S1", "S2", "S3")
        ]
        dot = export_network_dot(net, profiles, spec)
        nodes, edges, _ = parse_dot(dot)
        assert len(nodes) == 9
        assert edges == []

    def test_deterministic(self, study_dataset, study_profiles):
        net, profiles, spec = team3_inputs(study_dataset, study_profiles)
        assert export_network_dot(net, profiles, spec) == \
            export_network_dot(net, profiles, spec)

    @given(st.lists(st.text(), min_size=1, max_size=3))
    def test_quote_escapes_each_line_then_joins(self, lines):
        escaped = [s.replace("\\", "\\\\").replace('"', '\\"') for s in lines]
        assert report._dot_quote(*lines) == '"' + "\\n".join(escaped) + '"'

    def test_subtask_block_for_specs_equal_by_value(self, study_dataset, study_profiles):
        net, profiles, spec = team3_inputs(study_dataset, study_profiles)
        twin = ProjectSpec(spec.project_id, tuple(
            Subtask(st.subtask_id, st.project_id, st.task_type, st.points)
            for st in spec.subtasks))
        relabeled = ProjectSpec(spec.project_id, tuple(
            Subtask(st.subtask_id, st.project_id, st.task_type, 1) for st in spec.subtasks))
        assert twin == spec and twin is not spec and relabeled != spec
        for s in (spec, twin, relabeled, spec):
            assert export_network_dot(net, profiles, s) == reference_dot(net, profiles, s)

    def test_subtask_block_for_nodes_other_than_the_spec(self, study_dataset, study_profiles):
        net, profiles, spec = team3_inputs(study_dataset, study_profiles)
        expected = reference_dot(net, profiles, spec)
        assert export_network_dot(net, profiles, spec) == expected
        # a user-built network: fewer subtask nodes than the spec, in
        # another order, and an edge to a node outside them
        nodes = tuple(reversed(net.subtask_nodes[:5]))
        edges = {(s, j) for s, j in net.edges if j in nodes} | {("S_x", "TP1-A077")}
        partial = BipartiteNetwork(net.team_id, net.project_id, net.student_nodes,
                                   nodes, frozenset(edges))
        dot = export_network_dot(partial, profiles, spec)
        assert dot == reference_dot(partial, profiles, spec)
        assert dot.count("shape=box") == 5
        assert export_network_dot(net, profiles, spec) == expected

    def test_missing_profile_rejected(self, study_dataset, study_profiles):
        net, profiles, spec = team3_inputs(study_dataset, study_profiles)
        with pytest.raises(ValueError, match="missing"):
            export_network_dot(net, profiles[:-1], spec)


def svg_points(svg):
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    stars, circles = [], []
    for poly in root.iter(f"{ns}polygon"):
        pts = [tuple(map(float, p.split(","))) for p in poly.get("points").split()]
        cx = sum(x for x, _ in pts) / len(pts)
        cy = sum(y for _, y in pts) / len(pts)
        stars.append((cx, cy))
    for c in root.iter(f"{ns}circle"):
        circles.append((float(c.get("cx")), float(c.get("cy"))))
    arrows = [l for l in root.iter(f"{ns}line") if l.get("marker-end")]
    return stars, circles, arrows


class TestQuadrantSvg:
    def test_tp1_leader_stars_in_upper_right(self, study_profiles):
        svg = export_quadrant_svg(study_profiles["TP1"])
        stars, _, _ = svg_points(svg)
        assert len(stars) == 7
        for cx, cy in stars:
            assert cx > 300.0, "leader star left of the quantity cut"
            assert cy < 300.0, "leader star below the heterogeneity cut"

    def test_boundary_point_renders_on_cut_intersection(self):
        prof = ContributionProfile("S1", "P1", "T1", 0.5, 0.5, False,
                                   Role.COMPREHENSIVE_CONTRIBUTOR)
        svg = export_quadrant_svg([prof])
        _, circles, _ = svg_points(svg)
        assert (300.0, 300.0) in circles
        assert "comprehensive contributor" in svg

    def test_two_project_arrows_only_for_movers(self, study_profiles):
        combined = list(study_profiles["TP1"]) + list(study_profiles["TP2"])
        svg = export_quadrant_svg(combined)
        _, _, arrows = svg_points(svg)
        paired = {p.student_id for p in study_profiles["TP1"]} & \
                 {p.student_id for p in study_profiles["TP2"]}
        tp1 = {p.student_id: p for p in study_profiles["TP1"]}
        tp2 = {p.student_id: p for p in study_profiles["TP2"]}
        movers = [s for s in paired
                  if (tp1[s].quantity, tp1[s].heterogeneity)
                  != (tp2[s].quantity, tp2[s].heterogeneity)]
        assert len(arrows) == len(movers)

    def test_well_formed_and_deterministic(self, study_profiles):
        svg = export_quadrant_svg(study_profiles["TP1"])
        ET.fromstring(svg)  # raises on malformed XML
        assert svg == export_quadrant_svg(study_profiles["TP1"])
        assert 'viewBox="0 0 600 600"' in svg

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            export_quadrant_svg([])

    def test_markup_in_ids_is_escaped(self):
        prof = ContributionProfile("S<1>&co", "P&Q", "T1", 0.3, 0.7, False,
                                   Role.VERSATILE_PARTICIPANT)
        root = ET.fromstring(export_quadrant_svg([prof]))
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "S<1>&co" in texts
        assert "P&Q" in texts


class TestReportJson:
    def test_study_bundle_contents(self, study_dataset):
        bundle = pipeline.run_analysis(study_dataset)
        text = report_to_json(bundle)
        import json
        doc = json.loads(text)
        table = doc["transitions"]["TP1->TP2"]["contingency"]
        assert (table["a"], table["b"], table["c"], table["d"]) == (8, 1, 5, 6)
        assert doc["transitions"]["TP1->TP2"]["barnard"]["t"] == pytest.approx(
            2.026, abs=1e-3)
        assert doc["transitions"]["TP1->TP2"]["dropouts"] == ["S6"]
        assert doc["schema_version"] == 1
        assert doc["metadata"]["thresholds"]["quantity_cut"] == 0.5
        assert len(doc["profiles"]["TP1"]) == 21
        assert doc["mann_whitney"]["TP1/quantity"]["u"] == 1.0

    def test_deterministic_bytes(self, study_dataset):
        a = report_to_json(pipeline.run_analysis(study_dataset))
        b = report_to_json(pipeline.run_analysis(study_dataset))
        assert a == b

    def test_empty_dataset_still_valid(self):
        ds = Dataset(projects={}, rosters=(), interactions=())
        bundle = pipeline.run_analysis(ds)
        import json
        doc = json.loads(report_to_json(bundle))
        assert doc["profiles"] == {}
        assert doc["transitions"] == {}
        assert doc["mann_whitney"] == {}

    def test_write_report_json(self, study_dataset, tmp_path):
        bundle = pipeline.run_analysis(study_dataset)
        path = write_report_json(bundle, tmp_path / "report.json")
        assert path.read_text().endswith("\n")
