import dataclasses
import os
import stat
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, strategies as st

from collabnet import measures, pipeline, report
from collabnet.measures import BipartiteNetwork
from collabnet.model import Dataset, ProjectSpec, Subtask, write_text
from collabnet.report import (
    ReportBundle,
    dot_subtasks,
    export_network_dot,
    export_quadrant_svg,
    report_to_json,
    write_report_json,
)
from collabnet.roles import QUADRANTS, ContributionProfile, Role, Thresholds

from conftest import make_roster, make_spec, parse_dot, roster


def reference_dot(net, leader, spec):
    """The DOT text rendered line by line from the spec, with no shared value."""
    q = report._dot_quote
    lines = [f"graph {q(f'collab_{net.project_id}_{net.team_id}')} {{", "  rankdir=LR;",
             '  node [fontsize=10, fontname="Helvetica"];', "  { rank=source;"]
    for s in net.student_nodes:
        if s == leader:
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


def team3_inputs(study_dataset, project="TP1"):
    spec = study_dataset.projects[project]
    team = roster(study_dataset, project, "Team_3")
    net = measures.build_network(team, spec, study_dataset.interactions_for(project, "Team_3"))
    return net, team.leader, spec


class TestDotExport:
    def test_team3_structure(self, study_dataset, study_profiles):
        net, leader, spec = team3_inputs(study_dataset)
        dot = export_network_dot(net, leader, dot_subtasks(spec))
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
        # the roster's leader is the student the profiles mark as leader
        assert [p.student_id for p in study_profiles["TP1"]
                if p.team_id == "Team_3" and p.is_assigned_leader] == [leader]
        assert f'label="{leader}\\n(leader)"' in dot
        assert '\\nDesign (' in dot            # type and points annotated

    def test_empty_network(self):
        spec = make_spec()
        roster = make_roster()
        net = measures.build_network(roster, spec, ())
        dot = export_network_dot(net, "S1", dot_subtasks(spec))
        nodes, edges, _ = parse_dot(dot)
        assert len(nodes) == 9
        assert edges == []

    def test_deterministic(self, study_dataset):
        net, leader, spec = team3_inputs(study_dataset)
        assert export_network_dot(net, leader, dot_subtasks(spec)) == \
            export_network_dot(net, leader, dot_subtasks(spec))

    @given(st.lists(st.text(), min_size=1, max_size=3))
    def test_quote_escapes_each_line_then_joins(self, lines):
        escaped = [s.replace("\\", "\\\\").replace('"', '\\"') for s in lines]
        assert report._dot_quote(*lines) == '"' + "\\n".join(escaped) + '"'

    def test_subtask_block_for_specs_equal_by_value(self, study_dataset):
        net, leader, spec = team3_inputs(study_dataset)
        twin = ProjectSpec(spec.project_id, tuple(
            Subtask(st.subtask_id, st.project_id, st.task_type, st.points)
            for st in spec.subtasks))
        relabeled = ProjectSpec(spec.project_id, tuple(
            Subtask(st.subtask_id, st.project_id, st.task_type, 1) for st in spec.subtasks))
        assert twin == spec and twin is not spec and relabeled != spec
        for s in (spec, twin, relabeled, spec):
            assert export_network_dot(net, leader, dot_subtasks(s)) == \
                reference_dot(net, leader, s)

    def test_subtask_block_for_nodes_other_than_the_spec(self, study_dataset):
        net, leader, spec = team3_inputs(study_dataset)
        expected = reference_dot(net, leader, spec)
        subtasks = dot_subtasks(spec)  # one value for all three drawings
        assert export_network_dot(net, leader, subtasks) == expected
        # a user-built network: fewer subtask nodes than the spec, in
        # another order, and an edge to a node outside them
        nodes = tuple(reversed(net.subtask_nodes[:5]))
        edges = {(s, j) for s, j in net.edges if j in nodes} | {("S_x", "TP1-A077")}
        partial = BipartiteNetwork(net.team_id, net.project_id, net.student_nodes,
                                   nodes, frozenset(edges))
        dot = export_network_dot(partial, leader, subtasks)
        assert dot == reference_dot(partial, leader, spec)
        assert dot.count("shape=box") == 5
        assert export_network_dot(net, leader, subtasks) == expected

    def test_other_projects_subtasks_rejected(self, study_dataset):
        net, leader, _ = team3_inputs(study_dataset)
        with pytest.raises(ValueError, match="spec project 'TP2' does not match network 'TP1'"):
            export_network_dot(net, leader, dot_subtasks(study_dataset.projects["TP2"]))


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
        tp1 = {p.student_id: p for p in study_profiles["TP1"]}
        tp2 = {p.student_id: p for p in study_profiles["TP2"]}
        paired = sorted(tp1.keys() & tp2.keys())
        # every fixture student moves; pin one paired student's TP2 point to its TP1 point
        still = paired[0]
        held = dict(tp2, **{still: dataclasses.replace(
            tp2[still], quantity=tp1[still].quantity, heterogeneity=tp1[still].heterogeneity)})
        for after in (tp2, held):
            _, _, arrows = svg_points(export_quadrant_svg([*tp1.values(), *after.values()]))
            movers = [s for s in paired
                      if (tp1[s].quantity, tp1[s].heterogeneity)
                      != (after[s].quantity, after[s].heterogeneity)]
            assert len(arrows) == len(movers)
            starts = {(a.get("x1"), a.get("y1")) for a in arrows}
            assert ((report._x(tp1[still].quantity), report._y(tp1[still].heterogeneity))
                    in starts) == (after is tp2)
        assert len(movers) == len(paired) - 1 == 19

    def test_well_formed_and_deterministic(self, study_profiles):
        svg = export_quadrant_svg(study_profiles["TP1"])
        ET.fromstring(svg)  # raises on malformed XML
        assert svg == export_quadrant_svg(study_profiles["TP1"])
        assert 'viewBox="0 0 600 600"' in svg

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            export_quadrant_svg([])

    @pytest.mark.parametrize("cut", [0.2, 0.5, 0.8])
    def test_labels_sit_on_their_side_of_the_quantity_cut(self, cut):
        # at 0.2 the low-quantity labels were drawn at x = 175, right of the cut at 150
        prof = ContributionProfile("S1", "P1", "T1", 0.3, 0.7, False,
                                   Role.VERSATILE_PARTICIPANT)
        root = ET.fromstring(export_quadrant_svg([prof], Thresholds(quantity_cut=cut)))
        labels = {t.text: (float(t.get("x")), float(t.get("y")))
                  for t in root.iter("{http://www.w3.org/2000/svg}text")}
        cut_x = 50 + 500 * cut
        for role, (high_q, high_h) in QUADRANTS.items():
            x, y = labels[role.describe()]
            side = (cut_x, 550.0) if high_q else (50.0, cut_x)
            assert x == pytest.approx(sum(side) / 2, abs=0.01), role
            assert y == (65.0 if high_h else 535.0), role

    def test_markup_in_ids_is_escaped(self):
        prof = ContributionProfile("S<1>&co", "P&Q", "T1", 0.3, 0.7, False,
                                   Role.VERSATILE_PARTICIPANT)
        root = ET.fromstring(export_quadrant_svg([prof]))
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "S<1>&co" in texts
        assert "P&Q" in texts

    def test_xml_forbidden_characters_become_replacement_char(self):
        sid = "S18\x01\x00\x08\x0b\x0c\x0e\x1f\ud800\udfff\ufffe\uffff|\t\ufffd\U0001f600"
        prof = ContributionProfile(sid, "P\x02", "T1", 0.3, 0.7, False,
                                   Role.VERSATILE_PARTICIPANT)
        root = ET.fromstring(export_quadrant_svg([prof]))
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "S18" + "\ufffd" * 11 + "|\t\ufffd\U0001f600" in texts
        assert "P\ufffd" in texts

    def test_replaces_exactly_what_xml_char_production_excludes(self):
        for cp in [*range(0x10000), 0x10000, 0x1F600, 0x10FFFF]:
            ch = chr(cp)
            allowed = (ch in "\t\n\r" or 0x20 <= cp <= 0xD7FF or 0xE000 <= cp <= 0xFFFD
                       or cp >= 0x10000)
            if ch not in "&<>":
                assert (report._svg_text(ch) == ch) is allowed, hex(cp)


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


class TestWriteText:
    @pytest.mark.parametrize("old, text", [(b"x" * 100, "caf\u00e9\nline 2\n"),
                                           (b"x", "caf\u00e9\nline 2\n"),
                                           (b"old bytes", "")],
                             ids=["longer", "shorter", "empty"])
    def test_existing_file_holds_exactly_the_new_bytes(self, tmp_path, old, text):
        path = tmp_path / "out.txt"
        path.write_bytes(old)
        assert write_text(path, text) == path
        assert path.read_bytes() == text.encode("utf-8")

    def test_line_endings_are_written_as_given(self, tmp_path):
        path = write_text(tmp_path / "out.txt", "a\nb\r\nc")
        assert path.read_bytes() == b"a\nb\r\nc"

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_gets_the_mode_open_would_give(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "reference.txt", "w"):
                pass
            write_text(tmp_path / "new.txt", "text")
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "new.txt").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "reference.txt").stat().st_mode)
        assert mode == 0o666 & ~umask

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        path.chmod(0o640)
        write_text(path, "new text")
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_text() == "new text"
