"""The shared analysis steps: `StatsOptions.mann_whitney`, `compare_projects`,
and the library use documented in the README."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from collabnet import pipeline, stats
from collabnet.report import ProjectComparison, ReportBundle, report_to_json
from collabnet.roles import Thresholds

README = Path(__file__).resolve().parent.parent / "README.md"


class TestCompareProjects:
    def test_study_pair(self, study_profiles):
        comparison = pipeline.compare_projects(study_profiles["TP1"], study_profiles["TP2"])
        assert isinstance(comparison, ProjectComparison)
        assert comparison.contingency.cells() == (8, 1, 5, 6)
        assert comparison.dropouts == ("S6",)
        assert comparison.joiners == ()
        assert len(comparison.pairs) == 20
        assert comparison.barnard.t == pytest.approx(2.026, abs=1e-3)
        assert comparison.barnard.tails == "two"

    @pytest.mark.parametrize("flip, cells", [(False, (0, 0, 0, 21)), (True, (0, 21, 0, 0))])
    def test_zero_row_sum_skips_barnard(self, study_profiles, flip, cells):
        after = [dataclasses.replace(p, project_id="TPX",
                                     is_assigned_leader=p.is_assigned_leader != flip)
                 for p in study_profiles["TP1"]]
        comparison = pipeline.compare_projects(study_profiles["TP1"], after)
        assert comparison.contingency.cells() == cells
        assert comparison.barnard is None

    def test_options_reach_barnard(self, study_profiles):
        options = pipeline.StatsOptions(barnard_tails="one", barnard_grid=0.01)
        result = pipeline.compare_projects(
            study_profiles["TP1"], study_profiles["TP2"], options).barnard
        assert (result.tails, result.grid_resolution) == ("one", 0.01)
        assert result.p == result.p_one_sided

    def test_run_analysis_keeps_one_comparison_per_pair(self, study_dataset, study_profiles):
        bundle = pipeline.run_analysis(study_dataset)
        assert bundle.transitions == {"TP1->TP2": pipeline.compare_projects(
            study_profiles["TP1"], study_profiles["TP2"])}

    def test_report_entry_key_order(self, study_dataset):
        doc = json.loads(report_to_json(pipeline.run_analysis(study_dataset)))
        assert list(doc["transitions"]["TP1->TP2"]) == [
            "pairs", "dropouts", "joiners", "contingency", "barnard"]

    def test_run_analysis_records_only_the_given_digests(self, study_dataset):
        assert pipeline.run_analysis(study_dataset).metadata["inputs"] == {}
        given = {"teams.csv": "b" * 64, "interactions.csv": "a" * 64}
        inputs = pipeline.run_analysis(study_dataset, input_digests=given).metadata["inputs"]
        assert list(inputs.items()) == sorted(given.items())

    def test_comparison_is_frozen(self, study_profiles):
        comparison = pipeline.compare_projects(study_profiles["TP1"], study_profiles["TP1"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            comparison.barnard = None


class TestStatsOptionsMannWhitney:
    @pytest.mark.parametrize("options", [
        pipeline.StatsOptions(),
        pipeline.StatsOptions(mwu_tails="two", continuity_correction=True),
        pipeline.StatsOptions(mwu_method="exact"),
    ])
    def test_passes_every_option(self, study_profiles, options):
        leaders, others = pipeline.leader_split(study_profiles["TP2"], "quantity")
        assert options.mann_whitney(leaders, others) == stats.mann_whitney_u(
            leaders, others, tails=options.mwu_tails,
            continuity_correction=options.continuity_correction,
            method=options.mwu_method)


def test_leader_split_refuses_an_unknown_measure(study_profiles):
    with pytest.raises(ValueError, match="^measure must be 'quantity' or 'heterogeneity',"
                                         " got 'role'$"):
        pipeline.leader_split(study_profiles["TP1"], "role")


def test_bundle_and_threshold_fields():
    assert [f.name for f in dataclasses.fields(ReportBundle)] == [
        "metadata", "profiles", "transitions", "mwu"]
    assert [f.name for f in dataclasses.fields(Thresholds)] == [
        "quantity_cut", "heterogeneity_cut"]


def test_readme_library_use_runs(monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.DOTALL)
    assert match, "README has no 'Library use' code block"
    monkeypatch.chdir(README.parent)
    exec(compile(match.group(1), str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 21 + 2
    assert out[-2] == "(8, 1, 5, 6)"
    assert float(out[-1]) == pytest.approx(0.0509, abs=1e-4)
