import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import collabnet
from collabnet.cli import build_parser, main

from conftest import FIXTURES, make_dataset, make_interactions, make_roster, make_spec

STUDY = FIXTURES / "study"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def teamless(tmp_path):
    """The study fixture plus a project TP3 that has a subtask but no teams."""
    data = tmp_path / "teamless"
    shutil.copytree(STUDY, data)
    with open(data / "subtasks.csv", "a", encoding="utf-8") as fh:
        fh.write("TP3,X1,Written,2\n")
    return data


class TestAnalyze:
    def test_study_fixture_full_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, "analyze", "--data", STUDY, "--out", out)
        assert code == 0
        assert (out / "report.json").is_file()
        assert len(list(out.glob("network_*.dot"))) == 13  # 7 TP1 + 6 TP2 teams
        assert (out / "quadrant_TP1.svg").is_file()
        assert (out / "quadrant_TP2.svg").is_file()
        assert (out / "quadrant_TP1_TP2.svg").is_file()
        tp1_rows = [line for line in stdout.splitlines()
                    if line.startswith("TP1") and "comprehensive contributor" in line]
        assert len(tp1_rows) == 8  # seven leaders plus S18
        leader_rows = [line for line in tp1_rows if "yes" in line]
        assert len(leader_rows) == 7
        doc = json.loads((out / "report.json").read_text())
        assert sorted(doc["metadata"]["inputs"]) == [
            "interactions.csv", "subtasks.csv", "teams.csv"]

    def test_json_bundle_input(self, tmp_path, capsys):
        from collabnet.model import load_dataset, write_dataset
        ds = load_dataset(STUDY)
        write_dataset(ds, tmp_path, fmt="json")
        out = tmp_path / "out"
        code, _, _ = run(capsys, "analyze", "--data", tmp_path / "dataset.json",
                         "--out", out)
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert list(doc["metadata"]["inputs"]) == ["dataset.json"]
        table = doc["transitions"]["TP1->TP2"]["contingency"]
        assert (table["a"], table["b"], table["c"], table["d"]) == (8, 1, 5, 6)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "analyze", "--data", STUDY, "--out", out1)[0] == 0
        assert run(capsys, "analyze", "--data", STUDY, "--out", out2)[0] == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_missing_file_exits_2(self, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(STUDY, broken)
        (broken / "interactions.csv").unlink()
        code, _, stderr = run(capsys, "analyze", "--data", broken, "--out", tmp_path / "o")
        assert code == 2
        assert "interactions.csv" in stderr

    @pytest.mark.parametrize("section", ["projects", "teams", "interactions"])
    def test_non_object_bundle_row_exits_1(self, tmp_path, capsys, section):
        doc = {"projects": [], "teams": [], "interactions": []}
        doc[section] = [["P1", "T1", "S1", 1]]
        bundle = tmp_path / "dataset.json"
        bundle.write_text(json.dumps(doc), encoding="utf-8")
        code, _, stderr = run(capsys, "analyze", "--data", bundle, "--out", tmp_path / "o")
        assert code == 1
        assert stderr.splitlines() == [
            f"error: {bundle}:{section}[0]: row must be an object, got list"]

    def test_ids_stay_one_file_name_inside_out(self, tmp_path, capsys):
        from collabnet.model import write_dataset
        ds = make_dataset(roster=make_roster(team_id="A/B"),
                          interactions=make_interactions([("S1", "A1")], team_id="A/B"))
        write_dataset(ds, tmp_path / "data")
        out = tmp_path / "out"
        code, _, _ = run(capsys, "analyze", "--data", tmp_path / "data", "--out", out)
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "network_P1_A%2FB.dot", "quadrant_P1.svg", "report.json"]

    def test_teams_sharing_a_file_name_exit_1(self, tmp_path, capsys):
        # ids are joined with "_", so team 1_X of P and team X of P_1 share a name
        from collabnet.model import Dataset, write_dataset
        teams = (("P", "1_X"), ("P_1", "X"))
        ds = Dataset(projects={pid: make_spec(pid) for pid, _ in teams},
                     rosters=tuple(make_roster(team_id=t, project_id=pid) for pid, t in teams),
                     interactions=sum((make_interactions([("S1", "A1")], team_id=t, project_id=pid)
                                       for pid, t in teams), ()))
        write_dataset(ds, tmp_path / "data")
        out = tmp_path / "out"
        code, stdout, stderr = run(capsys, "analyze", "--data", tmp_path / "data", "--out", out)
        assert code == 1
        assert stdout == ""
        assert stderr.splitlines() == [
            "error: project 'P' team '1_X' and project 'P_1' team 'X'"
            " would both be written to network_P_1_X.dot"]
        assert not out.exists()

    def test_project_without_teams_has_empty_profiles(self, teamless, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, stderr = run(capsys, "analyze", "--data", teamless, "--out", out)
        assert code == 0, stderr
        doc = json.loads((out / "report.json").read_text())
        assert doc["profiles"]["TP3"] == []
        assert "TP3/quantity" not in doc["mann_whitney"]
        assert list(doc["transitions"]) == ["TP1->TP2", "TP2->TP3"]
        assert "barnard" not in doc["transitions"]["TP2->TP3"]
        # no chart for TP3, and no combined chart with three projects
        assert sorted(p.name for p in out.glob("quadrant_*.svg")) == [
            "quadrant_TP1.svg", "quadrant_TP2.svg"]
        assert len(list(out.glob("network_*.dot"))) == 13

    def test_tails_two_applies_to_every_mann_whitney_test(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, stderr = run(capsys, "analyze", "--data", STUDY, "--tails", "two",
                              "--out", out)
        assert code == 0, stderr
        mwu = json.loads((out / "report.json").read_text())["mann_whitney"]
        assert len(mwu) == 4
        for entry in mwu.values():
            assert entry["tails"] == "two"
            assert entry["p"] == entry["p_two_sided"]

    def test_directory_at_an_output_name_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        code, _, stderr = run(capsys, "analyze", "--data", STUDY, "--out", out)
        assert code == 2
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("error: ")
        assert "report.json" in stderr and "Traceback" not in stderr

    def test_validation_failure_exits_1(self, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(STUDY, broken)
        with open(broken / "interactions.csv", "a") as fh:
            fh.write("TP1,Team_1,S1,NOT-A-SUBTASK,\n")
        code, _, stderr = run(capsys, "analyze", "--data", broken, "--out", tmp_path / "o")
        assert code == 1
        assert "UnknownSubtask" in stderr

    def test_threshold_flags_change_roles(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "analyze", "--data", STUDY,
                              "--out", tmp_path / "o",
                              "--quantity-cut", "0.05", "--heterogeneity-cut", "0.05")
        assert code == 0
        # S9 (TP1 free rider at the default cuts) clears the lowered cuts
        s9_row = next(line for line in stdout.splitlines()
                      if line.startswith("TP1") and " S9 " in f" {line} ")
        assert "comprehensive contributor" in s9_row


class TestStats:
    def test_tp1_quantity_reproduces_effect_size(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, "stats", "--data", STUDY, "--project", "TP1",
                              "--measure", "quantity", "--out", out)
        assert code == 0
        assert "U = 1" in stdout
        assert "r = 0.7814" in stdout
        doc = json.loads((out / "mwu_TP1_quantity.json").read_text())
        assert doc["u"] == 1.0
        assert doc["r"] == pytest.approx(0.781, abs=1e-3)

    def test_unknown_project_lists_known_ids(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "stats", "--data", STUDY, "--project", "TP9",
                              "--measure", "quantity", "--out", tmp_path / "o")
        assert code == 1
        assert "TP1" in stderr and "TP2" in stderr

    def test_no_leaders_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(STUDY, data)
        teams = (data / "teams.csv").read_text().replace(",1\n", ",0\n")
        (data / "teams.csv").write_text(teams)
        code, _, stderr = run(capsys, "stats", "--data", data, "--project", "TP1",
                              "--measure", "quantity", "--out", tmp_path / "o")
        assert code == 1
        assert "leader" in stderr

    def test_project_without_teams_is_an_error(self, teamless, tmp_path, capsys):
        code, _, stderr = run(capsys, "stats", "--data", teamless, "--project", "TP3",
                              "--measure", "quantity", "--out", tmp_path / "o")
        assert code == 1
        assert stderr.splitlines() == [
            "error: leader-vs-nonleader grouping needs both groups nonempty in"
            " project 'TP3' (leaders: 0, non-leaders: 0)"]

    def test_exact_method_flag(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "stats", "--data", STUDY, "--project", "TP1",
                              "--measure", "quantity", "--exact-mwu",
                              "--out", tmp_path / "o")
        assert code == 0
        assert "method = exact" in stdout


class TestTransitions:
    def test_study_pair(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, "transitions", "--data", STUDY,
                              "TP1", "TP2", "--out", out)
        assert code == 0
        assert "[  8   1]" in stdout
        assert "[  5   6]" in stdout
        assert "T = 2.0260" in stdout
        doc = json.loads((out / "transitions_TP1_TP2.json").read_text())
        assert doc["contingency"] == {"a": 8, "b": 1, "c": 5, "d": 6}
        assert doc["barnard"]["p_two_sided"] == pytest.approx(0.0509, abs=1e-3)

    def test_tails_one_applies_to_barnard(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, stderr = run(capsys, "transitions", "--data", STUDY, "TP1", "TP2",
                              "--tails", "one", "--out", out)
        assert code == 0, stderr
        barnard = json.loads((out / "transitions_TP1_TP2.json").read_text())["barnard"]
        assert barnard["tails"] == "one"
        assert barnard["p"] == barnard["p_one_sided"]

    def test_reversed_pair_lists_joiners(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, stderr = run(capsys, "transitions", "--data", STUDY,
                                   "TP2", "TP1", "--out", out)
        assert code == 0, stderr
        assert "  joiners (only in TP1): S6" in stdout.splitlines()
        doc = json.loads((out / "transitions_TP2_TP1.json").read_text())
        assert doc["joiners"] == ["S6"]
        assert doc["dropouts"] == []

    def test_unknown_project_exits_1(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "transitions", "--data", STUDY,
                              "TP1", "TP9", "--out", tmp_path / "o")
        assert code == 1
        assert "known projects" in stderr

    def test_identical_projects_give_degenerate_table(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "transitions", "--data", STUDY,
                              "TP1", "TP1", "--out", tmp_path / "o")
        assert code == 0
        assert "[  0   0]" in stdout
        assert "[  0  21]" in stdout
        assert "skipped" in stdout  # zero leadership-change margin

    def test_project_without_teams_drops_everyone(self, teamless, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, stderr = run(capsys, "transitions", "--data", teamless,
                                   "TP2", "TP3", "--out", out)
        assert code == 0, stderr
        assert "Barnard's test skipped" in stdout
        tp2 = sorted({line.split(",")[2] for line in (STUDY / "teams.csv").read_text()
                      .splitlines()[1:] if line.startswith("TP2,")})
        doc = json.loads((out / "transitions_TP2_TP3.json").read_text())
        assert sorted(doc["dropouts"]) == tp2 and len(tp2) == 20
        assert doc["joiners"] == []
        assert doc["contingency"] == {"a": 0, "b": 0, "c": 0, "d": 0}
        assert "barnard" not in doc

    def test_too_fine_barnard_grid_exits_1(self, tmp_path, capsys):
        code, stdout, stderr = run(capsys, "transitions", "--data", STUDY, "TP1", "TP2",
                                   "--barnard-grid", "1e-12", "--out", tmp_path / "o")
        assert code == 1
        assert stdout == ""
        assert stderr.splitlines() == [
            "error: grid_resolution must be in [1e-06, 0.1], got 1e-12"]


COHORT_SPEC = {
    "seed": 5,
    "groups": 7,
    "group_size": 3,
    "project": {
        "project_id": "TP1",
        "type_counts": {"Written": 35, "Research": 26, "Design": 17},
        "point_values": {"2": 19, "3": 30, "5": 17, "10": 12},
    },
    "targets": [
        {"role": "comprehensive_contributor", "quantity_band": [0.65, 0.9],
         "heterogeneity_band": [0.7, 0.95], "is_leader": True},
        {"role": "versatile_participant", "quantity_band": [0.08, 0.35],
         "heterogeneity_band": [0.65, 0.95]},
        {"role": "free_rider", "quantity_band": [0.0, 0.25],
         "heterogeneity_band": [0.0, 0.35]},
    ],
}


class TestSynth:
    def test_generates_cohort_files(self, tmp_path, capsys):
        spec_path = tmp_path / "cohort.json"
        spec_path.write_text(json.dumps(COHORT_SPEC))
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, "synth", "--spec", spec_path, "--out", out)
        assert code == 0
        assert "generated 21 students in 7 teams" in stdout
        for name in ("subtasks.csv", "teams.csv", "interactions.csv"):
            assert (out / name).is_file()

    def test_rerun_is_identical(self, tmp_path, capsys):
        spec_path = tmp_path / "cohort.json"
        spec_path.write_text(json.dumps(COHORT_SPEC))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "synth", "--spec", spec_path, "--out", out1)[0] == 0
        assert run(capsys, "synth", "--spec", spec_path, "--out", out2)[0] == 0
        for name in ("subtasks.csv", "teams.csv", "interactions.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_wrong_typed_section_exits_1(self, tmp_path, capsys):
        spec_path = tmp_path / "cohort.json"
        spec_path.write_text(json.dumps({**COHORT_SPEC, "targets": 5}))
        code, _, stderr = run(capsys, "synth", "--spec", spec_path, "--out", tmp_path / "o")
        assert code == 1
        assert str(spec_path) in stderr
        assert "Traceback" not in stderr

    def test_string_leader_flag_exits_1(self, tmp_path, capsys):
        # bool("false") is True: two such targets read as two leaders per group
        doc = json.loads(json.dumps(COHORT_SPEC))
        for target in doc["targets"][1:]:
            target["is_leader"] = "false"
        spec_path = tmp_path / "cohort.json"
        spec_path.write_text(json.dumps(doc))
        code, stdout, stderr = run(capsys, "synth", "--spec", spec_path, "--out", tmp_path / "o")
        assert (code, stdout) == (1, "")
        assert stderr == (f"error: {spec_path}: targets[1].is_leader must be true or false,"
                          " got 'false'\n")

    def test_malformed_spec_exits_1_naming_file(self, tmp_path, capsys):
        spec_path = tmp_path / "cohort.json"
        spec_path.write_text('{"seed": 1 "groups": 2}')
        code, _, stderr = run(capsys, "synth", "--spec", spec_path, "--out", tmp_path / "o")
        assert code == 1
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith(f"error: {spec_path}: invalid JSON: ")

    def test_seed_override_changes_output(self, tmp_path, capsys):
        spec_path = tmp_path / "cohort.json"
        spec_path.write_text(json.dumps(COHORT_SPEC))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "synth", "--spec", spec_path, "--out", out1)[0] == 0
        assert run(capsys, "synth", "--spec", spec_path, "--out", out2,
                   "--seed", "99")[0] == 0
        assert (out1 / "subtasks.csv").read_bytes() != (out2 / "subtasks.csv").read_bytes()

    def test_infeasible_band_exits_1(self, tmp_path, capsys):
        bad = dict(COHORT_SPEC)
        bad["targets"] = [dict(COHORT_SPEC["targets"][0]),
                          dict(COHORT_SPEC["targets"][1]),
                          {"role": "specialized_contributor",
                           "quantity_band": [0.97, 0.99],
                           "heterogeneity_band": [0.0, 0.1]}]
        spec_path = tmp_path / "cohort.json"
        spec_path.write_text(json.dumps(bad))
        code, _, stderr = run(capsys, "synth", "--spec", spec_path,
                              "--out", tmp_path / "o")
        assert code == 1
        assert "quantity band" in stderr

    def test_json_format_output(self, tmp_path, capsys):
        spec_path = tmp_path / "cohort.json"
        spec_path.write_text(json.dumps(COHORT_SPEC))
        out = tmp_path / "out"
        code, _, _ = run(capsys, "synth", "--spec", spec_path, "--out", out,
                         "--format", "json")
        assert code == 0
        assert (out / "dataset.json").is_file()


class TestMisc:
    def test_subcommand_files_agree_with_analyze(self, tmp_path, capsys):
        for argv in (["analyze", "--exact-mwu"],
                     ["stats", "--exact-mwu", "--project", "TP2", "--measure", "quantity"],
                     ["transitions", "TP1", "TP2"]):
            code, _, _ = run(capsys, *argv, "--data", STUDY, "--out", tmp_path)
            assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        mwu = json.loads((tmp_path / "mwu_TP2_quantity.json").read_text())
        assert list(mwu.items()) == list(report["mann_whitney"]["TP2/quantity"].items())
        entry = report["transitions"]["TP1->TP2"]
        doc = json.loads((tmp_path / "transitions_TP1_TP2.json").read_text())
        assert doc["contingency"] == {k: entry["contingency"][k] for k in "abcd"}
        assert list(doc["barnard"].items()) == list(entry["barnard"].items())
        assert (doc["dropouts"], doc["joiners"]) == (entry["dropouts"], entry["joiners"])

    @pytest.mark.parametrize("argv", [
        ("analyze",),
        ("stats", "--project", "TP1", "--measure", "quantity"),
        ("transitions", "TP1", "TP2"),
    ])
    def test_input_format_follows_data(self, tmp_path, capsys, argv):
        # a directory is read as CSVs and a file as a JSON bundle; there is no flag
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--data", str(STUDY), "--format", "csv",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    SHARED = {"--data", "--out", "--tails", "--quantity-cut", "--heterogeneity-cut",
              "--continuity", "--exact-mwu", "--barnard-grid"}

    def test_each_subcommand_takes_the_options_it_reads(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        shared = {name: {o for a in sub.choices[name]._actions for o in a.option_strings}
                  & self.SHARED for name in ("analyze", "stats", "transitions")}
        assert shared["analyze"] == self.SHARED
        assert shared["stats"] == self.SHARED - {"--quantity-cut", "--heterogeneity-cut",
                                                 "--barnard-grid"}
        assert shared["transitions"] == self.SHARED - {"--exact-mwu", "--continuity"}
        assert sum(map(len, shared.values())) == 19

    @pytest.mark.parametrize("argv, flag", [
        (("stats", "--project", "TP1", "--measure", "quantity"), ("--quantity-cut", "1.5")),
        (("stats", "--project", "TP1", "--measure", "quantity"),
         ("--heterogeneity-cut", "0.3")),
        (("stats", "--project", "TP1", "--measure", "quantity"), ("--barnard-grid", "0.05")),
        (("transitions", "TP1", "TP2"), ("--exact-mwu",)),
        (("transitions", "TP1", "TP2"), ("--continuity",)),
    ], ids=["stats-quantity-cut", "stats-heterogeneity-cut", "stats-barnard-grid",
            "transitions-exact-mwu", "transitions-continuity"])
    def test_option_the_subcommand_does_not_read_exits_2(self, tmp_path, capsys, argv, flag):
        # stats --quantity-cut 1.5 exited 1 on a cut that changes none of its output
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--data", str(STUDY), *flag, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_help_prints_the_default_cuts(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "quantity classification cut in (0,1), default 0.5" in text
        assert "heterogeneity classification cut in (0,1), default 0.5" in text
        assert "nuisance grid step for Barnard's test, default 0.0001" in text

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "collabnet" in capsys.readouterr().out

    def test_out_dir_env_fallback(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("COLLABNET_OUT", str(env_dir))
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "stats", "--data", STUDY, "--project", "TP1",
                         "--measure", "heterogeneity")
        assert code == 0
        assert (env_dir / "mwu_TP1_heterogeneity.json").is_file()


# Run in a fresh interpreter: cli.main with stdout captured, then report the
# exit code and whether numpy was imported.
NUMPY_PROBE = """\
import contextlib, io, json, sys
from collabnet import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, "numpy" in sys.modules]))
"""


def fresh_python(*args) -> str:
    src = str(Path(collabnet.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


class TestStartup:
    """Only a run that performs Barnard's test imports numpy."""

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("startup")
        (root / "cohort.json").write_text(json.dumps(COHORT_SPEC))
        assert main(["synth", "--spec", str(root / "cohort.json"),
                     "--out", str(root / "solo")]) == 0
        shutil.copytree(STUDY, root / "broken")
        with open(root / "broken" / "interactions.csv", "a") as fh:
            fh.write("TP1,Team_1,S1,NOT-A-SUBTASK,\n")
        return root

    @pytest.mark.parametrize("module", ["collabnet", "collabnet.cli"])
    def test_import_loads_no_numpy(self, module):
        code = f"import sys, {module}; print('numpy' in sys.modules)"
        assert fresh_python("-c", code).strip() == "False"

    def test_wald_statistic_loads_no_numpy(self):
        code = ("import sys; from collabnet import ContingencyTable2x2, wald_pooled_statistic;"
                " wald_pooled_statistic(ContingencyTable2x2(8, 1, 5, 6));"
                " print('numpy' in sys.modules)")
        assert fresh_python("-c", code).strip() == "False"

    def test_zero_statistic_barnard_loads_no_numpy(self):
        code = ("import sys; from collabnet import ContingencyTable2x2, barnard_test;"
                " r = barnard_test(ContingencyTable2x2(5, 5, 5, 5));"
                " print(r.p, r.nuisance_argmax, 'numpy' in sys.modules)")
        assert fresh_python("-c", code).split() == ["1.0", "0.0", "False"]

    @pytest.mark.parametrize("argv, code, loads_numpy", [
        (("analyze", "--data", "{solo}"), 0, False),
        (("stats", "--data", STUDY, "--project", "TP1", "--measure", "quantity"), 0, False),
        (("stats", "--data", STUDY, "--project", "TP1", "--measure", "quantity",
          "--exact-mwu"), 0, False),
        (("synth", "--spec", "{root}/cohort.json"), 0, False),
        (("analyze", "--data", "{root}/broken"), 1, False),
        (("--version",), 0, False),
        (("analyze", "--data", STUDY), 0, True),
    ], ids=["analyze-one-project", "stats", "stats-exact", "synth", "invalid", "version",
            "analyze-two-projects"])
    def test_numpy_loads_only_for_barnard(self, data, tmp_path, argv, code, loads_numpy):
        argv = [str(a).format(root=data, solo=data / "solo") for a in argv]
        if argv[0] != "--version":
            argv += ["--out", tmp_path / "o"]
        out = fresh_python("-c", NUMPY_PROBE, *argv)
        assert json.loads(out) == [code, loads_numpy]
