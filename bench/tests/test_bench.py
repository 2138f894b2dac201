"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from collabnet import pipeline, stats  # noqa: E402
from collabnet.model import write_dataset  # noqa: E402
from collabnet.roles import Role  # noqa: E402

CSVS = ("subtasks.csv", "teams.csv", "interactions.csv")


def _files(dataset, out: Path) -> dict[str, bytes]:
    write_dataset(dataset, out)
    return {name: (out / name).read_bytes() for name in CSVS}


def test_generator_is_deterministic_for_a_seed(tmp_path):
    first = _files(inputs.make_cohort(7, 12, (16, 24)), tmp_path / "a")
    again = _files(inputs.make_cohort(7, 12, (16, 24)), tmp_path / "b")
    other = _files(inputs.make_cohort(8, 12, (16, 24)), tmp_path / "c")
    assert first == again
    assert first["interactions.csv"] != other["interactions.csv"]


def test_generator_covers_roles_ties_and_repeats():
    dataset = inputs.make_cohort(1, 40, (60,))
    profiles = pipeline.project_profiles(dataset)["P1"]
    assert {p.role for p in profiles} == set(Role)
    quantities = [p.quantity for p in profiles]
    assert len(set(quantities)) < len(quantities)
    pairs = [(e.student_id, e.subtask_id) for e in dataset.interactions]
    assert len(set(pairs)) < len(pairs)


def test_pair_cohort_rotates_leaders_over_reshuffled_teams():
    dataset = inputs.make_cohort(3, 30, (16, 24))
    leaders = {pid: {r.leader for r in dataset.rosters_for_project(pid)}
               for pid in ("P1", "P2")}
    # only a team made up entirely of earlier leaders keeps a repeat leader
    assert len(leaders["P1"] & leaders["P2"]) < len(leaders["P2"]) / 5
    teams = {pid: {r.members for r in dataset.rosters_for_project(pid)}
             for pid in ("P1", "P2")}
    assert teams["P1"] != teams["P2"]


def test_traced_wrappers_are_restored(tmp_path):
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in tracing.TARGETS}
    op = run.Operation(run.STUDY, tmp_path / "out", ())
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.operation():
        assert all(vars(owner)[attr] is not fn for (owner, attr), fn in originals.items())
        assert op.run().error is None
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())

    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            raise RuntimeError("interrupted traced operation")
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())

    metrics = tracer.medians()
    assert metrics["pipeline.team_networks.calls"] == 2
    assert metrics["stats.barnard_test.calls"] == 1
    assert metrics["report.export_network_dot.calls"] == 13
    assert metrics["model.rows_parsed"] > 1068


def test_study_check_rejects_one_perturbed_number(tmp_path):
    op = run.Operation(run.STUDY, tmp_path / "out", ())
    assert op.run().error is None
    doc = json.loads(op.reference)
    assert run.check_study(doc) == []

    def perturbed(edit):
        copy = json.loads(op.reference)
        edit(copy)
        return run.check_study(copy)

    entry = "TP1->TP2"
    assert perturbed(lambda d: d["transitions"][entry]["barnard"].update(
        p_two_sided=d["transitions"][entry]["barnard"]["p_two_sided"] + 1e-6))
    assert perturbed(lambda d: d["transitions"][entry]["contingency"].update(a=7))
    assert perturbed(lambda d: d["mann_whitney"]["TP1/quantity"].update(u=2.0))


def test_quantity_check_rejects_a_wrong_quantity(tmp_path):
    data = tmp_path / "data"
    write_dataset(inputs.make_cohort(5, 10, (16,)), data)
    op = run.Operation(data, tmp_path / "out", ())
    assert op.run().error is None
    doc = json.loads(op.reference)
    assert run.check_quantities(doc, data, seed=5) == []
    for profile in doc["profiles"]["P1"]:
        profile["quantity"] += 1e-12
    assert run.check_quantities(doc, data, seed=5)


def test_overflow_probe_is_counted_as_failed(tmp_path, monkeypatch):
    assert run.PROBE.teams * inputs.TEAM_SIZE > 1030

    def overflowing(*args, **kwargs):
        raise OverflowError("int too large to convert to float")

    monkeypatch.setattr(run, "prepare_inputs", lambda workload, seed, work: run.STUDY)
    monkeypatch.setattr(stats, "barnard_test", overflowing)
    tally = run.probe_large_pair(1, tmp_path)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.errors[0].startswith("OverflowError")


def test_report_change_between_operations_fails_the_operation(tmp_path):
    op = run.Operation(run.STUDY, tmp_path / "out", ())
    assert op.run().error is None
    op.reference += b" "
    assert "differs" in op.run().error


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_the_declared_metrics(trace, capsys):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    assert run.run_workload("study", 1, 0.05, bool(trace)) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    assert {m: e["unit"] for m, e in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared[key]}
