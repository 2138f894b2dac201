"""Golden outputs of `collabnet analyze --data fixtures/study` (default flags),
of the `stats` and `transitions` subcommands on the same fixture, and of
`collabnet analyze` on a seeded 40-team synthetic cohort written as CSV.

The determinism criterion only checks that two runs agree with each other;
these constants pin what the runs write. A change that moves any of them
must update the constants deliberately, with the reason in CHANGES.md.
Barnard's p-values and nuisance argmax come from a grid search with a
golden-section refinement and are compared within 1e-12 rather than bit
for bit.
"""

import hashlib
import importlib.util
import json

import pytest

from collabnet import synth
from collabnet.cli import main as cli_main
from collabnet.model import write_dataset
from collabnet.roles import Role
from collabnet.synth import PlantedCohortSpec, RoleTarget

from conftest import FIXTURES, TP1_TEMPLATE

FILE_SHA256 = {
    "network_TP1_Team_1.dot": "34210fb4f9e9d986a30c261afd036e20c4bfef51712aa67a3348f011b262f422",
    "network_TP1_Team_2.dot": "72fb077ecb85106c06f191e96986848c7017cbea23a6f3a89c18a303f7951ae7",
    "network_TP1_Team_3.dot": "69e3f45c4f745520c34401e62707e93eb6d71661e10c37383d3bd533203b0e94",
    "network_TP1_Team_4.dot": "7313beac8c950119026481e8818b6a88faa9b49611e0d5663922b6c08f604088",
    "network_TP1_Team_5.dot": "8672a772e95d7be61f0a4aea06dcfe2c62e56e09fcb29e37f7c5f4fed9aa4953",
    "network_TP1_Team_6.dot": "74fc62f58d5aec09a9d0a41660b6d27e2ddaa312aa7491cdcac138389fd1828e",
    "network_TP1_Team_7.dot": "2862d61775f0abc9146dfaf6116e2e4f305cc0353267b031eb3d326f799c1032",
    "network_TP2_Team_1.dot": "caf7c3877aac3b005a35c0e46348dfc3ddebb2f11ddb57ceeb26af943d1dec81",
    "network_TP2_Team_2.dot": "b91108ef52aba6fe2b5487c223509a21c64dfab464c3474c35cddcd1e5688e79",
    "network_TP2_Team_3.dot": "e721fb877edd3fb2b7d83378ab768f64add9bba5d612b75a70488e97d84bdd5d",
    "network_TP2_Team_5.dot": "c894c3e6a8adc7c054498ff1b800749a60468fe96162a420f89b853b1691b6d7",
    "network_TP2_Team_6.dot": "c909781d6e68d614162c434b7a46abbdf5f854baf8df727273097d80463ef6f2",
    "network_TP2_Team_7.dot": "c013c1c1ddc0e49f180a93770adcdeb1bf0aadf0ec372f944462d72397865560",
    "quadrant_TP1.svg": "5d4c025b5f11f36d49f58bb55095677eac99c2944f4eda321be78702e0346190",
    "quadrant_TP1_TP2.svg": "be736649ad8d64149aede5d635b83c487c2960a275be5677d74a021a96cdf4c7",
    "quadrant_TP2.svg": "b3ae37545d7458e77d90f659e5e5f594f5e39e09df30cbef257a211c5c4c251c",
}

# SHA-256 of json.dumps(section, sort_keys=True) for report.json sections
SECTION_SHA256 = {
    "profiles": "b3f21441e160f26f6ae87c6e430928f09dbfeb56f203bf72b12e6024e2fa2d87",
    "mann_whitney": "393437b7d00d9239cc7260629db7a2e3eeb52dbb0c16fc2b70fa99f884ed9a3f",
    "contingency": "757f07617342684e81c6736f07363565e2e65278e3671f2bd3d0fb905004de94",
}

# SHA-256 of the JSON file each subcommand writes
SUBCOMMAND_SHA256 = {
    ("stats", "--project", "TP1", "--measure", "quantity"):
        ("mwu_TP1_quantity.json",
         "bf1d8c1cc12cb32df023a5f3af8fad193423d29f4a8f1c4060fa478736f97796"),
    ("stats", "--project", "TP2", "--measure", "quantity", "--exact-mwu"):
        ("mwu_TP2_quantity.json",
         "3276fa56bc05c3fa99d21cec34ef36f2a3f05a4fa4d0c8973688c9b9b9b7466b"),
    ("transitions", "TP1", "TP1"):  # no leadership change, so no barnard key
        ("transitions_TP1_TP1.json",
         "7b744a605dc8984c72b2c5c0a611e53da3fe40208ea5b5dfea8ff29cd59bdb17"),
}

TRANSITIONS_TP1_TP2 = {"from": "TP1", "to": "TP2",
                       "contingency": {"a": 8, "b": 1, "c": 5, "d": 6},
                       "dropouts": ["S6"], "joiners": []}

BARNARD_EXACT = {"test": "barnard", "t": 2.026026679188629, "grid_resolution": 0.0001,
                 "tails": "two", "table": [8, 1, 5, 6]}
BARNARD_CLOSE = {"p": 0.050922814720210215, "p_one_sided": 0.02811043589769254,
                 "p_two_sided": 0.050922814720210215,
                 "nuisance_argmax": 0.39812688043770794}


# One project, 40 teams of four; every fourth student has no events.
COHORT = PlantedCohortSpec(seed=5, groups=40, group_size=4, project=TP1_TEMPLATE, targets=(
    RoleTarget(Role.COMPREHENSIVE_CONTRIBUTOR, (0.6, 0.9), (0.7, 0.95), is_leader=True),
    RoleTarget(Role.SPECIALIZED_CONTRIBUTOR, (0.55, 0.75), (0.0, 0.4)),
    RoleTarget(Role.VERSATILE_PARTICIPANT, (0.08, 0.35), (0.65, 0.95)),
    RoleTarget(Role.FREE_RIDER, (0.0, 0.0), (0.0, 0.0)),
))
# SHA-256 of json.dumps({dot file name: SHA-256}, sort_keys=True) over the 40 DOT files
COHORT_DOT_MANIFEST_SHA256 = "c7efd75a90eea70b9ad83ba9177dea6fd7e80517ef7ab10183ae7a739c2acc5d"
COHORT_FILE_SHA256 = {
    "quadrant_TP1.svg": "12953a391c8ae068b4067a092d178f445de3dbc4bda599cecb4507172bea0fb8",
    "report.json": "e0f752ab7833bca8f99a22db111debf5de4df51ed5047acd5af701e5037687a5",
}
# standard output, with the output directory written as <out>
COHORT_STDOUT_SHA256 = "ca8644a4658bc087ea9a16fb3e3c9270a499f40e5ed6848753e998057ba16f0b"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _assert_pinned_barnard(barnard: dict):
    assert set(barnard) == set(BARNARD_EXACT) | set(BARNARD_CLOSE)
    for key, value in BARNARD_EXACT.items():
        assert barnard[key] == value, key
    for key, value in BARNARD_CLOSE.items():
        assert barnard[key] == pytest.approx(value, rel=0, abs=1e-12), key


@pytest.fixture(scope="module")
def fixture_script():
    script = FIXTURES.parent / "scripts" / "build_study_fixture.py"
    spec = importlib.util.spec_from_file_location("build_study_fixture", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_study_fixture_is_what_its_script_builds(fixture_script, tmp_path):
    dataset = fixture_script.build_dataset()
    assert fixture_script.verify(dataset) == 0
    written = write_dataset(dataset, tmp_path, fmt="csv")
    for path in written:
        assert path.read_bytes() == (FIXTURES / "study" / path.name).read_bytes(), path.name
    assert len(written) == 3


def test_study_fixture_is_planted_through_the_construction_check(fixture_script,
                                                                 monkeypatch):
    monkeypatch.setattr(synth, "plant_contribution", lambda spec, q, h: ())
    with pytest.raises(synth.InfeasibleTargetError,
                       match=r"planted student 'S1' measured \(0\.0000, 0\.0000\),"
                             r" outside bands \(0\.72, 0\.74\) x \(0\.82, 0\.97\)"):
        fixture_script.build_dataset()


def test_study_fixture_script_verifies_what_it_builds(fixture_script, capsys):
    assert fixture_script.verify(fixture_script.build_dataset()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "contingency (8, 1, 5, 6)" in out
    assert "T = 2.026" in out


@pytest.fixture(scope="module")
def study_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    assert cli_main(["analyze", "--data", str(FIXTURES / "study"), "--out", str(out)]) == 0
    return out


def test_dot_and_svg_files_match_pinned_digests(study_out):
    written = {p.name: _sha256(p.read_bytes())
               for p in study_out.iterdir() if p.suffix in (".dot", ".svg")}
    assert written == FILE_SHA256


def _section_digests(doc: dict) -> dict[str, str]:
    sections = {
        "profiles": doc["profiles"],
        "mann_whitney": doc["mann_whitney"],
        "contingency": {key: t["contingency"] for key, t in doc["transitions"].items()},
    }
    return {name: _sha256(json.dumps(section, sort_keys=True).encode("utf-8"))
            for name, section in sections.items()}


def test_report_sections_match_pinned_digests(study_out):
    doc = json.loads((study_out / "report.json").read_text(encoding="utf-8"))
    assert _section_digests(doc) == SECTION_SHA256


def test_report_barnard_matches_pinned_values(study_out):
    doc = json.loads((study_out / "report.json").read_text(encoding="utf-8"))
    assert list(doc["transitions"]) == ["TP1->TP2"]
    _assert_pinned_barnard(doc["transitions"]["TP1->TP2"]["barnard"])


# Longer than any file a fixture run writes, so a re-run must shorten each one.
JUNK = "junk that a re-run must leave no trace of\n" * 1000


def _fill_with_junk(out, names):
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        (out / name).write_text(JUNK, encoding="utf-8")


def test_rerun_over_longer_files_matches_pinned_digests(study_out, tmp_path, capsys):
    out = tmp_path / "out"
    _fill_with_junk(out, [*FILE_SHA256, "report.json"])
    assert cli_main(["analyze", "--data", str(FIXTURES / "study"), "--out", str(out)]) == 0
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    assert all(len(data) < len(JUNK) for data in files.values())
    assert {name: _sha256(data) for name, data in files.items()
            if name != "report.json"} == FILE_SHA256
    doc = json.loads(files["report.json"])
    assert _section_digests(doc) == SECTION_SHA256
    _assert_pinned_barnard(doc["transitions"]["TP1->TP2"]["barnard"])
    assert files["report.json"] == (study_out / "report.json").read_bytes()


@pytest.mark.parametrize("argv", list(SUBCOMMAND_SHA256), ids=" ".join)
def test_subcommand_rerun_over_a_longer_file_matches_pinned_digest(argv, tmp_path, capsys):
    name, digest = SUBCOMMAND_SHA256[argv]
    _fill_with_junk(tmp_path, [name])
    assert cli_main([*argv, "--data", str(FIXTURES / "study"), "--out", str(tmp_path)]) == 0
    assert _sha256((tmp_path / name).read_bytes()) == digest


def test_transitions_rerun_over_a_longer_file_matches_pinned_values(tmp_path, capsys):
    _fill_with_junk(tmp_path, ["transitions_TP1_TP2.json"])
    assert cli_main(["transitions", "TP1", "TP2", "--data", str(FIXTURES / "study"),
                     "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "transitions_TP1_TP2.json").read_text(encoding="utf-8"))
    _assert_pinned_barnard(doc.pop("barnard"))
    assert doc == TRANSITIONS_TP1_TP2


@pytest.mark.parametrize("argv", list(SUBCOMMAND_SHA256), ids=" ".join)
def test_subcommand_file_matches_pinned_digest(argv, tmp_path, capsys):
    name, digest = SUBCOMMAND_SHA256[argv]
    assert cli_main([*argv, "--data", str(FIXTURES / "study"), "--out", str(tmp_path)]) == 0
    assert _sha256((tmp_path / name).read_bytes()) == digest


def test_transitions_file_matches_pinned_values(tmp_path, capsys):
    assert cli_main(["transitions", "TP1", "TP2", "--data", str(FIXTURES / "study"),
                     "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "transitions_TP1_TP2.json").read_text(encoding="utf-8"))
    assert list(doc) == [*TRANSITIONS_TP1_TP2, "barnard"]
    _assert_pinned_barnard(doc.pop("barnard"))
    assert doc == TRANSITIONS_TP1_TP2


def test_cohort_outputs_match_pinned_digests(tmp_path, capsys):
    dataset = synth.generate_cohort(COHORT)
    members = {s for r in dataset.rosters for s in r.members}
    silent = members - {i.student_id for i in dataset.interactions}
    assert len(dataset.rosters) == 40 and len(silent) == 40
    write_dataset(dataset, tmp_path / "data")
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli_main(["analyze", "--data", str(tmp_path / "data"), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    files = {p.name: _sha256(p.read_bytes()) for p in out.iterdir()}
    dots = {name: digest for name, digest in files.items() if name.endswith(".dot")}
    assert len(dots) == 40
    assert _sha256(json.dumps(dots, sort_keys=True).encode("utf-8")) == \
        COHORT_DOT_MANIFEST_SHA256
    assert {name: files[name] for name in files.keys() - dots.keys()} == COHORT_FILE_SHA256
    assert _sha256(stdout.encode("utf-8")) == COHORT_STDOUT_SHA256
