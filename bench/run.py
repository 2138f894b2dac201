#!/usr/bin/env python3
"""Benchmark for `collabnet analyze`, run from the root of a collabnet checkout.

    python3 bench/run.py --workload cohort-solo --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload

One operation is an in-process `cli.main(["analyze", "--data", DIR, "--out",
DIR, ...])` with its standard output captured. The benchmark drives it as a
closed loop: one client, one thread, each operation starting when the
previous one has returned, for at least --seconds and at least MIN_OPS
operations, so that ten operations lie beyond each reported percentile.

Latency is reported as p10 and p90, not as a median. On a shared 2-vCPU
host, operation times are bimodal: a fast mode and a mode about 1.7x slower
while the host is contended. The median falls between the modes and moves
with the mix, by 25% from run to run; p10 and p90 each stay inside one mode.

--trace 0 prints the end-to-end metrics. --trace 1 alternates traced and
untraced operations for the same time and prints the per-layer metrics of
the traced ones (see tracing.py) plus the tracing overhead.

Every operation's report.json must be byte-identical to the first one of
the run; the first one is also checked against the study fixture's pinned
numbers, or, for a synthetic cohort, against quantities recomputed from the
raw CSV events. Any failed operation makes the run incorrect: the result
line says so and the exit code is 1. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# collabnet, and with it numpy, is imported lazily below: pin the BLAS and
# OpenMP pools first, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STUDY = ROOT / "fixtures" / "study"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_out"

MIN_OPS = 110         # nearest-rank p10 and p90 of 110 samples have ten beyond them
OVERTIME_S = 100      # a slow program may extend the loop by this much to reach MIN_OPS
MIN_TRACED_PAIRS = 10
SETUP_RUNS = 9
RSS_RUNS = 3
# glibc's default starting mmap threshold, pinned in the RSS children: left
# dynamic, it rises after large numpy arrays are freed, and peak RSS then
# swings by ~10 MB with the order in which the input made those arrays.
RSS_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
QUANTITY_SAMPLE = 20  # students per project whose quantity is recomputed

STUDY_TABLE = (8, 1, 5, 6)
STUDY_TP1_QUANTITY_U = 1
STUDY_BARNARD_P = 0.05092281472021028

END_TO_END = {
    "op_s.p10": "s",
    "op_s.p90": "s",
    "students_per_s": "1/s",
    "ops_ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass(frozen=True)
class Workload:
    """One input shape; teams == 0 means the pinned study fixture."""

    name: str
    teams: int = 0
    project_sizes: tuple[int, ...] = ()
    flags: tuple[str, ...] = ()
    probe: bool = False


# Sizes keep one operation near or under 0.2 s on a 2-core box, so MIN_OPS
# operations fit in the run; see README.md for what each workload stresses.
WORKLOADS = {w.name: w for w in (
    Workload("study"),
    Workload("study-exact", flags=("--exact-mwu",)),
    Workload("cohort-solo", teams=85, project_sizes=(60,)),
    Workload("cohort-pair", teams=50, project_sizes=(16, 24), probe=True),
)}
# Past ~1,030 paired students Barnard's region weights overflow a float.
PROBE = Workload("probe", teams=400, project_sizes=(12, 12))


@dataclass
class Outcome:
    seconds: float
    error: str | None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------------
# Inputs and output checks
# --------------------------------------------------------------------------

def prepare_inputs(workload: Workload, seed: int, work: Path) -> Path:
    """Directory holding the workload's three CSVs (generated if synthetic)."""
    if not workload.teams:
        return STUDY
    from collabnet.model import write_dataset
    from inputs import make_cohort

    data = work / "data" / workload.name
    write_dataset(make_cohort(seed, workload.teams, workload.project_sizes), data)
    return data


def check_study(doc: dict) -> list[str]:
    """Errors if a study report misses the fixture's pinned numbers."""
    errors = []
    entry = doc.get("transitions", {}).get("TP1->TP2", {})
    table = entry.get("contingency", {})
    cells = tuple(table.get(k) for k in "abcd")
    if cells != STUDY_TABLE:
        errors.append(f"TP1->TP2 table {cells}, expected {STUDY_TABLE}")
    u = doc.get("mann_whitney", {}).get("TP1/quantity", {}).get("u")
    if u != STUDY_TP1_QUANTITY_U:
        errors.append(f"TP1 quantity U {u}, expected {STUDY_TP1_QUANTITY_U}")
    p = entry.get("barnard", {}).get("p_two_sided")
    if not isinstance(p, float) or abs(p - STUDY_BARNARD_P) > 1e-9:
        errors.append(f"Barnard two-sided p {p}, expected {STUDY_BARNARD_P} within 1e-9")
    return errors


def check_quantities(doc: dict, data: Path, seed: int) -> list[str]:
    """Recompute quantity from the raw CSV events for a seeded student sample."""
    points: dict[tuple[str, str], int] = {}
    with open(data / "subtasks.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            points[(row["project_id"], row["subtask_id"])] = int(row["points"])
    touched: dict[tuple[str, str], set[str]] = {}
    with open(data / "interactions.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            touched.setdefault((row["project_id"], row["student_id"]), set()).add(
                row["subtask_id"])
    rng = random.Random(seed)
    errors = []
    for pid, profiles in sorted(doc.get("profiles", {}).items()):
        total = sum(v for (p, _), v in points.items() if p == pid)
        for prof in rng.sample(profiles, min(QUANTITY_SAMPLE, len(profiles))):
            got = sum(points[(pid, s)] for s in touched.get((pid, prof["student_id"]), ()))
            if prof["quantity"] != got / total:
                errors.append(f"{pid}/{prof['student_id']}: quantity {prof['quantity']},"
                              f" raw events give {got}/{total}")
    if not doc.get("profiles"):
        errors.append("report has no profiles")
    return errors


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

class Operation:
    """One `collabnet analyze` call on fixed inputs, with its output checks."""

    def __init__(self, data: Path, out: Path, flags: tuple[str, ...]):
        self.argv = ["analyze", "--data", str(data), "--out", str(out), *flags]
        self.report = out / "report.json"
        self.reference: bytes | None = None

    def run(self) -> Outcome:
        from collabnet import cli

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = cli.main(self.argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed operation
                return Outcome(time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - start
        if code != 0:
            return Outcome(seconds, f"exit code {code}: {sink.getvalue()[-300:]}")
        body = self.report.read_bytes()
        if self.reference is None:
            self.reference = body
        elif body != self.reference:
            return Outcome(seconds, "report.json differs from the run's first one")
        return Outcome(seconds, None)


class Tally:
    """Attempted and failed operations of a run, with each failure's error."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def record(self, outcome: Outcome) -> Outcome:
        self.attempted += 1
        if outcome.error is not None:
            self.errors.append(outcome.error)
        return outcome

    @property
    def failed(self) -> int:
        return len(self.errors)


def closed_loop(step, seconds: float, min_steps: int) -> list:
    """Call step() back to back for `seconds` and at least min_steps times.

    A program too slow to reach min_steps stops after seconds + OVERTIME_S.
    """
    results = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds + OVERTIME_S or (elapsed >= seconds and len(results) >= min_steps):
            return results
        results.append(step())


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


# --------------------------------------------------------------------------
# Fresh-process measurements
# --------------------------------------------------------------------------

# The child reads its peak from VmHWM, not from getrusage: ru_maxrss carries
# over the RSS the parent had when it forked the child.
RSS_CHILD = """\
import contextlib, io, sys
from collabnet import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
if code != 0:
    sys.exit(f"analyze exited with {code}")
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing collabnet.cli."""
    cmd = [sys.executable, "-c", "import collabnet.cli"]
    env = child_env()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode caches
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb(op: Operation, out: Path) -> float:
    """Median peak RSS of fresh processes that each run one operation."""
    argv = list(op.argv)
    argv[argv.index("--out") + 1] = str(out)
    peaks = []
    for _ in range(RSS_RUNS):
        done = subprocess.run([sys.executable, "-c", RSS_CHILD, *argv],
                              env={**child_env(), **RSS_ENV},
                              cwd=ROOT, check=True, capture_output=True, text=True)
        peaks.append(int(done.stdout.split()[-1]) / 1024)  # VmHWM is in KiB
    return statistics.median(peaks)


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------

def first_operation(workload: Workload, op: Operation, data: Path, seed: int,
                    tally: Tally) -> int:
    """Untimed warm-up that sets and checks the reference report.

    Returns the number of students profiled per operation.
    """
    outcome = op.run()
    if outcome.error is None:
        doc = json.loads(op.reference)
        errors = (check_study(doc) if not workload.teams
                  else check_quantities(doc, data, seed))
        outcome.error = "; ".join(errors) or None
    if tally.record(outcome).error is not None:
        return 0
    return sum(len(profiles) for profiles in doc["profiles"].values())


def measure(op: Operation, students: int, seconds: float, tally: Tally,
            work: Path) -> dict[str, float]:
    outcomes = closed_loop(lambda: tally.record(op.run()), seconds, MIN_OPS)
    times = [o.seconds for o in outcomes]
    p10 = nearest_rank(times, 0.1)
    print(f"  {len(times)} timed operations in {sum(times):.2f} s,"
          f" {students} students profiled per operation,"
          f" median {statistics.median(times):.6g} s")
    return {
        "op_s.p10": p10,
        "op_s.p90": nearest_rank(times, 0.9),
        "students_per_s": students / p10,
        "ops_ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_rss_mb(op, work / "rss_out"),
        "setup_s": setup_seconds(),
    }


def probe_large_pair(seed: int, work: Path) -> Tally:
    """One untimed, untraced operation on ~1,200 paired students."""
    data = prepare_inputs(PROBE, seed, work)
    tally = Tally()
    tally.record(Operation(data, work / "probe_out", ()).run())
    return tally


def measure_traced(workload: Workload, op: Operation, seed: int, seconds: float,
                   tally: Tally, work: Path) -> dict[str, float]:
    import tracing

    tracer = tracing.Tracer()

    def pair():
        with tracing.installed(tracer), tracer.operation():
            traced = tally.record(op.run())
        return traced.seconds, tally.record(op.run()).seconds

    pairs = closed_loop(pair, seconds, MIN_TRACED_PAIRS)
    traced = nearest_rank([t for t, _ in pairs], 0.1)
    plain = nearest_rank([u for _, u in pairs], 0.1)
    print(f"  {len(pairs)} traced and {len(pairs)} untraced operations")
    metrics = tracer.medians()
    metrics["trace.overhead_frac"] = traced / plain - 1
    probe = probe_large_pair(seed, work) if workload.probe else Tally()
    for error in probe.errors:
        print(f"  large-pair probe failed: {error}")
    metrics["probe.large_pair.attempted"] = probe.attempted
    metrics["probe.large_pair.failed"] = probe.failed

    TRACES.mkdir(exist_ok=True)
    target = TRACES / f"trace-{workload.name}-seed{seed}.json"
    target.write_text(json.dumps({"environment": environment(workload.name, seed),
                                  **tracer.to_json()}) + "\n", encoding="utf-8")
    print(f"  spans written to {target.relative_to(ROOT)}")
    return metrics


def with_units(metrics: dict[str, float]) -> dict[str, dict]:
    import tracing

    return {name: {"value": value, "unit": END_TO_END.get(name) or tracing.metric_unit(name)}
            for name, value in metrics.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = environment(name, seed)
        print(f"workload {name} seed {seed} trace {int(trace)}")
        print("environment " + json.dumps(env, sort_keys=True))
        data = prepare_inputs(workload, seed, work)
        op = Operation(data, work / "out", workload.flags)
        tally = Tally()
        students = first_operation(workload, op, data, seed, tally)
        if tally.failed:
            metrics = {}
        elif trace:
            metrics = measure_traced(workload, op, seed, seconds, tally, work)
        else:
            metrics = measure(op, students, seconds, tally, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    for error in tally.errors[:5]:
        print(f"  FAILED: {error}")
    result = with_units(metrics)
    for metric, entry in result.items():
        print(f"  {metric:42s} {entry['value']:.6g} {entry['unit']}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
            status = 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return status if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The benchmark measures the checkout it sits in and nothing else.
    for needed in (SRC / "collabnet" / "__init__.py", STUDY / "interactions.csv"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a collabnet"
                  " checkout", file=sys.stderr)
            return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
