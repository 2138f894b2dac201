"""Per-layer spans for the benchmark's traced run.

The traced run wraps public functions of collabnet's modules from the
benchmark's own files; nothing inside the package changes. Each wrapper
records a span (name, start, end, parent span) in memory and, for some
functions, a count taken from the call's arguments or result. Layer names
are the module names. Self time is computed from the spans afterwards: a
span's duration minus the durations of its direct children.

Use `installed(tracer)` as a context manager; it restores every original
function on exit, so no wrapper is ever active outside a traced operation.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from collabnet import cli, measures, model, pipeline, report, roles, stats

# Per-layer metrics, one value per traced operation (the run reports the
# median over operations). The suffix says how a name is computed:
#   .s       summed inclusive duration of spans with that name
#   .self_s  summed self time of spans with that name
#   .calls   number of spans with that name
#   other    a counter recorded by the wrappers
SPAN_METRICS = (
    "model.load_dataset.self_s",
    "model.rows_parsed",
    "model.validate_dataset.self_s",
    "model.interactions_for.s",
    "model.interactions_for.calls",
    "model.interactions_for.hit_ratio",
    "pipeline.team_networks.calls",
    "pipeline.team_networks.s",
    "pipeline.run_analysis.self_s",
    "pipeline.project_profiles.self_s",
    "measures.build_network.s",
    "measures.build_network.calls",
    "measures.profile.s",
    "measures.profile.calls",
    "roles.profile_team.self_s",
    "roles.transitions.s",
    "stats.barnard_test.s",
    "stats.barnard_test.calls",
    "stats.barnard_test.tables",
    "stats.barnard_test.grid_points",
    "stats.mann_whitney_u.s",
    "stats.mann_whitney_u.calls",
    "stats.mann_whitney_u.exact_assignments",
    "report.write_report_json.s",
    "report.export_network_dot.s",
    "report.export_network_dot.calls",
    "report.export_quadrant_svg.s",
    "report.bytes_out",
    "cli.cmd_analyze.self_s",
)


def metric_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name == "report.bytes_out":
        return "bytes"
    return "count"


def _rows_parsed(counts, args, result):
    counts["model.rows_parsed"] += (
        sum(len(spec.subtasks) for spec in result.projects.values())
        + sum(len(r.members) for r in result.rosters)
        + len(result.interactions))


def _scan(counts, args, result):
    counts["model.interactions_for.rows"] += len(result)
    counts["model.interactions_for.scanned"] += len(args[0].interactions)


def _barnard_work(counts, args, result):
    a, b, c, d = result.table
    counts["stats.barnard_test.tables"] += 2 * (a + b + 1) * (c + d + 1)
    counts["stats.barnard_test.grid_points"] += 2 * (round(1 / result.grid_resolution) - 1)


def _mwu_work(counts, args, result):
    if result.method == "exact":
        counts["stats.mann_whitney_u.exact_assignments"] += math.comb(
            result.n1 + result.n2, result.n1)


def _text_bytes(counts, args, result):
    counts["report.bytes_out"] += len(result.encode("utf-8"))


def _file_bytes(counts, args, result):
    counts["report.bytes_out"] += result.stat().st_size


# (owner, attribute, span name, counter). cli imports load_dataset and
# validate_dataset (and the transition helpers) by name, so those names are
# wrapped in cli as well as in their home module.
TARGETS = (
    (model, "load_dataset", "model.load_dataset", _rows_parsed),
    (cli, "load_dataset", "model.load_dataset", _rows_parsed),
    (model, "validate_dataset", "model.validate_dataset", None),
    (cli, "validate_dataset", "model.validate_dataset", None),
    (model.Dataset, "interactions_for", "model.interactions_for", _scan),
    (pipeline, "team_networks", "pipeline.team_networks", None),
    (pipeline, "project_profiles", "pipeline.project_profiles", None),
    (pipeline, "run_analysis", "pipeline.run_analysis", None),
    (measures, "build_network", "measures.build_network", None),
    (measures, "weighted_degree", "measures.profile", None),
    (measures, "type_histogram", "measures.profile", None),
    (measures, "heterogeneity", "measures.profile", None),
    (roles, "profile_team", "roles.profile_team", None),
    (roles, "role_transitions", "roles.transitions", None),
    (roles, "unpaired_students", "roles.transitions", None),
    (roles, "build_contingency", "roles.transitions", None),
    (cli, "role_transitions", "roles.transitions", None),
    (cli, "unpaired_students", "roles.transitions", None),
    (cli, "build_contingency", "roles.transitions", None),
    (stats, "barnard_test", "stats.barnard_test", _barnard_work),
    (stats, "mann_whitney_u", "stats.mann_whitney_u", _mwu_work),
    (report, "write_report_json", "report.write_report_json", _file_bytes),
    (report, "export_network_dot", "report.export_network_dot", _text_bytes),
    (report, "export_quadrant_svg", "report.export_quadrant_svg", _text_bytes),
    (cli, "cmd_analyze", "cli.cmd_analyze", None),
)


class Tracer:
    """Spans and counters of the traced operations, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.ops: list[tuple[int, int, Counter]] = []  # (first span, end span, counts)
        self._stack: list[int] = []
        self._counts: Counter = Counter()

    def wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(self._counts, args, result)
            return result

        return traced

    @contextmanager
    def operation(self):
        """Group the spans and counts of one traced operation."""
        first, self._counts = len(self.spans), Counter()
        try:
            yield
        finally:
            self.ops.append((first, len(self.spans), self._counts))

    def op_metrics(self, first: int, end: int, counts: Counter) -> dict[str, float]:
        """Every SPAN_METRICS value for the operation spanning spans[first:end]."""
        inclusive, self_time, calls = defaultdict(float), defaultdict(float), Counter()
        children = defaultdict(float)
        for name, start, stop, parent in self.spans[first:end]:
            if parent >= 0:
                children[parent] += stop - start
        for index in range(first, end):
            name, start, stop, _ = self.spans[index]
            inclusive[name] += stop - start
            self_time[name] += stop - start - children[index]
            calls[name] += 1
        scanned = counts["model.interactions_for.scanned"]
        out = {}
        for metric in SPAN_METRICS:
            span, _, kind = metric.rpartition(".")
            if kind == "s":
                out[metric] = inclusive[span]
            elif kind == "self_s":
                out[metric] = self_time[span]
            elif kind == "calls":
                out[metric] = calls[span]
            elif kind == "hit_ratio":
                out[metric] = counts["model.interactions_for.rows"] / scanned if scanned else 0.0
            else:
                out[metric] = counts[metric]
        return out

    def medians(self) -> dict[str, float]:
        """Median of each SPAN_METRICS value over the traced operations."""
        per_op = [self.op_metrics(*op) for op in self.ops]
        return {m: statistics.median(op[m] for op in per_op) for m in SPAN_METRICS}

    def to_json(self) -> dict:
        """Spans with times relative to the first span, for writing out."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
            "operations": [[first, end] for first, end, _ in self.ops],
        }


@contextmanager
def installed(tracer: Tracer):
    """Wrap every TARGETS function for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, counter in TARGETS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, counter))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
