"""Spans around the public calls of commca's six modules, recorded from outside.

`Instrumentation` rebinds each traced function, wherever a commca module holds
a reference to it, to a wrapper that records a span (name, start, end, parent
span, job id) and the counts named in `COUNTS`.  Leaving the context restores
the original functions, so nothing under src/ changes.  Spans stay in memory
until `Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

START, END, PARENT, JOB = 1, 2, 3, 4

# metric -> span names whose time it reports (outermost spans only, so a
# nested span of the same layer is not counted twice)
INCLUSIVE = {
    "protocol.csv_s": ("protocol.csv",),
    "protocol.run_s": ("protocol.run",),
    "robustness.rs_pass_s": ("robustness.rs_pass",),
    "robustness.rs_fail_s": ("robustness.rs_fail",),
    "robustness.r_s": ("robustness.r",),
    "robustness.preservation_s": ("robustness.preservation",),
    "scenarios.build_s": ("scenarios.build",),
    "scenarios.load_s": ("scenarios.load",),
    "scenarios.format_s": ("scenarios.format",),
    "graph.parse_s": ("graph.parse",),
    "analysis.verdict_s": ("analysis.verdict",),
    "analysis.format_s": ("analysis.format",),
    "cli.main_s": ("cli.main",),
}
# metric -> span name whose self time (duration minus direct children) it reports
SELF = {
    "robustness.community_s": "robustness.community",
    "cli.self_s": "cli.main",
}
COUNTS = (
    "protocol.cells",
    "protocol.csv_bytes",
    "protocol.csv_rows",
    "robustness.verdicts",
    "robustness.preservation_subsets",
    "graph.agents",
)


class Tracer:
    """In-memory span and count recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, job]
        self.stack: list[int] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.job = -1

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.job])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self.stack.pop()

    def count(self, name: str, k: int) -> None:
        self.counts[(self.job, name)] += k

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "job"],
            "spans": self.spans,
        }))

    def job_spans(self, job: int) -> list[tuple[int, list]]:
        return [(i, s) for i, s in enumerate(self.spans) if s[JOB] == job]

    def layer_times(self, job: int) -> dict[str, float]:
        """Per-layer seconds for one job, keyed by metric name."""
        spans = self.job_spans(job)
        children = defaultdict(float)
        for _, s in spans:
            if s[PARENT] >= 0:
                children[s[PARENT]] += s[END] - s[START]
        out = {}
        for metric, names in INCLUSIVE.items():
            out[metric] = sum(
                (s[END] - s[START] for _, s in spans
                 if s[0] in names and not self._has_ancestor(s, names)),
                0.0,
            )
        for metric, name in SELF.items():
            out[metric] = sum(
                (s[END] - s[START] - children[i] for i, s in spans if s[0] == name), 0.0
            )
        out["robustness.cover_s"] = sum(
            (s[END] - s[START] for _, s in spans
             if s[0].startswith("robustness.")
             and not self._has_ancestor_prefix(s, "robustness.")),
            0.0,
        )
        return out

    def command_times(self, job: int) -> list[dict[str, float]]:
        """Per CLI command of one job: its main span and the run/CSV time inside."""
        spans = self.job_spans(job)
        rows = []
        for i, s in spans:
            if s[0] != "cli.main":
                continue
            row = {"cli.main": s[END] - s[START], "protocol.run": 0.0, "protocol.csv": 0.0}
            for _, t in spans:
                if t[0] in row and t[0] != "cli.main" and self._under(t, i) \
                        and not self._has_ancestor(t, (t[0],)):
                    row[t[0]] += t[END] - t[START]
            rows.append(row)
        return rows

    def _ancestors(self, s):
        p = s[PARENT]
        while p >= 0:
            yield p
            p = self.spans[p][PARENT]

    def _has_ancestor(self, s, names) -> bool:
        return any(self.spans[p][0] in names for p in self._ancestors(s))

    def _has_ancestor_prefix(self, s, prefix) -> bool:
        return any(self.spans[p][0].startswith(prefix) for p in self._ancestors(s))

    def _under(self, s, idx) -> bool:
        return idx in self._ancestors(s)


def _wrap(tracer: Tracer, fn, name: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(tracer, idx, result, args)
        return result

    return wrapper


def _rs_verdict(tracer, idx, result, args):
    tracer.spans[idx][0] = "robustness.rs_pass" if result.robust else "robustness.rs_fail"
    tracer.count("robustness.verdicts", 1)


def _verdict(tracer, idx, result, args):
    tracer.count("robustness.verdicts", 1)


def _preservation(tracer, idx, result, args):
    tracer.count("robustness.preservation_subsets", result.subsets_checked)


def _cells(tracer, idx, result, args):
    tracer.count("protocol.cells", int(result.values.size))


def _csv_written(tracer, idx, result, args):
    trace, path = args[0], args[1]
    tracer.count("protocol.csv_rows", int(trace.values.size))
    tracer.count("protocol.csv_bytes", os.path.getsize(path))


def _parsed(tracer, idx, result, args):
    if hasattr(result, "n"):
        tracer.count("graph.agents", result.n)


def _built(tracer, idx, result, args):
    tracer.count("graph.agents", result.graph.n)


class Instrumentation:
    """Context manager that installs the tracing wrappers into commca."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.restore: list[tuple[object, str, object]] = []
        self.examples: dict = {}
        self.scenarios = None

    def __enter__(self):
        from commca import analysis, cli, graph, protocol, robustness, scenarios

        functions = [
            (cli.main, "cli.main", None),
            (protocol.run, "protocol.run", _cells),
            (robustness.is_rs_excess_robust, "robustness.rs", _rs_verdict),
            (robustness.is_r_excess_robust, "robustness.r", _verdict),
            (robustness.is_community, "robustness.community", _verdict),
            (robustness.verify_reachability_preservation, "robustness.preservation",
             _preservation),
            (scenarios.example1, "scenarios.build", _built),
            (scenarios.example2, "scenarios.build", _built),
            (scenarios.example3, "scenarios.build", _built),
            (scenarios.load_scenario, "scenarios.load", None),
            (scenarios.format_scenario, "scenarios.format", None),
            (graph.parse_graph, "graph.parse", _parsed),
            (graph.parse_communities, "graph.parse", None),
            (analysis.rac_verdict, "analysis.verdict", None),
            (analysis.format_verdict, "analysis.format", None),
            (analysis.summary_lines, "analysis.format", None),
        ]
        modules = [m for k, m in sys.modules.items() if k == "commca" or k.startswith("commca.")]
        # keyed by id: rebinding must match the very function object
        wrappers = {id(fn): _wrap(self.tracer, fn, name, after) for fn, name, after in functions}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self.restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        self.examples = dict(scenarios.EXAMPLES)
        for key, fn in self.examples.items():
            scenarios.EXAMPLES[key] = wrappers.get(id(fn), fn)
        Trace = protocol.Trace
        for attr, after in (("write_csv", _csv_written), ("to_csv_text", None)):
            fn = getattr(Trace, attr)
            self.restore.append((Trace, attr, fn))
            setattr(Trace, attr, _wrap(self.tracer, fn, "protocol.csv", after))
        self.scenarios = scenarios
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self.restore):
            setattr(owner, attr, value)
        self.restore.clear()
        self.scenarios.EXAMPLES.update(self.examples)
        return False


def median_layers(tracer: Tracer, jobs: list[int]) -> dict[str, float]:
    per_job = [tracer.layer_times(j) for j in jobs]
    return {k: statistics.median(d[k] for d in per_job) for k in per_job[0]}


def job_counts(tracer: Tracer, jobs: list[int]) -> tuple[dict[str, int], bool]:
    """Counts of the first traced job, and whether every traced job repeated them."""
    rows = [{name: tracer.counts.get((j, name), 0) for name in COUNTS} for j in jobs]
    return rows[0], all(r == rows[0] for r in rows)
