"""One benchmark operation: ``child.main()`` with argv ``REPORT TRACE SRC ARG...``.

Imports ``nosignal.cli`` from the source tree SRC and calls
``main([ARG...])``, the same path as ``python -m nosignal ARG...``. Stdout,
stderr and the exit code are the CLI's own. The child writes a JSON report
to REPORT with CLOCK_MONOTONIC timestamps of when the import finished and
when ``main`` started and ended, and its peak resident memory; the parent compares them with its own
clock readings at spawn and exit.

With TRACE=1 the child first wraps the calls the CLI makes into each layer
in spans. The wrapping happens here, by replacing names in the package's
module namespaces; no code inside the package changes. Spans are kept in
memory and written with the report at exit, together with the search
counts of every ``find_strategy`` call.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_search(find, cfg, requirements, tasks, limits=None):
    """Call ``find`` and count the complete assignments it judged."""
    counter = itertools.count()
    outcome = find(cfg, requirements, tasks, limits, on_leaf=functools.partial(next, counter))
    return outcome, next(counter)


def search_counts(find, limits_type, cfg, requirements, tasks, limits, outcome, leaves) -> dict:
    """Outcome kind, leaves, decision points and first-failure counts.

    ``Found`` carries no decision-point count, so the walk is repeated with
    a branch cap one below the leaf count: it aborts on the winning leaf,
    after every decision point up to it has been visited.
    """
    kind = type(outcome).__name__.lower()
    counts = {"outcome": kind, "leaves": leaves, "refuted": 0, "req0_first": 0}
    if kind == "impossible":
        certificate = outcome.certificate
        failures = certificate.failures_by_requirement()
        counts["decision_points"] = len(certificate.decision_points)
        counts["refuted"] = sum(failures.values())
        counts["req0_first"] = failures.get(0, 0)
    elif kind == "aborted":
        counts["decision_points"] = outcome.decision_points
    elif leaves == 1:
        sizes = []
        find(cfg, requirements, tasks, limits, on_leaf=lambda assignment: sizes.append(len(assignment)))
        counts["decision_points"] = sizes[0]
    else:
        base = limits or limits_type()
        capped = limits_type(max_branches=leaves - 1, max_decision_points=base.max_decision_points)
        counts["decision_points"] = find(cfg, requirements, tasks, capped).decision_points
    return counts


class Tracer:
    """Spans ``[name, parent index, start, end, attrs]`` held in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._searches: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else None, now(), None, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = now()
        self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
                if attrs is not None:
                    span[4] = attrs(*args)
        return traced

    def wrap_find(self, find, limits_type):
        @functools.wraps(find)
        def traced(cfg, requirements, tasks, limits=None):
            span = self._open("search.find")
            try:
                outcome, leaves = run_search(find, cfg, requirements, tasks, limits)
            finally:
                self._close(span)
            self._searches.append((span, find, limits_type, cfg, requirements, tasks, limits, outcome, leaves))
            return outcome
        return traced

    def finish(self) -> list[list]:
        """Attach search counts (outside every span) and return the spans."""
        for span, *call in self._searches:
            span[4] = search_counts(*call)
        return self.spans


def _agent_steps(cfg, *_):
    return {"agent_steps": (cfg.horizon + 1) * len(cfg.locations)}


def _cells(_trace, cfg, *_):
    coords = cfg.locations.values()
    return {"cells": (max(coords) - min(coords) + 1) * (cfg.horizon + 1)}


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points in the namespaces that call them."""
    from nosignal import cli, search, tasks

    layers = [
        (cli, "load_config", "config.load", None),
        (cli, "load_strategy", "config.load_strategy", None),
        (cli, "execute", "protocol.execute", _agent_steps),
        (tasks, "execute", "protocol.execute", _agent_steps),
        (cli, "evaluate_requirement", "tasks.evaluate_requirement", None),
        (search, "evaluate_requirement", "tasks.evaluate_requirement", None),
        (cli, "evaluate_task", "tasks.evaluate_task", None),
        (tasks, "evaluate_task", "tasks.evaluate_task", None),
        (cli, "render_diagram", "diagram.render", _cells),
    ]
    for module, attr, name, attrs in layers:
        if hasattr(module, attr):
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), attrs))
    if hasattr(cli, "find_strategy"):
        cli.find_strategy = tracer.wrap_find(cli.find_strategy, search.SearchLimits)


def peak_rss_kb() -> int:
    """This process's own resident high-water mark (VmHWM).

    ``ru_maxrss`` of a spawned child also carries the parent's high-water
    mark, which Linux copies into the child at exec, so it would report the
    benchmark's memory whenever that is the larger.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    report_path, trace, src, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    from nosignal import cli

    report = {"imported": now()}
    tracer = None
    if trace == "1":
        tracer = Tracer()
        install(tracer)
    try:
        report["main_start"] = now()
        code = cli.main(argv)
    finally:
        report["main_end"] = now()
        report["peak_rss_kb"] = peak_rss_kb()
        if tracer is not None:
            report["spans"] = tracer.finish()
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
