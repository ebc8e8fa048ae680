"""Benchmark of the nosignal command line, end to end and layer by layer.

    python3 perfbench/run.py --workload exhaust|found|replay|all \\
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run it from anywhere inside a source checkout; it needs ``src/``,
``configs/`` and ``tests/`` (the oracles and golden diagrams) beside this
directory, and installs nothing.

Closed loop, one client: each operation is one ``nosignal`` invocation in a
fresh child process (``child.main``, which calls ``nosignal.cli.main`` like
``python -m nosignal``), started only after the previous one has exited.
A pass runs every operation of the workload once; passes repeat until
``--seconds`` have gone by. The parent times each child from spawn to
exit; the child reports when its import finished, when ``main`` started
and ended, and its own peak resident memory. Every output is checked
against the oracles in ``tests/oracles.py`` and the golden diagrams.

Between operations, at least every ``REF_EVERY_S``, the parent also runs
``reference.py``, a fixed pure-Python job, and scales each operation's
timings by how fast the host ran it (``HostSpeed``). Every reported time is
the median over passes of those scaled times; the unscaled ones are kept in
the full record.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
traced passes, whose children record spans around each layer, with
untraced ones, and prints the per-layer metrics plus the tracing overhead.
``--smoke`` runs one untraced and one traced pass at the smallest sizes and
fails unless every metric is present with its unit.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
with provenance and per-operation samples, goes to
``.perfbench_out/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from child import now
from reference import EXPECTED as REF_SOLUTIONS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Children import child.py as a module, so its bytecode is cached like that
# of an installed package instead of being compiled on every spawn.
CHILD_BOOT = f"import sys; sys.path.insert(0, {str(HERE)!r}); import child; child.main()"
OUT = ROOT / ".perfbench_out"
REQUIRED = ("src/nosignal/cli.py", "tests/oracles.py", "tests/fixtures/golden", "configs/paradox_d3.json")
REFERENCE = HERE / "reference.py"
# Seconds the reference job takes on the fast phase of a 2-vCPU x86 VM with
# CPython 3.11; reported timings are scaled to a host of that speed.
REF_NOMINAL_S = 0.08
REF_EVERY_S = 0.5
HARD_LIMIT_S = 170.0  # every run ends well inside 180 s, whatever --seconds says

END_TO_END = {
    "wall_s": "s",          # one pass, spawn to exit, summed over its operations
    "main_s": "s",          # the same pass, time inside cli.main only
    "setup_s": "s",         # spawn until nosignal.cli is imported, median across operations
    "op_s.p50": "s",        # wall time per operation, percentiles across operations
    "op_s.p90": "s",
    "peak_rss_mb": "MB",    # largest peak resident memory (VmHWM) of any child
    "ok_ratio": "ratio",    # 1 - fail_ratio; gated instead of it because it is never 0
    "decided_ratio": "ratio",  # operations not ending in Aborted (exit 4)
}
EXTRA = {"fail_ratio": "ratio"}
PER_LAYER = {
    "config.load_s": "s",
    "config.load_calls": "count",
    "config.load_strategy_s": "s",
    "search.find_s": "s",
    "search.leaves": "count",
    "search.decision_points": "count",
    "search.aborted": "count",
    "search.leaf_ratio": "ratio",
    "search.us_per_leaf": "us",
    "search.req0_first_fail_share": "ratio",
    "search.mutually_exclusive_s": "s",
    "protocol.execute_s": "s",
    "protocol.execute_calls": "count",
    "protocol.ns_per_agent_step": "ns",
    "tasks.evaluate_requirement_s": "s",
    "tasks.evaluate_task_s": "s",
    "diagram.render_s": "s",
    "diagram.cells": "count",
    "diagram.ns_per_cell": "ns",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
DERIVED = {"cli.self_s": "derived: cli.main_s minus the top-level layer spans of the same operations"}
# The library-only probes stay cheap: mutually_exclusive enumerates
# 2**slots departure sets, and the seed-invariance re-search is skipped
# for instances whose unpruned walk is larger than this.
EXCLUSIVE_MAX_SLOTS = 12
EXCLUSIVE_MAX_PAIRS = 8
INVARIANCE_MAX_LEAVES = 200_000


@dataclass
class Record:
    op: object
    result: object
    problems: list


@dataclass
class Pass:
    traced: bool
    records: list


class Runner:
    """Spawns one child per operation and waits for it, with a hard deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work, self.deadline = work, deadline
        self.pid: int | None = None
        self.timed_out = False

    def spawn(self, args: list[str]):
        """Run ``python ARGS`` to exit; the code, its output and its spawn and exit times."""
        from workloads import Result

        out, err = self.work / "stdout", self.work / "stderr"
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        signal.setitimer(signal.ITIMER_REAL, max(self.deadline - now(), 0.01))
        spawned = now()
        self.pid = os.posix_spawn(sys.executable, [sys.executable, *args], os.environ, file_actions=actions)
        _, status = os.waitpid(self.pid, 0)
        exited = now()
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.pid = None
        return Result(os.waitstatus_to_exitcode(status), out.read_text(encoding="utf-8", errors="replace"),
                      err.read_text(encoding="utf-8", errors="replace"), exited - spawned, spawned)

    def run(self, op, traced: bool):
        report = self.work / "report.json"
        report.unlink(missing_ok=True)
        result = self.spawn(["-c", CHILD_BOOT, str(report), "1" if traced else "0", str(SRC), *op.argv])
        if report.exists():
            times = json.loads(report.read_text(encoding="utf-8"))
            result.setup_s = times["imported"] - result.started
            result.main_s = times["main_end"] - times["main_start"]
            result.rss_kb = times["peak_rss_kb"]
            result.spans = times.get("spans", [])
        return result

    def on_alarm(self, *_):
        if self.pid is not None:
            self.timed_out = True
            os.kill(self.pid, signal.SIGKILL)

    def stop(self):
        """Kill and reap a child left running by an interrupted run."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


class HostSpeed:
    """How fast the host runs Python, sampled with a fixed reference job.

    The shared 2-vCPU host this benchmark was tuned on changes speed by up
    to 1.9 times from load outside the VM, both from one second to the
    next and in phases lasting tens of seconds. CPU time moves with wall
    time, so neither is steady from one run to the next. The scaling takes
    out the slow phases; the median over passes, the quick changes.

    ``reference.py`` is a fresh interpreter that always does the same
    pure-Python work; it runs between operations at least every
    ``REF_EVERY_S``. An operation's factor is ``REF_NOMINAL_S``
    over the mean wall time of the reference runs just before and just
    after it, and every timing it reports is multiplied by that factor:
    the time the operation would take on a host where the reference takes
    ``REF_NOMINAL_S``. The reference uses nothing from ``nosignal``, so a
    change to the program moves the operation's time and not the factor.
    """

    def __init__(self, runner: Runner):
        self.runner = runner
        self.samples: list[tuple[float, float]] = []  # (spawn time, wall seconds)

    def sample(self) -> None:
        result = self.runner.spawn([str(REFERENCE)])
        if self.runner.timed_out:
            return
        if result.code != 0 or json.loads(result.stdout) != {"solutions": REF_SOLUTIONS}:
            raise RuntimeError(f"reference job failed: exit {result.code}, {result.stdout!r} {result.stderr!r}")
        self.samples.append((result.started, result.wall_s))

    def due(self) -> bool:
        return not self.samples or now() - self.samples[-1][0] >= REF_EVERY_S

    def factor(self, at: float) -> float:
        """REF_NOMINAL_S over the mean of the reference runs bracketing ``at``."""
        starts = [start for start, _ in self.samples]
        i = bisect.bisect(starts, at)
        around = [wall for _, wall in self.samples[max(i - 1, 0):i + 1]]
        return REF_NOMINAL_S / statistics.fmean(around) if around else 1.0  # none only after a timeout

    def apply(self, passes: list[Pass]) -> None:
        for p in passes:
            for r in p.records:
                r.result.factor = self.factor(r.result.started)


def crash_problems(result) -> list:
    """A crash: exit code outside 0..4, a traceback, or a multi-line stderr."""
    lines = result.stderr.splitlines()
    if result.code in range(5) and "Traceback (most recent call last)" not in result.stderr and len(lines) <= 1:
        return []
    return [("failed", f"exit {result.code}: {lines[-1] if lines else 'killed or silent'}")]


def checked(op, result) -> list:
    """The operation's check; output of an unexpected shape is a wrong output."""
    try:
        return op.check(result)
    except (KeyError, IndexError, TypeError, AttributeError, ValueError) as err:
        return [("wrong", f"output not in the expected shape: {err!r}")]


def run_pass(workload, runner: Runner, speed: HostSpeed, traced: bool) -> Pass:
    records = []
    ops = workload.ops()
    result = None
    while not runner.timed_out:
        try:
            op = ops.send(result)
        except StopIteration:
            break
        if speed.due():
            speed.sample()
        result = runner.run(op, traced)
        problems = crash_problems(result) or checked(op, result)
        result.stdout = result.stderr = ""  # checked; the parent keeps only the numbers
        records.append(Record(op, result, problems))
    return Pass(traced, records)


def measure(workload, runner: Runner, speed: HostSpeed, seconds: float, trace: bool) -> list[Pass]:
    """Closed loop: passes until ``seconds`` have elapsed (traced runs alternate)."""
    start = now()
    passes: list[Pass] = []
    while not runner.timed_out:
        passes.append(run_pass(workload, runner, speed, traced=trace and len(passes) % 2 == 0))
        if now() - start >= seconds and (not trace or len(passes) >= 2):
            break
    speed.sample()  # brackets the last operation
    speed.apply(passes)
    return passes


def percentile(values: list[float], q: float) -> float:
    """Nearest rank: always one of the values, never between two."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def op_samples(passes: list[Pass], field: str, scaled: bool = True) -> dict[str, list[float]]:
    """One ``Result`` timing of each operation, one sample per pass.

    ``scaled`` multiplies each by its operation's host-speed factor.
    """
    samples: dict[str, list[float]] = defaultdict(list)
    for p in passes:
        for r in p.records:
            factor = r.result.factor if scaled else 1.0
            samples[r.op.label].append((getattr(r.result, field) or 0.0) * factor)
    return samples


def median_of_passes(passes: list[Pass], field: str, scaled: bool = True) -> dict[str, float]:
    """Each operation's median over passes."""
    return {label: statistics.median(values) for label, values in op_samples(passes, field, scaled).items()}


def end_to_end(passes: list[Pass]) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count) over the untraced passes."""
    records = [r for p in passes for r in p.records]
    walls = median_of_passes(passes, "wall_s")
    setups = median_of_passes(passes, "setup_s")
    failed = sum(1 for r in records if r.problems)
    aborted = sum(1 for r in records if r.result.code == 4)
    n = len(records)
    return {
        "wall_s": (sum(walls.values()), n),
        "main_s": (sum(median_of_passes(passes, "main_s").values()), n),
        "setup_s": (statistics.median(setups.values()), n),
        "op_s.p50": (percentile(list(walls.values()), 0.5), n),
        "op_s.p90": (percentile(list(walls.values()), 0.9), n),
        "peak_rss_mb": (max(r.result.rss_kb for r in records) / 1024, n),
        "ok_ratio": (1 - failed / n, n),
        "decided_ratio": (1 - aborted / n, n),
        "fail_ratio": (failed / n, n),
    }


def layer_totals(p: Pass) -> dict[str, float]:
    """Sums of span durations, calls and span attributes over one traced pass."""
    acc: dict[str, float] = defaultdict(float)
    for record in p.records:
        factor = record.result.factor
        main = (record.result.main_s or 0.0) * factor
        spans = record.result.spans
        acc["cli.main_s"] += main
        acc["cli.self_s"] += main - sum(s[3] - s[2] for s in spans if s[1] is None) * factor
        instance = record.op.instance
        for name, _parent, start, end, attrs in spans:
            acc[f"{name}_s"] += (end - start) * factor
            acc[f"{name}_calls"] += 1
            for key, value in attrs.items():
                if isinstance(value, (int, float)):
                    acc[f"{name}.{key}"] += value
            if name == "search.find":
                acc["search.aborted"] += attrs.get("outcome") == "aborted"
                if instance is not None and instance.two_lab and "leaves" in attrs:
                    acc["two_lab.leaves"] += attrs["leaves"]
                    acc["two_lab.closed_form"] += instance.closed_form
    return acc


def per_layer(passes: list[Pass], exclusive_s: list[float]) -> dict[str, tuple[float, int]]:
    traced = [layer_totals(p) for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]

    def ratio(a: float, b: float, scale: float = 1.0) -> float:
        return a / b * scale if b else 0.0

    def derive(acc: dict[str, float]) -> dict[str, float]:
        return {
            "config.load_s": acc["config.load_s"],
            "config.load_calls": acc["config.load_calls"],
            "config.load_strategy_s": acc["config.load_strategy_s"],
            "search.find_s": acc["search.find_s"],
            "search.leaves": acc["search.find.leaves"],
            "search.decision_points": acc["search.find.decision_points"],
            "search.aborted": acc["search.aborted"],
            "search.leaf_ratio": ratio(acc["two_lab.leaves"], acc["two_lab.closed_form"]),
            "search.us_per_leaf": ratio(acc["search.find_s"], acc["search.find.leaves"], 1e6),
            "search.req0_first_fail_share": ratio(acc["search.find.req0_first"], acc["search.find.refuted"]),
            "protocol.execute_s": acc["protocol.execute_s"],
            "protocol.execute_calls": acc["protocol.execute_calls"],
            "protocol.ns_per_agent_step": ratio(acc["protocol.execute_s"],
                                                acc["protocol.execute.agent_steps"], 1e9),
            "tasks.evaluate_requirement_s": acc["tasks.evaluate_requirement_s"],
            "tasks.evaluate_task_s": acc["tasks.evaluate_task_s"],
            "diagram.render_s": acc["diagram.render_s"],
            "diagram.cells": acc["diagram.render.cells"],
            "diagram.ns_per_cell": ratio(acc["diagram.render_s"], acc["diagram.render.cells"], 1e9),
            "cli.main_s": acc["cli.main_s"],
            "cli.self_s": acc["cli.self_s"],
        }

    rows = [derive(acc) for acc in traced]
    out = {name: (statistics.median(row[name] for row in rows), len(rows)) for name in rows[0]}
    out["search.mutually_exclusive_s"] = (statistics.median(exclusive_s), len(exclusive_s))
    traced_main = sum(median_of_passes([p for p in passes if p.traced], "main_s").values())
    untraced_main = sum(median_of_passes(untraced, "main_s").values())
    out["trace.overhead_ratio"] = (ratio(traced_main, untraced_main), len(passes))
    return out


def exclusivity_probe(workload) -> float:
    """Seconds in ``mutually_exclusive`` over the workload's small task pairs.

    Library API the CLI never calls; documents whose departure-slot space
    exceeds ``EXCLUSIVE_MAX_SLOTS`` are skipped.
    """
    from nosignal.config import load_config
    from nosignal.search import mutually_exclusive

    total = 0.0
    for doc in workload.documents():
        labs = len(doc["locations"])
        if labs * (labs - 1) * (doc["horizon"] + 1) > EXCLUSIVE_MAX_SLOTS:
            continue
        loaded = load_config(json.dumps(doc))
        pairs = itertools.combinations(sorted(loaded.tasks), 2)
        for a, b in itertools.islice(pairs, EXCLUSIVE_MAX_PAIRS):
            start = now()
            mutually_exclusive(loaded.spacetime, loaded.tasks[a], loaded.tasks[b])
            total += now() - start
    return total


def invariance_problems(workload) -> list[tuple[str, str]]:
    """Verdicts, leaves and decision points must not change with the seed."""
    import workloads
    from child import run_search, search_counts
    from nosignal.config import load_config
    from nosignal.search import SearchLimits, find_strategy

    makers = {"exhaust": workloads.exhaust_instances, "found": workloads.found_instances}
    if workload.name not in makers:
        return []

    def counts(instance) -> tuple:
        doc = load_config(json.dumps(instance.doc))
        call = (doc.spacetime, doc.resolve_requirements(), doc.tasks, doc.limits)
        try:
            outcome, leaves = run_search(find_strategy, *call)
            found = search_counts(find_strategy, SearchLimits, *call, outcome, leaves)
        except RecursionError:
            return ("RecursionError",)
        return found["outcome"], found["leaves"], found["decision_points"]

    problems = []
    pairs = zip(makers[workload.name](workload.seed, workload.size),
                makers[workload.name](workload.seed + 1, workload.size))
    for first, second in pairs:
        if instance_leaves(first) > INVARIANCE_MAX_LEAVES:
            continue
        a, b = counts(first), counts(second)
        if a != b:
            problems.append(("wrong", f"{first.label}: seed {workload.seed} gives {a}, "
                                      f"seed {workload.seed + 1} gives {b}"))
    return problems


def instance_leaves(instance) -> int:
    """Unpruned leaf count (closed form) or the branch cap of the instance."""
    if instance.closed_form is not None:
        return instance.closed_form
    return instance.doc["limits"]["max_branches"]


def git_revision() -> str:
    """HEAD of the checkout read from ``.git`` directly, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, workload: str, passes: list[Pass]) -> dict:
    return {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "size": "smoke" if args.smoke else "full",
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes_untraced": sum(1 for p in passes if not p.traced),
        "passes_traced": sum(1 for p in passes if p.traced),
        "operations": sum(len(p.records) for p in passes),
        "loop": "closed, one client, one child process per operation",
    }


def run_workload(args, name: str, work: Path, runner: Runner) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name](ROOT, work, args.seed, "smoke" if args.smoke else "full")
    warm = next(workload.ops())  # fills the bytecode and file caches, untimed
    runner.run(warm, False)
    runner.spawn([str(REFERENCE)])
    speed = HostSpeed(runner)
    trace = args.trace == 1 or args.smoke
    passes = measure(workload, runner, speed, 0 if args.smoke else args.seconds, trace)
    problems = [(p.traced, r.op.label, kind, msg) for p in passes for r in p.records for kind, msg in r.problems]
    untraced = [p for p in passes if not p.traced]
    result = {
        "provenance": provenance(args, name, passes),
        "end_to_end": _named(end_to_end(untraced), {**END_TO_END, **EXTRA}) if untraced else {},
        "per_layer": {},
        "host_speed": _host_speed(speed, untraced),
        "operations": _operation_samples(passes),
        "passes": [{"traced": p.traced,
                    "labels": [r.op.label for r in p.records],
                    "started": [r.result.started for r in p.records],
                    "unscaled_walls_s": [r.result.wall_s for r in p.records],
                    "setups_s": [r.result.setup_s for r in p.records],
                    "peak_rss_kb": [r.result.rss_kb for r in p.records],
                    "mains_s": [r.result.main_s for r in p.records],
                    "factors": [r.result.factor for r in p.records]} for p in passes],
    }
    if trace and any(p.traced for p in passes):
        exclusive = [exclusivity_probe(workload) * speed.factor(now()) for p in passes if p.traced]
        result["per_layer"] = _named(per_layer(passes, exclusive), PER_LAYER)
        problems += [(True, "seed-invariance", kind, msg) for kind, msg in invariance_problems(workload)]
    records = [r for p in passes for r in p.records]
    result["attempted"] = len(records)
    result["failed"] = sum(1 for r in records if r.problems)
    result["correct"] = not any(kind == "wrong" for _, _, kind, _ in problems) and not runner.timed_out
    result["problems"] = [
        {"traced": traced, "op": label, "kind": kind, "message": msg} for traced, label, kind, msg in problems
    ]
    return result


def _host_speed(speed: HostSpeed, untraced: list[Pass]) -> dict:
    """The reference runs, and the pass as measured before scaling."""
    walls = [wall for _, wall in speed.samples]
    return {
        "nominal_s": REF_NOMINAL_S,
        "reference_runs": len(walls),
        "reference_samples": speed.samples,
        "reference_s": {"min": min(walls), "median": statistics.median(walls), "max": max(walls)},
        "unscaled_wall_s": sum(median_of_passes(untraced, "wall_s", scaled=False).values()),
        "unscaled_main_s": sum(median_of_passes(untraced, "main_s", scaled=False).values()),
    }


def _named(values: dict[str, tuple[float, int]], units: dict[str, str]) -> dict:
    named = {name: {"value": values[name][0], "unit": unit, "samples": values[name][1]}
             for name, unit in units.items()}
    for name, note in DERIVED.items():
        if name in named:
            named[name]["note"] = note
    return named


def _operation_samples(passes: list[Pass]) -> dict:
    raw = op_samples(passes, "wall_s", scaled=False)
    return {label: {"median_wall_s": statistics.median(walls), "walls_s": walls, "unscaled_walls_s": raw[label]}
            for label, walls in op_samples(passes, "wall_s").items()}


def report(result: dict) -> None:
    """Human-readable block: every metric by name and unit, then provenance."""
    prov = result["provenance"]
    print(f"== {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}  "
          f"passes {prov['passes_untraced']} untraced + {prov['passes_traced']} traced  "
          f"operations {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    for section in ("end_to_end", "per_layer"):
        for name, metric in result[section].items():
            note = f"  {metric['note']}" if "note" in metric else ""
            print(f"  {name:<30} {metric['value']:>16.6g} {metric['unit']:<6} (n={metric['samples']}){note}")
    if result["per_layer"]:
        _print_leaf_counts(result)
    host = result["host_speed"]
    print(f"  timings scaled to a host where the reference job takes {host['nominal_s']} s; here it took "
          f"{host['reference_s']['min']:.4f}..{host['reference_s']['max']:.4f} s "
          f"(median {host['reference_s']['median']:.4f}, {host['reference_runs']} runs); "
          f"unscaled wall_s {host['unscaled_wall_s']:.6g} s")
    seen = defaultdict(int)
    for problem in result["problems"]:
        seen[problem["kind"], problem["op"], problem["message"]] += 1
    for (kind, label, message), times in seen.items():
        print(f"  {kind} x{times}: {label}: {message}")
    print(f"  python {prov['python']}, git {prov['git_revision']}, nproc {prov['nproc']}, "
          f"{prov['platform']}")


def _print_leaf_counts(result: dict) -> None:
    ratio = result["per_layer"]["search.leaf_ratio"]["value"]
    if ratio:
        print(f"  two-lab leaves / unpruned closed form = {ratio:.6f} "
              f"(1.0 means the walk visits every leaf; a change here is a change in count)")


def _final_line(results: list[dict], catalogues) -> dict:
    """The last stdout line; metric names are prefixed by workload for ``all``."""
    metrics = {}
    for result in results:
        prefix = f"{result['provenance']['workload']}/" if len(results) > 1 else ""
        for section, units in catalogues:
            for name in units:
                if name in result[section]:
                    metric = result[section][name]
                    metrics[prefix + name] = {"value": metric["value"], "unit": metric["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def missing_metrics(result: dict) -> list[str]:
    wanted = [("end_to_end", END_TO_END), ("end_to_end", EXTRA), ("per_layer", PER_LAYER)]
    return [f"{result['provenance']['workload']}: {name} ({unit})"
            for section, units in wanted for name, unit in units.items()
            if result[section].get(name, {}).get("unit") != unit
            or not isinstance(result[section][name]["value"], (int, float))]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["exhaust", "found", "replay", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes, one untraced and one traced pass, assert every metric")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).exists()]
    if missing:
        print(f"error: not a nosignal source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    os.chdir(ROOT)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, now() + HARD_LIMIT_S)
    signal.signal(signal.SIGALRM, runner.on_alarm)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = ["exhaust", "found", "replay"] if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(args, name, work, runner))
            report(results[-1])
    finally:
        runner.stop()
        shutil.rmtree(work, ignore_errors=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    record.write_text(json.dumps(results, indent=1), encoding="utf-8")
    if args.smoke:
        gaps = [gap for result in results for gap in missing_metrics(result)]
        for gap in gaps:
            print(f"missing metric: {gap}")
        print(json.dumps(_final_line(results, [("end_to_end", {**END_TO_END, **EXTRA}),
                                                ("per_layer", PER_LAYER)])))
        return 1 if gaps or not all(r["correct"] for r in results) else 0
    catalogue = ("per_layer", PER_LAYER) if args.trace else ("end_to_end", END_TO_END)
    print(json.dumps(_final_line(results, [catalogue])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
