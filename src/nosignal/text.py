"""The text output of ``simulate``, ``search`` and ``check``, and of help
and usage errors.

Each command builds one result, which ``--json`` prints; without it the
function named after the command renders that result as lines of text.
The text of ``diagram`` is the picture itself, which ``cli`` prints. Help
and usage errors are argparse's own, from the tree ``parser`` builds out of
``cli``'s grammar table. Only a command that prints text loads this module.
"""

from __future__ import annotations

from collections.abc import Sequence


def _count(n: int, noun: str) -> str:
    """``n`` and ``noun``, in the plural unless ``n`` is 1."""
    return f"{n} {noun}" if n == 1 else f"{n} {noun}{'es' if noun.endswith('ch') else 's'}"


def _trace_lines(trace: dict[str, list]) -> list[str]:
    rows = [(t, 0, f"  t={t}  request {task} at {loc}") for task, loc, t in trace["requests"]]
    rows += [(t, 1, f"  t={t}  depart  {o} -> {d}") for o, d, t in trace["departures"]]
    rows += [(t, 2, f"  t={t}  arrive  {o} -> {d}") for o, d, t in trace["arrivals"]]
    return [text for _, _, text in sorted(rows)] or ["  (empty trace)"]


def _event_label(event: dict[str, object]) -> str:
    if event["kind"] == "request":
        return f"request {event['task']} @{event['time']}"
    return f"signal from {event['origin']} @{event['time']}"


def _row_line(row: dict) -> str:
    history = row["history"]
    events = ", ".join(_event_label(event) for event in history["events"])
    sends = ", ".join(row["action"]["send"]) or "nothing"
    return f"  {row['agent']}  t={history['upto']}  [{events}]  -> send {sends}"


def _report_line(i: int, report: dict) -> str:
    verdicts = ", ".join(f"{tid}={'ok' if ok else 'fail'}" for tid, ok in report["verdicts"].items())
    status = "satisfied" if report["satisfied"] else "UNSATISFIED"
    return (f"requirement {i} ({report['rule']} of {report['scenario']!r}): "
            f"{status}  [{verdicts or 'no tasks requested'}]")


def simulate(result: dict) -> list[str]:
    return [
        f"scenario {result['scenario']!r} with strategy {result['strategy']!r}",
        *_trace_lines(result["trace"]),
        "verdicts:",
        *(f"  {task_id}: {'satisfied' if ok else 'unsatisfied'}" for task_id, ok in result["verdicts"].items()),
        "",
        result["diagram"].removesuffix("\n"),
    ]


def search(result: dict, requirements: Sequence = ()) -> list[str]:
    """The text of a search outcome; ``requirements`` are the document's
    ``(scenario name, rule)`` pairs, which an impossibility names."""
    if result["outcome"] == "found":
        return [
            f"found a strategy satisfying all {_count(len(result['reports']), 'requirement')}:",
            *([_row_line(row) for row in result["strategy"]["rows"]]
              or ["  (empty table: every agent always does nothing)"]),
        ]
    explored, points = result["strategies_explored"], result["decision_points"]
    if result["outcome"] == "impossible":
        return [
            f"impossible: all {_count(explored, 'refuted branch')} over "
            f"{_count(points, 'decision point')} {'fails' if explored == 1 else 'fail'} some requirement",
            *(f"  requirement {int(idx) + 1} ({rule.value} of {name!r}): "
              f"first failure on {_count(count, 'branch')}"
              for idx, count in result["failures_by_requirement"].items()
              for name, rule in [requirements[int(idx)]]),
        ]
    return [f"aborted: {result['limit']} limit hit after {_count(explored, 'branch')} "
            f"and {_count(points, 'decision point')}"]


def check(result: dict) -> list[str]:
    return [
        *(_report_line(i, report) for i, report in enumerate(result["reports"], 1)),
        "all requirements satisfied" if result["all_satisfied"] else "some requirements unsatisfied",
    ]


def parser(commands: dict, common: dict):
    """The argparse tree of the grammar: ``common`` options, then each of
    ``commands``' help line, handler and own options."""
    import argparse

    tree = argparse.ArgumentParser(prog="nosignal", description="simulate and search local signaling strategies")
    sub = tree.add_subparsers(dest="command", required=True)
    for name, (summary, func, own) in commands.items():
        command = sub.add_parser(name, help=summary)
        for flag, keywords in {**common, **own}.items():
            command.add_argument(flag, **keywords)
        command.set_defaults(func=func)
    return tree
