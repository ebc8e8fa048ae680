"""Command line front end.

Subcommands: ``simulate`` (run one scenario and print the trace, verdicts,
and diagram), ``search`` (synthesize a strategy for the document's
requirements or certify impossibility), ``check`` (evaluate a strategy
file against every requirement), and ``diagram`` (print just the picture).

The grammar is one table, ``_COMMANDS`` and ``_COMMON``, of each option's
``add_argument`` keywords. The plain form ``CMD (--opt VALUE | --json)*``
with exact option names is parsed straight from it. Any other argv (help,
abbreviations, ``--opt=value``, every usage error) goes to the argparse
tree that ``build_parser`` makes from the same table, so its output is
argparse's own; only then is ``argparse`` imported. Its usage-error exit
status 2 is reported as 1.

Exit codes: 0 ok/found, 1 usage error, 2 invalid input, 3 requirements
unsatisfiable or unsatisfied, 4 search aborted on limits.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from .config import (
    ConfigDocument,
    load_config,
    load_strategy,
    strategy_rows,
)
from .diagram import render_diagram
from .errors import ParseError, SimulationError
from .protocol import Scenario, Strategy, Trace, execute, obedient_strategy
from .search import Aborted, Found, Impossible, SearchLimits, find_strategy
from .tasks import RequirementReport, evaluate_requirement, evaluate_task

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_UNSATISFIED = 3
EXIT_ABORTED = 4


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        raise ParseError(f"{path!r}: not UTF-8 text (byte {err.start}: {err.reason})") from None
    except ValueError as err:  # open() refuses a path holding a NUL byte
        raise ParseError(f"{path!r}: {err}") from None


def _load_document(path: str) -> ConfigDocument:
    return load_config(_read(path))


def _pick_scenario(doc: ConfigDocument, name: str) -> Scenario:
    if name not in doc.scenarios:
        raise SimulationError(f"unknown scenario {name!r}")
    return doc.scenarios[name]


def _pick_strategy(source: str, doc: ConfigDocument) -> Strategy:
    if source == "obedient":
        return obedient_strategy(doc.spacetime, doc.tasks)
    return load_strategy(_read(source), doc.spacetime, doc.tasks)


def _pick_limits(args, doc: ConfigDocument) -> SearchLimits:
    limits = doc.limits or SearchLimits()
    if args.limits_branches is not None:
        limits = SearchLimits(args.limits_branches, limits.max_decision_points)
    if args.limits_decisions is not None:
        limits = SearchLimits(limits.max_branches, args.limits_decisions)
    return limits


def _trace_lines(trace: Trace) -> list[str]:
    rows = [(t, 0, f"t={t}  request {task} at {loc}") for task, loc, t in trace.requests]
    rows += [(t, 1, f"t={t}  depart  {o} -> {d}") for o, d, t in trace.departures]
    rows += [(t, 2, f"t={t}  arrive  {o} -> {d}") for o, d, t in trace.arrivals]
    return [text for _, _, text in sorted(rows)] or ["(empty trace)"]


def _trace_json(trace: Trace) -> dict[str, object]:
    return {
        "requests": sorted(list(r) for r in trace.requests),
        "departures": sorted(list(d) for d in trace.departures),
        "arrivals": sorted(list(a) for a in trace.arrivals),
    }


def _event_label(event: dict[str, object]) -> str:
    if event["kind"] == "request":
        return f"request {event['task']} @{event['time']}"
    return f"signal from {event['origin']} @{event['time']}"


def _print_strategy(strategy: Strategy) -> None:
    rows = strategy_rows(strategy)
    if not rows:
        print("  (empty table: every agent always does nothing)")
    for row in rows:
        history = row["history"]
        events = ", ".join(_event_label(event) for event in history["events"])
        sends = ", ".join(row["action"]["send"]) or "nothing"
        print(f"  {row['agent']}  t={history['upto']}  [{events}]  -> send {sends}")


def _report_json(report: RequirementReport, label: str) -> dict[str, object]:
    return {
        "scenario": label,
        "rule": report.requirement.rule.value,
        "verdicts": dict(sorted(report.verdicts.items())),
        "satisfied": report.satisfied,
    }


def cmd_simulate(args) -> int:
    doc = _load_document(args.config)
    scenario = _pick_scenario(doc, args.scenario)
    strategy = _pick_strategy(args.strategy, doc)
    trace = execute(doc.spacetime, scenario, strategy)
    verdicts = {
        task_id: evaluate_task(trace, task, doc.spacetime)
        for task_id, task in sorted(doc.tasks.items())
    }
    picture = render_diagram(trace, doc.spacetime)
    if args.json:
        print(json.dumps({
            "scenario": args.scenario,
            "strategy": args.strategy,
            "trace": _trace_json(trace),
            "verdicts": verdicts,
            "diagram": picture,
        }, indent=2))
        return EXIT_OK
    print(f"scenario {args.scenario!r} with strategy {args.strategy!r}")
    for line in _trace_lines(trace):
        print(f"  {line}")
    print("verdicts:")
    for task_id, ok in verdicts.items():
        print(f"  {task_id}: {'satisfied' if ok else 'unsatisfied'}")
    print()
    print(picture, end="")
    return EXIT_OK


def cmd_search(args) -> int:
    doc = _load_document(args.config)
    if not doc.requirements:
        raise SimulationError("config document declares no requirements")
    requirements = doc.resolve_requirements()
    outcome = find_strategy(doc.spacetime, requirements, doc.tasks, _pick_limits(args, doc))

    if isinstance(outcome, Found):
        if args.json:
            print(json.dumps({
                "outcome": "found",
                "strategy": {"rows": strategy_rows(outcome.strategy)},
                "reports": [
                    _report_json(report, named.scenario)
                    for report, named in zip(outcome.reports, doc.requirements)
                ],
            }, indent=2))
        else:
            print(f"found a strategy satisfying all {len(requirements)} requirements:")
            _print_strategy(outcome.strategy)
        return EXIT_OK

    if isinstance(outcome, Impossible):
        cert = outcome.certificate
        if args.json:
            print(json.dumps({
                "outcome": "impossible",
                "strategies_explored": cert.strategies_explored,
                "decision_points": len(cert.decision_points),
                "failures_by_requirement": {
                    str(idx): count
                    for idx, count in sorted(cert.failures_by_requirement().items())
                },
            }, indent=2))
        else:
            print(f"impossible: all {cert.strategies_explored} refuted branches over "
                  f"{len(cert.decision_points)} decision points fail some requirement")
            for idx, count in sorted(cert.failures_by_requirement().items()):
                named = doc.requirements[idx]
                print(f"  requirement {idx + 1} ({named.rule.value} of {named.scenario!r}): "
                      f"first failure on {count} branches")
        return EXIT_UNSATISFIED

    assert isinstance(outcome, Aborted)
    if args.json:
        print(json.dumps({
            "outcome": "aborted",
            "limit": outcome.limit,
            "strategies_explored": outcome.strategies_explored,
            "decision_points": outcome.decision_points,
        }, indent=2))
    else:
        print(f"aborted: {outcome.limit} limit hit after {outcome.strategies_explored} "
              f"branches and {outcome.decision_points} decision points")
    return EXIT_ABORTED


def cmd_check(args) -> int:
    doc = _load_document(args.config)
    strategy = _pick_strategy(args.strategy, doc)
    reports = []
    for named, requirement in zip(doc.requirements, doc.resolve_requirements()):
        reports.append((named, evaluate_requirement(doc.spacetime, strategy, requirement, doc.tasks)))
    all_ok = all(report.satisfied for _, report in reports)
    if args.json:
        print(json.dumps({
            "reports": [_report_json(report, named.scenario) for named, report in reports],
            "all_satisfied": all_ok,
        }, indent=2))
    else:
        for i, (named, report) in enumerate(reports, 1):
            verdicts = ", ".join(f"{tid}={'ok' if ok else 'fail'}"
                                 for tid, ok in sorted(report.verdicts.items()))
            status = "satisfied" if report.satisfied else "UNSATISFIED"
            print(f"requirement {i} ({named.rule.value} of {named.scenario!r}): "
                  f"{status}  [{verdicts or 'no tasks requested'}]")
        print("all requirements satisfied" if all_ok else "some requirements unsatisfied")
    return EXIT_OK if all_ok else EXIT_UNSATISFIED


def cmd_diagram(args) -> int:
    doc = _load_document(args.config)
    scenario = _pick_scenario(doc, args.scenario)
    strategy = _pick_strategy(args.strategy, doc)
    picture = render_diagram(execute(doc.spacetime, scenario, strategy), doc.spacetime)
    if args.json:
        print(json.dumps({"diagram": picture}, indent=2))
    else:
        print(picture, end="")
    return EXIT_OK


# The grammar: each option's ``add_argument`` keywords, common options first,
# then each subcommand's help line, handler and own options.
_COMMON = {
    "--config": {"required": True, "help": "path to a JSON config document"},
    "--json": {"action": "store_true", "help": "machine-readable output"},
    "--limits-branches": {"type": int, "metavar": "N",
                          "help": "cap on search branches (partial strategies refuted at a "
                                  "time-slice boundary, or complete ones)"},
    "--limits-decisions": {"type": int, "metavar": "N", "help": "cap on distinct decision points"},
}
_COMMANDS = {
    "simulate": ("execute one scenario and report verdicts", cmd_simulate, {
        "--scenario": {"required": True, "help": "scenario name from the config"},
        "--strategy": {"default": "obedient",
                       "help": "'obedient' or a strategy file path (default: obedient)"},
    }),
    "search": ("find a strategy for all requirements or certify impossibility", cmd_search, {}),
    "check": ("evaluate a strategy against every requirement", cmd_check, {
        "--strategy": {"required": True, "help": "'obedient' or a strategy file path"},
    }),
    "diagram": ("print the spacetime diagram of one scenario", cmd_diagram, {
        "--scenario": {"required": True},
        "--strategy": {"default": "obedient"},
    }),
}


def build_parser():
    import argparse  # only help and usage errors need it

    parser = argparse.ArgumentParser(prog="nosignal",
                                     description="simulate and search local signaling strategies")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, own) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for flag, keywords in {**_COMMON, **own}.items():
            command.add_argument(flag, **keywords)
        command.set_defaults(func=func)
    return parser


def _plain_args(argv) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, for the plain form;
    None for any argv where argparse could behave differently."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, own = _COMMANDS[argv[0]]
    options = {**_COMMON, **own}
    values = {flag: keywords.get("default", False if "action" in keywords else None)
              for flag, keywords in options.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        keywords = options.get(token)
        if keywords is None:
            return None
        if "action" in keywords:
            values[token] = True
            continue
        value = next(tokens, "-")  # a missing value is left to argparse like a dash
        if value.startswith("-"):
            return None
        try:
            values[token] = keywords.get("type", str)(value)
        except ValueError:
            return None
    if any(keywords.get("required") and values[flag] is None for flag, keywords in options.items()):
        return None
    return SimpleNamespace(command=argv[0], func=func,
                           **{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def main(argv=None) -> int:
    args = _plain_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exit_:  # 0 after help, 2 after a usage error
            return EXIT_USAGE if exit_.code else EXIT_OK
    try:
        return args.func(args)
    except (SimulationError, OSError) as err:
        message = str(err)  # a JSON path holds its keys as written, newlines included
        print(f"error: {message if message.isprintable() else repr(message)[1:-1]}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
