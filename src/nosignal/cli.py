"""Command line front end.

Subcommands: ``simulate`` (run one scenario and print the trace, verdicts,
and diagram), ``search`` (synthesize a strategy for the document's
requirements or certify impossibility), ``check`` (evaluate a strategy
file against every requirement), and ``diagram`` (print just the picture).
Each builds one result: ``--json`` prints it, and the text is rendered
from it, by ``text`` for every command but ``diagram``, whose text is the
picture. The config reader imports ``faults`` only for a document with a
shape fault, and nothing here imports ``audit``.

The grammar is one table, ``_COMMANDS`` and ``_COMMON``, of each option's
``add_argument`` keywords. The plain form ``CMD (--opt VALUE | --json)*``
with exact option names is parsed straight from it. Any other argv (help,
abbreviations, ``--opt=value``, every usage error) goes to the argparse
tree that ``build_parser`` has ``text`` make from the same table, so its
output is argparse's own; only then are ``text`` and ``argparse``
imported. Its usage-error exit status 2 is reported as 1.

``main`` keeps what existed before the command frozen out of the garbage
collector's sight while it runs. It also registers ``gc.freeze`` as an exit
hook, once per process, so what is still alive at exit is left to the
operating system instead of being freed by the interpreter's shutdown
collection. A library caller's objects in reference cycles that are still
alive at exit are then not finalized.

Exit codes: 0 ok/found, 1 usage error, 2 invalid input, 3 requirements
unsatisfiable or unsatisfied, 4 search aborted on limits.
"""

from __future__ import annotations

import atexit
import functools
import gc
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
from .protocol import RawAssignment, Scenario, Trace, execute, obedient_strategy, strategy_slots
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


def _pick_strategy(source: str, doc: ConfigDocument) -> RawAssignment:
    if source == "obedient":
        return obedient_strategy(doc.spacetime, doc.tasks)
    return load_strategy(_read(source), doc.spacetime, doc.tasks)


def _pick_limits(args, doc: ConfigDocument) -> SearchLimits:
    limits = doc.limits or SearchLimits()
    return SearchLimits(limits.max_branches if args.limits_branches is None else args.limits_branches,
                        limits.max_decision_points if args.limits_decisions is None else args.limits_decisions)


def _report_json(report: RequirementReport, label: str) -> dict[str, object]:
    _, rule = report.requirement
    return {
        "scenario": label,
        "rule": rule.value,
        "verdicts": dict(sorted(report.verdicts.items())),
        "satisfied": report.satisfied,
    }


def _emit(args, code: int, payload: dict[str, object], *context) -> int:
    """Print a command's result, the payload with ``--json`` and otherwise
    its text: the picture for ``diagram``, else the lines that ``text``
    renders from the payload and ``context``. Return the exit code."""
    if args.json:
        out = json.dumps(payload, indent=2)
    elif args.command == "diagram":
        out = payload["diagram"].removesuffix("\n")
    else:
        from . import text  # only text output needs the renderers
        out = "\n".join(getattr(text, args.command)(payload, *context))
    print(out)
    return code


def _run_scenario(args) -> tuple[ConfigDocument, Trace, str]:
    """Run the named scenario under the named strategy and draw it."""
    doc = _load_document(args.config)
    scenario = _pick_scenario(doc, args.scenario)
    strategy = _pick_strategy(args.strategy, doc)
    trace = execute(doc.spacetime, scenario, strategy)
    return doc, trace, render_diagram(trace, doc.spacetime)


def cmd_simulate(args) -> int:
    doc, trace, picture = _run_scenario(args)
    payload = {
        "scenario": args.scenario,
        "strategy": args.strategy,
        "trace": {
            "requests": [list(r) for r in sorted(trace.requests)],
            "departures": [list(d) for d in sorted(trace.departures)],
            "arrivals": [list(a) for a in sorted(trace.arrivals)],
        },
        "verdicts": {
            task_id: evaluate_task(trace, task, doc.spacetime)
            for task_id, task in sorted(doc.tasks.items())
        },
        "diagram": picture,
    }
    return _emit(args, EXIT_OK, payload)


def cmd_search(args) -> int:
    doc = _load_document(args.config)
    outcome = find_strategy(doc.spacetime, doc.resolve_requirements(), doc.tasks, _pick_limits(args, doc))

    if isinstance(outcome, Found):
        return _emit(args, EXIT_OK, {
            "outcome": "found",
            "strategy": {"rows": strategy_rows(outcome.strategy)},
            "reports": [
                _report_json(report, name)
                for report, (name, _) in zip(outcome.reports, doc.requirements)
            ],
        })

    if isinstance(outcome, Impossible):
        cert = outcome.certificate
        return _emit(args, EXIT_UNSATISFIED, {
            "outcome": "impossible",
            "strategies_explored": cert.strategies_explored,
            "decision_points": len(cert.decision_points),
            "failures_by_requirement": {
                str(idx): count for idx, count in sorted(cert.failures_by_requirement().items())
            },
        }, doc.requirements)

    assert isinstance(outcome, Aborted)
    return _emit(args, EXIT_ABORTED, {
        "outcome": "aborted",
        "limit": outcome.limit,
        "strategies_explored": outcome.strategies_explored,
        "decision_points": outcome.decision_points,
    })


def cmd_check(args) -> int:
    doc = _load_document(args.config)
    strategy = _pick_strategy(args.strategy, doc)
    slots = strategy_slots(doc.spacetime, strategy)
    reports = [
        _report_json(evaluate_requirement(doc.spacetime, strategy, requirement, doc.tasks, slots), name)
        for (name, _), requirement in zip(doc.requirements, doc.resolve_requirements())
    ]
    all_ok = all(report["satisfied"] for report in reports)
    return _emit(args, EXIT_OK if all_ok else EXIT_UNSATISFIED, {
        "reports": reports,
        "all_satisfied": all_ok,
    })


def cmd_diagram(args) -> int:
    _, _, picture = _run_scenario(args)
    return _emit(args, EXIT_OK, {"diagram": picture})


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
_SCENARIO = {
    "--scenario": {"required": True, "help": "scenario name from the config"},
    "--strategy": {"default": "obedient",
                   "help": "'obedient' or a strategy file path (default: obedient)"},
}
_COMMANDS = {
    "simulate": ("execute one scenario and report verdicts", cmd_simulate, _SCENARIO),
    "search": ("find a strategy for all requirements or certify impossibility", cmd_search, {}),
    "check": ("evaluate a strategy against every requirement", cmd_check, {
        "--strategy": {"required": True, "help": "'obedient' or a strategy file path"},
    }),
    "diagram": ("print the spacetime diagram of one scenario", cmd_diagram, _SCENARIO),
}


def build_parser():
    from .text import parser  # only help and usage errors need the argparse tree

    return parser(_COMMANDS, _COMMON)


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


@functools.cache  # once per process: atexit keeps a slot for every registration, even undone
def _leave_exit_to_the_os() -> None:
    """At exit, freeze what is still alive, so the shutdown collection skips
    it and the operating system reclaims its memory instead."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    # Freeze what exists before the command, imports above all, so collections see only its own.
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    _leave_exit_to_the_os()
    try:
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
    finally:
        if freeze:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
