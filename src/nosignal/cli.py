"""Command line front end.

Subcommands: ``simulate`` (run one scenario and print the trace, verdicts,
and diagram), ``search`` (synthesize a strategy for the document's
requirements or certify impossibility), ``check`` (evaluate a strategy
file against every requirement), and ``diagram`` (print just the picture).
Each builds one result: ``--json`` prints it, and the text is rendered
from it, by ``text`` for every command but ``diagram``, whose text is the
picture. A picture is written one line at a time, as it is drawn, and is
never held whole. Nothing here imports ``audit``.

Each file is read once (``_read``) and each value checked once, by the
loader: the commands call the kernels of ``execute``, ``evaluate_task``
and ``evaluate_requirement``, which skip those functions' checks; ``check``
judges every requirement in one replay that steps each scenario once.

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
from collections.abc import Iterator
from itertools import chain
from types import SimpleNamespace

from .config import (
    ConfigDocument,
    NamedRequirement,
    load_config,
    load_strategy,
    strategy_rows,
)
# The picture as the iterator of its lines, and the kernels of execute,
# evaluate_requirement and evaluate_task for what the loader has checked.
# All but the last take their public names, which perfbench's tracer wraps.
from .diagram import _picture as render_diagram
from .errors import SimulationError
from .protocol import RawAssignment, Trace, _execute as execute, obedient_strategy
from .search import Aborted, Found, Impossible, SearchLimits, find_strategy
from .tasks import RequirementReport, _reports as evaluate_requirement, _verdicts

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_UNSATISFIED = 3
EXIT_ABORTED = 4


def _read(path: str) -> str:
    """The file's text as text mode reads it, from one binary read: strict
    UTF-8 (a bad byte's offset counted from the start), with ``\\r\\n`` and a
    lone ``\\r`` read as ``\\n``. Only a text holding ``\\r`` is scanned for
    ``\\r\\n``, which costs about 1 µs per KB."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode()
    except UnicodeDecodeError as err:
        raise SimulationError(f"{path!r}: not UTF-8 text (byte {err.start}: {err.reason})") from None
    except ValueError as err:  # open() refuses a path holding a NUL byte
        raise SimulationError(f"{path!r}: {err}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _pick_strategy(source: str, doc: ConfigDocument) -> RawAssignment:
    if source == "obedient":
        return obedient_strategy(doc.spacetime, doc.tasks)
    return load_strategy(_read(source), doc.spacetime, doc.tasks)


def _report_json(report: RequirementReport, named: NamedRequirement) -> dict[str, object]:
    verdicts, satisfied = report  # verdicts come in task-id order
    label, rule = named
    return {"scenario": label, "rule": rule, "verdicts": verdicts, "satisfied": satisfied}


def _emit(args, code: int, payload: dict[str, object], *context) -> int:
    """Write a command's result to stdout, the payload with ``--json`` and
    otherwise its text: the lines that ``text`` renders from the payload and
    ``context`` (none for ``diagram``), then the picture. Return the exit code.

    A picture, always the payload's last value, comes as the iterator of its
    lines, which ``_write_lines`` writes as they are drawn, so it is never
    held whole. With ``--json`` they come escaped by ``_run_scenario`` and go,
    each followed by an escaped newline, between the ends of the payload
    dumped without the picture: ``json.dumps(payload, indent=2)``, byte for byte."""
    lines = payload.get("diagram", ())
    if args.json and "diagram" in payload:
        sys.stdout.write(json.dumps({**payload, "diagram": ""}, indent=2)[:-3])  # it ends '""\n}'
        _write_lines(lines, "\\n")
        sys.stdout.write('"\n}\n')
    elif args.json:
        print(json.dumps(payload, indent=2))
    else:
        if args.command != "diagram":
            from . import text  # only text output needs the renderers
            lines = chain(getattr(text, args.command)(payload, *context), lines)
        _write_lines(lines, "\n")
    return code


def _write_lines(lines: Iterator[str], newline: str) -> None:
    """Write each line followed by ``newline`` to stdout, gathered into
    writes of about 64 KB. Written one by one, the lines would reach the
    operating system in a call per 8 KB, the stream's buffer, and each call
    to a file costs about 10 µs (2-vCPU VM)."""
    chunk = ""
    for line in lines:
        chunk += line + newline
        if len(chunk) > 1 << 16:
            sys.stdout.write(chunk)
            chunk = ""
    sys.stdout.write(chunk)


def _run_scenario(args) -> tuple[ConfigDocument, Trace, Iterator[str]]:
    """Run the named scenario under the named strategy; return the document,
    the trace and the lines of its picture (size checked, marks placed). With
    ``--json``, if a lab name or task id needs it, each line is escaped as in a
    JSON string: each glyph is one of ``?!<>*X`` or cut from a name, and no
    line holds a newline, so that is the escaped picture."""
    doc = load_config(_read(args.config))
    if args.scenario not in doc.scenarios:
        raise SimulationError(f"unknown scenario {args.scenario!r}")
    [trace] = execute(doc.spacetime, (doc.scenarios[args.scenario],), _pick_strategy(args.strategy, doc))
    picture = render_diagram(trace, doc.spacetime)
    if args.json and "\\" in json.dumps([*doc.spacetime.locations, *doc.tasks]):
        picture = (json.dumps(line)[1:-1] for line in picture)
    return doc, trace, picture


def cmd_simulate(args) -> int:
    doc, trace, picture = _run_scenario(args)
    requests, departures, arrivals = trace
    payload = {
        "scenario": args.scenario,
        "strategy": args.strategy,
        # json writes each triple, a tuple, as an array
        "trace": {"requests": sorted(requests), "departures": sorted(departures), "arrivals": sorted(arrivals)},
        "verdicts": _verdicts(trace, dict(sorted(doc.tasks.items()))),
        "diagram": picture,
    }
    return _emit(args, EXIT_OK, payload)


def cmd_search(args) -> int:
    doc = load_config(_read(args.config))
    limits = doc.limits or SearchLimits()
    outcome = find_strategy(doc.spacetime, doc.resolve_requirements(), doc.tasks, SearchLimits(
        limits.max_branches if args.limits_branches is None else args.limits_branches,
        limits.max_decision_points if args.limits_decisions is None else args.limits_decisions))

    if isinstance(outcome, Found):
        return _emit(args, EXIT_OK, {
            "outcome": "found",
            "strategy": {"rows": strategy_rows(outcome.strategy)},
            "reports": [
                _report_json(report, named) for report, named in zip(outcome.reports, doc.requirements)
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
    doc = load_config(_read(args.config))
    strategy = _pick_strategy(args.strategy, doc)
    reports = [
        _report_json(report, named) for report, named in zip(
            evaluate_requirement(doc.spacetime, strategy, doc.resolve_requirements(), doc.tasks), doc.requirements)
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
