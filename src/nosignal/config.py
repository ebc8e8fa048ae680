"""JSON document loading, validation, and serialization.

Two document kinds exist: the config document (geometry, tasks, named
scenarios, requirements, optional search limits) and the strategy document
(explicit rows of agent, history, action; unlisted histories default to
the empty action). Validation errors carry the JSON path of the offending
value, parse errors the line and column.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping

from .errors import ParseError, SimulationError, ValidationError
from .protocol import (
    KIND_REQUEST,
    Action,
    LocalHistory,
    ReceivedEvent,
    Scenario,
    Strategy,
    TaskRequest,
    check_request,
)
from .record import Record
from .search import SearchLimits
from .spacetime import SpacetimeConfig
from .tasks import Deliver, Requirement, Rule, Silence, TaskSpec, check_task


class NamedRequirement(Record):
    """A requirement referencing one of the document's scenarios by name."""

    __slots__ = ("scenario", "rule")

    def __init__(self, scenario: str, rule: Rule):
        self._fill(scenario, rule)


class ConfigDocument(Record):
    """A loaded config document. Mutable, so unhashable; a new document
    gets a new empty requirement list unless one is given."""

    __slots__ = ("spacetime", "tasks", "scenarios", "requirements", "limits")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, spacetime: SpacetimeConfig, tasks: dict[str, TaskSpec],
                 scenarios: dict[str, Scenario], requirements: list[NamedRequirement] | None = None,
                 limits: SearchLimits | None = None):
        self._fill(spacetime, tasks, scenarios, [] if requirements is None else requirements, limits)

    def resolve_requirements(self) -> list[Requirement]:
        return [
            Requirement(self.scenarios[named.scenario], named.rule)
            for named in self.requirements
        ]


def _fail(path: str, message: str) -> None:
    raise ValidationError(f"{path}: {message}")


def _require_object(value: object, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _require_list(value: object, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {type(value).__name__}")
    return value


def _require_int(value: object, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _require_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    return value


def _no_extras(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            _fail(path, f"unexpected key {key!r}")


def _pop(obj: dict, key: str, path: str) -> object:
    if key not in obj:
        _fail(path, f"missing key {key!r}")
    return obj[key]


def _parse(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"line {err.lineno}, column {err.colno}: {err.msg}") from None
    except RecursionError:
        raise ParseError("document nested too deeply") from None


def _location(value: object, cfg: SpacetimeConfig, path: str) -> str:
    name = _require_str(value, path)
    if name not in cfg.locations:
        _fail(path, f"unknown location {name!r}")
    return name


def _checked(prefix: str, check: Callable, *args):
    """``check(*args)``, a constructor or checker; an input error it raises
    is raised again with ``prefix`` (a JSON path and separator) in front."""
    try:
        return check(*args)
    except SimulationError as err:
        raise ValidationError(f"{prefix}{err}") from None


def load_config(text: str) -> ConfigDocument:
    """Parse and validate a config document.

    JSON types, keys and names (tasks, scenarios, rules) are checked here;
    every other invariant by the constructor or checker that owns it, whose
    message gets the JSON path of the offending value in front.
    """
    raw = _require_object(_parse(text), "document")
    _no_extras(raw, {"locations", "horizon", "tasks", "scenarios", "requirements", "limits"}, "document")

    locations_raw = _require_object(_pop(raw, "locations", "document"), "locations")
    locations = {name: _require_int(coord, f"locations.{name}") for name, coord in locations_raw.items()}
    cfg = SpacetimeConfig(locations, _require_int(_pop(raw, "horizon", "document"), "horizon"))

    tasks: dict[str, TaskSpec] = {}
    for task_id, body in _require_object(raw.get("tasks", {}), "tasks").items():
        path = f"tasks.{task_id}"
        body = _require_object(body, path)
        _no_extras(body, {"deliver", "silence"}, path)
        deliver_raw = _require_object(_pop(body, "deliver", path), f"{path}.deliver")
        _no_extras(deliver_raw, {"from", "to", "at"}, f"{path}.deliver")
        origin = _require_str(_pop(deliver_raw, "from", f"{path}.deliver"), f"{path}.deliver.from")
        dest = _require_str(_pop(deliver_raw, "to", f"{path}.deliver"), f"{path}.deliver.to")
        at = _require_int(_pop(deliver_raw, "at", f"{path}.deliver"), f"{path}.deliver.at")
        deliver = _checked(f"{path}.deliver: ", Deliver, origin, dest, at)
        silence = []
        for i, ban in enumerate(_require_list(body.get("silence", []), f"{path}.silence")):
            ban_path = f"{path}.silence[{i}]"
            ban = _require_object(ban, ban_path)
            _no_extras(ban, {"from", "to"}, ban_path)
            b_origin = _require_str(_pop(ban, "from", ban_path), f"{ban_path}.from")
            b_dest = _require_str(_pop(ban, "to", ban_path), f"{ban_path}.to")
            silence.append(_checked(f"{ban_path}: ", Silence, b_origin, b_dest))
        tasks[task_id] = TaskSpec(task_id, deliver, tuple(silence))
        _checked(f"{path}.", check_task, tasks[task_id], cfg)

    scenarios: dict[str, Scenario] = {}
    for name, entries in _require_object(raw.get("scenarios", {}), "scenarios").items():
        path = f"scenarios.{name}"
        requests = []
        for i, entry in enumerate(_require_list(entries, path)):
            entry_path = f"{path}[{i}]"
            entry = _require_object(entry, entry_path)
            _no_extras(entry, {"task", "location", "time"}, entry_path)
            task_id = _require_str(_pop(entry, "task", entry_path), f"{entry_path}.task")
            if task_id not in tasks:
                _fail(f"{entry_path}.task", f"undefined task {task_id!r}")
            location = _require_str(_pop(entry, "location", entry_path), f"{entry_path}.location")
            time = _require_int(_pop(entry, "time", entry_path), f"{entry_path}.time")
            requests.append(TaskRequest(task_id, location, time))
            _checked(f"{entry_path}.", check_request, requests[-1], cfg)
        scenarios[name] = _checked(f"{path}: ", Scenario, requests)

    requirements: list[NamedRequirement] = []
    for i, entry in enumerate(_require_list(raw.get("requirements", []), "requirements")):
        path = f"requirements[{i}]"
        entry = _require_object(entry, path)
        _no_extras(entry, {"scenario", "rule"}, path)
        name = _require_str(_pop(entry, "scenario", path), f"{path}.scenario")
        if name not in scenarios:
            _fail(f"{path}.scenario", f"undefined scenario {name!r}")
        rule_raw = _require_str(_pop(entry, "rule", path), f"{path}.rule")
        try:
            rule = Rule(rule_raw)
        except ValueError:
            _fail(f"{path}.rule", f"expected 'all' or 'at_least_one', got {rule_raw!r}")
        _checked(f"{path}: ", Requirement, scenarios[name], rule)
        requirements.append(NamedRequirement(name, rule))

    limits = None
    if "limits" in raw:
        body = _require_object(raw["limits"], "limits")
        _no_extras(body, {"max_branches", "max_decision_points"}, "limits")
        defaults = SearchLimits()
        branches = _require_int(body.get("max_branches", defaults.max_branches), "limits.max_branches")
        points = _require_int(
            body.get("max_decision_points", defaults.max_decision_points),
            "limits.max_decision_points",
        )
        limits = _checked("limits: ", SearchLimits, branches, points)

    return ConfigDocument(cfg, tasks, scenarios, requirements, limits)


def serialize_config(doc: ConfigDocument) -> str:
    """Canonical JSON for a config document; loading it back gives ``doc``."""
    payload: dict[str, object] = {
        "locations": {name: doc.spacetime.locations[name] for name in sorted(doc.spacetime.locations)},
        "horizon": doc.spacetime.horizon,
        "tasks": {
            task_id: {
                "deliver": {
                    "from": task.deliver.origin,
                    "to": task.deliver.dest,
                    "at": task.deliver.at,
                },
                "silence": [
                    {"from": ban.origin, "to": ban.dest}
                    for ban in sorted(task.silence, key=lambda b: (b.origin, b.dest))
                ],
            }
            for task_id, task in sorted(doc.tasks.items())
        },
        "scenarios": {
            name: [
                {"task": r.task, "location": r.location, "time": r.time}
                for r in sorted(doc.scenarios[name].requests)
            ]
            for name in sorted(doc.scenarios)
        },
        "requirements": [
            {"scenario": named.scenario, "rule": named.rule.value}
            for named in doc.requirements
        ],
    }
    if doc.limits is not None:
        payload["limits"] = {
            "max_branches": doc.limits.max_branches,
            "max_decision_points": doc.limits.max_decision_points,
        }
    return json.dumps(payload, indent=2) + "\n"


def _event_to_json(event: ReceivedEvent) -> dict[str, object]:
    if event.kind == KIND_REQUEST:
        return {"kind": "request", "time": event.time, "task": event.label}
    return {"kind": "signal", "time": event.time, "origin": event.label}


def _event_from_json(raw: object, cfg: SpacetimeConfig, agent: str,
                     tasks: Mapping[str, TaskSpec] | None, path: str) -> ReceivedEvent:
    raw = _require_object(raw, path)
    kind = _require_str(_pop(raw, "kind", path), f"{path}.kind")
    time = _require_int(_pop(raw, "time", path), f"{path}.time")
    if kind == "request":
        _no_extras(raw, {"kind", "time", "task"}, path)
        task_id = _require_str(_pop(raw, "task", path), f"{path}.task")
        if tasks is not None and task_id not in tasks:
            _fail(f"{path}.task", f"undefined task {task_id!r}")
        return ReceivedEvent.request(time, task_id)
    if kind == "signal":
        _no_extras(raw, {"kind", "time", "origin"}, path)
        origin = _location(_pop(raw, "origin", path), cfg, f"{path}.origin")
        if origin == agent:
            _fail(f"{path}.origin", "signal origin cannot be the receiving agent")
        return ReceivedEvent.signal(time, origin)
    _fail(f"{path}.kind", f"expected 'request' or 'signal', got {kind!r}")
    raise AssertionError  # unreachable


def load_strategy(
    text: str, cfg: SpacetimeConfig, tasks: Mapping[str, TaskSpec] | None = None
) -> Strategy:
    """Parse and validate a strategy document against a configuration."""
    raw = _require_object(_parse(text), "document")
    _no_extras(raw, {"rows"}, "document")
    table: dict[tuple[str, LocalHistory], Action] = {}
    for i, row in enumerate(_require_list(_pop(raw, "rows", "document"), "rows")):
        path = f"rows[{i}]"
        row = _require_object(row, path)
        _no_extras(row, {"agent", "history", "action"}, path)
        agent = _location(_pop(row, "agent", path), cfg, f"{path}.agent")
        history_raw = _require_object(_pop(row, "history", path), f"{path}.history")
        _no_extras(history_raw, {"upto", "events"}, f"{path}.history")
        upto = _require_int(_pop(history_raw, "upto", f"{path}.history"), f"{path}.history.upto")
        if not 0 <= upto <= cfg.horizon:
            _fail(f"{path}.history.upto", f"{upto} outside [0, {cfg.horizon}]")
        events = tuple(
            _event_from_json(ev, cfg, agent, tasks, f"{path}.history.events[{j}]")
            for j, ev in enumerate(
                _require_list(history_raw.get("events", []), f"{path}.history.events")
            )
        )
        action_raw = _require_object(_pop(row, "action", path), f"{path}.action")
        _no_extras(action_raw, {"send"}, f"{path}.action")
        sends = set()
        for j, dest in enumerate(_require_list(action_raw.get("send", []), f"{path}.action.send")):
            dest = _location(dest, cfg, f"{path}.action.send[{j}]")
            if dest == agent:
                _fail(f"{path}.action.send[{j}]", "agent cannot send to itself")
            sends.add(dest)
        key = (agent, _checked(f"{path}.history.", LocalHistory, agent, upto, events))
        if key in table and table[key] != Action(frozenset(sends)):
            _fail(path, "conflicting duplicate of an earlier row")
        table[key] = Action(frozenset(sends))
    return Strategy(table)


def strategy_rows(strategy: Strategy) -> list[dict[str, object]]:
    """Strategy table as JSON-ready rows in canonical order."""
    ordered = sorted(
        strategy.table.items(), key=lambda kv: (kv[0][0], kv[0][1].upto, kv[0][1].events)
    )
    return [
        {
            "agent": agent,
            "history": {
                "upto": history.upto,
                "events": [_event_to_json(e) for e in history.events],
            },
            "action": {"send": sorted(action.sends)},
        }
        for (agent, history), action in ordered
    ]


def serialize_strategy(strategy: Strategy) -> str:
    return json.dumps({"rows": strategy_rows(strategy)}, indent=2) + "\n"
