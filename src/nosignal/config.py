"""JSON document loading, validation, and serialization.

Two document kinds exist: the config document (geometry, tasks, named
scenarios, requirements, optional search limits) and the strategy document
(explicit rows of agent, history, action; unlisted histories default to
the empty action). Validation errors carry the JSON path of the offending
value, parse errors the line and column.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import ParseError, ValidationError
from .protocol import (
    KIND_REQUEST,
    Action,
    LocalHistory,
    ReceivedEvent,
    Scenario,
    Strategy,
    TaskRequest,
)
from .search import SearchLimits
from .spacetime import SpacetimeConfig
from .tasks import Deliver, Requirement, Rule, Silence, TaskSpec


@dataclass(frozen=True)
class NamedRequirement:
    """A requirement referencing one of the document's scenarios by name."""

    scenario: str
    rule: Rule


@dataclass
class ConfigDocument:
    spacetime: SpacetimeConfig
    tasks: dict[str, TaskSpec]
    scenarios: dict[str, Scenario]
    requirements: list[NamedRequirement] = field(default_factory=list)
    limits: SearchLimits | None = None

    def resolve_requirements(self) -> list[Requirement]:
        return [
            Requirement(self.scenarios[named.scenario], named.rule)
            for named in self.requirements
        ]


def _fail(path: str, message: str) -> None:
    raise ValidationError(f"{path}: {message}")


def _require_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _require_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {type(value).__name__}")
    return value


def _require_int(value: Any, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _require_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    return value


def _no_extras(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            _fail(path, f"unexpected key {key!r}")


def _pop(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        _fail(path, f"missing key {key!r}")
    return obj[key]


def _parse(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"line {err.lineno}, column {err.colno}: {err.msg}") from None
    except RecursionError:
        raise ParseError("document nested too deeply") from None


def _location(value: Any, cfg: SpacetimeConfig, path: str) -> str:
    name = _require_str(value, path)
    if name not in cfg.locations:
        _fail(path, f"unknown location {name!r}")
    return name


def load_config(text: str) -> ConfigDocument:
    """Parse and validate a config document; every invariant is checked."""
    raw = _require_object(_parse(text), "document")
    _no_extras(raw, {"locations", "horizon", "tasks", "scenarios", "requirements", "limits"}, "document")

    locations_raw = _require_object(_pop(raw, "locations", "document"), "locations")
    if len(locations_raw) < 2:
        _fail("locations", "need at least 2 locations")
    locations = {}
    for name, coord in locations_raw.items():
        locations[name] = _require_int(coord, f"locations.{name}")
    if len(set(locations.values())) != len(locations):
        _fail("locations", "coordinates must be pairwise distinct")

    horizon = _require_int(_pop(raw, "horizon", "document"), "horizon")
    if horizon < 1:
        _fail("horizon", f"must be >= 1, got {horizon}")
    cfg = SpacetimeConfig(locations, horizon)

    tasks: dict[str, TaskSpec] = {}
    for task_id, body in _require_object(raw.get("tasks", {}), "tasks").items():
        path = f"tasks.{task_id}"
        body = _require_object(body, path)
        _no_extras(body, {"deliver", "silence"}, path)
        deliver_raw = _require_object(_pop(body, "deliver", path), f"{path}.deliver")
        _no_extras(deliver_raw, {"from", "to", "at"}, f"{path}.deliver")
        origin = _location(_pop(deliver_raw, "from", f"{path}.deliver"), cfg, f"{path}.deliver.from")
        dest = _location(_pop(deliver_raw, "to", f"{path}.deliver"), cfg, f"{path}.deliver.to")
        if origin == dest:
            _fail(f"{path}.deliver", "endpoints must differ")
        at = _require_int(_pop(deliver_raw, "at", f"{path}.deliver"), f"{path}.deliver.at")
        if not 0 <= at <= horizon:
            _fail(f"{path}.deliver.at", f"{at} outside [0, {horizon}]; horizon too small")
        silence = []
        for i, ban in enumerate(_require_list(body.get("silence", []), f"{path}.silence")):
            ban_path = f"{path}.silence[{i}]"
            ban = _require_object(ban, ban_path)
            _no_extras(ban, {"from", "to"}, ban_path)
            b_origin = _location(_pop(ban, "from", ban_path), cfg, f"{ban_path}.from")
            b_dest = _location(_pop(ban, "to", ban_path), cfg, f"{ban_path}.to")
            if b_origin == b_dest:
                _fail(ban_path, "endpoints must differ")
            silence.append(Silence(b_origin, b_dest))
        tasks[task_id] = TaskSpec(task_id, Deliver(origin, dest, at), tuple(silence))

    scenarios: dict[str, Scenario] = {}
    for name, entries in _require_object(raw.get("scenarios", {}), "scenarios").items():
        path = f"scenarios.{name}"
        requests = []
        slots = set()
        for i, entry in enumerate(_require_list(entries, path)):
            entry_path = f"{path}[{i}]"
            entry = _require_object(entry, entry_path)
            _no_extras(entry, {"task", "location", "time"}, entry_path)
            task_id = _require_str(_pop(entry, "task", entry_path), f"{entry_path}.task")
            if task_id not in tasks:
                _fail(f"{entry_path}.task", f"undefined task {task_id!r}")
            location = _location(_pop(entry, "location", entry_path), cfg, f"{entry_path}.location")
            time = _require_int(_pop(entry, "time", entry_path), f"{entry_path}.time")
            if not 0 <= time <= horizon:
                _fail(f"{entry_path}.time", f"{time} outside [0, {horizon}]")
            if (location, time) in slots:
                _fail(entry_path, f"duplicate request slot ({location!r}, {time})")
            slots.add((location, time))
            requests.append(TaskRequest(task_id, location, time))
        scenarios[name] = Scenario(frozenset(requests))

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
        if rule is Rule.AT_LEAST_ONE and not scenarios[name].requests:
            _fail(path, f"at_least_one over empty scenario {name!r}")
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
        if branches < 1 or points < 1:
            _fail("limits", "limits must be >= 1")
        limits = SearchLimits(branches, points)

    return ConfigDocument(cfg, tasks, scenarios, requirements, limits)


def serialize_config(doc: ConfigDocument) -> str:
    """Canonical JSON for a config document; loading it back gives ``doc``."""
    payload: dict[str, Any] = {
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


def _event_to_json(event: ReceivedEvent) -> dict[str, Any]:
    if event.kind == KIND_REQUEST:
        return {"kind": "request", "time": event.time, "task": event.label}
    return {"kind": "signal", "time": event.time, "origin": event.label}


def _event_from_json(raw: Any, cfg: SpacetimeConfig, agent: str, upto: int,
                     tasks: Mapping[str, TaskSpec] | None, path: str) -> ReceivedEvent:
    raw = _require_object(raw, path)
    kind = _require_str(_pop(raw, "kind", path), f"{path}.kind")
    time = _require_int(_pop(raw, "time", path), f"{path}.time")
    if not 0 <= time <= upto:
        _fail(f"{path}.time", f"{time} outside [0, {upto}]")
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
            _event_from_json(ev, cfg, agent, upto, tasks, f"{path}.history.events[{j}]")
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
        key = (agent, LocalHistory(agent, upto, events))
        if key in table and table[key] != Action(frozenset(sends)):
            _fail(path, "conflicting duplicate of an earlier row")
        table[key] = Action(frozenset(sends))
    return Strategy(table)


def strategy_rows(strategy: Strategy) -> list[dict[str, Any]]:
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
