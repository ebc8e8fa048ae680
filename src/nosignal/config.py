"""JSON document loading and validation, and the JSON rows of a strategy.

Two document kinds exist: the config document (geometry, tasks, named
scenarios, requirements, optional search limits) and the strategy document
(explicit rows of agent, history, action; unlisted histories send
nothing). Validation errors carry the JSON path of the offending value,
parse errors the line and column.

A well-shaped document, whatever the order of its keys and whichever
optional keys it leaves out, is read here in one pass per list. Only a
shape fault (a wrong JSON type, or a missing or unexpected key) loads
``faults``, the field-by-field reader that finds the first fault in reading
order. Both raise every fault in that order, so they give one behaviour.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping

from .errors import ParseError, SimulationError, ValidationError
from .protocol import KIND_REQUEST, KIND_SIGNAL, RawAssignment, Scenario, check_request, check_slots
from .record import Record
from .search import SearchLimits
from .spacetime import SpacetimeConfig
from .tasks import Requirement, Rule, Task, check_requirement, check_task

NamedRequirement = tuple[str, Rule]  # (scenario name, rule)


class ConfigDocument(Record):
    """A loaded config document. Its dict fields make it unhashable; a new
    document gets a new empty requirement list unless one is given."""

    __slots__ = ("spacetime", "tasks", "scenarios", "requirements", "limits")

    def __init__(self, spacetime: SpacetimeConfig, tasks: dict[str, Task],
                 scenarios: dict[str, Scenario], requirements: list[NamedRequirement] | None = None,
                 limits: SearchLimits | None = None):
        self._fill(spacetime, tasks, scenarios, [] if requirements is None else requirements, limits)

    def resolve_requirements(self) -> list[Requirement]:
        return [(self.scenarios[name], rule) for name, rule in self.requirements]


class _Misshapen(Exception):
    """A shape fault, which the field-by-field reader in ``faults`` reports."""


def _shape(table: dict, **defaults) -> tuple:
    """``table``, which maps each key of a JSON object in reading order to
    its JSON type; the defaults of the keys that may be left out; the list
    of the types in order; a template, the table's keys in order mapped to
    their defaults or to None."""
    return table, defaults, [*table.values()], {**dict.fromkeys(table), **defaults}


# The {} of "limits" only marks it optional: a document that leaves it out has no limits.
_DOCUMENT = _shape({"locations": dict, "horizon": int, "tasks": dict, "scenarios": dict, "requirements": list,
                    "limits": dict}, tasks={}, scenarios={}, requirements=[], limits={})
_TASK = _shape({"deliver": dict, "silence": list}, silence=[])
_DELIVER = _shape({"from": str, "to": str, "at": int})
_SILENCE = _shape({"from": str, "to": str})
_REQUEST = _shape({"task": str, "location": str, "time": int})
_REQUIREMENT = _shape({"scenario": str, "rule": str})
# Either limit may be left out, for SearchLimits' own default; these stand-ins are never read.
_LIMITS = _shape({"max_branches": int, "max_decision_points": int}, max_branches=0, max_decision_points=0)
_STRATEGY = _shape({"rows": list})
_ROW = _shape({"agent": str, "history": dict, "action": dict})
_HISTORY = _shape({"upto": int, "events": list}, events=[])
_ACTION = _shape({"send": list}, send=[])
_KINDS = (KIND_REQUEST, KIND_SIGNAL)  # compared by ==, so a kind of any JSON type can be looked up
_EVENTS = {KIND_REQUEST: _shape({"kind": str, "time": int, "task": str}),
           KIND_SIGNAL: _shape({"kind": str, "time": int, "origin": str})}
_RULES = {rule.value: rule for rule in Rule}


def _parse(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"line {err.lineno}, column {err.colno}: {err.msg}") from None
    except RecursionError:
        raise ParseError("document nested too deeply") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ParseError("integer literal has too many digits") from None


def _rows(objects, shape: tuple) -> list[tuple]:
    """The values of each JSON object in ``objects`` in ``shape``'s key
    order, whatever its own, an optional key left out giving its default,
    which is of the key's type; ``_Misshapen`` on a wrong JSON type, or a
    missing or unexpected key."""
    if not objects:
        return []
    _, _, types, template = shape
    # Filled into the template, a key left out without a default stays None, of no JSON type
    # here, and an unexpected key adds a value, so either makes the row's types wrong.
    rows = [tuple({**template, **row}.values()) for row in objects if type(row) is dict]
    if len(rows) < len(objects) or [type(value) for row in rows for value in row] != types * len(rows):
        raise _Misshapen
    return rows


def _check_names(names, path: str) -> None:
    """Refuse a lab name or task id holding a lone surrogate (JSON's
    ``\\ud800`` escape, say), which is no Unicode text and cannot be printed."""
    for name in names:
        try:
            name.encode()
        except UnicodeEncodeError:
            raise ValidationError(f"{path}: name {name!r} is not Unicode text (a lone surrogate)") from None


def _checked(prefix: str, check: Callable, *args):
    """``check(*args)``, a constructor or checker; an input error it raises
    is raised again with ``prefix``, the JSON path of what it checks, in front."""
    try:
        return check(*args)
    except SimulationError as err:
        raise ValidationError(f"{prefix}{err}") from None


def load_config(text: str) -> ConfigDocument:
    """Parse and validate a config document.

    A well-shaped document is read in one pass per list, each invariant
    checked in reading order by the constructor or checker that owns it,
    whose message gets the JSON path of the offending value in front. A
    document with a shape fault is read by ``faults.read_config``, which
    raises the first fault in the same order.
    """
    value = _parse(text)
    try:
        return _config(value)
    except _Misshapen:
        pass
    from .faults import read_config  # loaded only for a document with a shape fault
    return read_config(value)


def _config(value) -> ConfigDocument:
    [(locations, horizon, bodies, lists, named, body)] = _rows([value], _DOCUMENT)
    if not all(type(coord) is int for coord in locations.values()):
        raise _Misshapen
    _check_names(locations, "locations")
    cfg = SpacetimeConfig(locations, horizon)

    _check_names(bodies, "tasks")
    rows = _rows(bodies.values(), _TASK)
    bans = iter(_rows([ban for _, silence in rows for ban in silence], _SILENCE))
    tasks = {}
    for task_id, delivery, (_, silence) in zip(bodies, _rows([deliver for deliver, _ in rows], _DELIVER), rows):
        tasks[task_id] = task = delivery, tuple([next(bans) for _ in silence])
        try:
            check_task(task, cfg)
        except SimulationError as err:
            raise ValidationError(f"tasks.{task_id}.{err}") from None

    if not all(type(requests) is list for requests in lists.values()):
        raise _Misshapen
    entries = iter(_rows([entry for requests in lists.values() for entry in requests], _REQUEST))
    scenarios = {}
    for name, requests in lists.items():
        requests = [next(entries) for _ in requests]
        try:
            for i, request in enumerate(requests):
                if request[0] not in tasks:
                    raise ValidationError(f"task: undefined task {request[0]!r}")
                check_request(request, cfg)
        except SimulationError as err:
            raise ValidationError(f"scenarios.{name}[{i}].{err}") from None
        _checked(f"scenarios.{name}: ", check_slots, requests)
        scenarios[name] = frozenset(requests)

    requirements = []
    for i, (name, rule) in enumerate(_rows(named, _REQUIREMENT)):
        if name not in scenarios:
            raise ValidationError(f"requirements[{i}].scenario: undefined scenario {name!r}")
        if rule not in _RULES:
            raise ValidationError(f"requirements[{i}].rule: expected 'all' or 'at_least_one', got {rule!r}")
        _checked(f"requirements[{i}]: ", check_requirement, scenarios[name], _RULES[rule])
        requirements.append((name, _RULES[rule]))

    limits = None
    if "limits" in value:
        _rows([body], _LIMITS)  # the keys are SearchLimits' own
        limits = _checked("limits: ", lambda: SearchLimits(**body))

    return ConfigDocument(cfg, tasks, scenarios, requirements, limits)


def _event_to_json(event: tuple[int, str, str]) -> dict[str, object]:
    time, kind, label = event
    if kind == KIND_REQUEST:
        return {"kind": "request", "time": time, "task": label}
    return {"kind": "signal", "time": time, "origin": label}


def load_strategy(text: str, cfg: SpacetimeConfig, tasks: Mapping[str, Task]) -> RawAssignment:
    """Parse and validate a strategy document against a configuration: a
    well-shaped one in one pass, one with a shape fault by
    ``faults.read_strategy``, as ``load_config`` reads a config document."""
    value = _parse(text)
    try:
        return _strategy(value, cfg, tasks)
    except _Misshapen:
        pass
    from .faults import read_strategy  # loaded only for a document with a shape fault
    return read_strategy(value, cfg, tasks)


def _event(raw) -> tuple[int, str, str]:
    kind = raw.get("kind") if type(raw) is dict else None
    if kind not in _KINDS:
        raise _Misshapen  # an event's kind decides its keys
    [(_, time, label)] = _rows([raw], _EVENTS[kind])
    return time, kind, label


def _strategy(value, cfg: SpacetimeConfig, tasks: Mapping[str, Task]) -> RawAssignment:
    [(rows,)] = _rows([value], _STRATEGY)
    rows = _rows(rows, _ROW)
    histories = _rows([history for _, history, _ in rows], _HISTORY)
    actions = _rows([action for _, _, action in rows], _ACTION)
    event_lists = [[_event(event) for event in events] for _, events in histories]
    if not all(type(dest) is str for send, in actions for dest in send):
        raise _Misshapen
    labs, table = cfg.locations, {}
    for i, ((agent, _, _), (upto, _), events, (send,)) in enumerate(zip(rows, histories, event_lists, actions)):
        # The row's faults in reading order: agent, upto, each event, each send, event times.
        if agent not in labs:
            raise ValidationError(f"rows[{i}].agent: unknown location {agent!r}")
        if not 0 <= upto <= cfg.horizon:
            raise ValidationError(f"rows[{i}].history.upto: {upto} outside [0, {cfg.horizon}]")
        for j, (_, kind, label) in enumerate(events):
            if kind == KIND_REQUEST:
                if label not in tasks:
                    raise ValidationError(f"rows[{i}].history.events[{j}].task: undefined task {label!r}")
            elif label not in labs:
                raise ValidationError(f"rows[{i}].history.events[{j}].origin: unknown location {label!r}")
            elif label == agent:
                raise ValidationError(f"rows[{i}].history.events[{j}].origin: "
                                      "signal origin cannot be the receiving agent")
        for j, dest in enumerate(send):
            if dest not in labs:
                raise ValidationError(f"rows[{i}].action.send[{j}]: unknown location {dest!r}")
            if dest == agent:
                raise ValidationError(f"rows[{i}].action.send[{j}]: agent cannot send to itself")
        for j, (time, _, _) in enumerate(events):
            if not 0 <= time <= upto:
                raise ValidationError(f"rows[{i}].history.events[{j}].time: {time} outside [0, {upto}]")
        key = (agent, upto, tuple(sorted(events)))
        sends = tuple(sorted(set(send)))
        if table.setdefault(key, sends) != sends:
            raise ValidationError(f"rows[{i}]: conflicting duplicate of an earlier row")
    return table


def strategy_rows(strategy: RawAssignment) -> list[dict[str, object]]:
    """A strategy's table as JSON-ready rows in canonical order."""
    return [
        {
            "agent": agent,
            "history": {"upto": upto, "events": [_event_to_json(e) for e in events]},
            "action": {"send": sorted(sends)},
        }
        for (agent, upto, events), sends in sorted(strategy.items())
    ]

