"""JSON document loading and validation, and the JSON rows of a strategy.

Two document kinds exist: the config document (geometry, tasks, named
scenarios, requirements, optional search limits) and the strategy document
(explicit rows of agent, history, action; unlisted histories send
nothing). Validation errors carry the JSON path of the offending value,
parse errors the line and column.

Each document is read once, in reading order: an object's keys in the
order its ``_shape`` lists them, whatever its own, and a list's entries in
order. A value's JSON type is checked as the value is taken, and each
invariant as soon as the values it needs are, so the fault raised is the
first in that order, whoever owns it. A constructor or checker owns each
invariant of a value and its message, which gets only its JSON path in
front here. The loader's own faults are the rest: a wrong JSON type, a
missing or unexpected key, a name that is no Unicode text, an undefined
task or scenario, an unknown rule, and every fault of a strategy row. An
object with exactly its keys, each of its JSON type, is taken whole
rather than key by key, which gives the same values and the same first
fault.
"""

from __future__ import annotations

import json
from collections.abc import Mapping

from .errors import SimulationError, ValidationError
from .protocol import KIND_REQUEST, KIND_SIGNAL, RawAssignment, Scenario, check_request, check_slots
from .record import Record
from .search import SearchLimits
from .spacetime import SpacetimeConfig
from .tasks import RULES, Requirement, Task, check_requirement, check_task

NamedRequirement = tuple[str, str]  # (scenario name, rule)


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
_EVENT = _shape({"kind": str, "time": int})  # an event's kind decides its other key
_KINDS = (KIND_REQUEST, KIND_SIGNAL)  # compared by ==, so a kind of any JSON type can be looked up
_EVENTS = {KIND_REQUEST: _shape({"kind": str, "time": int, "task": str}),
           KIND_SIGNAL: _shape({"kind": str, "time": int, "origin": str})}
_TYPES = {dict: "an object", list: "a list", int: "an integer", str: "a string"}


def _parse(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise SimulationError(f"line {err.lineno}, column {err.colno}: {err.msg}") from None
    except RecursionError:
        raise SimulationError("document nested too deeply") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise SimulationError("integer literal has too many digits") from None


def _fail(path: tuple, message: str):
    """Raise ``message`` after ``path``, the keys and list indices down to a value."""
    text = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)[1:]
    raise ValidationError(f"{text or 'document'}: {message}")


def _typed(value, kind: type, path: tuple):
    """``value``, if its JSON type is ``kind`` (a bool is no integer)."""
    if type(value) is not kind:
        _fail(path, f"expected {_TYPES[kind]}, got "
                    f"{type(value).__name__ if kind is dict or kind is list else repr(value)}")
    return value


def _fields(value, shape: tuple, path: tuple):
    """An iterator over ``shape``'s values of the JSON object ``value``, in
    ``shape``'s order, an optional key left out giving its default. An
    object with exactly its keys, each of its JSON type, is filled in at
    once; any other is read by ``_read``."""
    _, _, types, template = shape
    if type(value) is dict:
        row = tuple((template | value).values())
        if [*map(type, row)] == types:
            return iter(row)
    return _read(value, shape, path)


def _read(value, shape: tuple, path: tuple, closed: bool = True):
    """Yield ``shape``'s values in order, checking the object's type and,
    when ``closed``, its keys as the first is taken, and each key's presence
    and type as its value is, so the caller checks a value before the next."""
    table, defaults, _, _ = shape
    _typed(value, dict, path)
    if closed and not value.keys() <= table.keys():
        _fail(path, f"unexpected key {next(key for key in value if key not in table)!r}")
    for key, kind in table.items():
        if key in value:
            yield _typed(value[key], kind, (*path, key))
        elif key in defaults:
            yield defaults[key]
        else:
            _fail(path, f"missing key {key!r}")


def _check_names(names, path: str) -> None:
    """Refuse a lab name or task id holding a lone surrogate (JSON's
    ``\\ud800`` escape, say), which is no Unicode text and cannot be printed."""
    for name in names:
        try:
            name.encode()
        except UnicodeEncodeError:
            raise ValidationError(f"{path}: name {name!r} is not Unicode text (a lone surrogate)") from None


def _location(value, cfg: SpacetimeConfig, path: tuple) -> str:
    if type(value) is not str or value not in cfg.locations:
        _fail(path, f"unknown location {_typed(value, str, path)!r}")
    return value


def load_config(text: str) -> ConfigDocument:
    """Parse and validate a config document, in reading order (see the
    module docstring)."""
    value = _parse(text)
    document = _fields(value, _DOCUMENT, ())
    locations = next(document)
    for name, coord in locations.items():
        _typed(coord, int, ("locations", name))
    _check_names(locations, "locations")
    cfg = SpacetimeConfig(locations, next(document))

    tasks = {}
    bodies = next(document)
    _check_names(bodies, "tasks")
    for task_id, body in bodies.items():
        tasks[task_id] = task = _task(body, task_id)
        try:
            check_task(task, cfg)
        except SimulationError as err:
            raise ValidationError(f"tasks.{task_id}.{err}") from None

    scenarios = {}
    for name, entries in next(document).items():
        requests = []
        for i, entry in enumerate(_typed(entries, list, ("scenarios", name))):
            fields = _fields(entry, _REQUEST, ("scenarios", name, i))
            task_id = next(fields)
            if task_id not in tasks:
                _fail(("scenarios", name, i, "task"), f"undefined task {task_id!r}")
            request = (task_id, *fields)
            try:
                check_request(request, cfg)
            except SimulationError as err:
                raise ValidationError(f"scenarios.{name}[{i}].{err}") from None
            requests.append(request)
        try:
            check_slots(requests)
        except SimulationError as err:
            raise ValidationError(f"scenarios.{name}: {err}") from None
        scenarios[name] = frozenset(requests)

    requirements = []
    for i, entry in enumerate(next(document)):
        fields = _fields(entry, _REQUIREMENT, ("requirements", i))
        name = next(fields)
        if name not in scenarios:
            _fail(("requirements", i, "scenario"), f"undefined scenario {name!r}")
        rule = next(fields)
        if rule not in RULES:
            _fail(("requirements", i, "rule"), f"expected 'all' or 'at_least_one', got {rule!r}")
        try:
            check_requirement(scenarios[name], rule)
        except SimulationError as err:
            raise ValidationError(f"requirements[{i}]: {err}") from None
        requirements.append((name, rule))

    limits, body = None, next(document)
    if "limits" in value:
        _, _ = _fields(body, _LIMITS, ("limits",))  # the keys are SearchLimits' own
        try:
            limits = SearchLimits(**body)
        except SimulationError as err:
            raise ValidationError(f"limits: {err}") from None

    return ConfigDocument(cfg, tasks, scenarios, requirements, limits)


def _task(body, task_id: str) -> Task:
    """The tuple of a task object: its delivery's fields and endpoints and
    then each ban's, so the first fault is the one raised. ``check_task``
    checks the rest."""
    fields = _fields(body, _TASK, ("tasks", task_id))
    delivery = tuple(_fields(next(fields), _DELIVER, ("tasks", task_id, "deliver")))
    if delivery[0] == delivery[1]:
        _fail(("tasks", task_id, "deliver"), "endpoints must differ")
    bans = []
    for i, ban in enumerate(next(fields)):
        bans.append(tuple(_fields(ban, _SILENCE, ("tasks", task_id, "silence", i))))
        if bans[-1][0] == bans[-1][1]:
            _fail(("tasks", task_id, "silence", i), "endpoints must differ")
    return delivery, tuple(bans)


def load_strategy(text: str, cfg: SpacetimeConfig, tasks: Mapping[str, Task]) -> RawAssignment:
    """Parse and validate a strategy document against a configuration, in
    reading order as ``load_config`` reads a config document: a row's
    agent, history and events, then its action, then each event's time
    against the history's ``upto``."""
    (rows,) = _fields(_parse(text), _STRATEGY, ())
    table = {}
    for i, row in enumerate(rows):
        fields = _fields(row, _ROW, ("rows", i))
        agent = _location(next(fields), cfg, ("rows", i, "agent"))
        history = _fields(next(fields), _HISTORY, ("rows", i, "history"))
        upto = next(history)
        if not 0 <= upto <= cfg.horizon:
            _fail(("rows", i, "history", "upto"), f"{upto} outside [0, {cfg.horizon}]")
        events = [_event(event, cfg, agent, tasks, ("rows", i, "history", "events", j))
                  for j, event in enumerate(next(history))]
        (send,) = _fields(next(fields), _ACTION, ("rows", i, "action"))
        dests = set()
        for j, dest in enumerate(send):
            _location(dest, cfg, ("rows", i, "action", "send", j))
            if dest == agent:
                _fail(("rows", i, "action", "send", j), "agent cannot send to itself")
            dests.add(dest)
        for j, (time, _, _) in enumerate(events):
            if not 0 <= time <= upto:
                _fail(("rows", i, "history", "events", j, "time"), f"{time} outside [0, {upto}]")
        key = (agent, upto, tuple(sorted(events)))
        sends = tuple(sorted(dests))
        if table.setdefault(key, sends) != sends:
            _fail(("rows", i), "conflicting duplicate of an earlier row")
    return table


def _event(raw, cfg: SpacetimeConfig, agent: str, tasks: Mapping[str, Task], path: tuple) -> tuple[int, str, str]:
    kind = raw.get("kind") if type(raw) is dict else None
    if kind not in _KINDS or type(raw.get("time")) is not int:
        # Its kind and time come before its keys, and one of them is at fault.
        head = _read(raw, _EVENT, path, closed=False)
        if (kind := next(head)) not in _KINDS:
            _fail((*path, "kind"), f"expected 'request' or 'signal', got {kind!r}")
        next(head)
    _, time, label = _fields(raw, _EVENTS[kind], path)
    if kind == KIND_REQUEST:
        if label not in tasks:
            _fail((*path, "task"), f"undefined task {label!r}")
    else:
        _location(label, cfg, (*path, "origin"))
        if label == agent:
            _fail((*path, "origin"), "signal origin cannot be the receiving agent")
    return time, kind, label


def _event_to_json(event: tuple[int, str, str]) -> dict[str, object]:
    time, kind, label = event
    return dict(zip(_EVENTS[kind][0], (kind, time, label)))


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
