"""The field-by-field reader, for a document with a shape fault.

``load_config`` and ``load_strategy`` read a well-shaped document in one
pass per list and import this module only when they meet a shape fault: a
wrong JSON type, or a missing or unexpected key. It reads the document
again in reading order, checking each value's type and each invariant as it
reaches it, so the fault it raises is the first in that order, whether of
shape or not. ``tests/test_cli.py`` holds the two readers to one behaviour.
"""

from __future__ import annotations

from collections.abc import Mapping

from .config import (
    _ACTION,
    _DELIVER,
    _DOCUMENT,
    _EVENTS,
    _HISTORY,
    _KINDS,
    _LIMITS,
    _REQUEST,
    _REQUIREMENT,
    _ROW,
    _RULES,
    _SILENCE,
    _STRATEGY,
    _TASK,
    ConfigDocument,
    NamedRequirement,
    _check_names,
    _checked,
    _shape,
)
from .errors import ValidationError
from .protocol import KIND_REQUEST, RawAssignment, Scenario, check_request, check_slots
from .search import SearchLimits
from .spacetime import SpacetimeConfig
from .tasks import Task, check_requirement, check_task

_EVENT = _shape({"kind": str, "time": int})
_TYPES = {dict: "an object", list: "a list", int: "an integer", str: "a string"}


def _text(path: tuple) -> str:
    """A JSON path, the keys and list indices down to a value, as text."""
    return "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)[1:]


def _fail(path: tuple, message: str):
    raise ValidationError(f"{_text(path) or 'document'}: {message}")


def _typed(value, kind: type, path: tuple):
    """``value``, if its JSON type is ``kind`` (a bool is no integer)."""
    if type(value) is not kind:
        _fail(path, f"expected {_TYPES[kind]}, got "
                    f"{type(value).__name__ if kind is dict or kind is list else repr(value)}")
    return value


def _fields(value, shape: tuple, path: tuple):
    """An iterator over the values of a JSON object's ``shape`` keys. An
    object with just those keys, in that order and of those types, is read
    at once; any other by ``_read``."""
    table, _, types, _ = shape
    if type(value) is dict and tuple(value) == tuple(table) and [*map(type, value.values())] == types:
        return iter(value.values())
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
            yield value[key] if type(value[key]) is kind else _typed(value[key], kind, (*path, key))
        elif key in defaults:
            yield defaults[key]
        else:
            _fail(path, f"missing key {key!r}")


def _location(value, cfg: SpacetimeConfig, path: tuple) -> str:
    if type(value) is not str or value not in cfg.locations:
        _fail(path, f"unknown location {_typed(value, str, path)!r}")
    return value


def _task(body, task_id: str) -> Task:
    """The tuple of a task object, read in reading order, its delivery's
    fields and endpoints and then each ban's, so the first fault is the one
    raised. ``check_task`` checks the rest."""
    path = ("tasks", task_id)
    fields = _fields(body, _TASK, path)
    delivery = tuple(_fields(next(fields), _DELIVER, (*path, "deliver")))
    if delivery[0] == delivery[1]:
        _fail((*path, "deliver"), "endpoints must differ")
    bans = []
    for i, ban in enumerate(next(fields)):
        bans.append(tuple(_fields(ban, _SILENCE, (*path, "silence", i))))
        if bans[-1][0] == bans[-1][1]:
            _fail((*path, "silence", i), "endpoints must differ")
    return delivery, tuple(bans)


def read_config(value: object) -> ConfigDocument:
    """The config document of the parsed JSON ``value``, read field by field."""
    document = _fields(value, _DOCUMENT, ())
    locations = next(document)
    for name, coord in locations.items():
        _typed(coord, int, ("locations", name))
    _check_names(locations, "locations")
    cfg = SpacetimeConfig(locations, next(document))

    tasks: dict[str, Task] = {}
    bodies = next(document)
    _check_names(bodies, "tasks")
    for task_id, body in bodies.items():
        tasks[task_id] = task = _task(body, task_id)
        _checked(f"tasks.{task_id}.", check_task, task, cfg)

    scenarios: dict[str, Scenario] = {}
    for name, entries in next(document).items():
        requests = []
        for i, entry in enumerate(_typed(entries, list, ("scenarios", name))):
            fields = _fields(entry, _REQUEST, ("scenarios", name, i))
            task_id = next(fields)
            if task_id not in tasks:
                _fail(("scenarios", name, i, "task"), f"undefined task {task_id!r}")
            request = (task_id, *fields)
            _checked(f"scenarios.{name}[{i}].", check_request, request, cfg)
            requests.append(request)
        _checked(f"scenarios.{name}: ", check_slots, requests)
        scenarios[name] = frozenset(requests)

    requirements: list[NamedRequirement] = []
    for i, entry in enumerate(next(document)):
        fields = _fields(entry, _REQUIREMENT, ("requirements", i))
        name = next(fields)
        if name not in scenarios:
            _fail(("requirements", i, "scenario"), f"undefined scenario {name!r}")
        rule = _RULES.get(rule_raw := next(fields))
        if rule is None:
            _fail(("requirements", i, "rule"), f"expected 'all' or 'at_least_one', got {rule_raw!r}")
        _checked(f"requirements[{i}]: ", check_requirement, scenarios[name], rule)
        requirements.append((name, rule))

    limits, body = None, next(document)
    if "limits" in value:
        _, _ = _fields(body, _LIMITS, ("limits",))  # the keys are SearchLimits' own
        limits = _checked("limits: ", lambda: SearchLimits(**body))

    return ConfigDocument(cfg, tasks, scenarios, requirements, limits)


def _event_from_json(raw: object, cfg: SpacetimeConfig, agent: str,
                     tasks: Mapping[str, Task], path: tuple) -> tuple[int, str, str]:
    # Unless it has just its kind's keys, in order, its kind and time come before its keys.
    kind = raw.get("kind") if type(raw) is dict else None
    if kind not in _KINDS or tuple(raw) != tuple(_EVENTS[kind][0]):
        head = _read(raw, _EVENT, path, closed=False)
        kind = next(head)
        if kind not in _KINDS:
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
    return (time, kind, label)


def read_strategy(value: object, cfg: SpacetimeConfig, tasks: Mapping[str, Task]) -> RawAssignment:
    """The strategy of the parsed JSON ``value``, read field by field."""
    (rows,) = _fields(value, _STRATEGY, ())
    table: RawAssignment = {}
    for i, row in enumerate(rows):
        fields = _fields(row, _ROW, ("rows", i))
        agent = _location(next(fields), cfg, ("rows", i, "agent"))
        history = _fields(next(fields), _HISTORY, ("rows", i, "history"))
        upto = next(history)
        if not 0 <= upto <= cfg.horizon:
            _fail(("rows", i, "history", "upto"), f"{upto} outside [0, {cfg.horizon}]")
        events = tuple(_event_from_json(event, cfg, agent, tasks, ("rows", i, "history", "events", j))
                       for j, event in enumerate(next(history)))
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
