"""JSON document loading and validation, and the JSON rows of a strategy.

Two document kinds exist: the config document (geometry, tasks, named
scenarios, requirements, optional search limits) and the strategy document
(explicit rows of agent, history, action; unlisted histories send
nothing). Validation errors carry the JSON path of the offending value,
parse errors the line and column.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping

from .errors import ParseError, SimulationError, ValidationError
from .protocol import KIND_REQUEST, KIND_SIGNAL, RawAssignment, Scenario, check_request
from .record import Record
from .search import SearchLimits
from .spacetime import SpacetimeConfig
from .tasks import Requirement, Rule, Task, check_requirement, check_task


class NamedRequirement(Record):
    """A requirement referencing one of the document's scenarios by name."""

    __slots__ = ("scenario", "rule")

    def __init__(self, scenario: str, rule: Rule):
        self._fill(scenario, rule)


class ConfigDocument(Record):
    """A loaded config document. Its dict fields make it unhashable; a new
    document gets a new empty requirement list unless one is given."""

    __slots__ = ("spacetime", "tasks", "scenarios", "requirements", "limits")

    def __init__(self, spacetime: SpacetimeConfig, tasks: dict[str, Task],
                 scenarios: dict[str, Scenario], requirements: list[NamedRequirement] | None = None,
                 limits: SearchLimits | None = None):
        self._fill(spacetime, tasks, scenarios, [] if requirements is None else requirements, limits)

    def resolve_requirements(self) -> list[Requirement]:
        return [
            Requirement(self.scenarios[named.scenario], named.rule)
            for named in self.requirements
        ]


def _shape(table: dict) -> tuple:
    """``table``, which maps each key of a JSON object in reading order to its
    JSON type, or to ``(type, default)`` if it may be left out; its keys; their types."""
    return table, tuple(table), tuple(kind if type(kind) is type else kind[0] for kind in table.values())


_DOCUMENT = _shape({"locations": dict, "horizon": int, "tasks": (dict, {}), "scenarios": (dict, {}),
                    "requirements": (list, ()), "limits": (dict, None)})
_TASK = _shape({"deliver": dict, "silence": (list, ())})
_DELIVER = _shape({"from": str, "to": str, "at": int})
_SILENCE = _shape({"from": str, "to": str})
_REQUEST = _shape({"task": str, "location": str, "time": int})
_REQUIREMENT = _shape({"scenario": str, "rule": str})
_LIMITS = _shape({"max_branches": (int, None), "max_decision_points": (int, None)})
_STRATEGY = _shape({"rows": list})
_ROW = _shape({"agent": str, "history": dict, "action": dict})
_HISTORY = _shape({"upto": int, "events": (list, ())})
_ACTION = _shape({"send": (list, ())})
_EVENT = {"kind": str, "time": int}
_KINDS = (KIND_REQUEST, KIND_SIGNAL)  # compared by ==, so a kind of any JSON type can be looked up
_EVENTS = {KIND_REQUEST: _shape({**_EVENT, "task": str}), KIND_SIGNAL: _shape({**_EVENT, "origin": str})}
_TYPES = {dict: "an object", list: "a list", int: "an integer", str: "a string"}
_RULES = {rule.value: rule for rule in Rule}


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
    table, keys, types = shape
    if type(value) is dict and tuple(value) == keys and tuple(map(type, value.values())) == types:
        return iter(value.values())
    return _read(value, table, path)


def _read(value, table: dict, path: tuple, closed: bool = True):
    """Yield ``table``'s values in order, checking the object's type and,
    when ``closed``, its keys as the first is taken, and each key's presence
    and type as its value is, so the caller checks a value before the next."""
    _typed(value, dict, path)
    if closed and not value.keys() <= table.keys():
        _fail(path, f"unexpected key {next(key for key in value if key not in table)!r}")
    for key, kind in table.items():
        if key in value:
            kind = kind if type(kind) is type else kind[0]
            yield value[key] if type(value[key]) is kind else _typed(value[key], kind, (*path, key))
        elif type(kind) is tuple:
            yield kind[1]
        else:
            _fail(path, f"missing key {key!r}")


def _parse(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"line {err.lineno}, column {err.colno}: {err.msg}") from None
    except RecursionError:
        raise ParseError("document nested too deeply") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ParseError("integer literal has too many digits") from None


def _location(value, cfg: SpacetimeConfig, path: tuple) -> str:
    if type(value) is not str or value not in cfg.locations:
        _fail(path, f"unknown location {_typed(value, str, path)!r}")
    return value


def _checked(path: tuple, sep: str, check: Callable, *args):
    """``check(*args)``, a constructor or checker; an input error it raises
    is raised again with ``path`` and ``sep`` in front."""
    try:
        return check(*args)
    except SimulationError as err:
        raise ValidationError(f"{_text(path)}{sep}{err}") from None


def _task(body, task_id: str) -> Task:
    """The tuple of a task object, read at once when its objects all have
    just their keys, in order, of their JSON types, and otherwise in reading
    order, its delivery's fields and endpoints and then each ban's, so the
    first fault is the one raised. ``check_task`` checks the rest."""
    if type(body) is dict and tuple(body) == _TASK[1]:
        deliver, silence = body.values()
        if type(deliver) is dict and tuple(deliver) == _DELIVER[1] and type(silence) is list:
            origin, dest, at = delivery = tuple(deliver.values())
            bans = [pair for ban in silence if type(ban) is dict and tuple(ban) == _SILENCE[1]
                    and type((pair := tuple(ban.values()))[0]) is str and type(pair[1]) is str]
            if type(origin) is str and type(dest) is str and type(at) is int and len(bans) == len(silence):
                return delivery, tuple(bans)
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


def load_config(text: str) -> ConfigDocument:
    """Parse and validate a config document.

    JSON types, keys and names (tasks, scenarios, rules) are checked here;
    every other invariant by the constructor or checker that owns it, whose
    message gets the JSON path of the offending value in front.
    """
    document = _fields(_parse(text), _DOCUMENT, ())
    locations = next(document)
    for name, coord in locations.items():
        _typed(coord, int, ("locations", name))
    cfg = SpacetimeConfig(locations, next(document))

    tasks: dict[str, Task] = {}
    for task_id, body in next(document).items():
        tasks[task_id] = task = _task(body, task_id)
        _checked(("tasks", task_id), ".", check_task, task, cfg)

    scenarios: dict[str, Scenario] = {}
    for name, entries in next(document).items():
        requests = []
        for i, entry in enumerate(_typed(entries, list, ("scenarios", name))):
            fields = _fields(entry, _REQUEST, ("scenarios", name, i))
            task_id = next(fields)
            if task_id not in tasks:
                _fail(("scenarios", name, i, "task"), f"undefined task {task_id!r}")
            request = (task_id, *fields)
            _checked(("scenarios", name, i), ".", check_request, request, cfg)
            requests.append(request)
        scenarios[name] = _checked(("scenarios", name), ": ", Scenario, requests)

    requirements: list[NamedRequirement] = []
    for i, entry in enumerate(next(document)):
        fields = _fields(entry, _REQUIREMENT, ("requirements", i))
        name = next(fields)
        if name not in scenarios:
            _fail(("requirements", i, "scenario"), f"undefined scenario {name!r}")
        rule = _RULES.get(rule_raw := next(fields))
        if rule is None:
            _fail(("requirements", i, "rule"), f"expected 'all' or 'at_least_one', got {rule_raw!r}")
        _checked(("requirements", i), ": ", check_requirement, scenarios[name], rule)
        requirements.append(NamedRequirement(name, rule))

    limits, body = None, next(document)
    if body is not None:
        _, _ = _fields(body, _LIMITS, ("limits",))  # the keys are SearchLimits' own
        limits = _checked(("limits",), ": ", lambda: SearchLimits(**body))

    return ConfigDocument(cfg, tasks, scenarios, requirements, limits)


def _event_to_json(event: tuple[int, str, str]) -> dict[str, object]:
    time, kind, label = event
    if kind == KIND_REQUEST:
        return {"kind": "request", "time": time, "task": label}
    return {"kind": "signal", "time": time, "origin": label}


def _event_from_json(raw: object, cfg: SpacetimeConfig, agent: str,
                     tasks: Mapping[str, Task], path: tuple) -> tuple[int, str, str]:
    # Unless it has just its kind's keys, in order, its kind and time come before its keys.
    kind = raw.get("kind") if type(raw) is dict else None
    if kind not in _KINDS or tuple(raw) != _EVENTS[kind][1]:
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


def load_strategy(text: str, cfg: SpacetimeConfig, tasks: Mapping[str, Task]) -> RawAssignment:
    """Parse and validate a strategy document against a configuration."""
    (rows,) = _fields(_parse(text), _STRATEGY, ())
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

