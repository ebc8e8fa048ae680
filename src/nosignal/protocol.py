"""Agents, local observation histories, strategies, and the executor.

The no-signaling constraint is structural rather than checked after the
fact: a strategy is a lookup table keyed by an agent's ``LocalHistory``,
and a local history contains only requests submitted at the agent's own
location and signals that have already arrived there. There is simply no
channel through which an action could depend on remote or future state.

Execution is a synchronous lockstep loop. Within one step, delivery
happens before decisions, so a request submitted at time t is visible to
the decision taken at time t. One kernel, ``Run``, carries that loop on
plain tuples: ``execute`` steps it through a fixed strategy and
``find_strategy`` steps and backtracks it while choosing one, so the two
cannot disagree on what an agent sees.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import InvalidScenario, SameLocation, UnachievableTask, ValidationError
from .record import Ordered, Record
from .spacetime import Event, SpacetimeConfig, check_event, distance

# ``TaskSpec`` (from ``.tasks``, which imports this module) appears in annotations only.

KIND_REQUEST = "request"
KIND_SIGNAL = "signal"  # sorts after "request", giving the canonical order for free


class ReceivedEvent(Ordered):
    """One observable item: a submitted request or an arriving signal.

    Field order makes tuple comparison the canonical history order:
    ascending time, requests before signal arrivals, then label lexically.
    The label is a task id for requests and the origin location for arrivals.
    """

    __slots__ = ("time", "kind", "label")

    def __init__(self, time: int, kind: str, label: str):
        self._fill(time, kind, label)

    @classmethod
    def request(cls, time: int, task: str) -> "ReceivedEvent":
        return cls(time, KIND_REQUEST, task)

    @classmethod
    def signal(cls, time: int, origin: str) -> "ReceivedEvent":
        return cls(time, KIND_SIGNAL, origin)


class LocalHistory(Record):
    """Everything one agent may condition on at time ``upto``.

    Events are kept in canonical order, so structural equality decides
    whether two histories are the same observation record.
    """

    __slots__ = ("agent", "upto", "events")

    def __init__(self, agent: str, upto: int, events: tuple[ReceivedEvent, ...] = ()):
        events = tuple(events)
        for i, ev in enumerate(events):
            if not 0 <= ev.time <= upto:
                raise ValidationError(f"events[{i}].time: {ev.time} outside [0, {upto}]")
        self._fill(agent, upto, tuple(sorted(events)))


class Action(Record):
    """Destinations to send a content-free light signal to; empty means idle."""

    __slots__ = ("sends",)

    def __init__(self, sends: frozenset[str] = frozenset()):
        self._fill(frozenset(sends))


NOOP = Action()


class Strategy(Record):
    """Deterministic map from (agent, local history) to an action.

    Unmapped histories fall back to the empty action, which makes every
    table a total strategy and "do nothing" the base case. Mutable, so
    unhashable; a new strategy gets a new empty table.
    """

    __slots__ = ("table",)
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, table: dict[tuple[str, LocalHistory], Action] | None = None):
        self._fill({} if table is None else table)

    def action_for(self, agent: str, history: LocalHistory) -> Action:
        return self.table.get((agent, history), NOOP)


class TaskRequest(Ordered):
    """A single request: which task, submitted where, submitted when."""

    __slots__ = ("task", "location", "time")

    def __init__(self, task: str, location: str, time: int):
        self._fill(task, location, time)


class Scenario(Record):
    """The requester's choice of which tasks to ask for, where and when;
    at most one request per (location, time) slot."""

    __slots__ = ("requests",)

    def __init__(self, requests: frozenset[TaskRequest] = frozenset()):
        requests = sorted(requests)
        slots = set()
        for r in requests:
            if (r.location, r.time) in slots:
                raise InvalidScenario(f"duplicate request slot ({r.location!r}, {r.time})")
            slots.add((r.location, r.time))
        self._fill(frozenset(requests))

    def task_ids(self) -> tuple[str, ...]:
        return tuple(sorted({r.task for r in self.requests}))


class Trace(Record):
    """Complete record of one execution.

    An arrival is listed only when it lands at or before the horizon; a
    departure too late to arrive still shows up in ``departures``.
    Triples are (task, location, time) for requests and
    (origin, dest, time) for departures and arrivals.
    """

    __slots__ = ("requests", "departures", "arrivals")

    def __init__(self, requests: frozenset[tuple[str, str, int]] = frozenset(),
                 departures: frozenset[tuple[str, str, int]] = frozenset(),
                 arrivals: frozenset[tuple[str, str, int]] = frozenset()):
        self._fill(requests, departures, arrivals)


def check_request(request: TaskRequest, cfg: SpacetimeConfig) -> None:
    """The request's slot is on the lattice: a known lab, a time in the horizon."""
    if request.location not in cfg.locations:
        raise InvalidScenario(f"location: unknown location {request.location!r}")
    if not 0 <= request.time <= cfg.horizon:
        raise InvalidScenario(f"time: {request.time} outside [0, {cfg.horizon}]")


def check_scenario(scenario: Scenario, cfg: SpacetimeConfig) -> None:
    """Every request passes ``check_request``; the first failure in request order is raised."""
    for request in sorted(scenario.requests):
        check_request(request, cfg)


def check_trace(trace: Trace, cfg: SpacetimeConfig) -> None:
    """Assert the departure/arrival matching invariants of a trace."""
    for origin, dest, at in trace.arrivals:
        if (origin, dest, at - distance(origin, dest, cfg)) not in trace.departures:
            raise ValidationError(f"arrival {(origin, dest, at)} has no matching departure")
    for origin, dest, t in trace.departures:
        arrives = t + distance(origin, dest, cfg)
        if arrives <= cfg.horizon and (origin, dest, arrives) not in trace.arrivals:
            raise ValidationError(f"departure {(origin, dest, t)} lost its arrival at t={arrives}")


def local_history(trace: Trace, agent: str, t: int, cfg: SpacetimeConfig) -> LocalHistory:
    """The canonical observation record for ``agent`` at time ``t``.

    Contains exactly the requests submitted at the agent's location and the
    signal arrivals delivered there, up to and including ``t``.
    """
    check_event(Event(agent, t), cfg)
    events = [
        ReceivedEvent.request(time, task)
        for task, loc, time in trace.requests
        if loc == agent and time <= t
    ]
    events += [
        ReceivedEvent.signal(at, origin)
        for origin, dest, at in trace.arrivals
        if dest == agent and at <= t
    ]
    return LocalHistory(agent, t, tuple(events))


# The kernel's raw form of a history key: (agent, time, events), where events
# are (time, kind, label) tuples in canonical order. Strategies in raw form
# map these keys to sorted destination tuples; ``find_strategy`` hands such
# assignments to its ``on_leaf`` callback.
RawKey = tuple[str, int, tuple[tuple[int, str, str], ...]]
RawAssignment = dict[RawKey, tuple[str, ...]]


def raw_to_history(key: RawKey) -> tuple[str, int, LocalHistory]:
    agent, t, events = key
    return agent, t, LocalHistory(agent, t, tuple(ReceivedEvent(*e) for e in events))


def strategy_from_raw(assignment: RawAssignment) -> Strategy:
    table = {}
    for key, sends in assignment.items():
        if not sends:
            continue  # the empty default already covers these rows
        agent, _, history = raw_to_history(key)
        table[(agent, history)] = Action(frozenset(sends))
    return Strategy(table)


def strategy_to_raw(strategy: Strategy) -> RawAssignment:
    """The table keyed the kernel's way; rows no agent can reach are dropped."""
    return {
        (agent, history.upto, tuple((e.time, e.kind, e.label) for e in history.events)):
            tuple(sorted(action.sends))
        for (agent, history), action in strategy.table.items()
        if history.agent == agent
    }


class Run:
    """Incremental execution of one scenario on plain tuples.

    ``apply(t, agent, sends)`` turns each send into a departure at ``t`` and,
    when it lands by the horizon, an arrival at ``t + distance``; every
    destination must be another lab. It returns an undo record, and
    ``unapply`` reverses such records last applied first. ``key(t, agent)``
    is the agent's raw history key at ``t`` once every send made before
    ``t`` has been applied. ``execute`` steps one run through a fixed
    strategy; ``find_strategy`` steps one per requirement and backtracks.
    """

    # Slots: the search reads these on every node.
    __slots__ = ("horizon", "dist", "received", "departures", "arrivals")

    def __init__(self, cfg: SpacetimeConfig, scenario: Scenario):
        agents = cfg.agents
        self.horizon = cfg.horizon
        self.dist = {(a, b): distance(a, b, cfg) for a in agents for b in agents if a != b}
        # Per agent every event it will see, in any time: its requests, then
        # signal arrivals in the order they were applied, so unapply pops.
        self.received: dict[str, list[tuple[int, str, str]]] = {a: [] for a in agents}
        for r in scenario.requests:
            self.received[r.location].append((r.time, KIND_REQUEST, r.task))
        self.departures: set[tuple[str, str, int]] = set()
        self.arrivals: set[tuple[str, str, int]] = set()

    def key(self, t: int, agent: str) -> RawKey:
        events = [e for e in self.received[agent] if e[0] <= t]
        events.sort()
        return (agent, t, tuple(events))

    def apply(self, t: int, agent: str, sends: tuple[str, ...]) -> list:
        undo = []
        for dest in sends:
            departure = (agent, dest, t)
            self.departures.add(departure)
            arrives = t + self.dist[(agent, dest)]
            if arrives <= self.horizon:
                arrival = (agent, dest, arrives)
                self.arrivals.add(arrival)
                self.received[dest].append((arrives, KIND_SIGNAL, agent))
                undo.append((departure, arrival))
            else:
                undo.append((departure, None))
        return undo

    def unapply(self, undo: list) -> None:
        for departure, arrival in reversed(undo):
            self.departures.discard(departure)
            if arrival is not None:
                self.arrivals.discard(arrival)
                self.received[arrival[1]].pop()


def execute(cfg: SpacetimeConfig, scenario: Scenario, strategy: Strategy) -> Trace:
    """Run the synchronous loop through the strategy's slots; return the trace.

    Per step: deliver requests submitted at t and signals arriving at t,
    then let every agent look up the action for its history up to t, then
    turn each send into a departure at t arriving at t + distance. A row
    keyed ``(agent, t, events)`` can only match that agent's history at
    that t, and every other agent-step sends nothing, so only the
    ``(t, agent)`` slots the table names are looked up: t ascending, agents
    in ``cfg.agents`` order. Identical inputs yield identical traces.
    """
    check_scenario(scenario, cfg)
    table = strategy_to_raw(strategy)
    slots: dict[int, set[str]] = {}
    for agent, t, _ in table:
        if 0 <= t <= cfg.horizon:
            slots.setdefault(t, set()).add(agent)
    run = Run(cfg, scenario)
    for t in sorted(slots):
        for agent in cfg.agents:
            if agent not in slots[t]:
                continue
            sends = table.get(run.key(t, agent))
            if sends:
                for dest in sends:
                    if dest == agent:
                        raise SameLocation(f"agent {agent!r} cannot send to itself")
                    cfg.coord(dest)
                run.apply(t, agent, sends)

    return Trace(
        requests=frozenset((r.task, r.location, r.time) for r in scenario.requests),
        departures=frozenset(run.departures),
        arrivals=frozenset(run.arrivals),
    )


def obedient_strategy(cfg: SpacetimeConfig, tasks: Mapping[str, TaskSpec]) -> Strategy:
    """The strategy where each agent does exactly what a request asks.

    For a task delivering origin -> dest at time ``at``, the request is
    expected at the origin lab at s = at - distance(origin, dest); the
    history holding just that request maps to a send, everything else to
    the empty action. A delivery too early to send for is refused here; one
    past the horizon is ``check_task``'s to refuse.
    """
    table: dict[tuple[str, LocalHistory], Action] = {}
    for task_id in sorted(tasks):
        deliver = tasks[task_id].deliver
        submit = deliver.at - distance(deliver.origin, deliver.dest, cfg)
        if submit < 0:
            raise UnachievableTask(
                f"task {task_id!r}: delivery at t={deliver.at} cannot be scheduled "
                f"within horizon {cfg.horizon}"
            )
        history = LocalHistory(
            deliver.origin, submit, (ReceivedEvent.request(submit, task_id),)
        )
        table[(deliver.origin, history)] = Action(frozenset({deliver.dest}))
    return Strategy(table)
