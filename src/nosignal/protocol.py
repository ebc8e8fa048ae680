"""Agents, local observation histories, strategies, and the executor.

The no-signaling constraint is structural rather than checked after the
fact: a strategy is a lookup table keyed by an agent's local history, the
raw key ``(agent, t, events)``, and a local history contains only requests
submitted at the agent's own location and signals that have already
arrived there. There is simply no channel through which a send could
depend on remote or future state.

Execution is a synchronous lockstep loop. Within one step, delivery
happens before decisions, so a request submitted at time t is visible to
the decision taken at time t. One kernel, ``Run``, carries that loop on
plain tuples: ``execute`` steps it through a fixed strategy and
``find_strategy`` steps and backtracks it while choosing one, so the two
cannot disagree on what an agent sees. A run records its departures and
what each agent receives, and nothing that can be derived from them: not
an undo log, not the arrivals.
A scenario is the frozenset of ``(task, location, time)`` requests;
``check_scenario`` checks it where ``execute`` takes it in. A trace is the
triple ``(requests, departures, arrivals)`` of frozensets ``execute``
returns, its requests the scenario it was given.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping

from .errors import ValidationError
from .spacetime import SpacetimeConfig, distance

# ``Task`` (from ``.tasks``, which imports this module) appears in annotations only.

KIND_REQUEST = "request"
KIND_SIGNAL = "signal"  # sorts after "request", giving the canonical order for free


# The one form of a local history, the raw key: (agent, time, events), where
# events are (time, kind, label) tuples in canonical order, which is tuple
# order: ascending time, requests before signal arrivals, then label. The
# label is a task id for a request and the origin lab for an arrival. Equal
# keys are the same observation record. A strategy is a ``RawAssignment``
# dict from these keys to sorted tuples of distinct destinations; an
# unmapped key sends nothing, so every dict is a total strategy and ``{}``
# does nothing. ``find_strategy`` hands such assignments to its ``on_leaf``
# callback and lists their keys in its certificates.
RawKey = tuple[str, int, tuple[tuple[int, str, str], ...]]
RawAssignment = dict[RawKey, tuple[str, ...]]


# The requester's choice of which tasks to ask for, where and when, at most one per slot.
Scenario = frozenset[tuple[str, str, int]]

# One execution: (requests, departures, arrivals), the last two of
# (origin, dest, time) triples. An arrival is listed only when it lands at
# or before the horizon; a departure too late to arrive is still listed.
Trace = tuple[Scenario, frozenset[tuple[str, str, int]], frozenset[tuple[str, str, int]]]


def check_request(request: tuple[str, str, int], cfg: SpacetimeConfig) -> None:
    """The slot of a ``(task, location, time)`` request is on the lattice:
    a known lab, a time in the horizon."""
    _, location, time = request
    if location not in cfg.locations:
        raise ValidationError(f"location: unknown location {location!r}")
    if not 0 <= time <= cfg.horizon:
        raise ValidationError(f"time: {time} outside [0, {cfg.horizon}]")


def check_slots(requests: Collection[tuple[str, str, int]]) -> None:
    """At most one request per (location, time) slot, a request given twice
    in a list included; the first repeat in request order is raised."""
    slots = set()
    for _, location, time in sorted(requests):
        if (location, time) in slots:
            raise ValidationError(f"duplicate request slot ({location!r}, {time})")
        slots.add((location, time))


def check_scenario(scenario: Scenario, cfg: SpacetimeConfig) -> None:
    """``check_request`` on every request in request order, then ``check_slots``."""
    for request in sorted(scenario):
        check_request(request, cfg)
    check_slots(scenario)


class Run:
    """Incremental execution of one scenario on plain tuples.

    A run holds one record per fact: the set of departures and, per agent,
    the events it receives. ``apply(t, agent, sends)`` adds a departure at
    ``t`` per send and, when it lands by the horizon, a signal event at the
    destination at ``t + distance``; every destination must be another lab
    and each ``(t, agent)`` is applied at most once. ``unapply`` with the
    same arguments reverses it, last applied first, so no undo record is
    kept. ``key(t, agent)`` is the agent's raw history key at ``t`` once
    every send made before ``t`` has been applied. ``execute`` steps one run
    per scenario through a fixed strategy; ``find_strategy`` steps one per
    distinct scenario and backtracks.
    """

    # Slots: the search reads these on every node.
    __slots__ = ("horizon", "coords", "received", "departures")

    def __init__(self, cfg: SpacetimeConfig, scenario: Scenario):
        self.horizon = cfg.horizon
        self.coords = cfg.locations  # a distance is the difference of two coordinates
        # Per agent every event it will see, in any time: its requests, then
        # signal arrivals in the order they were applied, so unapply pops. An
        # agent gets its list when the first event reaches it, so a run costs
        # its events, not its labs.
        self.received: dict[str, list[tuple[int, str, str]]] = {}
        for task, location, time in scenario:
            self.received.setdefault(location, []).append((time, KIND_REQUEST, task))
        self.departures: set[tuple[str, str, int]] = set()

    def key(self, t: int, agent: str) -> RawKey:
        events = self.received.get(agent, ())
        if events:
            events = [e for e in events if e[0] <= t]
            events.sort()
        return (agent, t, tuple(events))

    def apply(self, t: int, agent: str, sends: tuple[str, ...]) -> None:
        x = self.coords[agent]
        for dest in sends:
            self.departures.add((agent, dest, t))
            arrives = t + abs(x - self.coords[dest])
            if arrives <= self.horizon:
                self.received.setdefault(dest, []).append((arrives, KIND_SIGNAL, agent))

    def unapply(self, t: int, agent: str, sends: tuple[str, ...]) -> None:
        x = self.coords[agent]
        for dest in sends:
            self.departures.discard((agent, dest, t))
            if t + abs(x - self.coords[dest]) <= self.horizon:
                self.received[dest].pop()


def execute(cfg: SpacetimeConfig, scenario: Scenario, strategy: RawAssignment) -> Trace:
    """Run the synchronous loop through the strategy's slots; return the
    trace ``(requests, departures, arrivals)``.

    Per step: deliver requests submitted at t and signals arriving at t,
    then let every agent look up the sends for its history up to t, then
    turn each send into a departure at t arriving at t + distance. A row
    keyed ``(agent, t, events)`` can only match that agent's history at
    that t, and every other agent-step sends nothing, so only the
    ``(t, agent)`` slots the strategy names are looked up: t ascending, agents
    in ``cfg.agents`` order. Identical inputs yield identical traces. A
    send to the agent itself, to an unknown lab or twice to one lab is
    refused.

    ``check_scenario`` checks the scenario; the rest is the kernel
    ``_execute``, which the command line calls on loaded scenarios. The
    kernel still refuses a bad send, since which rows a run reaches is
    known only as it goes; no row ``load_strategy`` or
    ``obedient_strategy`` makes has one.
    """
    check_scenario(scenario, cfg)
    return _execute(cfg, (scenario,), strategy)[0]


# The kernel of ``execute``: a trace per checked scenario, their runs stepped together.
def _execute(cfg, scenarios, strategy):
    runs = [Run(cfg, scenario) for scenario in scenarios]
    for t, agent in sorted({(t, a) for a, t, _ in strategy if 0 <= t <= cfg.horizon and a in cfg.locations}):
        for run in runs:
            sends = strategy.get(run.key(t, agent))
            if sends:
                for dest in sends:
                    if dest == agent:
                        raise ValidationError(f"agent {agent!r} cannot send to itself")
                    cfg.coord(dest)
                    if sends.count(dest) > 1:
                        raise ValidationError(f"agent {agent!r} sends to {dest!r} more than once")
                run.apply(t, agent, sends)

    coords = cfg.locations
    traces = []
    for scenario, run in zip(scenarios, runs):
        arrivals = ((o, d, t + abs(coords[o] - coords[d])) for o, d, t in run.departures)
        traces.append((scenario, frozenset(run.departures), frozenset(a for a in arrivals if a[2] <= cfg.horizon)))
    return traces


def obedient_strategy(cfg: SpacetimeConfig, tasks: Mapping[str, Task]) -> RawAssignment:
    """The strategy where each agent does exactly what a request asks.

    For a task delivering origin -> dest at time ``at``, the request is
    expected at the origin lab at s = at - distance(origin, dest); the
    history holding just that request maps to a send, and every other
    history sends nothing. A delivery too early to send for is refused
    here; one past the horizon is ``check_task``'s to refuse.
    """
    table: RawAssignment = {}
    for task_id in sorted(tasks):
        (origin, dest, at), _ = tasks[task_id]
        travel = distance(origin, dest, cfg)
        submit = at - travel
        if submit < 0:
            raise ValidationError(
                f"task {task_id!r}: delivery at t={at} comes sooner than the "
                f"{travel} step{'s' * (travel != 1)} a signal from {origin!r} "
                f"takes to reach {dest!r}"
            )
        table[(origin, submit, ((submit, KIND_REQUEST, task_id),))] = (dest,)
    return table
