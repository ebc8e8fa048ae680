"""What only a library caller runs: the no-signaling audit and its helpers.

Both audit checks replay scenarios through ``execute`` and rebuild each
agent's history from the finished trace with ``local_history``, not from
the history keys the executor steps on. That second derivation is what
makes the audit a check on the executor rather than a restatement of it.
The module also holds the checks of a trace and of a lattice event, the
signal arrival time and causal order of the geometry, and the paradox's
requirement bundle. The command line never imports this module, so none
of it is compiled when a command starts.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .errors import DuplicateTask, SameLocation, ValidationError
from .protocol import KIND_REQUEST, KIND_SIGNAL, RawAssignment, RawKey, Scenario, Trace, check_slots, execute
from .record import Record
from .spacetime import SpacetimeConfig, distance
from .tasks import Requirement, Rule, Task, check_task


def check_event(event: tuple[str, int], cfg: SpacetimeConfig) -> None:
    """The ``(location, time)`` point is on the lattice: a known lab, a time in the horizon."""
    location, time = event
    cfg.coord(location)
    if not 0 <= time <= cfg.horizon:
        raise ValidationError(f"event time {time} outside [0, {cfg.horizon}]")


def signal_arrival(origin: str, dest: str, depart: int, cfg: SpacetimeConfig) -> int:
    """Arrival time of a light signal sent ``origin -> dest`` at ``depart``.

    The result may exceed the horizon, in which case the signal departs but
    is never delivered within the run.
    """
    if origin == dest:
        raise SameLocation(f"signal from {origin!r} to itself")
    d = distance(origin, dest, cfg)
    if not 0 <= depart <= cfg.horizon:
        raise ValidationError(f"departure time {depart} outside [0, {cfg.horizon}]")
    return depart + d


def causal_leq(e1: tuple[str, int], e2: tuple[str, int], cfg: SpacetimeConfig) -> bool:
    """True iff an influence moving at most one cell per step from the
    ``(location, time)`` event ``e1`` can reach ``e2``.

    Includes the lightlike boundary, since signals here travel at exactly
    light speed. Reflexive, and a partial order over valid events.
    """
    check_event(e1, cfg)
    check_event(e2, cfg)
    (loc1, t1), (loc2, t2) = e1, e2
    return t2 - t1 >= distance(loc1, loc2, cfg)


def check_trace(trace: Trace, cfg: SpacetimeConfig) -> None:
    """Assert the departure/arrival matching invariants of a trace."""
    for origin, dest, at in trace.arrivals:
        if (origin, dest, at - distance(origin, dest, cfg)) not in trace.departures:
            raise ValidationError(f"arrival {(origin, dest, at)} has no matching departure")
    for origin, dest, t in trace.departures:
        arrives = t + distance(origin, dest, cfg)
        if arrives <= cfg.horizon and (origin, dest, arrives) not in trace.arrivals:
            raise ValidationError(f"departure {(origin, dest, t)} lost its arrival at t={arrives}")


def local_history(trace: Trace, agent: str, t: int, cfg: SpacetimeConfig) -> RawKey:
    """The raw key of ``agent``'s observation record at time ``t``.

    Contains exactly the requests submitted at the agent's location and the
    signal arrivals delivered there, up to and including ``t``.
    """
    check_event((agent, t), cfg)
    events = [
        (time, KIND_REQUEST, task)
        for task, loc, time in trace.requests
        if loc == agent and time <= t
    ]
    events += [
        (at, KIND_SIGNAL, origin)
        for origin, dest, at in trace.arrivals
        if dest == agent and at <= t
    ]
    return (agent, t, tuple(sorted(events)))


def indistinguishable(
    cfg: SpacetimeConfig,
    strategy: RawAssignment,
    s1: Scenario,
    s2: Scenario,
    agent: str,
    t: int,
) -> bool:
    """Whether ``agent`` sees identical histories at ``t`` in both scenarios."""
    trace1 = execute(cfg, s1, strategy)
    trace2 = execute(cfg, s2, strategy)
    return local_history(trace1, agent, t, cfg) == local_history(trace2, agent, t, cfg)


class AuditViolation(Record):
    __slots__ = ("pair_index", "agent", "time", "history", "sends")

    def __init__(self, pair_index: int, agent: str, time: int, history: RawKey,
                 sends: tuple[frozenset[str], frozenset[str]]):
        self._fill(pair_index, agent, time, history, sends)


class AuditReport(Record):
    """Result of checking same-history implies same-behavior over pairs."""

    __slots__ = ("checks", "violations")

    def __init__(self, checks: int, violations: tuple[AuditViolation, ...] = ()):
        self._fill(checks, violations)

    @property
    def ok(self) -> bool:
        return not self.violations


def no_signaling_audit(
    cfg: SpacetimeConfig,
    strategy: RawAssignment,
    scenario_pairs: Iterable[tuple[Scenario, Scenario]],
) -> AuditReport:
    """Audit that indistinguishable histories produce identical behavior.

    For every pair, agent, and time where the agent's local histories
    coincide, the departures the agent actually produced at that time must
    coincide too. Locality is structural, so any violation indicates an
    executor bug, not a bad strategy.
    """
    checks = 0
    violations = []
    for pair_index, (s1, s2) in enumerate(scenario_pairs):
        trace1 = execute(cfg, s1, strategy)
        trace2 = execute(cfg, s2, strategy)
        for agent in cfg.agents:
            for t in range(cfg.horizon + 1):
                h1 = local_history(trace1, agent, t, cfg)
                h2 = local_history(trace2, agent, t, cfg)
                if h1 != h2:
                    continue
                checks += 1
                sent1 = frozenset(d for o, d, tt in trace1.departures if o == agent and tt == t)
                sent2 = frozenset(d for o, d, tt in trace2.departures if o == agent and tt == t)
                if sent1 != sent2:
                    violations.append(
                        AuditViolation(pair_index, agent, t, h1, (sent1, sent2))
                    )
    return AuditReport(checks, tuple(violations))


def paradox_requirements(
    cfg: SpacetimeConfig, tasks: Mapping[str, Task], task1: str, task2: str
) -> list[Requirement]:
    """The three-way bundle that creates the choice trap, for two of ``tasks`` by id.

    Each task alone must succeed (rules All), and when both are requested
    at t=0 either one would do (rule AtLeastOne). Requests are submitted at
    each task's delivery origin.
    """
    if task1 == task2:
        raise DuplicateTask(f"need two distinct tasks, got {task1!r} twice")
    requests = []
    for task_id in (task1, task2):
        if task_id not in tasks:
            raise ValidationError(f"undefined task {task_id!r}")
        check_task(tasks[task_id], cfg)
        requests.append((task_id, tasks[task_id][0][0], 0))
    check_slots(requests)
    single = [(frozenset([request]), Rule.ALL) for request in requests]
    return [*single, (frozenset(requests), Rule.AT_LEAST_ONE)]
