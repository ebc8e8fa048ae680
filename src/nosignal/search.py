"""Strategy synthesis and impossibility certification.

``find_strategy`` co-executes every requirement's scenario under one shared
partial strategy. Whenever any scenario needs an action for an (agent,
history) pair that has no assignment yet, the search branches over the
actions on that agent's menu. Because the same history key is shared
across scenarios, an agent that cannot tell two scenarios apart is forced
to act identically in both; that coupling is what makes the search honest
about no-signaling.

The walk offers only sends that can still matter (the causal
diamond of Kent's no-summoning theorem, arXiv:1204.4022). Let ``(o, s)``
range over the delivering departures ``(origin, at - distance)`` of the
requested tasks, and ``latest[d] = max(s - dist(d, o))``. A send
``(a, d, t)`` is useful iff it is a delivering departure or its arrival
can still inform some origin in time, ``t + dist(a, d) <= latest[d]``.
Dropping the others is exact. By the triangle inequality an agent has no
useful send after ``latest`` of its own lab, so every key an agent with a
useful send reads is made of useful sends only. Delete the useless sends
from a winning strategy: its useful departures stay the same, and with
them every delivery, while the bans see a subset of departures. A slot
whose menu holds only the empty action is not stepped at all; an idle
document builds no slot.

Only histories actually reachable under the partial assignment become
decision points, which keeps the space finite and small. Once every slot of
a time slice has been applied, a requirement may already be lost:
departures only accumulate, so a broken silence ban is final, and a
delivery whose departure time has passed without the departure can never
arrive. One rule, ``_lost``, decides this and names the culprit
departures. The walk judges every branch at one site, a slice boundary
(the complete assignment is the boundary after the last slice), refutes a
lost branch there instead of completing it, and then backjumps over the
culprits' causal past: whether the banned or missing departure happened
was fixed by the history keys inside its past light cone, so the walk
returns to the deepest decision among them, and later choices are skipped
(conflict-directed backjumping, Prosser 1993). Exhausting the tree without
a winner yields a machine-checkable certificate: the decision points, the
number of refuted branches (partial assignments cut at a slice boundary,
or complete ones), and the requirement that failed on each one.

The walk steps one :class:`.protocol.Run` per requirement, the same tuple
kernel ``execute`` uses; the value classes appear only at the boundary.
A ``Found`` strategy is replayed through ``execute`` and judged on its
arrivals by ``evaluate_requirement``, independently of the lost rule.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Collection, Mapping, Sequence

from .errors import ValidationError
from .protocol import RawAssignment, RawKey, Run, check_scenario
from .record import Record
from .spacetime import SpacetimeConfig, distance
from .tasks import (
    Requirement,
    RequirementReport,
    Rule,
    Task,
    check_requirement,
    check_task,
    evaluate_requirement,
    requested_tasks,
)


class SearchLimits(Record):
    """Caps that turn a runaway exploration into an Aborted outcome."""

    __slots__ = ("max_branches", "max_decision_points")

    def __init__(self, max_branches: int = 2_000_000, max_decision_points: int = 10_000):
        if max_branches < 1 or max_decision_points < 1:
            raise ValidationError("search limits must be >= 1")
        self._fill(max_branches, max_decision_points)


class Certificate(Record):
    """Machine-checkable record that an exhaustive exploration completed.

    ``decision_points`` lists the raw key ``(agent, t, events)`` of every
    local history the search ever branched on, in first-encounter order.
    ``strategies_explored`` counts the refuted branches the walk visited:
    partial assignments cut at a time-slice boundary and complete ones that
    failed. The walk backjumps over the culprit's causal past; the
    branches it skips keep a refuted branch's conflicting decisions, so they
    are lost too and are not counted.
    ``leaf_failures`` holds, for each refuted branch in exploration order,
    the index of the first requirement it lost.
    """

    __slots__ = ("decision_points", "strategies_explored", "leaf_failures")

    def __init__(self, decision_points: tuple[RawKey, ...],
                 strategies_explored: int, leaf_failures: tuple[int, ...]):
        self._fill(decision_points, strategies_explored, leaf_failures)

    def failures_by_requirement(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for idx in self.leaf_failures:
            counts[idx] = counts.get(idx, 0) + 1
        return counts


class Found(Record):
    """A complete strategy satisfying every requirement, plus its reports."""

    __slots__ = ("strategy", "reports")

    def __init__(self, strategy: RawAssignment, reports: tuple[RequirementReport, ...]):
        self._fill(strategy, reports)


class Impossible(Record):
    """Every branch over reachable histories was refuted."""

    __slots__ = ("certificate",)

    def __init__(self, certificate: Certificate):
        self._fill(certificate)


class Aborted(Record):
    """A search limit was hit before the tree was decided."""

    __slots__ = ("limit", "strategies_explored", "decision_points")

    # limit: "branches" or "decision_points"
    def __init__(self, limit: str, strategies_explored: int, decision_points: int):
        self._fill(limit, strategies_explored, decision_points)


SearchOutcome = Found | Impossible | Aborted


def find_strategy(
    cfg: SpacetimeConfig,
    requirements: Sequence[Requirement],
    tasks: Mapping[str, Task],
    limits: SearchLimits | None = None,
    on_leaf: Callable[[RawAssignment], None] | None = None,
) -> SearchOutcome:
    """Backtracking search over deterministic strategies on reachable histories.

    Returns ``Found`` on the first complete assignment satisfying every
    requirement (branch order is fixed: actions by ascending send-set size,
    then lexical destinations, so results are reproducible), ``Impossible``
    with a certificate once the whole tree is refuted, or ``Aborted`` when a
    limit is hit. The walk is the one the module docstring describes:
    menus of useful sends, live slots only (those whose menu holds more
    than the empty action), every branch judged at a slice boundary, and a
    backjump over the culprits' causal past after each refutation.

    ``on_leaf``, when given, observes each branch counted against
    ``max_branches`` before it is recorded: each complete assignment, the
    winning one included, and each partial one refuted at a slice boundary.
    It receives the walk's live raw assignment dict, which the walk goes on
    changing; a caller that keeps it must copy it.
    """
    limits = limits or SearchLimits()
    # Per requirement: its rule, per task the one departure that can produce
    # the delivery and the banned pairs, and all banned pairs; per time, the
    # requirements with a delivering departure falling due then.
    judge = []
    due_at: dict[int, set[int]] = {}
    for ri, (scenario, rule) in enumerate(requirements):
        check_requirement(scenario, rule)
        check_scenario(scenario, cfg)
        rows = [_task_row(task, cfg) for task in requested_tasks(scenario, tasks).values()]
        judge.append((rule, rows, frozenset().union(*(banned for _, banned in rows))))
        for (_, _, s), _ in rows:
            due_at.setdefault(max(s, 0), set()).add(ri)

    agents = cfg.agents
    horizon = cfg.horizon
    lag = {o: [distance(a, o, cfg) for a in agents] for o in agents}
    others = {a: cfg.others(a) for a in agents}
    # latest[d]: the last time an arrival at d can still reach the origin
    # of a delivering departure by its departure time. No lab has a useful
    # send after its own latest, so none is stepped after ``last``.
    departs = {dep for _, rows, _ in judge for dep, _ in rows}
    latest = {d: max((s - lag[o][i] for o, _, s in departs), default=-1)
              for i, d in enumerate(agents)}
    last = min(horizon, max(latest.values()))

    runs = [Run(cfg, scenario) for scenario, _ in requirements]
    # Per slot: (t, run, agent, menu, index just past the slots of time t).
    slots = []
    # Per run and agent, the indices of its slots, in time order.
    lanes: list[list[list[int]]] = [[[] for _ in agents] for _ in runs]
    # Slot index -> (time t, the requirements with a delivery due since the
    # previous boundary). Any other requirement can be newly lost at t only
    # by a banned departure at t, since departures happen only at times with
    # slots. The complete assignment judges every requirement.
    judges: dict[int, tuple[int, set[int]]] = {}
    menus: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    due: set[int] = set()
    for t in range(last + 1):
        due.update(due_at.get(t, ()))
        live = []
        for ai, agent in enumerate(agents):
            dests = tuple(d for d in others[agent]
                          if t + lag[d][ai] <= latest[d] or (agent, d, t) in departs)
            if dests:
                # ``dests`` is sorted, so each size comes out in lexical order.
                menu = menus.get(dests)
                if menu is None:
                    menu = menus[dests] = [s for n in range(len(dests) + 1)
                                           for s in itertools.combinations(dests, n)]
                live.append((ai, agent, menu))
        if live:
            end = len(slots) + len(runs) * len(live)
            for ri, run in enumerate(runs):
                for ai, agent, menu in live:
                    lanes[ri][ai].append(len(slots))
                    slots.append((t, run, agent, menu, end))
            judges[end] = (t, due)
            due = set()
    n_slots = len(slots)
    judges[n_slots] = (horizon, set(range(len(runs))))

    assignment: RawAssignment = {}
    # Every key the search branched on, in first-encounter order.
    points: dict[RawKey, None] = {}
    branches = 0
    leaf_failures: list[int] = []
    # Per applied slot j, the slot index of the decision that assigned its
    # key (j itself, or an earlier run's slot of the same agent and time).
    origins: list[int] = []
    decided: dict[RawKey, int] = {}

    def first_lost(t: int, due: set[int]) -> tuple[int, list[tuple[int, str]]] | None:
        """The first requirement lost once the slots up to ``t`` are done, and its culprits."""
        for ri, (run, (rule, rows, bans)) in enumerate(zip(runs, judge)):
            got = run.departures
            if ri not in due and not any((o, d, t) in got for o, d in bans):
                continue
            culprits = _lost(rule, rows, got, t)
            if culprits:
                return ri, culprits
        return None

    def conflict_set(ri: int, culprits: list[tuple[int, str]]) -> set[int]:
        """Decisions that fix requirement ``ri``'s loss: whether a culprit
        departure (t', o) happened depends only on the keys of the run's slots
        (t'', a) with t'' + dist(a, o) <= t', so every branch keeping their
        decisions loses ``ri`` again. A culprit due before 0 names none."""
        conflict: set[int] = set()
        for t1, o in culprits:
            for lane, d in zip(lanes[ri], lag[o]):
                for j in lane:
                    if slots[j][0] > t1 - d:
                        break
                    conflict.add(origins[j])
        return conflict

    # One frame per applied slot, so frame j is slot j: (history key, the
    # sends applied, index of the action in the slot's menu, or -1 where
    # the key was assigned earlier).
    stack: list[tuple[RawKey, tuple[str, ...], int]] = []
    # Per decision frame, the conflicts carried back to it by later jumps.
    carried: dict[int, set[int]] = {}
    # The key each slot last had. A key at t reads only sends made before
    # t, so after a jump to slot h the rest of h's slice keeps its keys.
    keys: list[RawKey | None] = [None] * n_slots
    reuse_end = 0
    while True:
        slot_idx = len(stack)
        lost = None
        bound = judges.get(slot_idx)
        if bound is not None:
            lost = first_lost(*bound)
            if lost is not None or slot_idx == n_slots:
                if branches >= limits.max_branches:
                    return Aborted("branches", branches, len(points))
                branches += 1
                if on_leaf is not None:
                    on_leaf(assignment)
                if lost is None:
                    strategy = {key: sends for key, sends in assignment.items() if sends}
                    reports = tuple(evaluate_requirement(cfg, strategy, requirement, tasks)
                                    for requirement in requirements)
                    assert all(r.satisfied for r in reports)
                    return Found(strategy, reports)

        if lost is None:
            t, run, agent, menu, _ = slots[slot_idx]
            if slot_idx < reuse_end:
                key = keys[slot_idx]
            else:
                key = keys[slot_idx] = run.key(t, agent)
            choice = -1
            sends = assignment.get(key)
            if sends is None:
                if key not in points:
                    if len(points) >= limits.max_decision_points:
                        return Aborted("decision_points", branches, len(points))
                    points[key] = None
                choice = 0
                sends = assignment[key] = menu[0]
                decided[key] = slot_idx
            origins.append(decided[key])
            if sends:
                run.apply(t, agent, sends)
            stack.append((key, sends, choice))
            continue

        leaf_failures.append(lost[0])
        conflict = conflict_set(*lost)
        while stack and conflict:
            key, sends, choice = stack.pop()
            origins.pop()
            slot_idx = len(stack)
            t, run, agent, menu, end = slots[slot_idx]
            if sends:
                run.unapply(t, agent, sends)
            if choice < 0:
                continue
            if slot_idx in conflict:
                conflict.discard(slot_idx)
                if slot_idx in carried:
                    carried[slot_idx] |= conflict
                elif conflict:
                    carried[slot_idx] = conflict
                choice += 1
                if choice < len(menu):
                    sends = assignment[key] = menu[choice]
                    origins.append(slot_idx)
                    run.apply(t, agent, sends)  # only the first action is empty
                    stack.append((key, sends, choice))
                    reuse_end = end
                    break
                conflict = carried.pop(slot_idx, set())
            del assignment[key]
            del decided[key]
            carried.pop(slot_idx, None)
        else:
            return Impossible(Certificate(
                decision_points=tuple(points),
                strategies_explored=branches,
                leaf_failures=tuple(leaf_failures),
            ))


# A task's delivering departure ``(origin, dest, at - distance)`` and its
# banned ``(origin, dest)`` pairs.
_Row = tuple[tuple[str, str, int], frozenset[tuple[str, str]]]


def _task_row(task: Task, cfg: SpacetimeConfig) -> _Row:
    """The task's row, once ``check_task`` passes."""
    check_task(task, cfg)
    (origin, dest, at), bans = task
    return (origin, dest, at - distance(origin, dest, cfg)), frozenset(bans)


def _lost(rule: Rule, rows: Sequence[_Row], departures: Collection[tuple[str, str, int]],
          t: int) -> list[tuple[int, str]]:
    """The culprit slots ``(t', origin)`` of a requirement lost once every
    departure up to time ``t`` is in ``departures``; empty while it can
    still be met.

    A task is lost when a banned departure is present or its delivering
    departure is due by ``t`` and absent; departures only accumulate, so no
    later one can undo either. Its culprit is its earliest banned departure,
    else its overdue delivering departure. Rule ``all`` is lost with any
    task, and names the earliest culprit; ``at_least_one`` is lost with
    every task, and names them all. At ``t = horizon`` every delivering
    departure is due, and its arrival exists iff it does, so "not lost" is
    then "satisfied".
    """
    sent = {(o, d) for o, d, _ in departures}
    culprits = []
    for (o, d, s), banned in rows:
        if not banned.isdisjoint(sent):
            culprits.append(min((t1, o1) for o1, d1, t1 in departures if (o1, d1) in banned))
        elif s <= t and (o, d, s) not in departures:
            culprits.append((s, o))
        elif rule is Rule.AT_LEAST_ONE:
            return []
    return [min(culprits)] if rule is Rule.ALL and culprits else culprits


def mutually_exclusive(cfg: SpacetimeConfig, a: Task, b: Task) -> bool:
    """Strategy-independent bound: can NO departure pattern satisfy both tasks?

    Any satisfying departure set contains both delivering departures, and
    adding departures only breaks more bans, so the set of just those two
    (the ones that can depart at all, at ``at - distance >= 0``) is the best
    candidate: the tasks exclude each other iff the search's lost rule,
    under ``all``, finds that set lost at the horizon. This bounds what any
    protocol whatsoever could accomplish.
    """
    rows = [_task_row(a, cfg), _task_row(b, cfg)]
    departures = {dep for dep, _ in rows if dep[2] >= 0}
    return bool(_lost(Rule.ALL, rows, departures, cfg.horizon))
