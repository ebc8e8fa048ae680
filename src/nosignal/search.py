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
is (t, run, agent); one deadline per lab says whether it acts at t. The
walk reads a menu, the sorted useful destinations, only to step a decision
to its next subset, and builds no action list. An idle document has no slot.

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

The walk steps one :class:`.protocol.Run` per distinct scenario, the same
tuple kernel ``execute`` uses; the value classes appear only at the boundary.
A ``Found`` strategy is judged on its arrivals, independently of the lost
rule, by one ``evaluate_requirement`` call that replays each scenario once.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Collection, Mapping, Sequence

from .errors import ValidationError
from .protocol import RawAssignment, RawKey, Run, Scenario, check_scenario
from .record import Record
from .spacetime import SpacetimeConfig, distance
from .tasks import (
    Requirement,
    RequirementReport,
    Task,
    _reports as evaluate_requirement,  # the kernel: the set-up below checks what it is given
    check_requirement,
    check_task,
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
    """A complete strategy satisfying every requirement, plus its reports,
    one ``(verdicts, satisfied)`` pair per requirement."""

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
    limit is hit. The walk is the one the module docstring describes: useful
    sends only, every branch judged at a slice boundary, and a backjump over
    the culprits' causal past after each refutation.

    ``on_leaf``, when given, observes each branch counted against
    ``max_branches`` before it is recorded: each complete assignment, the
    winning one included, and each partial one refuted at a slice boundary.
    It receives the walk's live raw assignment dict, which the walk goes on
    changing; a caller that keeps it must copy it.
    """
    limits = limits or SearchLimits()
    # Per requirement: the index of its scenario's run, its rule, per task the
    # one departure that can produce the delivery and the banned pairs, and
    # all banned pairs; per time, the requirements with a delivering
    # departure falling due then. Requirements naming one scenario share its
    # run, whose keys are the same under every strategy.
    judge = []
    run_of: dict[Scenario, int] = {}
    due_at: dict[int, set[int]] = {}
    for ri, (scenario, rule) in enumerate(requirements):
        check_requirement(scenario, rule)
        check_scenario(scenario, cfg)
        rows = [_task_row(task, cfg) for task in requested_tasks(scenario, tasks).values()]
        judge.append((run_of.setdefault(scenario, len(run_of)), rule, rows,
                      frozenset().union(*(banned for _, banned in rows))))
        for (_, _, s), _ in rows:
            due_at.setdefault(max(s, 0), set()).add(ri)

    coord = cfg.locations
    # latest[d]: the last time an arrival at d can still reach the origin
    # of a delivering departure by its departure time. A useful send goes
    # to a target (a lab with latest >= 1, or a delivering destination),
    # and by the triangle inequality its sender's own latest is >= t >= 0.
    # until[a], the last time a has a useful send that is no delivering
    # departure, is read off a's neighbours in coordinate order: for a
    # target d beyond neighbour b, each delivering departure gives latest[d]
    # <= latest[b] + |x_b - x_d|, so latest[d] - |x_a - x_d| <= latest[b] -
    # |x_a - x_b|. After ``reach``, the last of them, only delivering
    # departures are useful, so the loop visits every time from 0 (where
    # deliveries due before 0 fall due) to reach, then only their times.
    departs = {dep for _, _, rows, _ in judge for dep, _ in rows}
    by_x = sorted(coord, key=coord.get)
    latest = _latest(coord, by_x, departs)
    targets = sorted({d for d in coord if latest[d] >= 1}.union(d for _, d, _ in departs))
    senders = [a for a in cfg.agents if latest[a] >= 0]
    until = {a: max(latest[b] - abs(coord[a] - coord[b]) for b in by_x[max(i - 1, 0):i + 2] if b != a)
             for i, a in enumerate(by_x)}
    reach = max(0, *until.values())
    origins = {(o, s) for o, _, s in departs}

    runs = [Run(cfg, scenario) for scenario in run_of]
    # Per slot: (t, run, agent, index just past time t's slots).
    slots = []
    # Per run and sender, the indices of its slots, in time order.
    lanes: list[list[list[int]]] = [[[] for _ in senders] for _ in runs]
    # Slot index -> (time t, the requirements with a delivery due since the
    # previous boundary). Any other requirement can be newly lost at t only
    # by a banned departure at t, since departures happen only at times with
    # slots. The complete assignment judges every requirement.
    judges: dict[int, tuple[int, set[int]]] = {}
    due: set[int] = set()
    for t in itertools.chain(range(reach + 1), sorted({s for _, _, s in departs if s > reach})):
        due.update(due_at.get(t, ()))
        live = [(ai, agent) for ai, agent in enumerate(senders) if t <= until[agent] or (agent, t) in origins]
        if live:
            end = len(slots) + len(runs) * len(live)
            for ri, run in enumerate(runs):
                for ai, agent in live:
                    lanes[ri][ai].append(len(slots))
                    slots.append((t, run, agent, end))
            judges[end] = (t, due)
            due = set()
            # Each slot of the first run holds an (agent, t) no earlier slot
            # has, so the walk aborts on max_decision_points before it
            # applies the first run's slot of that index: build no further.
            if len(slots) > len(runs) * limits.max_decision_points:
                break
    n_slots = len(slots)
    judges[n_slots] = (cfg.horizon, set(range(len(judge))))

    # The walk's state. Slots 0 .. depth-1 are applied; keys[j] is slot j's
    # history key, and the key's sends are assignment[key]. points maps every
    # key the search branched on, in first-encounter order, to the slot of
    # the decision that last assigned it: an applied slot j is a decision iff
    # points[keys[j]] == j, and otherwise reuses an earlier run's choice for
    # the same agent and time. Each refuted branch appends the first
    # requirement it lost to leaf_failures, so its length is the branch count.
    assignment: RawAssignment = {}
    points: dict[RawKey, int] = {}
    leaf_failures: list[int] = []

    def first_lost(t: int, due: set[int]) -> tuple[int, list[tuple[int, str]]] | None:
        """The first requirement lost once the slots up to ``t`` are done, and its culprits."""
        for ri, (r, rule, rows, bans) in enumerate(judge):
            got = runs[r].departures
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
            for lane, a in zip(lanes[judge[ri][0]], senders):
                last = t1 - abs(coord[a] - coord[o])
                for j in lane:
                    if slots[j][0] > last:
                        break
                    conflict.add(points[keys[j]])
        return conflict

    # Per decision slot, the conflicts carried back to it by later jumps.
    carried: dict[int, set[int]] = {}
    # The key each slot last had. A key at t reads only sends made before
    # t, so after a jump to slot h the rest of h's slice keeps its keys.
    keys: list[RawKey | None] = [None] * n_slots
    depth = reuse_end = 0
    while True:
        lost = None
        bound = judges.get(depth)
        if bound is not None:
            lost = first_lost(*bound)
            if lost is not None or depth == n_slots:
                if len(leaf_failures) >= limits.max_branches:
                    return Aborted("branches", len(leaf_failures), len(points))
                if on_leaf is not None:
                    on_leaf(assignment)
                if lost is None:
                    strategy = {key: sends for key, sends in assignment.items() if sends}
                    reports = tuple(evaluate_requirement(cfg, strategy, requirements, tasks))
                    assert all(satisfied for _, satisfied in reports)
                    return Found(strategy, reports)

        if lost is None:
            t, run, agent, _ = slots[depth]
            if depth < reuse_end:
                key = keys[depth]
            else:
                key = keys[depth] = run.key(t, agent)
            sends = assignment.get(key)
            if sends is None:
                if key not in points and len(points) >= limits.max_decision_points:
                    return Aborted("decision_points", len(leaf_failures), len(points))
                points[key] = depth
                assignment[key] = ()
            elif sends:
                run.apply(t, agent, sends)
            depth += 1
            continue

        leaf_failures.append(lost[0])
        conflict = conflict_set(*lost)
        while depth and conflict:
            depth -= 1
            t, run, agent, end = slots[depth]
            key = keys[depth]
            sends = assignment[key]
            if sends:
                run.unapply(t, agent, sends)
            if points[key] != depth:
                continue
            if depth in conflict:
                conflict.discard(depth)
                if depth in carried:
                    carried[depth] |= conflict
                elif conflict:
                    carried[depth] = conflict
                menu = tuple(d for d in targets if d != agent and (
                    t + abs(coord[agent] - coord[d]) <= latest[d] or (agent, d, t) in departs))
                if (sends := _successor(menu, sends)) is not None:
                    assignment[key] = sends
                    run.apply(t, agent, sends)  # only the first action is empty
                    depth += 1
                    reuse_end = end
                    break
                conflict = carried.pop(depth, set())
            del assignment[key]
            carried.pop(depth, None)
        else:
            return Impossible(Certificate(
                decision_points=tuple(points),
                strategies_explored=len(leaf_failures),
                leaf_failures=tuple(leaf_failures),
            ))


def _latest(coord: Mapping[str, int], by_x: list, departs: set) -> dict:
    """Each lab d's ``max(s - |x_d - x_o|)`` over the departures ``(o, _, s)``,
    -1 when there are none. Each origin starts at its latest departure, and
    one pass each way over the labs in x order (``by_x``) carries the best
    value so far to the next lab, less the gap between them."""
    latest = dict.fromkeys(coord, float("-inf") if departs else -1)
    for o, _, s in departs:
        latest[o] = max(latest[o], s)
    for order in (by_x, by_x[::-1]):
        for b, d in zip(order, order[1:]):
            latest[d] = max(latest[d], latest[b] - abs(coord[d] - coord[b]))
    return latest


def _successor(dests: tuple, sends: tuple) -> tuple | None:
    """The subset of the sorted ``dests`` after ``sends`` in branch order,
    by size then lexically; ``None`` after the full set."""
    k = len(sends)
    for i in reversed(range(k)):
        j = dests.index(sends[i]) + 1
        if len(dests) - j >= k - i:
            return sends[:i] + dests[j:j + k - i]
    return dests[:k + 1] if k < len(dests) else None


# A task's delivering departure ``(origin, dest, at - distance)`` and its
# banned ``(origin, dest)`` pairs.
_Row = tuple[tuple[str, str, int], frozenset[tuple[str, str]]]


def _task_row(task: Task, cfg: SpacetimeConfig) -> _Row:
    """The task's row, once ``check_task`` passes."""
    check_task(task, cfg)
    (origin, dest, at), bans = task
    return (origin, dest, at - distance(origin, dest, cfg)), frozenset(bans)


def _lost(rule: str, rows: Sequence[_Row], departures: Collection[tuple[str, str, int]],
          t: int) -> list[tuple[int, str]]:
    """The culprit slots ``(t', origin)`` of a requirement lost once every
    departure up to time ``t`` is in ``departures``; empty while it can
    still be met.

    A task is lost when a banned departure is present or its delivering
    departure is due by ``t`` and absent; departures only accumulate, so no
    later one can undo either. Its culprit is its earliest banned departure,
    else its overdue delivering departure. The rule ``all`` is lost with any
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
        elif rule == "at_least_one":
            return []
    return [min(culprits)] if rule == "all" and culprits else culprits


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
    return bool(_lost("all", rows, departures, cfg.horizon))
