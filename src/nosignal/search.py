"""Strategy synthesis and impossibility certification.

``find_strategy`` co-executes every requirement's scenario under one shared
partial strategy. Whenever any scenario needs an action for an (agent,
history) pair that has no assignment yet, the search branches over all
possible actions for that agent. Because the same history key is shared
across scenarios, an agent that cannot tell two scenarios apart is forced
to act identically in both; that coupling is what makes the search honest
about no-signaling.

Only histories actually reachable under the partial assignment become
decision points, which keeps the space finite and small. Once every slot of
a time slice has been applied, a requirement may already be lost:
departures only accumulate, so a broken silence ban is final, and a
delivery whose departure time has passed without the departure can never
arrive. The walk refutes such a branch there instead of completing it.
Exhausting the tree without a winner yields a machine-checkable
certificate: the decision points, the number of refuted branches (partial
assignments cut at a slice boundary, or complete ones), and the
requirement that failed on each one.

Internally the tree walk runs on plain tuples instead of the dataclasses
from :mod:`.protocol`; the public types appear only at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import SpaceTooLarge, ValidationError
from .protocol import (
    KIND_REQUEST,
    KIND_SIGNAL,
    Action,
    LocalHistory,
    ReceivedEvent,
    Scenario,
    Strategy,
    Trace,
    check_scenario,
    execute,
    local_history,
)
from .spacetime import SpacetimeConfig, distance
from .tasks import (
    Requirement,
    RequirementReport,
    Rule,
    TaskSpec,
    check_task,
    evaluate_requirement,
    evaluate_task,
)

# A decision point in raw form: (agent, time, events) where events are
# (time, kind, label) tuples in canonical order. on_leaf callbacks receive
# assignments keyed this way, mapped to sorted destination tuples.
RawKey = tuple[str, int, tuple[tuple[int, str, str], ...]]
RawAssignment = dict[RawKey, tuple[str, ...]]


@dataclass(frozen=True)
class SearchLimits:
    """Caps that turn a runaway exploration into an Aborted outcome."""

    max_branches: int = 2_000_000
    max_decision_points: int = 10_000

    def __post_init__(self):
        if self.max_branches < 1 or self.max_decision_points < 1:
            raise ValidationError("search limits must be >= 1")


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record that an exhaustive exploration completed.

    ``decision_points`` lists every (agent, time, history) the search ever
    branched on, in first-encounter order. ``strategies_explored`` counts the
    refuted branches: partial assignments cut at a time-slice boundary and
    complete ones that failed. ``leaf_failures`` holds, for each refuted
    branch in exploration order, the index of the first requirement it lost.
    """

    decision_points: tuple[tuple[str, int, LocalHistory], ...]
    strategies_explored: int
    leaf_failures: tuple[int, ...]

    def failures_by_requirement(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for idx in self.leaf_failures:
            counts[idx] = counts.get(idx, 0) + 1
        return counts


@dataclass(frozen=True)
class Found:
    """A complete strategy satisfying every requirement, plus its reports."""

    strategy: Strategy
    reports: tuple[RequirementReport, ...]


@dataclass(frozen=True)
class Impossible:
    """Every branch over reachable histories was refuted."""

    certificate: Certificate


@dataclass(frozen=True)
class Aborted:
    """A search limit was hit before the tree was decided."""

    limit: str  # "branches" or "decision_points"
    strategies_explored: int
    decision_points: int


SearchOutcome = Union[Found, Impossible, Aborted]


class _Abort(Exception):
    def __init__(self, limit: str):
        self.limit = limit


def _raw_to_history(key: RawKey) -> tuple[str, int, LocalHistory]:
    agent, t, events = key
    return agent, t, LocalHistory(agent, t, tuple(ReceivedEvent(*e) for e in events))


def _strategy_from_raw(assignment: RawAssignment) -> Strategy:
    table = {}
    for (agent, t, events), sends in assignment.items():
        if not sends:
            continue  # the empty default already covers these rows
        history = LocalHistory(agent, t, tuple(ReceivedEvent(*e) for e in events))
        table[(agent, history)] = Action(frozenset(sends))
    return Strategy(table)


def find_strategy(
    cfg: SpacetimeConfig,
    requirements: Sequence[Requirement],
    tasks: Mapping[str, TaskSpec],
    limits: SearchLimits | None = None,
    on_leaf: Callable[[RawAssignment], None] | None = None,
    prune: bool = True,
) -> SearchOutcome:
    """Backtracking search over deterministic strategies on reachable histories.

    Returns ``Found`` on the first complete assignment satisfying every
    requirement (branch order is fixed: actions by ascending send-set size,
    then lexical destinations, so results are reproducible), ``Impossible``
    with a certificate once the whole tree is refuted, or ``Aborted`` when a
    limit is hit. ``on_leaf``, when given, observes every branch counted
    against ``max_branches`` before it is judged or recorded: each complete
    raw assignment, and each partial one refuted at a slice boundary.
    ``prune=False`` skips the slice-boundary refutation, so only complete
    assignments are judged; it is the reference walk for leaf-count oracles.
    """
    limits = limits or SearchLimits()
    for requirement in requirements:
        check_scenario(requirement.scenario, cfg)
        for task_id in requirement.scenario.task_ids():
            if task_id not in tasks:
                raise ValidationError(f"scenario references undefined task {task_id!r}")
            check_task(tasks[task_id], cfg)

    agents = cfg.agents
    horizon = cfg.horizon
    dist = {(a, b): distance(a, b, cfg) for a in agents for b in agents if a != b}

    menu: dict[str, list[tuple[str, ...]]] = {}
    for agent in agents:
        others = cfg.others(agent)
        subsets = [()]
        for dest in others:
            subsets += [s + (dest,) for s in subsets]
        menu[agent] = sorted((tuple(sorted(s)) for s in subsets), key=lambda s: (len(s), s))

    n_scen = len(requirements)
    # Static request prefixes: req_prefix[si][agent][t] is already canonical
    # because all request events share one kind and are sorted by (time, label).
    req_prefix: list[dict[str, list[tuple[tuple[int, str, str], ...]]]] = []
    for requirement in requirements:
        per_agent = {}
        for agent in agents:
            own = sorted(
                (r.time, KIND_REQUEST, r.task)
                for r in requirement.scenario.requests
                if r.location == agent
            )
            per_agent[agent] = [
                tuple(e for e in own if e[0] <= t) for t in range(horizon + 1)
            ]
        req_prefix.append(per_agent)

    # Per-requirement evaluation data: per task the deliver triple, the one
    # departure that can produce it, and the banned pairs.
    judge = []
    for requirement in requirements:
        rows = []
        for task_id in requirement.scenario.task_ids():
            task = tasks[task_id]
            origin, dest, at = task.deliver.origin, task.deliver.dest, task.deliver.at
            rows.append(
                (
                    (origin, dest, at),
                    (origin, dest, at - dist[(origin, dest)]),
                    frozenset((b.origin, b.dest) for b in task.silence),
                )
            )
        judge.append((requirement.rule, rows))

    arr_events: list[dict[str, list[tuple[int, str, str]]]] = [
        {a: [] for a in agents} for _ in range(n_scen)
    ]
    departures: list[set[tuple[str, str, int]]] = [set() for _ in range(n_scen)]
    arrivals: list[set[tuple[str, str, int]]] = [set() for _ in range(n_scen)]

    slots = [(t, si, agent) for t in range(horizon + 1) for si in range(n_scen) for agent in agents]
    slice_len = n_scen * len(agents)
    assignment: RawAssignment = {}
    point_order: list[RawKey] = []
    point_seen: set[RawKey] = set()
    branches = 0
    leaf_failures: list[int] = []

    def history_key(t: int, si: int, agent: str) -> RawKey:
        static = req_prefix[si][agent][t]
        dynamic = [e for e in arr_events[si][agent] if e[0] <= t]
        if dynamic:
            return (agent, t, tuple(sorted(static + tuple(dynamic))))
        return (agent, t, static)

    def apply(t: int, si: int, agent: str, sends: tuple[str, ...]):
        undo = []
        for dest in sends:
            dep = (agent, dest, t)
            departures[si].add(dep)
            arrives = t + dist[(agent, dest)]
            if arrives <= horizon:
                arrival = (agent, dest, arrives)
                arrivals[si].add(arrival)
                arr_events[si][dest].append((arrives, KIND_SIGNAL, agent))
                undo.append((dep, arrival, dest))
            else:
                undo.append((dep, None, None))
        return undo

    def unapply(si: int, undo) -> None:
        for dep, arrival, dest in reversed(undo):
            departures[si].discard(dep)
            if arrival is not None:
                arrivals[si].discard(arrival)
                arr_events[si][dest].pop()

    def judge_leaf() -> int | None:
        """Index of the first unsatisfied requirement, or None if all hold."""
        for ri, (rule, rows) in enumerate(judge):
            got_arrivals = arrivals[ri]
            got_departures = departures[ri]
            ok_any = False
            ok_all = True
            for deliver, _, banned in rows:
                ok = deliver in got_arrivals and not any(
                    (o, d) in banned for o, d, _ in got_departures
                )
                ok_any = ok_any or ok
                ok_all = ok_all and ok
            satisfied = ok_all if rule is Rule.ALL else ok_any
            if not satisfied:
                return ri
        return None

    def first_lost(t: int) -> int | None:
        """Index of the first requirement already lost once slice ``t`` is done.

        A task is lost when a banned departure is present or its delivering
        departure is due by ``t`` and absent; no later slot can undo either.
        """
        for ri, (rule, rows) in enumerate(judge):
            got = departures[ri]
            lost_any = False
            lost_all = True
            for _, departure, banned in rows:
                lost = (departure[2] <= t and departure not in got) or any(
                    (o, d) in banned for o, d, _ in got
                )
                lost_any = lost_any or lost
                lost_all = lost_all and lost
            if lost_any if rule is Rule.ALL else lost_all:
                return ri
        return None

    def count_branch() -> None:
        nonlocal branches
        if branches >= limits.max_branches:
            raise _Abort("branches")
        branches += 1
        if on_leaf is not None:
            on_leaf(assignment)

    def walk() -> Found | None:
        # Frames: (slot index, history key, undo record, index of the action
        # in the agent's menu, or -1 where the key was assigned earlier).
        stack: list[tuple[int, RawKey, list, int]] = []
        slot_idx = 0
        while True:
            failing = None
            if slot_idx == len(slots):
                count_branch()
                failing = judge_leaf()
                if failing is None:
                    strategy = _strategy_from_raw(assignment)
                    reports = tuple(
                        evaluate_requirement(cfg, strategy, requirement, tasks)
                        for requirement in requirements
                    )
                    assert all(r.satisfied for r in reports)
                    return Found(strategy, reports)
            elif prune and slot_idx and slot_idx % slice_len == 0:
                failing = first_lost(slot_idx // slice_len - 1)
                if failing is not None:
                    count_branch()

            if failing is None:
                t, si, agent = slots[slot_idx]
                key = history_key(t, si, agent)
                choice = -1
                sends = assignment.get(key)
                if sends is None:
                    if key not in point_seen:
                        if len(point_seen) >= limits.max_decision_points:
                            raise _Abort("decision_points")
                        point_seen.add(key)
                        point_order.append(key)
                    choice = 0
                    sends = assignment[key] = menu[agent][0]
                stack.append((slot_idx, key, apply(t, si, agent, sends), choice))
                slot_idx += 1
                continue

            leaf_failures.append(failing)
            while stack:
                slot_idx, key, undo, choice = stack.pop()
                t, si, agent = slots[slot_idx]
                unapply(si, undo)
                if choice < 0:
                    continue
                choice += 1
                if choice < len(menu[agent]):
                    sends = assignment[key] = menu[agent][choice]
                    stack.append((slot_idx, key, apply(t, si, agent, sends), choice))
                    slot_idx += 1
                    break
                del assignment[key]
            else:
                return None

    try:
        found = walk()
    except _Abort as abort:
        return Aborted(abort.limit, branches, len(point_order))
    if found is not None:
        return found
    return Impossible(
        Certificate(
            decision_points=tuple(_raw_to_history(key) for key in point_order),
            strategies_explored=branches,
            leaf_failures=tuple(leaf_failures),
        )
    )


def mutually_exclusive(
    cfg: SpacetimeConfig, a: TaskSpec, b: TaskSpec, max_sets: int = 1 << 20
) -> bool:
    """Strategy-independent oracle: can ANY departure pattern satisfy both?

    Enumerates every subset of {(origin, dest, t)} over distinct location
    pairs and t in [0, horizon], derives the arrivals each subset implies,
    and evaluates both task predicates. True iff no subset satisfies both;
    this bounds what any protocol whatsoever could accomplish.
    """
    check_task(a, cfg)
    check_task(b, cfg)
    slots = [
        (origin, dest, t)
        for origin in cfg.agents
        for dest in cfg.agents
        if origin != dest
        for t in range(cfg.horizon + 1)
    ]
    total = 1 << len(slots)
    if total > max_sets:
        raise SpaceTooLarge(f"{total} departure sets exceed the budget of {max_sets}")
    for mask in range(total):
        departs = frozenset(slot for i, slot in enumerate(slots) if mask >> i & 1)
        arrives = frozenset(
            (o, d, t + distance(o, d, cfg))
            for o, d, t in departs
            if t + distance(o, d, cfg) <= cfg.horizon
        )
        trace = Trace(departures=departs, arrivals=arrives)
        if evaluate_task(trace, a, cfg) and evaluate_task(trace, b, cfg):
            return False
    return True


def indistinguishable(
    cfg: SpacetimeConfig,
    strategy: Strategy,
    s1: Scenario,
    s2: Scenario,
    agent: str,
    t: int,
) -> bool:
    """Whether ``agent`` sees identical histories at ``t`` in both scenarios."""
    trace1 = execute(cfg, s1, strategy)
    trace2 = execute(cfg, s2, strategy)
    return local_history(trace1, agent, t, cfg) == local_history(trace2, agent, t, cfg)


@dataclass(frozen=True)
class AuditViolation:
    pair_index: int
    agent: str
    time: int
    history: LocalHistory
    sends: tuple[frozenset[str], frozenset[str]]


@dataclass(frozen=True)
class AuditReport:
    """Result of checking same-history implies same-behavior over pairs."""

    checks: int
    violations: tuple[AuditViolation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def no_signaling_audit(
    cfg: SpacetimeConfig,
    strategy: Strategy,
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
