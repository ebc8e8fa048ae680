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

The walk steps one :class:`.protocol.Run` per requirement, the same tuple
kernel ``execute`` uses, and judges every branch, partial or complete, by
the one departure rule above; the dataclasses appear only at the boundary.
A ``Found`` strategy is replayed through ``execute`` and judged on its
arrivals by ``evaluate_requirement``, independently of that rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import ValidationError
from .protocol import (
    LocalHistory,
    RawAssignment,
    RawKey,
    Run,
    Scenario,
    Strategy,
    check_scenario,
    execute,
    local_history,
    raw_to_history,
    strategy_from_raw,
)
from .spacetime import SpacetimeConfig, distance
from .tasks import (
    Requirement,
    RequirementReport,
    Rule,
    TaskSpec,
    check_task,
    evaluate_requirement,
)


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

    menu: dict[str, list[tuple[str, ...]]] = {}
    for agent in agents:
        others = cfg.others(agent)
        subsets = [()]
        for dest in others:
            subsets += [s + (dest,) for s in subsets]
        menu[agent] = sorted((tuple(sorted(s)) for s in subsets), key=lambda s: (len(s), s))

    # Per requirement: its rule and, per task, the one departure that can
    # produce the delivery and the banned pairs.
    judge = []
    for requirement in requirements:
        rows = []
        for task_id in requirement.scenario.task_ids():
            task = tasks[task_id]
            origin, dest, at = task.deliver.origin, task.deliver.dest, task.deliver.at
            rows.append(
                (
                    (origin, dest, at - distance(origin, dest, cfg)),
                    frozenset((b.origin, b.dest) for b in task.silence),
                )
            )
        judge.append((requirement.rule, rows))

    runs = [Run(cfg, requirement.scenario) for requirement in requirements]
    slots = [(t, run, agent) for t in range(horizon + 1) for run in runs for agent in agents]
    slice_len = len(runs) * len(agents)
    assignment: RawAssignment = {}
    point_order: list[RawKey] = []
    point_seen: set[RawKey] = set()
    branches = 0
    leaf_failures: list[int] = []

    def first_lost(t: int) -> int | None:
        """Index of the first requirement already lost once slice ``t`` is done.

        A task is lost when a banned departure is present or its delivering
        departure is due by ``t`` and absent; no later slot can undo either.
        At ``t = horizon`` every delivering departure is due, and its arrival
        exists iff it does, so "not lost" is then "satisfied".
        """
        for ri, (run, (rule, rows)) in enumerate(zip(runs, judge)):
            got = run.departures
            lost_any = False
            lost_all = True
            for departure, banned in rows:
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
                failing = first_lost(horizon)
                if failing is None:
                    strategy = strategy_from_raw(assignment)
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
                t, run, agent = slots[slot_idx]
                key = run.key(t, agent)
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
                stack.append((slot_idx, key, run.apply(t, agent, sends), choice))
                slot_idx += 1
                continue

            leaf_failures.append(failing)
            while stack:
                slot_idx, key, undo, choice = stack.pop()
                t, run, agent = slots[slot_idx]
                run.unapply(undo)
                if choice < 0:
                    continue
                choice += 1
                if choice < len(menu[agent]):
                    sends = assignment[key] = menu[agent][choice]
                    stack.append((slot_idx, key, run.apply(t, agent, sends), choice))
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
            decision_points=tuple(raw_to_history(key) for key in point_order),
            strategies_explored=branches,
            leaf_failures=tuple(leaf_failures),
        )
    )


def mutually_exclusive(cfg: SpacetimeConfig, a: TaskSpec, b: TaskSpec) -> bool:
    """Strategy-independent bound: can NO departure pattern satisfy both tasks?

    Two tasks hold together iff each delivery can depart in time
    (``at - distance >= 0``) and neither task bans either delivery's
    (origin, dest) pair: any satisfying departure set contains both
    delivering departures, and adding departures only breaks more bans, so
    the set of just those two is the best candidate. This bounds what any
    protocol whatsoever could accomplish.
    """
    check_task(a, cfg)
    check_task(b, cfg)
    delivers = [(t.deliver.origin, t.deliver.dest, t.deliver.at) for t in (a, b)]
    banned = {(ban.origin, ban.dest) for t in (a, b) for ban in t.silence}
    return any(
        at < distance(origin, dest, cfg) or (origin, dest) in banned
        for origin, dest, at in delivers
    )


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
