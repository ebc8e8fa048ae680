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
arrive. The walk refutes such a branch there instead of completing it, and
then backjumps over the culprit's causal past: whether the banned or
missing departure happened was fixed by the history keys inside its past
light cone, so the walk returns to the deepest decision among them, and
later choices are skipped (conflict-directed backjumping, Prosser 1993).
Exhausting the tree without a winner yields a machine-checkable
certificate: the decision points, the number of refuted branches (partial
assignments cut at a slice boundary, or complete ones), and the
requirement that failed on each one.

The walk steps one :class:`.protocol.Run` per requirement, the same tuple
kernel ``execute`` uses, and judges every branch, partial or complete, by
the one departure rule above; the value classes appear only at the boundary.
A ``Found`` strategy is replayed through ``execute`` and judged on its
arrivals by ``evaluate_requirement``, independently of that rule.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence

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
from .record import Record
from .spacetime import SpacetimeConfig, distance
from .tasks import (
    Requirement,
    RequirementReport,
    Rule,
    TaskSpec,
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

    ``decision_points`` lists every (agent, time, history) the search ever
    branched on, in first-encounter order. ``strategies_explored`` counts the
    refuted branches the walk visited: partial assignments cut at a
    time-slice boundary and complete ones that failed. The default walk
    backjumps over the culprit's causal past; the branches it skips keep a
    refuted branch's conflicting decisions, so they are lost too and are
    not counted.
    ``leaf_failures`` holds, for each refuted branch in exploration order,
    the index of the first requirement it lost.
    """

    __slots__ = ("decision_points", "strategies_explored", "leaf_failures")

    def __init__(self, decision_points: tuple[tuple[str, int, LocalHistory], ...],
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

    def __init__(self, strategy: Strategy, reports: tuple[RequirementReport, ...]):
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


class _Abort(Exception):
    def __init__(self, limit: str):
        self.limit = limit


def find_strategy(
    cfg: SpacetimeConfig,
    requirements: Sequence[Requirement],
    tasks: Mapping[str, TaskSpec],
    limits: SearchLimits | None = None,
    on_leaf: Callable[[RawAssignment], None] | None = None,
    prune: str = "backjump",
) -> SearchOutcome:
    """Backtracking search over deterministic strategies on reachable histories.

    Returns ``Found`` on the first complete assignment satisfying every
    requirement (branch order is fixed: actions by ascending send-set size,
    then lexical destinations, so results are reproducible), ``Impossible``
    with a certificate once the whole tree is refuted, or ``Aborted`` when a
    limit is hit. ``on_leaf``, when given, observes every branch counted
    against ``max_branches`` before it is judged or recorded: each complete
    raw assignment, and each partial one refuted at a slice boundary.

    ``prune`` picks one of three walks of the same loop, which agree on the
    outcome kind and on every ``Found`` strategy:

    - ``"backjump"`` (the default, and the walk the CLI runs) refutes at slice
      boundaries and then jumps back over the culprit's causal past: to the
      deepest decision that assigned a history key the lost requirement's
      run read inside the past light cone of the departure that lost it;
    - ``"slice"`` refutes at slice boundaries and backtracks chronologically;
    - ``"none"`` judges only complete assignments and backtracks
      chronologically; it is the reference walk for leaf-count oracles.
    """
    if prune not in ("backjump", "slice", "none"):
        raise ValueError(f"prune: expected 'backjump', 'slice' or 'none', got {prune!r}")
    backjump = prune == "backjump"
    every_slice = prune != "none"
    limits = limits or SearchLimits()
    # Per requirement: its rule; per task, the one departure that can produce
    # the delivery and the banned pairs; all banned pairs; the slices where a
    # delivering departure falls due.
    judge = []
    for requirement in requirements:
        check_scenario(requirement.scenario, cfg)
        rows = []
        for task in requested_tasks(requirement.scenario, tasks).values():
            check_task(task, cfg)
            origin, dest, at = task.deliver.origin, task.deliver.dest, task.deliver.at
            rows.append(
                (
                    (origin, dest, at - distance(origin, dest, cfg)),
                    frozenset((b.origin, b.dest) for b in task.silence),
                )
            )
        bans = frozenset().union(*(banned for _, banned in rows))
        judge.append((requirement.rule, rows, bans, {max(s, 0) for (_, _, s), _ in rows}))

    agents = cfg.agents
    horizon = cfg.horizon

    menu: dict[str, list[tuple[str, ...]]] = {}
    for agent in agents:
        others = cfg.others(agent)
        subsets = [()]
        for dest in others:
            subsets += [s + (dest,) for s in subsets]
        menu[agent] = sorted((tuple(sorted(s)) for s in subsets), key=lambda s: (len(s), s))
    lag = {o: [distance(a, o, cfg) for a in agents] for o in agents}

    runs = [Run(cfg, requirement.scenario) for requirement in requirements]
    slots = [(t, run, agent) for t in range(horizon + 1) for run in runs for agent in agents]
    slice_len = len(runs) * len(agents)
    n_slots = len(slots)
    assignment: RawAssignment = {}
    point_order: list[RawKey] = []
    point_seen: set[RawKey] = set()
    branches = 0
    leaf_failures: list[int] = []
    # Per applied slot j, the slot index of the decision that assigned its
    # key (j itself, or an earlier run's slot of the same agent and time).
    origins: list[int] = []
    decided: dict[RawKey, int] = {}

    def first_lost(t: int) -> int | None:
        """Index of the first requirement already lost once slice ``t`` is done.

        A task is lost when a banned departure is present or its delivering
        departure is due by ``t`` and absent; no later slot can undo either.
        At ``t = horizon`` every delivering departure is due, and its arrival
        exists iff it does, so "not lost" is then "satisfied". Once every
        earlier slice has passed this test, only a requirement with a task due
        at ``t`` or a banned departure at ``t`` can be newly lost.
        """
        for ri, (run, (rule, rows, bans, dues)) in enumerate(zip(runs, judge)):
            got = run.departures
            if every_slice and t not in dues and not any((o, d, t) in got for o, d in bans):
                continue
            sent = {(o, d) for o, d, _ in got}
            lost = [
                (s <= t and (o, d, s) not in got) or not banned.isdisjoint(sent)
                for (o, d, s), banned in rows
            ]
            if any(lost) if rule is Rule.ALL else all(lost):
                return ri
        return None

    def conflict_set(ri: int, t: int) -> set[int]:
        """Decisions that fix requirement ``ri``'s loss by slice ``t``.

        Each lost task has a culprit slot (t', o): its earliest banned
        departure, else its overdue delivering departure (none when that was
        due before 0). Whether that departure happened depends only on the
        keys of the run's slots (t'', a) with t'' + dist(a, o) <= t', and
        every branch keeping their decisions loses ``ri`` again. Rule
        ``all`` needs one lost task, the earliest culprit; ``at_least_one``
        needs them all.
        """
        rule, rows, _, _ = judge[ri]
        got = runs[ri].departures
        culprits = []
        for (o, d, s), banned in rows:
            bans = [(t1, o1) for o1, d1, t1 in got if (o1, d1) in banned]
            if bans:
                culprits.append(min(bans))
            elif s <= t and (o, d, s) not in got:
                culprits.append((s, o))
        if rule is Rule.ALL:
            culprits = [min(culprits)]
        conflict: set[int] = set()
        for t1, o in culprits:
            for ai, d in enumerate(lag[o]):
                first = ri * len(agents) + ai
                if t1 >= d:
                    conflict.update(origins[first:(t1 - d) * slice_len + first + 1:slice_len])
        return conflict

    def count_branch() -> None:
        nonlocal branches
        if branches >= limits.max_branches:
            raise _Abort("branches")
        branches += 1
        if on_leaf is not None:
            on_leaf(assignment)

    def walk() -> Found | None:
        # One frame per applied slot, so frame j is slot j: (history key, undo
        # record or () for no sends, index of the action in the agent's menu,
        # or -1 where the key was assigned earlier).
        stack: list[tuple[RawKey, list, int]] = []
        # Per decision frame, the conflicts carried back to it by later jumps.
        carried: dict[int, set[int]] = {}
        # The key each slot last had. A key at t reads only sends made before
        # t, so after a jump to slot h the rest of h's slice keeps its keys.
        keys: list[RawKey | None] = [None] * n_slots
        reuse_end = 0
        while True:
            slot_idx = len(stack)
            failing = None
            if slot_idx == n_slots:
                count_branch()
                lost_at = horizon
                failing = first_lost(lost_at)
                if failing is None:
                    strategy = strategy_from_raw(assignment)
                    reports = tuple(
                        evaluate_requirement(cfg, strategy, requirement, tasks)
                        for requirement in requirements
                    )
                    assert all(r.satisfied for r in reports)
                    return Found(strategy, reports)
            elif every_slice and slot_idx % slice_len == 0 and slot_idx:
                lost_at = slot_idx // slice_len - 1
                failing = first_lost(lost_at)
                if failing is not None:
                    count_branch()

            if failing is None:
                t, run, agent = slots[slot_idx]
                if slot_idx < reuse_end:
                    key = keys[slot_idx]
                else:
                    key = keys[slot_idx] = run.key(t, agent)
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
                    decided[key] = slot_idx
                origins.append(decided[key])
                stack.append((key, sends and run.apply(t, agent, sends), choice))
                continue

            leaf_failures.append(failing)
            # The frames to jump back over: None stands for every decision
            # frame, which makes the jump chronological backtracking.
            conflict = conflict_set(failing, lost_at) if backjump else None
            while stack and (conflict is None or conflict):
                key, undo, choice = stack.pop()
                origins.pop()
                slot_idx = len(stack)
                t, run, agent = slots[slot_idx]
                if undo:
                    run.unapply(undo)
                if choice < 0:
                    continue
                if conflict is None or slot_idx in conflict:
                    if conflict:
                        conflict.discard(slot_idx)
                        if slot_idx in carried:
                            carried[slot_idx] |= conflict
                        elif conflict:
                            carried[slot_idx] = conflict
                    choice += 1
                    if choice < len(menu[agent]):
                        sends = assignment[key] = menu[agent][choice]
                        origins.append(slot_idx)
                        stack.append((key, sends and run.apply(t, agent, sends), choice))
                        reuse_end = (t + 1) * slice_len
                        break
                    if conflict is not None:
                        conflict = carried.pop(slot_idx, set())
                del assignment[key]
                del decided[key]
                carried.pop(slot_idx, None)
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


class AuditViolation(Record):
    __slots__ = ("pair_index", "agent", "time", "history", "sends")

    def __init__(self, pair_index: int, agent: str, time: int, history: LocalHistory,
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
