"""Task predicates, requirement bundles, and their evaluation against traces.

A task is the raw tuple ``((origin, dest, at), bans)``. It succeeds on a
trace ``(requests, departures, arrivals)`` when its single delivery atom is
matched by an arrival at exactly the requested time and none of its
silence bans is broken by any departure over the whole run. A requirement
is the raw pair ``(requests, rule)``, a scenario and the rule as the
document spells it: ``"all"`` when every requested task must succeed,
``"at_least_one"`` when any one suffices. A set of requirements is the
requester's whole range of freedom. A requirement's report is the pair
``(verdicts, satisfied)``: each requested task's verdict by id, in id
order, and the verdicts combined by the rule. One replay of a strategy
reports on every requirement, stepping each distinct scenario once.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import ValidationError
from .protocol import RawAssignment, Scenario, Trace, _execute as execute, check_scenario
from .spacetime import SpacetimeConfig


Task = tuple[tuple[str, str, int], tuple[tuple[str, str], ...]]  # ((origin, dest, at), bans)


RULES = ("all", "at_least_one")

Requirement = tuple[Scenario, str]  # (requests, rule)
RequirementReport = tuple[dict[str, bool], bool]  # (verdicts, satisfied)


def check_requirement(scenario: Scenario, rule: str) -> None:
    """The rule is one of ``RULES``; ``at_least_one`` needs a request to succeed on."""
    if rule not in RULES:
        raise ValidationError(f"rule: expected 'all' or 'at_least_one', got {rule!r}")
    if rule == "at_least_one" and not scenario:
        raise ValidationError("at_least_one over an empty scenario")


def check_task(task: Task, cfg: SpacetimeConfig) -> None:
    """The task's endpoints differ, its labs exist and its delivery falls within
    the horizon; the first failure in that order, delivery before bans, is raised."""
    (origin, dest, at), bans = task
    labs = cfg.locations
    fine = origin != dest and origin in labs and dest in labs
    for o, d in bans:
        fine = fine and o != d and o in labs and d in labs
    if not fine:
        ends = [("deliver", origin, dest), *((f"silence[{i}]", o, d) for i, (o, d) in enumerate(bans))]
        for field, o, d in ends:
            if o == d:
                raise ValidationError(f"{field}: endpoints must differ")
        field, loc = next((f"{field}.{end}", loc) for field, o, d in ends
                          for end, loc in (("from", o), ("to", d)) if loc not in labs)
        raise ValidationError(f"{field}: unknown location {loc!r}")
    if not 0 <= at <= cfg.horizon:
        raise ValidationError(f"deliver.at: {at} outside [0, {cfg.horizon}]"
                              f"{'; horizon too small' if at > cfg.horizon else ''}")


def requested_tasks(scenario: Scenario, tasks: Mapping[str, Task]) -> dict[str, Task]:
    """The scenario's tasks by id, in id order; each id must name one of ``tasks``."""
    requested = {}
    for task_id in sorted({task for task, _, _ in scenario}):
        if task_id not in tasks:
            raise ValidationError(f"scenario references undefined task {task_id!r}")
        requested[task_id] = tasks[task_id]
    return requested


def evaluate_task(trace: Trace, task: Task, cfg: SpacetimeConfig) -> bool:
    """Pure predicate: delivery arrived exactly on time and silence held.
    ``check_task`` checks the task; the kernel ``_verdicts`` judges it."""
    check_task(task, cfg)
    return _verdicts(trace, {None: task})[None]


# The kernel of ``evaluate_task``: each checked task's verdict, by id in ``tasks``' order.
def _verdicts(trace, tasks):
    _, departures, arrivals = trace
    sent = {(origin, dest) for origin, dest, _ in departures}
    return {task_id: delivery in arrivals and sent.isdisjoint(bans) for task_id, (delivery, bans) in tasks.items()}


def evaluate_requirement(
    cfg: SpacetimeConfig,
    strategy: RawAssignment,
    requirement: Requirement,
    tasks: Mapping[str, Task],
) -> RequirementReport:
    """Execute the requirement's scenario once, judge each task and return
    the report ``(verdicts, satisfied)``.

    ``check_requirement`` and ``check_scenario`` come first, then the
    kernel ``_reports``, which refuses a reached row's bad send and an
    undefined task, then ``check_task`` on each requested task. The
    report is built before that last check, so the first fault raised is
    the one met first when each value is checked where it is used: the
    rule, the scenario, a send, an undefined task, then each task in id
    order."""
    scenario, rule = requirement
    check_requirement(scenario, rule)
    check_scenario(scenario, cfg)
    [report] = _reports(cfg, strategy, (requirement,), tasks)
    for task in requested_tasks(scenario, tasks).values():
        check_task(task, cfg)
    return report


# The kernel of ``evaluate_requirement``: a report per checked requirement, from one replay.
def _reports(cfg, strategy, requirements, tasks):
    scenarios = tuple(dict.fromkeys(scenario for scenario, _ in requirements))
    traces = dict(zip(scenarios, execute(cfg, scenarios, strategy)))
    reports = []
    for scenario, rule in requirements:
        verdicts = _verdicts(traces[scenario], requested_tasks(scenario, tasks))
        reports.append((verdicts, (all if rule == "all" else any)(verdicts.values())))
    return reports
