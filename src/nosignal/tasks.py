"""Task predicates, requirement bundles, and their evaluation against traces.

A task is the raw tuple ``((origin, dest, at), bans)``. It succeeds on a
trace when its single delivery atom is matched by an arrival at exactly the
requested time and none of its silence bans is broken by any departure over
the whole run. A requirement is the raw pair ``(requests, rule)``, a
scenario and whether every requested task must succeed or any one
suffices; a set of requirements is the requester's whole range of freedom.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum

from .errors import UnknownLocation, ValidationError
from .protocol import RawAssignment, Scenario, Trace, execute
from .record import Record
from .spacetime import SpacetimeConfig


Task = tuple[tuple[str, str, int], tuple[tuple[str, str], ...]]  # ((origin, dest, at), bans)


class Rule(str, Enum):
    ALL = "all"
    AT_LEAST_ONE = "at_least_one"


Requirement = tuple[Scenario, Rule]  # (requests, rule)


def check_requirement(scenario: Scenario, rule: Rule) -> None:
    """Rule ``at_least_one`` needs a request to succeed on."""
    if rule is Rule.AT_LEAST_ONE and not scenario:
        raise ValidationError("at_least_one over an empty scenario")


class RequirementReport(Record):
    """Per-task verdicts for one requirement and the combined outcome."""

    __slots__ = ("requirement", "verdicts", "satisfied")

    def __init__(self, requirement: Requirement, verdicts: dict[str, bool], satisfied: bool):
        self._fill(requirement, verdicts, satisfied)


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
        raise UnknownLocation(f"{field}: unknown location {loc!r}")
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
    """Pure predicate: delivery arrived exactly on time and silence held."""
    check_task(task, cfg)
    delivery, bans = task
    return delivery in trace.arrivals and (
        not bans or set(bans).isdisjoint([(origin, dest) for origin, dest, _ in trace.departures]))


def evaluate_requirement(
    cfg: SpacetimeConfig,
    strategy: RawAssignment,
    requirement: Requirement,
    tasks: Mapping[str, Task],
    slots: list[tuple[int, str]] | None = None,
) -> RequirementReport:
    """Execute the requirement's scenario once (``slots`` as for ``execute``) and judge each task."""
    scenario, rule = requirement
    check_requirement(scenario, rule)
    trace = execute(cfg, scenario, strategy, slots)
    verdicts = {
        task_id: evaluate_task(trace, task, cfg)
        for task_id, task in requested_tasks(scenario, tasks).items()
    }
    combine = all if rule is Rule.ALL else any
    return RequirementReport(requirement, verdicts, combine(verdicts.values()))
