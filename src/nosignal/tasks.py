"""Task predicates, requirement bundles, and their evaluation against traces.

A task succeeds on a trace when its single delivery atom is matched by an
arrival at exactly the requested time and none of its silence bans is
broken by any departure over the whole run. A requirement pairs a scenario
with a rule saying whether every requested task must succeed or any one
suffices; a set of requirements is the requester's whole range of freedom.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum

from .errors import DuplicateTask, UnknownLocation, ValidationError
from .protocol import Scenario, Strategy, TaskRequest, Trace, execute
from .record import Record
from .spacetime import SpacetimeConfig


class Deliver(Record):
    """Require an arrival ``origin -> dest`` at exactly time ``at``."""

    __slots__ = ("origin", "dest", "at")

    def __init__(self, origin: str, dest: str, at: int):
        if origin == dest:
            raise ValidationError("endpoints must differ")
        self._fill(origin, dest, at)


class Silence(Record):
    """Forbid any departure ``origin -> dest`` at any time in the run."""

    __slots__ = ("origin", "dest")

    def __init__(self, origin: str, dest: str):
        if origin == dest:
            raise ValidationError("endpoints must differ")
        self._fill(origin, dest)


class TaskSpec(Record):
    """Success predicate over traces: one exact delivery plus silence bans."""

    __slots__ = ("id", "deliver", "silence")

    def __init__(self, id: str, deliver: Deliver, silence: tuple[Silence, ...] = ()):
        self._fill(id, deliver, tuple(silence))


class Rule(str, Enum):
    ALL = "all"
    AT_LEAST_ONE = "at_least_one"


class Requirement(Record):
    """One scenario plus how many of its requested tasks must succeed."""

    __slots__ = ("scenario", "rule")

    def __init__(self, scenario: Scenario, rule: Rule):
        if rule is Rule.AT_LEAST_ONE and not scenario.requests:
            raise ValidationError("at_least_one over an empty scenario")
        self._fill(scenario, rule)


class RequirementReport(Record):
    """Per-task verdicts for one requirement and the combined outcome."""

    __slots__ = ("requirement", "verdicts", "satisfied")

    def __init__(self, requirement: Requirement, verdicts: dict[str, bool], satisfied: bool):
        self._fill(requirement, verdicts, satisfied)


def check_task(task: TaskSpec, cfg: SpacetimeConfig) -> None:
    """Every lab the task names exists and its delivery falls within the horizon."""
    deliver = task.deliver
    ends = [("deliver.from", deliver.origin), ("deliver.to", deliver.dest)]
    for i, ban in enumerate(task.silence):
        ends += [(f"silence[{i}].from", ban.origin), (f"silence[{i}].to", ban.dest)]
    for field, loc in ends:
        if loc not in cfg.locations:
            raise UnknownLocation(f"{field}: unknown location {loc!r}")
    if not 0 <= deliver.at <= cfg.horizon:
        raise ValidationError(
            f"deliver.at: {deliver.at} outside [0, {cfg.horizon}]; horizon too small"
        )


def requested_tasks(scenario: Scenario, tasks: Mapping[str, TaskSpec]) -> dict[str, TaskSpec]:
    """The scenario's tasks by id, in id order; each id must name one of ``tasks``."""
    requested = {}
    for task_id in scenario.task_ids():
        if task_id not in tasks:
            raise ValidationError(f"scenario references undefined task {task_id!r}")
        requested[task_id] = tasks[task_id]
    return requested


def evaluate_task(trace: Trace, task: TaskSpec, cfg: SpacetimeConfig) -> bool:
    """Pure predicate: delivery arrived exactly on time and silence held."""
    check_task(task, cfg)
    deliver = task.deliver
    if (deliver.origin, deliver.dest, deliver.at) not in trace.arrivals:
        return False
    banned = {(ban.origin, ban.dest) for ban in task.silence}
    return not any((origin, dest) in banned for origin, dest, _ in trace.departures)


def evaluate_requirement(
    cfg: SpacetimeConfig,
    strategy: Strategy,
    requirement: Requirement,
    tasks: Mapping[str, TaskSpec],
) -> RequirementReport:
    """Execute the requirement's scenario once and judge each requested task."""
    trace = execute(cfg, requirement.scenario, strategy)
    verdicts = {
        task_id: evaluate_task(trace, task, cfg)
        for task_id, task in requested_tasks(requirement.scenario, tasks).items()
    }
    combine = all if requirement.rule is Rule.ALL else any
    return RequirementReport(requirement, verdicts, combine(verdicts.values()))


def paradox_requirements(
    cfg: SpacetimeConfig, task1: TaskSpec, task2: TaskSpec
) -> list[Requirement]:
    """The three-way bundle that creates the choice trap.

    Each task alone must succeed (rules All), and when both are requested
    at t=0 either one would do (rule AtLeastOne). Requests are submitted at
    each task's delivery origin.
    """
    if task1.id == task2.id:
        raise DuplicateTask(f"need two distinct tasks, got {task1.id!r} twice")
    check_task(task1, cfg)
    check_task(task2, cfg)
    single = [
        Requirement(
            Scenario(frozenset({TaskRequest(t.id, t.deliver.origin, 0)})), Rule.ALL
        )
        for t in (task1, task2)
    ]
    both = Requirement(
        Scenario(
            frozenset(
                {
                    TaskRequest(task1.id, task1.deliver.origin, 0),
                    TaskRequest(task2.id, task2.deliver.origin, 0),
                }
            )
        ),
        Rule.AT_LEAST_ONE,
    )
    return [*single, both]
