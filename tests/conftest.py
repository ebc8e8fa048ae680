import json

import pytest

from nosignal import Deliver, Silence, SpacetimeConfig, TaskSpec
from nosignal.config import strategy_rows
from nosignal.tasks import paradox_requirements


def make_instance(gap: int):
    """Canonical two-lab instance: labs a distance ``gap`` apart, horizon ``gap``."""
    cfg = SpacetimeConfig({"L": 0, "R": gap}, horizon=gap)
    task1 = TaskSpec("task1", Deliver("L", "R", gap), (Silence("R", "L"),))
    task2 = TaskSpec("task2", Deliver("R", "L", gap), (Silence("L", "R"),))
    tasks = {"task1": task1, "task2": task2}
    return cfg, tasks, paradox_requirements(cfg, task1, task2)


def oracle_scenarios(requirements, tasks):
    """Requirements in the plain-tuple form the test oracles consume."""
    out = []
    for req in requirements:
        requests = list(req.scenario.requests)
        rows = [
            (
                (tasks[tid].deliver.origin, tasks[tid].deliver.dest, tasks[tid].deliver.at),
                {(b.origin, b.dest) for b in tasks[tid].silence},
            )
            for tid in req.scenario.task_ids()
        ]
        out.append((requests, req.rule.value, rows))
    return out


@pytest.fixture(scope="session")
def d3():
    return make_instance(3)


def serialize_config(doc) -> str:
    """JSON text of a config document; ``load_config`` of it gives ``doc`` back."""
    payload: dict[str, object] = {
        "locations": {name: doc.spacetime.locations[name] for name in sorted(doc.spacetime.locations)},
        "horizon": doc.spacetime.horizon,
        "tasks": {
            task_id: {
                "deliver": {"from": task.deliver.origin, "to": task.deliver.dest, "at": task.deliver.at},
                "silence": [{"from": ban.origin, "to": ban.dest} for ban in task.silence],
            }
            for task_id, task in sorted(doc.tasks.items())
        },
        "scenarios": {
            name: [{"task": task, "location": loc, "time": t}
                   for task, loc, t in sorted(doc.scenarios[name].requests)]
            for name in sorted(doc.scenarios)
        },
        "requirements": [{"scenario": named.scenario, "rule": named.rule.value}
                         for named in doc.requirements],
    }
    if doc.limits is not None:
        payload["limits"] = {
            "max_branches": doc.limits.max_branches,
            "max_decision_points": doc.limits.max_decision_points,
        }
    return json.dumps(payload, indent=2) + "\n"


def serialize_strategy(strategy) -> str:
    """JSON text of a strategy document, the ``strategy`` object ``search --json`` prints."""
    return json.dumps({"rows": strategy_rows(strategy)}, indent=2) + "\n"
