import json

import pytest

from nosignal import SpacetimeConfig
from nosignal.config import strategy_rows
from nosignal.audit import paradox_requirements


def make_instance(gap: int):
    """Canonical two-lab instance: labs a distance ``gap`` apart, horizon ``gap``."""
    cfg = SpacetimeConfig({"L": 0, "R": gap}, horizon=gap)
    tasks = {"task1": (("L", "R", gap), (("R", "L"),)), "task2": (("R", "L", gap), (("L", "R"),))}
    return cfg, tasks, paradox_requirements(cfg, tasks, "task1", "task2")


def oracle_scenarios(requirements, tasks):
    """Requirements in the plain-tuple form the test oracles consume."""
    out = []
    for requests, rule in requirements:
        rows = [(tasks[tid][0], set(tasks[tid][1])) for tid in sorted({tid for tid, _, _ in requests})]
        out.append((list(requests), rule, rows))
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
                "deliver": {"from": origin, "to": dest, "at": at},
                "silence": [{"from": o, "to": d} for o, d in bans],
            }
            for task_id, ((origin, dest, at), bans) in sorted(doc.tasks.items())
        },
        "scenarios": {
            name: [{"task": task, "location": loc, "time": t}
                   for task, loc, t in sorted(doc.scenarios[name])]
            for name in sorted(doc.scenarios)
        },
        "requirements": [{"scenario": name, "rule": rule} for name, rule in doc.requirements],
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
