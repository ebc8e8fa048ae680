"""Task predicate, requirement, and bundle tests."""

import pytest

from nosignal import (
    DuplicateTask,
    InvalidScenario,
    Rule,
    SimulationError,
    SpacetimeConfig,
    Trace,
    ValidationError,
    evaluate_requirement,
    evaluate_task,
    execute,
    obedient_strategy,
    paradox_requirements,
)
from nosignal.tasks import check_task


def scenario(*requests):
    return frozenset(requests)


class TestEvaluateTask:
    def test_obedient_single_request_succeeds(self, d3):
        cfg, tasks, _ = d3
        trace = execute(cfg, scenario(("task1", "L", 0)), obedient_strategy(cfg, tasks))
        assert evaluate_task(trace, tasks["task1"], cfg)

    def test_empty_trace_fails(self, d3):
        cfg, tasks, _ = d3
        assert not evaluate_task(Trace(), tasks["task1"], cfg)

    def test_dual_request_breaks_silence(self, d3):
        cfg, tasks, _ = d3
        trace = execute(
            cfg,
            scenario(("task1", "L", 0), ("task2", "R", 0)),
            obedient_strategy(cfg, tasks),
        )
        assert not evaluate_task(trace, tasks["task1"], cfg)
        assert not evaluate_task(trace, tasks["task2"], cfg)

    def test_arrival_must_be_exactly_on_time(self, d3):
        cfg, tasks, _ = d3
        early = Trace(departures=frozenset({("L", "R", 0)}),
                      arrivals=frozenset({("L", "R", 3)}))
        assert evaluate_task(early, tasks["task1"], cfg)
        shifted = (("L", "R", 2), (("R", "L"),))
        assert not evaluate_task(early, shifted, cfg)

    def test_silence_covers_whole_horizon(self, d3):
        cfg, tasks, _ = d3
        late_chatter = Trace(
            departures=frozenset({("L", "R", 0), ("R", "L", 3)}),
            arrivals=frozenset({("L", "R", 3)}),
        )
        assert not evaluate_task(late_chatter, tasks["task1"], cfg)

    def test_pure_predicate(self, d3):
        cfg, tasks, _ = d3
        trace = execute(cfg, scenario(("task1", "L", 0)), obedient_strategy(cfg, tasks))
        again = Trace(trace.requests, trace.departures, trace.arrivals)
        assert evaluate_task(trace, tasks["task1"], cfg) == evaluate_task(again, tasks["task1"], cfg)

    def test_rejects_delivery_beyond_horizon(self, d3):
        cfg, _, _ = d3
        with pytest.raises(ValidationError):
            check_task((("L", "R", 9), ()), cfg)


# Library input gets the loader's checks and order: endpoints, the delivery's
# before each ban's, then labs, then the delivery time.
CHECK_TASK_FAULTS = [
    ((("L", "L", 3), ()), "deliver: endpoints must differ"),
    ((("L", "X", 9), (("R", "L"), ("R", "R"))), "silence[1]: endpoints must differ"),
    ((("L", "R", 9), (("R", "L"), ("X", "L"))), "silence[1].from: unknown location 'X'"),
    ((("L", "R", 9), ()), "deliver.at: 9 outside [0, 3]; horizon too small"),
    ((("L", "R", -1), ()), "deliver.at: -1 outside [0, 3]"),
]


@pytest.mark.parametrize("task, message", CHECK_TASK_FAULTS)
def test_check_task_raises_the_first_fault(d3, task, message):
    cfg, _, _ = d3
    with pytest.raises(SimulationError) as err:
        check_task(task, cfg)
    assert str(err.value) == message


class TestEvaluateRequirement:
    def test_single_request_all_satisfied(self, d3):
        cfg, tasks, (r1, _, _) = d3
        report = evaluate_requirement(cfg, obedient_strategy(cfg, tasks), r1, tasks)
        assert report.satisfied and report.verdicts == {"task1": True}

    def test_dual_request_at_least_one_unsatisfied(self, d3):
        cfg, tasks, (_, _, r3) = d3
        report = evaluate_requirement(cfg, obedient_strategy(cfg, tasks), r3, tasks)
        assert not report.satisfied
        assert report.verdicts == {"task1": False, "task2": False}

    def test_idle_strategy_fails(self, d3):
        cfg, tasks, (r1, _, _) = d3
        report = evaluate_requirement(cfg, {}, r1, tasks)
        assert not report.satisfied

    def test_all_rule_is_vacuous_on_empty_scenario(self, d3):
        cfg, tasks, _ = d3
        report = evaluate_requirement(cfg, {}, (frozenset(), Rule.ALL), tasks)
        assert report.satisfied and report.verdicts == {}

    def test_at_least_one_needs_requests(self, d3):
        cfg, tasks, _ = d3
        with pytest.raises(ValidationError, match="^at_least_one over an empty scenario$"):
            evaluate_requirement(cfg, {}, (frozenset(), Rule.AT_LEAST_ONE), tasks)

    def test_one_request_per_slot(self, d3):
        cfg, tasks, _ = d3
        requirement = (scenario(("task1", "L", 0), ("task2", "L", 0)), Rule.AT_LEAST_ONE)
        with pytest.raises(InvalidScenario, match=r"^duplicate request slot \('L', 0\)$"):
            evaluate_requirement(cfg, obedient_strategy(cfg, tasks), requirement, tasks)


class TestParadoxRequirements:
    def test_canonical_bundle(self, d3):
        cfg, tasks, _ = d3
        r1, r2, r3 = paradox_requirements(cfg, tasks, "task1", "task2")
        assert r1 == (scenario(("task1", "L", 0)), Rule.ALL)
        assert r2 == (scenario(("task2", "R", 0)), Rule.ALL)
        assert r3 == (scenario(("task1", "L", 0), ("task2", "R", 0)), Rule.AT_LEAST_ONE)

    def test_duplicate_task_rejected(self, d3):
        cfg, tasks, _ = d3
        with pytest.raises(DuplicateTask):
            paradox_requirements(cfg, tasks, "task1", "task1")

    def test_undefined_task_rejected(self, d3):
        cfg, tasks, _ = d3
        with pytest.raises(ValidationError, match="^undefined task 'task3'$"):
            paradox_requirements(cfg, tasks, "task1", "task3")

    def test_tasks_from_one_origin_rejected(self, d3):
        """Both requests would take the origin's slot at t=0."""
        cfg, tasks, _ = d3
        same_origin = {**tasks, "task3": (("L", "R", 3), ())}
        with pytest.raises(InvalidScenario, match=r"^duplicate request slot \('L', 0\)$"):
            paradox_requirements(cfg, same_origin, "task1", "task3")

    def test_swapped_labs_give_symmetric_bundle(self, d3):
        cfg, tasks, bundle = d3
        swapped = {"task1": (("R", "L", 3), (("L", "R"),)), "task2": (("L", "R", 3), (("R", "L"),))}
        got = paradox_requirements(cfg, swapped, "task1", "task2")
        assert got == [relabel_requirement(r) for r in bundle]


# --- relabeling oracle --------------------------------------------------------

SWAP = {"L": "R", "R": "L"}
SWAP_TASK = {"task1": "task2", "task2": "task1"}


def relabel_requirement(req):
    """Swap both labs; task ids stay put, so task1 now runs right-to-left."""
    requests, rule = req
    return frozenset((task, SWAP[loc], t) for task, loc, t in requests), rule


def relabel_cfg(cfg):
    return SpacetimeConfig({SWAP[name]: coord for name, coord in cfg.locations.items()},
                           cfg.horizon)


def relabel_task(task):
    (origin, dest, at), bans = task
    return (SWAP[origin], SWAP[dest], at), tuple((SWAP[o], SWAP[d]) for o, d in bans)


def relabel_trace(trace):
    return Trace(
        frozenset((SWAP_TASK[task], SWAP[loc], t) for task, loc, t in trace.requests),
        frozenset((SWAP[o], SWAP[d], t) for o, d, t in trace.departures),
        frozenset((SWAP[o], SWAP[d], t) for o, d, t in trace.arrivals),
    )


def test_relabeling_symmetry(d3):
    """Swapping L with R and task1 with task2 maps verdicts onto verdicts."""
    cfg, tasks, _ = d3
    mirror_cfg = relabel_cfg(cfg)
    mirror_tasks = {SWAP_TASK[tid]: relabel_task(task) for tid, task in tasks.items()}
    strategy = obedient_strategy(cfg, tasks)
    for requests in (
        [("task1", "L", 0)],
        [("task2", "R", 0)],
        [("task1", "L", 0), ("task2", "R", 0)],
    ):
        trace = execute(cfg, scenario(*requests), strategy)
        mirrored = relabel_trace(trace)
        for tid in tasks:
            assert evaluate_task(trace, tasks[tid], cfg) == evaluate_task(
                mirrored, mirror_tasks[SWAP_TASK[tid]], mirror_cfg
            )
