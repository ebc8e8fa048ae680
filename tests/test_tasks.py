"""Task predicate, requirement, and bundle tests."""

import pytest

from nosignal import (
    SimulationError,
    SpacetimeConfig,
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
        assert not evaluate_task((frozenset(), frozenset(), frozenset()), tasks["task1"], cfg)

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
        early = (frozenset(), frozenset({("L", "R", 0)}), frozenset({("L", "R", 3)}))
        assert evaluate_task(early, tasks["task1"], cfg)
        shifted = (("L", "R", 2), (("R", "L"),))
        assert not evaluate_task(early, shifted, cfg)

    def test_silence_covers_whole_horizon(self, d3):
        cfg, tasks, _ = d3
        late_chatter = (frozenset(), frozenset({("L", "R", 0), ("R", "L", 3)}), frozenset({("L", "R", 3)}))
        assert not evaluate_task(late_chatter, tasks["task1"], cfg)

    def test_pure_predicate(self, d3):
        cfg, tasks, _ = d3
        trace = execute(cfg, scenario(("task1", "L", 0)), obedient_strategy(cfg, tasks))
        again = tuple(frozenset(part) for part in trace)
        assert evaluate_task(trace, tasks["task1"], cfg) == evaluate_task(again, tasks["task1"], cfg)

    def test_rejects_delivery_beyond_horizon(self, d3):
        cfg, _, _ = d3
        with pytest.raises(ValidationError):
            check_task((("L", "R", 9), ()), cfg)

    def test_checks_the_task_it_is_given(self, d3):
        cfg, _, _ = d3
        with pytest.raises(ValidationError, match="^deliver.to: unknown location 'X'$"):
            evaluate_task((frozenset(), frozenset(), frozenset()), (("L", "X", 3), ()), cfg)


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
        assert evaluate_requirement(cfg, obedient_strategy(cfg, tasks), r1, tasks) == ({"task1": True}, True)

    def test_dual_request_at_least_one_unsatisfied(self, d3):
        cfg, tasks, (_, _, r3) = d3
        verdicts, satisfied = evaluate_requirement(cfg, obedient_strategy(cfg, tasks), r3, tasks)
        assert not satisfied
        assert list(verdicts.items()) == [("task1", False), ("task2", False)]  # in task-id order

    def test_idle_strategy_fails(self, d3):
        cfg, tasks, (r1, _, _) = d3
        _, satisfied = evaluate_requirement(cfg, {}, r1, tasks)
        assert not satisfied

    def test_all_rule_is_vacuous_on_empty_scenario(self, d3):
        cfg, tasks, _ = d3
        assert evaluate_requirement(cfg, {}, (frozenset(), "all"), tasks) == ({}, True)

    def test_at_least_one_needs_requests(self, d3):
        cfg, tasks, _ = d3
        with pytest.raises(ValidationError, match="^at_least_one over an empty scenario$"):
            evaluate_requirement(cfg, {}, (frozenset(), "at_least_one"), tasks)

    def test_one_request_per_slot(self, d3):
        """Each request names one slot and one defined task."""
        cfg, tasks, _ = d3
        requirement = (scenario(("task1", "L", 0), ("task2", "L", 0)), "at_least_one")
        with pytest.raises(ValidationError, match=r"^duplicate request slot \('L', 0\)$"):
            evaluate_requirement(cfg, obedient_strategy(cfg, tasks), requirement, tasks)
        with pytest.raises(ValidationError, match="^scenario references undefined task 'nope'$"):
            evaluate_requirement(cfg, obedient_strategy(cfg, tasks), (scenario(("nope", "L", 0)), "all"), tasks)

    def test_a_requested_task_is_checked_after_a_reached_send(self, d3):
        """The first fault raised is the one met first when each value is
        checked where it is used: a reached row's send, then a requested
        task. An unrequested task is not checked."""
        cfg, _, _ = d3
        tasks = {"task1": (("L", "X", 3), ()), "task2": (("R", "R", 3), ())}
        requirement = (scenario(("task1", "L", 0)), "all")
        with pytest.raises(ValidationError, match="^deliver.to: unknown location 'X'$"):
            evaluate_requirement(cfg, {}, requirement, tasks)
        self_send = {("L", 0, ((0, "request", "task1"),)): ("L",)}
        with pytest.raises(ValidationError, match="^agent 'L' cannot send to itself$"):
            evaluate_requirement(cfg, self_send, requirement, tasks)


    @pytest.mark.parametrize("rule", ["all", "at_least_one"])
    def test_a_rule_is_its_json_name(self, d3, rule):
        """The rule is taken as the document spells it. Only task1 is sent
        for, so of the two requested tasks one succeeds."""
        cfg, tasks, (_, _, r3) = d3
        only_task1 = {("L", 0, ((0, "request", "task1"),)): ("R",)}
        assert evaluate_requirement(cfg, only_task1, (r3[0], rule), tasks) == (
            {"task1": True, "task2": False}, rule == "at_least_one")

    @pytest.mark.parametrize("rule", ["bogus", "ALL", None])
    def test_a_rule_that_is_no_rule_is_refused(self, d3, rule):
        cfg, tasks, (_, _, r3) = d3
        with pytest.raises(ValidationError, match=f"^rule: expected 'all' or 'at_least_one', got {rule!r}$"):
            evaluate_requirement(cfg, obedient_strategy(cfg, tasks), (r3[0], rule), tasks)


class TestParadoxRequirements:
    def test_canonical_bundle(self, d3):
        cfg, tasks, _ = d3
        r1, r2, r3 = paradox_requirements(cfg, tasks, "task1", "task2")
        assert r1 == (scenario(("task1", "L", 0)), "all")
        assert r2 == (scenario(("task2", "R", 0)), "all")
        assert r3 == (scenario(("task1", "L", 0), ("task2", "R", 0)), "at_least_one")

    def test_duplicate_task_rejected(self, d3):
        cfg, tasks, _ = d3
        with pytest.raises(ValidationError, match="^need two distinct tasks, got 'task1' twice$"):
            paradox_requirements(cfg, tasks, "task1", "task1")

    def test_undefined_task_rejected(self, d3):
        cfg, tasks, _ = d3
        with pytest.raises(ValidationError, match="^undefined task 'task3'$"):
            paradox_requirements(cfg, tasks, "task1", "task3")

    def test_tasks_from_one_origin_rejected(self, d3):
        """Both requests would take the origin's slot at t=0."""
        cfg, tasks, _ = d3
        same_origin = {**tasks, "task3": (("L", "R", 3), ())}
        with pytest.raises(ValidationError, match=r"^duplicate request slot \('L', 0\)$"):
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
    requests, departures, arrivals = trace
    return (
        frozenset((SWAP_TASK[task], SWAP[loc], t) for task, loc, t in requests),
        frozenset((SWAP[o], SWAP[d], t) for o, d, t in departures),
        frozenset((SWAP[o], SWAP[d], t) for o, d, t in arrivals),
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
