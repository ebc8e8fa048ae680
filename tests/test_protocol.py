"""Executor, histories, and strategy tests, including the locality property."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
from nosignal import (
    SimulationError,
    SpacetimeConfig,
    ValidationError,
    causal_leq,
    execute,
    local_history,
    obedient_strategy,
    signal_arrival,
)
from nosignal.audit import check_event, check_trace
from nosignal.protocol import Run, _execute, check_slots
from oracles import mini_execute


def scenario(*requests):
    return frozenset(requests)


CFG3 = SpacetimeConfig({"L": 0, "R": 3}, horizon=3)
EMPTY = (frozenset(), frozenset(), frozenset())  # the trace (requests, departures, arrivals) of no run


@pytest.mark.parametrize("call", [
    lambda: SpacetimeConfig({"L": 0}, horizon=3),
    lambda: SpacetimeConfig({"L": 0, "R": 0}, horizon=3),
    lambda: SpacetimeConfig({"L": 0, "R": 3}, horizon=0),
    lambda: check_event(("L", 4), CFG3),
    lambda: signal_arrival("L", "R", 4, CFG3),
    lambda: check_trace((frozenset(), frozenset(), frozenset({("L", "R", 3)})), CFG3),
    lambda: check_trace((frozenset(), frozenset({("L", "R", 0)}), frozenset()), CFG3),
    lambda: local_history(EMPTY, "L", 4, CFG3),
], ids=["one-location", "shared-coordinate", "zero-horizon", "event-time",
        "departure-time", "orphan-arrival", "lost-arrival", "history-time"])
def test_input_errors_are_simulation_errors(call):
    """Every rejected input raises the package's error type, still a ValueError."""
    with pytest.raises(SimulationError) as raised:
        call()
    assert isinstance(raised.value, ValueError)


class TestLocalHistory:
    def test_request_visible_at_submission_time(self, d3):
        cfg, tasks, _ = d3
        trace = execute(cfg, scenario(("task1", "L", 0)), obedient_strategy(cfg, tasks))
        assert local_history(trace, "L", 0, cfg) == ("L", 0, ((0, "request", "task1"),))

    def test_remote_request_invisible(self, d3):
        cfg, tasks, _ = d3
        trace = execute(cfg, scenario(("task1", "L", 0)), obedient_strategy(cfg, tasks))
        assert local_history(trace, "R", 0, cfg) == ("R", 0, ())

    def test_signal_arrival_enters_history(self, d3):
        cfg, tasks, _ = d3
        trace = execute(cfg, scenario(("task1", "L", 0)), obedient_strategy(cfg, tasks))
        assert local_history(trace, "R", 3, cfg) == ("R", 3, ((3, "signal", "L"),))


class TestExecute:
    def test_single_request_produces_one_signal(self, d3):
        cfg, tasks, _ = d3
        requests = scenario(("task1", "L", 0))
        trace = execute(cfg, requests, obedient_strategy(cfg, tasks))
        assert trace == (requests, {("L", "R", 0)}, {("L", "R", 3)})

    def test_empty_scenario_is_silent(self, d3):
        cfg, tasks, _ = d3
        assert execute(cfg, frozenset(), obedient_strategy(cfg, tasks)) == EMPTY

    def test_dual_request_sends_both_signals(self, d3):
        cfg, tasks, _ = d3
        _, departures, _ = execute(
            cfg,
            scenario(("task1", "L", 0), ("task2", "R", 0)),
            obedient_strategy(cfg, tasks),
        )
        assert departures == {("L", "R", 0), ("R", "L", 0)}

    def test_deterministic(self, d3):
        cfg, tasks, _ = d3
        s = scenario(("task1", "L", 0), ("task2", "R", 0))
        strategy = obedient_strategy(cfg, tasks)
        assert execute(cfg, s, strategy) == execute(cfg, s, strategy)

    def test_rejects_unknown_request_location(self, d3):
        cfg, tasks, _ = d3
        with pytest.raises(ValidationError, match="^location: unknown location 'X'$"):
            execute(cfg, scenario(("task1", "X", 0)), obedient_strategy(cfg, tasks))

    def test_rejects_request_beyond_horizon(self, d3):
        cfg, tasks, _ = d3
        with pytest.raises(ValidationError, match=r"^time: 9 outside \[0, 3\]$"):
            execute(cfg, scenario(("task1", "L", 9)), obedient_strategy(cfg, tasks))

    def test_rejection_names_the_same_request_under_every_hash_seed(self):
        """With several bad requests, the one named must not depend on set order:
        three unknown labs, or slots taken twice and three times."""
        probe = (
            "from nosignal import SpacetimeConfig\n"
            "from nosignal.protocol import check_scenario\n"
            "for slots in (['b0', 'a0', 'c0'], ['R1', 'L2', 'L2', 'R1', 'R1']):\n"
            "    requests = frozenset((f't{i}', lab, int(t)) for i, (lab, t) in enumerate(slots))\n"
            "    try:\n"
            "        check_scenario(requests, SpacetimeConfig({'L': 0, 'R': 3}, 3))\n"
            "    except Exception as err:\n"
            "        print(type(err).__name__, err)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        messages = {
            subprocess.run(
                [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)},
            ).stdout
            for seed in range(6)
        }
        assert messages == {"ValidationError location: unknown location 'b'\n"
                            "ValidationError duplicate request slot ('L', 2)\n"}

    def test_one_request_per_slot(self, d3):
        cfg, tasks, _ = d3
        with pytest.raises(ValidationError, match=r"^duplicate request slot \('L', 0\)$"):
            execute(cfg, scenario(("task1", "L", 0), ("task2", "L", 0)), obedient_strategy(cfg, tasks))
        with pytest.raises(ValidationError, match=r"^duplicate request slot \('L', 0\)$"):
            check_slots([("task1", "L", 0)] * 2)  # the same request given twice

    def test_late_departure_never_arrives(self, d3):
        cfg, _, _ = d3
        strategy = {("L", 2, ()): ("R",)}
        trace = execute(cfg, frozenset(), strategy)
        assert trace == (frozenset(), {("L", "R", 2)}, frozenset())  # would arrive at 5 > horizon
        check_trace(trace, cfg)


class TestReachability:
    """Only rows an agent's actual history matches are executed."""

    def test_reached_self_send_raises(self, d3):
        cfg, _, _ = d3
        strategy = {("R", 1, ()): ("R",)}
        with pytest.raises(ValidationError, match="^agent 'R' cannot send to itself$"):
            execute(cfg, frozenset(), strategy)

    def test_reached_send_to_unknown_lab_raises(self, d3):
        cfg, _, _ = d3
        strategy = {("L", 0, ()): ("Z",)}
        with pytest.raises(ValidationError, match="^unknown location 'Z'$"):
            execute(cfg, frozenset(), strategy)

    def test_reached_repeated_send_raises(self, d3):
        cfg, _, _ = d3
        strategy = {("L", 0, ()): ("R", "R")}
        with pytest.raises(ValidationError, match="^agent 'L' sends to 'R' more than once$"):
            execute(cfg, frozenset(), strategy)

    def test_unreached_rows_are_ignored(self, d3):
        cfg, _, _ = d3
        strategy = {
            ("R", 1, ((0, "request", "task2"),)): ("R",),
            ("L", cfg.horizon + 2, ()): ("Z",),
            ("X", 0, ()): ("L",),
        }
        assert execute(cfg, frozenset(), strategy) == EMPTY

    def test_looks_up_only_the_slots_the_table_names(self, d3, monkeypatch):
        cfg, _, _ = d3
        calls = []
        key = Run.key

        def counted(run, t, agent):
            calls.append((agent, t))
            return key(run, t, agent)

        monkeypatch.setattr(Run, "key", counted)
        strategy = {
            ("L", 0, ((0, "request", "task1"),)): ("R",),
            ("L", 0, ()): (),
            ("R", 3, ((3, "signal", "L"),)): ("L",),
            ("R", cfg.horizon + 1, ()): ("L",),
        }
        _, departures, _ = execute(cfg, scenario(("task1", "L", 0)), strategy)
        assert sorted(calls) == [("L", 0), ("R", 3)]
        assert departures == {("L", "R", 0), ("R", "L", 3)}


class TestObedientStrategy:
    def test_sends_on_request(self, d3):
        cfg, tasks, _ = d3
        strategy = obedient_strategy(cfg, tasks)
        assert strategy.get(("L", 0, ((0, "request", "task1"),)), ()) == ("R",)

    def test_idle_without_request(self, d3):
        cfg, tasks, _ = d3
        strategy = obedient_strategy(cfg, tasks)
        assert strategy.get(("R", 0, ()), ()) == ()

    def test_symmetric_task(self, d3):
        cfg, tasks, _ = d3
        strategy = obedient_strategy(cfg, tasks)
        assert strategy.get(("R", 0, ((0, "request", "task2"),)), ()) == ("L",)

    def test_unachievable_delivery_rejected(self):
        cfg, tasks, _ = make_instance(3)
        too_late = {"t": (("L", "R", 2), ())}  # needs submit at -1
        with pytest.raises(ValidationError, match="^task 't': delivery at t=2 comes sooner than "
                                                   "the 3 steps a signal from 'L' takes to reach 'R'$"):
            obedient_strategy(cfg, too_late)


# --- randomized properties ---------------------------------------------------

LOCATION_POOLS = ({"L": 0, "R": 1}, {"L": 0, "R": 2}, {"A": 0, "B": 1, "C": 3})
TASK_NAMES = ("a", "b")


@st.composite
def worlds(draw):
    """A small config, two scenarios, and a strategy biased to actually fire."""
    cfg = SpacetimeConfig(dict(draw(st.sampled_from(LOCATION_POOLS))),
                          draw(st.integers(1, 3)))

    def draw_scenario():
        slots = [(loc, t) for loc in cfg.agents for t in range(cfg.horizon + 1)]
        chosen = draw(st.lists(st.sampled_from(slots), unique=True, max_size=3))
        return frozenset((draw(st.sampled_from(TASK_NAMES)), loc, t) for loc, t in chosen)

    s1, s2 = draw_scenario(), draw_scenario()

    table = {}
    # request-triggered rows, so signals actually flow
    for task, loc, t in sorted(s1 | s2):
        if draw(st.booleans()):
            key = (loc, t, ((t, "request", task),))
            sends = draw(st.lists(st.sampled_from(cfg.others(loc)), unique=True))
            table[key] = tuple(sorted(sends))
    # a few arbitrary rows, including signal-reactive ones
    for _ in range(draw(st.integers(0, 3))):
        agent = draw(st.sampled_from(cfg.agents))
        upto = draw(st.integers(0, cfg.horizon))
        events = []
        if draw(st.booleans()):
            events.append((draw(st.integers(0, upto)), "request", draw(st.sampled_from(TASK_NAMES))))
        if draw(st.booleans()):
            origin = draw(st.sampled_from(cfg.others(agent)))
            events.append((draw(st.integers(0, upto)), "signal", origin))
        sends = draw(st.lists(st.sampled_from(cfg.others(agent)), unique=True))
        table[(agent, upto, tuple(sorted(events)))] = tuple(sorted(sends))
    return cfg, s1, s2, table


@st.composite
def run_moves(draw):
    """A 2-4-lab config, a scenario, and distinct (t, agent, sends) moves."""
    labs = "ABCD"[:draw(st.integers(2, 4))]
    coords = draw(st.lists(st.integers(0, 6), min_size=len(labs), max_size=len(labs), unique=True))
    cfg = SpacetimeConfig(dict(zip(labs, coords)), draw(st.integers(1, 5)))
    slots = [(t, agent) for t in range(cfg.horizon + 1) for agent in cfg.agents]
    requested = draw(st.lists(st.sampled_from(slots), unique=True, max_size=3))
    scene = frozenset((f"task{i}", agent, t) for i, (t, agent) in enumerate(requested))
    moves = [
        (t, agent, tuple(draw(st.lists(st.sampled_from(cfg.others(agent)), unique=True))))
        for t, agent in draw(st.lists(st.sampled_from(slots), unique=True, max_size=8))
    ]
    return cfg, scene, moves


@given(run_moves())
@settings(max_examples=200, deadline=None)
def test_run_unapply_restores_the_run(case):
    """Unapplying moves in reverse leaves departures, received events and keys
    as they were; an agent's list, once made, may stay behind empty."""
    cfg, scene, moves = case
    run = Run(cfg, scene)
    slots = [(t, agent) for t in range(cfg.horizon + 1) for agent in cfg.agents]
    before = ({a: list(events) for a, events in run.received.items() if events},
              [run.key(t, agent) for t, agent in slots])
    for move in moves:
        run.apply(*move)
    assert run.departures == {(agent, dest, t) for t, agent, sends in moves for dest in sends}
    for move in reversed(moves):
        run.unapply(*move)
    assert run.departures == set()
    assert ({a: list(events) for a, events in run.received.items() if events},
            [run.key(t, agent) for t, agent in slots]) == before


def observed_sends(trace, agent, t):
    _, departures, _ = trace
    return frozenset(d for o, d, tt in departures if o == agent and tt == t)


@given(worlds())
@settings(max_examples=200, deadline=None)
def test_locality_property(world):
    """Equal local histories at t imply equal observed behavior at t."""
    cfg, s1, s2, strategy = world
    trace1 = execute(cfg, s1, strategy)
    trace2 = execute(cfg, s2, strategy)
    for agent in cfg.agents:
        for t in range(cfg.horizon + 1):
            h1 = local_history(trace1, agent, t, cfg)
            h2 = local_history(trace2, agent, t, cfg)
            if h1 == h2:
                assert observed_sends(trace1, agent, t) == observed_sends(trace2, agent, t)


@given(worlds())
@settings(max_examples=200, deadline=None)
def test_local_history_is_the_run_key(world):
    """The audit's history, rebuilt from the finished trace, is the key the executor stepped on."""
    cfg, s1, s2, strategy = world
    for s in (s1, s2):
        trace = execute(cfg, s, strategy)
        run = Run(cfg, s)
        for t in range(cfg.horizon + 1):
            for agent in cfg.agents:
                key = run.key(t, agent)
                assert local_history(trace, agent, t, cfg) == key
                run.apply(t, agent, strategy.get(key, ()))


@given(worlds())
@settings(max_examples=200, deadline=None)
def test_trace_consistency_property(world):
    """Arrival/departure matching invariants hold for every executor output."""
    cfg, s1, s2, strategy = world
    for s in (s1, s2):
        trace = execute(cfg, s, strategy)
        check_trace(trace, cfg)
        assert execute(cfg, s, strategy) == trace


@given(worlds())
@settings(max_examples=200, deadline=None)
def test_execute_matches_oracle_executor(world):
    """``execute`` and the independent tuple executor agree on every run."""
    cfg, s1, s2, strategy = world
    for s in (s1, s2):
        requests = list(s)
        assert execute(cfg, s, strategy) == (s, *mini_execute(cfg.locations, cfg.horizon, requests, strategy))


@given(worlds())
@settings(max_examples=200, deadline=None)
def test_runs_stepped_together_see_only_their_own_sends(world):
    """The kernel steps every scenario's run at each slot, yet each trace is
    the one ``execute`` and the oracle executor give that scenario alone."""
    cfg, s1, s2, strategy = world
    scenarios = (s1, s2, frozenset())
    traces = _execute(cfg, scenarios, strategy)
    assert traces == [execute(cfg, s, strategy) for s in scenarios]
    assert traces == [(s, *mini_execute(cfg.locations, cfg.horizon, list(s), strategy)) for s in scenarios]


# --- causal influence --------------------------------------------------------

def influence_strategies(cfg):
    """Obedient-like, reactive, and spontaneous tables for the 2-cell lattice."""
    react = {}
    for agent in cfg.agents:
        other = cfg.others(agent)[0]
        react[(agent, 0, ((0, "request", "a" if agent == "L" else "b"),))] = (other,)
        react[(agent, 1, ((1, "signal", other),))] = (other,)
    spontaneous = {("L", 1, ()): ("R",)}
    return [{}, react, {**react, **spontaneous}]


def changed_events(before, after):
    """Events hosting any trace element that differs between two traces."""
    (requests, departures, arrivals), (requests2, departures2, arrivals2) = before, after
    events = {(loc, t) for _, loc, t in requests ^ requests2}
    events |= {(o, t) for o, _, t in departures ^ departures2}
    events |= {(d, t) for _, d, t in arrivals ^ arrivals2}
    return events


def test_influence_respects_light_cone():
    """Adding one request changes the trace only inside its causal future."""
    cfg = SpacetimeConfig({"L": 0, "R": 1}, horizon=2)
    candidates = [
        (task, loc, t)
        for task in ("a", "b")
        for loc in cfg.agents
        for t in range(cfg.horizon + 1)
    ]
    bases = [frozenset()]
    bases += [frozenset({r}) for r in candidates]
    bases += [
        frozenset(pair)
        for pair in itertools.combinations(candidates, 2)
        if len({(loc, t) for _, loc, t in pair}) == 2
    ]
    checked = 0
    for strategy in influence_strategies(cfg):
        for base in bases:
            taken = {(loc, t) for _, loc, t in base}
            before = execute(cfg, base, strategy)
            for extra in candidates:
                _, loc, t = extra
                if (loc, t) in taken:
                    continue
                after = execute(cfg, base | {extra}, strategy)
                source = (loc, t)
                for event in changed_events(before, after):
                    assert causal_leq(source, event, cfg), (base, extra, event)
                checked += 1
    assert checked > 500
