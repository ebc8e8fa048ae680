"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print. Every tolerance (runtimes, instance sizes, case counts) is pinned
here, not deferred.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from conftest import make_instance, oracle_scenarios, serialize_config, serialize_strategy
from nosignal import (
    Found,
    Impossible,
    SpacetimeConfig,
    evaluate_requirement,
    evaluate_task,
    execute,
    find_strategy,
    mutually_exclusive,
    no_signaling_audit,
    obedient_strategy,
)
from nosignal.cli import main
from nosignal.config import load_config
from nosignal.diagram import render_diagram
import test_spacetime
from oracles import brute_force_joint_satisfiable, decide, recount_assignments

REPO = Path(__file__).resolve().parent.parent
PARADOX = REPO / "configs" / "paradox_d3.json"
SINGLE = REPO / "configs" / "paradox_d3_single.json"
OBEDIENT = REPO / "configs" / "obedient_d3.json"
GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {summary}")
        raise
    print(f"PASS criterion {number}: {summary}")


def test_criterion_1_paradox_reproduction():
    with criterion(1, "three-requirement bundle is Impossible for gaps 1..3, <10s each"):
        for gap in (1, 2, 3):
            cfg, tasks, bundle = make_instance(gap)
            start = time.perf_counter()
            outcome = find_strategy(cfg, bundle, tasks)
            elapsed = time.perf_counter() - start
            assert elapsed < 10.0, f"gap {gap} took {elapsed:.1f}s"
            assert isinstance(outcome, Impossible)
            cert = outcome.certificate
            assert cert.strategies_explored >= 1
            assert len(cert.leaf_failures) == cert.strategies_explored
            assert all(0 <= idx < len(bundle) for idx in cert.leaf_failures)
            assert cert.decision_points


def test_criterion_2_restricted_choice_possibility(tmp_path, capsys):
    with criterion(2, "single-request bundle and dual-alone bundle are both Found"):
        cfg, tasks, (r1, r2, r3) = make_instance(3)

        outcome = find_strategy(cfg, [r1, r2], tasks)
        assert isinstance(outcome, Found)
        for req in (r1, r2):
            assert evaluate_requirement(cfg, outcome.strategy, req, tasks).satisfied
        # independent end-to-end check run over the serialized strategy
        strategy_file = tmp_path / "found.json"
        strategy_file.write_text(serialize_strategy(outcome.strategy))
        assert main(["check", "--config", str(SINGLE), "--strategy", str(strategy_file)]) == 0
        capsys.readouterr()

        alone = find_strategy(cfg, [r3], tasks)
        assert isinstance(alone, Found)
        assert evaluate_requirement(cfg, alone.strategy, r3, tasks).satisfied

        obedient = obedient_strategy(cfg, tasks)
        for req in (r1, r2):
            assert evaluate_requirement(cfg, obedient, req, tasks).satisfied


def test_criterion_3_forced_dual_failure():
    with criterion(3, "obedient dual run sends both signals and fails both tasks"):
        cfg, tasks, _ = make_instance(3)
        dual = frozenset({("task1", "L", 0), ("task2", "R", 0)})
        trace = execute(cfg, dual, obedient_strategy(cfg, tasks))
        assert trace.departures == {("L", "R", 0), ("R", "L", 0)}
        assert not evaluate_task(trace, tasks["task1"], cfg)
        assert not evaluate_task(trace, tasks["task2"], cfg)


def test_criterion_4_mutual_exclusivity_oracle():
    with criterion(4, "closed form and an independent brute force over all 2^8 "
                      "departure sets both refute joint success, <1s"):
        cfg, tasks, _ = make_instance(3)
        pairs = [(a, b) for a in cfg.agents for b in cfg.agents if a != b]
        assert len(pairs) * (cfg.horizon + 1) == 8  # 2 directed pairs x 4 times
        start = time.perf_counter()
        assert mutually_exclusive(cfg, tasks["task1"], tasks["task2"])
        rows = [(delivery, set(bans)) for delivery, bans in tasks.values()]
        assert not brute_force_joint_satisfiable(cfg.locations, cfg.horizon, rows)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def _random_world(rng):
    locations = rng.choice((
        {"L": 0, "R": 1}, {"L": 0, "R": 2}, {"L": 0, "R": 3},
        {"A": 0, "B": 1, "C": 2}, {"A": 0, "B": 2, "C": 3},
    ))
    cfg = SpacetimeConfig(dict(locations), rng.randint(1, 3))

    def random_scenario():
        slots = [(loc, t) for loc in cfg.agents for t in range(cfg.horizon + 1)]
        chosen = rng.sample(slots, rng.randint(0, min(3, len(slots))))
        return frozenset((rng.choice(("a", "b")), loc, t) for loc, t in chosen)

    s1, s2 = random_scenario(), random_scenario()
    table = {}
    for task, loc, t in sorted(s1 | s2):
        if rng.random() < 0.7:
            key = (loc, t, ((t, "request", task),))
            table[key] = tuple(d for d in cfg.others(loc) if rng.random() < 0.6)
    for _ in range(rng.randint(0, 3)):
        agent = rng.choice(cfg.agents)
        upto = rng.randint(0, cfg.horizon)
        events = []
        if rng.random() < 0.5:
            events.append((rng.randint(0, upto), "request", rng.choice(("a", "b"))))
        if rng.random() < 0.5:
            events.append((rng.randint(0, upto), "signal", rng.choice(cfg.others(agent))))
        sends = tuple(d for d in cfg.others(agent) if rng.random() < 0.5)
        table[(agent, upto, tuple(sorted(events)))] = sends
    return cfg, s1, s2, table


def test_criterion_5_indistinguishability():
    with criterion(5, "left agent cannot see the second request; audit clean on 1000 instances"):
        cfg, tasks, bundle = make_instance(3)
        (single_requests, _), _, (dual_requests, _) = bundle

        def left_key_at_zero(requests):
            events = tuple(sorted(
                (t, "request", task) for task, loc, t in requests
                if loc == "L" and t <= 0
            ))
            return ("L", 0, events)  # arrivals at t=0 are impossible: distance >= 1

        key_single = left_key_at_zero(single_requests)
        key_dual = left_key_at_zero(dual_requests)
        assert key_single == key_dual

        visited = {"leaves": 0}

        def on_leaf(assignment):
            visited["leaves"] += 1
            assert key_single in assignment  # one shared entry: action identical

        outcome = find_strategy(cfg, bundle, tasks, on_leaf=on_leaf)
        assert isinstance(outcome, Impossible)
        assert visited["leaves"] == outcome.certificate.strategies_explored

        rng = random.Random(20260808)
        checks = 0
        for _ in range(1000):
            world_cfg, s1, s2, strategy = _random_world(rng)
            report = no_signaling_audit(world_cfg, strategy, [(s1, s2)])
            assert report.ok
            checks += report.checks
        assert checks > 0


def test_criterion_6_certificate_soundness():
    with criterion(6, "independent decider refutes the bundle and every full-menu assignment "
                      "over the certificate points fails, for gaps 1 and 2"):
        for gap in (1, 2):
            cfg, tasks, bundle = make_instance(gap)
            outcome = find_strategy(cfg, bundle, tasks)
            assert isinstance(outcome, Impossible)
            scenarios = oracle_scenarios(bundle, tasks)
            assert decide(cfg.locations, cfg.horizon, scenarios, 5_000) is False
            cert = outcome.certificate
            total, failed = recount_assignments(
                cfg.locations, cfg.horizon, scenarios, list(cert.decision_points),
            )
            menu_size = 2  # two locations: send to the other one, or not
            assert total == menu_size ** len(cert.decision_points) == 16
            assert failed == total


def test_criterion_7_infrastructure(tmp_path, capsys):
    with criterion(7, "causal order suite, round-trips, goldens, and exit codes all hold"):
        test_spacetime.test_partial_order_exhaustive()
        test_spacetime.test_spacelike_symmetry_exhaustive()

        for path in (PARADOX, SINGLE):
            doc = load_config(path.read_text())
            assert load_config(serialize_config(doc)) == doc

        doc = load_config(PARADOX.read_text())
        obedient = obedient_strategy(doc.spacetime, doc.tasks)
        for name, golden in (("only_task1", "diagram_only_task1.txt"),
                             ("both", "diagram_both.txt"),
                             ("empty", "diagram_empty.txt")):
            trace = execute(doc.spacetime, doc.scenarios[name], obedient)
            assert render_diagram(trace, doc.spacetime) == (GOLDEN / golden).read_text()

        assert main(["simulate", "--config", str(PARADOX), "--scenario", "only_task1"]) == 0
        assert main(["search", "--config", str(PARADOX)]) == 3
        assert main(["search", "--config", str(SINGLE)]) == 0
        assert main(["search", "--config", str(PARADOX), "--limits-branches", "1"]) == 4
        assert main(["check", "--config", str(SINGLE), "--strategy", str(OBEDIENT)]) == 0
        assert main(["check", "--config", str(PARADOX), "--strategy", str(OBEDIENT)]) == 3
        assert main(["simulate", "--config", str(PARADOX), "--scenario", "missing"]) == 2
        assert main(["frobnicate"]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text('{"locations": {"L": 0, "R": 0}, "horizon": 3}')
        assert main(["search", "--config", str(bad)]) == 2
        capsys.readouterr()

        proc = subprocess.run(
            [sys.executable, "-m", "nosignal", "search", "--config", str(PARADOX), "--json"],
            capture_output=True, text=True, cwd=REPO,
        )
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["outcome"] == "impossible"
