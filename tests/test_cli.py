"""Config documents, strategy files, diagrams, and the exit-code contract."""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import serialize_config, serialize_strategy
from nosignal import (
    ParseError,
    Rule,
    SearchLimits,
    SimulationError,
    SpacetimeConfig,
    Trace,
    ValidationError,
    cli,
    config,
    evaluate_task,
    execute,
    faults,
    obedient_strategy,
)
from nosignal.cli import main
from nosignal.config import (
    ConfigDocument,
    load_config,
    load_strategy,
    strategy_rows,
)
from nosignal.diagram import render_diagram
from oracles import mini_execute, task_ok

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"

PARADOX = CONFIGS / "paradox_d3.json"
SINGLE = CONFIGS / "paradox_d3_single.json"
OBEDIENT = CONFIGS / "obedient_d3.json"
FOURLAB = GOLDEN.parent / "diagram_4lab.json"
FOURLAB_STRATEGY = GOLDEN.parent / "diagram_4lab_strategy.json"
REPLAY1 = GOLDEN.parent / "replay1_seed0.json"
REPLAY2 = GOLDEN.parent / "replay2_seed0.json"
REPLAY4 = GOLDEN.parent / "replay4_seed0.json"
INVALID_TASK = GOLDEN.parent / "invalid_task.json"  # a task with two faults; CI checks it too
MISSHAPEN_TASK = GOLDEN.parent / "misshapen_task.json"  # its first fault is of shape; CI checks it too


def load_fixture_doc():
    return load_config(PARADOX.read_text())


NAMES = st.text(min_size=1, max_size=3)


@st.composite
def config_documents(draw):
    """A valid config document of 2 to 4 labs, built from the loader's own
    forms, with at least one task, scenario and requirement."""
    labs = draw(st.lists(NAMES, min_size=2, max_size=4, unique=True))
    coords = draw(st.lists(st.integers(-6, 6), min_size=len(labs), max_size=len(labs), unique=True))
    horizon = draw(st.integers(1, 8))
    pairs = st.permutations(labs).map(lambda order: tuple(order[:2]))
    tasks = {}
    for task_id in draw(st.lists(NAMES, min_size=1, max_size=3, unique=True)):
        origin, dest = draw(pairs)
        bans = draw(st.lists(pairs, max_size=3))
        tasks[task_id] = (origin, dest, draw(st.integers(0, horizon))), tuple(bans)
    slots = st.lists(st.tuples(st.sampled_from(labs), st.integers(0, horizon)), max_size=3, unique=True)
    scenarios = {
        name: frozenset([(draw(st.sampled_from(sorted(tasks))), lab, t) for lab, t in draw(slots)])
        for name in draw(st.lists(st.text(max_size=3), min_size=1, max_size=3, unique=True))
    }
    requirements = []
    for name in draw(st.lists(st.sampled_from(sorted(scenarios)), min_size=1, max_size=3)):
        rules = list(Rule) if scenarios[name] else [Rule.ALL]
        requirements.append((name, draw(st.sampled_from(rules))))
    limits = draw(st.none() | st.builds(SearchLimits, st.integers(1, 10**7), st.integers(1, 10**4)))
    return ConfigDocument(SpacetimeConfig(dict(zip(labs, coords)), horizon), tasks, scenarios,
                          requirements, limits)


@st.composite
def strategy_documents(draw):
    """A config document and a strategy of up to 6 rows over its labs and tasks."""
    doc = draw(config_documents())
    cfg = doc.spacetime
    table = {}
    for _ in range(draw(st.integers(0, 6))):
        agent = draw(st.sampled_from(cfg.agents))
        upto = draw(st.integers(0, cfg.horizon))
        times = st.integers(0, upto)
        events = st.tuples(times, st.just("signal"), st.sampled_from(cfg.others(agent)))
        if doc.tasks:
            events |= st.tuples(times, st.just("request"), st.sampled_from(sorted(doc.tasks)))
        key = (agent, upto, tuple(sorted(draw(st.lists(events, max_size=3, unique=True)))))
        table[key] = tuple(sorted(draw(st.lists(st.sampled_from(cfg.others(agent)), unique=True))))
    return doc, table


class TestLoadConfig:
    def test_bundled_document_is_valid(self):
        doc = load_fixture_doc()
        assert doc.spacetime.locations == {"L": 0, "R": 3}
        assert doc.spacetime.horizon == 3
        assert set(doc.tasks) == {"task1", "task2"}
        assert set(doc.scenarios) == {"empty", "only_task1", "only_task2", "both"}
        assert [(name, rule.value) for name, rule in doc.requirements] == [
            ("only_task1", "all"),
            ("only_task2", "all"),
            ("both", "at_least_one"),
        ]

    def test_delivery_beyond_horizon_rejected(self):
        raw = json.loads(PARADOX.read_text())
        raw["tasks"]["task1"]["deliver"]["at"] = 5
        with pytest.raises(ValidationError, match=r"tasks\.task1\.deliver\.at"):
            load_config(json.dumps(raw))

    def test_duplicate_coordinates_rejected(self):
        raw = json.loads(PARADOX.read_text())
        raw["locations"] = {"L": 0, "R": 0}
        with pytest.raises(ValidationError, match="pairwise distinct"):
            load_config(json.dumps(raw))

    def test_duplicate_request_slot_rejected(self):
        raw = json.loads(PARADOX.read_text())
        raw["scenarios"]["bad"] = [
            {"task": "task1", "location": "L", "time": 0},
            {"task": "task2", "location": "L", "time": 0},
        ]
        with pytest.raises(ValidationError, match="duplicate request slot"):
            load_config(json.dumps(raw))

    def test_same_request_given_twice_rejected(self):
        """Both readers check a scenario's request list before it becomes a set."""
        raw = json.loads(PARADOX.read_text())
        raw["scenarios"]["bad"] = [{"task": "task1", "location": "L", "time": 0}] * 2
        message = r"^scenarios\.bad: duplicate request slot \('L', 0\)$"
        with pytest.raises(ValidationError, match=message):
            load_config(json.dumps(raw))
        with pytest.raises(ValidationError, match=message):
            faults.read_config(raw)

    def test_unknown_location_in_task_rejected(self):
        raw = json.loads(PARADOX.read_text())
        raw["tasks"]["task1"]["deliver"]["to"] = "X"
        with pytest.raises(ValidationError, match=r"tasks\.task1\.deliver\.to"):
            load_config(json.dumps(raw))

    def test_bad_rule_rejected(self):
        raw = json.loads(PARADOX.read_text())
        raw["requirements"][0]["rule"] = "most"
        with pytest.raises(ValidationError, match=r"requirements\[0\]\.rule"):
            load_config(json.dumps(raw))

    def test_unexpected_key_rejected(self):
        raw = json.loads(PARADOX.read_text())
        raw["speed_of_light"] = 2
        with pytest.raises(ValidationError, match="unexpected key"):
            load_config(json.dumps(raw))

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError, match="line 1"):
            load_config("{not json")

    def test_integer_past_digit_limit_is_a_parse_error(self):
        with pytest.raises(ParseError, match="integer literal has too many digits"):
            load_config('{"horizon": ' + "1" * 5000 + "}")

    def test_round_trip(self):
        for path in (PARADOX, SINGLE):
            doc = load_config(path.read_text())
            assert load_config(serialize_config(doc)) == doc

    def test_round_trip_with_limits(self):
        raw = json.loads(PARADOX.read_text())
        raw["limits"] = {"max_branches": 500, "max_decision_points": 64}
        doc = load_config(json.dumps(raw))
        again = load_config(serialize_config(doc))
        assert again == doc and again.limits.max_branches == 500


    @settings(max_examples=200, deadline=None)
    @given(config_documents())
    def test_random_document_round_trip(self, doc):
        assert load_config(serialize_config(doc)) == doc


class TestStrategyFiles:
    def test_obedient_round_trip(self):
        doc = load_fixture_doc()
        obedient = obedient_strategy(doc.spacetime, doc.tasks)
        text = serialize_strategy(obedient)
        assert load_strategy(text, doc.spacetime, doc.tasks) == obedient
        assert OBEDIENT.read_text() == text  # the bundled fixture stays in sync

    @settings(max_examples=200, deadline=None)
    @given(strategy_documents())
    def test_random_strategy_round_trip(self, case):
        doc, strategy = case
        rows = strategy_rows(strategy)
        keys = [(row["agent"], row["history"]["upto"],
                 [(e["time"], e["kind"], e["task"] if e["kind"] == "request" else e["origin"])
                  for e in row["history"]["events"]])
                for row in rows]
        assert keys == sorted(keys)
        assert load_strategy(serialize_strategy(strategy), doc.spacetime, doc.tasks) == strategy

    def test_unknown_agent_rejected(self):
        doc = load_fixture_doc()
        rows = {"rows": [{"agent": "X", "history": {"upto": 0, "events": []},
                          "action": {"send": ["R"]}}]}
        with pytest.raises(ValidationError, match=r"rows\[0\]\.agent"):
            load_strategy(json.dumps(rows), doc.spacetime, doc.tasks)

    def test_send_to_self_rejected(self):
        doc = load_fixture_doc()
        rows = {"rows": [{"agent": "L", "history": {"upto": 0, "events": []},
                          "action": {"send": ["L"]}}]}
        with pytest.raises(ValidationError, match="send to itself"):
            load_strategy(json.dumps(rows), doc.spacetime, doc.tasks)

    def test_integer_past_digit_limit_is_a_parse_error(self):
        doc = load_fixture_doc()
        with pytest.raises(ParseError, match="integer literal has too many digits"):
            load_strategy('{"rows": [' + "7" * 5000 + "]}", doc.spacetime, doc.tasks)

    def test_undefined_task_label_rejected(self):
        doc = load_fixture_doc()
        rows = {"rows": [{
            "agent": "L",
            "history": {"upto": 0,
                        "events": [{"kind": "request", "time": 0, "task": "nope"}]},
            "action": {"send": ["R"]},
        }]}
        with pytest.raises(ValidationError, match="undefined task"):
            load_strategy(json.dumps(rows), doc.spacetime, doc.tasks)

    def test_identical_duplicate_row_loads(self):
        """A repeated row is the same row, whatever order its events and sends are listed in."""
        doc = load_fixture_doc()
        events = [{"kind": "request", "time": 0, "task": "task1"},
                  {"kind": "signal", "time": 3, "origin": "R"}]
        row = {"agent": "L", "history": {"upto": 3, "events": events}, "action": {"send": ["R"]}}
        again = {"agent": "L", "history": {"upto": 3, "events": events[::-1]},
                 "action": {"send": ["R", "R"]}}
        once = load_strategy(json.dumps({"rows": [row]}), doc.spacetime, doc.tasks)
        twice = load_strategy(json.dumps({"rows": [row, again]}), doc.spacetime, doc.tasks)
        assert twice == once

    def test_conflicting_duplicate_row_rejected(self):
        doc = load_fixture_doc()
        history = {"upto": 0, "events": [{"kind": "request", "time": 0, "task": "task1"}]}
        rows = {"rows": [{"agent": "L", "history": history, "action": {"send": ["R"]}},
                         {"agent": "L", "history": history, "action": {"send": []}}]}
        with pytest.raises(ValidationError,
                           match=r"^rows\[1\]: conflicting duplicate of an earlier row$"):
            load_strategy(json.dumps(rows), doc.spacetime, doc.tasks)


@settings(max_examples=200, deadline=None)
@given(strategy_documents())
def test_loaded_tasks_are_judged_as_the_oracle_judges(case):
    """Each loaded task is the tuple read straight from its JSON, and on every
    scenario ``evaluate_task`` gives the oracle's verdict on the oracle's run.
    The drawn strategy gets the obedient row of each task that can depart in
    time, and each such task a scenario asking for it there, so that
    deliveries happen and bans are broken."""
    doc, table = case
    raw = json.loads(serialize_config(doc))
    loaded = load_config(json.dumps(raw))
    cfg = loaded.spacetime
    rows = {task_id: ((task["deliver"]["from"], task["deliver"]["to"], task["deliver"]["at"]),
                      tuple((ban["from"], ban["to"]) for ban in task["silence"]))
            for task_id, task in raw["tasks"].items()}
    assert loaded.tasks == rows
    scenarios = list(loaded.scenarios.values())
    for task_id, ((origin, dest, at), _) in rows.items():
        submit = at - abs(cfg.locations[origin] - cfg.locations[dest])
        if submit >= 0:
            table.setdefault((origin, submit, ((submit, "request", task_id),)), (dest,))
            scenarios.append(frozenset([(task_id, origin, submit)]))
    for scenario in scenarios:
        departures, arrivals = mini_execute(cfg.locations, cfg.horizon, scenario, table)
        trace = execute(cfg, scenario, table)
        for task_id, (deliver, bans) in rows.items():
            assert evaluate_task(trace, loaded.tasks[task_id], cfg) == task_ok(
                departures, arrivals, deliver, set(bans))


class TestDiagrams:
    def golden(self, name):
        return (GOLDEN / name).read_text()

    def run_scenario(self, name):
        doc = load_fixture_doc()
        strategy = obedient_strategy(doc.spacetime, doc.tasks)
        return execute(doc.spacetime, doc.scenarios[name], strategy), doc.spacetime

    def test_single_request_golden(self):
        trace, cfg = self.run_scenario("only_task1")
        assert render_diagram(trace, cfg) == self.golden("diagram_only_task1.txt")

    def test_crossing_signals_golden(self):
        trace, cfg = self.run_scenario("both")
        assert render_diagram(trace, cfg) == self.golden("diagram_both.txt")

    def test_empty_trace_golden(self):
        trace, cfg = self.run_scenario("empty")
        assert render_diagram(trace, cfg) == self.golden("diagram_empty.txt")

    def test_rendering_is_pure_and_clean(self):
        trace, cfg = self.run_scenario("both")
        once = render_diagram(trace, cfg)
        assert once == render_diagram(Trace(trace.requests, trace.departures, trace.arrivals), cfg)
        assert once.endswith("\n")
        assert not any(line != line.rstrip() for line in once.splitlines())

    def test_four_lab_golden(self, capsys):
        """Crossings, arrivals under fronts, a request on an arrival cell and
        fronts that run past the horizon, over 40 cells and 31 rows."""
        assert main(["diagram", "--config", str(FOURLAB), "--scenario", "mix",
                     "--strategy", str(FOURLAB_STRATEGY)]) == 0
        assert capsys.readouterr().out == self.golden("diagram_4lab.txt")

    @staticmethod
    def draw(tmp_path, lab, task):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({
            "locations": {lab: 0, "R": 3}, "horizon": 3,
            "tasks": {task: {"deliver": {"from": lab, "to": "R", "at": 3}}},
            "scenarios": {"one": [{"task": task, "location": lab, "time": 0}]},
        }))
        assert main(["diagram", "--config", str(doc), "--scenario", "one"]) == 0

    def test_long_task_id_keeps_columns(self, capsys, tmp_path):
        """A three-digit task id is clipped to its cell, not widened."""
        self.draw(tmp_path, "L", "task123")
        assert capsys.readouterr().out == (
            "  t L        R\n  0 !12\n  1    >\n  2       >\n  3          *\n"
        )

    def test_unprintable_lab_name_keeps_one_header_line(self, capsys, tmp_path):
        """A newline in a lab name shows as ``?`` instead of splitting the header."""
        self.draw(tmp_path, "a\nb", "task1")
        assert capsys.readouterr().out == (
            "  t a?       R\n  0 !1\n  1    >\n  2       >\n  3          *\n"
        )

    def test_wide_lab_name_keeps_columns(self, capsys, tmp_path):
        """A lab named with two East Asian wide characters would fill five
        terminal columns; shown as ``??`` it fills its cell, so the request
        marker sits under its lab's header label."""
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({
            "locations": {"日本": 0, "M": 2, "R": 4}, "horizon": 2,
            "tasks": {"task1": {"deliver": {"from": "R", "to": "M", "at": 2}}},
            "scenarios": {"one": [{"task": "task1", "location": "R", "time": 0}]},
        }))
        assert main(["diagram", "--config", str(doc), "--scenario", "one"]) == 0
        out = capsys.readouterr().out
        assert out == "  t ??    M     R\n  0             !1\n  1          <\n  2       *\n"
        header, request_row = out.splitlines()[:2]
        assert header.index("R") == request_row.index("!1") == 16


class TestExitCodes:
    def test_simulate_ok(self, capsys):
        assert main(["simulate", "--config", str(PARADOX), "--scenario", "only_task1"]) == 0
        out = capsys.readouterr().out
        assert "task1: satisfied" in out and "task2: unsatisfied" in out

    def test_simulate_dual_fails_both(self, capsys):
        assert main(["simulate", "--config", str(PARADOX), "--scenario", "both",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdicts"] == {"task1": False, "task2": False}
        assert sorted(payload["trace"]["departures"]) == [["L", "R", 0], ["R", "L", 0]]

    def test_search_impossible_exits_3(self, capsys):
        assert main(["search", "--config", str(PARADOX)]) == 3
        assert "impossible" in capsys.readouterr().out

    def test_search_found_exits_0(self, capsys):
        assert main(["search", "--config", str(SINGLE), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "found"
        assert all(report["satisfied"] for report in payload["reports"])

    def test_search_aborted_exits_4(self, capsys):
        assert main(["search", "--config", str(PARADOX), "--limits-branches", "1"]) == 4
        assert "aborted" in capsys.readouterr().out

    def test_zero_branch_limit_exits_2(self, capsys):
        assert main(["search", "--config", str(PARADOX), "--limits-branches", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: search limits must be >= 1\n"

    def test_deep_horizon_search_exits_0(self, capsys, tmp_path):
        """An idle document at horizon 600 is Found; no send in it can be useful."""
        deep = tmp_path / "deep.json"
        deep.write_text(json.dumps({
            "locations": {"L": 0, "R": 5}, "horizon": 600, "tasks": {},
            "scenarios": {"idle": []},
            "requirements": [{"scenario": "idle", "rule": "all"}],
        }))
        assert main(["search", "--config", str(deep), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["outcome"] == "found"

    @pytest.mark.parametrize("name", ["replay1_seed0.json", "replay2_seed0.json"])
    def test_random_document_decided_in_few_branches(self, capsys, name):
        """Random benchmark documents (3 labs at horizon 30, 4 labs at horizon
        120) where a chronologically backtracking walk needs over 100,000 and
        32,768 branches; the walk refutes each in a handful."""
        assert main(["search", "--config", str(GOLDEN.parent / name), "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "impossible"
        assert payload["strategies_explored"] <= 20

    def test_largest_random_document_decided_in_few_branches(self, capsys):
        """A random benchmark document (8 labs at horizon 400), refuted in
        the 66 branches of its golden."""
        assert main(["search", "--config", str(REPLAY4), "--json"]) == 3
        assert capsys.readouterr().out == (GOLDEN / "search_replay4.json").read_text()

    @pytest.mark.parametrize("document", ["config", "strategy"])
    def test_deeply_nested_document_exits_2(self, capsys, tmp_path, document):
        """JSON nested past the parser's recursion limit is a parse error."""
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        config = deep if document == "config" else PARADOX
        strategy = deep if document == "strategy" else "obedient"
        assert main(["check", "--config", str(config), "--strategy", str(strategy)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: document nested too deeply\n"

    @pytest.mark.parametrize("document", ["config", "strategy"])
    def test_non_utf8_document_exits_2(self, capsys, tmp_path, document):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        config = bad if document == "config" else PARADOX
        strategy = bad if document == "strategy" else "obedient"
        assert main(["check", "--config", str(config), "--strategy", str(strategy)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {str(bad)!r}: not UTF-8 text (byte 0: invalid start byte)\n"

    def test_nul_byte_in_config_path_exits_2(self, capsys):
        assert main(["search", "--config", "a\0b"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 'a\\x00b': embedded null byte\n"

    def test_nul_byte_in_strategy_path_exits_2(self, capsys):
        assert main(["check", "--config", str(PARADOX), "--strategy", "x\0y"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 'x\\x00y': embedded null byte\n"

    def test_unprintable_json_key_stays_on_one_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"locations": {"a\nb": "x"}, "horizon": 3}))
        assert main(["search", "--config", str(bad)]) == 2
        assert capsys.readouterr().err == "error: locations.a\\nb: expected an integer, got 'x'\n"

    def test_check_obedient_single_exits_0(self, capsys):
        assert main(["check", "--config", str(SINGLE), "--strategy", str(OBEDIENT)]) == 0

    def test_check_obedient_paradox_exits_3(self, capsys):
        assert main(["check", "--config", str(PARADOX), "--strategy", str(OBEDIENT)]) == 3
        assert "UNSATISFIED" in capsys.readouterr().out

    def test_invalid_config_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"locations": {"L": 0, "R": 0}, "horizon": 3}')
        assert main(["search", "--config", str(bad)]) == 2

    def test_missing_file_exits_2(self, capsys):
        assert main(["simulate", "--config", "/no/such/file.json",
                     "--scenario", "empty"]) == 2

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["simulate", "--config", str(PARADOX), "--scenario", "nope"]) == 2

    def test_invalid_strategy_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "strategy.json"
        bad.write_text(json.dumps({"rows": [{"agent": "X",
                                             "history": {"upto": 0, "events": []},
                                             "action": {"send": []}}]}))
        assert main(["check", "--config", str(PARADOX), "--strategy", str(bad)]) == 2

    def test_usage_error_exits_1(self, capsys):
        assert main([]) == 1
        assert main(["frobnicate"]) == 1
        assert main(["simulate", "--config", str(PARADOX)]) == 1  # missing --scenario

    def test_diagram_subcommand(self, capsys):
        assert main(["diagram", "--config", str(PARADOX), "--scenario", "both"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "diagram_both.txt").read_text()

    def test_end_to_end_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nosignal", "search", "--config", str(PARADOX), "--json"],
            capture_output=True, text=True, cwd=REPO,
        )
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["outcome"] == "impossible"


FOUND_TEXT = """\
found a strategy satisfying all 2 requirements:
  L  t=0  [request task1 @0]  -> send R
  R  t=0  [request task2 @0]  -> send L
"""
# The two texts that name a requirement's rule and scenario are goldens, which CI diffs the entry point with.
IMPOSSIBLE_TEXT = (GOLDEN / "search_impossible.txt").read_text()
CHECK_PARADOX_TEXT = (GOLDEN / "check_paradox.txt").read_text()
SIMULATE_TEXT = """\
scenario 'only_task1' with strategy 'obedient'
  t=0  request task1 at L
  t=0  depart  L -> R
  t=3  arrive  L -> R
verdicts:
  task1: satisfied
  task2: unsatisfied

""" + (GOLDEN / "diagram_only_task1.txt").read_text()
CHECK_SINGLE_TEXT = """\
requirement 1 (all of 'only_task1'): satisfied  [task1=ok]
requirement 2 (all of 'only_task2'): satisfied  [task2=ok]
all requirements satisfied
"""
# A document that declares no requirements: `search` finds the empty table.
NO_REQUIREMENTS = {"locations": {"L": 0, "R": 3}, "horizon": 3, "tasks": {},
                   "scenarios": {"idle": []}}
NO_REQUIREMENTS_TEXT = """\
found a strategy satisfying all 0 requirements:
  (empty table: every agent always does nothing)
"""
NO_REQUIREMENTS_JSON = """\
{
  "outcome": "found",
  "strategy": {
    "rows": []
  },
  "reports": []
}
"""
# `--json` runs and the golden file of what each prints: (argv, file, exit code).
JSON_CASES = [
    (["search", "--config", str(SINGLE)], "search_found.json", 0),
    (["search", "--config", str(PARADOX)], "search_impossible.json", 3),
    (["search", "--config", str(PARADOX), "--limits-branches", "1"], "search_aborted.json", 4),
    (["check", "--config", str(PARADOX), "--strategy", "obedient"], "check_paradox.json", 3),
    (["simulate", "--config", str(PARADOX), "--scenario", "both"], "simulate_both.json", 0),
    (["diagram", "--config", str(PARADOX), "--scenario", "both"], "diagram_both.json", 0),
    # Random benchmark documents of 3, 4 and 8 labs.
    (["simulate", "--config", str(REPLAY1), "--scenario", "s11"], "simulate_replay1.json", 0),
    (["simulate", "--config", str(REPLAY2), "--scenario", "s0"], "simulate_replay2.json", 0),
    (["check", "--config", str(REPLAY1), "--strategy", "obedient"], "check_replay1.json", 3),
    (["check", "--config", str(REPLAY2), "--strategy", "obedient"], "check_replay2.json", 3),
    (["check", "--config", str(REPLAY4), "--strategy", "obedient"], "check_replay4.json", 3),
    (["search", "--config", str(REPLAY4)], "search_replay4.json", 3),
]
# An edit value that deletes the key instead.
DROP = object()
# One edit of paradox_d3.json per input invariant: (JSON keys, new value,
# what `search` prints after "error: "). No keys replace the whole document.
INVALID_EDITS = [
    # Each level's shape: its JSON type, a missing key, an unexpected key.
    ((), [], "document: expected an object, got list"),
    (("locations",), DROP, "document: missing key 'locations'"),
    (("horizon",), DROP, "document: missing key 'horizon'"),
    (("extra",), 1, "document: unexpected key 'extra'"),
    (("locations",), [], "locations: expected an object, got list"),
    (("locations", "R"), "3", "locations.R: expected an integer, got '3'"),
    (("locations", "R"), 3.0, "locations.R: expected an integer, got 3.0"),
    (("horizon",), True, "horizon: expected an integer, got True"),
    (("tasks",), [], "tasks: expected an object, got list"),
    (("tasks", "task1"), [], "tasks.task1: expected an object, got list"),
    (("tasks", "task1", "deliver"), DROP, "tasks.task1: missing key 'deliver'"),
    (("tasks", "task1", "extra"), 1, "tasks.task1: unexpected key 'extra'"),
    (("tasks", "task1", "deliver"), "L", "tasks.task1.deliver: expected an object, got str"),
    (("tasks", "task1", "deliver", "at"), DROP, "tasks.task1.deliver: missing key 'at'"),
    (("tasks", "task1", "deliver", "by"), 1, "tasks.task1.deliver: unexpected key 'by'"),
    (("tasks", "task1", "deliver", "at"), True, "tasks.task1.deliver.at: expected an integer, got True"),
    (("tasks", "task1", "deliver", "from"), 0, "tasks.task1.deliver.from: expected a string, got 0"),
    (("tasks", "task1", "deliver", "to"), None, "tasks.task1.deliver.to: expected a string, got None"),
    (("tasks", "task1", "silence"), {}, "tasks.task1.silence: expected a list, got dict"),
    (("tasks", "task1", "silence", 0), "R", "tasks.task1.silence[0]: expected an object, got str"),
    (("tasks", "task1", "silence", 0, "to"), DROP, "tasks.task1.silence[0]: missing key 'to'"),
    (("tasks", "task1", "silence", 0, "at"), 1, "tasks.task1.silence[0]: unexpected key 'at'"),
    (("tasks", "task1", "silence", 0, "from"), ["R"],
     "tasks.task1.silence[0].from: expected a string, got ['R']"),
    (("scenarios",), [], "scenarios: expected an object, got list"),
    (("scenarios", "both"), {}, "scenarios.both: expected a list, got dict"),
    (("scenarios", "both", 1), [], "scenarios.both[1]: expected an object, got list"),
    (("scenarios", "both", 1, "time"), DROP, "scenarios.both[1]: missing key 'time'"),
    (("scenarios", "both", 1, "at"), 0, "scenarios.both[1]: unexpected key 'at'"),
    (("scenarios", "both", 1, "task"), 2, "scenarios.both[1].task: expected a string, got 2"),
    (("scenarios", "both", 1, "location"), None, "scenarios.both[1].location: expected a string, got None"),
    (("scenarios", "both", 1, "time"), "0", "scenarios.both[1].time: expected an integer, got '0'"),
    (("requirements",), {}, "requirements: expected a list, got dict"),
    (("requirements", 0), "all", "requirements[0]: expected an object, got str"),
    (("requirements", 0, "rule"), DROP, "requirements[0]: missing key 'rule'"),
    (("requirements", 0, "why"), "", "requirements[0]: unexpected key 'why'"),
    (("requirements", 0, "scenario"), 1, "requirements[0].scenario: expected a string, got 1"),
    (("requirements", 0, "scenario"), "none", "requirements[0].scenario: undefined scenario 'none'"),
    (("requirements", 2, "rule"), 1, "requirements[2].rule: expected a string, got 1"),
    (("limits",), [], "limits: expected an object, got list"),
    (("limits",), {"max_branch": 1}, "limits: unexpected key 'max_branch'"),
    (("limits",), {"max_branches": "9"}, "limits.max_branches: expected an integer, got '9'"),
    (("limits",), {"max_decision_points": False},
     "limits.max_decision_points: expected an integer, got False"),
    (("limits",), {"max_decision_points": 0}, "limits: search limits must be >= 1"),
    # Each invariant the value classes and checkers own.
    (("locations",), {"L": 0}, "locations: need at least 2 locations"),
    (("locations",), {"L": 0, "R": 0}, "locations: coordinates must be pairwise distinct"),
    (("horizon",), 0, "horizon: must be >= 1, got 0"),
    (("tasks", "task1", "deliver", "to"), "L", "tasks.task1.deliver: endpoints must differ"),
    (("tasks", "task1", "deliver", "to"), "X", "tasks.task1.deliver.to: unknown location 'X'"),
    (("tasks", "task1", "deliver", "at"), 5,
     "tasks.task1.deliver.at: 5 outside [0, 3]; horizon too small"),
    (("tasks", "task1", "deliver", "at"), -1, "tasks.task1.deliver.at: -1 outside [0, 3]"),
    (("tasks", "task1", "silence", 0, "to"), "R", "tasks.task1.silence[0]: endpoints must differ"),
    (("tasks", "task1", "silence", 0, "from"), "X",
     "tasks.task1.silence[0].from: unknown location 'X'"),
    # A task with two faults reports the one it reaches first: the delivery's
    # fields and endpoints, then each ban's fields and endpoints, then the
    # labs in that order, then the delivery time.
    (("tasks", "task1"), {"deliver": {"from": "L", "to": "L", "at": 3}, "silence": ["R"]},
     "tasks.task1.deliver: endpoints must differ"),
    (("tasks", "task1"), {"deliver": {"from": "L", "to": "R", "at": 5},
                          "silence": [{"from": "R", "to": "L"}, {"from": "R", "to": "X"}]},
     "tasks.task1.silence[1].to: unknown location 'X'"),
    (("tasks", "task1"), {"deliver": {"from": 0, "to": "R", "at": 3}, "silence": [{"from": "R", "to": "R"}]},
     "tasks.task1.deliver.from: expected a string, got 0"),
    (("scenarios", "both", 1), {"task": "task9", "location": "X", "time": 9},
     "scenarios.both[1].task: undefined task 'task9'"),
    (("requirements", 0), {"scenario": "none", "rule": "some"},
     "requirements[0].scenario: undefined scenario 'none'"),
    (("scenarios", "both", 1, "location"), "X", "scenarios.both[1].location: unknown location 'X'"),
    (("scenarios", "both", 1, "time"), 9, "scenarios.both[1].time: 9 outside [0, 3]"),
    (("scenarios", "both", 1, "location"), "L",
     "scenarios.both: duplicate request slot ('L', 0)"),
    (("scenarios", "both", 1), {"task": "task1", "location": "L", "time": 0},
     "scenarios.both: duplicate request slot ('L', 0)"),
    (("scenarios", "both", 1, "task"), "task9", "scenarios.both[1].task: undefined task 'task9'"),
    (("requirements", 2, "scenario"), "empty",
     "requirements[2]: at_least_one over an empty scenario"),
    (("requirements", 2, "rule"), "some",
     "requirements[2].rule: expected 'all' or 'at_least_one', got 'some'"),
    (("limits",), {"max_branches": 0}, "limits: search limits must be >= 1"),
]
# Strategy documents for `check` on paradox_d3.json: (rows, what it prints after "error: ").
INVALID_STRATEGIES = [
    ([{"agent": "L", "history": {"upto": 2, "events": [{"kind": "request", "time": 5,
                                                        "task": "task1"}]},
       "action": {"send": ["R"]}}],
     "rows[0].history.events[0].time: 5 outside [0, 2]"),
    ([{"agent": "L", "history": {"upto": 2, "events": [
        {"kind": "signal", "time": 1, "origin": "R"},
        {"kind": "request", "time": -1, "task": "task1"}]}, "action": {}}],
     "rows[0].history.events[1].time: -1 outside [0, 2]"),
    ([{"agent": "R", "history": {"upto": 3}, "action": {"send": ["L"]}},
      {"agent": "R", "history": {"upto": 3, "events": []}, "action": {}}],
     "rows[1]: conflicting duplicate of an earlier row"),
    # A row's errors are reported in one order: event fields, then the
    # action, then event times.
    ([{"agent": "L", "history": {"upto": 2, "events": [{"kind": "request", "time": 5,
                                                        "task": "task1"}]},
       "action": {"send": ["L"]}}],
     "rows[0].action.send[0]: agent cannot send to itself"),
    ([{"agent": "L", "history": {"upto": 2, "events": [
        {"kind": "request", "time": 5, "task": "task1"}, {"kind": "bogus", "time": 0}]},
       "action": {"send": ["R"]}}],
     "rows[0].history.events[1].kind: expected 'request' or 'signal', got 'bogus'"),
    ([{"agent": "X", "history": {"upto": 9, "events": [{"kind": "signal", "time": 9, "origin": "X"}]},
       "action": {"send": ["X"]}}],
     "rows[0].agent: unknown location 'X'"),
    ([{"agent": "L", "history": {"upto": 9, "events": [{"kind": "signal", "time": 9, "origin": "X"}]},
       "action": {"send": ["X"]}}],
     "rows[0].history.upto: 9 outside [0, 3]"),
    ([{"agent": "L", "history": {"upto": 2, "events": [{"kind": "signal", "time": 9, "origin": "L"}]},
       "action": {"send": ["X"]}}],
     "rows[0].history.events[0].origin: signal origin cannot be the receiving agent"),
    # An event's kind is checked before its other fields.
    ([{"agent": "L", "history": {"upto": 2, "events": [{"kind": "bogus"}]}, "action": {}}],
     "rows[0].history.events[0].kind: expected 'request' or 'signal', got 'bogus'"),
    # Each level's shape: its JSON type, a missing key, an unexpected key.
    ({}, "rows: expected a list, got dict"),
    (["L"], "rows[0]: expected an object, got str"),
    ([{"history": {"upto": 0}, "action": {}}], "rows[0]: missing key 'agent'"),
    ([{"agent": "L", "history": {"upto": 0}}], "rows[0]: missing key 'action'"),
    ([{"agent": "L", "history": {"upto": 0}, "action": {}, "note": ""}], "rows[0]: unexpected key 'note'"),
    ([{"agent": 0, "history": {"upto": 0}, "action": {}}], "rows[0].agent: expected a string, got 0"),
    ([{"agent": "X", "history": {"upto": 0}, "action": {}}], "rows[0].agent: unknown location 'X'"),
    ([{"agent": "L", "history": [], "action": {}}], "rows[0].history: expected an object, got list"),
    ([{"agent": "L", "history": {"events": []}, "action": {}}], "rows[0].history: missing key 'upto'"),
    ([{"agent": "L", "history": {"upto": 0, "at": 0}, "action": {}}],
     "rows[0].history: unexpected key 'at'"),
    ([{"agent": "L", "history": {"upto": "0"}, "action": {}}],
     "rows[0].history.upto: expected an integer, got '0'"),
    ([{"agent": "L", "history": {"upto": 4}, "action": {}}], "rows[0].history.upto: 4 outside [0, 3]"),
    ([{"agent": "L", "history": {"upto": 0, "events": {}}, "action": {}}],
     "rows[0].history.events: expected a list, got dict"),
    ([{"agent": "L", "history": {"upto": 0, "events": ["R"]}, "action": {}}],
     "rows[0].history.events[0]: expected an object, got str"),
    ([{"agent": "L", "history": {"upto": 0, "events": [{"time": 0}]}, "action": {}}],
     "rows[0].history.events[0]: missing key 'kind'"),
    ([{"agent": "L", "history": {"upto": 0, "events": [{"kind": 1}]}, "action": {}}],
     "rows[0].history.events[0].kind: expected a string, got 1"),
    ([{"agent": "L", "history": {"upto": 0, "events": [{"kind": "signal", "origin": "R"}]},
       "action": {}}],
     "rows[0].history.events[0]: missing key 'time'"),
    ([{"agent": "L", "history": {"upto": 0, "events": [{"kind": "signal", "time": 0}]},
       "action": {}}],
     "rows[0].history.events[0]: missing key 'origin'"),
    ([{"agent": "L", "history": {"upto": 0, "events": [
        {"kind": "signal", "time": 0, "origin": "R", "task": "task1"}]}, "action": {}}],
     "rows[0].history.events[0]: unexpected key 'task'"),
    ([{"agent": "L", "history": {"upto": 0, "events": [{"kind": "signal", "time": 0, "origin": 3}]},
       "action": {}}],
     "rows[0].history.events[0].origin: expected a string, got 3"),
    ([{"agent": "L", "history": {"upto": 0, "events": [{"kind": "signal", "time": 0, "origin": "X"}]},
       "action": {}}],
     "rows[0].history.events[0].origin: unknown location 'X'"),
    ([{"agent": "L", "history": {"upto": 0, "events": [{"kind": "signal", "time": 0, "origin": "L"}]},
       "action": {}}],
     "rows[0].history.events[0].origin: signal origin cannot be the receiving agent"),
    ([{"agent": "L", "history": {"upto": 0, "events": [{"kind": "request", "time": 0}]},
       "action": {}}],
     "rows[0].history.events[0]: missing key 'task'"),
    ([{"agent": "L", "history": {"upto": 0, "events": [
        {"kind": "request", "time": 0, "task": "task1", "origin": "R"}]}, "action": {}}],
     "rows[0].history.events[0]: unexpected key 'origin'"),
    ([{"agent": "L", "history": {"upto": 0, "events": [{"kind": "request", "time": 0, "task": 1}]},
       "action": {}}],
     "rows[0].history.events[0].task: expected a string, got 1"),
    ([{"agent": "L", "history": {"upto": 0, "events": [
        {"kind": "request", "time": 0, "task": "task9"}]}, "action": {}}],
     "rows[0].history.events[0].task: undefined task 'task9'"),
    ([{"agent": "L", "history": {"upto": 0}, "action": []}], "rows[0].action: expected an object, got list"),
    ([{"agent": "L", "history": {"upto": 0}, "action": {"sends": []}}],
     "rows[0].action: unexpected key 'sends'"),
    ([{"agent": "L", "history": {"upto": 0}, "action": {"send": "R"}}],
     "rows[0].action.send: expected a list, got str"),
    ([{"agent": "L", "history": {"upto": 0}, "action": {"send": ["R", 1]}}],
     "rows[0].action.send[1]: expected a string, got 1"),
    ([{"agent": "L", "history": {"upto": 0}, "action": {"send": ["X"]}}],
     "rows[0].action.send[0]: unknown location 'X'"),
    # Unhashable values where a name is looked up.
    ([{"agent": "L", "history": {"upto": 0}, "action": {"send": [["R"]]}}],
     "rows[0].action.send[0]: expected a string, got ['R']"),
    ([{"agent": "L", "history": {"upto": 0, "events": [{"kind": ["signal"], "time": 0, "origin": "R"}]},
       "action": {}}],
     "rows[0].history.events[0].kind: expected a string, got ['signal']"),
]


# A name renamed to end in a lone surrogate: (argv, document, name, what `error: ` says).
SURROGATES = [
    (["simulate", "--scenario", "both"], PARADOX, "L",
     "locations: name 'L\\ud800' is not Unicode text (a lone surrogate)"),
    (["check", "--strategy", "obedient"], PARADOX, "task1",
     "tasks: name 'task1\\ud800' is not Unicode text (a lone surrogate)"),
    (["search"], SINGLE, "R", "locations: name 'R\\ud800' is not Unicode text (a lone surrogate)"),
]


def _edited_paradox(keys, value):
    if not keys:
        return value
    doc = json.loads(PARADOX.read_text())
    *parents, last = keys
    node = doc
    for key in parents:
        node = node[key]
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    return doc


def _cli_cases():
    yield pytest.param(["search", "--config", str(SINGLE)], None, None,
                       (FOUND_TEXT, "", 0), id="search-found")
    yield pytest.param(["search", "--config", str(PARADOX)], None, None,
                       (IMPOSSIBLE_TEXT, "", 3), id="search-impossible")
    yield pytest.param(["search", "--config", str(PARADOX), "--limits-branches", "1"], None, None,
                       ("aborted: branches limit hit after 1 branch and 4 decision points\n", "", 4),
                       id="search-aborted-branches")
    yield pytest.param(["search", "--config", str(PARADOX), "--limits-decisions", "1"], None, None,
                       ("aborted: decision_points limit hit after 0 branches and 1 decision point\n", "", 4),
                       id="search-aborted-decisions")
    yield pytest.param(["search"], _edited_paradox(("tasks", "task1", "deliver", "at"), 0), None,
                       ("impossible: all 1 refuted branch over 2 decision points fails some requirement\n"
                        "  requirement 1 (all of 'only_task1'): first failure on 1 branch\n", "", 3),
                       id="search-impossible-one-branch")
    yield pytest.param(["search"], NO_REQUIREMENTS, None, (NO_REQUIREMENTS_TEXT, "", 0),
                       id="search-no-requirements")
    yield pytest.param(["search", "--json"], NO_REQUIREMENTS, None, (NO_REQUIREMENTS_JSON, "", 0),
                       id="json-search-no-requirements")
    yield pytest.param(["simulate", "--config", str(PARADOX), "--scenario", "only_task1"], None, None,
                       (SIMULATE_TEXT, "", 0), id="simulate-only_task1")
    yield pytest.param(["check", "--config", str(PARADOX), "--strategy", "obedient"], None, None,
                       (CHECK_PARADOX_TEXT, "", 3), id="check-paradox")
    yield pytest.param(["check", "--config", str(SINGLE), "--strategy", "obedient"], None, None,
                       (CHECK_SINGLE_TEXT, "", 0), id="check-single")
    for argv, golden, code in JSON_CASES:
        yield pytest.param([*argv, "--json"], None, None, ((GOLDEN / golden).read_text(), "", code),
                           id=f"json-{golden.removesuffix('.json')}")
    for keys, value, message in INVALID_EDITS:
        yield pytest.param(["search"], _edited_paradox(keys, value), None,
                           ("", f"error: {message}\n", 2),
                           id=("-".join(map(str, keys)) or "document") + "="
                           + ("drop" if value is DROP else json.dumps(value, separators=(",", ":"))))
    yield pytest.param(["simulate", "--scenario", "both"],
                       _edited_paradox(("tasks", "task1", "deliver", "at"), 1), None,
                       ("", "error: task 'task1': delivery at t=1 comes sooner than the 3 steps "
                            "a signal from 'L' takes to reach 'R'\n", 2),
                       id="simulate-delivery-sooner-than-travel")
    yield pytest.param(["check", "--config", str(INVALID_TASK), "--strategy", "obedient"], None, None,
                       ("", (GOLDEN / "check_invalid_task.txt").read_text(), 2), id="check-invalid-task")
    yield pytest.param(["check", "--config", str(MISSHAPEN_TASK), "--strategy", "obedient"], None, None,
                       ("", (GOLDEN / "check_misshapen_task.txt").read_text(), 2), id="check-misshapen-task")
    # A lab name or task id holding a lone surrogate (the JSON escape \ud800) cannot be printed.
    for argv, path, name, message in SURROGATES:
        config = json.loads(path.read_text().replace(f'"{name}"', f'"{name}\\ud800"'))
        yield pytest.param(argv, config, None, ("", f"error: {message}\n", 2), id=f"surrogate-{argv[0]}")
    for i, (rows, message) in enumerate(INVALID_STRATEGIES):
        yield pytest.param(["check", "--config", str(PARADOX)], None, {"rows": rows},
                           ("", f"error: {message}\n", 2), id=f"strategy-{i}")
    yield pytest.param(["diagram", "--config", str(REPLAY2), "--scenario", "s0"], None, None,
                       ((GOLDEN / "diagram_replay2.txt").read_text(), "", 0), id="diagram-replay2")


@pytest.mark.parametrize("argv, config, strategy, expected", _cli_cases())
def test_cli_bytes(capsys, tmp_path, argv, config, strategy, expected):
    """Exact stdout, stderr and exit code of the CLI."""
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    if strategy is not None:
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps(strategy))
        argv = [*argv, "--strategy", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert (captured.out, captured.err, code) == expected


def test_start_up_imports_no_dataclasses():
    """The CLI's value classes generate no code at import, so neither
    ``dataclasses`` nor the ``inspect`` it pulls in is loaded, and annotations
    are never evaluated, so ``typing`` is not loaded either. A plain argv
    never builds the argparse tree, so ``argparse`` and its ``gettext`` stay
    unloaded, and nothing the CLI runs touches the audit. ``-S`` keeps a
    site ``.pth`` file from loading any of them first."""
    unwanted = {"argparse", "gettext", "nosignal.audit", "dataclasses", "inspect", "typing"}
    probe = ("import sys, nosignal.cli; "
             f"nosignal.cli.main(['search', '--config', {str(PARADOX)!r}]); "
             f"print(sorted({unwanted!r} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == IMPOSSIBLE_TEXT + "[]\n"


def test_main_runs_clear_of_start_up_objects():
    """``main`` freezes the objects that exist when it starts, so a search on
    the paradox sets off no collection, however close to the generation-0
    threshold the objects made before it have brought the collector."""
    probe = (
        "import gc, os, sys, nosignal.cli\n"
        f"argv = ['search', '--config', {str(PARADOX)!r}]\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        "starts = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(info))\n"
        "pad = []\n"
        "while gc.get_count()[0] < gc.get_threshold()[0] - 3:\n"
        "    pad.append([])\n"
        "before = len(starts)\n"
        "code = nosignal.cli.main(argv)\n"
        "sys.stdout = sys.__stdout__\n"
        "print(code, len(starts) - before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3 0\n"


def test_main_leaves_the_freeze_count_as_it_found_it(capsys, monkeypatch):
    inside = []
    load = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda text: inside.append(gc.get_freeze_count()) or load(text))
    assert gc.get_freeze_count() == 0
    assert main(["search", "--config", str(PARADOX)]) == 3
    assert gc.get_freeze_count() == 0 and inside[0] > 0
    gc.freeze()  # a caller's own frozen objects stay frozen, and no others join them
    try:
        frozen = gc.get_freeze_count()
        assert main(["search", "--config", str(PARADOX)]) == 3
        assert inside[1] == gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("runs, printed", [(1, "1\n"), (3, "1\n"), (0, "0\nfinalized\n")],
                         ids=["one-command", "three-commands", "no-command"])
def test_main_leaves_what_is_alive_at_exit_to_the_os(runs, printed):
    """Once a command has run, one exit hook freezes the objects still alive,
    however many commands ran, so the shutdown collection does not finalize
    a cycle alive then. Importing the CLI registers nothing, and without a
    command the cycle is finalized."""
    probe = (
        "import atexit, contextlib, io, os\n"
        "hooks = atexit._ncallbacks()\n"  # CPython's count of registrations
        "import nosignal.cli\n"
        "class Cycle:\n"
        "    def __del__(self):\n"
        "        os.write(1, b'finalized\\n')\n"
        "keep = Cycle()\n"
        "keep.self = keep\n"
        f"for _ in range({runs}):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        nosignal.cli.main(['search', '--config', {str(PARADOX)!r}])\n"
        "print(atexit._ncallbacks() - hooks, flush=True)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == printed


# Argv for the grammar tests: the plain form of each command, then at most
# one token it does not take: another command's option, an abbreviation, an
# ``=`` form, help, ``--``, a dash value or junk.
EXACT_OPTIONS = ["--config", "--json", "--limits-branches", "--limits-decisions",
                 "--scenario", "--strategy"]
ODD_TOKENS = [*EXACT_OPTIONS, "--conf", "--js", "--limits", "--limits-b", "--sc", "--strat", "-h",
              "--help", "--", "-", "-3", "--config=x", "--json=", "--limits-branches=3",
              "--scenario=both", "-c", "frobnicate", "sim"]
OWN = {"simulate": EXACT_OPTIONS, "search": EXACT_OPTIONS[:4],
       "check": [*EXACT_OPTIONS[:4], "--strategy"], "diagram": EXACT_OPTIONS}
REQUIRED = {"simulate": ["--config", "--scenario"], "search": ["--config"],
            "check": ["--config", "--strategy"], "diagram": ["--config", "--scenario"]}
VALUES = st.sampled_from(["", "x y", "a=b", "both", "obedient", "٣", str(PARADOX)]) | st.text(max_size=3)
NUMBERS = st.sampled_from(["2", "0", "+4", "1_0", " 7 ", "٣", "-3", "", "1.5"])


@st.composite
def argv_lists(draw):
    command = draw(st.sampled_from(list(REQUIRED)))
    options = draw(st.lists(st.sampled_from(OWN[command]), max_size=4))
    if draw(st.integers(0, 3)):  # complete, so that the plain parser accepts some
        options += REQUIRED[command]
    argv = [command]
    for option in draw(st.permutations(options)):
        argv.append(option)
        if option != "--json":
            argv.append(draw(NUMBERS if option.startswith("--limits") else VALUES))
    if not draw(st.integers(0, 2)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(ODD_TOKENS)))
    return argv


class TestArgvGrammar:
    @settings(max_examples=400, deadline=None)
    @given(argv_lists())
    def test_plain_args_agree_with_argparse(self, argv):
        """Whatever the table-driven parser accepts, argparse parses to the
        same namespace, handler included."""
        args = cli._plain_args(argv)
        if args is not None:
            assert vars(args) == vars(cli.build_parser().parse_args(argv))

    def test_plain_argv_never_builds_the_parser(self, capsys, monkeypatch):
        plain = [
            ["search", "--config", str(PARADOX)],
            ["search", "--json", "--config", str(SINGLE), "--limits-decisions", "+40"],
            ["check", "--strategy", str(OBEDIENT), "--config", str(SINGLE), "--json"],
            ["simulate", "--config", str(PARADOX), "--scenario", "both", "--strategy", "obedient"],
            ["diagram", "--config", str(PARADOX), "--scenario", "x", "--limits-branches", "1_0"],
        ]
        expected = []
        for argv in plain:
            code = main(argv)
            expected.append((code, *capsys.readouterr()))

        def refuse():
            raise RuntimeError("argparse tree built")

        monkeypatch.setattr(cli, "build_parser", refuse)
        for argv, want in zip(plain, expected):
            assert (main(argv), *capsys.readouterr()) == want
        for argv in (["-h"], ["search", "-h"], ["search", "--conf", str(PARADOX)],
                     ["search", f"--config={PARADOX}"], ["simulate", "--config", str(PARADOX)],
                     ["search", "--config", str(PARADOX), "--limits-branches", "-1"]):
            with pytest.raises(RuntimeError, match="argparse tree built"):
                main(argv)


@pytest.mark.parametrize("command", list(REQUIRED))
def test_help_describes_every_option(capsys, monkeypatch, command):
    """Each command's help lists its options in grammar order, each with its text."""
    monkeypatch.setenv("COLUMNS", "200")  # one line per option
    assert main([command, "-h"]) == 0
    options = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  --")]
    assert [line.split()[0] for line in options] == OWN[command]
    assert all(re.fullmatch(r"  --[a-z-]+( [A-Z]+)? {2,}\S.*", line) for line in options), options


# Documents for the fuzz test: bundled files, JSON values, edits of the
# paradox document, raw bytes, and values too long or deep for the parser. Ints
# stay small: a horizon or coordinate in the millions is not yet refused
# before the search or the diagram allocates for it.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.sampled_from(["L", "R", "task1", "all"])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["L", "a\nb"]) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
PARADOX_RAW = json.loads(PARADOX.read_text())


def _keys(node):
    return list(node) if isinstance(node, dict) else list(range(len(node))) if isinstance(node, list) else []


def _paths(node, prefix=()):
    yield prefix
    for key in _keys(node):
        yield from _paths(node[key], (*prefix, key))


PARADOX_PATHS = [path for path in _paths(PARADOX_RAW) if path]


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(["file", "file", "value", "edit", "edit", "bytes", "huge", "deep"]))
    if kind == "file":
        return draw(st.sampled_from([PARADOX, SINGLE, OBEDIENT, FOURLAB])).read_bytes()
    if kind == "value":
        return json.dumps(draw(JSON_VALUES)).encode()
    if kind == "edit":
        return json.dumps(_edited_paradox(draw(st.sampled_from(PARADOX_PATHS)),
                                          draw(JSON_VALUES))).encode()
    if kind == "bytes":
        return draw(st.binary(max_size=24))
    if kind == "huge":
        edited = json.dumps(_edited_paradox(draw(st.sampled_from(PARADOX_PATHS)), "HUGE"))
        return edited.replace('"HUGE"', "9" * draw(st.integers(4301, 5000))).encode()
    return b"[" * 50_000


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(list(REQUIRED)), config=documents(),
       strategy=st.sampled_from(["obedient", "config", str(PARADOX), str(OBEDIENT), str(FOURLAB_STRATEGY)])
       | documents(),
       scenario=st.sampled_from(["both", "empty", "only_task1", "mix"]) | st.text(max_size=2),
       extra=st.just([]) | st.lists(st.sampled_from(ODD_TOKENS) | VALUES | NUMBERS, max_size=2))
def test_cli_fuzz(tmp_path_factory, capsys, command, config, strategy, scenario, extra):
    """Every document and argv ends in a documented exit code with nothing
    escaping; every error other than a usage error is one line on stderr."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "config.json").write_bytes(config)
    if isinstance(strategy, bytes):
        (root / "strategy.json").write_bytes(strategy)
        strategy = str(root / "strategy.json")
    elif strategy == "config":
        strategy = str(root / "config.json")
    own = {"search": [], "check": ["--strategy", strategy]}.get(
        command, ["--scenario", scenario, "--strategy", strategy])
    code = main([command, "--config", str(root / "config.json"), *own,
                 "--limits-branches", "50", *extra])
    captured = capsys.readouterr()
    assert code in range(5)
    if code == 2:
        assert captured.err.startswith("error: ") and captured.err.endswith("\n")
        assert len(captured.err.splitlines()) == 1
    elif code != 1:  # a usage error prints argparse's usage lines first
        assert captured.err == ""


def _strings(node):
    """Every string in a JSON value, keys included."""
    if isinstance(node, str):
        yield node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _strings(key)
        yield from _strings(child)


@st.composite
def mutated(draw, value, names=(), near=None):
    """The JSON value ``value`` with one field changed, and that field's
    path: a value replaced (a string by a name the document or ``names``
    holds, or an unknown or unprintable one, an integer by a small one, an
    object or list by an empty one or a copy of another in the document of
    the same ``_kind``, or any of them by any JSON value), a key dropped or
    added, an object's keys reversed, or a list entry doubled. Given the
    path ``near`` of an earlier change, the field is mostly one of that
    field's siblings, given a value of its own type, so that two faults sit
    in one object."""
    value = json.loads(json.dumps(value))
    siblings = []
    if near and draw(st.integers(0, 3)):
        siblings = [key for key in _keys(_at(value, near[:-1])) if key != near[-1]]
    if siblings:
        path = (*near[:-1], draw(st.sampled_from(siblings)))
    else:  # a walk down from the root, so that each part of a document comes up about as often
        path = ()
        while _keys(_at(value, path)) and (not path or draw(st.integers(0, 7))):
            path = (*path, draw(st.sampled_from(_keys(_at(value, path)))))
    parent, target = _at(value, path[:-1]) if path else None, _at(value, path)
    # Mostly a value of the same type, so that faults other than of shape come up too.
    if isinstance(target, str):
        same = st.sampled_from(sorted({*_strings(value), *names, "X", "L\ud800", "all", "at_least_one", "signal"}))
    elif type(target) is int:
        same = st.integers(-3, 12)
    else:
        alike = {json.dumps(node) for node in (_at(value, other) for other in _paths(value))
                 if _kind(node) == _kind(target)}
        alike = sorted((alike | {json.dumps(type(target)())}) - {json.dumps(target)})
        same = st.sampled_from(alike).map(json.loads) if alike else JSON_VALUES
    if siblings:  # a second fault of shape would send both readers to the fault reader
        parent[path[-1]] = draw(same)
        return value, path
    replacement = st.one_of(same, same, same, JSON_VALUES)
    kinds = ["replace"] * 4 + (["drop", "add"] if isinstance(parent, dict) else [])
    kinds += ["reverse"] if isinstance(target, dict) else []
    kinds += ["double"] if isinstance(target, list) and target else []
    kind = draw(st.sampled_from(kinds))
    if kind == "replace":
        if parent is None:
            return draw(replacement), path
        parent[path[-1]] = draw(replacement)
    elif kind == "drop":
        del parent[path[-1]]
    elif kind == "add":
        parent[draw(st.sampled_from(["extra", "at", "task", "origin", "limits", "silence", "events", "send"]))] = \
            draw(replacement)
    elif kind == "reverse":
        reversed_items = list(target.items())[::-1]
        target.clear()
        target.update(reversed_items)
    else:
        target.append(target[draw(st.integers(0, len(target) - 1))])
    return value, path


def _kind(node):
    """A JSON value's type, with an object's keys and the kinds of a list's entries."""
    if isinstance(node, dict):
        return dict, frozenset(node)
    return (list, frozenset(map(_kind, node))) if isinstance(node, list) else type(node)


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _read_or_fault(read, *args):
    try:
        return read(*args)
    except SimulationError as err:
        return f"{type(err).__name__}: {err}"


# Bundled documents to mutate besides random ones: they have every part,
# where a random document often lacks requirements or strategy events.
FIXTURE_CONFIGS = [json.loads(path.read_text()) for path in (PARADOX, SINGLE, FOURLAB)]
FIXTURE_STRATEGIES = [(load_config(config.read_text()), json.loads(strategy.read_text()))
                      for config, strategy in ((PARADOX, OBEDIENT), (FOURLAB, FOURLAB_STRATEGY))]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_one_pass_config_reader_agrees_with_the_fault_reader(data):
    """``load_config`` reads a well-shaped document in one pass and hands one
    with a shape fault to the field-by-field fault reader. On one or two
    single-field mutations of bundled or random documents both give equal
    documents or the same fault, and a document the one-pass reader hands
    on has one."""
    raw = data.draw(st.sampled_from(FIXTURE_CONFIGS) | config_documents().map(serialize_config).map(json.loads))
    near = None
    for _ in range(data.draw(st.sampled_from([2, 1]))):  # mostly two faults: the first in reading order is raised
        raw, near = data.draw(mutated(raw, near=near))
    expected = _read_or_fault(faults.read_config, raw)
    assert _read_or_fault(load_config, json.dumps(raw)) == expected
    try:
        config._config(raw)
    except config._Misshapen:
        assert isinstance(expected, str)
    except SimulationError:
        pass


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_one_pass_strategy_reader_agrees_with_the_fault_reader(data):
    """As for config documents: mutations of bundled or random strategy
    rows load to equal tables or to the same fault through ``load_strategy``
    as through the fault reader."""
    doc, raw = data.draw(st.sampled_from(FIXTURE_STRATEGIES) | strategy_documents().map(
        lambda pair: (pair[0], json.loads(serialize_strategy(pair[1])))))
    near = None
    for _ in range(data.draw(st.sampled_from([2, 1]))):
        raw, near = data.draw(mutated(raw, [*doc.spacetime.locations, *doc.tasks], near))
    expected = _read_or_fault(faults.read_strategy, raw, doc.spacetime, doc.tasks)
    assert _read_or_fault(load_strategy, json.dumps(raw), doc.spacetime, doc.tasks) == expected
    try:
        config._strategy(raw, doc.spacetime, doc.tasks)
    except config._Misshapen:
        assert isinstance(expected, str)
    except SimulationError:
        pass


def test_valid_commands_load_no_fault_reader_text_or_library_helpers(tmp_path):
    """Valid commands that print JSON or a diagram, and documents whose only
    faults are an unknown lab or duplicate coordinates, load neither the
    fault reader nor the text renderers, and nothing loads the library-only
    helpers in ``audit``. A document with a shape fault loads the fault
    reader, which reports its first fault. ``-S`` keeps a site ``.pth`` file
    from loading any of them first."""
    unknown = json.loads(PARADOX.read_text())
    unknown["tasks"]["task1"]["deliver"]["to"] = "L-R-x"
    doubled = json.loads(PARADOX.read_text())
    doubled["locations"] = {"L": 0, "R": 0}
    (tmp_path / "unknown.json").write_text(json.dumps(unknown))
    (tmp_path / "doubled.json").write_text(json.dumps(doubled))
    runs = [
        ["simulate", "--json", "--config", str(PARADOX), "--scenario", "both"],
        ["check", "--json", "--config", str(SINGLE), "--strategy", str(OBEDIENT)],
        ["search", "--json", "--config", str(SINGLE)],
        ["search", "--json", "--config", str(PARADOX)],
        ["diagram", "--config", str(PARADOX), "--scenario", "both"],
        ["check", "--config", str(tmp_path / "unknown.json"), "--strategy", "obedient"],
        ["check", "--config", str(tmp_path / "doubled.json"), "--strategy", "obedient"],
    ]
    probe = (
        "import contextlib, io, sys, nosignal.cli\n"
        "lazy = ('nosignal.faults', 'nosignal.text', 'nosignal.audit')\n"
        "codes, errors = [], io.StringIO()\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors):\n"
        "        codes.append(nosignal.cli.main(argv))\n"
        "print(codes, errors.getvalue().splitlines(), [m for m in lazy if m in sys.modules])\n"
        f"code = nosignal.cli.main(['check', '--config', {str(MISSHAPEN_TASK)!r}, '--strategy', 'obedient'])\n"
        "print(code, [m for m in lazy if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    refusals = ["error: tasks.task1.deliver.to: unknown location 'L-R-x'",
                "error: locations: coordinates must be pairwise distinct"]
    assert proc.stdout == f"[0, 0, 0, 3, 0, 2, 2] {refusals} []\n2 ['nosignal.faults']\n"
    assert proc.stderr == (GOLDEN / "check_misshapen_task.txt").read_text()
