"""Config documents, strategy files, diagrams, and the exit-code contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nosignal import ParseError, Trace, ValidationError, execute, obedient_strategy
from nosignal.cli import main
from nosignal.config import (
    load_config,
    load_strategy,
    serialize_config,
    serialize_strategy,
)
from nosignal.diagram import render_diagram

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"

PARADOX = CONFIGS / "paradox_d3.json"
SINGLE = CONFIGS / "paradox_d3_single.json"
OBEDIENT = CONFIGS / "obedient_d3.json"
FOURLAB = GOLDEN.parent / "diagram_4lab.json"
FOURLAB_STRATEGY = GOLDEN.parent / "diagram_4lab_strategy.json"


def load_fixture_doc():
    return load_config(PARADOX.read_text())


class TestLoadConfig:
    def test_bundled_document_is_valid(self):
        doc = load_fixture_doc()
        assert doc.spacetime.locations == {"L": 0, "R": 3}
        assert doc.spacetime.horizon == 3
        assert set(doc.tasks) == {"task1", "task2"}
        assert set(doc.scenarios) == {"empty", "only_task1", "only_task2", "both"}
        assert [(r.scenario, r.rule.value) for r in doc.requirements] == [
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


class TestStrategyFiles:
    def test_obedient_round_trip(self):
        doc = load_fixture_doc()
        obedient = obedient_strategy(doc.spacetime, doc.tasks)
        text = serialize_strategy(obedient)
        assert load_strategy(text, doc.spacetime, doc.tasks) == obedient
        assert OBEDIENT.read_text() == text  # the bundled fixture stays in sync

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
        """A walk of 1202 slots must not hit the interpreter's recursion limit."""
        deep = tmp_path / "deep.json"
        deep.write_text(json.dumps({
            "locations": {"L": 0, "R": 5}, "horizon": 600, "tasks": {},
            "scenarios": {"idle": []},
            "requirements": [{"scenario": "idle", "rule": "all"}],
        }))
        assert main(["search", "--config", str(deep), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["outcome"] == "found"

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
IMPOSSIBLE_TEXT = """\
impossible: all 16 refuted branches over 4 decision points fail some requirement
  requirement 1 (all of 'only_task1'): first failure on 12 branches
  requirement 2 (all of 'only_task2'): first failure on 3 branches
  requirement 3 (at_least_one of 'both'): first failure on 1 branches
"""
# One edit of paradox_d3.json per input invariant: (JSON keys, new value,
# what `search` prints after "error: ").
INVALID_EDITS = [
    (("locations",), {"L": 0}, "locations: need at least 2 locations"),
    (("locations",), {"L": 0, "R": 0}, "locations: coordinates must be pairwise distinct"),
    (("horizon",), 0, "horizon: must be >= 1, got 0"),
    (("tasks", "task1", "deliver", "to"), "L", "tasks.task1.deliver: endpoints must differ"),
    (("tasks", "task1", "deliver", "to"), "X", "tasks.task1.deliver.to: unknown location 'X'"),
    (("tasks", "task1", "deliver", "at"), 5,
     "tasks.task1.deliver.at: 5 outside [0, 3]; horizon too small"),
    (("tasks", "task1", "silence", 0, "to"), "R", "tasks.task1.silence[0]: endpoints must differ"),
    (("tasks", "task1", "silence", 0, "from"), "X",
     "tasks.task1.silence[0].from: unknown location 'X'"),
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
]


def _edited_paradox(keys, value):
    doc = json.loads(PARADOX.read_text())
    *parents, last = keys
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


def _cli_cases():
    yield pytest.param(["search", "--config", str(SINGLE)], None, None,
                       (FOUND_TEXT, "", 0), id="search-found")
    yield pytest.param(["search", "--config", str(PARADOX)], None, None,
                       (IMPOSSIBLE_TEXT, "", 3), id="search-impossible")
    for keys, value, message in INVALID_EDITS:
        yield pytest.param(["search"], _edited_paradox(keys, value), None,
                           ("", f"error: {message}\n", 2),
                           id="-".join(map(str, keys)) + "=" + json.dumps(value, separators=(",", ":")))
    for i, (rows, message) in enumerate(INVALID_STRATEGIES):
        yield pytest.param(["check", "--config", str(PARADOX)], None, {"rows": rows},
                           ("", f"error: {message}\n", 2), id=f"strategy-{i}")


@pytest.mark.parametrize("argv, config, strategy, expected", _cli_cases())
def test_cli_bytes(capsys, tmp_path, argv, config, strategy, expected):
    """Exact stdout, stderr and exit code of the text CLI."""
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
    are never evaluated, so ``typing`` is not loaded either. ``-S`` keeps a
    site ``.pth`` file from loading them first."""
    probe = ("import sys, nosignal.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
