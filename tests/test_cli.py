"""Config documents, strategy files, diagrams, and the exit-code contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nosignal import ParseError, Trace, ValidationError, cli, execute, obedient_strategy
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

    @pytest.mark.parametrize("name", ["replay1_seed0.json", "replay2_seed0.json"])
    def test_random_document_decided_in_few_branches(self, capsys, name):
        """Random benchmark documents (3 labs at horizon 30, 4 labs at horizon
        120) where the slice walk needs over 100,000 and 32,768 branches;
        backjumping refutes each in a handful."""
        assert main(["search", "--config", str(GOLDEN.parent / name), "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "impossible"
        assert payload["strategies_explored"] <= 20

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
IMPOSSIBLE_TEXT = """\
impossible: all 3 refuted branches over 4 decision points fail some requirement
  requirement 1 (all of 'only_task1'): first failure on 1 branches
  requirement 2 (all of 'only_task2'): first failure on 1 branches
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
    yield pytest.param(["simulate", "--scenario", "both"],
                       _edited_paradox(("tasks", "task1", "deliver", "at"), 1), None,
                       ("", "error: task 'task1': delivery at t=1 comes sooner than the 3 steps "
                            "a signal from 'L' takes to reach 'R'\n", 2),
                       id="simulate-delivery-sooner-than-travel")
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


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*prefix, key))


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
