"""Seeded inputs, CLI operations and output checks for the three workloads.

The seed picks lab names, a coordinate offset and a mirror orientation for
every search instance. Names are drawn at random but handed to the roles in
sorted order, and the walk sees coordinates only through distances, so
verdicts and leaf counts do not depend on the seed. The ``replay``
documents are random too, but drawn from a fixed stream; the seed gives
their labs names and a coordinate offset only. A diagram trims each row
after its last mark, so documents drawn afresh per seed, or mirrored,
would move the bytes written and the peak memory with the seed (16 KB to
910 KB of diagram for the largest one).

A workload yields its operations one pass at a time as a generator: each
``yield`` hands an ``Op`` to the runner and receives its ``Result`` back,
so a later operation can use an earlier one's output (``found`` checks the
strategy its search emitted).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import oracles

EXIT_OK, EXIT_INVALID, EXIT_UNSATISFIED, EXIT_ABORTED = 0, 2, 3, 4
NAME_FIRST = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
NAME_REST = NAME_FIRST + "0123456789"

# Paradox gaps and the branch cap that stops the three-lab paradox after a
# few seconds of walking (about 2 s on a 2-core x86 VM at the seed commit).
# D=4 (2.4M leaves, about 15 s there) is left out: a run of 36 s would
# hold two or three samples of it, too few for a steady median.
EXHAUST_GAPS = {"full": (1, 2, 3), "smoke": (1, 2)}
THREE_LAB_CAP = {"full": 300_000, "smoke": 2_000}
TWO_LAB_CAP = 10_000_000
FOUND_GAPS = {"full": (2, 3, 4), "smoke": (2,)}
DEEP_HORIZON = 600
# Replay documents: (labs, span in cells, horizon, tasks, scenarios).
REPLAY_LADDER = {
    "full": ((2, 4, 5, 12, 8), (3, 40, 30, 16, 12), (4, 200, 120, 24, 16),
             (6, 600, 250, 32, 20), (8, 1000, 400, 40, 24)),
    "smoke": ((2, 4, 5, 12, 8), (3, 40, 30, 16, 12)),
}
GOLDEN = ("only_task1", "both", "empty")


@dataclass
class Result:
    """What one CLI invocation produced, as the runner observed it."""

    code: int
    stdout: str
    stderr: str
    wall_s: float
    started: float = 0.0  # spawn time on the system monotonic clock
    factor: float = 1.0  # host-speed factor at ``started`` (``run.HostSpeed``)
    setup_s: float | None = None
    main_s: float | None = None
    rss_kb: int = 0
    spans: list = field(default_factory=list)


@dataclass
class Op:
    """One CLI invocation and the check of its output.

    ``check`` returns a list of problems, each ``(kind, message)`` where
    kind is ``"wrong"`` (an output disagrees with the oracle) or
    ``"failed"`` (no usable answer, such as a valid document refused).
    """

    label: str
    argv: list[str]
    check: Callable[[Result], list[tuple[str, str]]]
    instance: Instance | None = None


@dataclass
class Instance:
    """A search input: a config document and what its search must return."""

    label: str
    doc: dict
    expect: tuple[str, ...]
    closed_form: int | None = None  # leaves of the unpruned walk, where known
    two_lab: bool = False


def _names(rng: random.Random, count: int) -> list[str]:
    names: set[str] = set()
    while len(names) < count:
        names.add(rng.choice(NAME_FIRST) + "".join(rng.choice(NAME_REST) for _ in range(rng.randint(0, 3))))
    return sorted(names)


def _place(rng: random.Random, rel: list[int], mirror: bool) -> list[int]:
    offset = rng.randint(-10**6, 10**6)
    sign = -1 if mirror and rng.random() < 0.5 else 1
    return [offset + sign * x for x in rel]


def _instantiate(rng: random.Random, roles: tuple[str, ...], rel: list[int], template: dict,
                 mirror: bool = True) -> dict:
    """Rename template roles to seeded lab names and place them on the lattice."""
    names = dict(zip(roles, _names(rng, len(roles))))
    doc = json.loads(json.dumps(template))
    doc["locations"] = dict(zip(names.values(), _place(rng, rel, mirror)))
    for task in doc["tasks"].values():
        for pair in [task["deliver"], *task["silence"]]:
            pair["from"], pair["to"] = names[pair["from"]], names[pair["to"]]
    for requests in doc["scenarios"].values():
        for request in requests:
            request["location"] = names[request["location"]]
    return doc


def _two_task_template(src: str, dst: str, horizon: int, requirements: list[tuple[str, str]]) -> dict:
    """The paradox task pair between ``src`` and ``dst``, delivered at ``horizon``."""
    return {
        "horizon": horizon,
        "tasks": {
            "task1": {"deliver": {"from": src, "to": dst, "at": horizon},
                      "silence": [{"from": dst, "to": src}]},
            "task2": {"deliver": {"from": dst, "to": src, "at": horizon},
                      "silence": [{"from": src, "to": dst}]},
        },
        "scenarios": {
            "only_task1": [{"task": "task1", "location": src, "time": 0}],
            "only_task2": [{"task": "task2", "location": dst, "time": 0}],
            "both": [{"task": "task1", "location": src, "time": 0},
                     {"task": "task2", "location": dst, "time": 0}],
        },
        "requirements": [{"scenario": s, "rule": r} for s, r in requirements],
    }


PARADOX = [("only_task1", "all"), ("only_task2", "all"), ("both", "at_least_one")]


def exhaust_instances(seed: int, size: str) -> list[Instance]:
    rng = random.Random(f"exhaust/{seed}")
    out = []
    for gap in EXHAUST_GAPS[size]:
        doc = _instantiate(rng, ("L", "R"), [0, gap], _two_task_template("L", "R", gap, PARADOX))
        doc["limits"] = {"max_branches": TWO_LAB_CAP}
        out.append(Instance(f"paradox-D{gap}", doc, ("impossible",), 9 * 4 ** (2 * gap + 1), True))
    doc = _instantiate(rng, ("A", "B", "C"), [0, 1, 2], _two_task_template("A", "C", 2, PARADOX))
    doc["limits"] = {"max_branches": THREE_LAB_CAP[size]}
    out.append(Instance("paradox-3lab-capped", doc, ("impossible", "aborted")))
    return out


def found_instances(seed: int, size: str) -> list[Instance]:
    rng = random.Random(f"found/{seed}")
    out = []
    for gap in FOUND_GAPS[size]:
        template = _two_task_template("L", "R", gap, PARADOX[:2])
        doc = _instantiate(rng, ("L", "R"), [0, gap], template)
        out.append(Instance(f"singles-D{gap}", doc, ("found",), 9 * 4 ** (2 * gap) + 1, True))
    relay = {
        "horizon": 2,
        "tasks": {"t": {"deliver": {"from": "A", "to": "C", "at": 2}, "silence": [{"from": "C", "to": "A"}]}},
        "scenarios": {"s": [{"task": "t", "location": "A", "time": 0}]},
        "requirements": [{"scenario": "s", "rule": "all"}],
    }
    out.append(Instance("relay-3lab", _instantiate(rng, ("A", "B", "C"), [0, 1, 2], relay), ("found",), 2 ** 17 + 1))
    deep = {"horizon": DEEP_HORIZON, "tasks": {}, "scenarios": {"idle": []},
            "requirements": [{"scenario": "idle", "rule": "all"}]}
    out.append(Instance(f"deep-H{DEEP_HORIZON}", _instantiate(rng, ("L", "R"), [0, 5], deep), ("found",), 1))
    return out


def replay_documents(seed: int, size: str) -> list[dict]:
    docs = []
    for i, (labs, *shape) in enumerate(REPLAY_LADDER[size]):
        roles = tuple(f"L{j}" for j in range(labs))
        template = _replay_doc(random.Random(f"replay/{i}"), list(roles), *shape)
        rel = [template["locations"][role] for role in roles]
        docs.append(_instantiate(random.Random(f"replay/{seed}/{i}"), roles, rel, template, mirror=False))
    return docs


def _replay_doc(rng, names: list[str], span: int, horizon: int, n_tasks: int, n_scenarios: int) -> dict:
    rng.shuffle(names)
    rel = sorted([0, span - 1, *rng.sample(range(1, span - 1), len(names) - 2)])
    locations = dict(zip(names, rel))
    pairs = [(o, d) for o in names for d in names
             if o != d and abs(locations[o] - locations[d]) <= horizon]
    tasks = {}
    for i in range(n_tasks):
        origin, dest = rng.choice(pairs)
        bans = [rng.sample(names, 2) for _ in range(rng.randint(0, 2))]
        tasks[f"t{i}"] = {
            "deliver": {"from": origin, "to": dest,
                        "at": rng.randint(abs(locations[origin] - locations[dest]), horizon)},
            "silence": [{"from": o, "to": d} for o, d in bans],
        }
    scenarios = {}
    for i in range(n_scenarios):
        requests, slots = [], set()
        for _ in range(rng.randint(0, 4)):
            task_id = rng.choice(sorted(tasks))
            deliver = tasks[task_id]["deliver"]
            if rng.random() < 0.6:  # where and when the obedient strategy acts on it
                slot = (deliver["from"], deliver["at"] - abs(locations[deliver["from"]] - locations[deliver["to"]]))
            else:
                slot = (rng.choice(names), rng.randint(0, horizon))
            if slot not in slots:
                slots.add(slot)
                requests.append({"task": task_id, "location": slot[0], "time": slot[1]})
        scenarios[f"s{i}"] = requests
    requirements = [
        {"scenario": name, "rule": "at_least_one" if requests and rng.random() < 0.5 else "all"}
        for name, requests in scenarios.items()
    ]
    return {"locations": locations, "horizon": horizon, "tasks": tasks,
            "scenarios": scenarios, "requirements": requirements}


# ---- oracles -------------------------------------------------------------

def _task_rows(doc: dict, task_ids) -> list[tuple]:
    rows = []
    for task_id in task_ids:
        task = doc["tasks"][task_id]
        deliver = task["deliver"]
        rows.append(((deliver["from"], deliver["to"], deliver["at"]),
                     {(ban["from"], ban["to"]) for ban in task["silence"]}))
    return rows


def _requests(doc: dict, scenario: str) -> list[tuple[str, str, int]]:
    return [(r["task"], r["location"], r["time"]) for r in doc["scenarios"][scenario]]


def _run(doc: dict, scenario: str, table: dict):
    return oracles.mini_execute(doc["locations"], doc["horizon"], _requests(doc, scenario), table)


def _requirement_verdicts(doc: dict, table: dict) -> list[tuple[dict, bool]]:
    """Per requirement: task verdicts and whether the rule holds, by the oracle."""
    out = []
    for requirement in doc["requirements"]:
        scenario = requirement["scenario"]
        task_ids = sorted({r["task"] for r in doc["scenarios"][scenario]})
        departures, arrivals = _run(doc, scenario, table)
        verdicts = {tid: oracles.task_ok(departures, arrivals, *row)
                    for tid, row in zip(task_ids, _task_rows(doc, task_ids))}
        combine = all if requirement["rule"] == "all" else any
        out.append((verdicts, combine(verdicts.values())))
    return out


def _table_from_rows(rows: list[dict]) -> dict:
    table = {}
    for row in rows:
        events = tuple(sorted(
            (e["time"], e["kind"], e["task"] if e["kind"] == "request" else e["origin"])
            for e in row["history"]["events"]
        ))
        table[(row["agent"], row["history"]["upto"], events)] = tuple(row["action"]["send"])
    return table


def _obedient_rows(doc: dict) -> list[dict]:
    rows = []
    for task_id in sorted(doc["tasks"]):
        deliver = doc["tasks"][task_id]["deliver"]
        submit = deliver["at"] - abs(doc["locations"][deliver["from"]] - doc["locations"][deliver["to"]])
        rows.append({"agent": deliver["from"],
                     "history": {"upto": submit,
                                 "events": [{"kind": "request", "time": submit, "task": task_id}]},
                     "action": {"send": [deliver["to"]]}})
    return rows


# ---- checks --------------------------------------------------------------

def _json(result: Result) -> tuple[Any, list[tuple[str, str]]]:
    try:
        return json.loads(result.stdout), []
    except ValueError as err:
        return None, [("wrong", f"unparsable --json output: {err}")]


def _want_code(result: Result, code: int) -> list[tuple[str, str]]:
    if result.code != code:
        return [("wrong", f"exit code {result.code}, expected {code}")]
    return []


def _check_reports(payload: dict, expected: list[tuple[dict, bool]]) -> list[tuple[str, str]]:
    reports = payload.get("reports", [])
    if len(reports) != len(expected):
        return [("wrong", f"{len(reports)} reports for {len(expected)} requirements")]
    problems = []
    for i, (report, (verdicts, satisfied)) in enumerate(zip(reports, expected)):
        if report.get("verdicts") != verdicts or report.get("satisfied") != satisfied:
            problems.append(("wrong", f"requirement {i}: {report} disagrees with the oracle {verdicts}"))
    return problems


def check_search(instance: Instance, found_rows: list) -> Callable[[Result], list]:
    """Exit code matches the outcome, the outcome is allowed, and it holds up."""
    codes = {"found": EXIT_OK, "impossible": EXIT_UNSATISFIED, "aborted": EXIT_ABORTED}

    def check(result: Result) -> list[tuple[str, str]]:
        payload, problems = _json(result)
        if problems:
            return [("failed", f"exit {result.code}: {result.stderr.strip()}")] if result.code == EXIT_INVALID else problems
        outcome = payload.get("outcome")
        if outcome not in instance.expect:
            kind = "failed" if outcome == "aborted" else "wrong"
            return [(kind, f"outcome {outcome!r}, expected one of {instance.expect}")]
        problems = _want_code(result, codes[outcome])
        if outcome == "impossible":
            failures = payload["failures_by_requirement"]
            if sum(failures.values()) != payload["strategies_explored"]:
                problems.append(("wrong", "failures_by_requirement does not sum to strategies_explored"))
            if not set(failures) <= {str(i) for i in range(len(instance.doc["requirements"]))}:
                problems.append(("wrong", f"failure index outside the requirements: {sorted(failures)}"))
        elif outcome == "aborted":
            cap = instance.doc["limits"]["max_branches"]
            if payload["strategies_explored"] != cap or payload["limit"] != "branches":
                problems.append(("wrong", f"aborted at {payload['strategies_explored']}, cap {cap}"))
        else:
            rows = payload["strategy"]["rows"]
            oracle = _requirement_verdicts(instance.doc, _table_from_rows(rows))
            if not all(ok for _, ok in oracle):
                problems.append(("wrong", "emitted strategy fails a requirement under the oracle executor"))
            problems += _check_reports(payload, oracle)
            found_rows.append(rows)
        return problems
    return check


def check_strategy_file(doc: dict, rows: list) -> Callable[[Result], list]:
    """``check --json`` agrees with the oracle run of the same strategy rows."""
    expected = _requirement_verdicts(doc, _table_from_rows(rows))

    def check(result: Result) -> list[tuple[str, str]]:
        payload, problems = _json(result)
        if problems:
            return problems
        all_ok = all(ok for _, ok in expected)
        problems = _want_code(result, EXIT_OK if all_ok else EXIT_UNSATISFIED)
        if payload.get("all_satisfied") is not all_ok:
            problems.append(("wrong", f"all_satisfied {payload.get('all_satisfied')}, oracle {all_ok}"))
        return problems + _check_reports(payload, expected)
    return check


def check_simulate(doc: dict, scenario: str, table: dict, pictures: list) -> Callable[[Result], list]:
    departures, arrivals = _run(doc, scenario, table)
    task_ids = sorted(doc["tasks"])
    verdicts = {tid: oracles.task_ok(departures, arrivals, *row)
                for tid, row in zip(task_ids, _task_rows(doc, task_ids))}

    def check(result: Result) -> list[tuple[str, str]]:
        payload, problems = _json(result)
        if problems:
            return problems
        problems = _want_code(result, EXIT_OK)
        trace = payload.get("trace", {})
        if {tuple(d) for d in trace.get("departures", [])} != departures:
            problems.append(("wrong", "departures differ from the oracle executor"))
        if {tuple(a) for a in trace.get("arrivals", [])} != arrivals:
            problems.append(("wrong", "arrivals differ from the oracle executor"))
        if payload.get("verdicts") != verdicts:
            problems.append(("wrong", "task verdicts differ from the oracle judge"))
        pictures.append(payload.get("diagram"))
        return problems
    return check


def check_text(expected: str | None, what: str) -> Callable[[Result], list]:
    def check(result: Result) -> list[tuple[str, str]]:
        problems = _want_code(result, EXIT_OK)
        if expected is None:
            problems.append(("failed", f"no {what} to compare against"))
        elif result.stdout != expected:
            problems.append(("wrong", f"diagram bytes differ from {what}"))
        return problems
    return check


def check_refused(result: Result) -> list[tuple[str, str]]:
    """Invalid input: exit 2, nothing on stdout, one ``error:`` line on stderr."""
    problems = _want_code(result, EXIT_INVALID)
    if result.stdout or not result.stderr.startswith("error: "):
        problems.append(("wrong", "invalid input not reported as one 'error:' line"))
    return problems


# ---- workloads -----------------------------------------------------------

class Workload:
    """Generated inputs of one workload, written under ``work``."""

    name = ""

    def __init__(self, root: Path, work: Path, seed: int, size: str):
        self.root, self.work, self.seed, self.size = root, work, seed, size

    def write(self, name: str, payload: Any) -> str:
        path = self.work / name
        text = payload if isinstance(payload, str) else json.dumps(payload, indent=1)
        path.write_text(text, encoding="utf-8")
        return str(path.relative_to(self.root))

    def documents(self) -> list[dict]:
        """Every config document of the workload, for the in-process layer probes."""
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError


class Exhaust(Workload):
    name = "exhaust"

    def __init__(self, *args):
        super().__init__(*args)
        self.instances = exhaust_instances(self.seed, self.size)
        self.paths = [self.write(f"{i.label}.json", i.doc) for i in self.instances]

    def documents(self):
        return [i.doc for i in self.instances]

    def ops(self):
        for instance, path in zip(self.instances, self.paths):
            yield Op(instance.label, ["search", "--json", "--config", path], check_search(instance, []), instance)


class Found(Workload):
    name = "found"

    def __init__(self, *args):
        super().__init__(*args)
        self.instances = found_instances(self.seed, self.size)
        self.paths = [self.write(f"{i.label}.json", i.doc) for i in self.instances]

    def documents(self):
        return [i.doc for i in self.instances]

    def ops(self):
        for instance, path in zip(self.instances, self.paths):
            rows: list = []
            yield Op(instance.label, ["search", "--json", "--config", path], check_search(instance, rows), instance)
            if rows:
                strategy = self.write(f"{instance.label}.strategy.json", {"rows": rows[0]})
                yield Op(f"{instance.label}/check", ["check", "--json", "--config", path, "--strategy", strategy],
                         check_strategy_file(instance.doc, rows[0]))


class Replay(Workload):
    name = "replay"

    def __init__(self, *args):
        super().__init__(*args)
        self.docs = replay_documents(self.seed, self.size)
        self.paths = [self.write(f"replay{i}.json", doc) for i, doc in enumerate(self.docs)]
        self.strategies = [self.write(f"replay{i}.obedient.json", {"rows": _obedient_rows(doc)})
                           for i, doc in enumerate(self.docs)]
        first = self.docs[0]
        unknown = json.loads(json.dumps(first))
        next(iter(unknown["tasks"].values()))["deliver"]["to"] = "-".join(first["locations"]) + "-x"
        doubled = json.loads(json.dumps(first))
        doubled["locations"] = {name: 0 for name in first["locations"]}
        self.invalid = [
            ("malformed-json", ["check", "--config", self.write("malformed.json", json.dumps(first)[:-9]),
                                "--strategy", "obedient"]),
            ("unknown-location", ["check", "--config", self.write("unknown.json", unknown),
                                  "--strategy", "obedient"]),
            ("duplicate-coordinates", ["check", "--config", self.write("doubled.json", doubled),
                                       "--strategy", "obedient"]),
            ("limits-branches-0", ["search", "--config", self.paths[0], "--limits-branches", "0"]),
        ]

    def documents(self):
        return self.docs

    def ops(self):
        for i, (doc, path, strategy) in enumerate(zip(self.docs, self.paths, self.strategies)):
            scenario = max(sorted(doc["scenarios"]), key=lambda s: len(doc["scenarios"][s]))
            table = _table_from_rows(_obedient_rows(doc))
            pictures: list = []
            yield Op(f"replay{i}/simulate", ["simulate", "--json", "--config", path, "--scenario", scenario],
                     check_simulate(doc, scenario, table, pictures))
            yield Op(f"replay{i}/check", ["check", "--json", "--config", path, "--strategy", strategy],
                     check_strategy_file(doc, _obedient_rows(doc)))
            yield Op(f"replay{i}/diagram", ["diagram", "--config", path, "--scenario", scenario],
                     check_text(pictures[0] if pictures else None, "simulate --json's diagram"))
        golden = self.root / "tests" / "fixtures" / "golden"
        for scenario in GOLDEN:
            expected = (golden / f"diagram_{scenario}.txt").read_text(encoding="utf-8")
            yield Op(f"golden/{scenario}", ["diagram", "--config", "configs/paradox_d3.json", "--scenario", scenario],
                     check_text(expected, f"golden diagram_{scenario}.txt"))
        for label, argv in self.invalid:
            yield Op(f"invalid/{label}", argv, check_refused)


WORKLOADS = {cls.name: cls for cls in (Exhaust, Found, Replay)}
