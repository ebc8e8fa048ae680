"""Value semantics of every public value class, and of the raw task rows.

Pins what callers may rely on: field-tuple equality within one class,
hashing (and which classes refuse it), that none orders, the exact
``repr``, the frozen guard, keyword construction with defaults, and
pickle/deepcopy round trips. A task is no class but the plain tuple
``((origin, dest, at), bans)`` the loader reads, a scenario the frozenset of
its request triples, a requirement the pair ``(requests, rule)`` and a
document's requirement the pair ``(scenario name, rule)``; these are pinned
as plain values on the same checks.
"""

import copy
import json
import pickle

import pytest

from nosignal import (
    Aborted,
    AuditReport,
    Certificate,
    Found,
    Impossible,
    RequirementReport,
    Rule,
    SearchLimits,
    SpacetimeConfig,
    Trace,
)
from nosignal.config import ConfigDocument, load_config
from nosignal.faults import read_config
from nosignal.audit import AuditViolation

CFG = SpacetimeConfig({"L": 0, "R": 3}, 3)
HIST = ("L", 0, ((0, "request", "task1"),))
STRAT = {("L", 0, ((0, "request", "task1"),)): ("R",)}
TR = ("task1", "L", 0)
SCEN = frozenset({TR})
TASK = (("L", "R", 3), (("R", "L"),))
REQ = (SCEN, Rule.ALL)
REPORT = RequirementReport(REQ, {"task1": True}, True)
LIMITS = SearchLimits(10, 5)
CERT = Certificate((HIST,), 3, (0, 1, 0))
VIOL = AuditViolation(0, "L", 0, HIST, (frozenset({"R"}), frozenset()))
NAMED = ("only", Rule.ALL)

H_REPR = "('L', 0, ((0, 'request', 'task1'),))"
STRAT_REPR = "{('L', 0, ((0, 'request', 'task1'),)): ('R',)}"
SCEN_REPR = "frozenset({('task1', 'L', 0)})"
TASK_REPR = "(('L', 'R', 3), (('R', 'L'),))"
REQ_REPR = f"({SCEN_REPR}, <Rule.ALL: 'all'>)"
NAMED_REPR = "('only', <Rule.ALL: 'all'>)"
REPORT_REPR = f"RequirementReport(requirement={REQ_REPR}, verdicts={{'task1': True}}, satisfied=True)"
CERT_REPR = (
    f"Certificate(decision_points=({H_REPR},), "
    "strategies_explored=3, leaf_failures=(0, 1, 0))"
)
VIOL_REPR = (
    f"AuditViolation(pair_index=0, agent='L', time=0, history={H_REPR}, "
    "sends=(frozenset({'R'}), frozenset()))"
)
LIMITS_REPR = "SearchLimits(max_branches=10, max_decision_points=5)"
CFG_REPR = "SpacetimeConfig(locations={'L': 0, 'R': 3}, horizon=3)"

# (class, constructor args, args of an unequal instance, first field, repr)
CASES = [
    (SpacetimeConfig, ({"L": 0, "R": 3}, 3), ({"L": 0, "R": 3}, 4), "locations", CFG_REPR),
    (Trace, (frozenset({("task1", "L", 0)}), frozenset({("L", "R", 0)}), frozenset({("L", "R", 3)})),
     (frozenset(), frozenset(), frozenset()), "requests",
     "Trace(requests=frozenset({('task1', 'L', 0)}), departures=frozenset({('L', 'R', 0)}), "
     "arrivals=frozenset({('L', 'R', 3)}))"),
    (RequirementReport, (REQ, {"task1": True}, True), (REQ, {"task1": False}, False),
     "requirement", REPORT_REPR),
    (SearchLimits, (10, 5), (10, 6), "max_branches", LIMITS_REPR),
    (Certificate, ((HIST,), 3, (0, 1, 0)), ((), 0, ()), "decision_points", CERT_REPR),
    (Found, (STRAT, (REPORT,)), ({}, ()), "strategy",
     f"Found(strategy={STRAT_REPR}, reports=({REPORT_REPR},))"),
    (Impossible, (CERT,), (Certificate((), 0, ()),), "certificate",
     f"Impossible(certificate={CERT_REPR})"),
    (Aborted, ("branches", 10, 4), ("decision_points", 10, 4), "limit",
     "Aborted(limit='branches', strategies_explored=10, decision_points=4)"),
    (AuditViolation, (0, "L", 0, HIST, (frozenset({"R"}), frozenset())),
     (1, "L", 0, HIST, (frozenset({"R"}), frozenset())), "pair_index", VIOL_REPR),
    (AuditReport, (3, (VIOL,)), (3, ()), "checks", f"AuditReport(checks=3, violations=({VIOL_REPR},))"),
    (ConfigDocument, (CFG, {"task1": TASK}, {"only": SCEN}, [NAMED], LIMITS),
     (CFG, {}, {}, [], None), "spacetime",
     f"ConfigDocument(spacetime={CFG_REPR}, tasks={{'task1': {TASK_REPR}}}, "
     f"scenarios={{'only': {SCEN_REPR}}}, requirements=[{NAMED_REPR}], limits={LIMITS_REPR})"),
]

# Frozen, but a field holds a dict.
UNHASHABLE_FIELDS = {
    SpacetimeConfig: "unhashable type: 'dict'",
    RequirementReport: "unhashable type: 'dict'",
    Found: "unhashable type: 'dict'",
    ConfigDocument: "unhashable type: 'dict'",
}


def _parts(task: dict, request: dict, requirement: dict,
           read=lambda doc: load_config(json.dumps(doc))) -> dict:
    """The delivery, the first ban, the whole task, the scenario, the
    requirement and the document's requirement, by repr, as ``read`` reads a
    document on the ``CFG`` line holding ``task``, a scenario of ``request``
    and ``requirement``."""
    doc = read({"locations": CFG.locations, "horizon": CFG.horizon, "tasks": {"task1": task},
                "scenarios": {"only": [request]}, "requirements": [requirement]})
    task = doc.tasks["task1"]
    parts = [task[0], task[1][0], task, doc.scenarios["only"], *doc.resolve_requirements(), *doc.requirements]
    return {repr(part): part for part in parts}


# ``load_config`` reads objects with their keys in order at once; the fault
# reader reads the same objects, their keys reordered, field by field. Both
# must give the same plain values.
IN_ORDER = _parts({"deliver": {"from": "L", "to": "R", "at": 3}, "silence": [{"from": "R", "to": "L"}]},
                  {"task": "task1", "location": "L", "time": 0}, {"scenario": "only", "rule": "all"})
BY_FIELD = _parts({"silence": [{"to": "L", "from": "R"}], "deliver": {"at": 3, "to": "R", "from": "L"}},
                  {"time": 0, "location": "L", "task": "task1"}, {"rule": "all", "scenario": "only"},
                  read_config)

# (type, (plain value,), (an unequal one,), first index, repr), named for the
# part each value holds: the delivery, a silence ban, the whole task, the
# scenario, the requirement, the document's requirement.
ROW_CASES = [
    (tuple, (TASK[0],), (("R", "L", 3),), 0, "('L', 'R', 3)"),
    (tuple, (TASK[1][0],), (("L", "R"),), 0, "('R', 'L')"),
    (tuple, (TASK,), ((("L", "R", 3), ()),), 0, TASK_REPR),
    (frozenset, (SCEN,), (frozenset(),), 0, SCEN_REPR),
    (tuple, (REQ,), ((SCEN, Rule.AT_LEAST_ONE),), 0, REQ_REPR),
    (tuple, (NAMED,), (("both", Rule.ALL),), 0, NAMED_REPR),
]
ROW_TYPES = (tuple, frozenset)

ids = [case[0].__name__ for case in CASES] + ["Deliver", "Silence", "TaskSpec", "Scenario", "Requirement",
                                               "NamedRequirement"]
cases = pytest.mark.parametrize("cls, args, other, field, text", CASES + ROW_CASES, ids=ids)


def test_every_public_value_class_is_pinned():
    assert len({case[0] for case in CASES}) == len(CASES) == 11


@cases
def test_equality_is_per_class_field_tuple(cls, args, other, field, text):
    a, b = cls(*args), cls(*args)
    if cls in ROW_TYPES:
        # A plain value, the same whichever way the loader read it.
        assert type(a) is cls and a == IN_ORDER[text] == BY_FIELD[text]
        assert a != cls(*other)
        assert all(a != c[0](*c[1]) for c in CASES)
        return
    assert a == b and not a != b
    assert a != cls(*other)
    assert a != args and args != a
    assert a.__eq__(args) is NotImplemented
    # The same field values in another class are not equal.
    assert all(a != c[0](*c[1]) for c in CASES if c[0] is not cls)


@cases
def test_hash(cls, args, other, field, text):
    a, b = cls(*args), cls(*args)
    if cls in UNHASHABLE_FIELDS:
        with pytest.raises(TypeError) as err:
            hash(a)
        assert str(err.value) == UNHASHABLE_FIELDS[cls]
    else:
        assert hash(a) == hash(b)
        assert {a, b} == {a}


@cases
def test_ordering(cls, args, other, field, text):
    a, b = cls(*args), cls(*other)
    if cls in ROW_TYPES:
        # Unequal plain values order as tuples (or sets, by inclusion) do.
        assert (a < b) is not (b < a)
        return
    with pytest.raises(TypeError):
        a < b


@cases
def test_repr_is_literal(cls, args, other, field, text):
    assert repr(cls(*args)) == text


@cases
def test_fields_are_read_only(cls, args, other, field, text):
    a = cls(*args)
    if cls in ROW_TYPES:
        with pytest.raises(TypeError):
            a[field] = None
        with pytest.raises(TypeError):
            del a[field]
        with pytest.raises(AttributeError):
            a.not_a_field = 1
        assert repr(a) == text
        return
    with pytest.raises(AttributeError) as err:
        setattr(a, field, None)
    assert str(err.value) == f"cannot assign to field {field!r}"
    with pytest.raises(AttributeError) as err:
        delattr(a, field)
    assert str(err.value) == f"cannot delete field {field!r}"
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert repr(a) == text


@cases
def test_pickle_and_deepcopy_round_trip(cls, args, other, field, text):
    a = cls(*args)
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(twin) is cls
        assert twin == a
        assert repr(twin) == text


def test_keyword_construction_with_defaults():
    assert Trace() == Trace(requests=frozenset(), departures=frozenset(), arrivals=frozenset())
    assert SearchLimits() == SearchLimits(max_branches=2_000_000, max_decision_points=10_000)
    assert AuditReport(checks=0) == AuditReport(0, ())
    assert RequirementReport(requirement=REQ, verdicts={"task1": True}, satisfied=True) == REPORT
    assert SpacetimeConfig(locations={"L": 0, "R": 3}, horizon=3) == CFG
    assert Certificate(decision_points=(), strategies_explored=0, leaf_failures=()).leaf_failures == ()
    assert Found(strategy=STRAT, reports=()).strategy is STRAT
    assert Impossible(certificate=CERT).certificate is CERT
    assert Aborted(limit="branches", strategies_explored=1, decision_points=2).decision_points == 2

    # Mutable defaults are fresh per instance.
    d1 = ConfigDocument(spacetime=CFG, tasks={}, scenarios={})
    d2 = ConfigDocument(CFG, {}, {})
    assert d1.requirements == [] and d1.requirements is not d2.requirements
    assert d1.limits is None


def test_constructors_convert_and_validate():
    locations = {"L": 0, "R": 3}
    cfg = SpacetimeConfig(locations, 3)
    assert cfg.locations == locations and cfg.locations is not locations

