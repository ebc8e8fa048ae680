"""Value semantics of every public value class, and of the raw task rows.

Pins what callers may rely on: field-tuple equality within one class,
hashing (and which classes refuse it), that none orders, the exact
``repr``, the frozen guard, keyword construction with defaults, and
pickle/deepcopy round trips. A task is no class but the plain tuple
``((origin, dest, at), bans)`` the loader reads, a scenario the frozenset of
its request triples, a requirement the pair ``(requests, rule)``, a
document's requirement the pair ``(scenario name, rule)``, a trace the
triple ``(requests, departures, arrivals)``, a requirement's report the
pair ``(verdicts, satisfied)`` and the audit's report the pair ``(checks,
violations)``; these are pinned as plain values on the same checks.
"""

import copy
import json
import pickle

import pytest

from nosignal import (
    Aborted,
    Certificate,
    Found,
    Impossible,
    SearchLimits,
    SpacetimeConfig,
    evaluate_requirement,
    execute,
    no_signaling_audit,
)
from nosignal.config import ConfigDocument, load_config

CFG = SpacetimeConfig({"L": 0, "R": 3}, 3)
HIST = ("L", 0, ((0, "request", "task1"),))
STRAT = {("L", 0, ((0, "request", "task1"),)): ("R",)}
TR = ("task1", "L", 0)
SCEN = frozenset({TR})
TASK = (("L", "R", 3), (("R", "L"),))
REQ = (SCEN, "all")
TRACE = (SCEN, frozenset({("L", "R", 0)}), frozenset({("L", "R", 3)}))
REPORT = ({"task1": True}, True)
AUDIT = (3, ())
LIMITS = SearchLimits(10, 5)
CERT = Certificate((HIST,), 3, (0, 1, 0))
NAMED = ("only", "all")

H_REPR = "('L', 0, ((0, 'request', 'task1'),))"
STRAT_REPR = "{('L', 0, ((0, 'request', 'task1'),)): ('R',)}"
SCEN_REPR = "frozenset({('task1', 'L', 0)})"
TASK_REPR = "(('L', 'R', 3), (('R', 'L'),))"
REQ_REPR = f"({SCEN_REPR}, 'all')"
NAMED_REPR = "('only', 'all')"
TRACE_REPR = f"({SCEN_REPR}, frozenset({{('L', 'R', 0)}}), frozenset({{('L', 'R', 3)}}))"
REPORT_REPR = "({'task1': True}, True)"
CERT_REPR = (
    f"Certificate(decision_points=({H_REPR},), "
    "strategies_explored=3, leaf_failures=(0, 1, 0))"
)
LIMITS_REPR = "SearchLimits(max_branches=10, max_decision_points=5)"
CFG_REPR = "SpacetimeConfig(locations={'L': 0, 'R': 3}, horizon=3)"

# (class, constructor args, args of an unequal instance, first field, repr)
CASES = [
    (SpacetimeConfig, ({"L": 0, "R": 3}, 3), ({"L": 0, "R": 3}, 4), "locations", CFG_REPR),
    (SearchLimits, (10, 5), (10, 6), "max_branches", LIMITS_REPR),
    (Certificate, ((HIST,), 3, (0, 1, 0)), ((), 0, ()), "decision_points", CERT_REPR),
    (Found, (STRAT, (REPORT,)), ({}, ()), "strategy",
     f"Found(strategy={STRAT_REPR}, reports=({REPORT_REPR},))"),
    (Impossible, (CERT,), (Certificate((), 0, ()),), "certificate",
     f"Impossible(certificate={CERT_REPR})"),
    (Aborted, ("branches", 10, 4), ("decision_points", 10, 4), "limit",
     "Aborted(limit='branches', strategies_explored=10, decision_points=4)"),
    (ConfigDocument, (CFG, {"task1": TASK}, {"only": SCEN}, [NAMED], LIMITS),
     (CFG, {}, {}, [], None), "spacetime",
     f"ConfigDocument(spacetime={CFG_REPR}, tasks={{'task1': {TASK_REPR}}}, "
     f"scenarios={{'only': {SCEN_REPR}}}, requirements=[{NAMED_REPR}], limits={LIMITS_REPR})"),
]

# Frozen, but a field holds a dict; a plain value is keyed by its repr.
UNHASHABLE_FIELDS = {
    SpacetimeConfig: "unhashable type: 'dict'",
    Found: "unhashable type: 'dict'",
    ConfigDocument: "unhashable type: 'dict'",
    REPORT_REPR: "unhashable type: 'dict'",
}


def _parts(task: dict, request: dict, requirement: dict) -> dict:
    """The delivery, the first ban, the whole task, the scenario, the
    requirement, the document's requirement, the trace and report of
    ``STRAT`` on them, and its audit against the empty scenario, by repr, as
    ``load_config`` reads a document on the ``CFG`` line holding ``task``, a
    scenario of ``request`` and ``requirement``."""
    doc = load_config(json.dumps({"locations": CFG.locations, "horizon": CFG.horizon, "tasks": {"task1": task},
                                  "scenarios": {"only": [request]}, "requirements": [requirement]}))
    task = doc.tasks["task1"]
    [resolved] = doc.resolve_requirements()
    parts = [task[0], task[1][0], task, doc.scenarios["only"], resolved, *doc.requirements,
             execute(CFG, doc.scenarios["only"], STRAT), evaluate_requirement(CFG, STRAT, resolved, doc.tasks),
             no_signaling_audit(CFG, STRAT, [(doc.scenarios["only"], frozenset())])]
    return {repr(part): part for part in parts}


# ``load_config`` takes an object's values in the order the loader lists its
# keys, whatever the document's: the same objects, their keys in that order
# or reordered, must give the same plain values.
IN_ORDER = _parts({"deliver": {"from": "L", "to": "R", "at": 3}, "silence": [{"from": "R", "to": "L"}]},
                  {"task": "task1", "location": "L", "time": 0}, {"scenario": "only", "rule": "all"})
REORDERED = _parts({"silence": [{"to": "L", "from": "R"}], "deliver": {"at": 3, "to": "R", "from": "L"}},
                  {"time": 0, "location": "L", "task": "task1"}, {"rule": "all", "scenario": "only"})

# (type, (plain value,), (an unequal one,), first index, repr), named for the
# part each value holds: the delivery, a silence ban, the whole task, the
# scenario, the requirement, the document's requirement, the trace, the
# report, the audit: R sees nothing in either scenario until L's signal
# lands at t = 3, so three histories coincide, and the unequal audit has a
# violation of the shape (pair_index, key, (sends1, sends2)).
ROW_CASES = [
    (tuple, (TASK[0],), (("R", "L", 3),), 0, "('L', 'R', 3)"),
    (tuple, (TASK[1][0],), (("L", "R"),), 0, "('R', 'L')"),
    (tuple, (TASK,), ((("L", "R", 3), ()),), 0, TASK_REPR),
    (frozenset, (SCEN,), (frozenset(),), 0, SCEN_REPR),
    (tuple, (REQ,), ((SCEN, "at_least_one"),), 0, REQ_REPR),
    (tuple, (NAMED,), (("both", "all"),), 0, NAMED_REPR),
    (tuple, (TRACE,), ((frozenset(), frozenset(), frozenset()),), 0, TRACE_REPR),
    (tuple, (REPORT,), (({"task1": False}, False),), 0, REPORT_REPR),
    (tuple, (AUDIT,), ((3, ((0, HIST, (frozenset({"R"}), frozenset())),)),), 0, "(3, ())"),
]
ROW_TYPES = (tuple, frozenset)

ids = [case[0].__name__ for case in CASES] + ["Deliver", "Silence", "TaskSpec", "Scenario", "Requirement",
                                               "NamedRequirement", "Trace", "RequirementReport", "AuditReport"]
cases = pytest.mark.parametrize("cls, args, other, field, text", CASES + ROW_CASES, ids=ids)


def test_every_public_value_class_is_pinned():
    assert len({case[0] for case in CASES}) == len(CASES) == 7


@cases
def test_equality_is_per_class_field_tuple(cls, args, other, field, text):
    a, b = cls(*args), cls(*args)
    if cls in ROW_TYPES:
        # A plain value, the same whichever way the loader read it.
        assert type(a) is cls and a == IN_ORDER[text] == REORDERED[text]
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
    key = text if cls in ROW_TYPES else cls
    if key in UNHASHABLE_FIELDS:
        with pytest.raises(TypeError) as err:
            hash(a)
        assert str(err.value) == UNHASHABLE_FIELDS[key]
    else:
        assert hash(a) == hash(b)
        assert {a, b} == {a}


@cases
def test_ordering(cls, args, other, field, text):
    a, b = cls(*args), cls(*other)
    if cls in ROW_TYPES and text not in UNHASHABLE_FIELDS:
        # Unequal plain values order as tuples (or sets, by inclusion) do;
        # a dict in one orders no more than it hashes.
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
    assert SearchLimits() == SearchLimits(max_branches=2_000_000, max_decision_points=10_000)
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

