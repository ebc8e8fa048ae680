"""Value semantics of every public value class.

Pins what callers may rely on: field-tuple equality within one class,
hashing (and which classes refuse it), which classes order, the exact
``repr``, the frozen guard, keyword construction with defaults, and
pickle/deepcopy round trips.
"""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nosignal import (
    Aborted,
    Action,
    AuditReport,
    Certificate,
    Deliver,
    Event,
    Found,
    Impossible,
    LocalHistory,
    ReceivedEvent,
    Requirement,
    RequirementReport,
    Rule,
    Scenario,
    SearchLimits,
    Silence,
    SpacetimeConfig,
    Strategy,
    TaskRequest,
    TaskSpec,
    Trace,
)
from nosignal.config import ConfigDocument, NamedRequirement
from nosignal.audit import AuditViolation

CFG = SpacetimeConfig({"L": 0, "R": 3}, 3)
EV = ReceivedEvent(0, "request", "task1")
HIST = LocalHistory("L", 0, (EV,))
ACT = Action(frozenset({"R"}))
STRAT = Strategy({("L", HIST): ACT})
TR = TaskRequest("task1", "L", 0)
SCEN = Scenario(frozenset({TR}))
DELIVER = Deliver("L", "R", 3)
SIL = Silence("R", "L")
TASK = TaskSpec("task1", DELIVER, (SIL,))
REQ = Requirement(SCEN, Rule.ALL)
REPORT = RequirementReport(REQ, {"task1": True}, True)
LIMITS = SearchLimits(10, 5)
CERT = Certificate((("L", 0, HIST),), 3, (0, 1, 0))
VIOL = AuditViolation(0, "L", 0, HIST, (frozenset({"R"}), frozenset()))
NAMED = NamedRequirement("only", Rule.ALL)

H_REPR = (
    "LocalHistory(agent='L', upto=0, "
    "events=(ReceivedEvent(time=0, kind='request', label='task1'),))"
)
STRAT_REPR = f"Strategy(table={{('L', {H_REPR}): Action(sends=frozenset({{'R'}}))}})"
SCEN_REPR = "Scenario(requests=frozenset({TaskRequest(task='task1', location='L', time=0)}))"
TASK_REPR = (
    "TaskSpec(id='task1', deliver=Deliver(origin='L', dest='R', at=3), "
    "silence=(Silence(origin='R', dest='L'),))"
)
REQ_REPR = f"Requirement(scenario={SCEN_REPR}, rule=<Rule.ALL: 'all'>)"
REPORT_REPR = f"RequirementReport(requirement={REQ_REPR}, verdicts={{'task1': True}}, satisfied=True)"
CERT_REPR = (
    f"Certificate(decision_points=(('L', 0, {H_REPR}),), "
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
    (Event, ("L", 2), ("L", 3), "location", "Event(location='L', time=2)"),
    (SpacetimeConfig, ({"L": 0, "R": 3}, 3), ({"L": 0, "R": 3}, 4), "locations", CFG_REPR),
    (ReceivedEvent, (0, "request", "task1"), (0, "signal", "L"), "time",
     "ReceivedEvent(time=0, kind='request', label='task1')"),
    (LocalHistory, ("L", 0, (EV,)), ("L", 0, ()), "agent", H_REPR),
    (Action, (frozenset({"R"}),), (frozenset(),), "sends", "Action(sends=frozenset({'R'}))"),
    (Strategy, ({("L", HIST): ACT},), ({},), "table", STRAT_REPR),
    (TaskRequest, ("task1", "L", 0), ("task1", "L", 1), "task",
     "TaskRequest(task='task1', location='L', time=0)"),
    (Scenario, (frozenset({TR}),), (frozenset(),), "requests", SCEN_REPR),
    (Trace, (frozenset({("task1", "L", 0)}), frozenset({("L", "R", 0)}), frozenset({("L", "R", 3)})),
     (frozenset(), frozenset(), frozenset()), "requests",
     "Trace(requests=frozenset({('task1', 'L', 0)}), departures=frozenset({('L', 'R', 0)}), "
     "arrivals=frozenset({('L', 'R', 3)}))"),
    (Deliver, ("L", "R", 3), ("R", "L", 3), "origin", "Deliver(origin='L', dest='R', at=3)"),
    (Silence, ("R", "L"), ("L", "R"), "origin", "Silence(origin='R', dest='L')"),
    (TaskSpec, ("task1", DELIVER, (SIL,)), ("task1", DELIVER, ()), "id", TASK_REPR),
    (Requirement, (SCEN, Rule.ALL), (SCEN, Rule.AT_LEAST_ONE), "scenario", REQ_REPR),
    (RequirementReport, (REQ, {"task1": True}, True), (REQ, {"task1": False}, False),
     "requirement", REPORT_REPR),
    (SearchLimits, (10, 5), (10, 6), "max_branches", LIMITS_REPR),
    (Certificate, ((("L", 0, HIST),), 3, (0, 1, 0)), ((), 0, ()), "decision_points", CERT_REPR),
    (Found, (STRAT, (REPORT,)), (Strategy(), ()), "strategy",
     f"Found(strategy={STRAT_REPR}, reports=({REPORT_REPR},))"),
    (Impossible, (CERT,), (Certificate((), 0, ()),), "certificate",
     f"Impossible(certificate={CERT_REPR})"),
    (Aborted, ("branches", 10, 4), ("decision_points", 10, 4), "limit",
     "Aborted(limit='branches', strategies_explored=10, decision_points=4)"),
    (AuditViolation, (0, "L", 0, HIST, (frozenset({"R"}), frozenset())),
     (1, "L", 0, HIST, (frozenset({"R"}), frozenset())), "pair_index", VIOL_REPR),
    (AuditReport, (3, (VIOL,)), (3, ()), "checks", f"AuditReport(checks=3, violations=({VIOL_REPR},))"),
    (NamedRequirement, ("only", Rule.ALL), ("both", Rule.ALL), "scenario",
     "NamedRequirement(scenario='only', rule=<Rule.ALL: 'all'>)"),
    (ConfigDocument, (CFG, {"task1": TASK}, {"only": SCEN}, [NAMED], LIMITS),
     (CFG, {}, {}, [], None), "spacetime",
     f"ConfigDocument(spacetime={CFG_REPR}, tasks={{'task1': {TASK_REPR}}}, "
     f"scenarios={{'only': {SCEN_REPR}}}, requirements=[{NAMED!r}], limits={LIMITS_REPR})"),
]

ORDERED = {Event, ReceivedEvent, TaskRequest}
MUTABLE = {Strategy, ConfigDocument}
# Frozen, but a field holds a dict (directly or inside a Strategy).
UNHASHABLE_FIELDS = {
    SpacetimeConfig: "unhashable type: 'dict'",
    RequirementReport: "unhashable type: 'dict'",
    Found: "unhashable type: 'Strategy'",
}

ids = [case[0].__name__ for case in CASES]
cases = pytest.mark.parametrize("cls, args, other, field, text", CASES, ids=ids)


def test_every_public_value_class_is_pinned():
    assert len({case[0] for case in CASES}) == len(CASES) == 23


@cases
def test_equality_is_per_class_field_tuple(cls, args, other, field, text):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert a != cls(*other)
    assert a != args and args != a
    assert a.__eq__(args) is NotImplemented
    # The same field values in another class are not equal.
    assert all(a != c[0](*c[1]) for c in CASES if c[0] is not cls)


@cases
def test_hash(cls, args, other, field, text):
    a, b = cls(*args), cls(*args)
    if cls in MUTABLE:
        with pytest.raises(TypeError, match=f"unhashable type: '{cls.__name__}'"):
            hash(a)
    elif cls in UNHASHABLE_FIELDS:
        with pytest.raises(TypeError) as err:
            hash(a)
        assert str(err.value) == UNHASHABLE_FIELDS[cls]
    else:
        assert hash(a) == hash(b)
        assert {a, b} == {a}


@cases
def test_ordering(cls, args, other, field, text):
    a, b = cls(*args), cls(*other)
    if cls in ORDERED:
        assert (a < b) == (args < other)
        assert (a <= b) == (args <= other)
        assert (a > b) == (args > other)
        assert (a >= b) == (args >= other)
        assert a <= cls(*args) and a >= cls(*args)
        assert sorted([b, a]) == sorted([a, b])
        with pytest.raises(TypeError):
            a < args
    else:
        with pytest.raises(TypeError):
            a < b


@cases
def test_repr_is_literal(cls, args, other, field, text):
    assert repr(cls(*args)) == text


@cases
def test_fields_are_read_only(cls, args, other, field, text):
    a = cls(*args)
    if cls in MUTABLE:
        setattr(a, field, getattr(a, field))
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
    assert LocalHistory(agent="L", upto=0) == LocalHistory("L", 0, ())
    assert Action() == Action(sends=frozenset()) == Action(frozenset())
    assert Scenario() == Scenario(requests=frozenset())
    assert Trace() == Trace(requests=frozenset(), departures=frozenset(), arrivals=frozenset())
    assert TaskSpec(id="t", deliver=DELIVER) == TaskSpec("t", DELIVER, ())
    assert SearchLimits() == SearchLimits(max_branches=2_000_000, max_decision_points=10_000)
    assert AuditReport(checks=0) == AuditReport(0, ())
    assert Event(location="L", time=1) == Event("L", 1)
    assert ReceivedEvent(time=1, kind="signal", label="R") == ReceivedEvent.signal(1, "R")
    assert TaskRequest(task="t", location="L", time=0) == TR.__class__("t", "L", 0)
    assert Deliver(origin="L", dest="R", at=3) == DELIVER
    assert Silence(origin="R", dest="L") == SIL
    assert Requirement(scenario=SCEN, rule=Rule.ALL) == REQ
    assert RequirementReport(requirement=REQ, verdicts={"task1": True}, satisfied=True) == REPORT
    assert SpacetimeConfig(locations={"L": 0, "R": 3}, horizon=3) == CFG
    assert Certificate(decision_points=(), strategies_explored=0, leaf_failures=()).leaf_failures == ()
    assert Found(strategy=STRAT, reports=()).strategy is STRAT
    assert Impossible(certificate=CERT).certificate is CERT
    assert Aborted(limit="branches", strategies_explored=1, decision_points=2).decision_points == 2
    assert NamedRequirement(scenario="only", rule=Rule.ALL) == NAMED

    # Mutable defaults are fresh per instance.
    s1, s2 = Strategy(), Strategy()
    assert s1.table == {} and s1.table is not s2.table
    d1 = ConfigDocument(spacetime=CFG, tasks={}, scenarios={})
    d2 = ConfigDocument(CFG, {}, {})
    assert d1.requirements == [] and d1.requirements is not d2.requirements
    assert d1.limits is None


def test_constructors_convert_and_validate():
    assert LocalHistory("L", 1, [ReceivedEvent(1, "signal", "R"), EV]).events == (
        EV, ReceivedEvent(1, "signal", "R"))
    assert Action(["R", "R"]).sends == frozenset({"R"})
    assert Scenario([TR]).requests == frozenset({TR})
    assert TaskSpec("t", DELIVER, [SIL]).silence == (SIL,)
    locations = {"L": 0, "R": 3}
    cfg = SpacetimeConfig(locations, 3)
    assert cfg.locations == locations and cfg.locations is not locations


@given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["request", "signal"]),
                          st.text("abc", max_size=2))))
def test_received_events_sort_like_their_tuples(rows):
    events = sorted(ReceivedEvent(*row) for row in rows)
    assert [(e.time, e.kind, e.label) for e in events] == sorted(rows)
