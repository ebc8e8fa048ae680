"""Strategy search, impossibility certificates, and the audit operations."""

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_instance, oracle_scenarios
from nosignal import (
    Aborted,
    Found,
    Impossible,
    SearchLimits,
    SpacetimeConfig,
    ValidationError,
    evaluate_requirement,
    find_strategy,
    indistinguishable,
    mutually_exclusive,
    no_signaling_audit,
    obedient_strategy,
)
from nosignal.config import load_config
from nosignal.search import _latest, _lost, _successor
from nosignal import audit
from nosignal.audit import paradox_requirements
from oracles import (
    brute_force_joint_satisfiable,
    decide,
    magician,
    mini_execute,
    requirement_lost,
    requirement_ok,
    truncated_departures,
)


SHARED_KEY = Path(__file__).resolve().parent / "fixtures" / "shared_key.json"


def scenario(*requests):
    return frozenset(requests)


class TestFindStrategy:
    def test_single_request_bundle_found(self, d3):
        cfg, tasks, (r1, r2, _) = d3
        outcome = find_strategy(cfg, [r1, r2], tasks)
        assert isinstance(outcome, Found)
        assert all(satisfied for _, satisfied in outcome.reports)
        # independent re-check of the returned strategy
        for req in (r1, r2):
            _, satisfied = evaluate_requirement(cfg, outcome.strategy, req, tasks)
            assert satisfied
        # the obedient strategy is among the valid answers
        obedient = obedient_strategy(cfg, tasks)
        for req in (r1, r2):
            _, satisfied = evaluate_requirement(cfg, obedient, req, tasks)
            assert satisfied

    def test_full_bundle_impossible(self, d3):
        cfg, tasks, bundle = d3
        outcome = find_strategy(cfg, bundle, tasks)
        assert isinstance(outcome, Impossible)
        cert = outcome.certificate
        assert cert.strategies_explored >= 1
        assert len(cert.leaf_failures) == cert.strategies_explored
        assert all(0 <= idx < len(bundle) for idx in cert.leaf_failures)

    def test_dual_scenario_alone_found(self, d3):
        cfg, tasks, (_, _, r3) = d3
        outcome = find_strategy(cfg, [r3], tasks)
        assert isinstance(outcome, Found)
        _, satisfied = evaluate_requirement(cfg, outcome.strategy, r3, tasks)
        assert satisfied

    def test_more_freedom_flips_found_to_impossible(self):
        for gap in (1, 2, 3):
            cfg, tasks, (r1, r2, r3) = make_instance(gap)
            assert isinstance(find_strategy(cfg, [r1, r2], tasks), Found)
            assert isinstance(find_strategy(cfg, [r3], tasks), Found)
            assert isinstance(find_strategy(cfg, [r1, r2, r3], tasks), Impossible)

    def test_deterministic_outcomes(self):
        cfg, tasks, bundle = make_instance(2)
        assert find_strategy(cfg, bundle, tasks) == find_strategy(cfg, bundle, tasks)
        r1, r2, _ = bundle
        assert find_strategy(cfg, [r1, r2], tasks) == find_strategy(cfg, [r1, r2], tasks)

    def test_branch_limit_aborts(self, d3):
        cfg, tasks, bundle = d3
        outcome = find_strategy(cfg, bundle, tasks, SearchLimits(max_branches=1))
        assert outcome == Aborted("branches", 1, outcome.decision_points)

    @pytest.mark.parametrize("kwargs, expected", [
        ({"max_branches": 2}, Aborted("branches", 2, 4)),
        ({"max_branches": 3}, 3),
        ({"max_decision_points": 3}, Aborted("decision_points", 0, 3)),
        ({"max_decision_points": 4}, 3),
    ])
    def test_limit_boundaries(self, d3, kwargs, expected):
        """One below what the paradox needs aborts; exactly that much decides
        it, in 3 branches over 4 decision points."""
        cfg, tasks, bundle = d3
        outcome = find_strategy(cfg, bundle, tasks, SearchLimits(**kwargs))
        if isinstance(expected, Aborted):
            assert outcome == expected
        else:
            assert isinstance(outcome, Impossible)
            assert outcome.certificate.strategies_explored == expected

    def test_branch_limit_below_found_aborts(self, d3):
        """Reaching the winning branch counts it against ``max_branches``."""
        cfg, tasks, (r1, r2, _) = d3
        seen = []
        assert isinstance(find_strategy(cfg, [r1, r2], tasks, on_leaf=seen.append), Found)
        outcome = find_strategy(cfg, [r1, r2], tasks, SearchLimits(max_branches=len(seen) - 1))
        assert outcome == Aborted("branches", len(seen) - 1, outcome.decision_points)

    def test_zero_limits_rejected(self):
        for kwargs in ({"max_branches": 0}, {"max_decision_points": 0}):
            with pytest.raises(ValidationError):
                SearchLimits(**kwargs)
            with pytest.raises(ValueError):  # ValidationError is also a ValueError
                SearchLimits(**kwargs)

    def test_decision_limit_aborts(self, d3):
        cfg, tasks, bundle = d3
        outcome = find_strategy(cfg, bundle, tasks, SearchLimits(max_decision_points=1))
        assert isinstance(outcome, Aborted)
        assert outcome.limit == "decision_points"

    def test_wide_menu_is_stepped(self):
        """At t = 0, A0 can usefully send to all 3 others, a menu of 8
        actions the walk steps through without building it."""
        cfg = SpacetimeConfig({f"A{i}": i for i in range(4)}, horizon=10)
        requirement = (frozenset({("t", "A0", 9)}), "all")
        outcome = find_strategy(cfg, [requirement], {"t": (("A0", "A1", 10), ())})
        assert isinstance(outcome, Found)

    @pytest.mark.parametrize("n", range(10))
    def test_successor_steps_by_size_then_lexically(self, n):
        """From the empty action, ``_successor`` lists every subset of the
        destinations once, in the branch order every golden count depends
        on, and then ends."""
        dests = tuple(f"D{i}" for i in range(n))
        steps, sends = [], ()
        while sends is not None:
            steps.append(sends)
            sends = _successor(dests, sends)
        assert steps == [c for k in range(n + 1) for c in itertools.combinations(dests, k)]

    @given(st.dictionaries(st.sampled_from("ABCDEFGH"), st.integers(-20, 20), min_size=1).flatmap(
        lambda coord: st.tuples(st.just(coord), st.sets(st.tuples(
            st.sampled_from(sorted(coord)), st.sampled_from(sorted(coord)), st.integers(-5, 30))))))
    def test_latest_is_the_max_over_departures(self, case):
        """The two sweeps give each lab the brute-force max of ``s - |x_d -
        x_o|`` over the departures, and -1 when there are none. Coordinates
        may repeat here, which a loaded document refuses."""
        coord, departs = case
        by_x = sorted(coord, key=coord.get)
        assert _latest(coord, by_x, departs) == {
            d: max((s - abs(x - coord[o]) for o, _, s in departs), default=-1) for d, x in coord.items()}

    def test_no_requirements_is_trivially_found(self, d3):
        cfg, tasks, _ = d3
        outcome = find_strategy(cfg, [], tasks)
        assert isinstance(outcome, Found)
        assert outcome.strategy == {}

    def test_three_locations(self):
        cfg = SpacetimeConfig({"A": 0, "B": 1, "C": 2}, horizon=2)
        task = (("A", "C", 2), (("C", "A"),))
        requirement = (frozenset({("t", "A", 0)}), "all")
        outcome = find_strategy(cfg, [requirement], {"t": task})
        assert isinstance(outcome, Found)
        _, satisfied = evaluate_requirement(cfg, outcome.strategy, requirement, {"t": task})
        assert satisfied

    def test_raw_requirements_are_checked_at_the_boundary(self, d3):
        """A request set with two requests on one slot, an empty one under
        ``at_least_one``, or one naming an undefined task, is refused as no
        value class stands in front."""
        cfg, tasks, _ = d3
        two_on_one_slot = (scenario(("task1", "L", 0), ("task2", "L", 0)), "all")
        with pytest.raises(ValidationError, match=r"^duplicate request slot \('L', 0\)$"):
            find_strategy(cfg, [two_on_one_slot], tasks)
        with pytest.raises(ValidationError, match="^at_least_one over an empty scenario$"):
            find_strategy(cfg, [(frozenset(), "at_least_one")], tasks)
        with pytest.raises(ValidationError, match="^scenario references undefined task 'nope'$"):
            find_strategy(cfg, [(scenario(("nope", "L", 0)), "all")], tasks)

    @pytest.mark.parametrize("rule", ["all", "at_least_one"])
    def test_a_rule_is_its_json_name(self, d3, rule):
        """The rule is taken as the document spells it. Both tasks are
        requested and each bans the other's delivery, so ``all`` cannot be
        met and ``at_least_one`` can."""
        cfg, tasks, (_, _, r3) = d3
        outcome = find_strategy(cfg, [(r3[0], rule)], tasks)
        assert type(outcome) is {"all": Impossible, "at_least_one": Found}[rule]

    @pytest.mark.parametrize("rule", ["bogus", "ALL", None])
    def test_a_rule_that_is_no_rule_is_refused(self, d3, rule):
        cfg, tasks, (r1, _, _) = d3
        with pytest.raises(ValidationError, match=f"^rule: expected 'all' or 'at_least_one', got {rule!r}$"):
            find_strategy(cfg, [(r1[0], rule)], tasks)


# Impossible branch counts of the magician members decided today, by
# (n, slack); k = 2 and k = 3 take the same count.
MAGICIAN_BRANCHES = {(2, 0): 3, (2, 1): 12, (3, 0): 4, (3, 1): 64,
                     (4, 0): 5, (4, 1): 320, (5, 0): 6, (5, 1): 768}
MAGICIAN_DECIDED = (
    [(n, slack, 1) for n in range(2, 7) for slack in range(n + 2)]
    + [(2, slack, 2) for slack in range(4)]
    + [(n, slack, k) for n in range(3, 6) for slack in (0, 1) for k in (2, 3)]
)


def magician_outcome(n, slack, k):
    doc = load_config(json.dumps(magician(n, slack, k)))
    requirements = doc.resolve_requirements()
    return doc, requirements, find_strategy(doc.spacetime, requirements, doc.tasks)


def assert_copy_keeps_outcome(cfg, tasks, requirements, outcome, k, limits=None):
    """Requirement ``k`` given once more, last, leaves the walk's ``outcome``
    as it was: an equal certificate or abort, or the same strategy with a
    copy of report ``k``. The copy is lost exactly when its original is,
    which the walk checks first, so it is never the requirement a branch
    loses first."""
    copied = find_strategy(cfg, [*requirements, requirements[k]], tasks, limits)
    assert type(copied) is type(outcome)
    if isinstance(outcome, Found):
        assert (copied.strategy, copied.reports) == (outcome.strategy, (*outcome.reports, outcome.reports[k]))
    else:
        assert copied == outcome


def assert_mirror_keeps_outcome(cfg, tasks, requirements):
    """The document and its mirror x -> -x reach the same outcome kind
    wherever both decide within 5,000 branches. The walk visits labs in x
    order, so the mirror walks them the other way round."""
    limits = SearchLimits(max_branches=5_000)
    mirror = SpacetimeConfig({lab: -x for lab, x in cfg.locations.items()}, cfg.horizon)
    outcomes = [type(find_strategy(c, requirements, tasks, limits)) for c in (cfg, mirror)]
    if Aborted not in outcomes:
        assert outcomes[0] is outcomes[1]


def assert_renaming_keeps_outcome(cfg, tasks, requirements):
    """The document and its copy with the labs renamed by the bijection that
    reverses their name order, each keeping its coordinate, reach the same
    outcome kind wherever both decide within 5,000 branches. Menus and
    ``cfg.agents`` list labs by name, so the copy steps them the other way
    round."""
    limits = SearchLimits(max_branches=5_000)
    rename = dict(zip(cfg.agents, reversed(cfg.agents)))
    renamed = (
        SpacetimeConfig({rename[lab]: x for lab, x in cfg.locations.items()}, cfg.horizon),
        [(frozenset((task, rename[lab], t) for task, lab, t in requests), rule) for requests, rule in requirements],
        {task_id: ((rename[origin], rename[dest], at), tuple((rename[o], rename[d]) for o, d in bans))
         for task_id, ((origin, dest, at), bans) in tasks.items()},
    )
    outcomes = [type(find_strategy(*doc, limits)) for doc in ((cfg, requirements, tasks), renamed)]
    if Aborted not in outcomes:
        assert outcomes[0] is outcomes[1]


class TestMagician:
    """The paper's setting with n requesters: B may request any of n tasks
    of A, up to k of them at once. Found for k = 1, and for k >= 2 Found
    iff slack >= n."""

    @pytest.mark.parametrize("n, slack, k", MAGICIAN_DECIDED)
    def test_closed_form(self, n, slack, k):
        """A Found strategy meets every requirement under the oracles; an
        Impossible member is refuted in its pinned number of branches."""
        doc, requirements, outcome = magician_outcome(n, slack, k)
        cfg = doc.spacetime
        if k == 1 or slack >= n:
            assert isinstance(outcome, Found)
            for requests, rule, rows in oracle_scenarios(requirements, doc.tasks):
                run = mini_execute(cfg.locations, cfg.horizon, requests, outcome.strategy)
                assert requirement_ok(*run, rule, rows)
        else:
            assert isinstance(outcome, Impossible)
            assert outcome.certificate.strategies_explored == MAGICIAN_BRANCHES[n, slack]

    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("slack", [0, 1])
    def test_more_freedom_makes_it_impossible(self, n, slack):
        """The magician's paradox: with slack < n, A can meet any one
        request, but not a promise to meet one of any two."""
        assert [type(magician_outcome(n, slack, k)[2]) for k in (1, 2)] == [Found, Impossible]

    @pytest.mark.parametrize("n, slack, k", [member for member in MAGICIAN_DECIDED if member[0] <= 3])
    def test_a_copied_requirement_keeps_the_outcome(self, n, slack, k):
        doc, requirements, outcome = magician_outcome(n, slack, k)
        for i in range(len(requirements)):
            assert_copy_keeps_outcome(doc.spacetime, doc.tasks, requirements, outcome, i)

    @pytest.mark.parametrize("n, slack, k", [member for member in MAGICIAN_DECIDED if member[0] <= 3])
    def test_the_mirror_keeps_the_outcome(self, n, slack, k):
        doc = load_config(json.dumps(magician(n, slack, k)))
        assert_mirror_keeps_outcome(doc.spacetime, doc.tasks, doc.resolve_requirements())

    @pytest.mark.parametrize("n, slack, k", [member for member in MAGICIAN_DECIDED if member[0] <= 3])
    def test_the_renaming_keeps_the_outcome(self, n, slack, k):
        doc = load_config(json.dumps(magician(n, slack, k)))
        assert_renaming_keeps_outcome(doc.spacetime, doc.tasks, doc.resolve_requirements())


class TestCertificateSoundness:
    def test_decision_points_well_formed(self, d3):
        cfg, tasks, bundle = d3
        outcome = find_strategy(cfg, bundle, tasks)
        points = list(outcome.certificate.decision_points)
        assert len(points) == len(set(points))
        for agent, t, events in points:
            assert agent in cfg.locations
            assert 0 <= t <= cfg.horizon
            assert list(events) == sorted(events)
            assert all(0 <= time <= t for time, _, _ in events)


def three_lab_paradox():
    """The paradox task pair between A and C with a relay lab B in between."""
    cfg = SpacetimeConfig({"A": 0, "B": 1, "C": 2}, horizon=2)
    tasks = {"task1": (("A", "C", 2), (("C", "A"),)), "task2": (("C", "A", 2), (("A", "C"),))}
    return cfg, tasks, paradox_requirements(cfg, tasks, "task1", "task2")


def paradox_instances():
    """Impossible instances the walk's refutations are checked on."""
    yield from (make_instance(gap) for gap in range(1, 7))
    yield three_lab_paradox()


def assert_refutations_sound(cfg, tasks, bundle, assignments, failures):
    """Each observed branch, run to its last slice, has already lost its requirement.

    ``failures`` gives the recorded requirement index per branch; where it is
    None (a Found or Aborted outcome records none), some requirement must be
    lost.
    """
    scenarios = oracle_scenarios(bundle, tasks)
    for i, assignment in enumerate(assignments):
        upto = max((t for _, t, _ in assignment), default=cfg.horizon)
        indices = range(len(scenarios)) if failures is None else [failures[i]]
        lost = []
        for index in indices:
            requests, rule, task_rows = scenarios[index]
            departures = truncated_departures(cfg.locations, cfg.horizon, requests, assignment, upto)
            lost.append(requirement_lost(cfg.locations, departures, upto, rule, task_rows))
        assert any(lost), assignment


class TestWalkCertificate:
    def test_singles_bundle_finds_a_winner(self, d3):
        cfg, tasks, (r1, r2, _) = d3
        assert isinstance(find_strategy(cfg, [r1, r2], tasks), Found)
        assert decide(cfg.locations, cfg.horizon, oracle_scenarios([r1, r2], tasks), 5_000)

    def test_every_refuted_branch_already_lost(self, d3):
        """Every branch the walk refutes has lost its requirement."""
        for cfg, tasks, bundle in paradox_instances():
            seen = []
            outcome = find_strategy(cfg, bundle, tasks, on_leaf=lambda a: seen.append(dict(a)))
            failures = outcome.certificate.leaf_failures
            assert len(seen) == len(failures)
            assert_refutations_sound(cfg, tasks, bundle, seen, failures)

        cfg, tasks, (r1, r2, _) = d3
        seen = []
        outcome = find_strategy(cfg, [r1, r2], tasks, on_leaf=lambda a: seen.append(dict(a)))
        assert isinstance(outcome, Found)
        assert_refutations_sound(cfg, tasks, [r1, r2], seen[:-1], None)  # last one won

    def test_paradox_refuted_at_time_zero(self):
        """Gate: at H = 16 every branch is cut at the t=0 slice boundary; no
        key of a later time is ever assigned."""
        cfg, tasks, bundle = make_instance(16)
        seen = []
        outcome = find_strategy(cfg, bundle, tasks, on_leaf=lambda a: seen.append(dict(a)))
        assert isinstance(outcome, Impossible)
        assert len(seen) == outcome.certificate.strategies_explored
        assert all(t == 0 for assignment in seen for _, t, _ in assignment)

    @pytest.mark.parametrize("gap", [1, 16])
    def test_paradox_backjumps_to_the_shared_key(self, gap):
        """Gate: 3 branches over the 4 decision points of t=0, at any gap.

        Not sending at L's shared key loses requirement 0, not sending at R's
        loses requirement 1, and sending at both breaks both bans in the dual
        scenario; each refutation blames only the keys in the culprit's past.
        """
        cfg, tasks, bundle = make_instance(gap)
        outcome = find_strategy(cfg, bundle, tasks)
        assert isinstance(outcome, Impossible)
        cert = outcome.certificate
        assert (cert.strategies_explored, cert.leaf_failures) == (3, (0, 1, 2))
        assert len(cert.decision_points) == 4
        assert all(t == 0 for _, t, _ in cert.decision_points)

    def test_three_lab_paradox_cone(self):
        """Gate: 3 branches. No send to or from the relay B can reach A or C
        by t=0, when both deliveries depart, so only A's and C's t=0 keys
        are decisions, as in the two-lab paradox."""
        cfg, tasks, bundle = three_lab_paradox()
        outcome = find_strategy(cfg, bundle, tasks)
        assert isinstance(outcome, Impossible)
        cert = outcome.certificate
        assert (cert.strategies_explored, cert.leaf_failures) == (3, (0, 1, 2))
        assert {(agent, t) for agent, t, _ in cert.decision_points} == {("A", 0), ("C", 0)}

    def test_shared_key_blames_its_deciding_run(self):
        """Gate: L1's empty t=7 history is decided in the idle first run and
        reused in the second, where sending at it meets t1. A refutation in
        the second run must blame the first run's slot that decided the key;
        blaming the second run's slot skips that decision and refutes this
        Found document."""
        doc = load_config(SHARED_KEY.read_text())
        cfg, requirements = doc.spacetime, doc.resolve_requirements()
        outcome = find_strategy(cfg, requirements, doc.tasks)
        assert isinstance(outcome, Found)
        assert outcome.strategy == {("L1", 7, ()): ("L2",)}
        for requests, rule, task_rows in oracle_scenarios(requirements, doc.tasks):
            departures, arrivals = mini_execute(cfg.locations, cfg.horizon, requests, outcome.strategy)
            assert requirement_ok(departures, arrivals, rule, task_rows)

    def test_idle_deep_horizon_found_with_no_slot(self):
        """No task is requested, so no send is useful: the walk steps no slot
        and judges one empty assignment at H = 600."""
        cfg = SpacetimeConfig({"L": 0, "R": 5}, horizon=600)
        idle = [(frozenset(), "all")]
        seen = []
        outcome = find_strategy(cfg, idle, {}, on_leaf=lambda a: seen.append(dict(a)))
        assert isinstance(outcome, Found) and outcome.strategy == {}
        assert seen == [{}]


@st.composite
def small_instances(draw):
    """A random 2- or 3-lab config with 1-2 tasks and 1-3 requirements.

    Requests fall at any time up to the horizon, and a rule-``all``
    requirement may request nothing, so its run idles: another run can then
    reuse a key the idle run decided.
    """
    locations = draw(st.sampled_from((
        {"L": 0, "R": 1}, {"L": 0, "R": 2}, {"L": 0, "R": 3},
        {"A": 0, "B": 1, "C": 2}, {"A": 0, "B": 1, "C": 3},
    )))
    agents = sorted(locations)
    cfg = SpacetimeConfig(dict(locations), draw(st.integers(1, 3 if len(agents) == 2 else 2)))
    pairs = [(a, b) for a in agents for b in agents if a != b]
    tasks = {}
    for name in ("a", "b")[:draw(st.integers(1, 2))]:
        origin, dest = draw(st.sampled_from(pairs))
        at = draw(st.integers(0, cfg.horizon))
        bans = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2))
        tasks[name] = ((origin, dest, at), tuple(bans))
    requirements = []
    for _ in range(draw(st.integers(1, 3))):
        rule = draw(st.sampled_from(("all", "at_least_one")))
        requests = draw(st.lists(
            st.tuples(st.sampled_from(sorted(tasks)), st.sampled_from(agents), st.integers(0, cfg.horizon)),
            min_size=0 if rule == "all" else 1, max_size=2, unique_by=lambda r: r[1:],  # one request per slot
        ))
        requirements.append((scenario(*requests), rule))
    return cfg, tasks, requirements


_D2_CFG, _D2_TASKS, (_, _, _D2_BOTH) = make_instance(2)


@given(small_instances())
@example((_D2_CFG, _D2_TASKS, [_D2_BOTH]))  # at_least_one met while one task is lost
@settings(max_examples=150, deadline=None)
def test_walk_agrees_with_oracle(instance):
    """Wherever the oracle decider decides within 5,000 nodes, the walk
    reaches the same outcome kind within 5,000 branches. A Found strategy
    meets every scenario on the oracle's executor, and every branch the
    walk reports refuted has already lost a requirement. Adding a
    requirement keeps an Impossible, so the prefix of a Found draw without
    its last requirement is not Impossible."""
    cfg, tasks, requirements = instance
    scenarios = oracle_scenarios(requirements, tasks)
    seen = []
    limits = SearchLimits(max_branches=5_000)
    outcome = find_strategy(cfg, requirements, tasks, limits, on_leaf=lambda a: seen.append(dict(a)))
    verdict = decide(cfg.locations, cfg.horizon, scenarios, 5_000)
    if verdict is not None:
        assert type(outcome) is (Found if verdict else Impossible)
    if isinstance(outcome, Found):
        for requests, rule, task_rows in scenarios:
            departures, arrivals = mini_execute(cfg.locations, cfg.horizon, requests,
                                                outcome.strategy)
            assert requirement_ok(departures, arrivals, rule, task_rows)
        seen.pop()  # the winning branch
        if len(requirements) > 1:
            assert not isinstance(find_strategy(cfg, requirements[:-1], tasks, limits), Impossible)
    failures = outcome.certificate.leaf_failures if isinstance(outcome, Impossible) else None
    assert_refutations_sound(cfg, tasks, requirements, seen, failures)


@given(small_instances(), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_a_copied_requirement_keeps_the_outcome(instance, k):
    cfg, tasks, requirements = instance
    limits = SearchLimits(max_branches=5_000)
    outcome = find_strategy(cfg, requirements, tasks, limits)
    assert_copy_keeps_outcome(cfg, tasks, requirements, outcome, k % len(requirements), limits)


@given(small_instances())
@settings(max_examples=150, deadline=None)
def test_the_mirror_keeps_the_outcome(instance):
    assert_mirror_keeps_outcome(*instance)


@given(small_instances())
@settings(max_examples=150, deadline=None)
def test_the_renaming_keeps_the_outcome(instance):
    assert_renaming_keeps_outcome(*instance)


@st.composite
def lost_instances(draw):
    """Two or three labs, a rule, task rows and departures at times in [0, horizon]."""
    names = ["A", "B", "C"][:draw(st.integers(2, 3))]
    locations = dict(zip(names, draw(st.lists(st.integers(0, 4), min_size=len(names),
                                              max_size=len(names), unique=True))))
    horizon = draw(st.integers(1, 4))
    pairs = [(o, d) for o in names for d in names if o != d]
    rows = draw(st.lists(st.tuples(
        st.sampled_from(pairs).flatmap(lambda p: st.integers(0, horizon).map(lambda at: (*p, at))),
        st.frozensets(st.sampled_from(pairs), max_size=2),
    ), min_size=1, max_size=3))
    departures = draw(st.frozensets(st.tuples(st.sampled_from(pairs), st.integers(0, horizon))
                                    .map(lambda p: (*p[0], p[1])), max_size=5))
    rule = draw(st.sampled_from(("all", "at_least_one")))
    return locations, horizon, rule, rows, departures


@given(lost_instances())
@example(({"L": 0, "R": 1}, 2, "all", [(("L", "R", 2), frozenset({("L", "R")}))],
          frozenset()))  # bans its own delivery: lost for the oracle at t=0, not yet for the rule
@settings(max_examples=300, deadline=None)
def test_lost_rule_agrees_with_oracle(instance):
    """The walk's lost rule never refutes what the oracle can still meet, and
    at the horizon, where every delivery is due, the two agree. Before it they
    may differ: a task banning its own delivery pair is lost for the oracle,
    but for the rule only once that delivery falls due."""
    locations, horizon, rule, rows, departures = instance
    search_rows = [((o, d, at - abs(locations[o] - locations[d])), banned)
                   for (o, d, at), banned in rows]
    for t in range(horizon + 1):
        so_far = {dep for dep in departures if dep[2] <= t}
        culprits = _lost(rule, search_rows, so_far, t)
        lost = requirement_lost(locations, so_far, t, rule, rows)
        assert all(t1 <= t for t1, _ in culprits)
        if culprits:
            assert lost
        if t == horizon:
            assert bool(culprits) == lost


@st.composite
def exclusivity_instances(draw):
    """Two labs with H <= 3 or three with H <= 1, and two tasks (maybe one twice).

    Small enough for the 2^slots brute force: at most 8 or 12 departure slots.
    """
    locations = draw(st.sampled_from(
        ({"L": 0, "R": 1}, {"L": 0, "R": 2}, {"L": 0, "R": 3},
         {"A": 0, "B": 1, "C": 2}, {"A": 0, "B": 1, "C": 3})
    ))
    cfg = SpacetimeConfig(dict(locations), draw(st.integers(1, 3 if len(locations) == 2 else 1)))
    pairs = [(o, d) for o in cfg.agents for d in cfg.agents if o != d]

    def task():
        origin, dest = draw(st.sampled_from(pairs))
        bans = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2))
        return (origin, dest, draw(st.integers(0, cfg.horizon))), tuple(bans)

    a = task()
    return cfg, a, a if draw(st.booleans()) else task()


class TestMutuallyExclusive:
    def test_canonical_pair_for_small_gaps(self):
        for gap in (1, 2, 3):
            cfg, tasks, _ = make_instance(gap)
            assert mutually_exclusive(cfg, tasks["task1"], tasks["task2"])

    def test_self_pair_jointly_satisfiable(self, d3):
        cfg, tasks, _ = d3
        assert not mutually_exclusive(cfg, tasks["task1"], tasks["task1"])

    def test_silence_free_variants_jointly_satisfiable(self, d3):
        """With both silence bans removed, {(L,R,0), (R,L,0)} satisfies both;
        removing only one ban leaves the other task's ban in force."""
        cfg, _, _ = d3
        bare1 = (("L", "R", 3), ())
        bare2 = (("R", "L", 3), ())
        assert not mutually_exclusive(cfg, bare1, bare2)
        still_banned = (("L", "R", 3), (("R", "L"),))
        assert mutually_exclusive(cfg, still_banned, bare2)

    def test_agrees_with_independent_enumeration(self, d3):
        cfg, tasks, _ = d3
        rows = [
            (("L", "R", 3), {("R", "L")}),
            (("R", "L", 3), {("L", "R")}),
        ]
        assert not brute_force_joint_satisfiable(cfg.locations, cfg.horizon, rows)
        assert brute_force_joint_satisfiable(
            cfg.locations, cfg.horizon, [(("L", "R", 3), set()), (("R", "L", 3), set())]
        )

    @given(exclusivity_instances())
    @example((SpacetimeConfig({"L": 0, "R": 2}, 3), (("L", "R", 1), ()),
              (("R", "L", 3), ())))  # a cannot depart in time
    @example((SpacetimeConfig({"L": 0, "R": 1}, 2),
              (("L", "R", 2), (("L", "R"),)),
              (("R", "L", 1), ())))  # a bans its own delivery
    @example((SpacetimeConfig({"A": 0, "B": 1, "C": 3}, 1),
              (("A", "B", 1), (("C", "A"),)),
              (("A", "B", 1), (("C", "A"),))))  # a == b
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_brute_force(self, instance):
        cfg, a, b = instance
        rows = [(delivery, set(bans)) for delivery, bans in (a, b)]
        assert mutually_exclusive(cfg, a, b) == (
            not brute_force_joint_satisfiable(cfg.locations, cfg.horizon, rows)
        )


class TestIndistinguishable:
    def test_left_agent_blind_at_zero(self, d3):
        cfg, tasks, _ = d3
        single = scenario(("task1", "L", 0))
        dual = scenario(("task1", "L", 0), ("task2", "R", 0))
        for strategy in (obedient_strategy(cfg, tasks), {}):
            assert indistinguishable(cfg, strategy, single, dual, "L", 0)

    def test_crossing_signal_distinguishes_later(self, d3):
        cfg, tasks, _ = d3
        single = scenario(("task1", "L", 0))
        dual = scenario(("task1", "L", 0), ("task2", "R", 0))
        assert not indistinguishable(
            cfg, obedient_strategy(cfg, tasks), single, dual, "L", 3
        )

    def test_identical_scenarios_always_indistinguishable(self, d3):
        cfg, tasks, _ = d3
        s = scenario(("task1", "L", 0))
        for agent in cfg.agents:
            for t in range(cfg.horizon + 1):
                assert indistinguishable(cfg, obedient_strategy(cfg, tasks), s, s, agent, t)


class TestNoSignalingAudit:
    def test_obedient_is_clean(self, d3):
        cfg, tasks, _ = d3
        single = scenario(("task1", "L", 0))
        dual = scenario(("task1", "L", 0), ("task2", "R", 0))
        # L sees its request alone in both scenarios until R's signal lands at t = 3.
        assert no_signaling_audit(cfg, obedient_strategy(cfg, tasks), [(single, dual)]) == (3, ())

    def test_idle_strategy_is_clean(self, d3):
        cfg, tasks, _ = d3
        pairs = [
            (scenario(("task1", "L", 0)), scenario(("task2", "R", 0))),
            (frozenset(), scenario(("task1", "L", 0), ("task2", "R", 0))),
        ]
        # Every lab holds a request in one scenario of each pair, so no two histories coincide.
        assert no_signaling_audit(cfg, {}, pairs) == (0, ())

    def test_a_leaky_executor_is_caught(self, d3, monkeypatch):
        """An executor under which L sends at t = 1 whenever R is asked for
        task2, which L cannot know before t = 3, signals; the audit names the
        pair, L's key and both send sets."""
        cfg, _, _ = d3
        honest = audit.execute

        def leaky(cfg, scenario, strategy):
            requests, departures, arrivals = honest(cfg, scenario, strategy)
            if any(task == "task2" for task, _, _ in scenario):
                departures |= {("L", "R", 1)}  # lands at t = 4, past the horizon
            return requests, departures, arrivals

        monkeypatch.setattr(audit, "execute", leaky)
        single = scenario(("task1", "L", 0))
        dual = scenario(("task1", "L", 0), ("task2", "R", 0))
        key = ("L", 1, ((0, "request", "task1"),))
        assert no_signaling_audit(cfg, {}, [(single, dual)]) == (4, ((0, key, (frozenset(), frozenset({"R"}))),))


from test_protocol import worlds  # noqa: E402  (reuse the randomized world builder)


@given(worlds())
@settings(max_examples=200, deadline=None)
def test_audit_property(world):
    cfg, s1, s2, strategy = world
    _, violations = no_signaling_audit(cfg, strategy, [(s1, s2)])
    assert violations == ()
