"""The mark-built diagram renderer against the dense per-cell oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from nosignal import SpacetimeConfig
from nosignal.diagram import render_diagram
from oracles import dense_diagram

# The id " " is marked "! ", trimmed when last on its row. A quote, a
# backslash or "é" makes a picture that ``--json`` escapes through ``json``.
LAB_NAMES = ("L", "R", "M", "lab", "Q7", "a b", "a\nb", 'q"', "b\\", "é", "日")
TASK_IDS = ("task1", "task2", "t", "task42", "task123", "x\ty", "", " ")


@st.composite
def pictures(draw):
    """A random trace ``(requests, departures, arrivals)``, not necessarily
    one an executor could produce.

    2-5 labs at distinct coordinates around a random (often negative)
    offset; departures in opposite directions cross, their fronts may run
    past the horizon, arrivals and requests may share cells with fronts and
    with each other, and horizons reach past t = 100.
    """
    names = draw(st.lists(st.sampled_from(LAB_NAMES), min_size=2, max_size=5, unique=True))
    rel = draw(st.lists(st.integers(-15, 15), min_size=len(names), max_size=len(names),
                        unique=True))
    offset = draw(st.integers(-1000, 1000))
    horizon = draw(st.integers(1, 130))
    cfg = SpacetimeConfig({name: offset + x for name, x in zip(names, rel)}, horizon)
    coords = cfg.locations

    times = st.integers(0, horizon)
    departures = set()
    for origin, dest, t, crossing in draw(st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(names), times, st.booleans()),
            max_size=8)):
        if origin != dest:
            departures.add((origin, dest, t))
            if crossing:
                departures.add((dest, origin, t))
    arrivals = {
        (o, d, t + abs(coords[o] - coords[d]))
        for o, d, t in departures
        if t + abs(coords[o] - coords[d]) <= horizon
    }
    arrivals |= set(draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names), times), max_size=3)))
    requests = set(draw(st.lists(
        st.tuples(st.sampled_from(TASK_IDS), st.sampled_from(names), times), max_size=6)))
    for _, dest, at in sorted(arrivals):
        if draw(st.booleans()):
            requests.add((draw(st.sampled_from(TASK_IDS)), dest, at))
    return (frozenset(requests), frozenset(departures), frozenset(arrivals)), cfg


@given(pictures())
@settings(max_examples=300, deadline=None)
def test_matches_dense_renderer(picture):
    trace, cfg = picture
    assert render_diagram(trace, cfg) == dense_diagram(trace, cfg)

