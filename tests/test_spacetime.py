"""Geometry unit tests and the exhaustive causal-order property suite."""

import itertools

import pytest

from nosignal import (
    SpacetimeConfig,
    ValidationError,
    causal_leq,
    distance,
    signal_arrival,
)

CFG = SpacetimeConfig({"L": 0, "R": 3}, horizon=3)


class TestConfig:
    def test_needs_two_locations(self):
        with pytest.raises(ValueError):
            SpacetimeConfig({"L": 0}, horizon=3)

    def test_coordinates_distinct(self):
        with pytest.raises(ValueError):
            SpacetimeConfig({"L": 0, "R": 0}, horizon=3)

    def test_horizon_positive(self):
        with pytest.raises(ValueError):
            SpacetimeConfig({"L": 0, "R": 3}, horizon=0)

    @pytest.mark.parametrize("locations, horizon, message", [
        ({"A": 0, "B": 1.5}, 3, "locations.B: expected an integer, got 1.5"),
        ({"A": 0, "B": 2.0}, 3, "locations.B: expected an integer, got 2.0"),
        ({"A": False, "B": 1}, 3, "locations.A: expected an integer, got False"),
        ({"A": 0, "B": "1"}, 3, "locations.B: expected an integer, got '1'"),
        ({"A": 0, "B": 1}, 2.5, "horizon: expected an integer, got 2.5"),
        ({"A": 0, "B": 1}, True, "horizon: expected an integer, got True"),
    ], ids=["float", "integral-float", "bool", "string", "float-horizon", "bool-horizon"])
    def test_coordinates_and_horizon_are_integers(self, locations, horizon, message):
        """As the loader reads them: a float or a bool would otherwise pass
        and break drawing (a ``TypeError``) or draw one row for ``True``."""
        with pytest.raises(ValidationError) as err:
            SpacetimeConfig(locations, horizon)
        assert str(err.value) == message

    def test_agents_sorted(self):
        cfg = SpacetimeConfig({"R": 3, "L": 0, "M": 1}, horizon=2)
        assert cfg.agents == ("L", "M", "R")
        assert cfg.others("M") == ("L", "R")


class TestDistance:
    def test_absolute_difference(self):
        assert distance("L", "R", CFG) == 3

    def test_identity(self):
        assert distance("L", "L", CFG) == 0

    def test_symmetric(self):
        assert distance("R", "L", CFG) == 3

    def test_unknown_location(self):
        with pytest.raises(ValidationError, match="^unknown location 'X'$"):
            distance("L", "X", CFG)


class TestSignalArrival:
    def test_depart_at_zero_arrives_at_gap(self):
        assert signal_arrival("L", "R", 0, CFG) == 3
        assert signal_arrival("R", "L", 0, CFG) == 3

    def test_later_departure_shifts_arrival(self):
        assert signal_arrival("L", "R", 2, CFG) == 5  # beyond the horizon is fine

    def test_same_location_rejected(self):
        with pytest.raises(ValidationError, match="^signal from 'L' to itself$"):
            signal_arrival("L", "L", 0, CFG)

    def test_travel_time_is_distance(self):
        for t in range(CFG.horizon + 1):
            assert signal_arrival("L", "R", t, CFG) - t == distance("L", "R", CFG)


class TestCausalOrder:
    def test_reflexive(self):
        assert causal_leq(("L", 0), ("L", 0), CFG)

    def test_simultaneous_distant_events_unordered(self):
        assert not causal_leq(("R", 0), ("L", 0), CFG)

    def test_lightlike_boundary_included(self):
        assert causal_leq(("L", 0), ("R", 3), CFG)

    def test_rejects_unknown_location(self):
        with pytest.raises(ValidationError, match="^unknown location 'X'$"):
            causal_leq(("X", 0), ("L", 0), CFG)

    def test_rejects_out_of_range_time(self):
        with pytest.raises(ValueError):
            causal_leq(("L", 9), ("L", 9), CFG)


def small_configs(universe=range(5), max_horizon=4):
    """Every coordinate subset of the universe with 2..4 locations, H 1..4."""
    for size in (2, 3, 4):
        for coords in itertools.combinations(universe, size):
            for horizon in range(1, max_horizon + 1):
                yield SpacetimeConfig({f"p{c}": c for c in coords}, horizon)


def test_partial_order_exhaustive():
    """Reflexivity, transitivity, and antisymmetry over all small configs."""
    for cfg in small_configs():
        events = [(loc, t) for loc in cfg.agents for t in range(cfg.horizon + 1)]
        leq = {
            (e1, e2): causal_leq(e1, e2, cfg)
            for e1 in events
            for e2 in events
        }
        for e in events:
            assert leq[(e, e)]
        for e1, e2 in itertools.permutations(events, 2):
            assert not (leq[(e1, e2)] and leq[(e2, e1)]), (e1, e2)
        for e1 in events:
            for e2 in events:
                if not leq[(e1, e2)]:
                    continue
                for e3 in events:
                    if leq[(e2, e3)]:
                        assert leq[(e1, e3)], (e1, e2, e3)


def test_spacelike_symmetry_exhaustive():
    """Unreachability at equal times is mutual."""
    for cfg in small_configs():
        events = [(loc, t) for loc in cfg.agents for t in range(cfg.horizon + 1)]
        for e1, e2 in itertools.permutations(events, 2):
            if e1[1] == e2[1] and not causal_leq(e1, e2, cfg):
                assert not causal_leq(e2, e1, cfg)
