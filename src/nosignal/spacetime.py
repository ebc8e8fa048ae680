"""Discrete 1+1 dimensional spacetime geometry.

Locations sit on an integer lattice, time advances in integer steps, and
light moves exactly one cell per step. Distances are therefore also travel
times, and the causal order between two events is decided by whether a
light signal could connect them.
"""

from __future__ import annotations

from .errors import SameLocation, UnknownLocation, ValidationError
from .record import Ordered, Record


class SpacetimeConfig(Record):
    """Static geometry: named lattice locations plus the simulation horizon.

    Coordinates must be pairwise distinct; co-located laboratories would let
    one agent observe another's requests directly, which is outside the model.
    """

    __slots__ = ("locations", "horizon")

    def __init__(self, locations: dict[str, int], horizon: int):
        if len(locations) < 2:
            raise ValidationError("locations: need at least 2 locations")
        if len(set(locations.values())) != len(locations):
            raise ValidationError("locations: coordinates must be pairwise distinct")
        if horizon < 1:
            raise ValidationError(f"horizon: must be >= 1, got {horizon}")
        self._fill(dict(locations), horizon)

    @property
    def agents(self) -> tuple[str, ...]:
        """Location ids in sorted order; exactly one agent lives at each."""
        return tuple(sorted(self.locations))

    def coord(self, loc: str) -> int:
        try:
            return self.locations[loc]
        except KeyError:
            raise UnknownLocation(f"unknown location {loc!r}") from None

    def others(self, loc: str) -> tuple[str, ...]:
        """All locations except ``loc``, sorted; the legal send destinations."""
        self.coord(loc)
        return tuple(a for a in self.agents if a != loc)


class Event(Ordered):
    """A (location, time) point on the lattice."""

    __slots__ = ("location", "time")

    def __init__(self, location: str, time: int):
        self._fill(location, time)


def check_event(event: Event, cfg: SpacetimeConfig) -> None:
    cfg.coord(event.location)
    if not 0 <= event.time <= cfg.horizon:
        raise ValidationError(f"event time {event.time} outside [0, {cfg.horizon}]")


def distance(a: str, b: str, cfg: SpacetimeConfig) -> int:
    """Cells between two locations; symmetric, zero iff ``a == b``."""
    return abs(cfg.coord(a) - cfg.coord(b))


def signal_arrival(origin: str, dest: str, depart: int, cfg: SpacetimeConfig) -> int:
    """Arrival time of a light signal sent ``origin -> dest`` at ``depart``.

    The result may exceed the horizon, in which case the signal departs but
    is never delivered within the run.
    """
    if origin == dest:
        raise SameLocation(f"signal from {origin!r} to itself")
    d = distance(origin, dest, cfg)
    if not 0 <= depart <= cfg.horizon:
        raise ValidationError(f"departure time {depart} outside [0, {cfg.horizon}]")
    return depart + d


def causal_leq(e1: Event, e2: Event, cfg: SpacetimeConfig) -> bool:
    """True iff an influence moving at most one cell per step from ``e1``
    can reach ``e2``.

    Includes the lightlike boundary, since signals here travel at exactly
    light speed. Reflexive, and a partial order over valid events.
    """
    check_event(e1, cfg)
    check_event(e2, cfg)
    return e2.time - e1.time >= distance(e1.location, e2.location, cfg)
