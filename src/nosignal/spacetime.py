"""Discrete 1+1 dimensional spacetime geometry.

Locations sit on an integer lattice, time advances in integer steps, and
light moves exactly one cell per step. Distances are therefore also travel
times, and the causal order between two events is decided by whether a
light signal could connect them (``audit.causal_leq``, with the other
helpers only a library caller uses).
"""

from __future__ import annotations

from .errors import ValidationError
from .record import Record


class SpacetimeConfig(Record):
    """Static geometry: named lattice locations plus the simulation horizon.

    Coordinates and the horizon are integers, as the loader reads them (a
    bool is none). Coordinates must be pairwise distinct; co-located
    laboratories would let one agent observe another's requests directly,
    which is outside the model.
    """

    __slots__ = ("locations", "horizon")

    def __init__(self, locations: dict[str, int], horizon: int):
        if len(locations) < 2:
            raise ValidationError("locations: need at least 2 locations")
        for name, coord in locations.items():
            if type(coord) is not int:
                raise ValidationError(f"locations.{name}: expected an integer, got {coord!r}")
        if len(set(locations.values())) != len(locations):
            raise ValidationError("locations: coordinates must be pairwise distinct")
        if type(horizon) is not int:
            raise ValidationError(f"horizon: expected an integer, got {horizon!r}")
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
            raise ValidationError(f"unknown location {loc!r}") from None

    def others(self, loc: str) -> tuple[str, ...]:
        """All locations except ``loc``, sorted; the legal send destinations."""
        self.coord(loc)
        return tuple(a for a in self.agents if a != loc)


def distance(a: str, b: str, cfg: SpacetimeConfig) -> int:
    """Cells between two locations; symmetric, zero iff ``a == b``."""
    return abs(cfg.coord(a) - cfg.coord(b))
