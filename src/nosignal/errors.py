"""Exception hierarchy shared across the package."""


class SimulationError(Exception):
    """Base class for every error this package raises on bad input."""


class UnknownLocation(SimulationError):
    """A location id is not part of the spacetime configuration."""


class SameLocation(SimulationError):
    """A signal endpoint pair collapsed to a single location."""


class InvalidScenario(SimulationError):
    """A request set violates the scenario invariants for this configuration."""


class UnachievableTask(SimulationError):
    """A task's delivery comes sooner than a signal can travel its distance."""


class DuplicateTask(SimulationError):
    """Two task ids that must be distinct are the same."""


class ParseError(SimulationError):
    """A document is not well-formed JSON."""


class ValidationError(SimulationError, ValueError):
    """A parsed document or value violates a structural invariant.

    Also a ``ValueError``, so callers that catch ``ValueError`` keep working.
    """
