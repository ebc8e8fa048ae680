"""The package's two exception classes, one per kind of bad input.

``ValidationError`` is a value that breaks an invariant: an unknown lab, a
send or signal to the sender's own lab, a request outside the lattice or in
a taken slot, a delivery too early or too late, two task ids that must
differ, and every fault in a well-formed document. ``SimulationError`` is
the rest: a document that is not JSON or not UTF-8 text, a path holding a
NUL byte, an unknown scenario name. The command line exits 2 on either, as
on an ``OSError``. Each message names its fault.
"""


class SimulationError(Exception):
    """Base class for every error this package raises on bad input."""


class ValidationError(SimulationError, ValueError):
    """A parsed document or value violates a structural invariant.

    Also a ``ValueError``, so callers that catch ``ValueError`` keep working.
    """
