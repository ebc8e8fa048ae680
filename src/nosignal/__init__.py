"""Lattice-spacetime protocol simulator and strategy search.

Agents stationed at lattice locations act only on what has reached them at
light speed; tasks ask for exactly-timed signal deliveries under silence
constraints. The package simulates scenarios, evaluates task predicates,
and exhaustively searches deterministic local strategies, certifying
impossibility when no strategy can satisfy a requirement set.
"""

from .errors import (
    DuplicateTask,
    InvalidScenario,
    ParseError,
    SameLocation,
    SimulationError,
    UnachievableTask,
    UnknownLocation,
    ValidationError,
)
from .protocol import (
    Action,
    LocalHistory,
    ReceivedEvent,
    Scenario,
    Strategy,
    TaskRequest,
    Trace,
    execute,
    local_history,
    obedient_strategy,
)
from .search import (
    Aborted,
    AuditReport,
    Certificate,
    Found,
    Impossible,
    SearchLimits,
    SearchOutcome,
    find_strategy,
    indistinguishable,
    mutually_exclusive,
    no_signaling_audit,
)
from .spacetime import Event, SpacetimeConfig, causal_leq, distance, signal_arrival
from .tasks import (
    Deliver,
    Requirement,
    RequirementReport,
    Rule,
    Silence,
    TaskSpec,
    evaluate_requirement,
    evaluate_task,
    paradox_requirements,
)

__version__ = "0.1.0"

__all__ = [
    "Aborted",
    "Action",
    "AuditReport",
    "Certificate",
    "Deliver",
    "DuplicateTask",
    "Event",
    "Found",
    "Impossible",
    "InvalidScenario",
    "LocalHistory",
    "ParseError",
    "ReceivedEvent",
    "Requirement",
    "RequirementReport",
    "Rule",
    "SameLocation",
    "Scenario",
    "SearchLimits",
    "SearchOutcome",
    "Silence",
    "SimulationError",
    "SpacetimeConfig",
    "Strategy",
    "TaskRequest",
    "TaskSpec",
    "Trace",
    "UnachievableTask",
    "UnknownLocation",
    "ValidationError",
    "causal_leq",
    "distance",
    "evaluate_requirement",
    "evaluate_task",
    "execute",
    "find_strategy",
    "indistinguishable",
    "local_history",
    "mutually_exclusive",
    "no_signaling_audit",
    "obedient_strategy",
    "paradox_requirements",
    "signal_arrival",
]
