"""Lattice-spacetime protocol simulator and strategy search.

Agents stationed at lattice locations act only on what has reached them at
light speed; tasks ask for exactly-timed signal deliveries under silence
constraints. The package simulates scenarios, evaluates task predicates,
and exhaustively searches deterministic local strategies, certifying
impossibility when no strategy can satisfy a requirement set.

Each public name is imported from its home module on first use, so
``import nosignal`` loads no submodule and a caller pays only for the
modules it touches.
"""

__version__ = "0.1.0"

_HOMES = {
    "audit": "AuditReport indistinguishable no_signaling_audit",
    "errors": "DuplicateTask InvalidScenario ParseError SameLocation SimulationError "
              "UnachievableTask UnknownLocation ValidationError",
    "protocol": "Action LocalHistory ReceivedEvent Scenario Strategy TaskRequest Trace "
                "execute local_history obedient_strategy",
    "search": "Aborted Certificate Found Impossible SearchLimits SearchOutcome "
              "find_strategy mutually_exclusive",
    "spacetime": "Event SpacetimeConfig causal_leq distance signal_arrival",
    "tasks": "Deliver Requirement RequirementReport Rule Silence TaskSpec "
             "evaluate_requirement evaluate_task paradox_requirements",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, which would load importlib too
    module = __import__(f"{__name__}.{_HOME[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
