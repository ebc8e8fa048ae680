"""Lattice-spacetime protocol simulator and strategy search.

Agents stationed at lattice locations act only on what has reached them at
light speed; tasks ask for exactly-timed signal deliveries under silence
constraints. The package simulates scenarios, evaluates task predicates,
and exhaustively searches deterministic local strategies, certifying
impossibility when no strategy can satisfy a requirement set.

Each public name is imported from its home module on first use, so
``import nosignal`` loads no submodule and a caller pays only for the
modules it touches. The command line loads ``cli``, ``config``,
``protocol``, ``tasks``, ``spacetime``, ``search``, ``diagram``, ``record``
and ``errors``, and ``text`` only to print text other than a diagram (help
and usage errors included). It never loads ``audit``, the home of the
library-only helpers. Bad input raises ``SimulationError``, or
``ValidationError`` for a value that breaks an invariant (see ``errors``).
"""

__version__ = "0.1.0"

_HOMES = {
    "audit": "causal_leq indistinguishable local_history no_signaling_audit "
             "paradox_requirements signal_arrival",
    "errors": "SimulationError ValidationError",
    "protocol": "execute obedient_strategy",
    "search": "Aborted Certificate Found Impossible SearchLimits SearchOutcome "
              "find_strategy mutually_exclusive",
    "spacetime": "SpacetimeConfig distance",
    "tasks": "evaluate_requirement evaluate_task",
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
