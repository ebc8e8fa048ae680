"""The package namespace: which names it exports, and that it loads lazily."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nosignal

REPO = Path(__file__).resolve().parent.parent
PUBLIC = [
    "Aborted", "Certificate", "Found", "Impossible", "SearchLimits",
    "SearchOutcome", "SimulationError", "SpacetimeConfig", "ValidationError", "causal_leq", "distance", "evaluate_requirement", "evaluate_task",
    "execute", "find_strategy", "indistinguishable", "local_history", "mutually_exclusive",
    "no_signaling_audit", "obedient_strategy", "paradox_requirements", "signal_arrival",
]


# Where each name is defined; the audit, with the helpers only a library
# caller runs, is the one module the CLI never loads.
HOMES = {
    "audit": ["causal_leq", "indistinguishable", "local_history", "no_signaling_audit",
              "paradox_requirements", "signal_arrival"],
    "errors": ["SimulationError", "ValidationError"],
    "protocol": ["execute", "obedient_strategy"],
    "search": ["Aborted", "Certificate", "Found", "Impossible", "SearchLimits", "SearchOutcome",
               "find_strategy", "mutually_exclusive"],
    "spacetime": ["SpacetimeConfig", "distance"],
    "tasks": ["evaluate_requirement", "evaluate_task"],
}


def test_all_lists_the_public_names_in_order():
    assert nosignal.__all__ == PUBLIC
    assert sorted(name for names in HOMES.values() for name in names) == PUBLIC


@pytest.mark.parametrize("home, name", [(home, name) for home, names in HOMES.items() for name in names])
def test_name_is_its_home_modules_object(home, name):
    module = importlib.import_module(f"nosignal.{home}")
    assert getattr(nosignal, name) is getattr(module, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from nosignal import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert all(namespace[name] is getattr(nosignal, name) for name in PUBLIC)


def test_dir_lists_every_name():
    assert set(PUBLIC) <= set(dir(nosignal))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'frobnicate'"):
        nosignal.frobnicate  # noqa: B018
    assert not hasattr(nosignal, "_private")


def test_import_loads_no_submodule():
    """``-S`` keeps a site ``.pth`` file from importing the package first."""
    probe = "import sys, nosignal; print(sorted(m for m in sys.modules if m.startswith('nosignal.')))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
