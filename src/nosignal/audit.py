"""The no-signaling audit: equal local histories must give equal behavior.

Both checks replay scenarios through ``execute`` and rebuild each agent's
history from the finished trace with ``local_history``, not from the
history keys the executor steps on. That second derivation is what makes
the audit a check on the executor rather than a restatement of it. The
command line never imports this module.
"""

from __future__ import annotations

from collections.abc import Iterable

from .protocol import LocalHistory, Scenario, Strategy, execute, local_history
from .record import Record
from .spacetime import SpacetimeConfig


def indistinguishable(
    cfg: SpacetimeConfig,
    strategy: Strategy,
    s1: Scenario,
    s2: Scenario,
    agent: str,
    t: int,
) -> bool:
    """Whether ``agent`` sees identical histories at ``t`` in both scenarios."""
    trace1 = execute(cfg, s1, strategy)
    trace2 = execute(cfg, s2, strategy)
    return local_history(trace1, agent, t, cfg) == local_history(trace2, agent, t, cfg)


class AuditViolation(Record):
    __slots__ = ("pair_index", "agent", "time", "history", "sends")

    def __init__(self, pair_index: int, agent: str, time: int, history: LocalHistory,
                 sends: tuple[frozenset[str], frozenset[str]]):
        self._fill(pair_index, agent, time, history, sends)


class AuditReport(Record):
    """Result of checking same-history implies same-behavior over pairs."""

    __slots__ = ("checks", "violations")

    def __init__(self, checks: int, violations: tuple[AuditViolation, ...] = ()):
        self._fill(checks, violations)

    @property
    def ok(self) -> bool:
        return not self.violations


def no_signaling_audit(
    cfg: SpacetimeConfig,
    strategy: Strategy,
    scenario_pairs: Iterable[tuple[Scenario, Scenario]],
) -> AuditReport:
    """Audit that indistinguishable histories produce identical behavior.

    For every pair, agent, and time where the agent's local histories
    coincide, the departures the agent actually produced at that time must
    coincide too. Locality is structural, so any violation indicates an
    executor bug, not a bad strategy.
    """
    checks = 0
    violations = []
    for pair_index, (s1, s2) in enumerate(scenario_pairs):
        trace1 = execute(cfg, s1, strategy)
        trace2 = execute(cfg, s2, strategy)
        for agent in cfg.agents:
            for t in range(cfg.horizon + 1):
                h1 = local_history(trace1, agent, t, cfg)
                h2 = local_history(trace2, agent, t, cfg)
                if h1 != h2:
                    continue
                checks += 1
                sent1 = frozenset(d for o, d, tt in trace1.departures if o == agent and tt == t)
                sent2 = frozenset(d for o, d, tt in trace2.departures if o == agent and tt == t)
                if sent1 != sent2:
                    violations.append(
                        AuditViolation(pair_index, agent, t, h1, (sent1, sent2))
                    )
    return AuditReport(checks, tuple(violations))
