"""ASCII spacetime diagrams.

One row per time step with t increasing downward, one column per lattice
cell. Requests show as ``!n`` markers at their submission cell, signal
fronts advance one cell per row as ``>`` or ``<``, arrivals are ``*``, and
two fronts crossing in one cell collapse to ``X``. When several glyphs
compete for a cell the busiest wins: request over arrival over crossing
over a plain front. Every cell text fits its ``_CELL`` columns, and
characters that are not printable (a newline in a lab name, say) or not
one column wide (``日`` fills two, a combining accent none) show as ``?``,
so one line is always one row and every cell sits under its label.

Rows are built from their marks alone: a row is its prefix, then each mark
in x order with blank cells between, trimmed on the right. Drawing costs
O(departures × distance + marks + bytes written); blank cells between
marks are written, never visited one by one.
"""

from __future__ import annotations

from .protocol import Trace
from .spacetime import SpacetimeConfig

_CELL = 3


def _printable(text: str) -> str:
    """``text`` with every character that does not fill exactly one
    terminal column shown as ``?``: unprintable ones, East Asian wide or
    full-width ones, and combining marks."""
    if text.isascii():
        return "".join(ch if ch.isprintable() else "?" for ch in text)
    from unicodedata import category, east_asian_width  # not needed at start-up

    return "".join(ch if ch.isprintable() and east_asian_width(ch) not in ("W", "F")
                   and category(ch) not in ("Mn", "Me") else "?" for ch in text)


def _task_marker(task_id: str) -> str:
    digits = "".join(ch for ch in task_id if ch.isdigit())
    return _printable("!" + (digits or task_id[:1]))[:_CELL]


def _lab_label(name: str) -> str:
    return _printable(name[:_CELL - 1])


def _line(prefix: str, marks: dict[int, str], xmin: int) -> str:
    """``prefix``, then each mark left-justified in the cell at its x."""
    parts = [prefix]
    x_next = xmin
    for x in sorted(marks):
        parts += (" " * (_CELL * (x - x_next)), marks[x].ljust(_CELL))
        x_next = x + 1
    return "".join(parts).rstrip()


def render_diagram(trace: Trace, cfg: SpacetimeConfig) -> str:
    """Deterministic text rendering of a trace; newline-terminated, no
    trailing spaces."""
    coords = cfg.locations
    xmin = min(coords.values())

    rows: dict[int, dict[int, str]] = {}
    for origin, dest, depart in trace.departures:
        x0, x1 = coords[origin], coords[dest]
        step = 1 if x1 > x0 else -1
        glyph = ">" if step > 0 else "<"
        for k in range(min(abs(x1 - x0), cfg.horizon - depart + 1)):
            row = rows.setdefault(depart + k, {})
            x = x0 + step * k
            row[x] = glyph if row.get(x, glyph) == glyph else "X"
    for _, dest, at in trace.arrivals:
        rows.setdefault(at, {})[coords[dest]] = "*"
    for task_id, location, time in trace.requests:
        rows.setdefault(time, {})[coords[location]] = _task_marker(task_id)

    header = {x: _lab_label(name) for name, x in coords.items()}
    lines = [_line("  t ", header, xmin)]
    lines += [_line(f"{t:>3} ", rows[t], xmin) if t in rows else f"{t:>3}"
              for t in range(cfg.horizon + 1)]
    return "\n".join(lines) + "\n"
