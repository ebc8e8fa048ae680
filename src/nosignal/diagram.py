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
O(departures × distance + marks + bytes written) time and O(marks + one
row) memory: ``_picture`` checks the size and places the marks, then hands
back the lines one at a time, so a caller that writes each line as it comes
never holds the whole picture. Blank cells between marks are written, never
visited one by one. A picture of more than ``_MAX_CELLS`` cells (columns ×
rows) is refused before any mark is placed.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain

from .errors import ValidationError
from .protocol import Trace
from .spacetime import SpacetimeConfig

_CELL = 3
# Bounds a picture's size and drawing time, at most 30 MB of text; the
# largest benchmark picture has about 400,000 cells.
_MAX_CELLS = 10_000_000


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
    """``prefix``, then each mark left-justified in the cell at its x. Only
    the gaps before marks are padded, so unless the last mark ends in a
    space the trim returns the joined row itself."""
    parts = [prefix]
    col = _CELL * xmin  # where the text written so far ends
    for x in sorted(marks):
        mark = marks[x]
        parts += (" " * (_CELL * x - col), mark)
        col = _CELL * x + len(mark)
    return "".join(parts).rstrip()


def _picture(trace: Trace, cfg: SpacetimeConfig) -> Iterator[str]:
    """The lines of the picture of a trace ``(requests, departures,
    arrivals)``, header first, without newlines or trailing spaces. The size
    check and the marks come first; each line is drawn when it is asked for."""
    requests, departures, arrivals = trace
    coords = cfg.locations
    xmin = min(coords.values())
    width, height = max(coords.values()) - xmin + 1, cfg.horizon + 1
    if width * height > _MAX_CELLS:
        raise ValidationError(f"diagram: {width} columns by {height} rows exceed the "
                              f"{_MAX_CELLS} cells a picture may hold")

    rows: dict[int, dict[int, str]] = {}
    for origin, dest, depart in departures:
        x0, x1 = coords[origin], coords[dest]
        step = 1 if x1 > x0 else -1
        glyph = ">" if step > 0 else "<"
        for k in range(min(abs(x1 - x0), cfg.horizon - depart + 1)):
            row = rows.setdefault(depart + k, {})
            x = x0 + step * k
            row[x] = glyph if row.get(x, glyph) == glyph else "X"
    for _, dest, at in arrivals:
        rows.setdefault(at, {})[coords[dest]] = "*"
    for task_id, location, time in requests:
        rows.setdefault(time, {})[coords[location]] = _task_marker(task_id)

    header = _line("  t ", {x: _lab_label(name) for name, x in coords.items()}, xmin)
    return chain((header,), (_line(f"{t:>3} ", rows[t], xmin) if t in rows else f"{t:>3}"
                             for t in range(height)))


def render_diagram(trace: Trace, cfg: SpacetimeConfig) -> str:
    """Deterministic text rendering of a trace ``(requests, departures,
    arrivals)``; newline-terminated, no trailing spaces."""
    return "".join(line + "\n" for line in _picture(trace, cfg))
