"""Independent reference implementations used to cross-check the library.

Everything here runs on plain tuples with its own tiny executor, shares no
code with the package (``dense_diagram`` borrows only the text of one
diagram cell), and prefers clarity over speed. History keys are
(agent, time, events) where events are (time, kind, label) tuples; "request"
sorts before "signal", matching the canonical observation order.
"""

from __future__ import annotations

import itertools

REQUEST = "request"
SIGNAL = "signal"


def mini_execute(locations, horizon, requests, strategy, record=None):
    """Lockstep run on tuples.

    requests: iterable of (task, location, time); strategy: mapping from
    history key to a tuple of destinations (missing keys mean "do nothing").
    Returns (departures, arrivals) as frozensets. When ``record`` is a set,
    every queried history key is added to it.
    """
    agents = sorted(locations)
    delivered = {a: [] for a in agents}
    pending: dict[int, list] = {}
    departures = set()
    arrivals = set()
    by_time: dict[int, list] = {}
    for task, loc, t in requests:
        by_time.setdefault(t, []).append((loc, (t, REQUEST, task)))

    for t in range(horizon + 1):
        for loc, event in sorted(by_time.get(t, [])):
            delivered[loc].append(event)
        for origin, dest in pending.pop(t, ()):
            arrivals.add((origin, dest, t))
            delivered[dest].append((t, SIGNAL, origin))
        for agent in agents:
            key = (agent, t, tuple(sorted(delivered[agent])))
            if record is not None:
                record.add(key)
            for dest in strategy.get(key, ()):
                departures.add((agent, dest, t))
                arrives = t + abs(locations[agent] - locations[dest])
                if arrives <= horizon:
                    pending.setdefault(arrives, []).append((agent, dest))
    return frozenset(departures), frozenset(arrivals)


def task_ok(departures, arrivals, deliver, banned):
    """deliver: (origin, dest, at) triple; banned: set of (origin, dest)."""
    if deliver not in arrivals:
        return False
    return not any((o, d) in banned for o, d, _ in departures)


def requirement_ok(departures, arrivals, rule, task_rows):
    verdicts = [task_ok(departures, arrivals, deliver, banned) for deliver, banned in task_rows]
    if rule == "all":
        return all(verdicts)
    return any(verdicts)


def action_menu(locations):
    """Per-agent actions ordered by (size, lexical), the search's branch order."""
    agents = sorted(locations)
    menu = {}
    for agent in agents:
        others = [a for a in agents if a != agent]
        subsets = [()]
        for dest in others:
            subsets += [s + (dest,) for s in subsets]
        menu[agent] = sorted((tuple(sorted(s)) for s in subsets), key=lambda s: (len(s), s))
    return menu


def recount_assignments(locations, horizon, scenarios, points):
    """Enumerate ALL total assignments over ``points`` by brute force.

    scenarios: list of (requests, rule, task_rows). Every key outside
    ``points`` sends nothing. Runs every scenario under each assignment and
    returns (total assignments, how many of them fail some requirement).
    """
    menu = action_menu(locations)
    point_list = sorted(points)
    choices = [menu[agent] for agent, _, _ in point_list]
    total = failed = 0
    for combo in itertools.product(*choices):
        total += 1
        assignment = dict(zip(point_list, combo))
        if not all(requirement_ok(*mini_execute(locations, horizon, requests, assignment), rule, task_rows)
                   for requests, rule, task_rows in scenarios):
            failed += 1
    return total, failed


def requirement_lost(locations, departures, upto, rule, task_rows):
    """Whether no run extending ``departures`` past time ``upto`` can meet the rule.

    Judged task by task, as the search does: a task can still succeed iff
    adding its own delivering departure (when that is due after ``upto``) to
    the departures so far satisfies it. Rule "all" is lost when any task
    cannot, "at_least_one" when none can.
    """
    verdicts = []
    for deliver, banned in task_rows:
        origin, dest, at = deliver
        due = at - abs(locations[origin] - locations[dest])
        completed = set(departures)
        if due > upto:
            completed.add((origin, dest, due))
        arrivals = {(o, d, t + abs(locations[o] - locations[d])) for o, d, t in completed}
        verdicts.append(task_ok(completed, arrivals, deliver, banned))
    possible = all(verdicts) if rule == "all" else any(verdicts)
    return not possible


def truncated_departures(locations, horizon, requests, assignment, upto):
    """Departures at times <= ``upto`` of one scenario under a partial assignment."""
    departures, _ = mini_execute(locations, horizon, requests, assignment)
    return frozenset(dep for dep in departures if dep[2] <= upto)


def decide(locations, horizon, scenarios, max_nodes):
    """Whether some strategy over reachable histories meets every scenario.

    scenarios: list of (requests, rule, task_rows). Independent traversal
    over full menus: re-runs every scenario from scratch at each node and
    branches on the earliest-time missing key (canonical tiebreak), which
    differs from the library's slot order. Once every key queried up to
    time t is assigned (slice t complete), the node is cut when some
    requirement is already lost at t, judged by ``requirement_lost`` on the
    truncated run. Returns True at the first complete assignment meeting
    every requirement, False once the tree is exhausted, and None once
    more than ``max_nodes`` nodes were visited.
    """
    menu = action_menu(locations)
    nodes = 0

    def rec(assignment):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            return None
        queried = set()
        runs = [(mini_execute(locations, horizon, requests, assignment, record=queried), rule, task_rows)
                for requests, rule, task_rows in scenarios]
        missing = sorted((k for k in queried if k not in assignment),
                         key=lambda k: (k[1], k[0], k[2]))
        if not missing:
            return all(requirement_ok(deps, arrs, rule, task_rows)
                       for (deps, arrs), rule, task_rows in runs)
        upto = missing[0][1] - 1
        if upto >= 0 and any(
                requirement_lost(locations, {dep for dep in deps if dep[2] <= upto}, upto, rule, task_rows)
                for (deps, _), rule, task_rows in runs):
            return False
        key = missing[0]
        for sends in menu[key[0]]:
            assignment[key] = sends
            verdict = rec(assignment)
            del assignment[key]
            if verdict is not False:
                return verdict
        return False

    return rec({})


def brute_force_joint_satisfiable(locations, horizon, task_rows):
    """Whether ANY departure set satisfies every task in ``task_rows``.

    Enumerates all subsets of {(origin, dest, t)} and derives arrivals,
    mirroring nothing of the library's code path.
    """
    agents = sorted(locations)
    slots = [(o, d, t) for o in agents for d in agents if o != d for t in range(horizon + 1)]
    for mask in range(1 << len(slots)):
        departures = frozenset(s for i, s in enumerate(slots) if mask >> i & 1)
        arrivals = frozenset(
            (o, d, t + abs(locations[o] - locations[d]))
            for o, d, t in departures
            if t + abs(locations[o] - locations[d]) <= horizon
        )
        if all(task_ok(departures, arrivals, deliver, banned) for deliver, banned in task_rows):
            return True
    return False


def magician(n, slack, k):
    """The config document of the magician family, one member per (n, slack, k).

    A hub lab ``H`` at 0 and requesters ``L0``..``L{n-1}`` at -1, +1, -2,
    +2, ... (``L_i`` at +-(i // 2 + 1)). Task ``t_i`` delivers ``L_i`` ->
    ``H`` at ``|x_i| + slack`` and bans every other ``L_j`` -> ``H``. There
    is one scenario per set of 1..k requests (``t_i`` at ``L_i``, t = 0),
    under rule ``all`` for one request and ``at_least_one`` for more. The
    answer in closed form: Found for k = 1 (each lab obeys its request),
    and for k >= 2 Found iff slack >= n, the time the two end labs need to
    hear each other before they depart.
    """
    labs = [f"L{i}" for i in range(n)]
    coords = [(i // 2 + 1) * (-1 if i % 2 == 0 else 1) for i in range(n)]
    sets = {"r" + "_".join(map(str, c)): c for m in range(1, k + 1) for c in itertools.combinations(range(n), m)}
    return {
        "locations": {"H": 0, **dict(zip(labs, coords))},
        "horizon": max(abs(x) for x in coords) + slack,
        "tasks": {
            f"t{i}": {
                "deliver": {"from": labs[i], "to": "H", "at": abs(coords[i]) + slack},
                "silence": [{"from": lab, "to": "H"} for lab in labs if lab != labs[i]],
            }
            for i in range(n)
        },
        "scenarios": {
            name: [{"task": f"t{i}", "location": labs[i], "time": 0} for i in c] for name, c in sets.items()
        },
        "requirements": [
            {"scenario": name, "rule": "all" if len(c) == 1 else "at_least_one"} for name, c in sets.items()
        ],
    }


def dense_diagram(trace, cfg):
    """The per-cell diagram renderer: visits every (t, x) of span × horizon.

    The reference for ``nosignal.diagram.render_diagram``, which builds
    rows from their marks only. The one thing shared with the package is
    the text of a single cell (task markers, lab labels, the cell width).
    """
    from nosignal.diagram import _CELL, _lab_label, _task_marker

    coords = cfg.locations
    xmin = min(coords.values())
    xmax = max(coords.values())
    span = xmax - xmin + 1

    requests, departures, arrivals = trace
    fronts: dict[tuple[int, int], set[str]] = {}
    for origin, dest, depart in sorted(departures):
        x0, x1 = coords[origin], coords[dest]
        step = 1 if x1 > x0 else -1
        glyph = ">" if step > 0 else "<"
        for k in range(abs(x1 - x0)):
            t = depart + k
            if t > cfg.horizon:
                break
            fronts.setdefault((t, x0 + step * k), set()).add(glyph)

    cells: dict[tuple[int, int], str] = {}
    for (t, x), glyphs in fronts.items():
        cells[(t, x)] = glyphs.pop() if len(glyphs) == 1 else "X"
    for origin, dest, at in arrivals:
        cells[(at, coords[dest])] = "*"
    for task_id, location, time in requests:
        cells[(time, coords[location])] = _task_marker(task_id)

    names = {coords[name]: name for name in coords}
    header = "  t " + "".join(
        f"{_lab_label(names.get(xmin + i, '')):<{_CELL}}" for i in range(span)
    )
    lines = [header.rstrip()]
    for t in range(cfg.horizon + 1):
        row = f"{t:>3} " + "".join(
            f"{cells.get((t, xmin + i), ''):<{_CELL}}" for i in range(span)
        )
        lines.append(row.rstrip())
    return "\n".join(lines) + "\n"
