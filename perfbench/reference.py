"""Fixed reference job that measures how fast the host runs Python right now.

    python3 perfbench/reference.py

Counts the solutions of the N-queens puzzle by backtracking in pure Python
and prints the count as JSON. The job never changes and uses nothing from
the ``nosignal`` package, so its wall time moves only with the host: the
benchmark runs it between operations and divides every operation's time by
it (see ``HostSpeed`` in ``run.py``). Like an operation, it is a fresh
interpreter that imports a few standard modules and then walks a search
tree of small tuples and lists.
"""

from __future__ import annotations

import json
import sys

N = 8
ROUNDS = 3
EXPECTED = 92 * ROUNDS  # 92 is the known count for N = 8; another count is a broken job


def count(n: int) -> int:
    placed: list[tuple[int, int]] = []

    def free(row: int, col: int) -> bool:
        return all(c != col and abs(c - col) != row - r for r, c in placed)

    def walk(row: int) -> int:
        if row == n:
            return 1
        found = 0
        for col in range(n):
            if free(row, col):
                placed.append((row, col))
                found += walk(row + 1)
                placed.pop()
        return found

    return walk(0)


def main() -> int:
    solutions = sum(count(N) for _ in range(ROUNDS))
    print(json.dumps({"solutions": solutions}))
    return 0 if solutions == EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main())
