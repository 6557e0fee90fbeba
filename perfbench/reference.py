"""The reference task: a fixed pure-Python computation that times the host.

The host's speed drifts by a quarter and more over minutes, for every
program alike. `run.py` times this task between the rounds of a run and
scales the run's times by it, so that a time metric moves with the program
and not with the host.

Do not change this file: every time metric is expressed in its unit. The
task is a depth-first search of the kind zerosum makes, in the same
idiom (tuples of residues, sets of subset sums), written apart from it.
"""

from __future__ import annotations

import time

GROUP = (4, 5)
NODES = 31_786  # zero-sum-free sequences over C_4 + C_5, the empty one included


def zero_sum_free_count(m: int, n: int) -> int:
    """Count the zero-sum-free sequences over C_m + C_n by DFS over
    non-decreasing sequences, carrying the set of nonempty subset sums."""
    elems = [(a, b) for a in range(m) for b in range(n) if (a, b) != (0, 0)]
    count = 0

    def dfs(start, sums):
        nonlocal count
        count += 1
        for i in range(start, len(elems)):
            a, b = elems[i]
            new = {((x + a) % m, (y + b) % n) for x, y in sums}
            new.add((a, b))
            if (0, 0) not in new:
                dfs(i, sums | new)

    dfs(0, set())
    return count


def time_once() -> float:
    """Seconds the task takes now."""
    start = time.perf_counter()
    nodes = zero_sum_free_count(*GROUP)
    elapsed = time.perf_counter() - start
    if nodes != NODES:
        raise AssertionError(f"reference task counted {nodes} nodes, not {NODES}")
    return elapsed
