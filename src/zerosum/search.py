"""Exact Davenport constants and exhaustive enumeration of ml-mzss.

Both computations run the same pruned depth-first search over nondecreasing
zero-sum-free sequences, maintaining the set of subsequence sums
incrementally as a bitmask over element indices.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from . import groups
from .errors import BadParams, CapExceeded, GroupMismatch
from .groups import GroupSpec, automorphisms, index_tables, make_group
from .sequences import Sequence

ENUMERATION_CAP = 36
DAVENPORT_CAP = 64


@dataclass(frozen=True)
class DavenportResult:
    """Exact Davenport constant with a witness of that length."""

    group: GroupSpec
    d: int
    witness: Sequence
    elapsed_ms: int
    nodes: int

    def to_json(self) -> dict:
        return {
            "group": str(self.group),
            "D": self.d,
            "witness": str(self.witness),
            "elapsed_ms": self.elapsed_ms,
            "nodes": self.nodes,
        }


@dataclass(frozen=True)
class EnumerationReport:
    """Counts and orbit data for the ml-mzss of one group."""

    group: GroupSpec
    length: int
    total: int
    orbits: int
    representatives: tuple[Sequence, ...]
    elapsed_ms: int
    nodes: int

    def to_json(self) -> dict:
        return {
            "group": str(self.group),
            "D": self.length,
            "total": self.total,
            "orbits": self.orbits,
            "representatives": [str(s) for s in self.representatives],
            "elapsed_ms": self.elapsed_ms,
            "nodes": self.nodes,
        }


def davenport_closed_form(G: GroupSpec) -> int:
    """Exact maximal minimal-zero-sum length for rank <= 2 (n1 + n2 - 1, n, or 1).

    For rank >= 3 the same expression is only a lower bound, so we refuse.
    """
    if G.rank > 2:
        raise BadParams("closed form is exact only for groups of rank <= 2")
    return 1 + sum(f - 1 for f in G.invariant_factors)


def _search(
    T: groups.Tables, root: int, visit: Callable[[list[int], int], int | None]
) -> int:
    """Depth-first search over the nondecreasing zero-sum-free index sequences
    that start with `root`, in lexicographic order; returns the node count.

    At each node `visit(cur, sig)` sees the sequence and the index of its sum
    and returns the length the node's subtree must beat, or None to cut the
    subtree off. R is the bitmask of nonempty subsequence sums: appending
    g_i keeps the sequence zero-sum free exactly when -g_i is not in R, and
    grows R to R | (R + g_i) | {g_i}.
    """
    n = len(T.elements)
    add, neg, shift = T.add, T.neg, T.shift
    cur = [root]
    nodes = 0

    def rec(R: int, sig: int) -> None:
        nonlocal nodes
        nodes += 1
        bound = visit(cur, sig)
        # each appended copy adds at least one new nonzero reachable sum,
        # so at most (n - 1) - |R| more copies can follow
        if bound is None or len(cur) + (n - 1) - R.bit_count() <= bound:
            return
        for i in range(cur[-1], n):
            if not R >> neg[i] & 1:
                cur.append(i)
                rec(R | shift(R, i) | 1 << i, add[sig][i])
                cur.pop()

    rec(1 << root, root)
    return nodes


def davenport(G: GroupSpec, cap: int = DAVENPORT_CAP) -> DavenportResult:
    """Exact D(G) = 1 + (longest zero-sum-free length), by exhaustive DFS.

    The witness is the lexicographically least longest zero-sum-free sequence
    found, completed by the negated sum of its terms (which is always a
    minimal zero-sum sequence of length D).
    """
    if G.order > cap:
        raise CapExceeded(f"|G| = {G.order} exceeds davenport cap {cap}")
    t0 = time.perf_counter()
    T = index_tables(G)
    best: list[int] = []
    best_sig = 0

    def visit(cur: list[int], sig: int) -> int:
        nonlocal best, best_sig
        if len(cur) > len(best):
            best, best_sig = list(cur), sig
        return len(best)

    nodes = 1  # the empty sequence, parent of every root
    for root in range(1, G.order):
        nodes += _search(T, root, visit)
    witness = Sequence.from_elements(
        G, [T.elements[i] for i in best] + [T.elements[T.neg[best_sig]]]
    )
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return DavenportResult(G, len(best) + 1, witness, elapsed_ms, nodes)


def _enumerate_root(
    factors: tuple[int, ...], L: int, root: int
) -> tuple[list[tuple[int, ...]], int]:
    """All emitted index tuples whose smallest entry is `root` (worker task)."""
    T = index_tables(make_group(factors))
    out: list[tuple[int, ...]] = []

    def visit(cur: list[int], sig: int) -> int | None:
        if len(cur) < L:
            return L - 1
        t = T.neg[sig]
        if t >= cur[-1]:
            out.append(tuple(cur) + (t,))
        return None

    nodes = _search(T, root, visit)
    return out, nodes


class _EnumerationRun:
    """Streams emitted index tuples in lexicographic order; tracks node count.

    The DFS forest is partitioned by the first (smallest) element of the
    candidate sequence; with several workers the root subtrees run in separate
    processes and are merged back in root order, so the output is identical
    for every worker count. The pool has at most one process per root and
    per CPU.
    """

    def __init__(self, G: GroupSpec, workers: int, cap: int):
        if G.rank > 2:
            raise CapExceeded("enumeration supports groups of rank <= 2 only")
        if G.order > cap:
            raise CapExceeded(f"|G| = {G.order} exceeds enumeration cap {cap}")
        if workers < 1:
            raise BadParams(f"workers must be >= 1, got {workers}")
        self.group = G
        self.workers = workers
        self.length = davenport_closed_form(G)
        self.nodes = 0

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        G = self.group
        L = self.length - 1
        self.nodes = 1  # the empty root prefix
        if L == 0:
            # only the trivial group: the single ml-mzss is the zero element
            yield (0,)
            return
        roots = range(1, G.order)
        # a fork-based pool starts all its processes at the first submit
        workers = min(self.workers, len(roots), os.cpu_count() or 1)
        if workers == 1:
            for root in roots:
                seqs, nodes = _enumerate_root(G.invariant_factors, L, root)
                self.nodes += nodes
                yield from seqs
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_enumerate_root, G.invariant_factors, L, root)
                    for root in roots
                ]
                for fut in futures:
                    seqs, nodes = fut.result()
                    self.nodes += nodes
                    yield from seqs


def enumerate_ml_mzss(
    G: GroupSpec, workers: int = 1, cap: int = ENUMERATION_CAP
) -> Iterator[Sequence]:
    """Every minimal zero-sum sequence of length D(G), exactly once, in
    lexicographic order.

    Strategy: enumerate nondecreasing zero-sum-free sequences U of length
    D - 1 and complete each with g = -sum(U), accepting only when g is at
    least the maximum of U. Removing one copy of the maximum element of any
    ml-mzss S leaves a zero-sum-free U with -sum(U) = max(S), so S is found;
    and the accepted g always equals max(S), so each S arises from exactly
    one U. Conversely every accepted completion is a mzss: a proper zero-sum
    part either misses the new copy (contradicting that U is zero-sum free)
    or contains it, and then its complement is a nonempty zero-sum part of U.
    """
    run = _EnumerationRun(G, workers, cap)
    els = index_tables(G).elements
    for idx in run:
        yield Sequence.from_elements(G, (els[i] for i in idx))


@lru_cache(maxsize=None)
def _aut_index_perms(G: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """Each automorphism as a permutation of canonical element indices."""
    T = index_tables(G)
    return tuple(
        tuple(T.index[a.apply(e)] for e in T.elements) for a in automorphisms(G)
    )


def canonicalize(G: GroupSpec, S: Sequence) -> Sequence:
    """Lexicographically least automorphism image of S (constant on orbits)."""
    if S.group != G:
        raise GroupMismatch("sequence is not over the given group")
    T = index_tables(G)
    idx = [T.index[g] for g in S.expanded()]
    best = min(
        tuple(sorted(perm[i] for i in idx)) for perm in _aut_index_perms(G)
    )
    return Sequence.from_elements(G, (T.elements[i] for i in best))


def enumerate_with_report(
    G: GroupSpec, workers: int = 1, cap: int = ENUMERATION_CAP
) -> tuple[list[Sequence], EnumerationReport]:
    """One enumeration pass yielding both the full list and its orbit report."""
    t0 = time.perf_counter()
    run = _EnumerationRun(G, workers, cap)
    els = index_tables(G).elements
    perms = _aut_index_perms(G)
    seqs: list[Sequence] = []
    canon: set[tuple[int, ...]] = set()
    for idx in run:
        seqs.append(Sequence.from_elements(G, (els[i] for i in idx)))
        canon.add(min(tuple(sorted(p[i] for i in idx)) for p in perms))
    reps = tuple(
        Sequence.from_elements(G, (els[i] for i in key)) for key in sorted(canon)
    )
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    report = EnumerationReport(
        G, run.length, len(seqs), len(canon), reps, elapsed_ms, run.nodes
    )
    return seqs, report


def count_ml_mzss(
    G: GroupSpec, workers: int = 1, cap: int = ENUMERATION_CAP
) -> EnumerationReport:
    """Total and orbit counts for the ml-mzss of G, with deterministic
    orbit representatives (the canonical form of each orbit)."""
    return enumerate_with_report(G, workers=workers, cap=cap)[1]
