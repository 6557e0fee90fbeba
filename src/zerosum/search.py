"""Exact Davenport constants and exhaustive enumeration of ml-mzss.

Both computations run the same pruned depth-first search over nondecreasing
zero-sum-free sequences, maintaining the set of subsequence sums
incrementally as a bitmask over element indices.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from . import groups
from .errors import BadParams, CapExceeded, GroupMismatch, WorkerFailed
# `automorphisms` is not called here; perfbench/tracer.py wraps it by name
from .groups import GroupSpec, automorphisms, index_tables, make_group
from .sequences import Sequence

ENUMERATION_CAP = 36
DAVENPORT_CAP = 64

Runs = tuple[tuple[int, int], ...]  # ascending (index, multiplicity) runs


def ProcessPoolExecutor(max_workers: int):
    """`concurrent.futures.ProcessPoolExecutor`, imported on first use: the
    import loads `multiprocessing`, which a one-worker run never needs."""
    from concurrent.futures import ProcessPoolExecutor as Pool

    return Pool(max_workers=max_workers)


class DavenportResult(NamedTuple):
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


class EnumerationReport(NamedTuple):
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
    T: groups.Tables,
    root: int,
    visit: Callable[[list[int], int, list[int] | None], int | None],
    states: list[int] | None,
) -> int:
    """Depth-first search over the nondecreasing zero-sum-free index sequences
    that start with `root`, in lexicographic order; returns the node count.

    At each node `visit(cur, sig, states)` sees the sequence, the index of
    its sum and its canonicity states, and returns a bound b, or None to cut
    the subtree off: the caller has no use for sequences of b terms or fewer
    below the node, and b never falls as the search goes on. R is the
    bitmask of nonempty subsequence sums: appending g_i keeps the sequence
    zero-sum free exactly when -g_i is not in R, and grows R to
    R' = R | (R + g_i) | {g_i} (the rotations of `Tables.shift`, inlined).
    Each appended term adds at least one new nonzero sum, so no sequence
    below a node is longer than its reach, len + (n - 1) - |R|, and a node
    whose reach is at most b is a leaf. The parent knows each child's R', so
    it skips every child whose reach is at most the parent's b, and still
    counts it as a node. Visiting it would have changed nothing: its own
    bound is no lower, so it would have been a leaf, and it has at most b
    terms, so the caller had no use for it. Since |R'| <= n - 1, a child is
    never skipped for a bound below its length.

    `states` are those of `_root_states` for a least root, or None for the
    plain search, which reads no automorphism. With them, each node carries
    its `_step` states down and only sequences least in their orbit are kept:
    a child x that an automorphism fixing cur maps below x (`_step`'s first
    test) is cut before its R' is built, and a child that is not skipped is
    cut if `_step` rejects it. Each cut child counts as a node.
    """
    n = len(T.elements)
    top = n - 1
    add, neg, rotations = T.add, T.neg, T._rotations
    below = [0] * n if states is None else [T.lt[i][i] for i in range(n)]
    cur = [root]
    nodes = 0

    def rec(R: int, sig: int, states: list[int] | None) -> None:
        nonlocal nodes
        nodes += 1
        bound = visit(cur, sig, states)
        if bound is None or len(cur) + top - R.bit_count() <= bound:
            return
        # a child with |R'| >= limit reaches at most `bound` terms: skip it
        limit = len(cur) + 1 + top - bound
        fixed = 0 if states is None else states[0]
        for i in range(cur[-1], n):
            if R >> neg[i] & 1:
                continue
            if fixed & below[i]:
                nodes += 1
                continue
            child = R
            for keep, up, down in rotations[i]:
                child = (child & keep) << up | (child & ~keep) >> down
            child |= R | 1 << i
            if child.bit_count() >= limit:
                nodes += 1
                continue
            cur.append(i)
            if states is None:
                rec(child, add[sig][i], None)
            elif (step := _step(T, states, cur)) is not None:
                rec(child, add[sig][i], step)
            else:
                nodes += 1
            cur.pop()

    rec(1 << root, root, states)
    return nodes


def davenport(G: GroupSpec, cap: int = DAVENPORT_CAP) -> DavenportResult:
    """Exact D(G) = 1 + (longest zero-sum-free length), by exhaustive DFS.

    The witness is the lexicographically least longest zero-sum-free sequence
    W, completed by the negated sum of its terms (which is always a minimal
    zero-sum sequence of length D).

    The search starts only from the orbit minima of Aut(G), and `_search`
    cuts every sequence that is not least in its orbit by the canonicity
    states of `_step` that each node carries, as in the orderly enumeration.
    Every prefix of a sequence least in its orbit is least too (see
    `_EnumerationRun`), so no least sequence is cut. W is least in its orbit,
    since its images are longest too, so W and its prefixes pass the test,
    and W starts with an orbit minimum. The search runs in lexicographic
    order, so every sequence before W is shorter, and the length bound never
    cuts a prefix of W, whose reach (see `_search`) is at least len W: W is
    the witness of the plain search from every nonzero element. Aut(G) is
    built only for rank <= 2 and |G| <= the automorphism cap; otherwise
    `_search` gets no states and runs the plain search.
    """
    if G.order > cap:
        raise CapExceeded(f"|G| = {G.order} exceeds davenport cap {cap}")
    t0 = time.perf_counter()
    T = index_tables(G)
    n = G.order
    best: list[int] = []
    best_sig = 0

    def longest(cur: list[int], sig: int, states: list[int] | None) -> int:
        nonlocal best, best_sig
        if len(cur) > len(best):
            best, best_sig = list(cur), sig
        return len(best)

    orderly = G.rank <= 2 and n <= groups.AUTOMORPHISM_CAP
    nodes = 1  # the empty sequence, parent of every root
    for root in range(1, n):
        states = _root_states(T, root) if orderly else None
        if states is not None or not orderly:
            nodes += _search(T, root, longest, states)
    witness = Sequence.from_elements(
        G, [T.elements[i] for i in best] + [T.elements[T.neg[best_sig]]]
    )
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return DavenportResult(G, len(best) + 1, witness, elapsed_ms, nodes)


def _enumerate_root(
    factors: tuple[int, ...], L: int, root: int
) -> tuple[list[tuple[Runs, int]], int]:
    """The ml-mzss whose smallest entry is `root` and that are least in
    their Aut(G)-orbits, as ascending (index, multiplicity) runs, each with
    the size of its orbit, and the node count (worker task). `_search` cuts
    every node whose sequence is not least in its orbit (see
    `_EnumerationRun`), and `visit` tests the completion with the states of
    the node it completes."""
    G = make_group(factors)
    T = index_tables(G)
    out: list[tuple[Runs, int]] = []

    def visit(cur: list[int], sig: int, states: list[int]) -> int | None:
        if len(cur) < L:
            return L - 1
        S = cur + [T.neg[sig]]
        if S[-1] >= S[-2] and (states := _step(T, states, S)) is not None:
            runs = tuple((i, len(list(r))) for i, r in groupby(S))
            out.append((runs, len(T.perms) // states[0].bit_count()))
        return None

    nodes = _search(T, root, visit, _root_states(T, root))
    return out, nodes


class _EnumerationRun:
    """The orderly search: streams the least member of each Aut(G)-orbit of
    ml-mzss, as ascending (index, multiplicity) runs, with the size of its
    orbit, in lexicographic order; tracks the node count. Every reader looks
    the class up on the module, so that a subclass put there sees each run.

    The search completes the zero-sum-free sequences of length D - 1 as
    described at `enumerate_ml_mzss`, and cuts every node whose sequence is
    not least in its orbit (its least sorted index tuple, as in `orbit`), by
    the `_step` states that `_search` carries from each node to its children.
    The cut is complete: if S is least, so is S minus its largest term.
    For suppose an automorphism maps S' = S minus its largest term to a
    sorted tuple below S'. Inserting the image of the removed term into
    that tuple raises none of its positions, so the image of S lies below
    S at or before the first position where the image of S' lies below S'.
    Hence every prefix of a least ml-mzss passes the test, and the search
    emits exactly the least members. Each orbit has |Aut(G)| / |Stab(S)|
    members.

    The search starts only from the orbit minima of the nonzero elements,
    and the DFS forest is partitioned by them: with several workers the root
    subtrees run in separate processes and are merged back in root order, so
    the output is identical for every worker count. The pool has at most one
    process per root and per CPU; a worker that dies raises `WorkerFailed`.
    Only rank and the enumeration cap bound the group; the orbit tables are
    built up to the arithmetic cap.
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

    def __iter__(self) -> Iterator[tuple[Runs, int]]:
        G = self.group
        L = self.length - 1
        self.nodes = 1  # the empty root prefix
        if L == 0:
            # only the trivial group: the single ml-mzss is the zero element
            yield ((0, 1),), 1
            return
        # r is least in its orbit exactly when no automorphism maps it lower;
        # `lt` is built here, before the pool forks, so that workers inherit it
        lt = index_tables(G).lt
        roots = [r for r in range(1, G.order) if not lt[r][r]]
        # a fork-based pool starts all its processes at the first submit
        workers = min(self.workers, len(roots), os.cpu_count() or 1)
        task = partial(_enumerate_root, G.invariant_factors, L)
        if workers > 1:
            # imported only here: `concurrent.futures` loads `logging`
            from concurrent.futures import BrokenExecutor as broken
            pool = ProcessPoolExecutor(max_workers=workers)
        else:
            broken, pool = (), None  # `except ()` catches nothing
        try:
            with pool or nullcontext():
                for seqs, nodes in (pool.map if pool else map)(task, roots):
                    self.nodes += nodes
                    yield from seqs
        except broken as exc:
            raise WorkerFailed(f"a search worker died: {exc}") from exc


def _sequence(G: GroupSpec, runs: Iterable[tuple[int, int]]) -> Sequence:
    """The `Sequence` of ascending (index, multiplicity) runs; its elements
    come from the tables, so they are not validated again."""
    els = index_tables(G).elements
    return Sequence(G, tuple((els[i], k) for i, k in runs))


def _members(
    G: GroupSpec, reps: Iterable[Sequence]
) -> Iterator[list[tuple[int, int]]]:
    """Every member of the Aut(G)-orbits of `reps`, which must be distinct
    orbits, as ascending (index, multiplicity) runs, in the lexicographic
    order of their sorted index tuples.

    An automorphism p takes a sequence with runs (s_j, k_j) to the member
    with runs sorted(zip(p[s_j], k_j)). Each member waits as one tuple: its
    sorted index tuple in bytes (the same order in a third of the memory,
    as |G| <= 256 by the arithmetic cap), one automorphism that makes it and
    its orbit's shared data. They are kept in one list sorted in reverse and
    popped, so that the memory of the members already yielded serves what
    the caller builds from them. The images are read by one `itemgetter` per
    row of `T.perms`, in C; its two extra indices keep a tuple when the
    sequence has one term or none.
    """
    T = index_tables(G)
    members = []
    for S in reps:
        get = itemgetter(*[T.index[g] for g in S.expanded()], 0, 0)
        support = itemgetter(*[T.index[g] for g, _ in S.terms], 0, 0)
        orbit = support, [k for _, k in S.terms]
        images = {bytes(sorted(get(p)[:-2])): p for p in T.perms}
        members += [(key, p, orbit) for key, p in images.items()]
    members.sort(key=itemgetter(0), reverse=True)
    while members:
        _, p, (support, k) = members.pop()
        yield sorted(zip(support(p), k))


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

    Only the least member of each Aut(G)-orbit is searched for (see
    `_EnumerationRun`), and the orbits are expanded and sorted together by
    `_members`, so the first sequence is yielded only after the search has
    ended.
    """
    for runs in _members(G, count_ml_mzss(G, workers, cap).representatives):
        yield _sequence(G, runs)


def _root_states(T: groups.Tables, r: int) -> list[int] | None:
    """`_step`'s states of the one-term sequence r; None unless r is least."""
    if T.lt[r][r]:
        return None
    return [T.eq[r][r]]


def _step(T: groups.Tables, states: list[int], S: list[int]) -> list[int] | None:
    """The canonicity states of the nondecreasing index list S, from those of
    S[:-1], which is least in its Aut(G)-orbit; None if S is not least.

    Each term maps into its own orbit, so S[0] is an orbit minimum and no
    term's orbit minimum lies below it, or some image of S starts lower.
    Then an image without S[0] is larger than S, so only the automorphisms
    mapping some term onto S[0] are tracked, the whole stabiliser among
    them. They are bitmasks over `T.perms`, one per position k of S:
    `states[0]` holds those whose sorted image I equals S, `states[k]` those
    whose I agrees with S below k >= 1 and has I[k] = v > S[k]. Appending x
    moves each automorphism by y = p(x) alone: from I = S, y < x cuts and
    y > x moves it to the last position. At k >= 1, y > S[k] leaves it (only
    v may change, and v is never read), y < S[k] cuts, and y = S[k] ties:
    I[k] is then S[k] and I[k + 1] = v, so it moves to k + 1 in bulk when
    S[k + 1] = S[k] < v, and is compared afresh otherwise. The positions
    are taken from the top, so that no automorphism moves twice. A new x
    brings in the automorphisms that map x onto S[0], whose images are S[0]
    then the sorted image of S[:-1]: the least image of a term of S[:-1]
    against S[1] settles all but ties.
    """
    x = S[-1]
    n = len(S) - 1
    eq, lt = T.eq[x], T.lt[x]
    out = states + [0]
    if out[0] & lt[x]:
        return None
    out[n] = out[0] & ~eq[x]
    out[0] &= eq[x]
    for k in range(n - 1, 0, -1):
        if not (group := out[k]):
            continue
        if group & lt[S[k]]:
            return None
        if tie := group & eq[S[k]]:
            out[k] ^= tie
            if S[k + 1] == S[k]:
                out[k + 1] |= tie
            elif not _compare(T, tie, S, k + 1, out):
                return None
    if x == S[-2]:
        return out
    if lt[S[0]]:
        return None
    if new := eq[S[0]]:
        below = tie = 0
        for s in set(S[:-1]):
            below |= T.lt[s][S[1]]
            tie |= T.eq[s][S[1]]
        if new & below:
            return None
        out[1] |= new & ~tie
        if (tie := new & tie) and not _compare(T, tie, S, 2, out):
            return None
    return out


def _compare(
    T: groups.Tables, group: int, S: list[int], start: int, states: list[int]
) -> bool:
    """Sorts the image of S under each automorphism of the bitmask `group`,
    which agrees with S below `start`, and adds the automorphism to `states`
    at the first position where its image exceeds S, or at 0 if it equals
    S; False if some image is smaller than S."""
    while group:
        j = group.bit_length() - 1
        group ^= 1 << j
        p = T.perms[j]
        image = sorted([p[i] for i in S])
        k = start
        while k < len(S) and image[k] == S[k]:
            k += 1
        if k == len(S):
            states[0] |= 1 << j
        elif image[k] < S[k]:
            return False
        else:
            states[k] |= 1 << j
    return True


def orbit(G: GroupSpec, S: Sequence) -> list[Sequence]:
    """The Aut(G)-orbit of S, in lexicographic order; past the automorphism
    cap it is refused."""
    if S.group != G:
        raise GroupMismatch("sequence is not over the given group")
    if G.order > groups.AUTOMORPHISM_CAP:
        raise CapExceeded(
            f"|G| = {G.order} exceeds automorphism cap {groups.AUTOMORPHISM_CAP}"
        )
    return [_sequence(G, runs) for runs in _members(G, [S])]


def enumerate_with_report(
    G: GroupSpec, workers: int = 1, cap: int = ENUMERATION_CAP
) -> tuple[list[Sequence], EnumerationReport]:
    """The sequences of `enumerate_ml_mzss` with the report of
    `count_ml_mzss`, from one orderly search; `elapsed_ms` includes the
    expansion of the orbits."""
    t0 = time.perf_counter()
    report = count_ml_mzss(G, workers, cap)
    seqs = [_sequence(G, runs) for runs in _members(G, report.representatives)]
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return seqs, report._replace(elapsed_ms=elapsed_ms)


def count_ml_mzss(
    G: GroupSpec, workers: int = 1, cap: int = ENUMERATION_CAP
) -> EnumerationReport:
    """Total and orbit counts for the ml-mzss of G, with deterministic
    orbit representatives (the least member of each orbit), by orderly
    generation; the total is the sum of the orbit sizes."""
    t0 = time.perf_counter()
    run = _EnumerationRun(G, workers, cap)
    total = 0
    reps: list[Sequence] = []
    for runs, size in run:
        total += size
        reps.append(_sequence(G, runs))
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return EnumerationReport(
        G, run.length, total, len(reps), tuple(reps), elapsed_ms, run.nodes
    )
