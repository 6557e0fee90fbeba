"""Sequences (finite multisets) over a group: sums, predicates, extraction.

The canonical encoding of a sequence is the sorted tuple of
(element, multiplicity) pairs under the lexicographic element order. Every
determinism guarantee in this package (witness choices, enumeration order,
golden output) derives from that single order.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional

from . import groups
from .errors import BadParams, NotZeroSum, ParseError
from .groups import Element, GroupSpec, index_tables

_TERM_RE = re.compile(r"^(\[[^\[\]]*\])(?:\^(\d+))?$")


class Sequence(NamedTuple):
    """Multiset over a group, kept in canonical sorted-unique form.

    `__len__` is the length of the multiset, so `_make` and `_replace`,
    which check the number of fields with `len`, do not work on it.
    """

    group: GroupSpec
    terms: tuple[tuple[Element, int], ...]

    @classmethod
    def from_elements(cls, G: GroupSpec, elems: Iterable[Element]) -> "Sequence":
        counts: dict[Element, int] = {}
        for g in elems:
            e = groups.element(G, g)
            counts[e] = counts.get(e, 0) + 1
        return cls(G, tuple(sorted(counts.items())))

    @classmethod
    def from_terms(
        cls, G: GroupSpec, pairs: Iterable[tuple[Element, int]]
    ) -> "Sequence":
        counts: dict[Element, int] = {}
        for g, mult in pairs:
            if mult < 1:
                raise BadParams(f"multiplicity {mult} < 1")
            e = groups.element(G, g)
            counts[e] = counts.get(e, 0) + mult
        return cls(G, tuple(sorted(counts.items())))

    @property
    def length(self) -> int:
        return sum(m for _, m in self.terms)

    def __len__(self) -> int:
        return self.length

    def support(self) -> tuple[Element, ...]:
        return tuple(g for g, _ in self.terms)

    def multiplicity(self, g: Element) -> int:
        for h, m in self.terms:
            if h == g:
                return m
        return 0

    def expanded(self) -> tuple[Element, ...]:
        """All copies in nondecreasing canonical order."""
        out: list[Element] = []
        for g, m in self.terms:
            out.extend([g] * m)
        return tuple(out)

    def __str__(self) -> str:
        return format_sequence(self)


def parse_sequence(G: GroupSpec, text: str) -> Sequence:
    """Parse `[r1,...]^k` terms separated by whitespace; '' is the empty sequence.

    Residues are reduced into canonical range, so parse-then-format yields the
    canonical form of the input.
    """
    pairs: list[tuple[Element, int]] = []
    for token in text.split():
        m = _TERM_RE.match(token)
        if m is None:
            raise ParseError(f"bad sequence term {token!r}")
        elem_text, mult_text = m.group(1), m.group(2)
        mult = int(mult_text) if mult_text is not None else 1
        if mult < 1:
            raise ParseError(f"multiplicity must be >= 1 in {token!r}")
        pairs.append((groups.parse_element(G, elem_text), mult))
    return Sequence.from_terms(G, pairs)


def format_sequence(S: Sequence) -> str:
    text = groups.format_element
    return " ".join([text(g) if m == 1 else f"{text(g)}^{m}" for g, m in S.terms])


def sigma(S: Sequence) -> Element:
    """Sum of all copies; the empty sequence sums to zero."""
    total = S.group.zero()
    for g, m in S.terms:
        total = groups.add(S.group, total, groups.scale(S.group, m, g))
    return total


def _reachable_mask(S: Sequence, stop_at_zero: bool) -> int:
    """Bitmask (over element indices) of nonempty-subsequence sums.

    Dynamic programming one copy at a time: appending g maps the reachable set
    R to R | (R + g) | {g}. Bit 0 is the zero element.
    """
    T = index_tables(S.group)
    R = 0
    for g, mult in S.terms:
        i = T.index[g]
        for _ in range(mult):
            R |= T.shift(R, i) | 1 << i
            if stop_at_zero and R & 1:
                return R
    return R


def reachable_subsums(S: Sequence) -> frozenset[Element]:
    """Exact set of sums of nonempty subsequences of S."""
    els = index_tables(S.group).elements
    mask = _reachable_mask(S, stop_at_zero=False)
    out = set()
    while mask:
        low = mask & -mask
        out.add(els[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def is_zero_sum_free(S: Sequence) -> bool:
    """True iff no nonempty subsequence sums to zero (true for the empty sequence)."""
    return not _reachable_mask(S, stop_at_zero=True) & 1


def is_mzss(S: Sequence) -> bool:
    """Minimal zero-sum test: nonempty, sums to zero, no proper zero-sum part.

    Fast path: check zero-sum-freeness of S with one copy of its least element
    removed. Any proper nonempty zero-sum subsequence either avoids that copy
    (so it survives the removal) or contains it (then its complement in S is a
    nonempty zero-sum subsequence that survives the removal), so the reduced
    check is equivalent to the definitional one.
    """
    if not S.terms:
        return False
    if sigma(S) != S.group.zero():
        return False
    (g, m), *rest = S.terms
    if m > 1:
        rest.insert(0, (g, m - 1))
    return is_zero_sum_free(Sequence(S.group, tuple(rest)))


def zss_max_factors(S: Sequence) -> int:
    """Largest k such that S splits into k nonempty zero-sum subsequences."""
    if S.terms and sigma(S) != S.group.zero():
        raise NotZeroSum("sequence does not sum to zero")
    T = index_tables(S.group)
    counts = tuple(S.multiplicity(g) for g in T.elements)
    return _max_factors(T, counts, {})


def _max_factors(
    T: groups.Tables, counts: tuple[int, ...], memo: dict[tuple[int, ...], int]
) -> int:
    """Largest number of nonempty zero-sum parts of a zero-sum multiset.

    `counts[i]` is the multiplicity of element i of T. A factorization into k
    zero-sum parts is a chain of zero-sum sub-multisets X_1 < ... < X_k = X,
    so the answer is h(X) - 1, where h(Y) = [sigma(Y) = 0] + max over the
    copies of Y of h(Y minus that copy), and h(empty) = 1. A stack of frames,
    one per copy removed, carries the running sum, so the depth L = |X| is
    not bounded by Python's recursion limit; `memo` keeps h >= 1 of every
    sub-multiset visited, zero-sum or not: up to C(|G| + L, L).
    """
    if got := memo.get(counts):
        return got - 1
    add, neg = T.add, T.neg
    cur = list(counts)
    support = [i for i, c in enumerate(counts) if c]
    stack = []  # suspended frames, each with the copy its child removed
    key, sig, todo, best = counts, 0, iter(support), 0
    while True:
        for i in todo:
            if cur[i]:
                cur[i] -= 1
                below = tuple(cur)
                if not (got := memo.get(below)):
                    break  # a new sub-multiset: its frame goes on top
                cur[i] += 1
                if got > best:
                    best = got
        else:
            got = best + (not sig)
            memo[key] = got
            if not stack:
                return got - 1
            key, sig, todo, best, i = stack.pop()
            cur[i] += 1
            if got > best:
                best = got
            continue
        stack.append((key, sig, todo, best, i))
        key, sig, todo, best = below, add[sig][neg[i]], iter(support), 0


def _lex_least_fixed_sum(
    weights: list[int], T: groups.Tables, length: int, target: int
) -> Optional[list[int]]:
    """Positions of the earliest length-`length` pick with weight sum `target`.

    `weights[i]` is the element index contributed by copy i; copies must be in
    canonical order, so preferring earlier copies yields the lexicographically
    least witness as a multiset. Feasibility rows, one int per copy: bit
    c*N + s of the row of copies i..end (N = |G|) says that some c of them
    sum to element s. Adding copy i translates the count blocks below
    `length` by its weight and moves them up one block; the masked rotations
    of `Tables._block_rotations` (the identity for the zero element) make
    the translate and drop block `length`.

    The walk takes each copy whose removal leaves a feasible rest. A copy
    equal to the last refused one is refused untested: the state is
    unchanged since, and a later row is a subset of an earlier one.
    """
    L = len(weights)
    if length > L:
        return None
    N = len(T.elements)
    rotations = T._block_rotations.get(length)
    if rotations is None:
        low = (1 << length * N) - 1
        rep = low // ((1 << N) - 1)  # bit c*N for every count c < length
        rotations = T._block_rotations[length] = [
            [(keep * rep, low ^ keep * rep, up, down) for keep, up, down in rot]
            or [(low, 0, 0, 0)]
            for rot in T._rotations
        ]
    M = 1
    feas = [M]  # feas[L - i]: the row of copies i..end
    for w in reversed(weights):
        R = M
        for keep, wrap, up, down in rotations[w]:
            R = (R & keep) << up | (R & wrap) >> down
        M |= R << N
        feas.append(M)
    if not M >> (length * N + target) & 1:
        return None
    add, neg = T.add, T.neg
    out: list[int] = []
    need = target
    base = (length - 1) * N  # offset of the count block after the next pick
    refused = -1
    for i, w in enumerate(weights):
        if base < 0:
            break
        if w == refused:
            continue
        after = add[need][neg[w]]  # need - w
        if feas[L - 1 - i] >> (base + after) & 1:
            out.append(i)
            need = after
            base -= N
            refused = -1
        else:
            refused = w
    return out


def extract_zero_sum_of_length(S: Sequence, length: int) -> Optional[Sequence]:
    """Lexicographically least T | S with |T| = length and sum zero, if any."""
    if length < 1:
        raise BadParams(f"length must be >= 1, got {length}")
    T = index_tables(S.group)
    copies = S.expanded()
    weights = [T.index[g] for g in copies]
    positions = _lex_least_fixed_sum(weights, T, length, 0)
    if positions is None:
        return None
    return Sequence.from_elements(S.group, (copies[i] for i in positions))
