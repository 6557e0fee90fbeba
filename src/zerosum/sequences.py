"""Sequences (finite multisets) over a group: sums, predicates, extraction.

The canonical encoding of a sequence is the sorted tuple of
(element, multiplicity) pairs under the lexicographic element order. Every
determinism guarantee in this package (witness choices, enumeration order,
golden output) derives from that single order.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Optional

from . import groups
from .errors import BadParams, CapExceeded, GroupMismatch, NotZeroSum, ParseError
from .groups import Element, GroupSpec, Homomorphism, index_tables

_TERM_RE = re.compile(r"^(\[[^\[\]]*\])(?:\^(\d+))?$")


@dataclass(frozen=True)
class Sequence:
    """Multiset over a group, kept in canonical sorted-unique form."""

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

    @classmethod
    def empty(cls, G: GroupSpec) -> "Sequence":
        return cls(G, ())

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

    def remove_one(self, g: Element) -> "Sequence":
        """Copy of this sequence with one copy of g removed."""
        out = []
        found = False
        for h, m in self.terms:
            if h == g and not found:
                found = True
                if m > 1:
                    out.append((h, m - 1))
            else:
                out.append((h, m))
        if not found:
            raise BadParams(f"{g} does not occur in the sequence")
        return Sequence(self.group, tuple(out))

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
    parts = []
    for g, m in S.terms:
        text = groups.format_element(g)
        parts.append(text if m == 1 else f"{text}^{m}")
    return " ".join(parts)


def sigma(S: Sequence) -> Element:
    """Sum of all copies; the empty sequence sums to zero."""
    total = S.group.zero()
    for g, m in S.terms:
        total = groups.add(S.group, total, groups.scale(S.group, m, g))
    return total


def apply_hom(f: Homomorphism, S: Sequence) -> Sequence:
    """Image multiset under f; distinct terms may merge in the image."""
    if S.group != f.source:
        raise GroupMismatch("sequence is not over the homomorphism's source group")
    return Sequence.from_terms(f.target, ((f.apply(g), m) for g, m in S.terms))


def _check_cap(G: GroupSpec, cap: int) -> None:
    if G.order > cap:
        raise CapExceeded(f"|G| = {G.order} exceeds cap {cap}")


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


def reachable_subsums(
    S: Sequence, cap: int = groups.ARITHMETIC_CAP
) -> frozenset[Element]:
    """Exact set of sums of nonempty subsequences of S."""
    _check_cap(S.group, cap)
    els = index_tables(S.group).elements
    mask = _reachable_mask(S, stop_at_zero=False)
    out = set()
    while mask:
        low = mask & -mask
        out.add(els[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def is_zero_sum_free(S: Sequence, cap: int = groups.ARITHMETIC_CAP) -> bool:
    """True iff no nonempty subsequence sums to zero (true for the empty sequence)."""
    _check_cap(S.group, cap)
    return not _reachable_mask(S, stop_at_zero=True) & 1


def is_mzss(S: Sequence, cap: int = groups.ARITHMETIC_CAP) -> bool:
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
    _check_cap(S.group, cap)
    return is_zero_sum_free(S.remove_one(S.terms[0][0]), cap=cap)


def zss_max_factors(S: Sequence) -> int:
    """Largest k such that S splits into k nonempty zero-sum subsequences.

    Recursive extraction of the factor containing the least remaining element,
    memoized on the canonical multiset encoding. Only minimal factors need to
    be tried: a non-minimal zero-sum factor always splits further, so it never
    appears in a maximum factorization.
    """
    if S.terms and sigma(S) != S.group.zero():
        raise NotZeroSum("sequence does not sum to zero")
    return _max_factors(S.group, S.expanded(), {})


def _max_factors(
    G: GroupSpec, key: tuple[Element, ...], memo: dict[tuple[Element, ...], int]
) -> int:
    if not key:
        return 0
    hit = memo.get(key)
    if hit is not None:
        return hit
    first = key[0]
    rest = key[1:]
    rest_terms = sorted({g: rest.count(g) for g in set(rest)}.items())
    best = 0
    for combo in itertools.product(*[range(m + 1) for _, m in rest_terms]):
        factor = [first]
        for (g, _), c in zip(rest_terms, combo):
            factor.extend([g] * c)
        fac_seq = Sequence.from_elements(G, factor)
        if sigma(fac_seq) != G.zero() or not is_mzss(fac_seq):
            continue
        remainder = list(key)
        for g in factor:
            remainder.remove(g)
        sub = _max_factors(G, tuple(remainder), memo)
        if 1 + sub > best:
            best = 1 + sub
    memo[key] = best
    return best


def _lex_least_fixed_sum(
    weights: list[int], T: groups.Tables, length: int, target: int
) -> Optional[list[int]]:
    """Positions of the earliest length-`length` pick with weight sum `target`.

    `weights[i]` is the element index contributed by copy i; copies must be in
    canonical order, so preferring earlier copies yields the lexicographically
    least witness as a multiset. Feasibility table: feas[i][c] is the bitmask
    of sums achievable by choosing exactly c of the copies i..end.
    """
    L = len(weights)
    if length > L:
        return None
    feas = [[0] * (length + 1) for _ in range(L + 1)]
    feas[L][0] = 1
    for i in range(L - 1, -1, -1):
        w = weights[i]
        nxt = feas[i + 1]
        cur = feas[i]
        for c in range(min(length, L - i) + 1):
            mask = nxt[c]
            if c:
                mask |= T.shift(nxt[c - 1], w)
            cur[c] = mask
    if not feas[0][length] >> target & 1:
        return None
    out: list[int] = []
    need = target
    c = length
    i = 0
    while c:
        w = weights[i]
        after = T.add[need][T.neg[w]]  # need - w
        if feas[i + 1][c - 1] >> after & 1:
            out.append(i)
            need = after
            c -= 1
        i += 1
    return out


def extract_zero_sum_of_length(
    S: Sequence, length: int, cap: int = groups.ARITHMETIC_CAP
) -> Optional[Sequence]:
    """Lexicographically least T | S with |T| = length and sum zero, if any."""
    if length < 1:
        raise BadParams(f"length must be >= 1, got {length}")
    _check_cap(S.group, cap)
    T = index_tables(S.group)
    copies = S.expanded()
    weights = [T.index[g] for g in copies]
    positions = _lex_least_fixed_sum(weights, T, length, 0)
    if positions is None:
        return None
    return Sequence.from_elements(S.group, (copies[i] for i in positions))
