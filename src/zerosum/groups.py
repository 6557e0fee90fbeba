"""Exact arithmetic for finite abelian groups in invariant-factor form.

Elements are plain tuples of residues in invariant-factor coordinates, so
the natural tuple ordering doubles as the canonical element order used
everywhere for deterministic output. All public operations are pure
functions over immutable values.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence as Seq

from .errors import (
    BadFactor,
    BadParams,
    CapExceeded,
    ChainViolation,
    DimensionMismatch,
    ParseError,
    ZeroElement,
)

Element = tuple[int, ...]

# Exceeding a cap raises CapExceeded; the caps are arguments, not hard limits.
ARITHMETIC_CAP = 256
AUTOMORPHISM_CAP = 64


class GroupSpec(NamedTuple):
    """A finite abelian group C_{n_1} + ... + C_{n_r} with n_1 | ... | n_r."""

    invariant_factors: tuple[int, ...]

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def zero(self) -> Element:
        return (0,) * self.rank

    def elements(self) -> Iterator[Element]:
        """All elements in canonical (lexicographic) order."""
        return itertools.product(*[range(f) for f in self.invariant_factors])

    def __str__(self) -> str:
        return ",".join(str(f) for f in self.invariant_factors)


def make_group(invariant_factors: Iterable[int]) -> GroupSpec:
    """Validated group from its invariant factors; empty list is the trivial group."""
    factors = tuple(int(f) for f in invariant_factors)
    for f in factors:
        if f < 2:
            raise BadFactor(f"invariant factor {f} < 2")
    for a, b in zip(factors, factors[1:]):
        if b % a != 0:
            raise ChainViolation(f"{a} does not divide {b}")
    return GroupSpec(factors)


def parse_group(text: str) -> GroupSpec:
    """Group from comma-separated invariant factors, e.g. '2,4'; '' is trivial."""
    text = text.strip()
    if not text:
        return make_group([])
    try:
        factors = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad group text {text!r}") from exc
    return make_group(factors)


def element(G: GroupSpec, residues: Iterable[int]) -> Element:
    """Canonical element with each residue reduced into [0, n_i)."""
    res = tuple(int(r) for r in residues)
    if len(res) != G.rank:
        raise DimensionMismatch(f"expected {G.rank} residues, got {len(res)}")
    return tuple(r % f for r, f in zip(res, G.invariant_factors))


@lru_cache(maxsize=4096)
def format_element(g: Element) -> str:
    """The text `[r1,...,rk]` of g, cached: g must be hashable (a tuple)."""
    return "[" + ",".join(map(str, g)) + "]"


def parse_element(G: GroupSpec, text: str) -> Element:
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"bad element text {text!r}")
    body = text[1:-1]
    if not body:
        parts: list[int] = []
    else:
        try:
            parts = [int(p) for p in body.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad element text {text!r}") from exc
    return element(G, parts)


def _check_dims(G: GroupSpec, *gs: Element) -> None:
    for g in gs:
        if len(g) != G.rank:
            raise DimensionMismatch(f"element {g} has rank {len(g)}, group has {G.rank}")


def add(G: GroupSpec, g: Element, h: Element) -> Element:
    _check_dims(G, g, h)
    return tuple((a + b) % f for a, b, f in zip(g, h, G.invariant_factors))


def neg(G: GroupSpec, g: Element) -> Element:
    _check_dims(G, g)
    return tuple((-a) % f for a, f in zip(g, G.invariant_factors))


def scale(G: GroupSpec, k: int, g: Element) -> Element:
    """k*g for any integer k (negative k gives the inverse power)."""
    _check_dims(G, g)
    return tuple((k * a) % f for a, f in zip(g, G.invariant_factors))


def order(G: GroupSpec, g: Element) -> int:
    """Least k >= 1 with k*g = 0: lcm over coordinates of n_i / gcd(n_i, g_i)."""
    _check_dims(G, g)
    o = 1
    for a, f in zip(g, G.invariant_factors):
        o = math.lcm(o, f // math.gcd(f, a))
    return o


def is_independent(G: GroupSpec, elems: Seq[Element]) -> bool:
    """Independence test by counting: |<g_1, ..., g_k>| = prod ord g_i.

    Independent means every relation sum(m_i * g_i) = 0 forces each summand
    m_i * g_i to be zero on its own. The map (m_i) |-> sum(m_i * g_i) from
    the direct sum of the Z_{ord g_i} has image <g_1, ..., g_k>, and its
    kernel is trivial exactly when the g_i are independent, so independence
    is the equality of the two orders.
    """
    zero = G.zero()
    for g in elems:
        _check_dims(G, g)
        if g == zero:
            raise ZeroElement("independence is defined for nonzero elements only")
    return len(subgroup_generated(G, elems)) == math.prod(order(G, g) for g in elems)


def subgroup_generated(G: GroupSpec, elems: Seq[Element]) -> frozenset[Element]:
    """Closure of the given elements under addition (always contains zero)."""
    for g in elems:
        _check_dims(G, g)
    seen = {G.zero()}
    frontier = [G.zero()]
    while frontier:
        nxt = []
        for h in frontier:
            for g in elems:
                s = add(G, h, g)
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return frozenset(seen)


def is_basis(G: GroupSpec, elems: Seq[Element]) -> bool:
    """Independent and spanning; given independence, the span has size prod ord g_i."""
    if not is_independent(G, elems):
        return False
    return math.prod(order(G, g) for g in elems) == G.order


class _HomomorphismFields(NamedTuple):
    source: GroupSpec
    target: GroupSpec
    images: tuple[Element, ...]


class Homomorphism(_HomomorphismFields):
    """Group homomorphism given by the images of the source's standard generators."""

    __slots__ = ()

    def __new__(cls, source: GroupSpec, target: GroupSpec, images: tuple[Element, ...]):
        if len(images) != source.rank:
            raise DimensionMismatch(
                f"need {source.rank} generator images, got {len(images)}"
            )
        for n_i, img in zip(source.invariant_factors, images):
            _check_dims(target, img)
            if scale(target, n_i, img) != target.zero():
                raise BadParams(f"not well-defined: {n_i} * {img} != 0 in target")
        return super().__new__(cls, source, target, images)

    def apply(self, g: Element) -> Element:
        _check_dims(self.source, g)
        out = self.target.zero()
        for r, img in zip(g, self.images):
            out = add(self.target, out, scale(self.target, r, img))
        return out


def automorphisms(G: GroupSpec, cap: int = AUTOMORPHISM_CAP) -> list[Homomorphism]:
    """All automorphisms of G, sorted by their generator-image tuples: the
    rows of `Tables.perms` read at the standard generators. The cap is
    checked on every call; the permutations are built once per group.
    """
    if G.order > cap:
        raise CapExceeded(f"|G| = {G.order} exceeds automorphism cap {cap}")
    T = index_tables(G)
    # the standard generator e_j has index n_{j+1} * ... * n_r
    gens = [math.prod(G.invariant_factors[j + 1 :]) for j in range(G.rank)]
    return [Homomorphism(G, G, tuple(T.elements[p[g]] for g in gens)) for p in T.perms]


class Tables:
    """Per-group lookup tables over element indices in canonical order.

    Index 0 is always the zero element. A set of elements is a bitmask over
    indices. Built once per group by `index_tables`; treat as read-only.
    Its cached properties, from `multiples` on, are built on first use.
    """

    def __init__(self, group, elements, index, add, neg, rotations) -> None:
        self.group: GroupSpec = group
        self.elements: tuple[Element, ...] = elements
        self.index: dict[Element, int] = index
        self.add: list[list[int]] = add  # add[i][j]: index of elements[i] + elements[j]
        self.neg: list[int] = neg  # neg[i] = index of -elements[i]
        # per element, one (keep, up, down) rotation per nonzero coordinate
        self._rotations: tuple[tuple[tuple[int, int, int], ...], ...] = rotations

    def shift(self, R: int, i: int) -> int:
        """The translate {r + g : r in R} of the bitmask R by g = elements[i].

        Canonical order is mixed-radix, so adding a residue v in coordinate j
        rotates each block of n_j * stride_j indices by v * stride_j: the
        bits whose coordinate j stays below n_j (the `keep` mask) move up by
        v * stride_j, the others wrap down by (n_j - v) * stride_j.
        Translating by g is one such rotation per nonzero coordinate of g.
        """
        for keep, up, down in self._rotations[i]:
            R = (R & keep) << up | (R & ~keep) >> down
        return R

    @cached_property
    def _block_rotations(self) -> dict[int, list[list[tuple[int, int, int, int]]]]:
        """Per pick length k, per element: its `_rotations` across k blocks
        of |G| bits, as (keep, wrap, up, down), with `wrap` the complement
        of `keep` within the k blocks, so that bits past them are dropped.
        The zero element, with no rotation, gets the identity (low, 0, 0,
        0), low being the k blocks' bits."""
        return {}

    @cached_property
    def multiples(self) -> list[list[int]]:
        """Per index g: the indices of 0, g, 2g, ..., (ord g - 1)g."""
        out = []
        for g, row in enumerate(self.add):
            out.append([0])
            while (nxt := row[out[g][-1]]) != 0:
                out[g].append(nxt)
        return out

    @cached_property
    def perms(self) -> tuple[tuple[int, ...], ...]:
        """Aut(G) as permutations of element indices, sorted by the images
        g_j of the standard generators. An automorphism keeps orders, so g_j
        runs over the elements of order n_j; then (r_1, ..., r_k) -> sum
        r_j * g_j is well defined, and an automorphism when it is one-one.
        Canonical order is mixed-radix, so a row grows one coordinate at a
        time, each entry so far plus every multiple of the next g_j, and is
        dropped as soon as it repeats an index.
        """
        add = self.add
        rows = [[0]]
        for f in self.group.invariant_factors:
            grown = []
            for prefix in rows:
                for ms in self.multiples:
                    if len(ms) == f:
                        row = [add[v][w] for v in prefix for w in ms]
                        if len(set(row)) == len(row):
                            grown.append(row)
            rows = grown
        return tuple(map(tuple, rows))

    @cached_property
    def eq(self) -> list[list[int]]:
        """`eq[x][y]` is the set of automorphisms that map x to y, as a
        bitmask whose bit j stands for `perms[j]`."""
        n = len(self.elements)
        out = [[0] * n for _ in range(n)]
        for j, p in enumerate(self.perms):
            bit = 1 << j
            for row, y in zip(out, p):
                row[y] |= bit
        return out

    @cached_property
    def lt(self) -> list[list[int]]:
        """`lt[x][v]`, for 0 <= v <= |G|, is the set of automorphisms that
        map x below v: the union of `eq[x][y]` over y < v."""
        return [list(itertools.accumulate(row, int.__or__, initial=0)) for row in self.eq]

    @cached_property
    def pairs(self) -> tuple[tuple[list[int], list[int], tuple], ...]:
        """Per element index a: the indices of -x*a for x in [0, ord a), their
        positions x over all indices (-1 off <a>), and each (b, ord b, whether
        (a, b) is a basis) with <a, b> = G, b ascending.

        |<a> + <b>| = ord a * ord b / |<a> & <b>|, so with cyc[a] the bitmask
        of <a>, <a, b> = G exactly when ord a * ord b = |G| * popcount(cyc[a]
        & cyc[b]); such a pair is a basis exactly when the intersection is
        {0}. The generators of one cyclic subgroup share one partner tuple.
        """
        n = len(self.elements)
        minus = [self.multiples[i] for i in self.neg]
        cyc = [sum(1 << i for i in ms) for ms in minus]
        shared: dict[int, tuple] = {}
        table = []
        for a, ms in enumerate(minus):
            pos = [-1] * n
            for x, i in enumerate(ms):
                pos[i] = x
            if cyc[a] not in shared:
                partners = []
                for b, mb in enumerate(minus):
                    common = (cyc[a] & cyc[b]).bit_count()
                    if len(ms) * len(mb) == n * common:
                        partners.append((b, len(mb), common == 1))
                shared[cyc[a]] = tuple(partners)
            table.append((ms, pos, shared[cyc[a]]))
        return tuple(table)


@lru_cache(maxsize=None)
def index_tables(G: GroupSpec) -> Tables:
    """The `Tables` of G: elements, index, addition, negation and translates.

    Canonical order is mixed-radix, so the row of a is composed coordinate
    by coordinate: residue u of coordinate j goes to offset `wrapped_j[u +
    a_j]`, with `wrapped_j[x] = (x mod n_j) * stride_j`.
    Cached per group; treat as read-only.
    """
    if G.order > ARITHMETIC_CAP:
        raise CapExceeded(f"|G| = {G.order} exceeds arithmetic cap {ARITHMETIC_CAP}")
    els = tuple(G.elements())
    index = {e: i for i, e in enumerate(els)}
    factors = G.invariant_factors
    strides = [math.prod(factors[j + 1 :]) for j in range(G.rank)]
    wrapped = [[x % f * s for x in range(2 * f)] for f, s in zip(factors, strides)]
    addtab = []
    for a in els:
        row = [0]
        for a_j, f, w in zip(a, factors, wrapped):
            row = [v + u for v in row for u in w[a_j : a_j + f]]
        addtab.append(row)
    negtab = [row.index(0) for row in addtab]
    keep = {
        (j, v): sum(1 << i for i, e in enumerate(els) if e[j] < f - v)
        for j, f in enumerate(factors)
        for v in range(1, f)
    }
    rotations = tuple(
        tuple(
            (keep[j, v], v * stride, (f - v) * stride)
            for j, (v, f, stride) in enumerate(zip(e, factors, strides))
            if v
        )
        for e in els
    )
    return Tables(G, els, index, addtab, negtab, rotations)
