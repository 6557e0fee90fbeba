"""Exact arithmetic for finite abelian groups in invariant-factor form.

Elements are plain tuples of residues in invariant-factor coordinates, so
the natural tuple ordering doubles as the canonical element order used
everywhere for deterministic output. All public operations are pure
functions over immutable values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence as Seq

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


@dataclass(frozen=True)
class GroupSpec:
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


def format_element(g: Element) -> str:
    return "[" + ",".join(str(r) for r in g) + "]"


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


@dataclass(frozen=True)
class Homomorphism:
    """Group homomorphism given by the images of the source's standard generators."""

    source: GroupSpec
    target: GroupSpec
    images: tuple[Element, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.source.rank:
            raise DimensionMismatch(
                f"need {self.source.rank} generator images, got {len(self.images)}"
            )
        for n_i, img in zip(self.source.invariant_factors, self.images):
            _check_dims(self.target, img)
            if scale(self.target, n_i, img) != self.target.zero():
                raise BadParams(f"not well-defined: {n_i} * {img} != 0 in target")

    def apply(self, g: Element) -> Element:
        _check_dims(self.source, g)
        out = self.target.zero()
        for r, img in zip(g, self.images):
            out = add(self.target, out, scale(self.target, r, img))
        return out

    def __call__(self, g: Element) -> Element:
        return self.apply(g)


def inductive_quotient(m: int, n: int) -> Homomorphism:
    """Reduction C_m + C_{mn} -> C_m + C_m, (a, b) |-> (a mod m, b mod m).

    The kernel is the subgroup of multiples of m, which is cyclic of order n.
    """
    if m < 2:
        raise BadParams(f"m must be >= 2, got {m}")
    if n < 1:
        raise BadParams(f"n must be >= 1, got {n}")
    source = make_group([m, m * n])
    target = make_group([m, m])
    return Homomorphism(source, target, ((1, 0), (0, 1)))


def automorphisms(G: GroupSpec, cap: int = AUTOMORPHISM_CAP) -> list[Homomorphism]:
    """All automorphisms of G, sorted by their generator-image tuples.

    Brute force over image tuples whose orders divide the corresponding
    invariant factor; a well-defined endomorphism of a finite group is an
    automorphism exactly when its images generate the group. The cap is
    checked on every call; the list is built once per group.
    """
    if G.order > cap:
        raise CapExceeded(f"|G| = {G.order} exceeds automorphism cap {cap}")
    return list(_automorphisms(G))


@lru_cache(maxsize=None)
def _automorphisms(G: GroupSpec) -> tuple[Homomorphism, ...]:
    candidates = []
    for n_i in G.invariant_factors:
        candidates.append(
            [h for h in G.elements() if scale(G, n_i, h) == G.zero()]
        )
    auts = []
    for images in itertools.product(*candidates):
        if len(subgroup_generated(G, images)) == G.order:
            auts.append(Homomorphism(G, G, images))
    auts.sort(key=lambda a: a.images)
    return tuple(auts)


@dataclass(frozen=True)
class Tables:
    """Per-group lookup tables over element indices in canonical order.

    Index 0 is always the zero element. A set of elements is a bitmask over
    indices. Built once per group by `index_tables`; treat as read-only.
    """

    elements: tuple[Element, ...]
    index: dict[Element, int]
    add: list[list[int]]  # add[i][j] = index of elements[i] + elements[j]
    neg: list[int]  # neg[i] = index of -elements[i]
    # per element, one (keep, up, down) rotation per nonzero coordinate
    _rotations: tuple[tuple[tuple[int, int, int], ...], ...] = field(repr=False)

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


@lru_cache(maxsize=None)
def index_tables(G: GroupSpec) -> Tables:
    """The `Tables` of G: elements, index, addition, negation and translates.

    Cached per group; treat as read-only.
    """
    if G.order > ARITHMETIC_CAP:
        raise CapExceeded(f"|G| = {G.order} exceeds arithmetic cap {ARITHMETIC_CAP}")
    els = tuple(G.elements())
    index = {e: i for i, e in enumerate(els)}
    addtab = [[index[add(G, a, b)] for b in els] for a in els]
    negtab = [index[neg(G, a)] for a in els]
    factors = G.invariant_factors
    strides = [math.prod(factors[j + 1 :]) for j in range(G.rank)]
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
    return Tables(els, index, addtab, negtab, rotations)
