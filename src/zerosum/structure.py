"""Structural families of extremal zero-sum sequences and their verifiers.

A rank-two group C_m + C_{mn} has two parametric families that generate
minimal zero-sum sequences of maximal length:

  type 1:  e_j^(ord e_j - 1) * prod_i (-x_i e_j + e_k)   over a basis {e1, e2}
           with ord e2 = mn, {j, k} = {1, 2}, and sum x_i = -1 mod ord e_j;

  type 2:  g1^(sm - 1) * prod_i (-x_i g1 + g2)           over a generating
           pair {g1, g2} with ord g2 = mn, s in [1, n], m*g1 = m*g2 when
           s != 1, and sum x_i = m - 1 exactly.

The classifier and the shape matchers find every witness by exhaustive
search over one table of generating element pairs. Completeness of the two
families (no unclassified ml-mzss) is itself a verification target, checked
exhaustively at desk scale.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Optional

from . import groups
from .errors import (
    BadLength,
    BadParams,
    BadWitness,
    CapExceeded,
    GroupMismatch,
    MissingCosetCondition,
    NotMlMzss,
    NotZeroSum,
)
from .groups import Element, GroupSpec, inductive_quotient, make_group
from .search import ENUMERATION_CAP, davenport_closed_form, enumerate_ml_mzss
from .sequences import (
    Sequence,
    _max_factors,
    extract_zero_sum_of_length,
    is_mzss,
    sigma,
)


@dataclass(frozen=True)
class Type1Witness:
    """Basis-driven witness: e_j appears ord(e_j) - 1 times, the rest lie in
    the coset e_k - <e_j> with offsets x summing to -1 mod ord(e_j)."""

    e1: Element
    e2: Element
    j: int
    x: tuple[int, ...]


@dataclass(frozen=True)
class Type2Witness:
    """Generating-pair witness: g1 appears s*m - 1 times, the rest lie in the
    coset g2 - <g1> with offsets x in [0, m) summing to exactly m - 1."""

    g1: Element
    g2: Element
    s: int
    x: tuple[int, ...]


@dataclass(frozen=True)
class ClassificationResult:
    """All type-1 and type-2 witnesses of one ml-mzss (families may overlap)."""

    is_type1: bool
    type1_witnesses: tuple[Type1Witness, ...]
    is_type2: bool
    type2_witnesses: tuple[Type2Witness, ...]

    def to_json(self) -> dict:
        return {
            "is_type1": self.is_type1,
            "type1_witnesses": [
                {
                    "e1": groups.format_element(w.e1),
                    "e2": groups.format_element(w.e2),
                    "j": w.j,
                    "x": list(w.x),
                }
                for w in self.type1_witnesses
            ],
            "is_type2": self.is_type2,
            "type2_witnesses": [
                {
                    "g1": groups.format_element(w.g1),
                    "g2": groups.format_element(w.g2),
                    "s": w.s,
                    "x": list(w.x),
                }
                for w in self.type2_witnesses
            ],
        }


@dataclass
class VerificationReport:
    """Outcome of one verification sweep, JSON-serializable for golden files."""

    check: str
    params: dict
    checked: int
    violations: list[str]
    verdict: bool
    elapsed_ms: int
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "checked": self.checked,
            "violations": list(self.violations),
            "verdict": self.verdict,
            "elapsed_ms": self.elapsed_ms,
            "details": self.details,
        }


def _rank_two_mn(G: GroupSpec) -> tuple[int, int]:
    """(m, n) with G = C_m + C_{mn}; requires rank exactly two."""
    if G.rank != 2:
        raise BadParams(f"group {G} does not have rank two")
    m, mn = G.invariant_factors
    return m, mn // m


def gen_type1(G: GroupSpec, w: Type1Witness) -> Sequence:
    """Sequence generated by a type-1 witness (always an ml-mzss)."""
    m, n = _rank_two_mn(G)
    mn = m * n
    zero = G.zero()
    if w.e1 == zero or w.e2 == zero:
        raise BadWitness("basis elements must be nonzero")
    if w.j not in (1, 2):
        raise BadWitness(f"j must be 1 or 2, got {w.j}")
    if groups.order(G, w.e2) != mn:
        raise BadWitness(f"ord(e2) must be {mn}")
    if not groups.is_basis(G, (w.e1, w.e2)):
        raise BadWitness("(e1, e2) is not a basis")
    ej, ek = (w.e1, w.e2) if w.j == 1 else (w.e2, w.e1)
    oj = groups.order(G, ej)
    ok = groups.order(G, ek)
    if len(w.x) != ok:
        raise BadWitness(f"x must have length ord(e_k) = {ok}")
    if any(not 0 <= xi < oj for xi in w.x):
        raise BadWitness(f"every x_i must lie in [0, {oj})")
    if sum(w.x) % oj != oj - 1:
        raise BadWitness(f"sum(x) must be -1 mod {oj}")
    elems = [ej] * (oj - 1)
    for xi in w.x:
        elems.append(groups.add(G, groups.scale(G, -xi, ej), ek))
    return Sequence.from_elements(G, elems)


def gen_type2(G: GroupSpec, w: Type2Witness) -> Sequence:
    """Sequence generated by a type-2 witness (always an ml-mzss)."""
    m, n = _rank_two_mn(G)
    mn = m * n
    zero = G.zero()
    if w.g1 == zero or w.g2 == zero:
        raise BadWitness("generators must be nonzero")
    if groups.order(G, w.g2) != mn:
        raise BadWitness(f"ord(g2) must be {mn}")
    if len(groups.subgroup_generated(G, (w.g1, w.g2))) != G.order:
        raise BadWitness("(g1, g2) does not generate the group")
    if not 1 <= w.s <= n:
        raise BadWitness(f"s must lie in [1, {n}]")
    if w.s != 1 and groups.scale(G, m, w.g1) != groups.scale(G, m, w.g2):
        raise MissingCosetCondition(f"s = {w.s} != 1 requires {m}*g1 = {m}*g2")
    if len(w.x) != (n + 1 - w.s) * m:
        raise BadWitness(f"x must have length {(n + 1 - w.s) * m}")
    if any(not 0 <= xi < m for xi in w.x):
        raise BadWitness(f"every x_i must lie in [0, {m})")
    if sum(w.x) != m - 1:
        raise BadWitness(f"sum(x) must equal {m - 1} exactly")
    elems = [w.g1] * (w.s * m - 1)
    for xi in w.x:
        elems.append(groups.add(G, groups.scale(G, -xi, w.g1), w.g2))
    return Sequence.from_elements(G, elems)


# (b, ord a, ord b, whether (a, b) is a basis, coset map b - x*a -> x)
_Pair = tuple[Element, int, int, bool, dict[Element, int]]


@lru_cache(maxsize=None)
def _pairs(G: GroupSpec) -> dict[Element, tuple[_Pair, ...]]:
    """For each nonzero pivot a, one entry per b with <a, b> = G, in
    canonical order of b; the coset map covers x in [0, ord a). Read-only.

    <a, b> is the closure of the mask of <a> under translation by b, so it
    is G exactly when that mask has |G| bits; then (a, b) is a basis exactly
    when ord a * ord b = |G|.
    """
    T = groups.index_tables(G)
    n = len(T.elements)
    orders = [groups.order(G, g) for g in T.elements]
    table = {}
    for a in range(1, n):
        # indices of -x*a for x in [0, ord a); their bits are the mask of <a>
        minus = [0]
        while len(minus) < orders[a]:
            minus.append(T.add[minus[-1]][T.neg[a]])
        cyclic = sum(1 << i for i in minus)
        entries = []
        for b in range(1, n):
            span = cyclic
            while (nxt := span | T.shift(span, b)) != span:
                span = nxt
            if span.bit_count() != n:
                continue
            coset = {T.elements[T.add[b][i]]: x for x, i in enumerate(minus)}
            basis = orders[a] * orders[b] == n
            entries.append((T.elements[b], orders[a], orders[b], basis, coset))
        table[T.elements[a]] = tuple(entries)
    return table


def _offsets(
    counts: dict[Element, int], pivot: Element, coset: dict[Element, int]
) -> Optional[tuple[int, ...]]:
    """Sorted coset offsets of every copy of a term other than the pivot, or
    None when such a term lies outside the coset."""
    xs: list[int] = []
    for g, mult in counts.items():
        if g == pivot:
            continue
        x = coset.get(g)
        if x is None:
            return None
        xs.extend([x] * mult)
    return tuple(sorted(xs))


def classify(G: GroupSpec, S: Sequence) -> ClassificationResult:
    """Every type-1 and type-2 witness of S, in deterministic order.

    S must be a minimal zero-sum sequence of maximal length over G; anything
    else is rejected rather than reported as unclassified. Each witness has
    its pivot (e_j or g1) in the support, so only those pivots are tried.
    """
    if S.group != G:
        raise GroupMismatch("sequence is not over the given group")
    m, n = _rank_two_mn(G)
    mn = m * n
    D = davenport_closed_form(G)
    if S.length != D or not is_mzss(S):
        raise NotMlMzss(
            f"classification applies to minimal zero-sum sequences of length {D}"
        )
    counts = dict(S.terms)
    t1: list[Type1Witness] = []
    t2: list[Type2Witness] = []
    for a, v in counts.items():
        s, r = divmod(v + 1, m)
        for b, oa, ob, basis, coset in _pairs(G).get(a, ()):
            type1 = basis and v == oa - 1 and mn in (oa, ob)
            type2 = ob == mn and r == 0 and 1 <= s <= n
            if type2 and s != 1:
                type2 = groups.scale(G, m, a) == groups.scale(G, m, b)
            if not (type1 or type2):
                continue
            xs = _offsets(counts, a, coset)
            if xs is None:
                continue
            if type1 and sum(xs) % oa == oa - 1:
                # a is e_j: e1 when ord e2 = ord b = mn, e2 when ord a = mn
                if ob == mn:
                    t1.append(Type1Witness(a, b, 1, xs))
                if oa == mn:
                    t1.append(Type1Witness(b, a, 2, xs))
            if type2 and max(xs) < m and sum(xs) == m - 1:
                t2.append(Type2Witness(a, b, s, xs))
    t1.sort(key=lambda w: (w.e1, w.e2, w.j))
    return ClassificationResult(bool(t1), tuple(t1), bool(t2), tuple(t2))


def check_rank_two_structure(
    G: GroupSpec, workers: int = 1, cap: int = ENUMERATION_CAP
) -> VerificationReport:
    """Classify every ml-mzss of G; violations are the unclassified ones."""
    _rank_two_mn(G)
    t0 = time.perf_counter()
    total = 0
    n_type1 = n_type2 = n_both = 0
    violations: list[str] = []
    for S in enumerate_ml_mzss(G, workers=workers, cap=cap):
        total += 1
        result = classify(G, S)
        if result.is_type1:
            n_type1 += 1
        if result.is_type2:
            n_type2 += 1
        if result.is_type1 and result.is_type2:
            n_both += 1
        if not (result.is_type1 or result.is_type2):
            violations.append(str(S))
    return VerificationReport(
        check="theorem",
        params={"group": str(G)},
        checked=total,
        violations=violations,
        verdict=not violations,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        details={
            "total": total,
            "type1": n_type1,
            "type2": n_type2,
            "both": n_both,
        },
    )


def check_property_b(m: int, cap: int = ENUMERATION_CAP) -> VerificationReport:
    """Verify that every ml-mzss over C_m + C_m has a term of multiplicity
    at least m - 1, reporting that term and its cofactor per sequence."""
    if m < 2:
        raise BadParams(f"m must be >= 2, got {m}")
    G = make_group([m, m])
    t0 = time.perf_counter()
    total = 0
    violations: list[str] = []
    witnesses: list[dict] = []
    for S in enumerate_ml_mzss(G, cap=cap):
        total += 1
        pivot = None
        for g, mult in S.terms:
            if mult >= m - 1:
                pivot = g
                break
        if pivot is None:
            violations.append(str(S))
            continue
        cofactor = S
        for _ in range(m - 1):
            cofactor = cofactor.remove_one(pivot)
        witnesses.append(
            {
                "sequence": str(S),
                "element": groups.format_element(pivot),
                "cofactor": str(cofactor),
            }
        )
    return VerificationReport(
        check="property-b",
        params={"m": m},
        checked=total,
        violations=violations,
        verdict=not violations,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        details={"witnesses": witnesses},
    )


def check_cyclic_inverse(n: int, cap: int = ENUMERATION_CAP) -> VerificationReport:
    """Verify the ml-mzss of C_n are exactly e^n for generators e (phi(n) many)."""
    if n < 2:
        raise BadParams(f"n must be >= 2, got {n}")
    G = make_group([n])
    t0 = time.perf_counter()
    found = set()
    total = 0
    for S in enumerate_ml_mzss(G, cap=cap):
        total += 1
        found.add(str(S))
    expected = {
        str(Sequence.from_terms(G, [((e,), n)]))
        for e in range(1, n)
        if math.gcd(e, n) == 1
    }
    violations = sorted(found.symmetric_difference(expected))
    return VerificationReport(
        check="cyclic",
        params={"n": n},
        checked=total,
        violations=violations,
        verdict=not violations,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        details={"count": total, "expected_count": len(expected)},
    )


def egz_property(n: int, trials: int, seed: int) -> VerificationReport:
    """Random verification that 2n - 1 terms over C_n always contain a length-n
    zero-sum subsequence, plus the standard tightness witness at 2n - 2."""
    if n < 2:
        raise BadParams(f"n must be >= 2, got {n}")
    if trials < 0:
        raise BadParams(f"trials must be >= 0, got {trials}")
    G = make_group([n])
    rng = random.Random(seed)
    t0 = time.perf_counter()
    violations: list[str] = []
    for _ in range(trials):
        S = Sequence.from_elements(
            G, ((rng.randrange(n),) for _ in range(2 * n - 1))
        )
        T = extract_zero_sum_of_length(S, n)
        if (
            T is None
            or T.length != n
            or sigma(T) != G.zero()
            or any(T.multiplicity(g) > S.multiplicity(g) for g in T.support())
        ):
            violations.append(str(S))
    # 0^(n-1) 1^(n-1) has length 2n - 2 and no zero-sum subsequence of length n
    tight = Sequence.from_terms(G, [((0,), n - 1), ((1,), n - 1)])
    if extract_zero_sum_of_length(tight, n) is not None:
        violations.append(f"tightness witness failed: {tight}")
    return VerificationReport(
        check="egz",
        params={"n": n, "trials": trials, "seed": seed},
        checked=trials + 1,
        violations=violations,
        verdict=not violations,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        details={"tightness_length": 2 * n - 2},
    )


@dataclass(frozen=True)
class ShapeAWitness:
    """Block-structure witness f1^(sm-1) * prod_i (a_i f1 + f2) over C_m + C_m
    with sum a_i = 1 mod m; covers sequences of length tm - 1 with s in
    [1, t - 1]."""

    f1: Element
    f2: Element
    s: int
    a: tuple[int, ...]


@dataclass(frozen=True)
class ShapeBWitness:
    """Block-structure witness f1^(s1 m) f2^(s2 m - 1) (b f1 + f2)^(s3 m - 1)
    (b f1 + 2 f2) over C_m + C_m with gcd(b, m) = 1; requires t >= 3 blocks."""

    f1: Element
    f2: Element
    s1: int
    s2: int
    s3: int
    b: int


def _square_group(S: Sequence) -> tuple[GroupSpec, int, int]:
    """(G, m, t) for a zero-sum S of length tm - 1 over C_m + C_m; t = 0 if none."""
    G = S.group
    if G.rank != 2 or G.invariant_factors[0] != G.invariant_factors[1]:
        raise BadParams("block-structure shapes live over C_m + C_m")
    if sigma(S) != G.zero():
        raise NotZeroSum("shape matching applies to zero-sum sequences")
    m = G.invariant_factors[0]
    t, r = divmod(S.length + 1, m)
    return G, m, 0 if r else t


def gen_shape_a(m: int, w: ShapeAWitness) -> Sequence:
    """Sequence generated by a shape-A witness over C_m + C_m."""
    G = make_group([m, m])
    if not groups.is_basis(G, (w.f1, w.f2)):
        raise BadWitness("(f1, f2) is not a basis")
    if w.s < 1:
        raise BadWitness("s must be >= 1")
    if len(w.a) < m or len(w.a) % m != 0:
        raise BadWitness(f"a must have positive length divisible by {m}")
    if any(not 0 <= ai < m for ai in w.a):
        raise BadWitness(f"every a_i must lie in [0, {m})")
    if sum(w.a) % m != 1:
        raise BadWitness(f"sum(a) must be 1 mod {m}")
    elems = [w.f1] * (w.s * m - 1)
    for ai in w.a:
        elems.append(groups.add(G, groups.scale(G, ai, w.f1), w.f2))
    return Sequence.from_elements(G, elems)


def gen_shape_b(m: int, w: ShapeBWitness) -> Sequence:
    """Sequence generated by a shape-B witness over C_m + C_m."""
    G = make_group([m, m])
    if not groups.is_basis(G, (w.f1, w.f2)):
        raise BadWitness("(f1, f2) is not a basis")
    if min(w.s1, w.s2, w.s3) < 1:
        raise BadWitness("s1, s2, s3 must all be >= 1")
    if not (1 <= w.b < m and math.gcd(w.b, m) == 1):
        raise BadWitness(f"b must lie in [1, {m}) with gcd(b, {m}) = 1")
    bf1 = groups.scale(G, w.b, w.f1)
    elems = [w.f1] * (w.s1 * m) + [w.f2] * (w.s2 * m - 1)
    elems += [groups.add(G, bf1, w.f2)] * (w.s3 * m - 1)
    elems.append(groups.add(G, bf1, groups.scale(G, 2, w.f2)))
    return Sequence.from_elements(G, elems)


def shape_a_witnesses(S: Sequence) -> tuple[ShapeAWitness, ...]:
    """All shape-A witnesses of a zero-sum S of length tm - 1 over C_m + C_m.

    A term a*f1 + f2 is f2 - x*f1 with a = -x mod m, so shape A is the pivot
    f1 with multiplicity sm - 1 and the rest in the coset of a partner f2.
    """
    G, m, t = _square_group(S)
    counts = dict(S.terms)
    out = []
    for f1, v in counts.items():
        s, r = divmod(v + 1, m)
        if r or not 1 <= s <= t - 1:
            continue
        for f2, _, _, basis, coset in _pairs(G).get(f1, ()):
            xs = _offsets(counts, f1, coset) if basis else None
            if xs is not None and sum(xs) % m == m - 1:
                a = tuple(sorted(-x % m for x in xs))
                out.append(ShapeAWitness(f1, f2, s, a))
    return tuple(out)


def shape_b_witnesses(S: Sequence) -> tuple[ShapeBWitness, ...]:
    """All shape-B witnesses of a zero-sum S of length tm - 1 (empty if t < 3).

    f2 and b*f1 + f2 = f2 - (m - b)*f1 never coincide with another term of
    the shape, so their multiplicities give s2 and s3, and s1 = t - s2 - s3:
    each (f1, f2, b) fits at most one witness.
    """
    G, m, t = _square_group(S)
    if t < 3:
        return ()
    counts = dict(S.terms)
    out = []
    for f1 in counts:
        for f2, _, _, basis, coset in _pairs(G).get(f1, ()):
            s2, r2 = divmod(counts.get(f2, 0) + 1, m)
            if not basis or r2:
                continue
            coset_elems = list(coset)
            for b in range(1, m):
                if math.gcd(b, m) != 1:
                    continue
                s3, r3 = divmod(counts.get(coset_elems[m - b], 0) + 1, m)
                s1 = t - s2 - s3
                if r3 or s1 < 1:
                    continue
                w = ShapeBWitness(f1, f2, s1, s2, s3, b)
                if gen_shape_b(m, w).terms == S.terms:
                    out.append(w)
    return tuple(out)


def tm1_structure_check(m: int, t: int) -> VerificationReport:
    """Check that every zero-sum sequence of length tm - 1 over C_m + C_m that
    does not split into t nonempty zero-sum blocks matches shape A or (for
    t >= 3) shape B."""
    if m < 2:
        raise BadParams(f"m must be >= 2, got {m}")
    if t < 2:
        raise BadParams(f"t must be >= 2, got {t}")
    G = make_group([m, m])
    L = t * m - 1
    work = math.comb(G.order + L - 1, L)
    if work > 2_000_000:
        raise CapExceeded(f"{work} candidate multisets exceed the search budget")
    t0 = time.perf_counter()
    T = groups.index_tables(G)
    zss_count = 0
    hard: list[Sequence] = []
    memo: dict[tuple[Element, ...], int] = {}
    for combo in combinations_with_replacement(range(G.order), L):
        sig = 0
        for i in combo:
            sig = T.add[sig][i]
        if sig != 0:
            continue
        zss_count += 1
        key = tuple(T.elements[i] for i in combo)
        if _max_factors(G, key, memo) < t:
            hard.append(Sequence.from_elements(G, key))
    violations: list[str] = []
    a_matched = b_matched = 0
    for S in hard:
        wa = shape_a_witnesses(S)
        wb = shape_b_witnesses(S)
        if wa:
            a_matched += 1
        if wb:
            b_matched += 1
        if not (wa or wb):
            violations.append(str(S))
    return VerificationReport(
        check="tm1",
        params={"m": m, "t": t},
        checked=len(hard),
        violations=violations,
        verdict=not violations,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        details={
            "zss_count": zss_count,
            "shape_a_matched": a_matched,
            "shape_b_matched": b_matched,
        },
    )


def _zero_image_blocks(
    terms: tuple[tuple[Element, int], ...],
    weight_of: dict[Element, int],
    addtab: list[list[int]],
    block_size: int,
) -> list[tuple[int, ...]]:
    """Distinct size-`block_size` sub-multisets (as count vectors aligned with
    `terms`) whose quotient images sum to zero, in lexicographic order of the
    expanded block."""
    out: list[tuple[int, ...]] = []
    counts: list[int] = []

    def rec(i: int, left: int, sig: int) -> None:
        if left == 0:
            if sig == 0:
                out.append(tuple(counts) + (0,) * (len(terms) - len(counts)))
            return
        if i == len(terms):
            return
        g, avail = terms[i]
        w = weight_of[g]
        # descending count of the smallest remaining term gives lex order
        for c in range(min(avail, left), -1, -1):
            s = sig
            for _ in range(c):
                s = addtab[s][w]
            counts.append(c)
            rec(i + 1, left - c, s)
            counts.pop()

    rec(0, block_size, 0)
    return out


def find_admissible_factorization(
    m: int, n: int, s: int, T: Sequence
) -> Optional[list[Sequence]]:
    """Split T into blocks [S_0, S_1, ..., S_{n-s}] of size m where every block
    except S_0 has zero-sum image under the reduction to C_m + C_m.

    The search backtracks over candidate blocks in lexicographic order, so the
    first factorization found is the deterministic least witness; None means
    no such factorization exists. S_0 carries no condition here; callers check
    whatever residual property they need.
    """
    if m < 2:
        raise BadParams(f"m must be >= 2, got {m}")
    if n < 1:
        raise BadParams(f"n must be >= 1, got {n}")
    if not 1 <= s <= n:
        raise BadLength(f"s must lie in [1, {n}], got {s}")
    phi = inductive_quotient(m, n)
    if T.group != phi.source:
        raise GroupMismatch(f"sequence must be over {phi.source}")
    if T.length != (n + 1 - s) * m:
        raise BadLength(f"|T| must be {(n + 1 - s) * m}, got {T.length}")
    blocks_needed = n - s
    if blocks_needed == 0:
        return [T]
    Tq = groups.index_tables(phi.target)
    weight_of = {g: Tq.index[phi.apply(g)] for g, _ in T.terms}
    failed: set[tuple[tuple[Element, int], ...]] = set()

    def dfs(
        terms: tuple[tuple[Element, int], ...], k: int
    ) -> Optional[list[tuple[tuple[Element, int], ...]]]:
        if k == 0:
            return []
        if terms in failed:
            return None
        for counts in _zero_image_blocks(terms, weight_of, Tq.add, m):
            block = tuple(
                (g, c) for (g, _), c in zip(terms, counts) if c
            )
            rest = tuple(
                (g, mult - c)
                for (g, mult), c in zip(terms, counts)
                if mult - c
            )
            sub = dfs(rest, k - 1)
            if sub is not None:
                return [block] + sub
        failed.add(terms)
        return None

    picked = dfs(T.terms, blocks_needed)
    if picked is None:
        return None
    remainder = dict(T.terms)
    blocks = []
    for block in picked:
        blocks.append(Sequence(T.group, block))
        for g, c in block:
            remainder[g] -= c
            if not remainder[g]:
                del remainder[g]
    s0 = Sequence(T.group, tuple(sorted(remainder.items())))
    return [s0] + blocks
