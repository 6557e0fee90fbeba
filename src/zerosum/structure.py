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
import time
from collections import Counter
from itertools import combinations_with_replacement
from typing import NamedTuple, Optional

from . import groups, search
from .errors import (
    BadParams,
    BadWitness,
    CapExceeded,
    GroupMismatch,
    MissingCosetCondition,
    NotMlMzss,
    NotZeroSum,
)
from .groups import Element, GroupSpec, make_group
from .search import (
    ENUMERATION_CAP,
    _members,
    _sequence,
    count_ml_mzss,
    davenport_closed_form,
    enumerate_ml_mzss,
)
from .sequences import (
    Sequence,
    _lex_least_fixed_sum,
    _max_factors,
    extract_zero_sum_of_length,
    is_mzss,
    sigma,
)


class Type1Witness(NamedTuple):
    """Basis-driven witness: e_j appears ord(e_j) - 1 times, the rest lie in
    the coset e_k - <e_j> with offsets x summing to -1 mod ord(e_j)."""

    e1: Element
    e2: Element
    j: int
    x: tuple[int, ...]


class Type2Witness(NamedTuple):
    """Generating-pair witness: g1 appears s*m - 1 times, the rest lie in the
    coset g2 - <g1> with offsets x in [0, m) summing to exactly m - 1."""

    g1: Element
    g2: Element
    s: int
    x: tuple[int, ...]


class ClassificationResult(NamedTuple):
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


class VerificationReport(NamedTuple):
    """Outcome of one verification sweep, JSON-serializable for golden files."""

    check: str
    params: dict
    checked: int
    violations: list[str]
    verdict: bool
    elapsed_ms: int
    details: dict = {}  # shared by every report built without it: never mutate

    def to_json(self) -> dict:
        return self._asdict()


def _report(
    check: str, params: dict, checked: int, violations: list[str], t0: float,
    details: dict,
) -> VerificationReport:
    """The report of a sweep started at `t0`: verified when nothing was
    violated, timed up to this call."""
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(
        check, params, checked, violations, not violations, elapsed_ms, details
    )


def _rank_two_mn(G: GroupSpec) -> tuple[int, int]:
    """(m, n) with G = C_m + C_{mn}; requires rank exactly two."""
    if G.rank != 2:
        raise BadParams(f"group {G} does not have rank two")
    m, mn = G.invariant_factors
    return m, mn // m


def _coset_sequence(G: GroupSpec, a: Element, k: int, b: Element, xs) -> Sequence:
    """a^k * prod_i (b - x_i a): the sequences of types 1 and 2 and shape A."""
    elems = [a] * k + [groups.add(G, groups.scale(G, -x, a), b) for x in xs]
    return Sequence.from_elements(G, elems)


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
    return _coset_sequence(G, ej, oj - 1, ek, w.x)


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
    return _coset_sequence(G, w.g1, w.s * m - 1, w.g2, w.x)


def _offsets(
    T: groups.Tables, pos: list[int], counts: list[tuple[int, int]], a: int, b: int
) -> Optional[tuple[int, ...]]:
    """Sorted offsets x, one per copy of a term g other than the pivot a,
    with g = b - x*a; None when such a term lies outside the coset b - <a>."""
    nb = T.neg[b]
    xs: list[int] = []
    for g, mult in counts:
        if g != a:
            x = pos[T.add[g][nb]]
            if x < 0:
                return None
            xs += [x] * mult
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
    T = groups.index_tables(G)
    P = T.pairs
    counts = [(T.index[g], v) for g, v in S.terms]
    t1: list[Type1Witness] = []
    t2: list[Type2Witness] = []
    for a, v in counts:
        minus, pos, partners = P[a]
        oa = len(minus)
        s, r = divmod(v + 1, m)
        fits2 = r == 0 and 1 <= s <= n
        if v != oa - 1 and not fits2:
            continue  # a is the pivot of neither family
        ea = T.elements[a]
        for b, ob, basis in partners:
            type1 = basis and v == oa - 1 and mn in (oa, ob)
            type2 = ob == mn and fits2
            if type2 and s != 1:
                # m*a = -x*a with x = -m mod ord a, likewise for b
                type2 = minus[-m % oa] == P[b][0][-m % ob]
            if not (type1 or type2):
                continue
            xs = _offsets(T, pos, counts, a, b)
            if xs is None:
                continue
            eb = T.elements[b]
            if type1 and sum(xs) % oa == oa - 1:
                # a is e_j: e1 when ord e2 = ord b = mn, e2 when ord a = mn
                if ob == mn:
                    t1.append(Type1Witness(ea, eb, 1, xs))
                if oa == mn:
                    t1.append(Type1Witness(eb, ea, 2, xs))
            if type2 and max(xs) < m and sum(xs) == m - 1:
                t2.append(Type2Witness(ea, eb, s, xs))
    t1.sort(key=lambda w: (w.e1, w.e2, w.j))
    return ClassificationResult(bool(t1), tuple(t1), bool(t2), tuple(t2))


def check_rank_two_structure(
    G: GroupSpec, workers: int = 1, cap: int = ENUMERATION_CAP
) -> VerificationReport:
    """Classify every ml-mzss of G; violations are the unclassified ones.

    Only one representative per Aut(G)-orbit is classified, and its result
    counts for the whole orbit: an automorphism keeps bases, element orders
    and the condition m*g1 = m*g2, so types 1 and 2 are Aut(G)-invariant.
    The violations list every member of each unclassified orbit, in
    lexicographic order.
    """
    _rank_two_mn(G)
    t0 = time.perf_counter()
    total = 0
    n_type1 = n_type2 = n_both = 0
    unclassified: list[Sequence] = []
    for runs, size in search._EnumerationRun(G, workers, cap):
        S = _sequence(G, runs)
        total += size
        result = classify(G, S)
        if result.is_type1:
            n_type1 += size
        if result.is_type2:
            n_type2 += size
        if result.is_type1 and result.is_type2:
            n_both += size
        if not (result.is_type1 or result.is_type2):
            unclassified.append(S)
    violations = [str(_sequence(G, runs)) for runs in _members(G, unclassified)]
    details = {"total": total, "type1": n_type1, "type2": n_type2, "both": n_both}
    return _report("theorem", {"group": str(G)}, total, violations, t0, details)


def check_property_b(m: int, cap: int = ENUMERATION_CAP) -> VerificationReport:
    """Verify that every ml-mzss over C_m + C_m has a term of multiplicity
    at least m - 1, reporting that term and its cofactor per sequence.

    Property B is Aut(G)-invariant, so the sequences come from the orbits
    of the orderly representatives (as runs, see `_members`) rather than
    from the full search. The pivot is the first run with k >= m - 1, the
    cofactor the same runs less m - 1 copies of the pivot."""
    if m < 2:
        raise BadParams(f"m must be >= 2, got {m}")
    G = make_group([m, m])
    t0 = time.perf_counter()
    # piece[i][k]: the text of k copies of element i, "" for none
    names = map(groups.format_element, groups.index_tables(G).elements)
    piece = [["", n] + [f"{n}^{k}" for k in range(2, 2 * m)] for n in names]
    violations: list[str] = []
    witnesses: list[dict] = []
    for runs in _members(G, count_ml_mzss(G, 1, cap).representatives):
        words = [piece[i][k] for i, k in runs]
        text = " ".join(words)
        j = next((j for j, (_, k) in enumerate(runs) if k >= m - 1), None)
        if j is None:
            violations.append(text)
            continue
        a, k = runs[j]
        words[j] = piece[a][k - m + 1]
        rest = " ".join(filter(None, words))
        witnesses.append({"sequence": text, "element": piece[a][1], "cofactor": rest})
    checked = len(violations) + len(witnesses)
    details = {"witnesses": witnesses}
    return _report("property-b", {"m": m}, checked, violations, t0, details)


def check_cyclic_inverse(n: int, cap: int = ENUMERATION_CAP) -> VerificationReport:
    """Verify the ml-mzss of C_n are exactly e^n for generators e (phi(n) many)."""
    if n < 2:
        raise BadParams(f"n must be >= 2, got {n}")
    G = make_group([n])
    t0 = time.perf_counter()
    found = Counter(map(str, enumerate_ml_mzss(G, cap=cap)))
    total = sum(found.values())
    expected = {
        str(Sequence.from_terms(G, [((e,), n)]))
        for e in range(1, n)
        if math.gcd(e, n) == 1
    }
    # a sequence missed, unexpected or emitted more than once
    violations = sorted(
        s for s in found.keys() | expected if found[s] != (s in expected)
    )
    details = {"count": total, "expected_count": len(expected)}
    return _report("cyclic", {"n": n}, total, violations, t0, details)


def egz_property(n: int, trials: int, seed: int) -> VerificationReport:
    """Random verification that 2n - 1 terms over C_n always contain a length-n
    zero-sum subsequence, plus the standard tightness witness at 2n - 2."""
    if n < 2:
        raise BadParams(f"n must be >= 2, got {n}")
    if trials < 0:
        raise BadParams(f"trials must be >= 0, got {trials}")
    G = make_group([n])
    T = groups.index_tables(G)
    positions = frozenset(range(2 * n - 1))
    import random
    # rng.randrange(n), inlined as CPython draws it: the same stream, cheaper
    bits, k = random.Random(seed).getrandbits, n.bit_length()
    t0 = time.perf_counter()
    violations: list[str] = []
    for _ in range(trials):
        weights = []
        for _ in range(2 * n - 1):
            r = bits(k)
            while r >= n:
                r = bits(k)
            weights.append(r)
        # the index of (r,) is r, so the sorted residues are the canonical copies
        weights.sort()
        pick = _lex_least_fixed_sum(weights, T, n, 0)
        # checked apart from the kernel: n distinct copies summing to zero
        if pick is not None and len(pick) == len(positions.intersection(pick)) == n:
            total = 0
            for i in pick:
                total = T.add[total][weights[i]]
            if total == 0:
                continue
        violations.append(str(Sequence.from_elements(G, ((w,) for w in weights))))
    # 0^(n-1) 1^(n-1) has length 2n - 2 and no zero-sum subsequence of length n
    tight = Sequence.from_terms(G, [((0,), n - 1), ((1,), n - 1)])
    if extract_zero_sum_of_length(tight, n) is not None:
        violations.append(f"tightness witness failed: {tight}")
    params = {"n": n, "trials": trials, "seed": seed}
    details = {"tightness_length": 2 * n - 2}
    return _report("egz", params, trials + 1, violations, t0, details)


class ShapeAWitness(NamedTuple):
    """Block-structure witness f1^(sm-1) * prod_i (a_i f1 + f2) over C_m + C_m
    with sum a_i = 1 mod m; covers sequences of length tm - 1 with s in
    [1, t - 1]."""

    f1: Element
    f2: Element
    s: int
    a: tuple[int, ...]


class ShapeBWitness(NamedTuple):
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
    return _coset_sequence(G, w.f1, w.s * m - 1, w.f2, [-ai for ai in w.a])


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
    T = groups.index_tables(G)
    counts = [(T.index[g], v) for g, v in S.terms]
    out = []
    for f1, v in counts:
        s, r = divmod(v + 1, m)
        if r or not 1 <= s <= t - 1:
            continue
        _, pos, partners = T.pairs[f1]
        for f2, _, basis in partners:
            xs = _offsets(T, pos, counts, f1, f2) if basis else None
            if xs is not None and sum(xs) % m == m - 1:
                a = tuple(sorted(-x % m for x in xs))
                out.append(ShapeAWitness(T.elements[f1], T.elements[f2], s, a))
    return tuple(out)


def shape_b_witnesses(S: Sequence) -> tuple[ShapeBWitness, ...]:
    """All shape-B witnesses of a zero-sum S of length tm - 1 (empty if t < 3).

    f2 and b*f1 + f2 = f2 - (m - b)*f1 never coincide with another term of
    the shape, so their multiplicities give s2 and s3, and s1 = t - s2 - s3:
    each (f1, f2, b) fits at most one witness, checked by multiplicities.
    """
    G, m, t = _square_group(S)
    if t < 3:
        return ()
    T = groups.index_tables(G)
    counts = {T.index[g]: v for g, v in S.terms}
    out = []
    for f1 in counts:
        minus, _, partners = T.pairs[f1]
        for f2, _, basis in partners:
            s2, r2 = divmod(counts.get(f2, 0) + 1, m)
            if not basis or r2:
                continue
            for b in range(1, m):
                if math.gcd(b, m) != 1:
                    continue
                g3 = T.add[f2][minus[m - b]]
                s3, r3 = divmod(counts.get(g3, 0) + 1, m)
                s1 = t - s2 - s3
                if r3 or s1 < 1:
                    continue
                shape = {f1: s1 * m, f2: s2 * m - 1, g3: s3 * m - 1}
                g4 = T.add[g3][f2]
                shape[g4] = shape.get(g4, 0) + 1
                if shape == counts:
                    out.append(
                        ShapeBWitness(T.elements[f1], T.elements[f2], s1, s2, s3, b)
                    )
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
    memo: dict[tuple[int, ...], int] = {}
    for combo in combinations_with_replacement(range(G.order), L):
        sig = 0
        for i in combo:
            sig = T.add[sig][i]
        if sig != 0:
            continue
        zss_count += 1
        counts = tuple(map(combo.count, range(G.order)))
        if _max_factors(T, counts, memo) < t:
            hard.append(Sequence.from_elements(G, (T.elements[i] for i in combo)))
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
    details = {
        "zss_count": zss_count,
        "shape_a_matched": a_matched,
        "shape_b_matched": b_matched,
    }
    return _report("tm1", {"m": m, "t": t}, len(hard), violations, t0, details)
