"""Reference computations for checking zerosum's output, written apart from it.

Nothing here imports zerosum. A group is given by its invariant factors, for
example (3, 9) for C_3 + C_9. An element is a tuple of residues, and a
sequence is the sorted tuple of its terms with repeated terms repeated, so
that tuple comparison is the canonical order the command line prints in.
Every check is by direct enumeration: subset sums by counting sub-multisets,
automorphisms from the images of the standard generators, and the two
structural families by running through every parameter.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, defaultdict


def elements(factors):
    """Every element of the group, in lexicographic order."""
    return list(itertools.product(*(range(f) for f in factors)))


def add(factors, g, h):
    return tuple((a + b) % f for a, b, f in zip(g, h, factors))


def mul(factors, k, g):
    """k * g for any integer k."""
    return tuple((k * a) % f for a, f in zip(g, factors))


def order(factors, g):
    o = 1
    for a, f in zip(g, factors):
        o = math.lcm(o, f // math.gcd(f, a))
    return o


def span(factors, gens):
    """The subgroup generated by gens, as a set."""
    zero = (0,) * len(factors)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                s = add(factors, h, g)
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return seen


def parse_element(text):
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"bad element {text!r}")
    return tuple(int(r) for r in text[1:-1].split(","))


def parse_sequence(text):
    """Terms `[r1,r2]^k` separated by spaces, as a sorted tuple of elements."""
    out = []
    for token in text.split():
        elem, _, mult = token.partition("^")
        out.extend([parse_element(elem)] * (int(mult) if mult else 1))
    return tuple(sorted(out))


def format_element(g):
    return "[" + ",".join(str(r) for r in g) + "]"


def format_sequence(seq):
    """Canonical text: distinct terms in order, `^k` only when k > 1."""
    parts = []
    for g, k in sorted(Counter(seq).items()):
        parts.append(format_element(g) + (f"^{k}" if k > 1 else ""))
    return " ".join(parts)


def zero_sum_parts(factors, seq):
    """Number of sub-multisets of seq, the empty one and seq itself included,
    whose terms sum to zero. Sub-multisets are counted by multiplicity
    vector: taking one of two equal terms is one part, not two."""
    zero = (0,) * len(factors)
    counts = {zero: 1}
    for g, v in Counter(seq).items():
        nxt = defaultdict(int)
        for s, c in counts.items():
            t = s
            for _ in range(v + 1):
                nxt[t] += c
                t = add(factors, t, g)
        counts = nxt
    return counts.get(zero, 0)


def is_zero_sum(factors, seq):
    total = (0,) * len(factors)
    for g in seq:
        total = add(factors, total, g)
    return total == (0,) * len(factors)


def is_mzss(factors, seq):
    """Minimal zero-sum: nonempty, sums to zero, and the only zero-sum parts
    are the empty one and the whole sequence."""
    return bool(seq) and is_zero_sum(factors, seq) and zero_sum_parts(factors, seq) == 2


def automorphisms(factors):
    """Every automorphism, as a dict from element to image.

    A homomorphism is fixed by the images of the standard generators; the
    image of the i-th one must be killed by the i-th invariant factor, and the
    map is bijective exactly when the images generate the group.
    """
    els = elements(factors)
    zero = (0,) * len(factors)
    candidates = [[h for h in els if mul(factors, f, h) == zero] for f in factors]
    out = []
    for images in itertools.product(*candidates):
        if len(span(factors, images)) != len(els):
            continue
        image = {}
        for g in els:
            total = zero
            for r, h in zip(g, images):
                total = add(factors, total, mul(factors, r, h))
            image[g] = total
        out.append(image)
    return out


def orbit_representatives(factors, seqs):
    """The least member of each automorphism orbit that meets seqs, sorted."""
    auts = automorphisms(factors)
    seen = set()
    reps = []
    for s in sorted(seqs):
        if s in seen:
            continue
        orbit = {tuple(sorted(a[g] for g in s)) for a in auts}
        seen |= orbit
        reps.append(min(orbit))
    return sorted(reps)


@functools.cache
def _offset_multisets(size, modulus, residue, exact):
    """Sorted x in [0, modulus)^size with sum(x) = residue, modulo `modulus`
    unless `exact`."""
    out = []
    for xs in itertools.combinations_with_replacement(range(modulus), size):
        total = sum(xs)
        if total == residue if exact else total % modulus == residue:
            out.append(xs)
    return tuple(out)


def is_basis(factors, e1, e2):
    n = math.prod(factors)
    return order(factors, e1) * order(factors, e2) == n and len(span(factors, (e1, e2))) == n


def expand_type1(factors, e1, e2, j, xs):
    """e_j^(ord e_j - 1) * prod_i (-x_i e_j + e_k) with {j, k} = {1, 2}."""
    ej, ek = (e1, e2) if j == 1 else (e2, e1)
    terms = [ej] * (order(factors, ej) - 1)
    terms += [add(factors, mul(factors, -x, ej), ek) for x in xs]
    return tuple(sorted(terms))


def expand_type2(factors, g1, g2, s, xs):
    """g1^(s m - 1) * prod_i (-x_i g1 + g2)."""
    m = factors[0]
    terms = [g1] * (s * m - 1)
    terms += [add(factors, mul(factors, -x, g1), g2) for x in xs]
    return tuple(sorted(terms))


def ml_mzss_families(m, n):
    """(type 1, type 2): every sequence of either family over C_m + C_mn.

    Type 1 runs over every basis (e1, e2) with ord e2 = mn, both j and every
    offset multiset x of length ord e_k with sum(x) = -1 mod ord e_j. Type 2
    runs over every generating pair (g1, g2) with ord g2 = mn, every s in
    [1, n] with m g1 = m g2 when s != 1, and every x in [0, m)^((n+1-s)m)
    with sum(x) = m - 1 exactly.
    """
    factors = (m, m * n)
    mn = m * n
    size = m * mn
    nonzero = [g for g in elements(factors) if any(g)]
    top = [g for g in nonzero if order(factors, g) == mn]
    type1, type2 = set(), set()
    for e2 in top:
        for e1 in nonzero:
            if not is_basis(factors, e1, e2):
                continue
            o1 = order(factors, e1)
            for j in (1, 2):
                oj, ok = (o1, mn) if j == 1 else (mn, o1)
                for xs in _offset_multisets(ok, oj, oj - 1, exact=False):
                    type1.add(expand_type1(factors, e1, e2, j, xs))
    for g2 in top:
        for g1 in nonzero:
            if len(span(factors, (g1, g2))) != size:
                continue
            for s in range(1, n + 1):
                if s != 1 and mul(factors, m, g1) != mul(factors, m, g2):
                    continue
                for xs in _offset_multisets((n + 1 - s) * m, m, m - 1, exact=True):
                    type2.add(expand_type2(factors, g1, g2, s, xs))
    return type1, type2


def zero_sum_multiset_count(factors, length):
    """Number of multisets of `length` elements whose terms sum to zero."""
    zero = (0,) * len(factors)
    ways = {(0, zero): 1}
    for g in elements(factors):
        nxt = defaultdict(int)
        for (k, s), c in ways.items():
            t = s
            for j in range(k, length + 1):
                nxt[(j, t)] += c
                t = add(factors, t, g)
        ways = nxt
    return ways.get((length, zero), 0)


def _draw(rng, factors, accept, what, tries=100_000):
    els = elements(factors)
    for _ in range(tries):
        pick = accept(rng.choice(els), rng.choice(els))
        if pick is not None:
            return pick
    raise RuntimeError(f"no {what} found over {factors} in {tries} draws")


def random_type1(rng, m, n):
    """A random type-1 witness (e1, e2, j, x) over C_m + C_mn."""
    factors = (m, m * n)

    def accept(e1, e2):
        if any(e1) and order(factors, e2) == m * n and is_basis(factors, e1, e2):
            return e1, e2
        return None

    e1, e2 = _draw(rng, factors, accept, "basis")
    j = rng.choice((1, 2))
    oj, ok = (order(factors, e1), m * n) if j == 1 else (m * n, order(factors, e1))
    xs = [rng.randrange(oj) for _ in range(ok - 1)]
    xs.append((oj - 1 - sum(xs)) % oj)
    return e1, e2, j, tuple(sorted(xs))


def random_type2(rng, m, n):
    """A random type-2 witness (g1, g2, s, x) over C_m + C_mn."""
    factors = (m, m * n)
    s = rng.randint(1, n)

    def accept(g1, g2):
        if not any(g1) or order(factors, g2) != m * n:
            return None
        if s != 1 and mul(factors, m, g1) != mul(factors, m, g2):
            return None
        if len(span(factors, (g1, g2))) != m * m * n:
            return None
        return g1, g2

    g1, g2 = _draw(rng, factors, accept, "generating pair")
    xs = [0] * ((n + 1 - s) * m)
    for _ in range(m - 1):
        xs[rng.randrange(len(xs))] += 1
    return g1, g2, s, tuple(sorted(xs))
