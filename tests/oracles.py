"""Definitional brute-force oracles, independent of the library's fast paths.

Everything here enumerates explicitly: sub-multisets via coordinate grids,
group maps via raw permutations, extremal sequences via all multisets of the
target length. Slow and obviously correct, for cross-checking only.
"""

import itertools
import math

import numpy as np

from zerosum import Sequence, make_group, search, sigma


def submultiset_sums(S):
    """(sums, sizes) over every sub-multiset of S, by explicit enumeration.

    sums has shape (C, rank) with one row per sub-multiset (C = prod(v_i + 1)),
    sizes the corresponding cardinalities. Row order follows the coordinate
    grid; the first row is the empty sub-multiset.
    """
    rank = S.group.rank
    if not S.terms:
        return np.zeros((1, rank), dtype=int), np.zeros(1, dtype=int)
    factors = np.array(S.group.invariant_factors, dtype=int)
    mults = [m for _, m in S.terms]
    residues = np.array([g for g, _ in S.terms], dtype=int).reshape(len(mults), rank)
    grids = np.meshgrid(*[np.arange(m + 1) for m in mults], indexing="ij")
    combos = np.stack([g.ravel() for g in grids])  # (k, C)
    sums = (combos.T @ residues) % factors if rank else np.zeros(
        (combos.shape[1], 0), dtype=int
    )
    return sums, combos.sum(axis=0)


def oracle_is_zero_sum_free(S):
    sums, sizes = submultiset_sums(S)
    zero_rows = np.all(sums == 0, axis=1)
    return not bool(np.any(zero_rows & (sizes > 0)))


def oracle_is_mzss(S):
    if len(S) == 0 or sigma(S) != S.group.zero():
        return False
    sums, sizes = submultiset_sums(S)
    zero_rows = np.all(sums == 0, axis=1)
    proper = (sizes > 0) & (sizes < len(S))
    return not bool(np.any(zero_rows & proper))


def oracle_ml_mzss(G, length):
    """Every ml-mzss of the given length, by checking all multisets."""
    out = []
    for elems in itertools.combinations_with_replacement(list(G.elements()), length):
        S = Sequence.from_elements(G, elems)
        if oracle_is_mzss(S):
            out.append(S)
    return sorted(set(out), key=lambda s: s.expanded())


def _plus(G, a, b):
    return tuple((x + y) % f for x, y, f in zip(a, b, G.invariant_factors))


def oracle_zero_sum_free(G):
    """Every nondecreasing zero-sum-free sequence over G as a list of
    elements, the empty one first, in lexicographic depth-first order: a
    plain search that keeps the set of nonempty subsequence sums of each."""
    els = list(G.elements())
    zero = G.zero()

    def rec(seq, sums, start):
        yield list(seq)
        for i in range(start, len(els)):
            grown = sums | {_plus(G, s, els[i]) for s in sums} | {els[i]}
            if zero not in grown:
                seq.append(els[i])
                yield from rec(seq, grown, i)
                seq.pop()

    return rec([], set(), 0)


def oracle_davenport(G):
    """(D(G), witness) from `oracle_zero_sum_free`: the witness is the first
    sequence of maximal length, completed by the negation of its sum."""
    best = max(oracle_zero_sum_free(G), key=len)
    total = G.zero()
    for g in best:
        total = _plus(G, total, g)
    completion = tuple(-x % f for x, f in zip(total, G.invariant_factors))
    return len(best) + 1, Sequence.from_elements(G, best + [completion])


def recursive_search(T, root, visit, states):
    """The depth-first search of `search._search`, with the length bound
    tested at each child instead of at its parent, and with no canonicity
    cut at the parent: every child is tested by `search._step` (when
    `states` is not None), and every child it keeps is visited and cut by
    the bound that its own `visit` returns. A child `_step` rejects counts
    as one node. Returns the node count."""
    n = len(T.elements)
    add, neg, shift = T.add, T.neg, T.shift
    cur = [root]
    nodes = 0

    def rec(R, sig, states):
        nonlocal nodes
        nodes += 1
        bound = visit(cur, sig, states)
        if bound is None or len(cur) + (n - 1) - R.bit_count() <= bound:
            return
        for i in range(cur[-1], n):
            if not R >> neg[i] & 1:
                cur.append(i)
                grown = R | shift(R, i) | 1 << i
                if states is None:
                    rec(grown, add[sig][i], None)
                elif (child := search._step(T, states, cur)) is None:
                    nodes += 1
                else:
                    rec(grown, add[sig][i], child)
                cur.pop()

    rec(1 << root, root, states)
    return nodes


def plain_enumeration(G):
    """Every ml-mzss of G (rank <= 2) as a sorted index tuple, in
    lexicographic order, by the exhaustive search: `search._search`, with no
    canonicity states, from every nonzero root over the zero-sum-free
    sequences of length D - 1, each completed by the negation of its sum
    when that is no smaller than its last term (see
    `search.enumerate_ml_mzss`). Not an oracle: it runs the library's search
    kernel with no canonicity cut, so that the tests can hold the orderly
    routes against the search they replace."""
    T = search.index_tables(G)
    L = search.davenport_closed_form(G) - 1
    if L == 0:
        return [(0,)]
    out = []

    def visit(cur, sig, states):
        if len(cur) < L:
            return L - 1
        t = T.neg[sig]
        if t >= cur[-1]:
            out.append(tuple(cur) + (t,))
        return None

    for root in range(1, G.order):
        search._search(T, root, visit, None)
    return out


def stabiliser(T, S):
    """|Stab(S)| if the nondecreasing index list S is least in its
    Aut(G)-orbit, that is, no automorphism maps it to a smaller sorted
    tuple; 0 otherwise. Not an oracle: it replays the orderly search's
    canonicity test, `search._root_states` then `search._step`, along the
    prefixes of S (`search._search` also cuts at the parent by the first
    test of `_step`, which `_step` repeats), so that the tests can hold that
    test against the oracles one sequence at a time. A prefix that is not
    least has no least extension (see `search.ml_mzss_orbits`)."""
    states = search._root_states(T, S[0])
    for end in range(2, len(S) + 1):
        if states is None:
            break
        states = search._step(T, states, S[:end])
    return 0 if states is None else states[0].bit_count()


def packed_lex_least_fixed_sum(weights, T, length, target):
    """Positions of the earliest length-`length` pick of the copies with
    element indices `weights` whose sum is element `target` of T, or None.
    Not an oracle: a frozen copy of the packed kernel
    `sequences._lex_least_fixed_sum` in its first form (one feasibility row
    per copy, count blocks of |G| bits, `Tables._rotations` repeated across
    the blocks), with the repeated rotations rebuilt on every call instead
    of cached on T, so that the kernel can be held against it on inputs too
    long for `oracle_lex_least_fixed_sum`."""
    L = len(weights)
    if length > L:
        return None
    N = len(T.elements)
    low = (1 << length * N) - 1
    rep = low // ((1 << N) - 1)  # bit c*N for every count c < length
    rotations = [[(keep * rep, up, down) for keep, up, down in rot] for rot in T._rotations]
    feas = [0] * (L + 1)
    M = feas[L] = 1
    for i in range(L - 1, -1, -1):
        R = M & low
        for keep, up, down in rotations[weights[i]]:
            R = (R & keep) << up | (R & ~keep) >> down
        M = feas[i] = M | R << N
    if not M >> (length * N + target) & 1:
        return None
    out = []
    need = target
    c = length
    i = 0
    while c:
        w = weights[i]
        after = T.add[need][T.neg[w]]  # need - w
        if feas[i + 1] >> ((c - 1) * N + after) & 1:
            out.append(i)
            need = after
            c -= 1
        i += 1
    return out


def oracle_lex_least_fixed_sum(G, copies, length, target):
    """Positions of the first `itertools.combinations` pick of `length`
    copies whose sum, by plain modular arithmetic, is `target`; None if no
    pick has that sum."""
    factors = G.invariant_factors
    for pick in itertools.combinations(range(len(copies)), length):
        total = tuple(
            sum(copies[i][k] for i in pick) % f for k, f in enumerate(factors)
        )
        if total == target:
            return list(pick)
    return None


def oracle_automorphism_count(G):
    """Number of bijections of G that respect addition (checked pairwise)."""
    els = list(G.elements())
    n = len(els)
    idx = {e: i for i, e in enumerate(els)}
    addtab = [
        [
            idx[tuple((a + b) % f for a, b, f in zip(x, y, G.invariant_factors))]
            for y in els
        ]
        for x in els
    ]
    zero_i = idx[G.zero()]
    count = 0
    for perm in itertools.permutations(range(n)):
        if perm[zero_i] != zero_i:
            continue
        ok = True
        for i in range(n):
            for j in range(i, n):
                if perm[addtab[i][j]] != addtab[perm[i]][perm[j]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def _image(G, hs, e):
    """sum e_j * h_j in G, by plain modular arithmetic."""
    return tuple(
        sum(c * h[k] for c, h in zip(e, hs)) % f
        for k, f in enumerate(G.invariant_factors)
    )


def oracle_automorphism_images(G):
    """Generator-image tuples of every automorphism of G, in lexicographic
    order: a tuple (h_1, ..., h_r) with n_j * h_j = 0 defines the map
    e |-> sum e_j * h_j, kept when that map is a bijection of the elements."""
    factors = G.invariant_factors
    els = list(G.elements())
    candidates = [
        [h for h in els if all((n * r) % f == 0 for r, f in zip(h, factors))]
        for n in factors
    ]
    return sorted(
        hs
        for hs in itertools.product(*candidates)
        if len({_image(G, hs, e) for e in els}) == len(els)
    )


def oracle_orbit_key(G, images, elems):
    """The least sorted image of a list of elements under the automorphisms
    given by `images` (from `oracle_automorphism_images`)."""
    return min(tuple(sorted(_image(G, hs, e) for e in elems)) for hs in images)


def oracle_orbit_representatives(G, seqs):
    """The least member of each Aut(G)-orbit met by `seqs`, sorted: for each
    sequence, the least sorted image under the automorphisms of
    `oracle_automorphism_images`."""
    images = oracle_automorphism_images(G)
    reps = {oracle_orbit_key(G, images, S.expanded()) for S in seqs}
    return [Sequence.from_elements(G, key) for key in sorted(reps)]


def oracle_max_zss_factors(S):
    """Definitional maximum factorization into nonempty zero-sum parts."""
    G = S.group
    zero = G.zero()

    def rec(key):
        if not key:
            return 0
        first = key[0]
        rest = key[1:]
        rest_terms = sorted({g: rest.count(g) for g in set(rest)}.items())
        best = 0
        for combo in itertools.product(*[range(m + 1) for _, m in rest_terms]):
            part = [first]
            for (g, _), c in zip(rest_terms, combo):
                part.extend([g] * c)
            total = zero
            for g in part:
                total = tuple(
                    (a + b) % f for a, b, f in zip(total, g, G.invariant_factors)
                )
            if total != zero:
                continue
            remainder = list(key)
            for g in part:
                remainder.remove(g)
            best = max(best, 1 + rec(tuple(remainder)))
        return best

    return rec(S.expanded())


def euler_phi(n):
    return sum(1 for e in range(1, n + 1) if math.gcd(e, n) == 1)


def group(*factors):
    return make_group(list(factors))
