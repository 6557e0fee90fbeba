"""Group arithmetic, homomorphisms, and automorphism enumeration."""

import itertools
import random

import pytest

from zerosum import (
    BadFactor,
    BadParams,
    CapExceeded,
    ChainViolation,
    DimensionMismatch,
    Homomorphism,
    ZeroElement,
    add,
    automorphisms,
    inductive_quotient,
    is_basis,
    is_independent,
    make_group,
    neg,
    order,
    parse_group,
    scale,
    subgroup_generated,
)
from zerosum.groups import index_tables
from oracles import oracle_automorphism_count


def test_make_group_basic():
    G = make_group([2, 4])
    assert (G.order, G.exponent, G.rank) == (8, 4, 2)
    assert G.invariant_factors == (2, 4)


def test_make_group_trivial():
    G = make_group([])
    assert (G.order, G.exponent, G.rank) == (1, 1, 0)
    assert G.zero() == ()


def test_make_group_rejects_broken_chain():
    with pytest.raises(ChainViolation):
        make_group([4, 2])


def test_make_group_rejects_small_factor():
    with pytest.raises(BadFactor):
        make_group([1, 2])


def test_parse_group():
    assert parse_group("2,4").invariant_factors == (2, 4)
    assert parse_group("").invariant_factors == ()
    assert str(parse_group("3,6")) == "3,6"


def test_add_examples():
    G = make_group([2, 4])
    assert add(G, (1, 3), (1, 2)) == (0, 1)
    assert add(G, (1, 2), (1, 2)) == (0, 0)
    C6 = make_group([6])
    assert add(C6, (5,), (5,)) == (4,)


def test_add_dimension_mismatch():
    G = make_group([2, 4])
    with pytest.raises(DimensionMismatch):
        add(G, (1,), (1, 2))


def test_scale_examples():
    G = make_group([2, 4])
    assert scale(G, -1, (1, 1)) == (1, 3)
    assert scale(G, 2, (1, 1)) == (0, 2)
    assert scale(G, 0, (1, 3)) == (0, 0)


def test_order_examples():
    G = make_group([2, 4])
    assert order(G, (0, 1)) == 4
    assert order(G, (1, 2)) == 2
    assert order(G, (0, 0)) == 1


def test_order_matches_repeated_addition():
    G = make_group([3, 6])
    for g in G.elements():
        k, acc = 1, g
        while acc != G.zero():
            acc = add(G, acc, g)
            k += 1
        assert order(G, g) == k


@pytest.mark.parametrize(
    "factors", [[2, 4], [4, 4], [8], [2, 2, 2], [3, 6], [8, 8], [64]]
)
def test_order_divides_exponent(factors):
    G = make_group(factors)
    for g in G.elements():
        assert G.exponent % order(G, g) == 0


def test_group_axioms_random():
    rng = random.Random(7)
    for factors in ([2, 4], [3, 6], [5], [2, 2, 2]):
        G = make_group(factors)
        els = list(G.elements())
        for _ in range(50):
            g, h, k = (rng.choice(els) for _ in range(3))
            assert add(G, add(G, g, h), k) == add(G, g, add(G, h, k))
            assert add(G, g, h) == add(G, h, g)
            assert add(G, g, G.zero()) == g
            assert add(G, g, neg(G, g)) == G.zero()


def test_is_independent_examples():
    G = make_group([2, 4])
    assert is_independent(G, [(1, 0), (0, 1)])
    assert not is_independent(G, [(1, 1), (0, 1)])
    assert is_independent(G, [(1, 2), (1, 1)])


def test_is_independent_rejects_zero():
    G = make_group([2, 4])
    with pytest.raises(ZeroElement):
        is_independent(G, [(0, 0), (0, 1)])


def test_is_independent_matches_definitional_search():
    # every relation sum(k_i g_i) = 0 must force each k_i g_i = 0
    for factors in ([2, 4], [2, 2, 2]):
        G = make_group(factors)
        els = [e for e in G.elements() if e != G.zero()]
        for size in (1, 2, 3):
            for elems in itertools.combinations(els, size):
                expected = True
                boxes = [range(order(G, g)) for g in elems]
                for ks in itertools.product(*boxes):
                    total = G.zero()
                    for k, g in zip(ks, elems):
                        total = add(G, total, scale(G, k, g))
                    if total == G.zero() and any(
                        scale(G, k, g) != G.zero() for k, g in zip(ks, elems)
                    ):
                        expected = False
                assert is_independent(G, list(elems)) == expected, elems


def test_is_basis_examples():
    G = make_group([2, 4])
    assert is_basis(G, [(1, 0), (0, 1)])
    assert not is_basis(G, [(1, 1), (0, 1)])
    G22 = make_group([2, 2])
    assert is_basis(G22, [(1, 0), (1, 1)])


def test_basis_orders_multiply_to_group_order():
    for factors in ([2, 4], [3, 3], [2, 6]):
        G = make_group(factors)
        els = [e for e in G.elements() if e != G.zero()]
        for pair in itertools.permutations(els, 2):
            if is_basis(G, pair):
                assert order(G, pair[0]) * order(G, pair[1]) == G.order


def test_subgroup_generated_examples():
    G = make_group([2, 4])
    assert subgroup_generated(G, [(0, 2)]) == {(0, 0), (0, 2)}
    assert subgroup_generated(G, [(1, 1)]) == {(0, 0), (1, 1), (0, 2), (1, 3)}
    assert subgroup_generated(G, []) == {(0, 0)}


def test_inductive_quotient_examples():
    phi = inductive_quotient(2, 2)
    assert phi.apply((1, 3)) == (1, 1)
    kernel = [g for g in phi.source.elements() if phi.apply(g) == phi.target.zero()]
    assert kernel == [(0, 0), (0, 2)]
    assert inductive_quotient(3, 2).apply((2, 5)) == (2, 2)


def test_inductive_quotient_rejects_bad_params():
    with pytest.raises(BadParams):
        inductive_quotient(1, 3)


@pytest.mark.parametrize(
    "m,n", [(2, 1), (2, 2), (2, 4), (3, 2), (4, 2), (2, 8), (4, 4)]
)
def test_inductive_quotient_surjective_with_kernel_n(m, n):
    phi = inductive_quotient(m, n)
    images = set()
    kernel = 0
    for g in phi.source.elements():
        img = phi.apply(g)
        images.add(img)
        if img == phi.target.zero():
            kernel += 1
    assert len(images) == phi.target.order
    assert kernel == n


def test_homomorphism_law_random():
    rng = random.Random(11)
    phi = inductive_quotient(3, 2)
    els = list(phi.source.elements())
    for _ in range(100):
        g, h = rng.choice(els), rng.choice(els)
        assert phi.apply(add(phi.source, g, h)) == add(
            phi.target, phi.apply(g), phi.apply(h)
        )


def test_homomorphism_rejects_ill_defined():
    C2 = make_group([2])
    C4 = make_group([4])
    with pytest.raises(BadParams):
        Homomorphism(C2, C4, ((1,),))  # 2 * (1,) = (2,) != 0 in C4


@pytest.mark.parametrize(
    "factors,count", [([2, 2], 6), ([4], 2), ([2, 4], 8)]
)
def test_automorphism_counts_match_bijection_oracle(factors, count):
    G = make_group(factors)
    auts = automorphisms(G)
    assert len(auts) == count
    assert oracle_automorphism_count(G) == count


def test_automorphisms_form_a_group():
    for factors in ([2, 2], [2, 4], [6], [3, 3]):
        G = make_group(factors)
        auts = automorphisms(G)
        images = {a.images for a in auts}
        # the standard basis is the identity; a after b maps b's images by a
        identity = tuple(
            tuple(int(i == j) for j in range(G.rank)) for i in range(G.rank)
        )
        assert identity in images
        for a in auts:
            for b in auts:
                assert tuple(a.apply(img) for img in b.images) in images
            inverses = [
                b for b in auts if tuple(a.apply(img) for img in b.images) == identity
            ]
            assert len(inverses) == 1


def test_automorphisms_cap():
    with pytest.raises(CapExceeded):
        automorphisms(make_group([100]), cap=64)


def test_automorphisms_cap_checked_after_caching():
    G = make_group([3, 3])
    assert len(automorphisms(G, cap=9)) == 48
    with pytest.raises(CapExceeded):
        automorphisms(G, cap=8)


@pytest.mark.parametrize("factors", [[], [7], [2, 4], [3, 6], [2, 2, 4]])
def test_tables_shift_matches_addition_table(factors):
    # the masked-rotate translate against the per-element addition table
    T = index_tables(make_group(factors))
    n = len(T.elements)
    rng = random.Random(n)
    masks = [1 << r for r in range(n)] + [rng.getrandbits(n) for _ in range(50)]
    for R in masks:
        for i in range(n):
            expected = 0
            for r in range(n):
                if R >> r & 1:
                    expected |= 1 << T.add[r][i]
            assert T.shift(R, i) == expected, (R, i)


def test_automorphisms_deterministic_order():
    G = make_group([2, 4])
    first = [a.images for a in automorphisms(G)]
    second = [a.images for a in automorphisms(G)]
    assert first == second == sorted(first)
