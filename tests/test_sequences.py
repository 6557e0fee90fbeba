"""Sequence parsing, predicates, factor counts, and fixed-length extraction."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from zerosum import (
    BadParams,
    CapExceeded,
    DimensionMismatch,
    NotZeroSum,
    ParseError,
    Sequence,
    extract_zero_sum_of_length,
    format_sequence,
    is_mzss,
    is_zero_sum_free,
    make_group,
    parse_sequence,
    reachable_subsums,
    sigma,
    zss_max_factors,
)
from zerosum.groups import index_tables
from zerosum.sequences import _lex_least_fixed_sum, _max_factors
from oracles import (
    oracle_is_mzss,
    oracle_is_zero_sum_free,
    oracle_lex_least_fixed_sum,
    oracle_max_zss_factors,
    packed_lex_least_fixed_sum,
)

G24 = make_group([2, 4])
GROUP_POOL = [make_group(f) for f in ([2, 4], [3, 3], [6], [2, 2], [4], [])]


def test_parse_examples():
    S = parse_sequence(G24, "[0,1]^3 [1,2] [1,3]")
    assert len(S) == 5
    assert S.terms == (((0, 1), 3), ((1, 2), 1), ((1, 3), 1))
    assert str(parse_sequence(G24, "[1,5]")) == "[1,1]"
    assert parse_sequence(G24, "[1,1]^1") == parse_sequence(G24, "[1,1]")
    empty = parse_sequence(G24, "")
    assert len(empty) == 0 and str(empty) == ""


def test_parse_canonicalizes_order_and_merges():
    S = parse_sequence(G24, "[1,3] [0,1] [0,1]^2 [1,2]")
    assert str(S) == "[0,1]^3 [1,2] [1,3]"


def test_parse_reduces_negative_residues():
    assert str(parse_sequence(G24, "[-1,-1]")) == "[1,3]"
    assert str(parse_sequence(G24, "[3,9]^2")) == "[1,1]^2"


def test_parse_rejects_garbage():
    for bad in ("[1,2", "1,2]", "[1,2]^0", "[1,2]^-1", "[a,b]", "[1,2]]"):
        with pytest.raises(ParseError):
            parse_sequence(G24, bad)
    with pytest.raises(DimensionMismatch):
        parse_sequence(G24, "[1]")


@st.composite
def sequences(draw):
    G = draw(st.sampled_from(GROUP_POOL))
    els = list(G.elements())
    elems = draw(st.lists(st.sampled_from(els), max_size=8))
    return Sequence.from_elements(G, elems)


@settings(deadline=None)
@given(sequences())
def test_parse_format_round_trip(S):
    assert parse_sequence(S.group, format_sequence(S)) == S


def test_sigma_examples():
    assert sigma(parse_sequence(G24, "[0,1]^3 [1,2] [1,3]")) == (0, 0)
    assert sigma(parse_sequence(G24, "")) == (0, 0)
    C6 = make_group([6])
    assert sigma(parse_sequence(C6, "[1]^6")) == (0,)


def test_reachable_subsums_examples():
    C4 = make_group([4])
    assert reachable_subsums(parse_sequence(C4, "[1]^2")) == {(1,), (2,)}
    C22 = make_group([2, 2])
    assert reachable_subsums(parse_sequence(C22, "[1,0] [0,1]")) == {
        (1, 0),
        (0, 1),
        (1, 1),
    }
    C3 = make_group([3])
    assert reachable_subsums(parse_sequence(C3, "[1] [2]")) == {
        (0,),
        (1,),
        (2,),
    }


def test_full_sum_always_reachable():
    rng = random.Random(17)
    for _ in range(30):
        G = rng.choice(GROUP_POOL[:4])
        els = list(G.elements())
        S = Sequence.from_elements(G, [rng.choice(els) for _ in range(rng.randrange(1, 7))])
        assert sigma(S) in reachable_subsums(S)


def test_reachable_subsums_monotone():
    rng = random.Random(3)
    for _ in range(40):
        G = rng.choice(GROUP_POOL[:4])
        els = list(G.elements())
        elems = [rng.choice(els) for _ in range(rng.randrange(1, 8))]
        S = Sequence.from_elements(G, elems)
        sub = Sequence.from_elements(G, rng.sample(elems, rng.randrange(len(elems))))
        assert reachable_subsums(sub) <= reachable_subsums(S)


def test_is_zero_sum_free_examples():
    C5 = make_group([5])
    assert is_zero_sum_free(parse_sequence(C5, "[1]^4"))
    assert not is_zero_sum_free(parse_sequence(C5, "[1]^5"))
    assert is_zero_sum_free(parse_sequence(G24, "[0,1]^3 [1,2]"))
    assert is_zero_sum_free(parse_sequence(G24, ""))


def test_is_mzss_examples():
    C22 = make_group([2, 2])
    assert is_mzss(parse_sequence(C22, "[1,0] [0,1] [1,1]"))
    C4 = make_group([4])
    assert is_mzss(parse_sequence(C4, "[1]^4"))
    assert is_mzss(parse_sequence(C4, "[2] [1] [1]"))
    assert is_mzss(parse_sequence(C4, "[2]^2"))
    # zero in the support of a longer zero-sum sequence breaks minimality
    assert not is_mzss(parse_sequence(C4, "[0] [1] [1] [2]"))
    assert is_mzss(parse_sequence(C4, "[0]"))
    assert not is_mzss(parse_sequence(C4, ""))
    assert not is_mzss(parse_sequence(C4, "[1]^3"))


@settings(deadline=None, max_examples=300)
@given(sequences())
def test_predicates_agree_with_definitional_oracle(S):
    assert is_zero_sum_free(S) == oracle_is_zero_sum_free(S)
    assert is_mzss(S) == oracle_is_mzss(S)


def test_zss_max_factors_examples():
    C3 = make_group([3])
    assert zss_max_factors(parse_sequence(C3, "[1]^6")) == 2
    C22 = make_group([2, 2])
    assert zss_max_factors(parse_sequence(C22, "[1,0] [0,1] [1,1]")) == 1
    C2 = make_group([2])
    assert zss_max_factors(parse_sequence(C2, "[0]^3")) == 3
    assert zss_max_factors(parse_sequence(C2, "")) == 0


@pytest.mark.parametrize(
    "n,text,k", [(2, "[1]^1000", 500), (2, "[1]^1500", 750), (3, "[1]^1200", 400)]
)
def test_zss_max_factors_past_the_recursion_limit(n, text, k):
    # the chain DP removes one copy per step, so its depth is the length
    assert zss_max_factors(parse_sequence(make_group([n]), text)) == k


def test_zss_max_factors_rejects_nonzero_sum():
    with pytest.raises(NotZeroSum):
        zss_max_factors(parse_sequence(G24, "[0,1]"))


def test_zss_max_factors_matches_oracle():
    rng = random.Random(9)
    checked = 0
    while checked < 25:
        G = rng.choice(GROUP_POOL[:4])
        els = list(G.elements())
        elems = [rng.choice(els) for _ in range(rng.randrange(1, 8))]
        S = Sequence.from_elements(G, elems)
        if sigma(S) != G.zero():
            continue
        checked += 1
        assert zss_max_factors(S) == oracle_max_zss_factors(S)
    # every nonempty zero-sum multiset up to the given length, through one
    # memo per group as the tm1 scan shares it
    exhaustive = 0
    for factors, max_len in (([2, 2], 7), ([6], 7), ([2, 4], 6), ([3, 3], 5)):
        G = make_group(factors)
        T = index_tables(G)
        memo = {}
        for length in range(1, max_len + 1):
            for elems in itertools.combinations_with_replacement(T.elements, length):
                S = Sequence.from_elements(G, elems)
                if sigma(S) != G.zero():
                    continue
                exhaustive += 1
                counts = tuple(S.multiplicity(g) for g in T.elements)
                assert _max_factors(T, counts, memo) == oracle_max_zss_factors(S), S
    assert exhaustive == 994


def test_sequence_predicates_enforce_arithmetic_cap():
    G = make_group([257])
    S = Sequence.from_elements(G, [(1,)] * 257)
    for check in (
        is_mzss,
        is_zero_sum_free,
        reachable_subsums,
        zss_max_factors,
        lambda S: extract_zero_sum_of_length(S, 3),
    ):
        with pytest.raises(CapExceeded):
            check(S)


def test_extract_zero_sum_of_length_examples():
    C3 = make_group([3])
    S = parse_sequence(C3, "[0] [1]^2 [2]^2")
    assert str(extract_zero_sum_of_length(S, 3)) == "[0] [1] [2]"
    C2 = make_group([2])
    assert str(extract_zero_sum_of_length(parse_sequence(C2, "[1]^3"), 2)) == "[1]^2"
    assert extract_zero_sum_of_length(parse_sequence(C3, "[1]^2"), 3) is None


def test_extract_rejects_bad_length():
    C3 = make_group([3])
    with pytest.raises(BadParams):
        extract_zero_sum_of_length(parse_sequence(C3, "[1]"), 0)


def test_extract_returns_lex_least_witness():
    C6 = make_group([6])
    # both [1] [5] and [2] [4] and [3] [3] are zero-sum pairs; least wins
    S = parse_sequence(C6, "[1] [2] [3]^2 [4] [5]")
    assert str(extract_zero_sum_of_length(S, 2)) == "[1] [5]"


def test_extract_witness_is_subsequence():
    rng = random.Random(5)
    C7 = make_group([7])
    for _ in range(200):
        S = Sequence.from_elements(C7, [(rng.randrange(7),) for _ in range(9)])
        T = extract_zero_sum_of_length(S, 4)
        if T is not None:
            assert len(T) == 4 and sigma(T) == (0,)
            assert all(T.multiplicity(g) <= S.multiplicity(g) for g in T.support())


@pytest.mark.parametrize("factors", [[7], [10], [2, 4], [3, 6], [2, 2, 2], [4, 4]])
def test_lex_least_fixed_sum_matches_oracle(factors):
    # seeded multisets of length <= 12, every pick length, random targets
    G = make_group(factors)
    T = index_tables(G)
    rng = random.Random(G.order)
    for _ in range(40):
        weights = sorted(rng.randrange(G.order) for _ in range(rng.randrange(13)))
        copies = [T.elements[w] for w in weights]
        for length in range(len(weights) + 2):
            target = rng.randrange(G.order)
            assert _lex_least_fixed_sum(weights, T, length, target) == (
                oracle_lex_least_fixed_sum(G, copies, length, T.elements[target])
            ), (weights, length, target)


def test_lex_least_fixed_sum_matches_packed_reference():
    # inputs past the reach of itertools.combinations, held against the
    # packed kernel's first form
    def check(weights, T, length, target):
        got = _lex_least_fixed_sum(weights, T, length, target)
        assert got == packed_lex_least_fixed_sum(weights, T, length, target), (
            T.group, weights, length, target,
        )
        return got

    # the egz draw stream: sorted randrange(n) draws, length n, target 0
    for n, trials in [*((n, 12) for n in range(2, 17)), (64, 3), (256, 1)]:
        T = index_tables(make_group([n]))
        for seed in (0, 7, 111):
            rng = random.Random(seed)
            for _ in range(trials):
                weights = sorted(rng.randrange(n) for _ in range(2 * n - 1))
                assert check(weights, T, n, 0) is not None
                check(weights, T, rng.randrange(2 * n + 1), rng.randrange(n))
    for factors in ([2, 4], [3, 3], [2, 2, 2], [4, 8], [2, 2, 2, 2]):
        G = make_group(factors)
        T, N = index_tables(G), G.order
        rng = random.Random(N)
        cases = []
        for L in [0, 1, 3 * N, *(rng.randrange(3 * N + 1) for _ in range(8))]:
            cases.append(sorted(rng.randrange(N) for _ in range(L)))
        # long runs of one element, the zero element included
        for w in (0, 1, N - 1):
            cases.append([w] * (2 * N + 1))
            tail = sorted(rng.randrange(N) for _ in range(N))
            cases.append(sorted([w] * rng.randrange(N, 3 * N) + tail))
        # copies out of canonical order
        for weights in cases[:]:
            shuffled = weights[:]
            rng.shuffle(shuffled)
            cases.append(shuffled)
        for weights in cases:
            L = len(weights)
            for length in sorted({0, 1, L, L + 1, rng.randrange(L + 1)}):
                check(weights, T, length, 0)
                check(weights, T, length, rng.randrange(N))
        # several lengths, in mixed order, on one Tables against fresh ones
        shared = index_tables.__wrapped__(G)
        weights = sorted(rng.randrange(N) for _ in range(2 * N))
        lengths = [*range(2 * N + 2), *range(2 * N + 1, -1, -3)]
        rng.shuffle(lengths)
        for length in lengths:
            target = rng.randrange(N)
            got = check(weights, shared, length, target)
            fresh = index_tables.__wrapped__(G)
            assert got == _lex_least_fixed_sum(weights, fresh, length, target)


@pytest.mark.parametrize("factors", [[2, 2], [2, 4], [3, 3], [6]])
def test_completion_of_maximal_zero_sum_free_is_minimal(factors):
    # every zero-sum-free U of length D - 1, extended by -sigma(U), is a mzss
    from zerosum import davenport_closed_form, neg

    G = make_group(factors)
    D = davenport_closed_form(G)
    els = list(G.elements())
    for elems in itertools.combinations_with_replacement(els, D - 1):
        U = Sequence.from_elements(G, elems)
        if not is_zero_sum_free(U):
            continue
        completed = Sequence.from_elements(G, elems + (neg(G, sigma(U)),))
        assert is_mzss(completed)
        assert len(completed) == D
