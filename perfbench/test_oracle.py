"""Tests for the benchmark's own checkers, on cases known by hand.

    python3 -m pytest perfbench/test_oracle.py -q

None of these import zerosum: the checkers must stand apart from it.
"""

import itertools
import math
import random
import types

import oracle
import tracer


def brute_ml_mzss(factors):
    """Every minimal zero-sum sequence of length D, over all multisets."""
    d = 1 + sum(f - 1 for f in factors)
    return {
        seq
        for seq in itertools.combinations_with_replacement(oracle.elements(factors), d)
        if oracle.is_mzss(factors, seq)
    }


def test_subset_sum_test_on_hand_cases():
    assert oracle.is_mzss((5,), ((1,),) * 5)
    assert not oracle.is_mzss((5,), ((1,),) * 4)  # not zero-sum
    assert not oracle.is_mzss((6,), ((2,),) * 3 + ((3,),) * 2)  # 2+2+2 is a proper part
    assert not oracle.is_mzss((4,), ())
    assert oracle.is_mzss((2, 2), ((0, 1), (1, 0), (1, 1)))
    assert not oracle.is_mzss((2, 2), ((0, 1), (0, 1), (1, 0), (1, 0)))
    # [0,1]^2 [0,0]: the zero term alone is a proper zero-sum part
    assert oracle.zero_sum_parts((2, 2), ((0, 0), (0, 1), (0, 1))) == 4


def test_cyclic_ml_mzss_are_phi_n():
    for n in (2, 3, 4, 5, 6, 7, 8):
        found = brute_ml_mzss((n,))
        units = [e for e in range(1, n) if math.gcd(e, n) == 1]
        assert found == {((e,),) * n for e in units}
        assert len(found) == sum(1 for e in range(1, n + 1) if math.gcd(e, n) == 1)


def test_families_match_brute_force():
    for m, n in ((2, 1), (2, 2), (3, 1), (2, 3)):
        type1, type2 = oracle.ml_mzss_families(m, n)
        assert type1 | type2 == brute_ml_mzss((m, m * n))


def test_family_and_orbit_counts():
    type1, type2 = oracle.ml_mzss_families(2, 2)
    assert len(type1 | type2) == 8
    assert len(oracle.orbit_representatives((2, 4), type1 | type2)) == 1
    assert oracle.orbit_representatives((2, 4), type1 | type2) == [
        ((0, 1), (0, 1), (0, 1), (1, 0), (1, 1))
    ]
    type1, type2 = oracle.ml_mzss_families(3, 2)
    assert len(type1 | type2) == 240


def test_automorphism_counts():
    assert len(oracle.automorphisms((2, 2))) == 6  # GL_2(F_2)
    assert len(oracle.automorphisms((5, 5))) == 480  # GL_2(F_5)
    assert len(oracle.automorphisms((2, 4))) == 8
    for n in (5, 8, 9, 12):
        assert len(oracle.automorphisms((n,))) == sum(
            1 for e in range(1, n) if math.gcd(e, n) == 1
        )
    for a in oracle.automorphisms((2, 4)):
        for g, h in itertools.product(oracle.elements((2, 4)), repeat=2):
            assert a[oracle.add((2, 4), g, h)] == oracle.add((2, 4), a[g], a[h])


def test_zero_sum_multiset_count():
    assert oracle.zero_sum_multiset_count((2,), 2) == 2  # 00 and 11
    for factors, length in (((3,), 4), ((2, 2), 3), ((3, 3), 4)):
        brute = sum(
            1
            for seq in itertools.combinations_with_replacement(oracle.elements(factors), length)
            if oracle.is_zero_sum(factors, seq)
        )
        assert oracle.zero_sum_multiset_count(factors, length) == brute


def test_random_witnesses_give_ml_mzss():
    rng = random.Random(0)
    for m, n in ((2, 2), (3, 2), (2, 4), (4, 2)):
        factors = (m, m * n)
        type1, type2 = oracle.ml_mzss_families(m, n)
        for _ in range(5):
            seq = oracle.expand_type1(factors, *oracle.random_type1(rng, m, n))
            assert seq in type1 and oracle.is_mzss(factors, seq)
            seq = oracle.expand_type2(factors, *oracle.random_type2(rng, m, n))
            assert seq in type2 and oracle.is_mzss(factors, seq)


def test_sequence_text_round_trip():
    text = "[0,1]^3 [1,0] [1,1]"
    seq = oracle.parse_sequence(text)
    assert seq == ((0, 1), (0, 1), (0, 1), (1, 0), (1, 1))
    assert oracle.format_sequence(seq) == text


def test_missing_function_is_reported_not_fatal():
    def classify(G, S):
        return types.SimpleNamespace(type1_witnesses=(1,), type2_witnesses=())

    cli = types.SimpleNamespace()
    search = types.SimpleNamespace()
    groups = types.SimpleNamespace()
    structure = types.SimpleNamespace(classify=classify)
    t = tracer.Tracer()
    tracer.install(t, cli, search, groups, structure)
    structure.classify("G", "S")
    structure.classify("G", "S")
    metrics = t.metrics()
    assert metrics["search.davenport_s"] == {"value": None, "unit": "s", "missing": True}
    assert metrics["search.enumerate_nodes"]["value"] is None
    assert metrics["search.canonicalize_s"]["value"] is None
    assert metrics["structure.classify_calls"] == {"value": 2, "unit": "count"}
    assert metrics["structure.witnesses"]["value"] == 2
    assert metrics["structure.classify_cold_s"]["value"] > 0
