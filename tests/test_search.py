"""Davenport search, ml-mzss enumeration, and orbit canonicalization."""

import random
from concurrent.futures import Future

import pytest

from zerosum import search
from zerosum import (
    BadParams,
    CapExceeded,
    apply_hom,
    automorphisms,
    canonicalize,
    count_ml_mzss,
    davenport,
    davenport_closed_form,
    enumerate_ml_mzss,
    enumerate_with_report,
    is_mzss,
    make_group,
    parse_sequence,
)
from oracles import euler_phi, oracle_is_mzss, oracle_ml_mzss

# totals computed with the definitional oracle (all multisets of length D,
# definitional minimality check) before the search engine was written
ML_MZSS_TOTALS = {
    (2, 2): 1,
    (6,): 2,
    (3, 3): 24,
    (2, 4): 8,
    (2, 6): 24,
    (3, 6): 240,
    (2, 8): 48,
    (4, 4): 144,
}

# (orbits, DFS nodes) of count_ml_mzss for the same groups; the node counts
# pin the search order and its pruning
ML_MZSS_ORBITS_NODES = {
    (2, 2): (1, 7),
    (6,): (1, 30),
    (3, 3): (1, 185),
    (2, 4): (1, 95),
    (2, 6): (3, 795),
    (3, 6): (5, 10267),
    (2, 8): (3, 4639),
    (4, 4): (2, 4123),
}


def test_davenport_values_and_witnesses():
    # the exact witness and node count pin the search order and its pruning
    cases = [
        ([2, 2], 3, "[0,1] [1,0] [1,1]", 7),
        ([2, 4], 5, "[0,1]^3 [1,0] [1,1]", 95),
        ([10], 10, "[1]^10", 46),
        ([3, 6], 8, "[0,1]^5 [1,0]^2 [1,1]", 9962),
        ([2, 2, 2], 4, "[0,0,1] [0,1,0] [1,0,0] [1,1,1]", 57),
        ([], 1, "[]", 1),
    ]
    for factors, d, witness, nodes in cases:
        G = make_group(factors)
        result = davenport(G)
        assert result.d == d
        assert len(result.witness) == d
        assert is_mzss(result.witness)
        assert result.d >= G.exponent
        assert (str(result.witness), result.nodes) == (witness, nodes)


def test_davenport_trivial_group():
    G = make_group([])
    result = davenport(G)
    assert result.d == 1
    assert str(result.witness) == "[]"


@pytest.mark.parametrize("n", [2, 5, 12, 24, 48, 64])
def test_davenport_cyclic_equals_n(n):
    assert davenport(make_group([n])).d == n


def test_davenport_rank_three():
    # the search itself is rank-agnostic; only enumeration is rank-limited
    result = davenport(make_group([2, 2, 2]))
    assert result.d == 4
    assert is_mzss(result.witness)


def test_davenport_cap():
    with pytest.raises(CapExceeded):
        davenport(make_group([9, 9]), cap=64)


def test_davenport_deterministic():
    G = make_group([3, 6])
    a, b = davenport(G), davenport(G)
    assert (a.d, a.witness, a.nodes) == (b.d, b.witness, b.nodes)


def test_closed_form():
    assert davenport_closed_form(make_group([3, 6])) == 8
    assert davenport_closed_form(make_group([7])) == 7
    assert davenport_closed_form(make_group([])) == 1
    with pytest.raises(BadParams):
        davenport_closed_form(make_group([2, 2, 2]))


def test_enumerate_c2c2_unique():
    G = make_group([2, 2])
    seqs = list(enumerate_ml_mzss(G))
    assert [str(s) for s in seqs] == ["[0,1] [1,0] [1,1]"]


def test_enumerate_c6():
    G = make_group([6])
    assert [str(s) for s in enumerate_ml_mzss(G)] == ["[1]^6", "[5]^6"]


def test_enumerate_c3c3_contains_known_member():
    G = make_group([3, 3])
    member = parse_sequence(G, "[1,0]^2 [0,1]^2 [1,1]")
    seqs = list(enumerate_ml_mzss(G))
    assert member in seqs


def test_enumerate_trivial_group():
    G = make_group([])
    assert [str(s) for s in enumerate_ml_mzss(G)] == ["[]"]


@pytest.mark.parametrize("factors,total", sorted(ML_MZSS_TOTALS.items()))
def test_enumeration_totals_frozen(factors, total):
    G = make_group(list(factors))
    seqs = list(enumerate_ml_mzss(G))
    assert len(seqs) == total
    report = count_ml_mzss(G)
    assert (report.total, report.orbits, report.nodes) == (
        (total,) + ML_MZSS_ORBITS_NODES[factors]
    )


@pytest.mark.parametrize("factors", [(2, 4), (3, 3), (6,), (2, 6)])
def test_enumeration_matches_definitional_oracle(factors):
    G = make_group(list(factors))
    fast = list(enumerate_ml_mzss(G))
    slow = oracle_ml_mzss(G, davenport_closed_form(G))
    assert fast == slow


def test_enumeration_lex_order_no_duplicates():
    G = make_group([3, 6])
    seqs = [s.expanded() for s in enumerate_ml_mzss(G)]
    assert seqs == sorted(seqs)
    assert len(seqs) == len(set(seqs))


def test_every_emitted_sequence_is_mzss():
    G = make_group([2, 8])
    rng = random.Random(1)
    seqs = list(enumerate_ml_mzss(G))
    D = davenport_closed_form(G)
    for s in seqs:
        assert len(s) == D
        assert is_mzss(s)
    for s in rng.sample(seqs, 10):
        assert oracle_is_mzss(s)


@pytest.mark.parametrize("factors", [(2, 6), (3, 3), (2, 4), (12,)])
def test_enumeration_closed_under_automorphisms(factors):
    G = make_group(list(factors))
    emitted = set(enumerate_ml_mzss(G))
    for alpha in automorphisms(G):
        for s in emitted:
            assert apply_hom(alpha, s) in emitted


def test_enumeration_declines_rank_three():
    with pytest.raises(CapExceeded):
        list(enumerate_ml_mzss(make_group([2, 2, 2])))


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_ml_mzss(make_group([7, 7]), cap=36))


def test_canonicalize_examples():
    G22 = make_group([2, 2])
    s = parse_sequence(G22, "[0,1] [1,0] [1,1]")
    assert canonicalize(G22, s) == s
    C6 = make_group([6])
    assert str(canonicalize(C6, parse_sequence(C6, "[5]^6"))) == "[1]^6"


def test_canonicalize_idempotent_and_orbit_constant():
    rng = random.Random(2)
    G = make_group([2, 4])
    seqs = list(enumerate_ml_mzss(G))
    for s in seqs:
        c = canonicalize(G, s)
        assert canonicalize(G, c) == c
        for alpha in rng.sample(automorphisms(G), 3):
            assert canonicalize(G, apply_hom(alpha, s)) == c


@pytest.mark.parametrize("n", range(2, 13))
def test_cyclic_counts_phi_one_orbit(n):
    report = count_ml_mzss(make_group([n]))
    assert report.total == euler_phi(n)
    assert report.orbits == 1


def test_count_report_consistency():
    G = make_group([2, 4])
    report = count_ml_mzss(G)
    assert report.total == 8 and report.orbits == 1
    assert [str(s) for s in report.representatives] == ["[0,1]^3 [1,0] [1,1]"]
    payload = report.to_json()
    assert set(payload) == {
        "group",
        "D",
        "total",
        "orbits",
        "representatives",
        "elapsed_ms",
        "nodes",
    }
    assert payload["group"] == "2,4" and payload["D"] == 5


def test_orbit_sizes_sum_to_total():
    G = make_group([3, 3])
    seqs = list(enumerate_ml_mzss(G))
    report = count_ml_mzss(G)
    orbits = {}
    for s in seqs:
        orbits.setdefault(canonicalize(G, s), []).append(s)
    assert len(orbits) == report.orbits
    assert sum(len(v) for v in orbits.values()) == report.total
    assert sorted(orbits) == list(report.representatives)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


@pytest.mark.parametrize("cpus", [4, None])
def test_workers_capped_at_roots_and_cpus(monkeypatch, cpus):
    # no process is started: the pool is replaced and the CPU count pinned
    monkeypatch.setattr(search, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
    for factors, pool_size in (([2, 4], 4), ([3], 2)):
        G = make_group(factors)
        _InlinePool.sizes.clear()
        many = list(enumerate_ml_mzss(G, workers=10_000))
        # 2,4 has 7 roots and 3 has 2; an unknown CPU count means one worker
        assert _InlinePool.sizes == ([pool_size] if cpus else [])
        assert many == list(enumerate_ml_mzss(G, workers=1))


def test_workers_do_not_change_output():
    G = make_group([3, 6])
    seq_one = list(enumerate_ml_mzss(G, workers=1))
    seq_four = list(enumerate_ml_mzss(G, workers=4))
    assert seq_one == seq_four
    _, rep_one = enumerate_with_report(G, workers=1)
    _, rep_four = enumerate_with_report(G, workers=4)
    assert rep_one.total == rep_four.total
    assert rep_one.nodes == rep_four.nodes
    assert rep_one.representatives == rep_four.representatives
