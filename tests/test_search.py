"""Davenport search, ml-mzss enumeration, and orbit canonicalization."""

import io
import math
import random
import subprocess
import sys
from concurrent.futures import Executor, Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from zerosum import cli, groups, search, structure
from zerosum import (
    BadParams,
    CapExceeded,
    WorkerFailed,
    Sequence,
    automorphisms,
    count_ml_mzss,
    davenport,
    davenport_closed_form,
    enumerate_ml_mzss,
    enumerate_with_report,
    is_mzss,
    make_group,
    parse_sequence,
)
from zerosum.groups import index_tables
from oracles import (
    euler_phi,
    oracle_automorphism_images,
    oracle_davenport,
    oracle_is_mzss,
    oracle_ml_mzss,
    oracle_orbit_key,
    oracle_orbit_representatives,
    oracle_zero_sum_free,
    plain_enumeration,
    recursive_search,
    stabiliser,
)

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
# pin the orderly search: its order, its pruning and its canonicity cut
ML_MZSS_ORBITS_NODES = {
    (2, 2): (1, 4),
    (6,): (1, 21),
    (3, 3): (1, 22),
    (2, 4): (1, 39),
    (2, 6): (3, 195),
    (3, 6): (5, 677),
    (2, 8): (3, 791),
    (4, 4): (2, 214),
}

# (total, orbits, representatives) of count_ml_mzss for every group of rank
# <= 2 with |G| <= 36, measured with the full enumeration and a least image
# over all of Aut(G) per sequence
ML_MZSS_ORBIT_TABLE = {
    (): (1, 1, ("[]",)),
    (2,): (1, 1, ("[1]^2",)),
    (3,): (2, 1, ("[1]^3",)),
    (4,): (2, 1, ("[1]^4",)),
    (5,): (4, 1, ("[1]^5",)),
    (6,): (2, 1, ("[1]^6",)),
    (7,): (6, 1, ("[1]^7",)),
    (8,): (4, 1, ("[1]^8",)),
    (9,): (6, 1, ("[1]^9",)),
    (10,): (4, 1, ("[1]^10",)),
    (11,): (10, 1, ("[1]^11",)),
    (12,): (4, 1, ("[1]^12",)),
    (13,): (12, 1, ("[1]^13",)),
    (14,): (6, 1, ("[1]^14",)),
    (15,): (8, 1, ("[1]^15",)),
    (16,): (8, 1, ("[1]^16",)),
    (17,): (16, 1, ("[1]^17",)),
    (18,): (6, 1, ("[1]^18",)),
    (19,): (18, 1, ("[1]^19",)),
    (20,): (8, 1, ("[1]^20",)),
    (21,): (12, 1, ("[1]^21",)),
    (22,): (10, 1, ("[1]^22",)),
    (23,): (22, 1, ("[1]^23",)),
    (24,): (8, 1, ("[1]^24",)),
    (25,): (20, 1, ("[1]^25",)),
    (26,): (12, 1, ("[1]^26",)),
    (27,): (18, 1, ("[1]^27",)),
    (28,): (12, 1, ("[1]^28",)),
    (29,): (28, 1, ("[1]^29",)),
    (30,): (8, 1, ("[1]^30",)),
    (31,): (30, 1, ("[1]^31",)),
    (32,): (16, 1, ("[1]^32",)),
    (33,): (20, 1, ("[1]^33",)),
    (34,): (16, 1, ("[1]^34",)),
    (35,): (24, 1, ("[1]^35",)),
    (36,): (12, 1, ("[1]^36",)),
    (2, 2): (1, 1, ("[0,1] [1,0] [1,1]",)),
    (2, 4): (8, 1, ("[0,1]^3 [1,0] [1,1]",)),
    (2, 6): (
        24,
        3,
        (
            "[0,1]^5 [1,0] [1,1]",
            "[0,1]^5 [1,2] [1,5]",
            "[0,1]^3 [1,0] [1,1]^3",
        ),
    ),
    (2, 8): (
        48,
        3,
        (
            "[0,1]^7 [1,0] [1,1]",
            "[0,1]^7 [1,2] [1,7]",
            "[0,1]^5 [1,0] [1,1]^3",
        ),
    ),
    (2, 10): (
        96,
        5,
        (
            "[0,1]^9 [1,0] [1,1]",
            "[0,1]^9 [1,2] [1,9]",
            "[0,1]^9 [1,3] [1,8]",
            "[0,1]^7 [1,0] [1,1]^3",
            "[0,1]^5 [1,0] [1,1]^5",
        ),
    ),
    (2, 12): (
        80,
        5,
        (
            "[0,1]^11 [1,0] [1,1]",
            "[0,1]^11 [1,2] [1,11]",
            "[0,1]^11 [1,3] [1,10]",
            "[0,1]^9 [1,0] [1,1]^3",
            "[0,1]^7 [1,0] [1,1]^5",
        ),
    ),
    (2, 14): (
        216,
        7,
        (
            "[0,1]^13 [1,0] [1,1]",
            "[0,1]^13 [1,2] [1,13]",
            "[0,1]^13 [1,3] [1,12]",
            "[0,1]^13 [1,4] [1,11]",
            "[0,1]^11 [1,0] [1,1]^3",
            "[0,1]^9 [1,0] [1,1]^5",
            "[0,1]^7 [1,0] [1,1]^7",
        ),
    ),
    (2, 16): (
        224,
        7,
        (
            "[0,1]^15 [1,0] [1,1]",
            "[0,1]^15 [1,2] [1,15]",
            "[0,1]^15 [1,3] [1,14]",
            "[0,1]^15 [1,4] [1,13]",
            "[0,1]^13 [1,0] [1,1]^3",
            "[0,1]^11 [1,0] [1,1]^5",
            "[0,1]^9 [1,0] [1,1]^7",
        ),
    ),
    (2, 18): (
        288,
        9,
        (
            "[0,1]^17 [1,0] [1,1]",
            "[0,1]^17 [1,2] [1,17]",
            "[0,1]^17 [1,3] [1,16]",
            "[0,1]^17 [1,4] [1,15]",
            "[0,1]^17 [1,5] [1,14]",
            "[0,1]^15 [1,0] [1,1]^3",
            "[0,1]^13 [1,0] [1,1]^5",
            "[0,1]^11 [1,0] [1,1]^7",
            "[0,1]^9 [1,0] [1,1]^9",
        ),
    ),
    (3, 3): (24, 1, ("[0,1]^2 [1,0]^2 [1,1]",)),
    (3, 6): (
        240,
        5,
        (
            "[0,1]^5 [1,0]^2 [1,1]",
            "[0,1]^5 [1,0] [1,2] [1,5]",
            "[0,1]^5 [1,1]^2 [1,5]",
            "[0,1]^4 [1,0]^2 [2,1]^2",
            "[0,1]^3 [1,0]^2 [1,1]^2 [2,1]",
        ),
    ),
    (3, 9): (
        1296,
        13,
        (
            "[0,1]^8 [1,0]^2 [1,1]",
            "[0,1]^8 [1,0] [1,2] [1,8]",
            "[0,1]^8 [1,0] [1,3] [1,7]",
            "[0,1]^8 [1,0] [1,5]^2",
            "[0,1]^8 [1,1]^2 [1,8]",
            "[0,1]^8 [1,1] [1,2] [1,7]",
            "[0,1]^7 [1,0]^2 [2,1]^2",
            "[0,1]^7 [1,2]^2 [2,8]^2",
            "[0,1]^6 [1,0]^2 [1,1]^2 [2,1]",
            "[0,1]^5 [1,0]^2 [1,1]^4",
            "[0,1]^5 [1,0]^2 [1,1] [2,1]^3",
            "[0,1]^5 [1,1]^5 [1,8]",
            "[0,1]^4 [1,0]^2 [1,1]^3 [2,1]^2",
        ),
    ),
    (3, 12): (
        2016,
        21,
        (
            "[0,1]^11 [1,0]^2 [1,1]",
            "[0,1]^11 [1,0] [1,2] [1,11]",
            "[0,1]^11 [1,0] [1,3] [1,10]",
            "[0,1]^11 [1,0] [1,4] [1,9]",
            "[0,1]^11 [1,0] [1,6] [1,7]",
            "[0,1]^11 [1,1]^2 [1,11]",
            "[0,1]^11 [1,1] [1,2] [1,10]",
            "[0,1]^11 [1,1] [1,3] [1,9]",
            "[0,1]^11 [1,1] [1,6]^2",
            "[0,1]^11 [1,3]^2 [1,7]",
            "[0,1]^10 [1,0]^2 [2,1]^2",
            "[0,1]^10 [1,2]^2 [2,11]^2",
            "[0,1]^9 [1,0]^2 [1,1]^2 [2,1]",
            "[0,1]^8 [1,0]^2 [1,1]^4",
            "[0,1]^8 [1,0]^2 [1,1] [2,1]^3",
            "[0,1]^8 [1,1]^5 [1,11]",
            "[0,1]^7 [1,0]^2 [1,1]^3 [2,1]^2",
            "[0,1]^7 [1,0]^2 [2,1]^5",
            "[0,1]^6 [1,0]^2 [1,1]^5 [2,1]",
            "[0,1]^6 [1,0]^2 [1,1]^2 [2,1]^4",
            "[0,1]^5 [1,0]^2 [1,1]^4 [2,1]^3",
        ),
    ),
    (4, 4): (
        144,
        2,
        (
            "[0,1]^3 [1,0]^3 [1,1]",
            "[0,1]^3 [1,0]^2 [1,2] [1,3]",
        ),
    ),
    (4, 8): (
        2560,
        20,
        (
            "[0,1]^7 [1,0]^3 [1,1]",
            "[0,1]^7 [1,0]^2 [1,2] [1,7]",
            "[0,1]^7 [1,0]^2 [1,3] [1,6]",
            "[0,1]^7 [1,0]^2 [1,4] [1,5]",
            "[0,1]^7 [1,0] [1,1]^2 [1,7]",
            "[0,1]^7 [1,0] [1,1] [1,2] [1,6]",
            "[0,1]^7 [1,0] [1,1] [1,3] [1,5]",
            "[0,1]^7 [1,0] [1,3]^3",
            "[0,1]^7 [1,0] [1,3] [1,7]^2",
            "[0,1]^7 [1,0] [1,5]^2 [1,7]",
            "[0,1]^6 [1,0]^3 [2,1] [3,1]",
            "[0,1]^6 [1,0] [2,7] [3,1]^3",
            "[0,1]^5 [1,0]^3 [1,1]^2 [3,1]",
            "[0,1]^5 [1,0]^3 [1,1] [2,1]^2",
            "[0,1]^5 [1,0]^3 [3,1]^3",
            "[0,1]^4 [1,0]^3 [1,1]^3 [2,1]",
            "[0,1]^4 [1,0]^3 [1,1] [2,1] [3,1]^2",
            "[0,1]^4 [1,0]^3 [2,1]^3 [3,1]",
            "[0,1]^3 [1,0]^3 [1,1]^3 [3,1]^2",
            "[0,1]^3 [1,0]^3 [1,1]^2 [2,1]^2 [3,1]",
        ),
    ),
    (5, 5): (
        2160,
        5,
        (
            "[0,1]^4 [1,0]^4 [1,1]",
            "[0,1]^4 [1,0]^3 [1,2] [1,4]",
            "[0,1]^4 [1,0]^3 [1,3]^2",
            "[0,1]^4 [1,0]^2 [1,1]^2 [1,4]",
            "[0,1]^4 [1,0]^2 [1,1] [1,2] [1,3]",
        ),
    ),
    (6, 6): (
        3456,
        13,
        (
            "[0,1]^5 [1,0]^5 [1,1]",
            "[0,1]^5 [1,0]^4 [1,2] [1,5]",
            "[0,1]^5 [1,0]^4 [1,3] [1,4]",
            "[0,1]^5 [1,0]^3 [1,1]^2 [1,5]",
            "[0,1]^5 [1,0]^3 [1,1] [1,2] [1,4]",
            "[0,1]^5 [1,0]^3 [1,1] [1,3]^2",
            "[0,1]^5 [1,0]^3 [1,2]^2 [1,3]",
            "[0,1]^5 [1,0]^3 [1,3] [1,5]^2",
            "[0,1]^5 [1,0]^3 [1,4]^2 [1,5]",
            "[0,1]^5 [1,0]^2 [1,1]^2 [1,2] [1,3]",
            "[0,1]^5 [1,0]^2 [1,1] [1,3] [1,4] [1,5]",
            "[0,1]^5 [1,0]^2 [1,2]^2 [1,4] [1,5]",
            "[0,1]^5 [1,0]^2 [1,2] [1,3]^2 [1,5]",
        ),
    ),
}


# (D, witness) of davenport for every group of rank <= 2 with |G| <= 36, a
# few of rank 3 and 4, and C_100 (past the automorphism cap, at cap=128),
# measured with the search that started one exhaustive DFS from every
# nonzero element; the witness is the first longest zero-sum-free sequence
# in lexicographic DFS order, completed by its negated sum
DAVENPORT_TABLE = {
    (): (1, "[]"),
    (2,): (2, "[1]^2"),
    (3,): (3, "[1]^3"),
    (4,): (4, "[1]^4"),
    (5,): (5, "[1]^5"),
    (6,): (6, "[1]^6"),
    (7,): (7, "[1]^7"),
    (8,): (8, "[1]^8"),
    (9,): (9, "[1]^9"),
    (10,): (10, "[1]^10"),
    (11,): (11, "[1]^11"),
    (12,): (12, "[1]^12"),
    (13,): (13, "[1]^13"),
    (14,): (14, "[1]^14"),
    (15,): (15, "[1]^15"),
    (16,): (16, "[1]^16"),
    (17,): (17, "[1]^17"),
    (18,): (18, "[1]^18"),
    (19,): (19, "[1]^19"),
    (20,): (20, "[1]^20"),
    (21,): (21, "[1]^21"),
    (22,): (22, "[1]^22"),
    (23,): (23, "[1]^23"),
    (24,): (24, "[1]^24"),
    (25,): (25, "[1]^25"),
    (26,): (26, "[1]^26"),
    (27,): (27, "[1]^27"),
    (28,): (28, "[1]^28"),
    (29,): (29, "[1]^29"),
    (30,): (30, "[1]^30"),
    (31,): (31, "[1]^31"),
    (32,): (32, "[1]^32"),
    (33,): (33, "[1]^33"),
    (34,): (34, "[1]^34"),
    (35,): (35, "[1]^35"),
    (36,): (36, "[1]^36"),
    (2, 2): (3, "[0,1] [1,0] [1,1]"),
    (2, 4): (5, "[0,1]^3 [1,0] [1,1]"),
    (2, 6): (7, "[0,1]^5 [1,0] [1,1]"),
    (2, 8): (9, "[0,1]^7 [1,0] [1,1]"),
    (2, 10): (11, "[0,1]^9 [1,0] [1,1]"),
    (2, 12): (13, "[0,1]^11 [1,0] [1,1]"),
    (2, 14): (15, "[0,1]^13 [1,0] [1,1]"),
    (2, 16): (17, "[0,1]^15 [1,0] [1,1]"),
    (2, 18): (19, "[0,1]^17 [1,0] [1,1]"),
    (3, 3): (5, "[0,1]^2 [1,0]^2 [1,1]"),
    (3, 6): (8, "[0,1]^5 [1,0]^2 [1,1]"),
    (3, 9): (11, "[0,1]^8 [1,0]^2 [1,1]"),
    (3, 12): (14, "[0,1]^11 [1,0]^2 [1,1]"),
    (4, 4): (7, "[0,1]^3 [1,0]^3 [1,1]"),
    (4, 8): (11, "[0,1]^7 [1,0]^3 [1,1]"),
    (5, 5): (9, "[0,1]^4 [1,0]^4 [1,1]"),
    (6, 6): (11, "[0,1]^5 [1,0]^5 [1,1]"),
    (2, 2, 2): (4, "[0,0,1] [0,1,0] [1,0,0] [1,1,1]"),
    (2, 2, 4): (6, "[0,0,1]^3 [0,1,0] [1,0,0] [1,1,1]"),
    (2, 2, 2, 2): (5, "[0,0,0,1] [0,0,1,0] [0,1,0,0] [1,0,0,0] [1,1,1,1]"),
    (100,): (100, "[1]^100"),
}


def test_davenport_values_and_witnesses():
    # the exact witness and node count pin the search order and its pruning:
    # one search from each orbit minimum, cut by the canonicity states
    cases = [
        ([2, 2], 3, "[0,1] [1,0] [1,1]", 4),
        ([2, 4], 5, "[0,1]^3 [1,0] [1,1]", 39),
        ([10], 10, "[1]^10", 40),
        ([3, 6], 8, "[0,1]^5 [1,0]^2 [1,1]", 671),
        ([2, 2, 2], 4, "[0,0,1] [0,1,0] [1,0,0] [1,1,1]", 57),
        ([], 1, "[]", 1),
        ([4, 4], 7, "[0,1]^3 [1,0]^3 [1,1]", 213),
        ([3, 9], 11, "[0,1]^8 [1,0]^2 [1,1]", 4901),
        ([5, 5], 9, "[0,1]^4 [1,0]^4 [1,1]", 676),
        ([6, 6], 11, "[0,1]^5 [1,0]^5 [1,1]", 15881),
        ([4, 8], 11, "[0,1]^7 [1,0]^3 [1,1]", 16552),
    ]
    for factors, d, witness, nodes in cases:
        G = make_group(factors)
        result = davenport(G)
        assert result.d == d
        assert len(result.witness) == d
        assert is_mzss(result.witness)
        assert result.d >= G.exponent
        assert (str(result.witness), result.nodes) == (witness, nodes)


@pytest.mark.parametrize("factors", sorted(DAVENPORT_TABLE))
def test_davenport_table_frozen(factors):
    result = davenport(make_group(factors), cap=128)
    assert (result.d, str(result.witness)) == DAVENPORT_TABLE[factors]


@pytest.mark.parametrize(
    "factors", [f for f in sorted(DAVENPORT_TABLE) if math.prod(f) <= 12]
)
def test_davenport_matches_definitional_oracle(factors):
    G = make_group(factors)
    result = davenport(G)
    assert (result.d, result.witness) == oracle_davenport(G)


def test_davenport_without_automorphisms(monkeypatch):
    # past rank 2 or the automorphism cap every element is its own orbit:
    # the search must not build Aut(G) or its orbit bitmasks, and D, witness
    # and nodes stay those of the plain search from every nonzero element
    def refuse(*args, **kwargs):
        raise AssertionError("automorphisms built")

    for name in ("perms", "eq", "lt"):
        monkeypatch.setattr(groups.Tables, name, property(refuse))
    for factors, nodes in (((2, 2, 2), 57), ((2, 2, 2, 2), 1381), ((100,), 4951)):
        result = davenport(make_group(factors), cap=128)
        assert (result.d, str(result.witness)) == DAVENPORT_TABLE[factors]
        assert result.nodes == nodes
    code = cli.run(
        ["davenport", "--group", "100", "--cap", "128"],
        out=io.StringIO(),
        err=io.StringIO(),
    )
    assert code == 0


@pytest.mark.parametrize(
    "factors",
    [f for f in sorted(DAVENPORT_TABLE) if len(f) <= 2 and math.prod(f) <= 12],
)
def test_davenport_cut_keeps_orbit_least_sequences(monkeypatch, factors):
    # every prefix of a zero-sum-free sequence that is least in its orbit
    # must pass the canonicity cut of davenport's search; its visit callback
    # runs with the length bound switched off, so the search reaches every
    # sequence whose prefixes all pass
    G = make_group(factors)
    T = index_tables(G)
    passed = set()
    bounded = search._search

    def unbounded(tables, root, visit, states):
        def record(cur, sig, states):
            visit(cur, sig, states)
            passed.add(tuple(cur))
            return -1

        return bounded(tables, root, record, states)

    monkeypatch.setattr(search, "_search", unbounded)
    davenport(G)
    images = oracle_automorphism_images(G)
    for S in oracle_zero_sum_free(G):
        if S and oracle_orbit_key(G, images, S) == tuple(S):
            for k in range(1, len(S) + 1):
                assert tuple(T.index[g] for g in S[:k]) in passed


@pytest.mark.parametrize(
    "factors", [f for f in sorted(DAVENPORT_TABLE) if math.prod(f) <= 36]
)
def test_davenport_cut_never_adds_nodes(monkeypatch, factors):
    # the plain search is the same code over the trivial group
    G = make_group(factors)
    cut = davenport(G)
    monkeypatch.setattr(groups, "AUTOMORPHISM_CAP", 0)
    plain = davenport(G)
    assert (plain.d, plain.witness) == (cut.d, cut.witness)
    assert cut.nodes <= plain.nodes


@pytest.mark.parametrize(
    "factors",
    [f for f in sorted(DAVENPORT_TABLE) if len(f) <= 2 and math.prod(f) <= 24],
)
def test_parent_cut_rejects_only_non_least_children(factors):
    # the search may cut a child x of a least prefix S before building its
    # sums when states[0] & lt[x][x] is nonzero: some automorphism fixing S
    # maps x below x. Every such child must fail `_step` and must not be
    # least by the oracle; the walk visits every least zero-sum-free prefix
    G = make_group(factors)
    T = index_tables(G)
    maps = [
        {e: oracle_orbit_key(G, [hs], [e])[0] for e in T.elements}
        for hs in oracle_automorphism_images(G)
    ]

    def least(idx):
        S = tuple(T.elements[i] for i in idx)
        return min(tuple(sorted(f[g] for g in S)) for f in maps) == S

    cut = 0

    def walk(S, R, states):
        nonlocal cut
        for x in range(S[-1], G.order):
            if states[0] & T.lt[x][x]:
                assert search._step(T, states, S + [x]) is None, S + [x]
                assert not least(S + [x]), S + [x]
                cut += 1
            if R >> T.neg[x] & 1:
                continue
            if (child := search._step(T, states, S + [x])) is not None:
                walk(S + [x], R | T.shift(R, x) | 1 << x, child)

    for r in range(1, G.order):
        if (states := search._root_states(T, r)) is not None:
            walk([r], 1 << r, states)
    if G.rank == 2:
        assert cut > 0


@pytest.mark.parametrize(
    "factors",
    [f for f in sorted(DAVENPORT_TABLE) if len(f) == 2 and math.prod(f) <= 36],
)
def test_davenport_cuts_fixed_children_at_the_parent(monkeypatch, factors):
    # `_search` is the only caller of `_step` in davenport: no child that an
    # automorphism fixing its prefix maps below itself may reach `_step`,
    # since the parent cuts it before its sums are built
    G = make_group(factors)
    T = index_tables(G)
    step = search._step
    calls = 0

    def checked(tables, states, S):
        nonlocal calls
        calls += 1
        assert not states[0] & T.lt[S[-1]][S[-1]], S
        return step(tables, states, S)

    monkeypatch.setattr(search, "_step", checked)
    davenport(G)
    assert calls > 0


def _invariant_factors(order, prev=1):
    """Every chain n_1 | n_2 | ... of multiples of `prev`, each > 1, with
    product <= order: from prev = 1, the groups with |G| <= order."""
    yield ()
    for f in range(prev, order + 1, prev):
        if f > 1:
            yield from ((f,) + rest for rest in _invariant_factors(order // f, f))


@pytest.mark.parametrize("factors", sorted(_invariant_factors(24)))
def test_search_matches_recursive_oracle(monkeypatch, factors):
    # `_search` skips, at the parent, exactly children that the recursive
    # search visits as leaves, and counts them: every result, node counts
    # included, must be that of the recursive search
    G = make_group(factors)

    def results():
        out = [davenport(G)]
        with monkeypatch.context() as m:
            m.setattr(groups, "AUTOMORPHISM_CAP", 0)
            out.append(davenport(G))
        if G.rank <= 2:
            seqs, report = enumerate_with_report(G)
            out += [seqs, report, count_ml_mzss(G)]
        return [r._replace(elapsed_ms=0) if hasattr(r, "elapsed_ms")
                else r for r in out]

    fast = results()
    monkeypatch.setattr(search, "_search", recursive_search)
    assert results() == fast


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


@pytest.mark.parametrize(
    "factors", [f for f in sorted(ML_MZSS_ORBIT_TABLE) if len(f) == 2]
)
def test_sequence_of_index_tuple_matches_from_elements(factors):
    # every ml-mzss, as the runs of the expanded orbits of the orderly
    # representatives: each index tuple once, in lexicographic order, and
    # the `Sequence` of its runs is that of its elements
    G = make_group(factors)
    els = index_tables(G).elements
    reps = [
        Sequence.from_elements(G, (els[i] for i, k in runs for _ in range(k)))
        for runs, _ in search._EnumerationRun(G, 1, 36)
    ]
    seen = []
    for runs in search._members(G, reps):
        idx = tuple(i for i, k in runs for _ in range(k))
        expected = Sequence.from_elements(G, (els[i] for i in idx))
        assert search._sequence(G, runs) == expected
        seen.append(idx)
    assert seen == sorted(set(seen))
    assert len(seen) == ML_MZSS_ORBIT_TABLE[factors][0]


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


@pytest.mark.parametrize("factors", sorted(ML_MZSS_ORBIT_TABLE))
def test_orbit_table_frozen(factors):
    G = make_group(list(factors))
    report = count_ml_mzss(G)
    reps = tuple(str(s) for s in report.representatives)
    assert (report.total, report.orbits, reps) == ML_MZSS_ORBIT_TABLE[factors]
    if G.order <= 25:
        # the plain report takes its representatives from the orderly run
        # too; `test_enumeration_matches_plain_search` checks them against
        # the exhaustive search
        _, report = enumerate_with_report(G)
        reps = tuple(str(s) for s in report.representatives)
        assert (report.total, report.orbits, reps) == ML_MZSS_ORBIT_TABLE[factors]


STABILISER_GROUPS = [(n,) for n in range(2, 17)] + [
    (2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (4, 4)
]


@pytest.mark.parametrize("factors", STABILISER_GROUPS)
def test_stabiliser_matches_oracle_on_every_zero_sum_free_sequence(factors):
    # every nonempty zero-sum-free sequence, least in its orbit or not: the
    # test is nonzero exactly on the oracle's orbit key, and then counts the
    # automorphisms whose sorted image is S
    G = make_group(list(factors))
    T = index_tables(G)
    # each automorphism as an element map, read off the oracle one element
    # at a time, so that the images of a sequence are cheap to sort
    maps = [
        {e: oracle_orbit_key(G, [hs], [e])[0] for e in T.elements}
        for hs in oracle_automorphism_images(G)
    ]
    checked = 0
    for S in oracle_zero_sum_free(G):
        if not S:
            continue
        images = [tuple(sorted(f[g] for g in S)) for f in maps]
        key = min(images)
        idx = [T.index[g] for g in S]
        stab = stabiliser(T, idx)
        assert bool(stab) == (tuple(S) == key), S
        if stab:
            assert stab == images.count(tuple(S)), S
        checked += 1
    assert checked > 0


def _random_zero_sum_free(G, rng, count):
    """`count` random nonempty zero-sum-free sequences over G as sorted
    element lists. Half of the draws repeat a term already taken, so that
    runs of equal terms are common; a draw that would make a zero-sum
    subsequence is dropped."""
    els = list(G.elements())[1:]
    zero = G.zero()
    out = []
    for _ in range(count):
        seq, sums = [], set()
        for _ in range(rng.randint(1, 3 * len(G.invariant_factors) * G.exponent)):
            g = rng.choice(seq) if seq and rng.random() < 0.5 else rng.choice(els)
            grown = sums | {
                tuple((a + b) % f for a, b, f in zip(s, g, G.invariant_factors))
                for s in sums
            } | {g}
            if zero not in grown:
                seq.append(g)
                sums = grown
        out.append(sorted(seq))
    return out


@pytest.mark.parametrize("factors", [(5, 5), (3, 9), (2, 12), (6, 6)])
def test_stabiliser_matches_oracle_on_random_sequences(monkeypatch, factors):
    # groups too large for the exhaustive test above: random sequences with
    # many repeated terms, so that tied images both move on in bulk and are
    # compared afresh, and the least member of each sequence's orbit
    G = make_group(list(factors))
    T = index_tables(G)
    maps = [
        {e: oracle_orbit_key(G, [hs], [e])[0] for e in T.elements}
        for hs in oracle_automorphism_images(G)
    ]
    compared = 0
    compare = search._compare

    def counted(*args):
        nonlocal compared
        compared += 1
        return compare(*args)

    monkeypatch.setattr(search, "_compare", counted)
    rng = random.Random(sum(factors))
    least = 0
    for S in _random_zero_sum_free(G, rng, 120):
        images = [tuple(sorted(f[g] for g in S)) for f in maps]
        for seq in (tuple(S), min(images)):
            idx = [T.index[g] for g in seq]
            stab = stabiliser(T, idx)
            assert bool(stab) == (seq == min(images)), seq
            if stab:
                assert stab == images.count(seq), seq
                least += seq == tuple(S)
    assert compared > 0
    assert 0 < least < 120


def test_davenport_seven_seven_pinned():
    # |Aut(C_7 + C_7)| = 2,016, past the enumeration cap
    result = davenport(make_group([7, 7]), cap=64)
    assert (result.d, str(result.witness), result.nodes) == (
        13, "[0,1]^6 [1,0]^6 [1,1]", 40976
    )


def test_count_ml_mzss_seven_seven_pinned():
    report = count_ml_mzss(make_group([7, 7]), cap=64)
    assert (report.total, report.orbits, report.nodes) == (69552, 35, 42272)


@pytest.mark.parametrize(
    "factors", [f for f in sorted(ML_MZSS_ORBIT_TABLE) if math.prod(f) <= 16]
)
def test_orbit_representatives_match_oracle(factors):
    G = make_group(list(factors))
    seqs = list(enumerate_ml_mzss(G))
    reps = oracle_orbit_representatives(G, seqs)
    report = count_ml_mzss(G)
    assert list(report.representatives) == reps
    assert (report.total, report.orbits) == (len(seqs), len(reps))


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
            image = Sequence.from_elements(G, map(alpha.apply, s.expanded()))
            assert image in emitted


def test_enumeration_declines_rank_three():
    with pytest.raises(CapExceeded):
        list(enumerate_ml_mzss(make_group([2, 2, 2])))


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_ml_mzss(make_group([7, 7]), cap=36))


def test_orbit_past_automorphism_cap():
    G = make_group([2, 36])
    S = parse_sequence(G, "[0,1]^35 [1,0] [1,1]")
    with pytest.raises(CapExceeded, match="exceeds automorphism cap 64"):
        search.orbit(G, S)


@pytest.mark.parametrize("factors", [(2, 4), (3, 6), (4, 4), (2, 2), ()])
def test_orbit_keys_match_oracle(factors):
    # the empty sequence, every one-term sequence, a power of each element,
    # every orbit representative of ml-mzss and a few random sequences: the
    # orbit is the distinct sorted images under the oracle's automorphisms,
    # in the lexicographic order of their index tuples
    G = make_group(list(factors))
    T = index_tables(G)
    images = oracle_automorphism_images(G)
    rng = random.Random(23)
    seqs = [Sequence(G, ())] + [Sequence.from_elements(G, [g]) for g in T.elements]
    seqs += [Sequence.from_elements(G, [g] * 3) for g in T.elements]
    seqs += list(count_ml_mzss(G).representatives)
    seqs += [
        Sequence.from_elements(G, rng.choices(T.elements, k=rng.randint(2, 9)))
        for _ in range(10)
    ]
    for S in seqs:
        keys = {oracle_orbit_key(G, [hs], S.expanded()) for hs in images}
        members = sorted(keys, key=lambda key: [T.index[g] for g in key])
        assert search.orbit(G, S) == [Sequence.from_elements(G, k) for k in members]


def test_canonicalize_examples():
    G22 = make_group([2, 2])
    s = parse_sequence(G22, "[0,1] [1,0] [1,1]")
    assert search.orbit(G22, s)[0] == s
    C6 = make_group([6])
    assert str(search.orbit(C6, parse_sequence(C6, "[5]^6"))[0]) == "[1]^6"


def test_canonicalize_idempotent_and_orbit_constant():
    rng = random.Random(2)
    G = make_group([2, 4])
    seqs = list(enumerate_ml_mzss(G))
    for s in seqs:
        c = search.orbit(G, s)[0]
        assert search.orbit(G, c)[0] == c
        for alpha in rng.sample(automorphisms(G), 3):
            image = Sequence.from_elements(G, map(alpha.apply, s.expanded()))
            assert search.orbit(G, image)[0] == c


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
        orbits.setdefault(search.orbit(G, s)[0], []).append(s)
    assert len(orbits) == report.orbits
    assert sum(len(v) for v in orbits.values()) == report.total
    assert sorted(orbits) == list(report.representatives)


class _InlinePool(Executor):
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


@pytest.mark.parametrize("cpus", [4, None])
def test_workers_capped_at_roots_and_cpus(monkeypatch, cpus):
    # no process is started: the pool is replaced and the CPU count pinned
    monkeypatch.setattr(search, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
    # the orbit minima of C_36 are its proper divisors 1, 2, 3, 4, 6, 9, 12
    # and 18: 8 roots
    G = make_group([36])
    one = list(enumerate_ml_mzss(G, workers=1))
    for workers, pool_size in ((10_000, 4), (2, 2)):
        _InlinePool.sizes.clear()
        many = list(enumerate_ml_mzss(G, workers=workers))
        # an unknown CPU count means one worker
        assert _InlinePool.sizes == ([pool_size] if cpus else [])
        assert many == one
    with monkeypatch.context() as m:
        m.setattr(search.os, "cpu_count", lambda: 128)
        _InlinePool.sizes.clear()
        assert list(enumerate_ml_mzss(G, workers=10_000)) == one
        assert _InlinePool.sizes == [8]


def _plain_enumeration(G):
    """The exhaustive search's ml-mzss, and those of them that `stabiliser`
    finds least in their Aut(G)-orbits."""
    T = index_tables(G)
    idxs = plain_enumeration(G)
    seqs = [Sequence.from_elements(G, map(T.elements.__getitem__, i)) for i in idxs]
    reps = [s for s, idx in zip(seqs, idxs) if stabiliser(T, list(idx))]
    return seqs, reps


@pytest.mark.parametrize(
    "factors,workers",
    [(f, 1) for f in sorted(_invariant_factors(25)) if len(f) <= 2]
    + [((3, 6), 4)],
)
def test_enumeration_matches_plain_search(monkeypatch, factors, workers):
    # every route to the ml-mzss against the exhaustive search with its
    # representatives picked one sequence at a time; with workers the pool
    # is replaced and the CPU count pinned, so no process is started
    monkeypatch.setattr(search, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    G = make_group(factors)
    seqs, reps = _plain_enumeration(G)
    _InlinePool.sizes.clear()
    assert list(enumerate_ml_mzss(G, workers=workers)) == seqs
    got, report = enumerate_with_report(G, workers=workers)
    assert got == seqs
    assert (report.total, report.orbits, report.representatives) == (
        len(seqs), len(reps), tuple(reps)
    )
    assert report.nodes == count_ml_mzss(G, workers=workers).nodes
    assert bool(_InlinePool.sizes) == (workers > 1)


@pytest.mark.parametrize("cpus", [4, None])
def test_orderly_workers_capped_at_orbit_minima(monkeypatch, cpus):
    # no process is started: the pool is replaced and the CPU count pinned
    monkeypatch.setattr(search, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
    G = make_group([3, 6])  # orbit minima [0,1], [0,2], [0,3]: 3 roots
    one = count_ml_mzss(G, workers=1)
    for workers, pool_size in ((2, 2), (10_000, 3)):
        _InlinePool.sizes.clear()
        many = count_ml_mzss(G, workers=workers)
        assert _InlinePool.sizes == ([pool_size] if cpus else [])
        assert (many.representatives, many.total, many.nodes) == (
            one.representatives,
            one.total,
            one.nodes,
        )
    assert one.orbits == 5


class _BrokenPool(_InlinePool):
    """A pool whose worker dies after the first root: `map` raises as
    `ProcessPoolExecutor.map` does when a child process ends abruptly."""

    def map(self, fn, *iterables):
        results = super().map(fn, *iterables)
        yield next(results)
        raise BrokenProcessPool("a child process terminated abruptly")


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--group", "3,6"], ["verify", "theorem", "--group", "3,6"]],
    ids=["enumerate", "verify-theorem"],
)
def test_broken_pool_exits_four(monkeypatch, argv):
    # no process is started: the pool is replaced and the CPU count pinned
    monkeypatch.setattr(search, "ProcessPoolExecutor", _BrokenPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(argv + ["--workers", "2"], out=out, err=err) == 4
    assert out.getvalue() == ""
    assert err.getvalue() == (
        "error: a search worker died: a child process terminated abruptly\n"
    )
    with pytest.raises(WorkerFailed) as info:
        count_ml_mzss(make_group([3, 6]), workers=2)
    assert isinstance(info.value.__cause__, BrokenProcessPool)


def test_every_orbit_reader_reaches_the_run_through_the_module(monkeypatch):
    # perfbench counts the orderly nodes by putting a subclass of the run on
    # `search`; a reader that bound the class by name would bypass it
    runs = []

    class CountingRun(search._EnumerationRun):
        def __iter__(self):
            runs.append(self.group)
            return super().__iter__()

    monkeypatch.setattr(search, "_EnumerationRun", CountingRun)
    G = make_group([3, 6])
    readers = [
        (lambda: count_ml_mzss(G), G),
        (lambda: list(enumerate_ml_mzss(G)), G),
        (lambda: enumerate_with_report(G), G),
        (lambda: structure.check_property_b(3), make_group([3, 3])),
        (lambda: structure.check_rank_two_structure(G), G),
    ]
    for read, group in readers:
        runs.clear()
        read()
        assert runs == [group]


def test_importing_the_cli_loads_no_process_pool():
    # a fresh isolated interpreter: this one has imported the pool already;
    # -S, so that modules preloaded by `site` cannot hide an import of ours
    src = str(Path(search.__file__).resolve().parents[1])
    lazy = [
        "concurrent.futures.process", "dataclasses", "inspect", "csv", "random",
        "heapq",
    ]
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import zerosum.cli; "
        f"print([name for name in {lazy!r} if name in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "[]\n"


def test_one_worker_theorem_loads_no_executor():
    # `concurrent.futures` loads `logging`: only a pool may import it
    src = str(Path(search.__file__).resolve().parents[1])
    code = (
        f"import io, sys; sys.path.insert(0, {src!r}); import zerosum.cli; "
        "code = zerosum.cli.run(['verify', 'theorem', '--group', '3,6'], "
        "out=io.StringIO()); print(code, 'concurrent.futures' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "0 False\n"


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
