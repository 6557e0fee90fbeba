"""Family generators, the classifier, and the verification sweeps."""

import hashlib
import itertools
import json
import math
import random

import pytest

from zerosum import groups, search, sequences, structure
from zerosum import (
    BadParams,
    BadWitness,
    CapExceeded,
    ClassificationResult,
    GroupMismatch,
    MissingCosetCondition,
    NotMlMzss,
    Sequence,
    ShapeAWitness,
    ShapeBWitness,
    Type1Witness,
    Type2Witness,
    automorphisms,
    check_cyclic_inverse,
    check_property_b,
    check_rank_two_structure,
    classify,
    davenport_closed_form,
    egz_property,
    enumerate_ml_mzss,
    extract_zero_sum_of_length,
    format_element,
    gen_shape_a,
    gen_shape_b,
    gen_type1,
    gen_type2,
    is_basis,
    is_mzss,
    make_group,
    order,
    parse_sequence,
    shape_a_witnesses,
    shape_b_witnesses,
    sigma,
    tm1_structure_check,
    zss_max_factors,
)
from oracles import euler_phi, plain_enumeration

G24 = make_group([2, 4])
G22 = make_group([2, 2])


def test_gen_type1_examples():
    w = Type1Witness(e1=(1, 0), e2=(0, 1), j=2, x=(1, 2))
    assert str(gen_type1(G24, w)) == "[0,1]^3 [1,2] [1,3]"
    w = Type1Witness(e1=(1, 0), e2=(0, 1), j=1, x=(1, 0))
    assert str(gen_type1(G22, w)) == "[0,1] [1,0] [1,1]"
    w = Type1Witness(e1=(1, 0), e2=(0, 1), j=1, x=(1, 0, 0, 0))
    assert str(gen_type1(G24, w)) == "[0,1]^3 [1,0] [1,1]"


def test_gen_type1_rejects_bad_witnesses():
    with pytest.raises(BadWitness):  # not a basis
        gen_type1(G24, Type1Witness((1, 1), (0, 1), 2, (1, 2)))
    with pytest.raises(BadWitness):  # ord(e2) too small
        gen_type1(G24, Type1Witness((0, 1), (1, 0), 2, (1, 2)))
    with pytest.raises(BadWitness):  # wrong x length
        gen_type1(G24, Type1Witness((1, 0), (0, 1), 2, (1,)))
    with pytest.raises(BadWitness):  # x out of range
        gen_type1(G24, Type1Witness((1, 0), (0, 1), 2, (1, 5)))
    with pytest.raises(BadWitness):  # congruence fails
        gen_type1(G24, Type1Witness((1, 0), (0, 1), 2, (1, 1)))
    with pytest.raises(BadWitness):  # zero element
        gen_type1(G24, Type1Witness((0, 0), (0, 1), 2, (1, 2)))


def test_gen_type2_examples():
    w = Type2Witness(g1=(1, 1), g2=(0, 1), s=2, x=(1, 0))
    assert str(gen_type2(G24, w)) == "[0,1] [1,0] [1,1]^3"
    w = Type2Witness(g1=(1, 0), g2=(0, 1), s=1, x=(1, 0, 0, 0))
    assert str(gen_type2(G24, w)) == "[0,1]^3 [1,0] [1,1]"


def test_gen_type2_missing_coset_condition():
    with pytest.raises(MissingCosetCondition):
        gen_type2(G24, Type2Witness(g1=(1, 0), g2=(0, 1), s=2, x=(1, 0)))


def test_gen_type2_rejects_bad_witnesses():
    with pytest.raises(BadWitness):  # not generating
        gen_type2(G24, Type2Witness((0, 2), (0, 1), 1, (1, 0, 0, 0)))
    with pytest.raises(BadWitness):  # ord(g2) too small
        gen_type2(G24, Type2Witness((0, 1), (1, 0), 1, (1, 0, 0, 0)))
    with pytest.raises(BadWitness):  # s out of range
        gen_type2(G24, Type2Witness((1, 1), (0, 1), 3, (1, 0)))
    with pytest.raises(BadWitness):  # sum must be exactly m - 1
        gen_type2(G24, Type2Witness((1, 0), (0, 1), 1, (1, 1, 1, 0)))


def test_generators_produce_ml_mzss():
    for G, w in [
        (G24, Type1Witness((1, 0), (0, 1), 2, (1, 2))),
        (G24, Type1Witness((1, 2), (1, 1), 2, (1, 2))),
        (G22, Type1Witness((1, 0), (0, 1), 1, (1, 0))),
    ]:
        S = gen_type1(G, w)
        assert is_mzss(S) and len(S) == davenport_closed_form(G)
    for G, w in [
        (G24, Type2Witness((1, 1), (0, 1), 2, (1, 0))),
        (G24, Type2Witness((1, 0), (0, 1), 1, (1, 0, 0, 0))),
    ]:
        S = gen_type2(G, w)
        assert is_mzss(S) and len(S) == davenport_closed_form(G)


def test_classify_type1_example():
    S = parse_sequence(G24, "[0,1]^3 [1,2] [1,3]")
    result = classify(G24, S)
    assert result.is_type1
    assert Type1Witness((1, 0), (0, 1), 2, (1, 2)) in result.type1_witnesses


def test_classify_overlap_example():
    S = parse_sequence(G24, "[1,1]^3 [1,0] [0,1]")
    result = classify(G24, S)
    assert result.is_type1 and result.is_type2
    assert Type1Witness((1, 2), (1, 1), 2, (1, 2)) in result.type1_witnesses
    assert any(
        w.g1 == (1, 1) and w.g2 == (0, 1) and w.s == 2
        for w in result.type2_witnesses
    )


def test_classify_c22_all_type1():
    for S in enumerate_ml_mzss(G22):
        assert classify(G22, S).is_type1


def test_classify_rejects_non_ml_mzss():
    with pytest.raises(NotMlMzss):
        classify(G24, parse_sequence(G24, "[0,0]"))
    with pytest.raises(NotMlMzss):  # right length, not zero-sum
        classify(G24, parse_sequence(G24, "[0,1]^5"))
    with pytest.raises(GroupMismatch):
        classify(G24, parse_sequence(G22, "[0,1] [1,0] [1,1]"))
    with pytest.raises(BadParams):
        classify(make_group([6]), parse_sequence(make_group([6]), "[1]^6"))


@pytest.mark.parametrize("factors", [(2, 4), (2, 6)])
def test_classify_witnesses_regenerate_input(factors):
    G = make_group(list(factors))
    for S in enumerate_ml_mzss(G):
        result = classify(G, S)
        assert result.is_type1 or result.is_type2
        for w in result.type1_witnesses:
            assert gen_type1(G, w) == S
        for w in result.type2_witnesses:
            assert gen_type2(G, w) == S


def test_classify_equivariant_under_automorphisms():
    G = make_group([2, 4])
    seqs = list(enumerate_ml_mzss(G))
    for alpha in automorphisms(G)[:4]:
        for S in seqs:
            image = Sequence.from_elements(G, map(alpha.apply, S.expanded()))
            a, b = classify(G, S), classify(G, image)
            assert (a.is_type1, a.is_type2) == (b.is_type1, b.is_type2)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_square_groups_type2_redundant(m):
    G = make_group([m, m])
    for S in enumerate_ml_mzss(G):
        result = classify(G, S)
        if result.is_type2:
            assert result.is_type1


@pytest.mark.parametrize("factors", [(2, 4), (3, 6)])
def test_check_rank_two_structure_no_violations(factors):
    report = check_rank_two_structure(make_group(list(factors)))
    assert report.verdict and not report.violations
    d = report.details
    assert d["type1"] + d["type2"] - d["both"] == d["total"] == report.checked


def test_theorem_violations_list_every_member_of_rejected_orbits(monkeypatch):
    # two orbits whose members interleave in lexicographic order are rejected;
    # the sweep must report what classifying every ml-mzss in order reports
    G = make_group([3, 6])
    seqs = list(enumerate_ml_mzss(G))
    canon = [search.orbit(G, S)[0].expanded() for S in seqs]
    rejected = {canon[0], next(c for c in canon if c != canon[0])}
    flagged = [c for c in canon if c in rejected]
    assert flagged != sorted(flagged)  # orbit after orbit would differ
    real = structure.classify
    least = dict(zip(seqs, canon))

    def classify_rejecting(G, S):
        if least[S] in rejected:
            return ClassificationResult(False, (), False, ())
        return real(G, S)

    monkeypatch.setattr(structure, "classify", classify_rejecting)
    results = [classify_rejecting(G, S) for S in seqs]
    violations = [
        str(S) for S, r in zip(seqs, results) if not (r.is_type1 or r.is_type2)
    ]
    report = check_rank_two_structure(G)
    assert report.violations == violations
    assert report.details == {
        "total": len(seqs),
        "type1": sum(r.is_type1 for r in results),
        "type2": sum(r.is_type2 for r in results),
        "both": sum(r.is_type1 and r.is_type2 for r in results),
    }
    assert (report.checked, report.verdict) == (len(seqs), False)
    # past the automorphism cap `orbit` is refused, and the report holds
    monkeypatch.setattr(groups, "AUTOMORPHISM_CAP", 17)
    with pytest.raises(CapExceeded):
        search.orbit(G, seqs[0])
    capped = check_rank_two_structure(G)
    assert capped._replace(elapsed_ms=0) == report._replace(elapsed_ms=0)


def test_check_property_b_small():
    report = check_property_b(2)
    assert report.verdict and report.checked == 1
    assert report.details["witnesses"][0]["sequence"] == "[0,1] [1,0] [1,1]"
    report = check_property_b(3)
    assert report.verdict and report.checked == 24
    for w in report.details["witnesses"]:
        G = make_group([3, 3])
        assert parse_sequence(G, w["sequence"]).multiplicity(
            tuple(int(r) for r in w["element"][1:-1].split(","))
        ) >= 2


def _property_b_by_sequence(m):
    # one witness per ml-mzss of the exhaustive search, in lexicographic
    # order: the first term of multiplicity >= m - 1 and what is left after
    # removing m - 1 copies
    G = make_group([m, m])
    els = groups.index_tables(G).elements
    witnesses = []
    for idx in plain_enumeration(G):
        S = Sequence.from_elements(G, (els[i] for i in idx))
        pivot = next(g for g, mult in S.terms if mult >= m - 1)
        rest = list(S.expanded())
        for _ in range(m - 1):
            rest.remove(pivot)
        witnesses.append(
            {
                "sequence": str(S),
                "element": format_element(pivot),
                "cofactor": str(Sequence.from_elements(G, rest)),
            }
        )
    return witnesses


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_check_property_b_matches_per_sequence_loop(m):
    witnesses = _property_b_by_sequence(m)
    report = check_property_b(m)
    assert (report.checked, report.violations, report.verdict) == (
        len(witnesses),
        [],
        True,
    )
    assert report.details == {"witnesses": witnesses}


def test_check_property_b_past_automorphism_cap(monkeypatch):
    # the automorphism cap does not bound enumeration: past it the check
    # runs the same orderly search, with the same report
    report = check_property_b(5)
    monkeypatch.setattr(groups, "AUTOMORPHISM_CAP", 16)
    assert check_property_b(5)._replace(elapsed_ms=0) == report._replace(elapsed_ms=0)
    assert report.verdict
    assert report.details == {"witnesses": _property_b_by_sequence(5)}


def test_check_property_b_reports_violations_in_order(monkeypatch):
    # an extra representative with five distinct terms over 3,3, none of
    # multiplicity >= 2: every member of its orbit is a violation, in
    # lexicographic order, and is checked besides the true ml-mzss
    G = make_group([3, 3])
    true_report = check_property_b(3)
    bad = search.orbit(G, parse_sequence(G, "[0,1] [0,2] [1,0] [1,1] [2,2]"))[0]
    members = search.orbit(G, bad)
    counted = structure.count_ml_mzss

    def with_bad(*args):
        report = counted(*args)
        return report._replace(
            total=report.total + len(members),
            orbits=report.orbits + 1,
            representatives=report.representatives + (bad,),
        )

    monkeypatch.setattr(structure, "count_ml_mzss", with_bad)
    report = check_property_b(3)
    assert len(members) > 1
    assert report.violations == [str(S) for S in members]
    assert report.checked == true_report.checked + len(members)
    assert report.verdict is False
    assert report.details == true_report.details


def test_check_cyclic_inverse():
    report = check_cyclic_inverse(6)
    assert report.verdict and report.checked == 2
    assert report.details == {"count": 2, "expected_count": 2}
    assert check_cyclic_inverse(2).checked == 1
    assert check_cyclic_inverse(12).checked == 4
    with pytest.raises(BadParams):
        check_cyclic_inverse(1)


def test_check_cyclic_inverse_reports_a_repeated_sequence(monkeypatch):
    # the emitted sequences form the expected set, but one comes twice
    emitted = structure.enumerate_ml_mzss

    def first_twice(G, **kwargs):
        seqs = list(emitted(G, **kwargs))
        return [seqs[0]] + seqs

    monkeypatch.setattr(structure, "enumerate_ml_mzss", first_twice)
    report = check_cyclic_inverse(5)
    assert report.violations == ["[1]^5"]
    assert (report.checked, report.verdict) == (5, False)
    assert report.details == {"count": 5, "expected_count": 4}


@pytest.mark.parametrize("n", [67, 100, 128, 256])
def test_check_cyclic_inverse_past_automorphism_cap(n):
    report = check_cyclic_inverse(n, cap=256)
    assert report.verdict and report.checked == euler_phi(n)


def test_egz_property_reports():
    report = egz_property(3, trials=200, seed=42)
    assert report.verdict and report.checked == 201
    report = egz_property(2, trials=50, seed=0)
    assert report.verdict  # length three over C_2 always works (pigeonhole)


def _none(weights, length, pick):
    return None


def _repeated_position(weights, length, pick):
    # n copies of one position sum to zero in C_n; the term must occur fewer
    # than n times, or the pick would still be a sub-multiset
    for i, w in enumerate(weights):
        if weights.count(w) < length:
            return [i] * length
    return pick


def _wrong_sum(weights, length, pick):
    if sum(weights[:length]) % length:
        return list(range(length))
    return pick


@pytest.mark.parametrize("corrupt", [_none, _repeated_position, _wrong_sum])
def test_egz_property_checks_the_extracted_pick(monkeypatch, corrupt):
    """A bad pick from the fixed-length kernel lists that trial's str(S)."""
    kernel = sequences._lex_least_fixed_sum
    changed = []

    def fake(weights, T, length, target):
        pick = kernel(weights, T, length, target)
        if len(weights) != 2 * length - 1:  # the tightness check
            return pick
        bad = corrupt(weights, length, pick)
        if bad != pick:
            S = Sequence.from_elements(
                make_group([length]), (T.elements[w] for w in weights)
            )
            changed.append(str(S))
        return bad

    # patched where each module looks the kernel up
    monkeypatch.setattr(sequences, "_lex_least_fixed_sum", fake)
    monkeypatch.setattr(structure, "_lex_least_fixed_sum", fake, raising=False)
    report = egz_property(4, trials=60, seed=5)
    assert changed and report.violations == changed
    assert report.verdict is False


@pytest.mark.parametrize("seed", [0, 111])
def test_egz_property_draws_the_randrange_stream(monkeypatch, seed):
    """Each trial's weights are 2n - 1 draws of random.Random(seed).randrange(n),
    sorted, so a seed selects the same trials whatever draws them."""
    kernel = structure._lex_least_fixed_sum
    for n in range(2, 11):
        seen = []

        def record(weights, T, length, target):
            seen.append(list(weights))
            return kernel(weights, T, length, target)

        monkeypatch.setattr(structure, "_lex_least_fixed_sum", record)
        report = egz_property(n, trials=40, seed=seed)
        assert report.verdict
        rng = random.Random(seed)
        expected = [
            sorted(rng.randrange(n) for _ in range(2 * n - 1)) for _ in range(40)
        ]
        assert seen == expected, n


def test_egz_spec_witness():
    C3 = make_group([3])
    S = parse_sequence(C3, "[0] [1]^2 [2]^2")
    assert str(extract_zero_sum_of_length(S, 3)) == "[0] [1] [2]"


def test_egz_tightness_example():
    C4 = make_group([4])
    S = parse_sequence(C4, "[0]^3 [1]^3")
    assert extract_zero_sum_of_length(S, 4) is None


# (m, t) -> (checked, zss_count, shape_a_matched, shape_b_matched)
TM1_CASES = {
    (2, 2): (1, 5, 1, 0),
    (2, 3): (3, 14, 3, 3),
    (2, 4): (6, 30, 6, 6),
    (2, 5): (10, 55, 10, 10),
    (2, 6): (15, 91, 15, 15),
    (2, 7): (21, 140, 21, 21),
    (3, 2): (24, 143, 24, 0),
    (3, 3): (120, 1430, 120, 48),
    (2, 10): (45, 385, 45, 45),
    (4, 2): (144, 10659, 144, 0),
    (3, 4): (336, 8398, 336, 144),
}


def test_tm1_small_cases():
    for (m, t), expected in TM1_CASES.items():
        report = tm1_structure_check(m, t)
        assert report.verdict and not report.violations
        d = report.details
        got = (
            report.checked,
            d["zss_count"],
            d["shape_a_matched"],
            d["shape_b_matched"],
        )
        assert got == expected, (m, t)


def test_shape_witnesses_regenerate():
    G = make_group([2, 2])
    # the unique ml-mzss over C_2 + C_2 viewed as a 2m-1 block sequence
    S = parse_sequence(G, "[0,1] [1,0] [1,1]")
    wits = shape_a_witnesses(S)
    assert wits
    for w in wits:
        assert gen_shape_a(2, w) == S
    # a block sequence with three zero-sum-block obstructions (t = 3)
    T = parse_sequence(G, "[1,0]^3 [0,1] [1,1]")
    new = shape_b_witnesses(T)
    assert new
    for w in new:
        assert gen_shape_b(2, w) == T
        assert zss_max_factors(T) < w.s1 + w.s2 + w.s3


def test_gen_shape_b_collision_handling():
    # over C_2 + C_2 the extra term b*f1 + 2*f2 collapses onto f1
    w = ShapeBWitness(f1=(1, 0), f2=(0, 1), s1=1, s2=1, s3=1, b=1)
    S = gen_shape_b(2, w)
    assert str(S) == "[0,1] [1,0]^3 [1,1]"
    assert len(S) == 5 and sigma(S) == (0, 0)


@pytest.mark.parametrize("m,t", [(2, 3), (3, 2)])
def test_tm1_hard_set_witnesses_regenerate(m, t):
    G = make_group([m, m])
    L = t * m - 1
    els = list(G.elements())
    for elems in itertools.combinations_with_replacement(els, L):
        S = Sequence.from_elements(G, elems)
        if sigma(S) != G.zero() or zss_max_factors(S) >= t:
            continue
        wa, wb = shape_a_witnesses(S), shape_b_witnesses(S)
        assert wa or wb, str(S)
        for w in wa:
            assert gen_shape_a(m, w) == S
        for w in wb:
            assert gen_shape_b(m, w) == S


def _shape_b_by_regeneration(S, m, t):
    """Every candidate (f1, f2, b) with s2 and s3 read off the multiplicities
    of f2 and b*f1 + f2, kept when gen_shape_b regenerates S."""
    G = S.group
    out = []
    for f1 in S.support():
        for f2 in G.elements():
            if G.zero() in (f1, f2) or not is_basis(G, (f1, f2)):
                continue
            for b in range(1, m):
                if math.gcd(b, m) != 1:
                    continue
                g3 = groups.add(G, groups.scale(G, b, f1), f2)
                s2, r2 = divmod(S.multiplicity(f2) + 1, m)
                s3, r3 = divmod(S.multiplicity(g3) + 1, m)
                s1 = t - s2 - s3
                if r2 or r3 or s1 < 1:
                    continue
                w = ShapeBWitness(f1, f2, s1, s2, s3, b)
                if gen_shape_b(m, w).terms == S.terms:
                    out.append(w)
    return tuple(out)


@pytest.mark.parametrize("m,t", [(2, 3), (2, 4), (3, 3)])
def test_shape_b_matches_regeneration_on_hard_sets(m, t):
    G = make_group([m, m])
    hard = 0
    for elems in itertools.combinations_with_replacement(sorted(G.elements()), t * m - 1):
        S = Sequence.from_elements(G, elems)
        if sigma(S) != G.zero() or zss_max_factors(S) >= t:
            continue
        hard += 1
        assert shape_b_witnesses(S) == _shape_b_by_regeneration(S, m, t), str(S)
    assert hard == TM1_CASES[m, t][0]


@pytest.mark.parametrize("m", [2, 3])
def test_all_shape_b_instances_resist_t_splitting(m):
    # exhaustive sweep of shape-B witnesses at t = 3: every generated sequence
    # is a zero-sum sequence of length 3m - 1 with fewer than 3 factors
    G = make_group([m, m])
    nonzero = [e for e in G.elements() if e != G.zero()]
    seen = set()
    for f1 in nonzero:
        for f2 in nonzero:
            if not is_basis(G, (f1, f2)):
                continue
            for b in range(1, m):
                if math.gcd(b, m) != 1:
                    continue
                S = gen_shape_b(m, ShapeBWitness(f1, f2, 1, 1, 1, b))
                seen.add(S)
    assert seen
    for S in seen:
        assert len(S) == 3 * m - 1
        assert sigma(S) == G.zero()
        assert zss_max_factors(S) < 3


def test_gen_shape_a_validation():
    with pytest.raises(BadWitness):
        gen_shape_a(2, ShapeAWitness((1, 0), (1, 0), 1, (1, 0)))  # not a basis
    with pytest.raises(BadWitness):
        gen_shape_a(2, ShapeAWitness((1, 0), (0, 1), 1, (1, 1)))  # sum != 1 mod 2


def test_verification_report_json_shape():
    report = check_cyclic_inverse(4)
    payload = report.to_json()
    assert set(payload) == {
        "check",
        "params",
        "checked",
        "violations",
        "verdict",
        "elapsed_ms",
        "details",
    }
    assert payload["check"] == "cyclic" and payload["verdict"] is True


def _all_type_witnesses(G):
    """Every type-1 and type-2 witness of G, generated from the definitions
    and grouped by the sequence it generates."""
    m, mn = G.invariant_factors
    n = mn // m
    nonzero = [e for e in G.elements() if e != G.zero()]
    t1, t2 = {}, {}
    for e1 in nonzero:
        for e2 in nonzero:
            if order(G, e2) != mn:
                continue
            if is_basis(G, (e1, e2)):
                for j, (ej, ek) in ((1, (e1, e2)), (2, (e2, e1))):
                    oj, ok = order(G, ej), order(G, ek)
                    for x in itertools.combinations_with_replacement(range(oj), ok):
                        if sum(x) % oj == oj - 1:
                            w = Type1Witness(e1, e2, j, x)
                            t1.setdefault(gen_type1(G, w), []).append(w)
            for s in range(1, n + 1):
                for x in itertools.combinations_with_replacement(range(m), (n + 1 - s) * m):
                    if sum(x) != m - 1:
                        continue
                    w = Type2Witness(e1, e2, s, x)
                    try:
                        S = gen_type2(G, w)
                    except (BadWitness, MissingCosetCondition):
                        break  # not generating, or no coset condition
                    t2.setdefault(S, []).append(w)
    return t1, t2


@pytest.mark.parametrize("factors", [(2, 2), (2, 4), (3, 3), (2, 6), (4, 4), (3, 6)])
def test_classify_finds_every_witness(factors):
    # completeness, not only soundness: classify returns exactly the witnesses
    # that the generators produce for S, in (e1, e2, j) and (g1, g2) order
    G = make_group(list(factors))
    t1, t2 = _all_type_witnesses(G)
    seqs = list(enumerate_ml_mzss(G))
    assert set(seqs) == set(t1) | set(t2)
    for S in seqs:
        result = classify(G, S)
        want1 = sorted(t1.get(S, []), key=lambda w: (w.e1, w.e2, w.j))
        want2 = sorted(t2.get(S, []), key=lambda w: (w.g1, w.g2))
        assert result.type1_witnesses == tuple(want1)
        assert result.type2_witnesses == tuple(want2)
        assert (result.is_type1, result.is_type2) == (bool(want1), bool(want2))


def _random_witnesses(G, seed):
    """One seeded random type-1 and one type-2 witness of G, built from
    random generating pairs with the definitional checks."""
    rng = random.Random(seed)
    m, mn = G.invariant_factors
    n = mn // m
    els = sorted(G.elements())[1:]
    top = [g for g in els if order(G, g) == mn]
    e1, e2 = rng.choice(els), rng.choice(top)
    while not is_basis(G, (e1, e2)):
        e1, e2 = rng.choice(els), rng.choice(top)
    j = rng.choice((1, 2))
    oj, ok = order(G, (e1, e2)[j - 1]), order(G, (e2, e1)[j - 1])
    x = [rng.randrange(oj) for _ in range(ok - 1)]
    w1 = Type1Witness(e1, e2, j, tuple(sorted(x + [(-1 - sum(x)) % oj])))
    s = rng.randint(1, n)
    while True:
        g1, g2 = rng.choice(els), rng.choice(top)
        if s != 1 and groups.scale(G, m, g1) != groups.scale(G, m, g2):
            continue
        if len(groups.subgroup_generated(G, (g1, g2))) == G.order:
            break
    x = [0] * ((n + 1 - s) * m)
    for _ in range(m - 1):
        x[rng.randrange(len(x))] += 1
    return w1, Type2Witness(g1, g2, s, tuple(sorted(x)))


# (group, seed) -> per generated sequence (type 1, then type 2): the number
# of type-1 and type-2 witnesses and the first 16 hex digits of the SHA-256
# of json.dumps(classify(G, S).to_json()), measured before the classifier
# moved to index tables
CLASSIFY_PINS = {
    ((5, 10), 1): ((5, 0, "9473a0b76fd3be08"), (5, 2, "4c0f3c5679661982")),
    ((5, 10), 2): ((5, 0, "40a5dc2ed3f1adbd"), (5, 1, "2ec748eb3f7f2edd")),
    ((7, 7), 1): ((14, 0, "4dc9318a89a4e913"), (14, 1, "378e619e83c14322")),
    ((7, 7), 2): ((14, 0, "6d6ee03cfe8407f1"), (14, 1, "39914818c366ce3f")),
    ((4, 16), 1): ((4, 0, "329f5cc63c1fb850"), (4, 1, "49efaf43000cae6c")),
    ((4, 16), 2): ((4, 0, "c47a3057480c322b"), (0, 1, "661ac38f58e3a73a")),
    ((8, 8), 1): ((16, 0, "303413e3fdf81ad7"), (32, 4, "fe656d2fb5e63853")),
    ((8, 8), 2): ((16, 0, "9f48a7cb67d528ca"), (16, 1, "1f513eed831d8985")),
    ((16, 16), 1): ((32, 0, "c3c47d194c8b28b1"), (32, 1, "b10c77f1d723ece6")),
    ((16, 16), 2): ((32, 0, "b610317266d33476"), (32, 1, "0f28cea0ea8c2041")),
}


@pytest.mark.parametrize("factors,seed", sorted(CLASSIFY_PINS))
def test_classify_frozen_past_the_enumeration_cap(factors, seed):
    # groups whose ml-mzss are too many to enumerate: the classifier's full
    # output on seeded sequences of both families stays byte-identical
    G = make_group(list(factors))
    w1, w2 = _random_witnesses(G, seed)
    got = []
    for S in (gen_type1(G, w1), gen_type2(G, w2)):
        payload = classify(G, S).to_json()
        digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]
        got.append(
            (len(payload["type1_witnesses"]), len(payload["type2_witnesses"]), digest)
        )
    assert tuple(got) == CLASSIFY_PINS[factors, seed]


@pytest.mark.parametrize(
    "factors",
    [(m, m * n) for m in range(2, 9) for n in range(1, 33) if m * m * n <= 64],
)
def test_pair_table_matches_definitions(factors):
    # the popcount generation test, orders, basis flags and coset positions
    # of the classifier's pair table against the definitional group functions
    G = make_group(list(factors))
    T = groups.index_tables(G)
    n = len(T.elements)
    generates = [[False] * n for _ in range(n)]
    for a, b in itertools.combinations_with_replacement(range(n), 2):
        span = groups.subgroup_generated(G, (T.elements[a], T.elements[b]))
        generates[a][b] = generates[b][a] = len(span) == n
    table = T.pairs
    for a, g in enumerate(T.elements):
        minus, pos, partners = table[a]
        assert len(minus) == order(G, g)
        assert sorted(x for x in pos if x >= 0) == list(range(len(minus)))
        assert [b for b, _, _ in partners] == [b for b in range(n) if generates[a][b]]
        for b, ob, basis in partners:
            h = T.elements[b]
            assert ob == order(G, h) and basis == is_basis(G, (g, h))
            for x in range(len(minus)):
                term = T.index[groups.add(G, groups.scale(G, -x, g), h)]
                assert pos[T.add[term][T.neg[b]]] == x


@pytest.mark.parametrize("m,t", [(2, 3), (2, 4), (3, 2), (3, 3)])
def test_shape_matchers_find_every_witness(m, t):
    # every shape-A and shape-B witness of length tm - 1, grouped by sequence,
    # against the matchers on every zero-sum sequence of that length
    G = make_group([m, m])
    nonzero = [e for e in G.elements() if e != G.zero()]
    pairs = [(f1, f2) for f1 in nonzero for f2 in nonzero if is_basis(G, (f1, f2))]
    wa, wb = {}, {}
    for f1, f2 in pairs:
        for s in range(1, t):
            for a in itertools.combinations_with_replacement(range(m), (t - s) * m):
                if sum(a) % m == 1:
                    w = ShapeAWitness(f1, f2, s, a)
                    wa.setdefault(gen_shape_a(m, w), []).append(w)
        for b in range(1, m):
            if math.gcd(b, m) != 1:
                continue
            for s1 in range(1, t - 1):
                for s2 in range(1, t - s1):
                    w = ShapeBWitness(f1, f2, s1, s2, t - s1 - s2, b)
                    wb.setdefault(gen_shape_b(m, w), []).append(w)
    assert wa and (wb or t < 3)
    for elems in itertools.combinations_with_replacement(sorted(G.elements()), t * m - 1):
        S = Sequence.from_elements(G, elems)
        if sigma(S) != G.zero():
            assert S not in wa and S not in wb
            continue
        assert shape_a_witnesses(S) == tuple(wa.get(S, []))
        assert shape_b_witnesses(S) == tuple(
            sorted(wb.get(S, []), key=lambda w: (w.f1, w.f2, w.b))
        )
