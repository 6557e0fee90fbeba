"""Family generators, the classifier, and the verification sweeps."""

import itertools
import math

import pytest

from zerosum import (
    BadLength,
    BadParams,
    BadWitness,
    GroupMismatch,
    MissingCosetCondition,
    NotMlMzss,
    Sequence,
    ShapeAWitness,
    ShapeBWitness,
    Type1Witness,
    Type2Witness,
    apply_hom,
    automorphisms,
    check_cyclic_inverse,
    check_property_b,
    check_rank_two_structure,
    classify,
    davenport_closed_form,
    egz_property,
    enumerate_ml_mzss,
    extract_zero_sum_of_length,
    find_admissible_factorization,
    gen_shape_a,
    gen_shape_b,
    gen_type1,
    gen_type2,
    inductive_quotient,
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
            a, b = classify(G, S), classify(G, apply_hom(alpha, S))
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


def test_check_cyclic_inverse():
    report = check_cyclic_inverse(6)
    assert report.verdict and report.checked == 2
    assert report.details == {"count": 2, "expected_count": 2}
    assert check_cyclic_inverse(2).checked == 1
    assert check_cyclic_inverse(12).checked == 4
    with pytest.raises(BadParams):
        check_cyclic_inverse(1)


def test_egz_property_reports():
    report = egz_property(3, trials=200, seed=42)
    assert report.verdict and report.checked == 201
    report = egz_property(2, trials=50, seed=0)
    assert report.verdict  # length three over C_2 always works (pigeonhole)


def test_egz_spec_witness():
    C3 = make_group([3])
    S = parse_sequence(C3, "[0] [1]^2 [2]^2")
    assert str(extract_zero_sum_of_length(S, 3)) == "[0] [1] [2]"


def test_egz_tightness_example():
    C4 = make_group([4])
    S = parse_sequence(C4, "[0]^3 [1]^3")
    assert extract_zero_sum_of_length(S, 4) is None


def test_tm1_small_cases():
    report = tm1_structure_check(2, 2)
    assert report.verdict and report.checked == 1
    assert report.details["shape_b_matched"] == 0
    report = tm1_structure_check(3, 2)
    assert report.verdict and report.checked == 24
    assert report.details["shape_b_matched"] == 0
    report = tm1_structure_check(2, 3)
    assert report.verdict and report.checked == 3
    assert report.details["shape_b_matched"] == 3


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


def test_find_admissible_factorization_examples():
    phi = inductive_quotient(2, 2)
    T = parse_sequence(phi.source, "[1,1] [0,1]^3")
    blocks = find_admissible_factorization(2, 2, 1, T)
    assert [str(b) for b in blocks] == ["[0,1] [1,1]", "[0,1]^2"]
    # image of every block but the first sums to zero; here the first is the
    # generator coset as expected
    assert sigma(apply_hom(phi, blocks[1])) == (0, 0)
    assert sigma(apply_hom(phi, blocks[0])) == (1, 0)

    short = parse_sequence(phi.source, "[0,1]^2")
    assert find_admissible_factorization(2, 2, 2, short) == [short]

    T = parse_sequence(phi.source, "[1,1]^4")
    blocks = find_admissible_factorization(2, 2, 1, T)
    assert [str(b) for b in blocks] == ["[1,1]^2", "[1,1]^2"]
    assert sigma(apply_hom(phi, blocks[0])) == (0, 0)  # raw split only


def test_find_admissible_factorization_none_when_impossible():
    phi = inductive_quotient(2, 2)
    # all four images are distinct in C_2 + C_2, so no pair sums to zero
    T = parse_sequence(phi.source, "[0,0] [0,1] [1,0] [1,1]")
    assert find_admissible_factorization(2, 2, 1, T) is None


def test_find_admissible_factorization_errors():
    phi = inductive_quotient(2, 2)
    T = parse_sequence(phi.source, "[1,1] [0,1]^3")
    with pytest.raises(BadLength):
        find_admissible_factorization(2, 2, 2, T)
    with pytest.raises(BadLength):
        find_admissible_factorization(2, 2, 0, T)
    with pytest.raises(GroupMismatch):
        find_admissible_factorization(3, 2, 1, T)
    with pytest.raises(BadParams):
        find_admissible_factorization(1, 2, 1, T)


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
