"""The record types: repr, equality and hashing, keyword construction,
immutability, and the checks their constructors make."""

import pytest

from zerosum import (
    BadParams,
    ClassificationResult,
    DavenportResult,
    DimensionMismatch,
    EnumerationReport,
    GroupSpec,
    Homomorphism,
    Sequence,
    ShapeAWitness,
    ShapeBWitness,
    Type1Witness,
    Type2Witness,
    VerificationReport,
    make_group,
    parse_sequence,
)

G = make_group([3, 9])
S = parse_sequence(G, "[0,1]^2 [1,0]")
T1 = Type1Witness(e1=(1, 0), e2=(0, 1), j=2, x=(1, 2))
T2 = Type2Witness(g1=(1, 1), g2=(0, 1), s=2, x=(1, 0))

# one keyword construction per frozen record type
FROZEN = [
    (GroupSpec, dict(invariant_factors=(3, 9))),
    (Sequence, dict(group=G, terms=(((0, 1), 2), ((1, 0), 1)))),
    (Homomorphism, dict(source=G, target=G, images=((1, 0), (0, 1)))),
    (DavenportResult, dict(group=G, d=11, witness=S, elapsed_ms=3, nodes=7)),
    (
        EnumerationReport,
        dict(
            group=G, length=11, total=4, orbits=1, representatives=(S,),
            elapsed_ms=3, nodes=7,
        ),
    ),
    (Type1Witness, dict(e1=(1, 0), e2=(0, 1), j=2, x=(1, 2))),
    (Type2Witness, dict(g1=(1, 1), g2=(0, 1), s=2, x=(1, 0))),
    (
        ClassificationResult,
        dict(
            is_type1=True, type1_witnesses=(T1,), is_type2=True,
            type2_witnesses=(T2,),
        ),
    ),
    (ShapeAWitness, dict(f1=(1, 0), f2=(0, 1), s=1, a=(1, 0, 0))),
    (ShapeBWitness, dict(f1=(1, 0), f2=(0, 1), s1=1, s2=1, s3=1, b=1)),
]

IDS = [cls.__name__ for cls, _ in FROZEN]


def test_group_and_sequence_repr():
    assert repr(G) == "GroupSpec(invariant_factors=(3, 9))"
    assert repr(S) == (
        "Sequence(group=GroupSpec(invariant_factors=(3, 9)), "
        "terms=(((0, 1), 2), ((1, 0), 1)))"
    )


@pytest.mark.parametrize("cls, fields", FROZEN, ids=IDS)
def test_keyword_construction_equality_and_hash(cls, fields):
    a, b = cls(**fields), cls(**dict(fields))
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    for name, value in fields.items():
        assert getattr(a, name) == value
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields", FROZEN, ids=IDS)
def test_frozen_records_refuse_assignment(cls, fields):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) == value


def test_records_differ_when_a_field_differs():
    assert make_group([3, 9]) != make_group([9])
    assert parse_sequence(G, "[0,1]^2 [1,0]") != parse_sequence(G, "[0,1] [1,0]")
    assert T1 != Type1Witness(e1=(1, 0), e2=(0, 1), j=1, x=(1, 2))


def test_verification_report_details_default_to_empty():
    fields = dict(
        check="egz", params={"n": 2}, checked=1, violations=[], verdict=True,
        elapsed_ms=0,
    )
    report = VerificationReport(**fields)
    assert report.details == {}
    assert report.to_json()["details"] == {}
    assert VerificationReport(**fields, details={"k": 1}).details == {"k": 1}
    assert VerificationReport(**fields).details == {}


def test_homomorphism_checks_its_images():
    with pytest.raises(BadParams):  # 3 * (0, 1) != 0 in C_3 + C_9
        Homomorphism(source=G, target=G, images=((0, 1), (1, 0)))
    with pytest.raises(BadParams):
        Homomorphism(G, G, ((0, 1), (1, 0)))
    with pytest.raises(DimensionMismatch):
        Homomorphism(G, G, ((1, 0),))
    h = Homomorphism(G, G, ((1, 0), (0, 1)))
    assert h.apply((2, 5)) == (2, 5)
