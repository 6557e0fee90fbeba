"""CLI output pinned byte for byte: every command in every --output format.

Each case pins the exit code, the full stdout after `strip_timing` and an
empty stderr. The argument-resolution tests pin how `--cap`,
`ZEROSUM_CAP_ORDER` and `--group` are checked, and in which order.
"""

import io

import pytest

from zerosum import structure
from zerosum.cli import run, strip_timing
from zerosum.structure import VerificationReport


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, strip_timing(out.getvalue()), err.getvalue()


ENUMERATED = (
    "[0,1]^3 [1,0] [1,1]\n"
    "[0,1]^3 [1,2] [1,3]\n"
    "[0,1] [1,0] [1,1]^3\n"
    "[0,1] [1,2] [1,3]^3\n"
    "[0,3]^3 [1,0] [1,3]\n"
    "[0,3]^3 [1,1] [1,2]\n"
    "[0,3] [1,0] [1,3]^3\n"
    "[0,3] [1,1]^3 [1,2]\n"
)

TYPE1 = (
    '[{"e1": "[1,0]", "e2": "[0,1]", "j": 2, "x": [1, 2]}, '
    '{"e1": "[1,2]", "e2": "[0,1]", "j": 1, "x": [0, 0, 0, 1]}, '
    '{"e1": "[1,2]", "e2": "[0,1]", "j": 2, "x": [0, 3]}, '
    '{"e1": "[1,2]", "e2": "[1,3]", "j": 1, "x": [0, 1, 1, 1]}]'
)
TYPE2 = (
    '[{"g1": "[0,1]", "g2": "[1,3]", "s": 2, "x": [0, 1]}, '
    '{"g1": "[1,2]", "g2": "[0,1]", "s": 1, "x": [0, 0, 0, 1]}, '
    '{"g1": "[1,3]", "g2": "[0,1]", "s": 1, "x": [0, 0, 0, 1]}]'
)

VERIFY_CSV_HEADER = "check,params,checked,violations,verdict,elapsed_ms\n"

CASES = {
    "davenport": (
        ["davenport", "--group", "2,4"],
        {
            "json": '{"group": "2,4", "D": 5, "witness": "[0,1]^3 [1,0] [1,1]", '
            '"elapsed_ms": 0, "nodes": 39}\n',
            "csv": 'group,D,witness,elapsed_ms,nodes\n"2,4",5,"[0,1]^3 [1,0] [1,1]",0,39\n',
            "text": "D(2,4) = 5, witness [0,1]^3 [1,0] [1,1]\n",
        },
    ),
    "enumerate": (
        ["enumerate", "--group", "2,4"],
        {
            "json": ENUMERATED
            + '{"group": "2,4", "D": 5, "total": 8, "orbits": 1, '
            '"representatives": ["[0,1]^3 [1,0] [1,1]"], "elapsed_ms": 0, "nodes": 39}\n',
            "csv": "sequence\n"
            + "".join(f'"{line}"\n' for line in ENUMERATED.splitlines()),
            "text": ENUMERATED + "total 8, orbits 1, D = 5\n",
        },
    ),
    "enumerate-canonical": (
        ["enumerate", "--group", "2,4", "--canonical"],
        {
            "json": "[0,1]^3 [1,0] [1,1]\n"
            '{"group": "2,4", "D": 5, "total": 8, "orbits": 1, '
            '"representatives": ["[0,1]^3 [1,0] [1,1]"], "elapsed_ms": 0, "nodes": 39}\n',
            "csv": 'sequence\n"[0,1]^3 [1,0] [1,1]"\n',
            "text": "[0,1]^3 [1,0] [1,1]\ntotal 8, orbits 1, D = 5\n",
        },
    ),
    "classify": (
        ["classify", "--group", "2,4", "--sequence", "[0,1]^3 [1,2] [1,3]"],
        {
            "json": '{"group": "2,4", "sequence": "[0,1]^3 [1,2] [1,3]", '
            f'"is_type1": true, "type1_witnesses": {TYPE1}, '
            f'"is_type2": true, "type2_witnesses": {TYPE2}}}\n',
            "csv": "group,sequence,is_type1,type1_witnesses,is_type2,type2_witnesses\n"
            '"2,4","[0,1]^3 [1,2] [1,3]",True,"'
            + TYPE1.replace('"', '""')
            + '",True,"'
            + TYPE2.replace('"', '""')
            + '"\n',
            "text": "[0,1]^3 [1,2] [1,3]: type1 = True (4 witnesses), "
            "type2 = True (3 witnesses)\n",
        },
    ),
    "verify-property-b": (
        ["verify", "property-b", "--m", "2"],
        {
            "json": '{"check": "property-b", "params": {"m": 2}, "checked": 1, '
            '"violations": [], "verdict": true, "elapsed_ms": 0, "details": '
            '{"witnesses": [{"sequence": "[0,1] [1,0] [1,1]", "element": "[0,1]", '
            '"cofactor": "[1,0] [1,1]"}]}}\n',
            "csv": VERIFY_CSV_HEADER + 'property-b,"{""m"": 2}",1,[],True,0\n',
            "text": 'property-b {"m": 2}: verified, 1 checked, 0 violations\n',
        },
    ),
    "verify-cyclic": (
        ["verify", "cyclic", "--n", "6"],
        {
            "json": '{"check": "cyclic", "params": {"n": 6}, "checked": 2, '
            '"violations": [], "verdict": true, "elapsed_ms": 0, '
            '"details": {"count": 2, "expected_count": 2}}\n',
            "csv": VERIFY_CSV_HEADER + 'cyclic,"{""n"": 6}",2,[],True,0\n',
            "text": 'cyclic {"n": 6}: verified, 2 checked, 0 violations\n',
        },
    ),
    "verify-egz": (
        ["verify", "egz", "--n", "3", "--trials", "20", "--seed", "7"],
        {
            "json": '{"check": "egz", "params": {"n": 3, "trials": 20, "seed": 7}, '
            '"checked": 21, "violations": [], "verdict": true, "elapsed_ms": 0, '
            '"details": {"tightness_length": 4}}\n',
            "csv": VERIFY_CSV_HEADER
            + 'egz,"{""n"": 3, ""trials"": 20, ""seed"": 7}",21,[],True,0\n',
            "text": 'egz {"n": 3, "trials": 20, "seed": 7}: verified, '
            "21 checked, 0 violations\n",
        },
    ),
    "verify-theorem": (
        ["verify", "theorem", "--group", "2,4"],
        {
            "json": '{"check": "theorem", "params": {"group": "2,4"}, "checked": 8, '
            '"violations": [], "verdict": true, "elapsed_ms": 0, '
            '"details": {"total": 8, "type1": 8, "type2": 8, "both": 8}}\n',
            "csv": VERIFY_CSV_HEADER + 'theorem,"{""group"": ""2,4""}",8,[],True,0\n',
            "text": 'theorem {"group": "2,4"}: verified, 8 checked, 0 violations\n',
        },
    ),
    "verify-tm1": (
        ["verify", "tm1", "--m", "2", "--t", "2"],
        {
            "json": '{"check": "tm1", "params": {"m": 2, "t": 2}, "checked": 1, '
            '"violations": [], "verdict": true, "elapsed_ms": 0, "details": '
            '{"zss_count": 5, "shape_a_matched": 1, "shape_b_matched": 0}}\n',
            "csv": VERIFY_CSV_HEADER + 'tm1,"{""m"": 2, ""t"": 2}",1,[],True,0\n',
            "text": 'tm1 {"m": 2, "t": 2}: verified, 1 checked, 0 violations\n',
        },
    ),
}


@pytest.mark.parametrize("output", ["json", "csv", "text"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_pinned(case, output):
    argv, expected = CASES[case]
    assert invoke(argv + ["--output", output]) == (0, expected[output], "")


def test_default_output_is_json():
    for argv, expected in CASES.values():
        assert invoke(argv) == (0, expected["json"], "")


FAILED = {
    "json": '{"check": "cyclic", "params": {"n": 6}, "checked": 3, '
    '"violations": ["[1]^6", "[2]^3 [3]^2"], "verdict": false, "elapsed_ms": 0, '
    '"details": {"count": 3}}\n',
    "csv": VERIFY_CSV_HEADER
    + 'cyclic,"{""n"": 6}",3,"[""[1]^6"", ""[2]^3 [3]^2""]",False,0\n',
    "text": 'cyclic {"n": 6}: FAILED, 3 checked, 2 violations\n'
    "  violation: [1]^6\n"
    "  violation: [2]^3 [3]^2\n",
}


@pytest.mark.parametrize("output", ["json", "csv", "text"])
def test_failed_verify_pinned(monkeypatch, output):
    # a sweep that found violations, reported through the CLI's report path
    report = VerificationReport(
        check="cyclic",
        params={"n": 6},
        checked=3,
        violations=["[1]^6", "[2]^3 [3]^2"],
        verdict=False,
        elapsed_ms=17,
        details={"count": 3},
    )
    monkeypatch.setattr(structure, "check_cyclic_inverse", lambda n, cap: report)
    argv = ["verify", "cyclic", "--n", "6", "--output", output]
    assert invoke(argv) == (1, FAILED[output], "")


BAD_ENV = "error: ZEROSUM_CAP_ORDER must be an integer, got 'x'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--group", "2,4"],
        ["enumerate", "--group", "2,4", "--canonical"],
        ["verify", "property-b", "--m", "3"],
        ["verify", "cyclic", "--n", "5"],
        ["verify", "theorem", "--group", "2,4"],
    ],
    ids=["enumerate", "enumerate-canonical", "verify-property-b", "verify-cyclic",
         "verify-theorem"],
)
def test_malformed_env_cap_is_usage_error(monkeypatch, argv):
    # the variable sets the enumeration cap of these commands without --cap
    monkeypatch.setenv("ZEROSUM_CAP_ORDER", "x")
    assert invoke(argv) == (2, "", BAD_ENV)


@pytest.mark.parametrize(
    "argv",
    [
        ["davenport", "--group", "2,4"],
        ["classify", "--group", "2,4", "--sequence", "[0,1]^3 [1,2] [1,3]"],
        ["verify", "egz", "--n", "3", "--trials", "5"],
        ["verify", "tm1", "--m", "2", "--t", "2"],
        ["enumerate", "--group", "2,4", "--cap", "40"],
    ],
    ids=["davenport", "classify", "verify-egz", "verify-tm1", "enumerate-cap"],
)
def test_malformed_env_cap_is_ignored_where_unread(monkeypatch, argv):
    # no enumeration cap is read, or --cap sets it: the variable is not parsed
    monkeypatch.setenv("ZEROSUM_CAP_ORDER", "x")
    code, out, err = invoke(argv)
    monkeypatch.delenv("ZEROSUM_CAP_ORDER")
    assert (code, out, err) == invoke(argv) and code == 0


def test_group_error_comes_before_env_error(monkeypatch):
    # argparse parses --group, so its error also comes before an unknown flag
    chain = (2, "", "error: 4 does not divide 2\n")
    assert invoke(["davenport", "--group", "4,2"]) == chain
    monkeypatch.setenv("ZEROSUM_CAP_ORDER", "x")
    for argv in (["--group", "4,2"], ["--group", "4,2", "--bogus"]):
        assert invoke(["enumerate"] + argv) == chain


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "property-b", "--m", "3"],
        ["verify", "cyclic", "--n", "5"],
        ["verify", "egz", "--n", "3", "--trials", "5"],
        ["verify", "tm1", "--m", "2", "--t", "2"],
    ],
    ids=lambda argv: argv[1],
)
def test_verify_refuses_group_off_theorem(argv):
    # a well-formed group is refused, not ignored, on every other target
    code, out, err = invoke(argv + ["--group", "2,4"])
    assert (code, out) == (2, "") and "unrecognized arguments: --group 2,4" in err


def test_cap_flag_wins_over_env(monkeypatch):
    monkeypatch.setenv("ZEROSUM_CAP_ORDER", "64")
    code, out, err = invoke(["enumerate", "--group", "3,6", "--cap", "4"])
    assert (code, out) == (3, "") and "cap" in err
    monkeypatch.setenv("ZEROSUM_CAP_ORDER", "4")
    code, _, err = invoke(["verify", "theorem", "--group", "2,4", "--cap", "8"])
    assert (code, err) == (0, "")


def test_env_cap_leaves_davenport_cap_alone(monkeypatch):
    # the variable sets the enumeration cap only; --cap sets both
    monkeypatch.setenv("ZEROSUM_CAP_ORDER", "4")
    assert invoke(["davenport", "--group", "2,4"]) == (0, CASES["davenport"][1]["json"], "")
    code, out, err = invoke(["davenport", "--group", "2,4", "--cap", "4"])
    assert (code, out) == (3, "") and "cap" in err
