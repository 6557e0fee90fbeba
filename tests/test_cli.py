"""CLI behavior: exit codes, output formats, determinism, cap overrides."""

import argparse
import io
import json

import pytest

from zerosum import cli, parse_group, parse_sequence
from zerosum.cli import _emit_report, run, strip_timing
from zerosum.structure import VerificationReport


def invoke(argv, env=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_davenport_json():
    code, out, err = invoke(["davenport", "--group", "3,6"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["D"] == 8 and payload["group"] == "3,6"
    assert payload["nodes"] > 0


def test_davenport_text_and_csv():
    code, out, _ = invoke(["davenport", "--group", "2,4", "--output", "text"])
    assert code == 0 and "D(2,4) = 5" in out
    code, out, _ = invoke(["davenport", "--group", "2,4", "--output", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "group,D,witness,elapsed_ms,nodes"
    assert lines[1].startswith('"2,4",5,')


def test_enumerate_stream_and_summary():
    code, out, _ = invoke(["enumerate", "--group", "2,4"])
    assert code == 0
    lines = out.splitlines()
    summary = json.loads(lines[-1])
    assert summary["total"] == 8 == len(lines) - 1
    assert summary["orbits"] == 1
    assert lines[0] == "[0,1]^3 [1,0] [1,1]"
    G = parse_group("2,4")
    for line in lines[:-1]:
        assert line == str(parse_sequence(G, line))  # canonical text round-trips


def test_enumerate_canonical():
    code, out, _ = invoke(["enumerate", "--group", "2,4", "--canonical"])
    assert code == 0
    lines = out.splitlines()
    assert lines[:-1] == ["[0,1]^3 [1,0] [1,1]"]


def test_classify_json():
    code, out, _ = invoke(
        ["classify", "--group", "2,4", "--sequence", "[0,1]^3 [1,2] [1,3]"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["is_type1"] is True
    assert {"e1": "[1,0]", "e2": "[0,1]", "j": 2, "x": [1, 2]} in payload[
        "type1_witnesses"
    ]


def test_classify_rejects_short_sequence():
    code, out, err = invoke(["classify", "--group", "2,4", "--sequence", "[0,0]"])
    assert code == 2 and out == "" and "error" in err


# (total, type1, type2, both) of `verify theorem` on every C_m + C_mn with
# |G| <= 36, measured by classifying every ml-mzss
THEOREM_DETAILS = {
    (2, 2): (1, 1, 1, 1),
    (2, 4): (8, 8, 8, 8),
    (2, 6): (24, 24, 24, 24),
    (2, 8): (48, 48, 48, 48),
    (2, 10): (96, 96, 96, 96),
    (2, 12): (80, 80, 80, 80),
    (2, 14): (216, 216, 216, 216),
    (2, 16): (224, 224, 224, 224),
    (2, 18): (288, 288, 288, 288),
    (3, 3): (24, 24, 24, 24),
    (3, 6): (240, 240, 144, 144),
    (3, 9): (1296, 1188, 648, 540),
    (3, 12): (2016, 1824, 864, 672),
    (4, 4): (144, 144, 144, 144),
    (4, 8): (2560, 2432, 768, 640),
    (5, 5): (2160, 2160, 1680, 1680),
    (6, 6): (3456, 3456, 1584, 1584),
}


@pytest.mark.parametrize("factors", sorted(THEOREM_DETAILS))
def test_verify_theorem_details_frozen(factors):
    group = ",".join(map(str, factors))
    code, out, err = invoke(["verify", "theorem", "--group", group])
    total, type1, type2, both = THEOREM_DETAILS[factors]
    assert (code, err) == (0, "")
    assert json.loads(strip_timing(out)) == {
        "check": "theorem",
        "params": {"group": group},
        "checked": total,
        "violations": [],
        "verdict": True,
        "elapsed_ms": 0,
        "details": {"total": total, "type1": type1, "type2": type2, "both": both},
    }


@pytest.mark.parametrize("seed", [0, 111])
@pytest.mark.parametrize("n", range(2, 11))
def test_verify_egz_frozen(n, seed):
    code, out, err = invoke(["verify", "egz", "--n", str(n), "--seed", str(seed)])
    assert (code, err) == (0, "")
    assert strip_timing(out) == (
        f'{{"check": "egz", "params": {{"n": {n}, "trials": 1000, "seed": {seed}}}, '
        '"checked": 1001, "violations": [], "verdict": true, "elapsed_ms": 0, '
        f'"details": {{"tightness_length": {2 * n - 2}}}}}\n'
    )


def test_verify_exit_codes_and_reports():
    code, out, _ = invoke(["verify", "theorem", "--group", "2,4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True and payload["violations"] == []
    code, out, _ = invoke(["verify", "property-b", "--m", "2"])
    assert code == 0 and json.loads(out)["checked"] == 1
    code, out, _ = invoke(["verify", "cyclic", "--n", "6"])
    assert code == 0 and json.loads(out)["checked"] == 2
    code, out, _ = invoke(
        ["verify", "egz", "--n", "3", "--trials", "20", "--seed", "7"]
    )
    assert code == 0 and json.loads(out)["checked"] == 21
    code, out, _ = invoke(["verify", "tm1", "--m", "2", "--t", "2"])
    assert code == 0 and json.loads(out)["checked"] == 1


def test_verify_missing_flags_is_usage_error():
    code, out, err = invoke(["verify", "property-b"])
    assert code == 2 and "the following arguments are required: --m" in err
    code, out, err = invoke(["verify", "tm1", "--m", "2"])
    assert code == 2 and "the following arguments are required: --t" in err


def test_usage_errors():
    code, _, _ = invoke(["no-such-command"])
    assert code == 2
    code, _, _ = invoke(["davenport"])  # missing --group
    assert code == 2
    code, _, err = invoke(["davenport", "--group", "4,2"])
    assert code == 2 and "divide" in err


def test_cap_exceeded_exit_code():
    code, _, err = invoke(["davenport", "--group", "10,10"])
    assert code == 3 and "cap" in err
    code, _, err = invoke(["enumerate", "--group", "2,4", "--cap", "4"])
    assert code == 3


@pytest.mark.parametrize("canonical", [False, True])
def test_enumeration_past_automorphism_cap(canonical):
    # the automorphism cap does not bound enumeration: inside the
    # enumeration cap, C_67 runs the orderly search from its one orbit
    # minimum
    argv = ["enumerate", "--group", "67", "--cap", "100"]
    code, out, err = invoke(argv + ["--canonical"] * canonical)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    summary = json.loads(lines[-1])
    assert len(lines) - 1 == (1 if canonical else 66)
    assert (summary["total"], summary["orbits"], summary["nodes"]) == (66, 1, 2147)
    assert summary["representatives"] == lines[0:1] == ["[1]^67"]


RANK_TWO_ONLY = "error: enumeration supports groups of rank <= 2 only\n"


@pytest.mark.parametrize(
    "argv,code,err",
    [
        (["enumerate", "--group", "2,2,2"], 3, RANK_TWO_ONLY),
        (["enumerate", "--group", "2,2,2", "--canonical"], 3, RANK_TWO_ONLY),
        (
            ["verify", "theorem", "--group", "2,2,2"],
            2,
            "error: group 2,2,2 does not have rank two\n",
        ),
    ],
    ids=["enumerate", "enumerate-canonical", "verify-theorem"],
)
def test_rank_three_exit_codes(argv, code, err):
    # the enumeration refuses rank > 2 as a cap; the theorem sweep, which
    # is stated for C_m + C_mn only, refuses it as a usage error
    assert invoke(argv) == (code, "", err)


def test_classify_at_the_arithmetic_cap():
    # |G| = 256 is the largest group with tables; one factor more is refused
    seq = "[0,1]^15 " + " ".join(["[1,0]"] * 15) + " [1,1]"
    code, out, err = invoke(["classify", "--group", "16,16", "--sequence", seq])
    assert code == 0 and err == "" and json.loads(out)["is_type1"] is True
    seq = "[0,1]^31 " + " ".join(["[1,0]"] * 15) + " [1,1]"
    code, out, err = invoke(["classify", "--group", "16,32", "--sequence", seq])
    assert code == 3 and out == ""
    assert "exceeds arithmetic cap 256" in err


def test_env_var_overrides_enumeration_cap(monkeypatch):
    monkeypatch.setenv("ZEROSUM_CAP_ORDER", "4")
    code, _, err = invoke(["enumerate", "--group", "3,6"])
    assert code == 3
    monkeypatch.setenv("ZEROSUM_CAP_ORDER", "64")
    code, _, _ = invoke(["enumerate", "--group", "3,6"])
    assert code == 0


def test_flag_cap_beats_env(monkeypatch):
    monkeypatch.setenv("ZEROSUM_CAP_ORDER", "4")
    code, _, _ = invoke(["enumerate", "--group", "3,6", "--cap", "40"])
    assert code == 0


def test_json_lines_discipline():
    _, out, _ = invoke(["verify", "cyclic", "--n", "8"])
    for line in out.splitlines():
        json.loads(line)


def test_identical_invocations_are_byte_identical():
    a = invoke(["enumerate", "--group", "2,6"])[1]
    b = invoke(["enumerate", "--group", "2,6"])[1]
    assert strip_timing(a) == strip_timing(b)
    a = invoke(["verify", "egz", "--n", "4", "--trials", "50", "--seed", "3"])[1]
    b = invoke(["verify", "egz", "--n", "4", "--trials", "50", "--seed", "3"])[1]
    assert strip_timing(a) == strip_timing(b)


def test_strip_timing_only_touches_elapsed():
    text = '{"elapsed_ms": 1234, "nodes": 99}\n'
    assert strip_timing(text) == '{"elapsed_ms": 0, "nodes": 99}\n'


def test_strip_timing_zeroes_csv_elapsed_column():
    davenport = (
        "group,D,witness,elapsed_ms,nodes\n"
        '"3,6",8,"[0,1]^5 [1,0]^2 [1,1]",52,9962\n'
    )
    assert strip_timing(davenport) == (
        "group,D,witness,elapsed_ms,nodes\n"
        '"3,6",8,"[0,1]^5 [1,0]^2 [1,1]",0,9962\n'
    )
    verify = (
        "check,params,checked,violations,verdict,elapsed_ms\n"
        'theorem,"{""group"": ""3,6""}",240,[],True,1234\n'
    )
    assert strip_timing(verify) == (
        "check,params,checked,violations,verdict,elapsed_ms\n"
        'theorem,"{""group"": ""3,6""}",240,[],True,0\n'
    )
    # rows without a header naming the column, and JSON lines, stay as they are
    other = 'sequence\n"[0,1]^3 [1,0] [1,1]"\n{"a": 1, "b": 2}\n'
    assert strip_timing(other) == other


def test_report_with_violations_exits_one():
    report = VerificationReport(
        check="synthetic",
        params={},
        checked=1,
        violations=["[1,1]"],
        verdict=False,
        elapsed_ms=0,
    )
    out = io.StringIO()
    assert _emit_report(out, report, "json") == 1
    assert json.loads(out.getvalue())["verdict"] is False
    out = io.StringIO()
    assert _emit_report(out, report, "text") == 1
    assert "FAILED" in out.getvalue()


def test_verify_text_and_csv_outputs():
    code, out, _ = invoke(
        ["verify", "cyclic", "--n", "6", "--output", "text"]
    )
    assert code == 0 and "verified" in out
    code, out, _ = invoke(["verify", "cyclic", "--n", "6", "--output", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,params,checked,violations,verdict,elapsed_ms"
    assert lines[1].startswith("cyclic,")


def test_cached_parser_matches_fresh_parsers(monkeypatch, capsys):
    calls = [
        ["davenport", "--group", "2,4"],
        ["frobnicate"],  # usage error, reported by argparse
        ["davenport", "--group", "9,9", "--cap", "64"],  # cap error
        ["verify", "theorem"],  # missing --group
        ["enumerate", "--group", "2,4", "--canonical", "--output", "text"],
        ["verify", "tm1", "--m", "2"],  # missing --t
        ["classify", "--group", "2,4", "--sequence", "[0,1]^3 [1,0] [1,1]"],
        ["davenport", "--group", "2,2", "--output", "csv"],
    ]

    def outcomes():
        results = []
        for argv in calls:
            code, out, err = invoke(argv)
            printed = capsys.readouterr()
            results.append((code, strip_timing(out), err, printed.out, printed.err))
        return results

    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        fresh = outcomes()
    cached = outcomes()
    assert cli._parser() is cli._parser()
    assert cached == fresh
    assert [r[0] for r in cached] == [0, 2, 3, 2, 0, 2, 0, 0]


def test_usage_errors_go_to_runs_streams(capsys):
    err = io.StringIO()
    assert run(["davenport", "--group", "2,4", "--workers", "2"], err=err) == 2
    assert "unrecognized arguments: --workers 2" in err.getvalue()
    code, out, err = invoke(["verify", "egz", "-h"])
    assert code == 0 and out.startswith("usage: zerosum verify egz") and err == ""
    assert capsys.readouterr() == ("", "")


# every command and verify target accepts exactly the flags it reads
SURFACE = {
    ("davenport",): ["--group", "--cap"],
    ("enumerate",): ["--group", "--workers", "--cap", "--canonical"],
    ("classify",): ["--group", "--sequence"],
    ("verify", "property-b"): ["--m", "--cap"],
    ("verify", "cyclic"): ["--n", "--cap"],
    ("verify", "egz"): ["--n", "--trials", "--seed"],
    ("verify", "theorem"): ["--group", "--workers", "--cap"],
    ("verify", "tm1"): ["--m", "--t"],
}
FLAG_ARGS = {
    "--group": ["2,4"], "--cap": ["8"], "--workers": ["2"], "--canonical": [],
    "--sequence": ["[0,1]^5"], "--m": ["3"], "--n": ["3"], "--t": ["2"],
    "--trials": ["5"], "--seed": ["1"],
}
VALID = {
    ("davenport",): ["--group", "2,4"],
    ("enumerate",): ["--group", "2,4"],
    ("classify",): ["--group", "2,4", "--sequence", "[0,1]^3 [1,2] [1,3]"],
    ("verify", "property-b"): ["--m", "3"],
    ("verify", "cyclic"): ["--n", "5"],
    ("verify", "egz"): ["--n", "3", "--trials", "5"],
    ("verify", "theorem"): ["--group", "2,4"],
    ("verify", "tm1"): ["--m", "2", "--t", "2"],
}


def _leaf_parsers(parser, path=()):
    """(command path, parser) for every parser that takes no subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, path + (name,))


def test_every_command_is_pinned():
    assert [path for path, _ in _leaf_parsers(cli.build_parser())] == list(SURFACE)
    assert set(FLAG_ARGS) == {flag for flags in SURFACE.values() for flag in flags}


@pytest.mark.parametrize("path", list(SURFACE), ids=" ".join)
def test_command_accepts_exactly_the_flags_it_reads(path):
    parser = dict(_leaf_parsers(cli.build_parser()))[path]
    flags = [
        s for a in parser._actions for s in a.option_strings
        if s not in ("-h", "--help", "--output")
    ]
    assert flags == SURFACE[path]
    argv = list(path) + VALID[path]
    assert invoke(argv)[0] == 0
    for flag in FLAG_ARGS.keys() - set(flags):
        code, out, err = invoke(argv + [flag] + FLAG_ARGS[flag])
        assert (code, out) == (2, ""), flag
        assert "unrecognized arguments" in err, flag


@pytest.mark.parametrize("path", list(SURFACE), ids=" ".join)
def test_command_refuses_abbreviated_flags(path):
    # each flag has one spelling: a proper prefix is an unknown flag even
    # where it is unique; a prefix of --workers gets 1, so it starts no pool
    values = {**FLAG_ARGS, "--workers": ["1"], "--output": ["text"], "--help": []}
    argv = list(path) + VALID[path]
    for flag in SURFACE[path] + ["--output", "--help"]:
        for end in range(3, len(flag)):
            code, out, err = invoke(argv + [flag[:end]] + values[flag])
            assert (code, out) == (2, ""), flag[:end]
            assert "unrecognized arguments" in err, flag[:end]
