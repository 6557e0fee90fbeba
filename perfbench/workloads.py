"""The benchmark's workloads: the CLI calls of one round and their checks.

Each workload is a list of calls, made in this order by one fresh
interpreter. A call is an argument list for `zerosum.cli.run` and a check
that takes the call's stdout and returns the problems it finds (none when
the output is right). Checks compare against `oracle`, never against
zerosum itself or against stored output.
"""

from __future__ import annotations

import functools
import json
import random

import oracle

# (m, n) for C_m + C_mn. Classification groups lie past the enumeration cap
# of 36, where only the classifier can answer. The sizes keep a round to
# 2.5-5 s, so that a 30-s run holds enough rounds for steady medians.
DAVENPORT_GROUPS = ((3, 3), (5, 1), (2, 6))
CLASSIFY_GROUPS = ((5, 2), (7, 1), (4, 4))
CLASSIFY_CALLS_PER_GROUP = 14
TM1 = (2, 7)  # (m, t)
EGZ = (10, 3_000)  # (n, trials)


def _group(m, n):
    return f"{m},{m * n}"


@functools.cache
def families(m, n):
    """(type 1, type 2) sequence sets over C_m + C_mn."""
    return oracle.ml_mzss_families(m, n)


@functools.cache
def ml_mzss(m, n):
    type1, type2 = families(m, n)
    return type1 | type2


@functools.cache
def representatives(m, n):
    return oracle.orbit_representatives((m, m * n), ml_mzss(m, n))


def _json_lines(stdout, count):
    lines = stdout.splitlines()
    if len(lines) != count:
        raise ValueError(f"expected {count} output lines, got {len(lines)}")
    return [json.loads(line) for line in lines]


def _problems(check):
    """Run a check, turning malformed output into a reported problem."""

    @functools.wraps(check)
    def guarded(stdout):
        try:
            return check(stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"malformed output: {exc!r}"]

    return guarded


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _check_ml_mzss_lines(problems, factors, lines):
    """Each line canonical, strictly increasing, and a minimal zero-sum
    sequence of length D = n1 + n2 - 1."""
    d = factors[0] + factors[1] - 1
    seqs = [oracle.parse_sequence(line) for line in lines]
    for line, seq in zip(lines, seqs):
        if oracle.format_sequence(seq) != line:
            problems.append(f"not canonical: {line}")
        if len(seq) != d or not oracle.is_mzss(factors, seq):
            problems.append(f"not a minimal zero-sum sequence of length {d}: {line}")
    if any(a >= b for a, b in zip(seqs, seqs[1:])):
        problems.append("lines are not strictly increasing")
    return seqs


def davenport_calls(seed):
    calls = []
    for m, n in DAVENPORT_GROUPS:
        factors = (m, m * n)

        @_problems
        def check(stdout, factors=factors):
            (p,) = _json_lines(stdout, 1)
            problems = []
            _expect(problems, "group", p["group"], f"{factors[0]},{factors[1]}")
            _expect(problems, "D", p["D"], factors[0] + factors[1] - 1)
            _check_ml_mzss_lines(problems, factors, [p["witness"]])
            return problems

        calls.append((["davenport", "--group", _group(m, n)], check))
    return calls


def _enumerate_call(m, n, canonical):
    factors = (m, m * n)

    @_problems
    def check(stdout):
        lines = stdout.splitlines()
        summary = json.loads(lines[-1])
        problems = []
        seqs = _check_ml_mzss_lines(problems, factors, lines[:-1])
        reps = representatives(m, n)
        if canonical:
            _expect(problems, "representatives streamed", seqs, reps)
        elif set(seqs) != ml_mzss(m, n):
            problems.append("enumerated set differs from the type-1/type-2 set")
        _expect(problems, "group", summary["group"], _group(m, n))
        _expect(problems, "D", summary["D"], m + m * n - 1)
        _expect(problems, "total", summary["total"], len(ml_mzss(m, n)))
        _expect(problems, "orbits", summary["orbits"], len(reps))
        _expect(
            problems,
            "representatives",
            summary["representatives"],
            [oracle.format_sequence(r) for r in reps],
        )
        return problems

    argv = ["enumerate", "--group", _group(m, n)] + (["--canonical"] if canonical else [])
    return argv, check


def _verify_head(problems, p, check, params, checked):
    _expect(problems, "check", p["check"], check)
    _expect(problems, "params", p["params"], params)
    _expect(problems, "checked", p["checked"], checked)
    _expect(problems, "violations", p["violations"], [])
    _expect(problems, "verdict", p["verdict"], True)


def _property_b_call(m):
    @_problems
    def check(stdout):
        (p,) = _json_lines(stdout, 1)
        problems = []
        expected = ml_mzss(m, 1)
        _verify_head(problems, p, "property-b", {"m": m}, len(expected))
        seen = set()
        for w in p["details"]["witnesses"]:
            seq = oracle.parse_sequence(w["sequence"])
            pivot = oracle.parse_element(w["element"])
            seen.add(seq)
            rest = list(seq)
            for _ in range(m - 1):
                if pivot not in rest:
                    problems.append(f"{w['element']} occurs < {m - 1} times in {w['sequence']}")
                    break
                rest.remove(pivot)
            if oracle.parse_sequence(w["cofactor"]) != tuple(rest):
                problems.append(f"wrong cofactor for {w['sequence']}")
        if seen != expected:
            problems.append("witness sequences differ from the ml-mzss of C_m + C_m")
        return problems

    return ["verify", "property-b", "--m", str(m)], check


def _theorem_call(m, n):
    @_problems
    def check(stdout):
        (p,) = _json_lines(stdout, 1)
        problems = []
        type1, type2 = families(m, n)
        _verify_head(problems, p, "theorem", {"group": _group(m, n)}, len(type1 | type2))
        _expect(
            problems,
            "details",
            p["details"],
            {
                "total": len(type1 | type2),
                "type1": len(type1),
                "type2": len(type2),
                "both": len(type1 & type2),
            },
        )
        return problems

    return ["verify", "theorem", "--group", _group(m, n)], check


def census_calls(seed):
    return [
        _enumerate_call(5, 1, canonical=True),
        _enumerate_call(3, 2, canonical=False),
        _property_b_call(5),
        _theorem_call(3, 2),
    ]


def _witness_key(kind, w):
    """A reported witness as (kind, element, element, j or s, x)."""
    if kind == 1:
        return 1, oracle.parse_element(w["e1"]), oracle.parse_element(w["e2"]), w["j"], tuple(w["x"])
    return 2, oracle.parse_element(w["g1"]), oracle.parse_element(w["g2"]), w["s"], tuple(w["x"])


def classify_calls(seed):
    """Classification of ml-mzss built from random witnesses, alternating
    type 1 and type 2, CLASSIFY_CALLS_PER_GROUP per group."""
    rng = random.Random(seed)
    calls = []
    for m, n in CLASSIFY_GROUPS:
        factors = (m, m * n)
        for i in range(CLASSIFY_CALLS_PER_GROUP):
            kind = 1 + i % 2
            if kind == 1:
                witness = (1,) + oracle.random_type1(rng, m, n)
                seq = oracle.expand_type1(factors, *witness[1:])
            else:
                witness = (2,) + oracle.random_type2(rng, m, n)
                seq = oracle.expand_type2(factors, *witness[1:])
            text = oracle.format_sequence(seq)

            @_problems
            def check(stdout, factors=factors, witness=witness, seq=seq, text=text):
                (p,) = _json_lines(stdout, 1)
                problems = []
                _expect(problems, "group", p["group"], f"{factors[0]},{factors[1]}")
                _expect(problems, "sequence", p["sequence"], text)
                found = set()
                for kind, expand in ((1, oracle.expand_type1), (2, oracle.expand_type2)):
                    listed = p[f"type{kind}_witnesses"]
                    _expect(problems, f"is_type{kind}", p[f"is_type{kind}"], bool(listed))
                    for w in listed:
                        key = _witness_key(kind, w)
                        found.add(key)
                        if expand(factors, *key[1:]) != seq:
                            problems.append(f"witness {w} does not expand to {text}")
                if witness not in found:
                    problems.append(f"generating witness {witness} not reported for {text}")
                return problems

            calls.append((["classify", "--group", _group(m, n), "--sequence", text], check))
    return calls


def sweeps_calls(seed):
    m, t = TM1
    n, trials = EGZ

    @_problems
    def check_tm1(stdout):
        (p,) = _json_lines(stdout, 1)
        problems = []
        _expect(problems, "check", p["check"], "tm1")
        _expect(problems, "params", p["params"], {"m": m, "t": t})
        _expect(problems, "violations", p["violations"], [])
        _expect(problems, "verdict", p["verdict"], True)
        _expect(
            problems,
            "zss_count",
            p["details"]["zss_count"],
            oracle.zero_sum_multiset_count((m, m), t * m - 1),
        )
        return problems

    @_problems
    def check_egz(stdout):
        (p,) = _json_lines(stdout, 1)
        problems = []
        _verify_head(problems, p, "egz", {"n": n, "trials": trials, "seed": seed}, trials + 1)
        return problems

    return [
        (["verify", "tm1", "--m", str(m), "--t", str(t)], check_tm1),
        (
            ["verify", "egz", "--n", str(n), "--trials", str(trials), "--seed", str(seed)],
            check_egz,
        ),
    ]


WORKLOADS = {
    "davenport": davenport_calls,
    "census": census_calls,
    "classify": classify_calls,
    "sweeps": sweeps_calls,
}


def command_of(argv):
    """The metric stem for a call: davenport, enumerate, classify, or the
    verify target with '-' as '_'."""
    return argv[1].replace("-", "_") if argv[0] == "verify" else argv[0]
