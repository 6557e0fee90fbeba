"""Byte-identity of the CLI between two source trees.

    python tests/cli_identity.py OLD/src NEW/src

Each tree runs the fixed list `CALLS` through its own `zerosum.cli.run`, in
one fresh interpreter per tree (the two run side by side). For every call
the exit code, stderr and stdout after `strip_timing` are compared, by
SHA-256, so that no side holds more than one call's output at a time. The
calls that differ are printed; the exit code is 1 if any differ, else 0.
It needs no network and nothing beyond the standard library. Not collected
by pytest: the file name does not start with `test_`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

FORMATS = ("json", "csv", "text")
CYCLIC = [(n,) for n in range(1, 37)]
RANK_TWO = [(m, m * n) for m in range(2, 7) for n in range(1, 19) if m * m * n <= 36]
DAVENPORT = CYCLIC + RANK_TWO + [(2, 2, 2), (2, 2, 4), (2, 2, 2, 2), (100,)]


def _group(factors: tuple[int, ...]) -> str:
    return ",".join(map(str, factors)) if factors != (1,) else ""


def _calls() -> list[tuple[list[str], str | None]]:
    """(argv, value of ZEROSUM_CAP_ORDER or None) for every call compared."""
    calls: list[tuple[list[str], str | None]] = []
    for factors in CYCLIC + RANK_TWO:
        for extra in ([], ["--canonical"]):
            for fmt in FORMATS:
                argv = ["enumerate", "--group", _group(factors), "--output", fmt]
                calls.append((argv + extra, None))
    calls.append((["enumerate", "--group", "3,6", "--workers", "2"], None))
    calls.append((["verify", "theorem", "--group", "3,6", "--workers", "2"], None))
    for factors in RANK_TWO:
        for fmt in FORMATS:
            argv = ["verify", "theorem", "--group", _group(factors), "--output", fmt]
            calls.append((argv, None))
    for m in range(2, 8):
        for fmt in FORMATS:
            argv = ["verify", "property-b", "--m", str(m), "--output", fmt]
            calls.append((argv + (["--cap", "49"] if m == 7 else []), None))
    calls.append((["verify", "property-b", "--m", "8", "--cap", "64"], None))
    for n in range(2, 129):
        calls.append((["verify", "cyclic", "--n", str(n), "--cap", "128"], None))
    for factors in DAVENPORT:
        calls.append((["davenport", "--group", _group(factors), "--cap", "128"], None))
    # the Frontier calls, where the canonicity cut does the most work; their
    # JSON carries the node counts
    for group in ("6,6", "4,8", "7,7", "5,10", "4,12"):
        calls.append((["davenport", "--group", group, "--cap", "64"], None))
    for group in ("7,7", "5,10"):
        argv = ["enumerate", "--group", group, "--canonical", "--cap", "64"]
        calls.append((argv + ["--output", "json"], None))
    for n in range(2, 11):
        for seed in ("0", "1"):
            argv = ["verify", "egz", "--n", str(n), "--trials", "200", "--seed", seed]
            calls.append((argv, None))
    for m, t in [(2, t) for t in range(2, 8)] + [(3, 2), (3, 3)]:
        for fmt in FORMATS:
            argv = ["verify", "tm1", "--m", str(m), "--t", str(t), "--output", fmt]
            calls.append((argv, None))
    # the error paths of tests/test_cli_output.py
    calls += [
        (["davenport", "--group", "2,4"], "x"),
        (["classify", "--group", "2,4", "--sequence", "[0,1]^3 [1,2] [1,3]"], "x"),
        (["verify", "egz", "--n", "3", "--trials", "5"], "x"),
        (["enumerate", "--group", "2,4"], "x"),
        (["enumerate", "--group", "2,4", "--cap", "40"], "x"),
        (["davenport", "--group", "4,2"], "x"),
        (["davenport", "--group", "4,2"], None),
        (["verify", "egz", "--n", "3", "--trials", "5", "--group", "4,2"], None),
        (["verify", "property-b", "--m", "3", "--group", "2,4"], None),
        (["verify", "cyclic", "--n", "5", "--group", "2,4"], None),
        (["verify", "egz", "--n", "3", "--trials", "5", "--group", "2,4"], None),
        (["verify", "tm1", "--m", "2", "--t", "2", "--group", "2,4"], None),
        (["enumerate", "--group", "3,6", "--cap", "4"], "64"),
        (["verify", "theorem", "--group", "2,4", "--cap", "8"], "4"),
        (["davenport", "--group", "2,4"], "4"),
        (["davenport", "--group", "2,4", "--cap", "4"], "4"),
        (["verify", "theorem"], None),
        (["enumerate", "--group", "2,2,2"], None),
        (["classify", "--group", "2,4", "--sequence", "[0,1]^5"], None),
        (["enumerate", "--group", "2,4", "--canonical"], "x"),
        (["verify", "property-b", "--m", "3"], "x"),
        (["verify", "cyclic", "--n", "5"], "x"),
        (["verify", "theorem", "--group", "2,4"], "x"),
        (["verify", "tm1", "--m", "2", "--t", "2"], "x"),
    ]
    # abbreviated flags
    calls += [
        (["enumerate", "--group", "2,4", "--out", "text"], None),
        (["davenport", "--gro", "2,4"], None),
        (["classify", "--group", "2,4", "--seq", "[0,1]^3 [1,2] [1,3]"], None),
        (["verify", "tm1", "--m", "2", "--t", "2", "--out", "csv"], None),
    ]
    # the help of every parser
    for path in ([], ["davenport"], ["enumerate"], ["classify"], ["verify"]):
        calls.append((path + ["-h"], None))
    for target in ("property-b", "cyclic", "egz", "theorem", "tm1"):
        calls.append((["verify", target, "-h"], None))
    return calls


CALLS = _calls()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_tree(src: str) -> None:
    """Worker: run every call with the tree at `src`, one JSON line each."""
    sys.path.insert(0, src)
    from zerosum import cli

    for argv, env in CALLS:
        os.environ.pop(cli.CAP_ENV_VAR, None)
        if env is not None:
            os.environ[cli.CAP_ENV_VAR] = env
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv, out=out, err=err)
        record = [code, _digest(cli.strip_timing(out.getvalue())), err.getvalue()]
        print(json.dumps(record), flush=True)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--run":
        _run_tree(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    procs = [
        subprocess.Popen(
            [sys.executable, "-I", os.path.abspath(__file__), "--run", src],
            stdout=subprocess.PIPE,
            text=True,
        )
        for src in map(os.path.abspath, argv)
    ]
    results = [proc.communicate()[0].splitlines() for proc in procs]
    if any(proc.returncode for proc in procs):
        print("a tree's run failed", file=sys.stderr)
        return 2
    old, new = ([json.loads(line) for line in lines] for lines in results)
    differ = 0
    for (call, env), a, b in zip(CALLS, old, new):
        if a != b:
            differ += 1
            names = ("exit", "stdout", "stderr")
            parts = [name for name, x, y in zip(names, a, b) if x != y]
            prefix = "" if env is None else f"ZEROSUM_CAP_ORDER={env} "
            print(f"DIFFERS ({', '.join(parts)}): {prefix}{' '.join(call)}")
    print(f"{len(CALLS) - differ} of {len(CALLS)} calls identical")
    return 1 if differ or len(old) != len(new) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
