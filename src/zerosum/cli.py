"""Command-line frontend with reproducible, machine-readable output.

Exit codes: 0 success or verified, 1 verification found violations, 2 usage
or parse error, 3 search cap exceeded, 4 a search worker process died. Data
goes to stdout, diagnostics to stderr. Output is byte-identical for
identical arguments except for the elapsed_ms timing fields, which
`strip_timing` removes for golden-file comparisons.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
from functools import lru_cache

from . import search, structure
from .errors import CapExceeded, WorkerFailed, ZeroSumError
from .groups import parse_group
from .sequences import parse_sequence
from .structure import VerificationReport

CAP_ENV_VAR = "ZEROSUM_CAP_ORDER"

_TIMING_RE = re.compile(r'("elapsed_ms":\s*)\d+')


def strip_timing(text: str) -> str:
    """Zero out elapsed_ms fields; the documented filter for golden comparisons.

    Covers the JSON key and the elapsed_ms column of CSV output: a header
    line naming that column and the rows after it that have as many fields
    and are written exactly as the csv module writes them.
    """
    import csv
    lines = _TIMING_RE.sub(r"\g<1>0", text).split("\n")
    column = width = None
    for k, line in enumerate(lines):
        fields = next(csv.reader([line]), [])
        if "elapsed_ms" in fields:
            column, width = fields.index("elapsed_ms"), len(fields)
        elif column is not None and len(fields) == width and _csv_row(fields) == line:
            fields[column] = "0"
            lines[k] = _csv_row(fields)
        else:
            column = None
    return "\n".join(lines)


def _csv_row(fields: list[str]) -> str:
    """One CSV row as `_emit` writes it, without the line terminator."""
    import csv
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


def _emit(out, output: str, payload: dict, omit=()) -> None:
    """Write `payload` as one JSON line, or as a CSV header and one value row.

    The CSV header is the payload's keys less `omit`; lists and dicts are
    written as JSON text.
    """
    if output == "json":
        out.write(json.dumps(payload) + "\n")
        return
    import csv
    keys = [k for k in payload if k not in omit]
    values = (payload[k] for k in keys)
    row = [json.dumps(v) if isinstance(v, (list, dict)) else v for v in values]
    csv.writer(out, lineterminator="\n").writerows([keys, row])


def _emit_report(out, report: VerificationReport, output: str) -> int:
    if output == "text":
        status = "verified" if report.verdict else "FAILED"
        out.write(
            f"{report.check} {json.dumps(report.params)}: {status}, "
            f"{report.checked} checked, {len(report.violations)} violations\n"
        )
        for v in report.violations:
            out.write(f"  violation: {v}\n")
    else:
        _emit(out, output, report.to_json(), omit=("details",))
    return 0 if report.verdict else 1


def _cmd_davenport(args, out) -> int:
    result = search.davenport(args.group, cap=args.cap)
    if args.output == "text":
        out.write(f"D({result.group}) = {result.d}, witness {result.witness}\n")
    else:
        _emit(out, args.output, result.to_json())
    return 0


def _cmd_enumerate(args, out) -> int:
    if args.canonical:
        report = search.count_ml_mzss(args.group, workers=args.workers, cap=args.cap)
        seqs = report.representatives
    else:
        seqs, report = search.enumerate_with_report(
            args.group, workers=args.workers, cap=args.cap
        )
    if args.output == "csv":
        import csv
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["sequence"])
        writer.writerows([str(s)] for s in seqs)
        return 0
    for s in seqs:
        out.write(f"{s}\n")
    if args.output == "text":
        out.write(f"total {report.total}, orbits {report.orbits}, D = {report.length}\n")
    else:
        _emit(out, args.output, report.to_json())
    return 0


def _cmd_classify(args, out) -> int:
    S = parse_sequence(args.group, args.sequence)
    result = structure.classify(args.group, S)
    if args.output == "text":
        out.write(
            f"{S}: type1 = {result.is_type1} "
            f"({len(result.type1_witnesses)} witnesses), "
            f"type2 = {result.is_type2} "
            f"({len(result.type2_witnesses)} witnesses)\n"
        )
    else:
        payload = {"group": str(args.group), "sequence": str(S), **result.to_json()}
        _emit(out, args.output, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerosum",
        description=(
            "Davenport constants, exhaustive enumeration of maximal-length "
            "minimal zero-sum sequences, and structure verification for "
            "finite abelian groups of rank at most two."
        ),
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, group=False, workers=False, cap=True):
        if group:
            p.add_argument(
                "--group",
                required=True,
                type=parse_group,
                help="comma-separated invariant factors, e.g. 2,4",
            )
        if workers:
            p.add_argument("--workers", type=int, default=1)
        if cap:
            p.add_argument("--cap", type=int, default=None, help="override search caps")
        p.add_argument(
            "--output", choices=["json", "csv", "text"], default="json"
        )

    p = sub.add_parser(
        "davenport", help="exact Davenport constant with witness", allow_abbrev=False
    )
    add_common(p, group=True)
    p.set_defaults(func=_cmd_davenport, cap=search.DAVENPORT_CAP)

    p = sub.add_parser(
        "enumerate",
        help="write every maximal-length minimal zero-sum sequence",
        allow_abbrev=False,
    )
    add_common(p, group=True, workers=True)
    p.add_argument(
        "--canonical",
        action="store_true",
        help="write one representative per automorphism orbit",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "classify", help="match a sequence against both families", allow_abbrev=False
    )
    add_common(p, group=True, cap=False)
    p.add_argument("--sequence", required=True, help='e.g. "[0,1]^3 [1,2] [1,3]"')
    p.set_defaults(func=_cmd_classify)

    verify = sub.add_parser("verify", help="run a verification sweep", allow_abbrev=False)
    targets = verify.add_subparsers(dest="target", required=True)

    def add_target(name, help, check):
        p = targets.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=lambda args, out: _emit_report(out, check(args), args.output))
        return p

    p = add_target(
        "property-b",
        "every ml-mzss over C_m + C_m has a term of multiplicity >= m - 1",
        lambda a: structure.check_property_b(a.m, cap=a.cap),
    )
    p.add_argument("--m", type=int, required=True, help="the group C_m + C_m")
    add_common(p)
    p = add_target(
        "cyclic",
        "the ml-mzss of C_n are the sequences e^n for generators e",
        lambda a: structure.check_cyclic_inverse(a.n, cap=a.cap),
    )
    p.add_argument("--n", type=int, required=True, help="the group C_n")
    add_common(p)
    p = add_target(
        "egz",
        "2n - 1 random terms over C_n hold a zero-sum subsequence of length n",
        lambda a: structure.egz_property(a.n, a.trials, a.seed),
    )
    p.add_argument("--n", type=int, required=True, help="the group C_n")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, cap=False)
    p = add_target(
        "theorem",
        "every ml-mzss over C_m + C_mn is of type 1 or type 2",
        lambda a: structure.check_rank_two_structure(
            a.group, workers=a.workers, cap=a.cap
        ),
    )
    add_common(p, group=True, workers=True)
    p = add_target(
        "tm1",
        "zero-sums of length tm - 1 over C_m + C_m with no t zero-sum blocks",
        lambda a: structure.tm1_structure_check(a.m, a.t),
    )
    p.add_argument("--m", type=int, required=True, help="the group C_m + C_m")
    p.add_argument("--t", type=int, required=True, help="the number of blocks")
    add_common(p, cap=False)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of `run`, built on first use and kept for the process."""
    return build_parser()


def run(argv: list[str], out=None, err=None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _parser().parse_args(argv)
        # the variable sets the enumeration cap where no --cap is given
        if "cap" in args and args.cap is None:
            value = os.environ.get(CAP_ENV_VAR, search.ENUMERATION_CAP)
            try:
                args.cap = int(value)
            except ValueError:
                raise ZeroSumError(f"{CAP_ENV_VAR} must be an integer, got {value!r}")
        return args.func(args, out)
    except SystemExit as exc:
        return int(exc.code or 0)
    except CapExceeded as exc:
        err.write(f"error: {exc}\n")
        return 3
    except WorkerFailed as exc:
        err.write(f"error: {exc}\n")
        return 4
    except ZeroSumError as exc:
        err.write(f"error: {exc}\n")
        return 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
