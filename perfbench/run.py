"""Benchmark for zerosum: time to answer per CLI call, checked independently.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

One client drives `zerosum.cli.run` in a closed loop: each call starts when
the previous one has returned. A round is the workload's calls, made in a
fresh interpreter so that per-group tables start cold, as they do for a user
of the command line. Rounds repeat until another would overrun --seconds.
Every output is checked against `oracle`.

Times are calibrated against the host's speed, which drifts by a quarter
and more within minutes. The reference task of `reference.py` is timed in
this process before the set-up probes, after them and after every round.
The probes' import times and each round's times are scaled by REFERENCE_S
over the mean of the two reference times around them, so that they read as
seconds on a host where the reference task takes REFERENCE_S. Each
end-to-end metric is the median of these over the run.

With --trace 1 each round is made twice, untraced and then traced, and the
layer metrics come from the traced rounds; they are raw times, with the
reference time itself reported as host.reference_s. The last line of stdout
is the result as JSON; a copy, with the raw per-round figures, the
reference times and the span table, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9  # import-only interpreters per run, besides one per round
REFERENCE_S = 0.6  # the reference task's seconds on the calibrated scale; fixed
DEADLINE_S = 170  # a run ends well inside 180 s whatever --seconds says
CHECK_RESERVE_S = 15  # time kept after the last round for checking outputs


class RunFailed(Exception):
    """A worker interpreter crashed or overran the deadline."""


def run_worker(src, argvs, trace, deadline):
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise RunFailed("deadline passed before the round started")
    try:
        proc = subprocess.run(
            [sys.executable, "-I", os.path.join(HERE, "worker.py"), src, "1" if trace else "0"],
            input=json.dumps(argvs),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker overran the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def round_metrics(report):
    """End-to-end figures of one untraced round."""
    walls = [c["wall_s"] for c in report["calls"]]
    return {
        "wall_s": sum(walls),
        "first_line_s": sum(c["first_line_s"] for c in report["calls"]),
        "call_p50_ms": statistics.median(walls) * 1000,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def command_metrics(report):
    """Per-command figures of one untraced round (0 for absent commands)."""
    by_command = {}
    for c in report["calls"]:
        by_command.setdefault(workloads.command_of(c["argv"]), []).append(c)

    def total(command, key="wall_s"):
        return sum((c[key] for c in by_command.get(command, [])), 0.0)

    classify = [c["wall_s"] for c in by_command.get("classify", [])]
    return {
        "cmd.davenport_s": total("davenport"),
        "cmd.enumerate_s": total("enumerate"),
        "cmd.enumerate_first_line_s": total("enumerate", "first_line_s"),
        "cmd.property_b_s": total("property_b"),
        "cmd.theorem_s": total("theorem"),
        "cmd.tm1_s": total("tm1"),
        "cmd.egz_s": total("egz"),
        "cmd.classify_per_s": len(classify) / sum(classify) if classify else 0.0,
        "cmd.classify_p50_ms": statistics.median(classify) * 1000 if classify else 0.0,
    }


COMMAND_UNITS = {"cmd.classify_per_s": "1/s", "cmd.classify_p50_ms": "ms"}
END_TO_END_UNITS = {
    "wall_s": "s",
    "first_line_s": "s",
    "call_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def median_of(rows, key):
    values = [row[key] for row in rows]
    if any(v is None for v in values):
        return None
    return statistics.median(values)


def layer_metrics(plain, traced):
    """Medians over the rounds of the layer, overhead and command metrics."""
    rows = [{k: v["value"] for k, v in t["trace"]["metrics"].items()} for t in traced]
    units = {k: v["unit"] for k, v in traced[0]["trace"]["metrics"].items()}
    for row, p, t in zip(rows, plain, traced):
        traced_wall = sum(c["wall_s"] for c in t["calls"]) - t["trace"]["excluded_s"]
        row["trace.overhead_s"] = traced_wall - sum(c["wall_s"] for c in p["calls"])
    units["trace.overhead_s"] = "s"
    metrics = {k: {"value": median_of(rows, k), "unit": units[k]} for k in units}
    command_rows = [command_metrics(r) for r in plain]
    for k in command_rows[0]:
        metrics[k] = {"value": median_of(command_rows, k), "unit": COMMAND_UNITS.get(k, "s")}
    return metrics


def check_round(calls, report):
    """(failures, problems): calls that did not complete, and what is wrong
    with the output of those that did."""
    failures = []
    problems = []
    for (argv, check), result in zip(calls, report["calls"]):
        label = " ".join(argv)
        if result["error"] is not None or result["rc"] not in (0, 1):
            failures.append(f"{label}: failed: {result['error'] or result['stderr'].strip()}")
            continue
        if result["rc"] != 0 or result["stderr"]:
            problems.append(f"{label}: exit {result['rc']}, stderr {result['stderr']!r}")
        problems.extend(f"{label}: {p}" for p in check(result["stdout"]))
    return failures, problems


def measure(src, argvs, args, deadline):
    """Set-up probes, then rounds until one more would overrun --seconds,
    with the reference task timed before the probes, after them and after
    each round."""
    refs = [reference.time_once()]
    setup = [run_worker(src, [], False, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    refs.append(reference.time_once())
    plain, traced, durations = [], [], []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_worker(src, argvs, False, deadline))
        if args.trace:
            traced.append(run_worker(src, argvs, True, deadline))
        refs.append(reference.time_once())
        durations.append(time.perf_counter() - t0)
        now = time.perf_counter()
        next_round = statistics.median(durations)
        if now - begin + next_round > args.seconds or now + next_round > deadline - CHECK_RESERVE_S:
            return setup, plain, traced, refs


def end_to_end_metrics(setup, plain, refs):
    """Medians over the run, of times scaled by the reference times around
    them: refs[0] and refs[1] for the set-up probes, refs[i + 1] and
    refs[i + 2] for round i."""
    scale = [2 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
    setups = [v * scale[0] for v in setup]
    setups += [r["setup_s"] * k for r, k in zip(plain, scale[1:])]
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
    rounds = [round_metrics(r) for r in plain]
    for key, unit in END_TO_END_UNITS.items():
        factors = scale[1:] if unit in ("s", "ms") else [1.0] * len(rounds)
        value = statistics.median(row[key] * k for row, k in zip(rounds, factors))
        metrics[key] = {"value": value, "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + DEADLINE_S
    # On SIGTERM, unwind: subprocess.run then kills the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process, the reference task and every worker, so
        # that the reference times the CPU the calls run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "zerosum", "cli.py")):
        sys.stderr.write(f"no zerosum sources under {src}; run from the repository root\n")
        return 2

    calls = workloads.WORKLOADS[args.workload](args.seed)
    try:
        setup, plain, traced, refs = measure(src, [argv for argv, _ in calls], args, deadline)
    except RunFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    failures, problems = [], []
    for report in plain + traced:
        f, p = check_round(calls, report)
        failures.extend(f)
        problems.extend(p)
    attempted = len(calls) * (len(plain) + len(traced))

    if args.trace:
        metrics = layer_metrics(plain, traced)
        metrics["host.reference_s"] = {"value": statistics.median(refs), "unit": "s"}
    else:
        metrics = end_to_end_metrics(setup, plain, refs)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    for p in (failures + problems)[:20]:
        sys.stderr.write(p + "\n")
    _save(args, result, plain, setup, traced, refs)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _save(args, result, plain, setup, traced, refs):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    detail = {
        "result": result,
        "rounds": [round_metrics(r) for r in plain],
        "setup_s": setup + [r["setup_s"] for r in plain + traced],
        "reference_s": refs,
        "spans": [t["trace"]["spans"] for t in traced],
    }
    with open(path, "w") as f:
        json.dump(detail, f, indent=1)


if __name__ == "__main__":
    sys.exit(main())
