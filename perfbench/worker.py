"""Run zerosum CLI calls in this fresh interpreter and report what they did.

    python3 -I perfbench/worker.py SRC_DIR TRACE < calls.json

SRC_DIR holds the `zerosum` package to import; TRACE is 1 to wrap its layers
with `tracer`, else 0. Standard input is a JSON list of argument lists,
handed one after another to `zerosum.cli.run`, each after the previous one
has returned. Standard output is one JSON object: the import time, each
call's exit code, wall time, time to its first output line, stdout and
stderr, the process's peak resident memory and, when traced, the spans.
"""

import sys
import time


def main() -> int:
    src, trace = sys.argv[1], sys.argv[2] == "1"
    sys.path.insert(0, src)
    start = time.perf_counter()
    import zerosum.cli as cli

    setup_s = time.perf_counter() - start

    import io
    import json
    import os
    import traceback

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.stderr.write(f"zerosum was imported from {cli.__file__}, not {src}\n")
        return 2
    calls = json.load(sys.stdin)

    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing
        from zerosum import groups, search, structure

        tracer = tracing.Tracer()
        tracing.install(tracer, cli, search, groups, structure)

    class Stdout(io.StringIO):
        """Captured stdout that notes when the first line was written."""

        first_write = None

        def write(self, text):
            if self.first_write is None and text:
                self.first_write = time.perf_counter()
            return super().write(text)

    results = []
    for argv in calls:
        out, err = Stdout(), io.StringIO()
        error = None
        rc = None
        start = time.perf_counter()
        if tracer is not None:
            span = tracer.begin()
        try:
            rc = cli.run(argv, out=out, err=err)
        except Exception:
            error = traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.end("cli.run", span)
        wall = time.perf_counter() - start
        first = out.first_write - start if out.first_write is not None else wall
        results.append(
            {
                "argv": argv,
                "rc": rc,
                "error": error,
                "wall_s": wall,
                "first_line_s": first,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
            }
        )

    report = {
        "setup_s": setup_s,
        "calls": results,
        "peak_rss_mb": _peak_rss_mb(),
        "trace": None,
    }
    if tracer is not None:
        report["trace"] = {
            "metrics": tracer.metrics(),
            "spans": tracer.spans,
            "counts": tracer.counts,
            "excluded_s": tracer.excluded_s,
        }
    sys.stdout.write(json.dumps(report))
    return 0


def _peak_rss_mb() -> float:
    """Peak resident set of this process in MB (10^6 bytes)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


if __name__ == "__main__":
    sys.exit(main())
