"""Per-layer spans and counts for zerosum, recorded from outside the program.

`install` replaces public functions of zerosum's modules, under the names
through which `cli`, `structure` and `search` call them, with wrappers that
time each call. A span's self time is its duration minus the time of the
wrapped calls made inside it. A name that no longer exists is skipped and
recorded, and the metrics that need it are reported as missing.
"""

from __future__ import annotations

import functools
import time

# metric name -> (unit, span or count it is read from, what is read)
# "total" and "self" are span times, "calls" a span's call count, "count"
# a counter, "rate" a counter divided by a span's total time.
LAYER_METRICS = {
    "search.davenport_s": ("s", "search.davenport", "total"),
    "search.davenport_nodes": ("count", "search.davenport", "count"),
    "search.davenport_nodes_per_s": ("1/s", "search.davenport", "rate"),
    "search.enumerate_s": ("s", "search.enumerate", "total"),
    "search.enumerate_nodes": ("count", "search.enumerate", "count"),
    "search.enumerate_nodes_per_s": ("1/s", "search.enumerate", "rate"),
    "search.sequences_emitted": ("count", "search.enumerate.emitted", "count"),
    "search.canonicalize_s": ("s", "search.canonicalize", "count"),
    "groups.automorphisms_s": ("s", "groups.automorphisms", "total"),
    "groups.automorphisms_count": ("count", "groups.automorphisms", "count"),
    "groups.index_tables_s": ("s", "groups.index_tables", "total"),
    "groups.is_basis_calls": ("count", "groups.is_basis", "calls"),
    "groups.is_basis_s": ("s", "groups.is_basis", "total"),
    "groups.subgroup_generated_calls": ("count", "groups.subgroup_generated", "calls"),
    "groups.subgroup_generated_s": ("s", "groups.subgroup_generated", "total"),
    "structure.classify_cold_s": ("s", "structure.classify_cold", "total"),
    "structure.classify_warm_s": ("s", "structure.classify_warm", "total"),
    "structure.classify_calls": ("count", "structure.classify", "count"),
    "structure.witnesses": ("count", "structure.witnesses", "count"),
    "sequences.is_mzss_calls": ("count", "sequences.is_mzss", "calls"),
    "sequences.is_mzss_s": ("s", "sequences.is_mzss", "total"),
    "sequences.parse_s": ("s", "sequences.parse", "total"),
    "structure.tm1_scan_s": ("s", "structure.tm1", "self"),
    "sequences.max_factors_s": ("s", "sequences.max_factors", "total"),
    "structure.shape_a_s": ("s", "structure.shape_a", "total"),
    "structure.shape_b_s": ("s", "structure.shape_b", "total"),
    "sequences.extract_calls": ("count", "sequences.extract", "calls"),
    "sequences.extract_s": ("s", "sequences.extract", "total"),
    "structure.egz_self_s": ("s", "structure.egz", "self"),
    "cli.self_s": ("s", "cli.run", "self"),
}


class Tracer:
    """Spans kept in memory: per name, calls, total time and self time."""

    def __init__(self):
        self._open: list[float] = []  # wrapped-child time of each open span
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.missing: set[str] = set()  # spans whose function was not found
        self.excluded_s = 0.0  # reference work done inside spans, not traced
        self.paused = False

    def begin(self) -> float:
        self._open.append(0.0)
        return time.perf_counter()

    def end(self, name: str, start: float) -> float:
        dur = time.perf_counter() - start
        child = self._open.pop()
        if self._open:
            self._open[-1] += dur
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        return dur

    def exclude(self, dur: float) -> None:
        """Take reference work run inside an open span out of its self time."""
        if self._open:
            self._open[-1] += dur
        self.excluded_s += dur

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, owner, attr: str, name, after=None, provides=()) -> None:
        """Replace owner.attr by a timed wrapper.

        `name` is a span name or a function of the call's arguments giving
        one; `provides` lists the spans and counts that go missing with
        owner.attr when `name` alone does not say.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.update(provides or (name,))
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = name if isinstance(name, str) else name(args)
            start = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.end(span, start)
            if after is not None:
                after(args, kwargs, result, dur)
            return result

        setattr(owner, attr, traced)

    def metrics(self) -> dict:
        """Every layer metric as {"value", "unit"}; value None when missing."""
        out = {}
        for metric, (unit, source, kind) in LAYER_METRICS.items():
            calls, total, own = self.spans.get(source, (0, 0.0, 0.0))
            if kind == "total":
                value = total
            elif kind == "self":
                value = own
            elif kind == "calls":
                value = calls
            elif kind == "count":
                value = self.counts.get(source, 0)
            else:  # rate
                value = self.counts.get(source, 0) / total if total else 0.0
            entry = {"value": value, "unit": unit}
            if source in self.missing:
                entry = {"value": None, "unit": unit, "missing": True}
            out[metric] = entry
        return out


def install(tracer: Tracer, cli, search, groups, structure) -> None:
    """Wrap zerosum's public functions where the other modules look them up."""
    tracer.wrap(cli, "parse_sequence", "sequences.parse")

    def davenport_done(args, kwargs, result, dur):
        tracer.count("search.davenport", result.nodes)

    tracer.wrap(search, "davenport", "search.davenport", davenport_done)

    enumerate_plain = getattr(search, "enumerate_ml_mzss", None)
    if enumerate_plain is None:
        tracer.missing.add("search.canonicalize")

    def report_done(args, kwargs, result, dur):
        # canonicalisation = the report pass minus a plain pass over the group
        if enumerate_plain is None:
            return
        tracer.paused = True
        try:
            start = time.perf_counter()
            for _ in enumerate_plain(*args, **kwargs):
                pass
            plain = time.perf_counter() - start
        finally:
            tracer.paused = False
        tracer.exclude(plain)
        tracer.count("search.canonicalize", dur - plain)

    tracer.wrap(
        search, "enumerate_with_report", "search.enumerate_with_report", report_done,
        provides=("search.enumerate_with_report", "search.canonicalize"),
    )

    def automorphisms_done(args, kwargs, result, dur):
        tracer.count("groups.automorphisms", len(result))

    tracer.wrap(search, "automorphisms", "groups.automorphisms", automorphisms_done)
    tracer.wrap(search, "index_tables", "groups.index_tables")
    tracer.wrap(groups, "index_tables", "groups.index_tables")
    tracer.wrap(groups, "is_basis", "groups.is_basis")
    tracer.wrap(groups, "subgroup_generated", "groups.subgroup_generated")
    _wrap_enumeration(tracer, search)

    seen_groups = set()

    def classify_span(args):
        if args[0] in seen_groups:
            return "structure.classify_warm"
        seen_groups.add(args[0])
        return "structure.classify_cold"

    def classify_done(args, kwargs, result, dur):
        tracer.count("structure.classify", 1)
        tracer.count(
            "structure.witnesses",
            len(result.type1_witnesses) + len(result.type2_witnesses),
        )

    tracer.wrap(
        structure, "classify", classify_span, classify_done,
        provides=("structure.classify", "structure.classify_cold",
                  "structure.classify_warm", "structure.witnesses"),
    )
    tracer.wrap(structure, "is_mzss", "sequences.is_mzss")
    tracer.wrap(structure, "check_property_b", "structure.property_b")
    tracer.wrap(structure, "check_rank_two_structure", "structure.theorem")
    tracer.wrap(structure, "tm1_structure_check", "structure.tm1")
    tracer.wrap(structure, "_max_factors", "sequences.max_factors")
    tracer.wrap(structure, "shape_a_witnesses", "structure.shape_a")
    tracer.wrap(structure, "shape_b_witnesses", "structure.shape_b")
    tracer.wrap(structure, "egz_property", "structure.egz")
    tracer.wrap(structure, "extract_zero_sum_of_length", "sequences.extract")


def _wrap_enumeration(tracer: Tracer, search) -> None:
    """Time each step of the enumeration generator and count its nodes.

    The generator is consumed a step at a time, interleaved with the caller's
    work, so each step is a span of its own under the same name.
    """
    base = getattr(search, "_EnumerationRun", None)
    if base is None:
        tracer.missing.update(("search.enumerate", "search.enumerate.emitted"))
        return

    class TracedRun(base):
        def __iter__(self):
            steps = super().__iter__()
            if tracer.paused:
                yield from steps
                return
            emitted = 0
            try:
                while True:
                    start = tracer.begin()
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    finally:
                        tracer.end("search.enumerate", start)
                    emitted += 1
                    yield item
            finally:
                tracer.count("search.enumerate", self.nodes)
                tracer.count("search.enumerate.emitted", emitted)

    search._EnumerationRun = TracedRun
