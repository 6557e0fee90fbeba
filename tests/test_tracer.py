"""The benchmark's tracer still finds every name it wraps in zerosum.

`perfbench/tracer.py` replaces functions of zerosum's modules by name and
reports a metric as missing (`null`) when a name is gone. This loads it as
it stands, installs it, makes one small call of each workload command and
checks that every layer metric comes out as a finite number.
"""

import importlib.util
import io
import math
from pathlib import Path

import pytest

from zerosum import cli, groups, search, structure

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

CALLS = [
    ["davenport", "--group", "2,6"],
    ["enumerate", "--group", "2,4"],
    ["enumerate", "--group", "3,3", "--canonical"],
    ["verify", "property-b", "--m", "3"],
    ["verify", "theorem", "--group", "2,4"],
    ["classify", "--group", "2,4", "--sequence", "[0,1]^3 [1,2] [1,3]"],
    ["verify", "tm1", "--m", "2", "--t", "2"],
    ["verify", "egz", "--n", "3", "--trials", "10", "--seed", "1"],
]


@pytest.fixture
def tracing():
    """The tracer module, with every module it patches restored after."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    modules = (cli, search, groups, structure)
    saved = [dict(vars(m)) for m in modules]
    try:
        yield module
    finally:
        for m, names in zip(modules, saved):
            vars(m).update(names)


def test_tracer_finds_every_name_and_reports_finite_metrics(tracing):
    tracer = tracing.Tracer()
    tracing.install(tracer, cli, search, groups, structure)
    assert tracer.missing == set()
    for argv in CALLS:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.begin()
        try:
            code = cli.run(argv, out=out, err=err)
        finally:
            tracer.end("cli.run", span)
        assert code == 0, (argv, err.getvalue())
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.LAYER_METRICS)
    for name, entry in metrics.items():
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
    # the wrapped names are the ones the program calls through
    for span in ("search.davenport", "search.enumerate", "search.enumerate_with_report",
                 "structure.property_b", "structure.theorem", "structure.tm1",
                 "structure.egz", "structure.classify_cold", "sequences.parse"):
        assert tracer.spans[span][0] > 0, span
    assert tracer.counts["search.enumerate"] > 0
