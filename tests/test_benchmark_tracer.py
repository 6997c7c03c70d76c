"""The benchmark's layer tracer must still wrap the names it reads.

perfbench/spans.py wraps public functions by name and inspects some of
their arguments (the spec handed to series_of, the cap of each product).
Renaming a traced function or reshaping those arguments would otherwise
only break a traced benchmark run, not the test suite.
"""

import importlib.util
from pathlib import Path

import cobfilt.cli
import cobfilt.series

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_layer(capsys):
    spans = load_spans()
    original = cobfilt.cli.main
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in (
            ["series", "homotopy", "--stage", "1,1,1", "--cap", "8", "--json"],
            ["verify", "--check", "product", "--cap", "8", "--json"],
        ):
            tracer.begin_op()
            assert cobfilt.cli.main(argv) == 0
            tracer.end_op()
        # no command calls mul, which the tracer wraps and reads the cap of
        tracer.begin_op()
        unit = cobfilt.series.TruncatedSeries.unit(8)
        cobfilt.series.mul(unit, unit)
        tracer.end_op()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert cobfilt.cli.main is original
    assert tracer.calls["cli.main"] == 2
    assert tracer.calls["spaces.adams_homotopy_series"] == 1
    assert tracer.calls["checks.verify_main_theorem"] == 1
    assert tracer.calls["series.series_of"] > 0
    assert tracer.counts["series.series_of.factors"] > 0
    assert tracer.counts["series.mul.cells"] > 0
