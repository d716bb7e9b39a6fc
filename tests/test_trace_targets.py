"""The benchmark's traced pass (perfbench/tracing.py) wraps library
functions by (module, function) name and sizes some of them from their
positional arguments.  These checks read its TARGETS without changing
anything under perfbench/, so a renamed entry point or a changed arity
fails here in well under a second instead of in the traced smoke run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from shiftgeo import metrics
from shiftgeo.configs import BINARY, parse_config
from oracle_utils import sft14

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, name",
                         [(m, f) for (m, f, _counter) in tracing.TARGETS])
def test_trace_target_resolves_in_shiftgeo(module, name):
    fn = getattr(importlib.import_module(f"shiftgeo.{module}"), name, None)
    assert callable(fn), f"shiftgeo.{module}.{name}"


def test_traced_distance_sizes_its_graph_calls():
    """One traced distance call reaches all three _graph entry points (a
    periodic point, which builds no condensation, the first two), and the
    Karp and Tarjan counters read sizes from their arguments, Karp's from
    the product adjacency that it reads in place.  ``metrics.product_nodes``
    counts both arms' cells, so it matches only where both are built (a
    periodic point builds one copy)."""
    Y = sft14()
    for text, entry_points in [
            ("inf(0011).1inf(011)", ("karp_min_mean",
                                     "strongly_connected_components",
                                     "condensation_reach")),
            ("inf(0011010011).inf(0011010011)",
             ("karp_min_mean", "strongly_connected_components"))]:
        x = parse_config(text, BINARY)
        want = metrics.distance_to_shift_detail(x, Y)
        with tracing.Tracer() as tracer:
            # looked up at call time: the tracer patches module attributes
            got = metrics.distance_to_shift_detail(x, Y)
        assert got == want
        summary = tracer.summary()
        for name in entry_points:
            assert summary["layers"][f"graph.{name}"]["calls"] >= 1, name
        counts = summary["counts"]
        assert counts["graph.karp_min_mean.nodes"] > 0
        assert counts["graph.karp_min_mean.edges"] > 0
        built = len(Y.states) * len(metrics._position_graph(x)[0])
        assert counts["graph.strongly_connected_components.nodes"] == built
        if not x.is_periodic:
            assert counts["metrics.product_nodes"] == built
