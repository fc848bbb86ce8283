"""The benchmark's hooks still reach the package.

bench/tracing.py wraps public functions and methods by name, and
bench/harness.py drives `musenum.cli.run`; a renamed or bypassed hook would
leave its per-layer metrics at zero without failing a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERS = ("oracle", "solver", "map.max", "map.block", "shrink", "emit", "parse", "enumerate", "write")
# MUSes, oracle checks, map calls, complete, of each algorithm on example 1
SUMMARY = {"remus": (2, 5, 6, True), "marco": (2, 4, 3, True)}


@pytest.mark.parametrize("algorithm", ["remus", "marco"])
def test_traced_run_has_a_span_in_every_layer(algorithm, example1_path, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    harness = importlib.import_module("harness")
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer(harness.LineClock)
    run = harness.Harness(tmp_path).solve(Path(example1_path), 0, algorithm, tracer)
    assert run.problems == []
    assert run.summary == SUMMARY[algorithm]
    spans = tracer.take()
    assert {span[0] for span in spans} >= set(LAYERS)
    layers = tracing.summarize(spans, run.wall_s, len(run.muses))
    assert layers["oracles.checks"] == SUMMARY[algorithm][1]
    assert layers["shrink.calls"] == layers["muses"] == 2
    for name in ("satsolver.solves", "unexplored.max_calls", "unexplored.blocks"):
        assert layers[name] > 0
    for name in ("session.emit_s", "cli.parse_s", "session.self_s", "cli.write_s"):
        assert layers[name] > 0
