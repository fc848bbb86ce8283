"""The benchmark's hooks still reach the package.

bench/tracing.py wraps public functions and methods by name, and
bench/harness.py drives `musenum.cli.run`; a renamed or bypassed hook would
leave its per-layer metrics at zero without failing a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

from musenum import enumerate_marco, enumerate_remus, parse_dimacs
from musenum.oracles import to_dimacs

from helpers import EXAMPLE1_DIMACS, small_unsat_cnfs

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERS = ("oracle", "solver", "map.max", "map.block", "shrink", "emit", "parse", "enumerate", "write")
# MUSes, oracle checks, map calls, complete, of each algorithm on example 1
SUMMARY = {"remus": (2, 5, 6, True), "marco": (2, 4, 3, True)}
# 3 variables, 12 clauses, 27 MUSes: remus's records reach depth 3
DEEP_DIMACS = to_dimacs(*small_unsat_cnfs(2, 1701)[1])


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


@pytest.mark.parametrize("algorithm", ["remus", "marco"])
@pytest.mark.parametrize("dimacs", [EXAMPLE1_DIMACS, DEEP_DIMACS], ids=["example1", "deep"])
def test_traced_arguments_match_the_run_records(dimacs, algorithm, tmp_path, monkeypatch):
    # the tracer reads emit's depth and shrink's seed by position; a moved
    # parameter would corrupt these metrics without failing a run
    monkeypatch.syspath_prepend(str(BENCH))
    harness = importlib.import_module("harness")
    tracing = importlib.import_module("tracing")
    path = tmp_path / "formula.cnf"
    path.write_text(dimacs)
    tracer = tracing.Tracer(harness.LineClock)
    run = harness.Harness(tmp_path).solve(path, 0, algorithm, tracer)
    assert run.problems == []
    layers = tracing.summarize(tracer.take(), run.wall_s, len(run.muses))
    enumerate_ = enumerate_remus if algorithm == "remus" else enumerate_marco
    records = enumerate_(parse_dimacs(dimacs)).records
    assert [list(mus) for mus in run.muses] == [r.mus.indices_1based() for r in records]
    assert layers["max_depth"] == max(r.depth for r in records)
    assert layers["shrink.seed_size"] == sum(len(r.seed) for r in records)
    assert layers["shrink.removed"] == sum(len(r.seed) - len(r.mus) for r in records)
    if algorithm == "remus" and dimacs is DEEP_DIMACS:
        assert layers["max_depth"] >= 1
