"""The benchmark's hooks still reach the package.

bench/tracing.py wraps public functions and methods by name, and
bench/harness.py drives `musenum.cli.run`; a renamed or bypassed hook would
leave its per-layer metrics at zero without failing a benchmark run.
"""

import importlib
import tempfile
from pathlib import Path

import pytest

from musenum import enumerate_marco, enumerate_remus, parse_dimacs
from musenum.oracles import to_dimacs

from helpers import EXAMPLE1_DIMACS, RECORDED, small_unsat_cnfs

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERS = ("oracle", "solver", "map.max", "map.block", "shrink", "emit", "parse", "enumerate", "write")
RECORDED_RUNS = ["traced example1 remus", "traced example1 marco"]
# 3 variables, 12 clauses, 27 MUSes: remus's records reach depth 3
DEEP_DIMACS = to_dimacs(*small_unsat_cnfs(2, 1701)[1])


def traced_run(dimacs: str, algorithm: str, workdir: Path):
    """A formula solved through the benchmark's harness under its tracer: (run, span names, layers)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        harness = importlib.import_module("harness")
        tracing = importlib.import_module("tracing")
    path = workdir / "formula.cnf"
    path.write_text(dimacs)
    tracer = tracing.Tracer(harness.LineClock)
    run = harness.Harness(workdir).solve(path, 0, algorithm, tracer)
    assert run.problems == []
    spans = tracer.take()
    return run, {span[0] for span in spans}, tracing.summarize(spans, run.wall_s, len(run.muses))


def summary(run) -> dict:
    return dict(zip(("muses", "checks", "map_calls", "complete"), run.summary))


def figures(name: str) -> dict:
    """The summary line of a traced run on example 1."""
    with tempfile.TemporaryDirectory() as workdir:
        return summary(traced_run(EXAMPLE1_DIMACS, name.split()[-1], Path(workdir))[0])


@pytest.mark.parametrize("algorithm", ["remus", "marco"])
def test_traced_run_has_a_span_in_every_layer(algorithm, tmp_path):
    run, spans, layers = traced_run(EXAMPLE1_DIMACS, algorithm, tmp_path)
    recorded = RECORDED[f"traced example1 {algorithm}"]
    assert summary(run) == recorded
    assert spans >= set(LAYERS)
    assert layers["oracles.checks"] == recorded["checks"]
    assert layers["shrink.calls"] == layers["muses"] == 2
    for name in ("satsolver.solves", "unexplored.max_calls", "unexplored.blocks"):
        assert layers[name] > 0
    for name in ("session.emit_s", "cli.parse_s", "session.self_s", "cli.write_s"):
        assert layers[name] > 0


@pytest.mark.parametrize("algorithm", ["remus", "marco"])
@pytest.mark.parametrize("dimacs", [EXAMPLE1_DIMACS, DEEP_DIMACS], ids=["example1", "deep"])
def test_traced_arguments_match_the_run_records(dimacs, algorithm, tmp_path):
    # the tracer reads emit's depth and shrink's seed by position; a moved
    # parameter would corrupt these metrics without failing a run
    run, _, layers = traced_run(dimacs, algorithm, tmp_path)
    enumerate_ = enumerate_remus if algorithm == "remus" else enumerate_marco
    records = enumerate_(parse_dimacs(dimacs)).records
    assert [list(mus) for mus in run.muses] == [r.mus.indices_1based() for r in records]
    assert layers["max_depth"] == max(r.depth for r in records)
    assert layers["shrink.seed_size"] == sum(len(r.seed) for r in records)
    assert layers["shrink.removed"] == sum(len(r.seed) - len(r.mus) for r in records)
    if algorithm == "remus" and dimacs is DEEP_DIMACS:
        assert layers["max_depth"] >= 1
