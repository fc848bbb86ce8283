"""Recorded enumeration runs: each run's figures must match tests/recorded.json.

A run is named "<oracle> <vars>-<clauses>-<seed> <budgets> <algorithm>": it
enumerates random_cnf(vars, clauses, 3, seed) on that oracle kind under
RemusConfig(budgets). Its figures are whether it completed, its oracle
checks, map calls and MUSes, and the sha256 prefixes of its MUS sequence, of
its per-MUS counters and of its block log. `python tests/record.py` rewrites
them.

The oracle kinds know more and more beyond the query:
- query: the witness and the core are the query itself, as for any oracle
  that knows no larger satisfiable and no smaller unsatisfiable set
  (TableOracle), so the enumerators block only the sets they asked about and
  shrink deletes one constraint at a time;
- witness: the witness is the clause set of a model, the core the query;
- core: the witness and the core are CnfOracle's, the core being the clauses
  in the solver's failed assumptions. None of these three rotates models, so
  shrink proves a constraint critical only by a trial;
- cnf: CnfOracle itself, whose rotation proves constraints critical from the
  models of satisfiable trials.
Verdicts and models are fixed by the clauses and the assumption set (see
musenum.satsolver), so a change to the solvers' search leaves the query and
witness runs as they are; cores follow the solver's derivation, so it may
move the core and cnf runs.

Each kind runs to completion on three small formulas, to 8 MUSes on two wider
ones, and to two check limits on two formulas. The cnf kind is also stopped by
each budget and by two together: a stop one step earlier or later can move a
block across it and leave the other figures as they are, which the block log
shows.
"""

import ast
import hashlib

import pytest

from musenum import CnfOracle, RemusConfig, enumerate_marco, enumerate_remus
from musenum.oracles import random_cnf

from helpers import RECORDED, CoreCnfOracle

RUNNERS = {"remus": enumerate_remus, "marco": enumerate_marco}


class QueryCnfOracle(CoreCnfOracle):
    """CoreCnfOracle that knows only the query: its witness and its core are the query."""

    def _solve(self, s):
        return super()._solve(s)[0], s.mask


class QueryCoreCnfOracle(CoreCnfOracle):
    """CoreCnfOracle whose core is the query; its witness is still a model's clause set."""

    def _solve(self, s):
        sat, mask = super()._solve(s)
        return sat, mask if sat else s.mask


ORACLES = {"query": QueryCnfOracle, "witness": QueryCoreCnfOracle, "core": CoreCnfOracle, "cnf": CnfOracle}


def runs(oracle, formulas, budgets) -> list[str]:
    return [f"{oracle} {f} {b} {a}" for f in formulas for b in budgets for a in RUNNERS]


def complete_runs(oracle) -> list[str]:
    return runs(oracle, ["4-16-5", "5-22-3", "6-24-1"], ["mus_limit=None"]) + runs(
        oracle, ["16-80-2", "20-100-1"], ["mus_limit=8"]
    )


def stopped_runs(oracle, limits) -> list[str]:
    return runs(oracle, ["5-22-3", "6-24-1"], [f"check_limit={limit}" for limit in limits])


COMPLETE = {oracle: complete_runs(oracle) for oracle in ORACLES}
# the core and cnf runs of these formulas end within 108 checks, so their
# second stop is at 70
STOPPED = {
    "query": stopped_runs("query", (50, 200)),
    "witness": stopped_runs("witness", (50, 200)),
    "core": stopped_runs("core", (50, 70)),
    "cnf": stopped_runs("cnf", (50, 70)),
}
BLOCK_LOG_STOPS = runs(
    "cnf",
    ["4-16-5", "5-22-3", "6-24-1"],
    ["mus_limit=3", "check_limit=20", "time_limit=0.0", "mus_limit=2,check_limit=9"],
)
RECORDED_RUNS = [name for oracle in ORACLES for name in COMPLETE[oracle] + STOPPED[oracle]] + BLOCK_LOG_STOPS

# The tests of the query and witness runs keep the ids that pytest made from
# their rows when they were first recorded, the row's index and that
# recording's figures, so that no test id changed when the figures moved to
# recorded.json. The figures in an id are not compared: recorded.json holds
# the current ones. Run name: id of its test.
FIRST_IDS = {
    "query 4-16-5 mus_limit=None remus": "formula0-None-remus-641-430-48-9665394022921e74",
    "query 4-16-5 mus_limit=None marco": "formula1-None-marco-681-57-48-704af43cea276b91",
    "query 5-22-3 mus_limit=None remus": "formula2-None-remus-1085-964-56-952910cfd026a9fe",
    "query 5-22-3 mus_limit=None marco": "formula3-None-marco-1050-72-56-c54e9940f9d69e96",
    "query 6-24-1 mus_limit=None remus": "formula4-None-remus-1074-1034-34-830aa1bbcba57ff9",
    "query 6-24-1 mus_limit=None marco": "formula5-None-marco-739-53-34-1d58988ed702b392",
    "query 16-80-2 mus_limit=8 remus": "formula6-8-remus-428-54-8-c18b58218213fa94",
    "query 16-80-2 mus_limit=8 marco": "formula7-8-marco-637-8-8-4981a1ae72c95929",
    "query 20-100-1 mus_limit=8 remus": "formula8-8-remus-538-72-8-bcf08d91d7ff1ec8",
    "query 20-100-1 mus_limit=8 marco": "formula9-8-marco-795-8-8-896d7ba410005ab2",
    "query 5-22-3 check_limit=50 remus": "formula0-50-remus-50-9-2-eaf83872a9d58553-328a53247da838aa",
    "query 5-22-3 check_limit=50 marco": "formula1-50-marco-68-4-3-4af6a7654773b1f6-bfc873a065bed7fe",
    "query 5-22-3 check_limit=200 remus": "formula2-200-remus-200-150-12-1060f50a6fe7e5f7-db6fdf3e02e20be1",
    "query 5-22-3 check_limit=200 marco": "formula3-200-marco-212-14-10-3cc28dd4c591e4d5-21eab1874c25f7b0",
    "query 6-24-1 check_limit=50 remus": "formula4-50-remus-65-3-3-f890fcd85f928693-aa362176a92392f3",
    "query 6-24-1 check_limit=50 marco": "formula5-50-marco-50-2-2-29f02501f905770f-d1cd7dcaf31eaf9d",
    "query 6-24-1 check_limit=200 remus": "formula6-200-remus-200-100-9-b8d48ca3a2de7814-60f48422c673fb54",
    "query 6-24-1 check_limit=200 marco": "formula7-200-marco-217-12-9-502fa553e2383ffd-5ee26ba220c3c8d9",
    "witness 4-16-5 mus_limit=None remus": "formula0-None-remus-598-57-48-a9e97e57b99e26c7",
    "witness 4-16-5 mus_limit=None marco": "formula1-None-marco-673-49-48-704af43cea276b91",
    "witness 5-22-3 mus_limit=None remus": "formula2-None-remus-883-110-56-adcdd87974ae2ce6",
    "witness 5-22-3 mus_limit=None marco": "formula3-None-marco-1037-59-56-c54e9940f9d69e96",
    "witness 6-24-1 mus_limit=None remus": "formula4-None-remus-590-75-34-72afe07185a556eb",
    "witness 6-24-1 mus_limit=None marco": "formula5-None-marco-724-38-34-1d58988ed702b392",
    "witness 16-80-2 mus_limit=8 remus": "formula6-8-remus-434-32-8-c18b58218213fa94",
    "witness 16-80-2 mus_limit=8 marco": "formula7-8-marco-637-8-8-4981a1ae72c95929",
    "witness 20-100-1 mus_limit=8 remus": "formula8-8-remus-514-31-8-44e00e79275b9f33",
    "witness 20-100-1 mus_limit=8 marco": "formula9-8-marco-795-8-8-896d7ba410005ab2",
    "witness 5-22-3 check_limit=50 remus": "formula0-50-remus-50-10-2-eaf83872a9d58553-328a53247da838aa",
    "witness 5-22-3 check_limit=50 marco": "formula1-50-marco-68-4-3-4af6a7654773b1f6-bfc873a065bed7fe",
    "witness 5-22-3 check_limit=200 remus": "formula2-200-remus-200-33-12-41315fa973ffe464-a5cf5cf8f106f1ca",
    "witness 5-22-3 check_limit=200 marco": "formula3-200-marco-209-11-10-3cc28dd4c591e4d5-eb1e5514c6f95316",
    "witness 6-24-1 check_limit=50 remus": "formula4-50-remus-65-3-3-f890fcd85f928693-aa362176a92392f3",
    "witness 6-24-1 check_limit=50 marco": "formula5-50-marco-50-2-2-29f02501f905770f-d1cd7dcaf31eaf9d",
    "witness 6-24-1 check_limit=200 remus": "formula6-200-remus-209-26-11-f6b560c1fc15736c-11c473e021d8500d",
    "witness 6-24-1 check_limit=200 marco": "formula7-200-marco-216-11-9-502fa553e2383ffd-8f7dd6c841262955",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def figures(name: str) -> dict:
    """The figures of a named run."""
    oracle, formula, budgets, algorithm = name.split()
    num_vars, num_clauses, seed = map(int, formula.split("-"))
    config = {key: ast.literal_eval(value) for key, value in (b.split("=") for b in budgets.split(","))}
    result = RUNNERS[algorithm](
        ORACLES[oracle](num_vars, random_cnf(num_vars, num_clauses, 3, seed)), RemusConfig(**config)
    )
    return {
        "complete": result.complete,
        "checks": result.oracle_checks,
        "map_calls": result.map_solver_calls,
        "muses": len(result.records),
        # the MUSes in emission order, "1 3 4;1 2;..." (1-based)
        "sequence": digest(";".join(" ".join(map(str, r.mus.indices_1based())) for r in result.records)),
        # per MUS: oracle checks, map calls and depth, "6 1 0;10 2 0;..."
        "counters": digest(";".join(f"{r.oracle_checks} {r.map_solver_calls} {r.depth}" for r in result.records)),
        "blocks": digest(repr(result.block_log)),
    }


def run_id(name: str) -> str:
    """Test id from a run's formula, budget value and algorithm: "5-22-3-70-marco"."""
    _, formula, budgets, algorithm = name.split()
    return f"{formula}-{budgets.split('=')[1]}-{algorithm}"


def stop_id(name: str) -> str:
    """Test id from a run's formula, budgets and algorithm: "5-22-3-mus_limit=2,check_limit=9-remus"."""
    _, formula, budgets, algorithm = name.split()
    return f"{formula}-{budgets}-{algorithm}"


@pytest.mark.parametrize("name", COMPLETE["query"], ids=map(FIRST_IDS.get, COMPLETE["query"]))
def test_enumeration_matches_the_recorded_run(name):
    assert figures(name) == RECORDED[name]


@pytest.mark.parametrize("name", STOPPED["query"], ids=map(FIRST_IDS.get, STOPPED["query"]))
def test_budget_stop_matches_the_recorded_run(name):
    assert figures(name) == RECORDED[name]


@pytest.mark.parametrize("name", COMPLETE["witness"], ids=map(FIRST_IDS.get, COMPLETE["witness"]))
def test_witness_enumeration_matches_the_recorded_run(name):
    assert figures(name) == RECORDED[name]


@pytest.mark.parametrize("name", STOPPED["witness"], ids=map(FIRST_IDS.get, STOPPED["witness"]))
def test_witness_budget_stop_matches_the_recorded_run(name):
    assert figures(name) == RECORDED[name]


@pytest.mark.parametrize("name", COMPLETE["core"], ids=map(run_id, COMPLETE["core"]))
def test_core_enumeration_matches_the_recorded_run(name):
    assert figures(name) == RECORDED[name]


@pytest.mark.parametrize("name", STOPPED["core"], ids=map(run_id, STOPPED["core"]))
def test_core_budget_stop_matches_the_recorded_run(name):
    assert figures(name) == RECORDED[name]


@pytest.mark.parametrize("name", COMPLETE["cnf"], ids=map(run_id, COMPLETE["cnf"]))
def test_rotation_enumeration_matches_the_recorded_run(name):
    assert figures(name) == RECORDED[name]


@pytest.mark.parametrize("name", STOPPED["cnf"], ids=map(run_id, STOPPED["cnf"]))
def test_rotation_budget_stop_matches_the_recorded_run(name):
    assert figures(name) == RECORDED[name]


@pytest.mark.parametrize("name", BLOCK_LOG_STOPS, ids=map(stop_id, BLOCK_LOG_STOPS))
def test_stopped_run_keeps_the_recorded_block_log(name):
    assert figures(name) == RECORDED[name]
