"""Recorded enumeration runs: each run's figures must match tests/recorded.json.

A run is named "<oracle> <vars>-<clauses>-<seed> <budgets> <algorithm>": it
enumerates random_cnf(vars, clauses, 3, seed) on that oracle kind under
RemusConfig(budgets). Its figures are whether it completed, its oracle
checks, map calls and MUSes, and the sha256 prefixes of its MUS sequence, of
its per-MUS counters and of its block log, which holds one entry per clause
the map was given. `python tests/record.py` rewrites them.

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
each budget and by two together: a stopped run's log ends with the blocks of
its last step, and a stop one step earlier or later can move those blocks
across it and leave the other figures as they are, which the block log shows.
"""

import ast
import hashlib

import pytest

from musenum import CnfOracle, RemusConfig
from musenum.oracles import random_cnf

from helpers import RECORDED, RUNNERS, CoreCnfOracle


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


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(name: str):
    """The result of a named run."""
    oracle, formula, budgets, algorithm = name.split()
    num_vars, num_clauses, seed = map(int, formula.split("-"))
    config = {key: ast.literal_eval(value) for key, value in (b.split("=") for b in budgets.split(","))}
    return RUNNERS[algorithm](
        ORACLES[oracle](num_vars, random_cnf(num_vars, num_clauses, 3, seed)), RemusConfig(**config)
    )


def figures(name: str) -> dict:
    """The figures of a named run."""
    result = run(name)
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


@pytest.mark.parametrize("name", RECORDED_RUNS, ids=RECORDED_RUNS)
def test_run_matches_its_recording(name):
    assert figures(name) == RECORDED[name]
