"""Golden enumeration runs: oracle checks, map calls and the MUS sequence.

The figures were recorded before the solver kept its trail between solves.
Oracle answers are semantic and the map's models are fixed by its clauses and
assumption set (see musenum.satsolver), so a change to the solvers' search
must leave every figure here as it is. A change that alters which model or
MUS is found on purpose re-records them and says why.
"""

import hashlib

import pytest

from musenum import CnfOracle, Instance, RemusConfig, enumerate_marco, enumerate_remus
from musenum.reference import random_cnf

RUNNERS = {"remus": enumerate_remus, "marco": enumerate_marco}

# (vars, clauses, seed) of random_cnf, MUS limit, algorithm,
# oracle checks, map calls, MUSes, sha256 prefix of the MUS sequence
GOLDEN = [
    ((4, 16, 5), None, "remus", 641, 430, 48, "9665394022921e74"),
    ((4, 16, 5), None, "marco", 681, 57, 48, "704af43cea276b91"),
    ((5, 22, 3), None, "remus", 1085, 964, 56, "952910cfd026a9fe"),
    ((5, 22, 3), None, "marco", 1050, 72, 56, "c54e9940f9d69e96"),
    ((6, 24, 1), None, "remus", 1074, 1034, 34, "830aa1bbcba57ff9"),
    ((6, 24, 1), None, "marco", 739, 53, 34, "1d58988ed702b392"),
    ((16, 80, 2), 8, "remus", 428, 54, 8, "c18b58218213fa94"),
    ((16, 80, 2), 8, "marco", 637, 8, 8, "4981a1ae72c95929"),
    ((20, 100, 1), 8, "remus", 538, 72, 8, "bcf08d91d7ff1ec8"),
    ((20, 100, 1), 8, "marco", 795, 8, 8, "896d7ba410005ab2"),
]


def sequence_digest(records) -> str:
    """sha256 prefix of the MUSes in emission order, "1 3 4;1 2;..." (1-based)."""
    text = ";".join(" ".join(map(str, r.mus.indices_1based())) for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "formula, mus_limit, algorithm, checks, map_calls, muses, digest", GOLDEN
)
def test_enumeration_matches_the_recorded_run(
    formula, mus_limit, algorithm, checks, map_calls, muses, digest
):
    num_vars, num_clauses, seed = formula
    oracle = CnfOracle(num_vars, random_cnf(num_vars, num_clauses, 3, seed))
    result = RUNNERS[algorithm](Instance(oracle), RemusConfig(mus_limit=mus_limit))
    assert result.complete == (mus_limit is None)
    assert result.stats.oracle_checks == checks
    assert result.stats.map_solver_calls == map_calls
    assert len(result.records) == muses
    assert sequence_digest(result.records) == digest
