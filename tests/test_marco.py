import random

import pytest

from musenum import (
    CnfOracle,
    ConstraintSet,
    InstanceSatisfiableError,
    RemusConfig,
    enumerate_marco,
    is_mus,
    parse_dimacs,
)
from musenum.oracles import random_cnf

from helpers import (
    EXAMPLE1_DIMACS,
    EXAMPLE1_MUSES,
    assert_block_log_replays,
    bitsets,
    bruteforce_all_muses,
    muses_of,
    random_antichain,
    small_unsat_cnfs,
    table_from_antichain,
)


def test_example1_emits_both_muses_once():
    result = enumerate_marco(parse_dimacs(EXAMPLE1_DIMACS))
    assert bitsets(muses_of(result)) == EXAMPLE1_MUSES
    assert len(muses_of(result)) == 2
    assert result.complete


def test_mus_limit_one_emits_one_valid_mus():
    result = enumerate_marco(
        parse_dimacs(EXAMPLE1_DIMACS), RemusConfig(mus_limit=1)
    )
    assert len(result.records) == 1
    assert not result.complete
    assert is_mus(parse_dimacs(EXAMPLE1_DIMACS), muses_of(result)[0])


def test_satisfiable_instance_is_rejected():
    with pytest.raises(InstanceSatisfiableError):
        enumerate_marco(parse_dimacs("p cnf 1 1\n1 0\n"))


def test_matches_bruteforce_on_random_corpora():
    rng = random.Random(910)
    for trial in range(30):
        n = rng.randint(1, 8)
        antichain = random_antichain(n, rng)
        expected = {ConstraintSet(n, a) for a in antichain}
        result = enumerate_marco(table_from_antichain(n, antichain))
        assert set(muses_of(result)) == expected
        assert len(muses_of(result)) == len(expected)
        assert result.complete

    accepted = 0
    seed = 0
    while accepted < 20:
        seed += 1
        num_vars = rng.randint(2, 5)
        clauses = random_cnf(num_vars, rng.randint(3, 10), rng.choice([1, 2, 3]), seed=seed)
        oracle = CnfOracle(num_vars, clauses)
        if oracle.is_sat(ConstraintSet.full(oracle.n)):
            continue
        accepted += 1
        expected = bruteforce_all_muses(CnfOracle(num_vars, clauses))
        result = enumerate_marco(CnfOracle(num_vars, clauses))
        assert set(muses_of(result)) == expected


def test_never_recurses_and_never_passes_criticals():
    # the controlled difference against the recursive algorithm: all seeds
    # come from the full universe, shrinks get no critical constraints
    rng = random.Random(911)
    oracles = [CnfOracle(num_vars, clauses) for num_vars, clauses in small_unsat_cnfs(15, 914)]
    for trial in range(15):
        n = rng.randint(2, 8)
        oracles.append(table_from_antichain(n, random_antichain(n, rng)))
    for oracle in oracles:
        result = enumerate_marco(oracle)
        assert all(record.depth == 0 for record in result.records)
        assert all(len(record.criticals) == 0 for record in result.records)


def test_block_log_soundness():
    rng = random.Random(912)
    for trial in range(15):
        n = rng.randint(2, 8)
        antichain = random_antichain(n, rng)
        result = enumerate_marco(table_from_antichain(n, antichain))
        assert_block_log_replays(result, table_from_antichain(n, antichain))
    for num_vars, clauses in small_unsat_cnfs(15, 913):
        result = enumerate_marco(CnfOracle(num_vars, clauses))
        assert_block_log_replays(result, CnfOracle(num_vars, clauses))
