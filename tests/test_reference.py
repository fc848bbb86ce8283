import random

import pytest

from musenum import ConstraintSet, PreconditionError, parse_dimacs
from musenum.oracles import random_cnf, to_dimacs

from helpers import (
    EXAMPLE1_STATUSES,
    bruteforce_all_muses,
    cs,
    explicit_map_reference,
    random_antichain,
    random_monotone_table,
    table_from_antichain,
)


def test_reference_example3_log():
    log = [("up", cs("101").mask), ("down", cs("110").mask)]
    assert explicit_map_reference(3, log) == {cs("001").mask, cs("011").mask}


def test_reference_empty_log_keeps_everything():
    assert explicit_map_reference(3, []) == set(range(8))


def test_reference_down_full_removes_everything():
    assert explicit_map_reference(3, [("down", 0b111)]) == set()


def test_reference_size_guard_and_kind_check():
    with pytest.raises(PreconditionError):
        explicit_map_reference(13, [])
    with pytest.raises(PreconditionError):
        explicit_map_reference(3, [("sideways", 1)])


def test_antichain_closure_reproduces_the_demo_status_table():
    # minimal unsatisfiable sets {c1,c2} and {c1,c3,c4}
    oracle = table_from_antichain(4, [cs("1100").mask, cs("1011").mask])
    for bits, expected in EXAMPLE1_STATUSES.items():
        assert oracle.is_sat(cs(bits)) == expected, bits


def test_single_pair_antichain():
    oracle = table_from_antichain(3, [cs("110").mask])
    assert {m.bits() for m in bruteforce_all_muses(oracle)} == {"110"}


def test_generated_tables_have_unsat_full_set_and_antichain_muses():
    rng = random.Random(1001)
    for _ in range(40):
        n = rng.randint(1, 9)
        antichain = random_antichain(n, rng)
        assert antichain
        for i, a in enumerate(antichain):
            for b in antichain[i + 1:]:
                assert not (a & b == a or a & b == b)  # pairwise incomparable
        oracle = table_from_antichain(n, antichain)
        assert not oracle.is_sat(ConstraintSet.full(n))
        assert bruteforce_all_muses(oracle) == {ConstraintSet(n, a) for a in antichain}


def test_random_monotone_table_is_seeded():
    first = random_monotone_table(6, 42)
    second = random_monotone_table(6, 42)
    other = random_monotone_table(6, 43)
    assert first._table == second._table
    assert not first.is_sat(ConstraintSet.full(6))
    assert first._table != other._table  # 42 and 43 happen to differ


def test_random_monotone_table_bounds():
    with pytest.raises(PreconditionError):
        random_monotone_table(0, 1)
    with pytest.raises(PreconditionError):
        random_monotone_table(13, 1)


def test_random_cnf_is_deterministic_and_well_formed():
    a = random_cnf(6, 20, 3, seed=7)
    b = random_cnf(6, 20, 3, seed=7)
    c = random_cnf(6, 20, 3, seed=8)
    assert a == b
    assert a != c
    assert len(a) == 20
    for clause in a:
        assert len(clause) == 3
        variables = [abs(lit) for lit in clause]
        assert len(set(variables)) == 3
        assert all(1 <= v <= 6 for v in variables)


def test_random_cnf_width_is_capped_by_variable_count():
    clauses = random_cnf(2, 5, 4, seed=1)
    assert all(len(cl) == 2 for cl in clauses)


def test_random_cnf_parameter_validation():
    with pytest.raises(PreconditionError):
        random_cnf(0, 5)
    with pytest.raises(PreconditionError):
        random_cnf(3, 5, width=0)


def test_to_dimacs_roundtrip():
    clauses = random_cnf(5, 12, 3, seed=11)
    oracle = parse_dimacs(to_dimacs(5, clauses))
    assert oracle.num_vars == 5
    assert oracle.clauses == clauses
