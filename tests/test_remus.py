import inspect
import random
import sys

import pytest

from musenum import (
    CnfOracle,
    ConstraintSet,
    Instance,
    InstanceSatisfiableError,
    PreconditionError,
    RemusConfig,
    bruteforce_all_muses,
    choose_p,
    enumerate_marco,
    enumerate_remus,
    is_mus,
    parse_dimacs,
)
from musenum.reference import random_cnf

from helpers import (
    EXAMPLE1_DIMACS,
    EXAMPLE1_MUSES,
    assert_block_log_replays,
    bitsets,
    cs,
    example1_table,
    random_antichain,
    small_unsat_cnfs,
    table_from_antichain,
)

RUNNERS = {"remus": enumerate_remus, "marco": enumerate_marco}


def test_example1_emits_both_muses_once():
    result = enumerate_remus(Instance(parse_dimacs(EXAMPLE1_DIMACS)))
    assert bitsets(result.muses) == EXAMPLE1_MUSES
    assert len(result.muses) == 2
    assert result.complete


def test_example1_on_the_status_table():
    result = enumerate_remus(Instance(example1_table()))
    assert bitsets(result.muses) == EXAMPLE1_MUSES


def test_single_unsatisfiable_constraint():
    # one constraint that is itself unsatisfiable: the empty clause
    result = enumerate_remus(Instance(parse_dimacs("p cnf 0 1\n0\n")))
    assert bitsets(result.muses) == {"1"}
    assert result.complete


def test_satisfiable_instance_is_rejected():
    with pytest.raises(InstanceSatisfiableError):
        enumerate_remus(Instance(parse_dimacs("p cnf 2 2\n1 0\n2 0\n")))


def test_first_shrink_starts_from_the_full_universe():
    # fresh map: the first maximal undetermined subset is the whole set; the
    # core of its check is {c1, c2}, already a MUS, so shrink starts there
    result = enumerate_remus(Instance(parse_dimacs(EXAMPLE1_DIMACS)))
    first = result.stats.shrink_log[0]
    assert first.seed == ConstraintSet.full(4)
    assert first.criticals == ConstraintSet.empty(4)
    assert result.records[0].mus == cs("1100")
    assert result.records[0].depth == 0


def test_choose_p_examples():
    s_mus = ConstraintSet.from_indices(20, range(10))
    s_max = ConstraintSet.full(20)
    p = choose_p(s_mus, s_max, 0.9)
    assert len(p) == 18
    assert s_mus.is_subset_of(p) and p.is_subset_of(s_max)
    assert p == ConstraintSet.from_indices(20, range(18))  # lowest-index fill

    assert choose_p(ConstraintSet.from_indices(4, range(3)), ConstraintSet.full(4), 0.9) is None

    p = choose_p(ConstraintSet.from_indices(10, [0, 1]), ConstraintSet.full(10), 0.9)
    assert len(p) == 9


def test_choose_p_requires_proper_subset():
    full = ConstraintSet.full(4)
    with pytest.raises(PreconditionError):
        choose_p(full, full, 0.9)
    with pytest.raises(PreconditionError):
        choose_p(cs("0011"), cs("1100"), 0.9)


def test_reduction_factor_validation():
    with pytest.raises(PreconditionError):
        RemusConfig(reduction_factor=1.0)
    with pytest.raises(PreconditionError):
        RemusConfig(reduction_factor=0.0)


def test_mus_limit_stops_cleanly():
    result = enumerate_remus(
        Instance(parse_dimacs(EXAMPLE1_DIMACS)), RemusConfig(mus_limit=1)
    )
    assert len(result.records) == 1
    assert not result.complete
    assert result.muses[0].bits() in EXAMPLE1_MUSES


@pytest.fixture
def recursion_limit():
    """A caller's recursion limit, put back after the test."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield 1000
    sys.setrecursionlimit(saved)


@pytest.mark.parametrize("config", [RemusConfig(), RemusConfig(mus_limit=1)], ids=["complete", "mus-limit"])
def test_search_leaves_the_recursion_limit_alone(recursion_limit, config):
    during = []
    result = enumerate_remus(
        Instance(parse_dimacs(EXAMPLE1_DIMACS)), config,
        sink=lambda record: during.append(sys.getrecursionlimit()),
    )
    assert result.complete == (config.mus_limit is None)
    assert during and set(during) == {recursion_limit}
    assert sys.getrecursionlimit() == recursion_limit


def test_deep_search_needs_no_interpreter_stack():
    # the 200 MUSes are {c1, ci}; with factor 0.99 each seed loses about one
    # constraint, so frames nest far deeper than the headroom left below
    oracle = CnfOracle(1, [[-1]] + [[1]] * 200)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        result = enumerate_remus(Instance(oracle), RemusConfig(reduction_factor=0.99))
    finally:
        sys.setrecursionlimit(saved)
    assert result.complete
    assert len(set(result.muses)) == 200
    assert max(record.depth for record in result.records) > 40


def test_nan_time_limit_is_rejected():
    with pytest.raises(PreconditionError):
        RemusConfig(time_limit=float("nan"))


def test_time_limit_zero_stops_before_any_emission():
    result = enumerate_remus(
        Instance(parse_dimacs(EXAMPLE1_DIMACS)), RemusConfig(time_limit=0.0)
    )
    assert result.records == []
    assert not result.complete


def test_check_limit_budget():
    oracle = parse_dimacs(EXAMPLE1_DIMACS)
    result = enumerate_remus(Instance(oracle), RemusConfig(check_limit=1))
    # the single allowed check is the initial full-set test
    assert result.records == []
    assert not result.complete
    assert result.stats.oracle_checks == 1


@pytest.mark.parametrize("limit", [0, 1, 7, 50, 120, 200, 400])
@pytest.mark.parametrize("algorithm", ["remus", "marco"])
@pytest.mark.parametrize("formula", [(16, 80, 2), (20, 100, 1)])
def test_check_limit_overshoot_is_bounded(formula, algorithm, limit):
    # a shrink in flight is never cut and the full-set check always runs
    num_vars, num_clauses, seed = formula
    oracle = CnfOracle(num_vars, random_cnf(num_vars, num_clauses, 3, seed))
    result = RUNNERS[algorithm](Instance(oracle), RemusConfig(check_limit=limit))
    checks = result.stats.oracle_checks
    assert not result.complete and checks >= limit
    last = result.stats.shrink_log[-1] if result.stats.shrink_log else None
    in_flight = len(last.seed - last.criticals) if last else 0
    assert checks <= max(limit, 1) + max(0, in_flight - 1)


@pytest.mark.parametrize("algorithm", ["remus", "marco"])
def test_feed_map_off_blocks_no_shrink_discovery(algorithm):
    # unsatisfiable 2-CNF formulas with 4, 12 and 14 MUSes
    for num_vars, num_clauses, seed in [(3, 8, 2), (4, 10, 0), (5, 14, 2)]:
        clauses = random_cnf(num_vars, num_clauses, 2, seed)
        extra_downs = {}
        for feed in (True, False):
            result = RUNNERS[algorithm](
                Instance(CnfOracle(num_vars, clauses)), RemusConfig(feed_map=feed)
            )
            assert set(result.muses) == bruteforce_all_muses(CnfOracle(num_vars, clauses))
            # one down-block per seed check (its MSS or its MUS), none per shrink find
            seed_checks = (
                result.stats.oracle_checks - 1
                - sum(call.checks for call in result.stats.shrink_log)
            )
            downs = sum(kind == "down" for kind, _ in result.block_log)
            extra_downs[feed] = downs - seed_checks
        assert extra_downs[False] == 0
        assert extra_downs[True] > 0


def test_stats_snapshots_are_monotone():
    result = enumerate_remus(Instance(parse_dimacs(EXAMPLE1_DIMACS)))
    snaps = result.stats.per_mus
    assert [s.ordinal for s in snaps] == list(range(1, len(snaps) + 1))
    for a, b in zip(snaps, snaps[1:]):
        assert a.elapsed_s <= b.elapsed_s
        assert a.oracle_checks <= b.oracle_checks
        assert a.map_solver_calls <= b.map_solver_calls


def test_stats_reconcile_with_oracle_and_map():
    oracle = parse_dimacs(EXAMPLE1_DIMACS)
    oracle.is_sat(ConstraintSet.full(4))  # checks made before the run are not its own
    result = enumerate_remus(Instance(oracle))
    stats = result.stats
    assert stats.oracle_checks == oracle.checks - 1
    assert stats.oracle_checks >= stats.per_mus[-1].oracle_checks
    assert stats.map_solver_calls >= stats.per_mus[-1].map_solver_calls
    assert result.records is stats.per_mus and len(stats.per_mus) == 2
    oracle.is_sat(ConstraintSet.full(4))  # the finished result does not move
    assert stats.oracle_checks == oracle.checks - 2


def test_criticals_are_kept_and_sound():
    rng = random.Random(820)
    seen_nonempty_criticals = False
    for trial in range(40):
        n = rng.randint(2, 9)
        antichain = random_antichain(n, rng)
        oracle = table_from_antichain(n, antichain)
        result = enumerate_remus(Instance(oracle))
        verifier = table_from_antichain(n, antichain)
        assert len(result.stats.shrink_log) == len(result.records)
        for call, record in zip(result.stats.shrink_log, result.records):
            assert call.criticals.is_subset_of(call.seed)
            assert call.criticals.is_subset_of(record.mus)
            assert record.mus.is_subset_of(call.seed)
            for c in call.criticals:
                seen_nonempty_criticals = True
                assert verifier.is_sat(call.seed.remove(c))
    assert seen_nonempty_criticals


def test_map_block_log_replays_soundly_against_the_oracle():
    # a table's witness is the query itself; a CNF formula's witness is the
    # clause set of a model, so its down-blocks reach beyond the queried sets
    rng = random.Random(821)
    for trial in range(25):
        n = rng.randint(2, 8)
        antichain = random_antichain(n, rng)
        result = enumerate_remus(Instance(table_from_antichain(n, antichain)))
        assert_block_log_replays(result, table_from_antichain(n, antichain))
    for num_vars, clauses in small_unsat_cnfs(15, 824):
        result = enumerate_remus(Instance(CnfOracle(num_vars, clauses)))
        assert_block_log_replays(result, CnfOracle(num_vars, clauses))


@pytest.mark.parametrize("seed", [12, 13, 19, 46, 52])
def test_remus_and_marco_agree_beyond_brute_force(seed):
    # 30 clauses put brute force out of reach; each of these has 90-442 MUSes
    clauses = random_cnf(7, 30, 3, seed)
    results = [run(Instance(CnfOracle(7, clauses))) for run in RUNNERS.values()]
    assert all(result.complete for result in results)
    remus, marco = (set(result.muses) for result in results)
    assert remus == marco and len(remus) == len(results[0].muses)


def test_emitted_muses_match_bruteforce_on_random_corpora():
    rng = random.Random(822)
    for trial in range(30):
        n = rng.randint(1, 8)
        antichain = random_antichain(n, rng)
        expected = {ConstraintSet(n, a) for a in antichain}
        result = enumerate_remus(Instance(table_from_antichain(n, antichain)))
        assert set(result.muses) == expected
        assert len(result.muses) == len(expected)
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
        result = enumerate_remus(Instance(CnfOracle(num_vars, clauses)))
        assert set(result.muses) == expected
        for mus in result.muses:
            assert is_mus(CnfOracle(num_vars, clauses), mus)


def test_runs_are_deterministic():
    rng = random.Random(823)
    for trial in range(10):
        n = rng.randint(2, 8)
        antichain = random_antichain(n, rng)
        first = enumerate_remus(Instance(table_from_antichain(n, antichain)))
        second = enumerate_remus(Instance(table_from_antichain(n, antichain)))
        assert [m.mask for m in first.muses] == [m.mask for m in second.muses]
        assert first.block_log == second.block_log
        assert first.stats.oracle_checks == second.stats.oracle_checks
