import dataclasses
import inspect
import random
import sys
import time

import pytest

import musenum.session
from musenum import (
    CnfOracle,
    ConstraintSet,
    InstanceSatisfiableError,
    PreconditionError,
    RemusConfig,
    choose_p,
    enumerate_marco,
    enumerate_remus,
    parse_dimacs,
    shrink,
)
from musenum.oracles import random_cnf
from musenum.unexplored import UnexploredMap

from helpers import (
    EXAMPLE1_DIMACS,
    EXAMPLE1_MUSES,
    RUNNERS,
    assert_block_log_replays,
    bitsets,
    bruteforce_all_muses,
    cs,
    example1_table,
    from_indices,
    muses_of,
    per_member_choose_p,
    per_trial_shrink,
    random_antichain,
    small_unsat_cnfs,
    table_from_antichain,
)


@pytest.mark.parametrize("algorithm", RUNNERS)
def test_example1_emits_both_muses_once(algorithm):
    result = RUNNERS[algorithm](parse_dimacs(EXAMPLE1_DIMACS))
    assert bitsets(muses_of(result)) == EXAMPLE1_MUSES
    assert len(muses_of(result)) == 2
    assert result.complete


@pytest.mark.parametrize("algorithm", RUNNERS)
def test_example1_on_the_status_table(algorithm):
    result = RUNNERS[algorithm](example1_table())
    assert bitsets(muses_of(result)) == EXAMPLE1_MUSES


@pytest.mark.parametrize("algorithm", RUNNERS)
def test_single_unsatisfiable_constraint(algorithm):
    # one constraint that is itself unsatisfiable: the empty clause
    result = RUNNERS[algorithm](parse_dimacs("p cnf 0 1\n0\n"))
    assert bitsets(muses_of(result)) == {"1"}
    assert result.complete


@pytest.mark.parametrize(
    "algorithm, dimacs", [("remus", "p cnf 2 2\n1 0\n2 0\n"), ("marco", "p cnf 1 1\n1 0\n")], ids=["remus", "marco"]
)
def test_satisfiable_instance_is_rejected(algorithm, dimacs):
    with pytest.raises(InstanceSatisfiableError):
        RUNNERS[algorithm](parse_dimacs(dimacs))


def test_first_shrink_starts_from_the_full_universe():
    # fresh map: the first maximal undetermined subset is the whole set; the
    # core of its check is {c1, c2}, already a MUS, so shrink starts there
    result = enumerate_remus(parse_dimacs(EXAMPLE1_DIMACS))
    first = result.records[0]
    assert first.seed == ConstraintSet.full(4)
    assert first.criticals == ConstraintSet.empty(4)
    assert result.records[0].mus == cs("1100")
    assert result.records[0].depth == 0


def test_choose_p_examples():
    s_mus = from_indices(20, range(10))
    s_max = ConstraintSet.full(20)
    p = choose_p(s_mus, s_max, 0.9)
    assert len(p) == 18
    assert s_mus.is_subset_of(p) and p.is_subset_of(s_max)
    assert p == from_indices(20, range(18))  # lowest-index fill

    assert choose_p(from_indices(4, range(3)), ConstraintSet.full(4), 0.9) is None

    p = choose_p(from_indices(10, [0, 1]), ConstraintSet.full(10), 0.9)
    assert len(p) == 9


def test_choose_p_matches_the_per_member_fill():
    rng = random.Random(1901)
    answers = []
    for _ in range(2000):
        n = rng.randint(1, 64)
        s_max = ConstraintSet(n, rng.randrange(1, 1 << n))
        s_mus = ConstraintSet(n, s_max.mask & rng.randrange(1 << n))
        if s_mus == s_max:
            continue
        factor = rng.choice([rng.random(), 0.5, 0.9, 0.99, 1 - 1e-12]) or 0.5
        p = choose_p(s_mus, s_max, factor)
        assert p == per_member_choose_p(s_mus, s_max, factor)
        if p is not None:  # strictly between, even for a factor just below 1
            assert s_mus.is_subset_of(p) and p.is_subset_of(s_max) and len(s_mus) < len(p) < len(s_max)
        answers.append(p)
    assert None in answers and any(p is not None and p.n == 64 for p in answers)
    factor = RemusConfig(reduction_factor=0.9999999999).reduction_factor
    p = choose_p(from_indices(10, [0, 1]), ConstraintSet.full(10), factor)
    assert p == from_indices(10, range(9))


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


@pytest.mark.parametrize("algorithm", RUNNERS)
def test_mus_limit_stops_cleanly(algorithm):
    result = RUNNERS[algorithm](parse_dimacs(EXAMPLE1_DIMACS), RemusConfig(mus_limit=1))
    assert len(result.records) == 1
    assert not result.complete
    assert muses_of(result)[0].bits() in EXAMPLE1_MUSES


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
        parse_dimacs(EXAMPLE1_DIMACS), config,
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
        result = enumerate_remus(oracle, RemusConfig(reduction_factor=0.99))
    finally:
        sys.setrecursionlimit(saved)
    assert result.complete
    assert len(set(muses_of(result))) == 200
    assert max(record.depth for record in result.records) > 40


def test_nan_time_limit_is_rejected():
    with pytest.raises(PreconditionError):
        RemusConfig(time_limit=float("nan"))


@pytest.mark.parametrize("value", [float("nan"), 1.5], ids=["nan", "fraction"])
@pytest.mark.parametrize("field", ["mus_limit", "check_limit"])
def test_non_integer_limits_are_rejected(field, value):
    with pytest.raises(PreconditionError):
        RemusConfig(**{field: value})


@pytest.mark.parametrize("field", ["mus_limit", "check_limit", "time_limit", "reduction_factor"])
def test_bool_limits_are_rejected(field):
    for value in (True, False):
        with pytest.raises(PreconditionError):
            RemusConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("reduction_factor", "0.5"), ("reduction_factor", None), ("time_limit", "1"), ("time_limit", [1])],
    ids=["factor-str", "factor-none", "time-str", "time-list"],
)
def test_non_numeric_run_parameters_are_rejected(field, value):
    with pytest.raises(PreconditionError):
        RemusConfig(**{field: value})


def test_config_fields_cannot_change_after_validation():
    config = RemusConfig(check_limit=5)
    with pytest.raises(AttributeError):
        config.check_limit = float("nan")
    result = enumerate_remus(CnfOracle(1, [[-1]] + [[1]] * 30), config)
    assert not result.complete and result.oracle_checks == 5


def test_time_limit_zero_stops_before_any_emission():
    for run in RUNNERS.values():
        result = run(parse_dimacs(EXAMPLE1_DIMACS), RemusConfig(time_limit=0.0))
        assert result.records == []
        assert not result.complete


def test_check_limit_budget():
    for run in RUNNERS.values():
        result = run(parse_dimacs(EXAMPLE1_DIMACS), RemusConfig(check_limit=1))
        # the single allowed check is the initial full-set test
        assert result.records == []
        assert not result.complete
        assert result.oracle_checks == 1


@pytest.mark.parametrize("limit", [0, 1, 7, 50, 120, 200, 400])
@pytest.mark.parametrize("algorithm", ["remus", "marco"])
@pytest.mark.parametrize("formula", [(16, 80, 2), (20, 100, 1)])
def test_check_limit_overshoot_is_bounded(formula, algorithm, limit):
    # a shrink in flight is never cut and the full-set check always runs
    num_vars, num_clauses, seed = formula
    oracle = CnfOracle(num_vars, random_cnf(num_vars, num_clauses, 3, seed))
    result = RUNNERS[algorithm](oracle, RemusConfig(check_limit=limit))
    checks = result.oracle_checks
    assert not result.complete and checks >= limit
    last = result.records[-1] if result.records else None
    in_flight = len(last.seed - last.criticals) if last else 0
    assert checks <= max(limit, 1) + max(0, in_flight - 1)


def record_discoveries(monkeypatch) -> tuple[list, dict]:
    """Record shrink's discoveries, and the rotations of satisfiable seeds by the check they follow.

    A rotation outside shrink is the frame loop's, of the model of the
    satisfiable seed the oracle checked last. The dict maps the oracle's
    check count at that seed to (its witness mask, the rotated witness masks).
    """
    discovered = []
    seeds: dict[int, tuple[int, set[int]]] = {}
    shrinking = []

    def recording_shrink(*args):
        shrinking.append(True)
        try:
            mus, discoveries = shrink(*args)
        finally:
            shrinking.pop()
        discovered.extend(discoveries)
        return mus, discoveries

    rotate = CnfOracle.rotate

    def recording_rotate(self, work, critical, known):
        pairs = rotate(self, work, critical, known)
        if not shrinking:
            seeds.setdefault(self.checks, (self.witness.mask, set()))[1].update(w.mask for _, w in pairs)
        return pairs

    monkeypatch.setattr(musenum.session, "shrink", recording_shrink)
    monkeypatch.setattr(CnfOracle, "rotate", recording_rotate)
    return discovered, seeds


@pytest.mark.parametrize("algorithm", ["remus", "marco"])
def test_shrink_discoveries_are_always_blocked(algorithm, monkeypatch):
    discovered, seeds = record_discoveries(monkeypatch)
    # unsatisfiable 2-CNF formulas with 4, 12 and 14 MUSes
    for num_vars, num_clauses, seed in [(3, 8, 2), (4, 10, 0), (5, 14, 2)]:
        clauses = random_cnf(num_vars, num_clauses, 2, seed)
        discovered.clear()
        seeds.clear()
        result = RUNNERS[algorithm](CnfOracle(num_vars, clauses))
        assert set(muses_of(result)) == bruteforce_all_muses(CnfOracle(num_vars, clauses))
        # one down-block per satisfiable seed check (its MSS), one per distinct
        # witness its model's rotation returns, one per shrink find; an
        # unsatisfiable seed check leads to a shrink and is down-blocked by
        # none, and the first seed's check is the run's check of the full set
        seed_checks = result.oracle_checks - sum(record.shrink_checks for record in result.records)
        sat_seed_checks = seed_checks - len(result.records)
        rotated = [mask for _, masks in seeds.values() for mask in masks]
        downs = [mask for kind, mask in result.block_log if kind == "down"]
        assert discovered
        assert len(downs) == sat_seed_checks + len(rotated) + len(discovered)
        assert {sat_set.mask for sat_set in discovered} | set(rotated) <= set(downs)


@pytest.mark.parametrize("algorithm", RUNNERS)
def test_a_satisfiable_seed_rotates_into_more_down_blocks(algorithm, monkeypatch):
    # each c outside a satisfiable seed makes it unsatisfiable, so its model
    # rotates through c with no check, and the sets it proves satisfiable are
    # down-blocked beside the seed's own witness
    _, seeds = record_discoveries(monkeypatch)
    clauses = random_cnf(5, 22, 3, 3)
    result = RUNNERS[algorithm](CnfOracle(5, clauses))
    downs = {mask for kind, mask in result.block_log if kind == "down"}
    beyond = {mask for witness, masks in seeds.values() for mask in masks if mask != witness}
    assert beyond and beyond <= downs
    assert_block_log_replays(result, CnfOracle(5, clauses))


@pytest.mark.parametrize("algorithm", ["remus", "marco"])
def test_every_mus_is_down_blocked_by_the_witnesses_before_it(algorithm):
    # each member c of a MUS was proved critical by a satisfiable answer whose
    # blocked witness holds MUS - {c}, so the MUS itself needs no down-block
    rng = random.Random(1401)
    runs = [CnfOracle(num_vars, clauses) for num_vars, clauses in small_unsat_cnfs(15, 1402)]
    for _ in range(15):
        n = rng.randint(2, 8)
        runs.append(table_from_antichain(n, random_antichain(n, rng)))
    runs.append(CnfOracle(7, random_cnf(7, 30, 3, 12)))  # 90 MUSes, remus recurses
    for oracle in runs:
        result = RUNNERS[algorithm](oracle)
        assert result.complete
        muses = {mus.mask for mus in muses_of(result)}
        downs = []
        for kind, mask in result.block_log:
            if kind == "down":
                assert mask not in muses
                downs.append(mask)
                continue
            assert mask in muses
            members = [1 << i for i in range(oracle.n) if mask >> i & 1]
            assert all(any(mask & ~c & d == mask & ~c for d in downs) for c in members)


def test_stats_snapshots_are_monotone():
    for run in RUNNERS.values():
        snaps = run(parse_dimacs(EXAMPLE1_DIMACS)).records
        assert [s.ordinal for s in snaps] == list(range(1, len(snaps) + 1))
        for a, b in zip(snaps, snaps[1:]):
            assert a.elapsed_s <= b.elapsed_s
            assert a.oracle_checks <= b.oracle_checks
            assert a.map_solver_calls <= b.map_solver_calls


def test_elapsed_time_is_written_once():
    # the run's time is a figure of the run: it must not grow after the run ends
    for run in RUNNERS.values():
        result = run(parse_dimacs(EXAMPLE1_DIMACS))
        elapsed = result.elapsed_s
        assert elapsed >= result.records[-1].elapsed_s
        time.sleep(0.05)
        assert result.elapsed_s == elapsed
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.oracle_checks += 1


def test_stats_reconcile_with_oracle_and_map(monkeypatch):
    covered = record_covered_trials(monkeypatch)
    for name, run in RUNNERS.items():
        oracle = parse_dimacs(EXAMPLE1_DIMACS)
        oracle.is_sat(ConstraintSet.full(4))  # checks made before the run are not its own
        covered.clear()
        result = run(oracle)
        assert result.oracle_checks == oracle.checks - 1
        assert result.oracle_checks >= result.records[-1].oracle_checks
        assert result.map_solver_calls >= result.records[-1].map_solver_calls
        assert len(result.records) == 2
        # every covered trial that shrink reaches is counted once, and none of them is a check:
        # remus's second shrink has all three of its trials covered and makes no check
        assert result.covered_trials == {"remus": 3, "marco": 0}[name] <= len(covered)
        assert [record.shrink_checks for record in result.records] == {"remus": [1, 0], "marco": [1, 1]}[name]
        oracle.is_sat(ConstraintSet.full(4))  # the finished result does not move
        assert result.oracle_checks == oracle.checks - 2


def record_covered_trials(monkeypatch) -> list:
    """Collect every trial the map answers satisfiable from its down-blocks, in order.

    The map answers all of a working set's trials at once, so this holds
    the trials a shrink reached and those it proved critical otherwise.
    """
    covered = []
    covered_members = UnexploredMap.covered_members

    def recording(umap, work):
        members = covered_members(umap, work)
        covered.extend(ConstraintSet(umap.n, work & ~(1 << c)) for c in ConstraintSet(umap.n, members))
        return members

    monkeypatch.setattr(UnexploredMap, "covered_members", recording)
    return covered


@pytest.mark.parametrize("algorithm", ["remus", "marco"])
def test_covered_trials_are_satisfiable_and_spare_a_check(algorithm, monkeypatch):
    covered = record_covered_trials(monkeypatch)
    runs = small_unsat_cnfs(15, 1701)
    runs.append((7, random_cnf(7, 30, 3, 12)))  # 90 MUSes, remus recurses
    for num_vars, clauses in runs:
        covered.clear()
        oracle = CnfOracle(num_vars, clauses)
        result = RUNNERS[algorithm](oracle)
        assert result.complete and result.covered_trials <= len(covered)
        # each shrink makes one check per candidate it tries, less the covered
        # ones; rotation names the rest, so the checks are at most that
        tried = sum(len(record.seed - record.criticals) for record in result.records)
        assert sum(record.shrink_checks for record in result.records) <= tried - result.covered_trials
        fresh = CnfOracle(num_vars, clauses)
        assert all(fresh.is_sat(s) for s in covered)
    assert covered and result.covered_trials


@pytest.mark.parametrize("algorithm", ["remus", "marco"])
def test_shrink_matches_the_per_trial_reference(algorithm, monkeypatch):
    # the same runs with the map asked once per trial: every shrink must make
    # the same checks, covered trials, discoveries in order and MUS
    def run(num_vars, clauses, per_trial):
        calls = []

        def recording(oracle, seed, criticals, core, umap):
            checks, covered = oracle.checks, umap.covered_trials
            if per_trial:
                downs = [mask for kind, mask in umap.block_log if kind == "down"]

                def known_sat(trial):
                    inside = any(trial.mask & ~d == 0 for d in downs)
                    umap.covered_trials += inside
                    return inside

                mus, discoveries = per_trial_shrink(oracle, seed, criticals, core, known_sat)
            else:
                mus, discoveries = shrink(oracle, seed, criticals, core, umap)
            calls.append((mus, discoveries, oracle.checks - checks, umap.covered_trials - covered))
            return mus, discoveries

        monkeypatch.setattr(musenum.session, "shrink", recording)
        result = RUNNERS[algorithm](CnfOracle(num_vars, clauses))
        return calls, result.covered_trials, result.block_log

    covered = 0
    for num_vars, clauses in small_unsat_cnfs(25, 1903):
        calls, covered_trials, block_log = run(num_vars, clauses, per_trial=False)
        assert (calls, covered_trials, block_log) == run(num_vars, clauses, per_trial=True)
        assert covered_trials == sum(call[3] for call in calls)
        covered += covered_trials
    assert covered


def test_criticals_are_kept_and_sound():
    rng = random.Random(820)
    seen_nonempty_criticals = False
    for trial in range(40):
        n = rng.randint(2, 9)
        antichain = random_antichain(n, rng)
        oracle = table_from_antichain(n, antichain)
        result = enumerate_remus(oracle)
        verifier = table_from_antichain(n, antichain)
        for record in result.records:
            assert record.criticals.is_subset_of(record.seed)
            assert record.criticals.is_subset_of(record.mus)
            assert record.mus.is_subset_of(record.seed)
            for c in record.criticals:
                seen_nonempty_criticals = True
                assert verifier.is_sat(record.seed.remove(c))
    assert seen_nonempty_criticals


@pytest.mark.parametrize("algorithm, seed, tables, cnf_seed", [("remus", 821, 25, 824), ("marco", 912, 15, 913)])
def test_map_block_log_replays_soundly_against_the_oracle(algorithm, seed, tables, cnf_seed):
    # a table's witness is the query itself; a CNF formula's witness is the
    # clause set of a model, so its down-blocks reach beyond the queried sets
    rng = random.Random(seed)
    for trial in range(tables):
        n = rng.randint(2, 8)
        antichain = random_antichain(n, rng)
        result = RUNNERS[algorithm](table_from_antichain(n, antichain))
        assert_block_log_replays(result, table_from_antichain(n, antichain))
    for num_vars, clauses in small_unsat_cnfs(15, cnf_seed):
        result = RUNNERS[algorithm](CnfOracle(num_vars, clauses))
        assert_block_log_replays(result, CnfOracle(num_vars, clauses))


@pytest.mark.parametrize("algorithm", RUNNERS)
def test_block_log_replay_needs_every_up_block_of_a_complete_run(algorithm):
    # without a MUS's up-block nothing in the replayed log settles that MUS:
    # a down-block is satisfiable and another MUS does not lie inside it
    num_vars, clauses = small_unsat_cnfs(1, 824)[0]
    result = RUNNERS[algorithm](CnfOracle(num_vars, clauses))
    log = result.block_log
    ups = [i for i, (kind, _) in enumerate(log) if kind == "up"]
    assert result.complete and len(ups) >= 2
    for i in ups:
        dropped = dataclasses.replace(result, block_log=log[:i] + log[i + 1 :])
        with pytest.raises(AssertionError):
            assert_block_log_replays(dropped, CnfOracle(num_vars, clauses))


@pytest.mark.parametrize("seed", [12, 13, 19, 46, 52])
def test_remus_and_marco_agree_beyond_brute_force(seed):
    # 30 clauses put brute force out of reach; each of these has 90-442 MUSes
    clauses = random_cnf(7, 30, 3, seed)
    results = [run(CnfOracle(7, clauses)) for run in RUNNERS.values()]
    for result in results:
        assert result.complete
        assert_block_log_replays(result, CnfOracle(7, clauses))
    remus, marco = (set(muses_of(result)) for result in results)
    assert remus == marco and len(remus) == len(muses_of(results[0]))


def separable_cnf(seed: int):
    """(num_vars, clauses, exact MUS set) of a formula too large for brute force as a whole.

    The formula joins three unsatisfiable random 3-CNF parts of 12 clauses
    over 4 variables each, every part on its own variables, and ten
    distinct two-literal positive clauses over 5 fresh variables, which are
    satisfiable; the clauses are then shuffled. A MUS cannot span clauses
    that share no variable, nor hold a filler clause, so the MUSes are those
    of the parts, each found by brute force over its 12 clauses.
    """
    rng = random.Random(seed)
    tagged = []  # (clause, (part, index in the part), or None for a filler)
    part_muses = []
    while len(part_muses) < 3:
        clauses = random_cnf(4, 12, 3, rng.randrange(1 << 30))
        if CnfOracle(4, clauses).is_sat(ConstraintSet.full(12)):
            continue
        shift = 4 * len(part_muses)
        for i, clause in enumerate(clauses):
            tagged.append(([lit + shift if lit > 0 else lit - shift for lit in clause], (len(part_muses), i)))
        part_muses.append(bruteforce_all_muses(CnfOracle(4, clauses)))
    fresh = 4 * 3
    pairs = rng.sample([(a, b) for a in range(1, 6) for b in range(a + 1, 6)], 10)
    tagged += [([fresh + a, fresh + b], None) for a, b in pairs]
    rng.shuffle(tagged)
    position = {tag: k for k, (_, tag) in enumerate(tagged)}
    n = len(tagged)
    expected = {
        from_indices(n, [position[(part, i)] for i in mus])
        for part, muses in enumerate(part_muses)
        for mus in muses
    }
    return fresh + 5, [clause for clause, _ in tagged], expected


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_both_algorithms_finish_with_the_exact_muses_beyond_30_clauses(seed):
    num_vars, clauses, expected = separable_cnf(seed)
    assert len(clauses) == 46 and len(expected) >= 9
    for run in RUNNERS.values():
        result = run(CnfOracle(num_vars, clauses))
        assert result.complete
        assert set(muses_of(result)) == expected and len(muses_of(result)) == len(expected)
        assert_block_log_replays(result, CnfOracle(num_vars, clauses))


@pytest.mark.parametrize("algorithm, seed", [("remus", 822), ("marco", 910)])
def test_emitted_muses_match_bruteforce_on_random_corpora(algorithm, seed):
    rng = random.Random(seed)
    for trial in range(30):
        n = rng.randint(1, 8)
        antichain = random_antichain(n, rng)
        expected = {ConstraintSet(n, a) for a in antichain}
        result = RUNNERS[algorithm](table_from_antichain(n, antichain))
        assert set(muses_of(result)) == expected
        assert len(muses_of(result)) == len(expected)
        assert result.complete
        assert_block_log_replays(result, table_from_antichain(n, antichain))

    accepted = 0
    cnf_seed = 0
    while accepted < 20:
        cnf_seed += 1
        num_vars = rng.randint(2, 5)
        clauses = random_cnf(num_vars, rng.randint(3, 10), rng.choice([1, 2, 3]), seed=cnf_seed)
        oracle = CnfOracle(num_vars, clauses)
        if oracle.is_sat(ConstraintSet.full(oracle.n)):
            continue
        accepted += 1
        expected = bruteforce_all_muses(CnfOracle(num_vars, clauses))
        result = RUNNERS[algorithm](CnfOracle(num_vars, clauses))
        assert set(muses_of(result)) == expected
        assert result.complete
        assert_block_log_replays(result, CnfOracle(num_vars, clauses))


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


def test_runs_are_deterministic():
    rng = random.Random(823)
    for trial in range(10):
        n = rng.randint(2, 8)
        antichain = random_antichain(n, rng)
        for run in RUNNERS.values():
            first = run(table_from_antichain(n, antichain))
            second = run(table_from_antichain(n, antichain))
            assert [m.mask for m in muses_of(first)] == [m.mask for m in muses_of(second)]
            assert first.block_log == second.block_log
            assert first.oracle_checks == second.oracle_checks
