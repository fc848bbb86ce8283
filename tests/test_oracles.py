import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from musenum import (
    CnfOracle,
    ConstraintSet,
    DimacsParseError,
    PreconditionError,
    UnexploredMap,
    UniverseMismatchError,
    enumerate_remus,
    is_mus,
    parse_dimacs,
    shrink,
)
from musenum import satsolver
from musenum.oracles import random_cnf
from musenum.satsolver import SatSolver

from helpers import (
    EXAMPLE1_DIMACS,
    EXAMPLE1_MUSES,
    EXAMPLE1_STATUSES,
    MonotonicityError,
    TableOracle,
    assert_guards_lie_below_a_selector_literal,
    bitsets,
    bruteforce_all_muses,
    cs,
    example1_table,
    full_pass_rotate,
    muses_of,
    pigeonhole,
    small_unsat_cnfs,
    stored_clause,
    watched_clauses,
)


def test_parse_example1():
    oracle = parse_dimacs(EXAMPLE1_DIMACS)
    assert oracle.n == 4
    assert oracle.num_vars == 2
    assert oracle.clauses == [[1], [-1], [2], [-1, -2]]


def test_parse_single_unit_clause():
    oracle = parse_dimacs("p cnf 1 1\n1 0\n")
    assert oracle.n == 1
    assert oracle.is_sat(cs("1"))


def test_parse_accepts_bytes_comments_and_multiline_clauses():
    text = b"c comment\n\np cnf 3 2\n1 -2\n3 0 2 0\n"
    oracle = parse_dimacs(text)
    assert oracle.clauses == [[1, -2, 3], [2]]


def test_parse_stops_at_a_satlib_trailer():
    # SATLIB's uf*/uuf* files end with a '%' line, a '0' line and a blank line
    oracle = parse_dimacs("c uf3-01.cnf\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n%\n0\n\n")
    assert oracle.clauses == [[1, -2, 3], [-1, 2]]


def test_parse_empty_clause_is_a_constraint():
    oracle = parse_dimacs("p cnf 0 1\n0\n")
    assert oracle.n == 1
    assert not oracle.is_sat(cs("1"))
    assert oracle.is_sat(cs("0"))


@pytest.mark.parametrize(
    "text, line",
    [
        ("p cnf 3 3\n1 0\n2 0\n", 1),  # declared three clauses, file has two
        ("p cnf 2\n1 0\n", 1),  # malformed header
        ("p dnf 2 1\n1 0\n", 1),
        ("p cnf two 1\n1 0\n", 1),  # non-integer counts
        ("p cnf 2 -1\n", 1),  # negative counts
        ("1 0\n", 1),  # clause before header
        ("p cnf 2 1\n3 0\n", 2),  # literal out of range
        ("p cnf 2 1\n1 x 0\n", 2),  # non-integer token
        ("p cnf 2 1\n1 %\n0\n", 2),  # a '%' that does not begin its line
        ("p cnf 2 1\n1 2\n", 2),  # unterminated clause
        ("p cnf 2 1\np cnf 2 1\n1 0\n", 2),  # duplicate header
        ("", 1),  # missing header
    ],
)
def test_parse_errors_name_the_line(text, line):
    with pytest.raises(DimacsParseError) as err:
        parse_dimacs(text)
    assert err.value.line == line
    assert f"line {line}:" in str(err.value)


def test_example1_statuses_match_reference_table():
    oracle = parse_dimacs(EXAMPLE1_DIMACS)
    for bits, expected in EXAMPLE1_STATUSES.items():
        assert oracle.is_sat(cs(bits)) == expected, bits


def test_is_sat_examples():
    oracle = parse_dimacs(EXAMPLE1_DIMACS)
    assert not oracle.is_sat(cs("1100"))
    assert oracle.is_sat(ConstraintSet.empty(4))
    assert oracle.is_sat(cs("0111"))


def test_is_sat_counts_checks_and_rejects_wrong_universe():
    oracle = parse_dimacs(EXAMPLE1_DIMACS)
    assert oracle.checks == 0
    oracle.is_sat(cs("1000"))
    oracle.is_sat(cs("1100"))
    assert oracle.checks == 2
    with pytest.raises(UniverseMismatchError):
        oracle.is_sat(cs("110"))


def test_cnf_oracle_rejects_bad_literals():
    with pytest.raises(PreconditionError):
        CnfOracle(2, [[1], [3]])
    with pytest.raises(PreconditionError, match="variable 3, beyond num_vars=2"):
        CnfOracle(2, [[1], [-3, 2]])
    with pytest.raises(PreconditionError):
        CnfOracle(2, [[0]])


@pytest.mark.parametrize(
    "clauses, bad",
    [([[1.0]], "1.0"), ([["1"]], "'1'"), ([[True], [-1]], "True")],
    ids=["float", "str", "bool"],
)
def test_cnf_oracle_rejects_non_integer_literals(clauses, bad):
    # a float reached the solver, a string failed in abs(), True read as 1
    with pytest.raises(PreconditionError, match=f"literal {bad} "):
        CnfOracle(2, clauses)


@pytest.mark.parametrize("num_vars", [-1, 2.5, "3", True], ids=["negative", "float", "str", "bool"])
def test_cnf_oracle_rejects_a_bad_variable_count(num_vars):
    with pytest.raises(PreconditionError, match="num_vars"):
        CnfOracle(num_vars, [[]])


def test_declared_variables_no_clause_uses_cost_no_memory():
    # the solver is sized by the highest variable a clause uses; sized by the
    # header's 200,000 variables instead, this run traces a peak of about 52 MiB
    tracemalloc.start()
    try:
        oracle = parse_dimacs("p cnf 200000 2\n1 0\n-1 0\n")
        result = enumerate_remus(oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert muses_of(result) == [cs("11")] and oracle.num_vars == 200000
    assert peak < 1 << 20, peak


def test_unused_variables_change_no_run():
    # variables above the highest one a clause uses are in no clause
    for num_vars, clauses in small_unsat_cnfs(10, 2024):
        runs = [enumerate_remus(CnfOracle(declared, clauses)) for declared in (num_vars, num_vars + 30)]
        assert runs[0].complete and runs[1].complete
        assert [(r.mus, r.oracle_checks, r.map_solver_calls) for r in runs[0].records] == [
            (r.mus, r.oracle_checks, r.map_solver_calls) for r in runs[1].records
        ]
        assert runs[0].block_log == runs[1].block_log


def test_table_oracle_reproduces_example1():
    table = example1_table()
    for bits, expected in EXAMPLE1_STATUSES.items():
        assert table.is_sat(cs(bits)) == expected, bits
        # a table knows no larger satisfiable and no smaller unsatisfiable set
        assert table.witness == (cs(bits) if expected else None), bits
        assert table.core == (None if expected else cs(bits)), bits


def test_all_sat_table_is_valid():
    table = TableOracle([True] * 8)
    assert table.is_sat(ConstraintSet.full(3))


def test_monotonicity_violation_reports_witness():
    # 0100 unsat but its superset 1100 sat
    statuses = [True] * 16
    statuses[cs("0100").mask] = False
    with pytest.raises(MonotonicityError) as err:
        TableOracle(statuses)
    assert err.value.subset == cs("0100")
    assert err.value.superset.mask & cs("0100").mask == cs("0100").mask


def test_table_oracle_size_validation():
    with pytest.raises(PreconditionError):
        TableOracle([True, False, True])  # not a power of two
    with pytest.raises(PreconditionError):
        TableOracle([True])  # empty universe


def test_bruteforce_example1():
    assert bitsets(bruteforce_all_muses(parse_dimacs(EXAMPLE1_DIMACS))) == EXAMPLE1_MUSES


def test_bruteforce_satisfiable_instance_is_empty():
    assert bruteforce_all_muses(TableOracle([True] * 8)) == set()


def test_bruteforce_contradicting_pair():
    # two constraints x and not-x: every singleton sat, the pair unsat
    oracle = CnfOracle(1, [[1], [-1]])
    assert bitsets(bruteforce_all_muses(oracle)) == {"11"}


def test_bruteforce_cost_guard():
    class Huge:
        n = 21

    with pytest.raises(PreconditionError):
        bruteforce_all_muses(Huge())


def test_bruteforce_output_is_an_antichain():
    rng = random.Random(71)
    for trial in range(25):
        clauses = random_cnf(4, rng.randint(2, 9), rng.choice([1, 2, 3]), seed=trial)
        muses = list(bruteforce_all_muses(CnfOracle(4, clauses)))
        for i, a in enumerate(muses):
            for b in muses[i + 1:]:
                assert not a.is_subset_of(b) and not b.is_subset_of(a)


def test_selector_checks_agree_with_fresh_solves():
    # each formula is queried in ascending, descending and shuffled order on a
    # new oracle each time; the solver keeps its trail across the queries, and
    # each core is read from it.
    rng = random.Random(73)
    formulas = []
    for trial in range(15):
        num_vars = rng.randint(1, 5)
        formulas.append(
            (num_vars, random_cnf(num_vars, rng.randint(1, 8), rng.choice([2, 3]), seed=trial + 100))
        )
    formulas += [
        (3, [[1, 2], [], [-1], [2, 3]]),  # empty clause
        (3, [[1, -1], [-2], [2, 3], [-3, -1]]),  # tautological clause
        (3, [[1, 1, -2], [-1], [2, 2], [-3, 3, 1]]),  # repeated literals
        (6, [[2, -5], [-2], [5, 2], [-5]]),  # variables 1, 3, 4 and 6 in no clause
    ]
    for num_vars, clauses in formulas:
        n = len(clauses)
        expected = []
        for mask in range(1 << n):
            fresh = SatSolver(num_vars)
            for i in range(n):
                if mask >> i & 1:
                    fresh.add_clause(list(clauses[i]))
            expected.append(fresh.solve())
        shuffled = list(range(1 << n))
        rng.shuffle(shuffled)
        for order in (range(1 << n), range((1 << n) - 1, -1, -1), shuffled):
            oracle = CnfOracle(num_vars, clauses)
            for mask in order:
                sat = oracle.is_sat(ConstraintSet(n, mask))
                assert sat == expected[mask], (clauses, mask)
                # an UNSAT answer's core lies inside the query and is UNSAT
                core = oracle.core
                assert (core is None) == sat
                assert sat or (core.mask & mask == core.mask and not expected[core.mask])


def test_every_check_is_one_solve_with_a_fresh_oracles_witness(monkeypatch):
    oracle = CnfOracle(3, [[1, 2], [-1], [-2, 3], [-3]])
    solves = []
    solve = oracle._solver.solve
    monkeypatch.setattr(
        oracle._solver, "solve", lambda *query: solves.append(1) or solve(*query)
    )
    # 1100, 0110, 0010 and 0000 lie inside 1110's witness, and are solved
    # anyway: each gets the first model in branching order of its own clauses
    witnesses = []
    for bits in ("1110", "1100", "0110", "0010", "0000", "1110"):
        assert oracle.is_sat(cs(bits))
        fresh = CnfOracle(3, oracle.clauses)
        assert fresh.is_sat(cs(bits)) and oracle.witness == fresh.witness
        witnesses.append(oracle.witness.bits())
    assert witnesses == ["1110", "1101", "0111", "0111", "0111", "1110"]
    assert (oracle.checks, len(solves)) == (6, 6)
    assert not oracle.is_sat(cs("1111"))
    assert (oracle.checks, len(solves)) == (7, 7)
    assert oracle.witness is None


def test_rotation_right_after_an_unsat_answer_raises():
    # there is no model to rotate; a stale one from an earlier SAT answer
    # would name constraints on the strength of a different query
    oracle = parse_dimacs(EXAMPLE1_DIMACS)
    assert oracle.is_sat(cs("1000"))
    assert not oracle.is_sat(cs("1100"))
    with pytest.raises(RuntimeError):
        oracle.rotate(cs("1100"), 1)
    assert oracle.checks == 2


def test_rotation_after_a_repeated_answer_starts_from_its_model():
    oracle = parse_dimacs(EXAMPLE1_DIMACS)
    assert oracle.is_sat(cs("1000"))  # a true, b false satisfies 1001
    assert oracle.is_sat(cs("0110"))  # a false, b true satisfies 0111
    assert oracle.is_sat(cs("1000"))  # solved again, to the same first model
    assert oracle.witness == cs("1001")
    # a true, b false falsifies only c2 of 1100; flipping a falsifies only c1,
    # and a false, b false satisfies c2 and c4; flipping b then satisfies c3
    # and falsifies nothing, so the witness grows to 0111
    assert oracle.rotate(cs("1100"), 1) == [cs("0111")]
    assert oracle.checks == 3


def test_a_witness_that_misses_a_clause_raises():
    # corrupted occurrence masks: variable a no longer satisfies c1 when true,
    # so the clause count of the model a true, b false misses c1
    oracle = parse_dimacs(EXAMPLE1_DIMACS)
    oracle._occurrences()[0][0] &= ~1
    with pytest.raises(RuntimeError):
        oracle.is_sat(cs("1000"))
    # a model is found and counted right, then the masks rotation flips with
    # are corrupted: flipping a to false no longer satisfies c2, so the
    # rotated witness misses a clause of work - {c1}
    oracle = parse_dimacs(EXAMPLE1_DIMACS)
    assert oracle.is_sat(cs("1000"))
    oracle._occurrences()[0][1] &= ~2
    with pytest.raises(RuntimeError):
        oracle.rotate(cs("1100"), 1)


@st.composite
def cnf_and_queries(draw):
    num_vars = draw(st.integers(1, 6))
    literal = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=3), min_size=1, max_size=10))
    n = len(clauses)
    # (mask, None) queries the mask; (mask, k) queries a MUS grown from it
    # without its k-th member, a satisfiable set one constraint short of an
    # unsatisfiable one, which is where rotation starts
    query = st.tuples(st.integers(0, (1 << n) - 1), st.none() | st.integers(0, n - 1))
    return num_vars, clauses, draw(st.lists(query, min_size=4, max_size=40))


def one_short_of_a_mus(mask, k, n, is_sat):
    """A MUS inside mask (or inside all n constraints if mask is satisfiable) without its k-th member."""
    work = mask if not is_sat(mask) else (1 << n) - 1
    if is_sat(work):
        return mask  # the formula is satisfiable
    for i in range(n):
        if work >> i & 1 and not is_sat(work & ~(1 << i)):
            work &= ~(1 << i)
    members = [i for i in range(n) if work >> i & 1]
    return work & ~(1 << members[k % len(members)])


# clauses are non-empty and examples many, so that UNSAT queries fail above
# decision level 0 (about 120 do) and reach the solver's core analysis; about
# half the queries are one constraint short of a MUS, so that rotation runs
# (about 500 rotate calls)
@settings(deadline=None, derandomize=True, max_examples=300)
@given(cnf_and_queries())
def test_cnf_oracle_answers_match_truth_tables(case):
    num_vars, clauses, queries = case
    n = len(clauses)
    satisfied = set()  # clause masks satisfied by some assignment
    for assignment in range(1 << num_vars):
        satisfied.add(sum(
            1 << i for i, cl in enumerate(clauses)
            if any((assignment >> (abs(lit) - 1) & 1) == (lit > 0) for lit in cl)
        ))
    def is_sat(m):
        return any(m & sat == m for sat in satisfied)

    oracle = CnfOracle(num_vars, clauses)
    table = TableOracle([is_sat(m) for m in range(1 << n)])
    for mask, k in queries:
        if k is not None:
            mask = one_short_of_a_mus(mask, k, n, is_sat)
        truth = is_sat(mask)
        assert oracle.is_sat(ConstraintSet(n, mask)) == truth
        assert table.is_sat(ConstraintSet(n, mask)) == truth
        # the witness is a satisfiable superset of a satisfiable query, else
        # None; the core is an unsatisfiable subset of an unsatisfiable one
        witness, core = oracle.witness, oracle.core
        if not truth:
            assert witness is None
            assert core.n == n and core.mask & mask == core.mask
            assert not is_sat(core.mask)
            continue
        assert core is None
        assert witness.n == n and mask & witness.mask == mask
        assert is_sat(witness.mask)
        # the query is work - {c} for each c whose addition makes it UNSAT; every
        # set that rotation returns is satisfiable and holds all of work but
        # one constraint d other than c, which is then critical for work, and
        # it grows by free flips from the clause set of the flipped model
        for c in range(n):
            work = mask | 1 << c
            if work == mask or is_sat(work):
                continue
            assert table.rotate(ConstraintSet(n, work), c) == []
            sets = oracle.rotate(ConstraintSet(n, work), c)
            for rotated in sets:
                lacks = work & ~rotated.mask
                assert rotated.n == n and lacks and not lacks & (lacks - 1) and not lacks >> c & 1
                assert is_sat(rotated.mask)
            # every witness is the flipped model's clause set or grows from it
            reference = full_pass_rotate(oracle, ConstraintSet(n, work), c)
            for grown, (d, flipped, _) in zip(sets, reference, strict=True):
                assert work & ~grown.mask == 1 << d and flipped.is_subset_of(grown) and is_sat(grown.mask)
    assert oracle.checks == len(queries)


def rotation_formulas(count):
    """PHP(5,4) and random CNFs whose clauses hold 0-8 literals drawn with repetition.

    A long clause can have four or more true variables, so its count needs a
    third bit plane; the oracle's solver tries false first, so literals are
    mostly negative, which keeps such counts common. Repeated draws make
    tautologies and repeated literals, and width 0 makes empty clauses.
    """
    formulas = [pigeonhole(4)]
    rng = random.Random(75)
    while len(formulas) < count:
        num_vars = rng.randint(4, 8)
        clauses = [
            [rng.randint(1, num_vars) * (-1 if rng.random() < 0.7 else 1) for _ in range(rng.choice((0, 1, 2, 2, 3, 3, 5, 8)))]
            for _ in range(rng.randint(6, 14))
        ]
        formulas.append((num_vars, clauses))
    return formulas


def test_rotation_matches_the_full_pass_reference():
    # every critical constraint c of an unsatisfiable work set, once answered
    # SAT without c, rotates from that answer's model; the counts reach four
    # true variables in one clause
    calls = named = grew = most_true = 0
    for num_vars, clauses in rotation_formulas(600):
        n = len(clauses)
        oracle = CnfOracle(num_vars, clauses)
        rng = random.Random(n)
        works = [ConstraintSet.full(n)] + [ConstraintSet(n, rng.getrandbits(n)) for _ in range(12)]
        for work in works:
            if oracle.is_sat(work):
                continue
            for c in work:
                if not oracle.is_sat(work.remove(c)):
                    continue
                model = oracle._solver.model_mask
                most_true = max(
                    most_true,
                    *(len({abs(lit) for lit in cl if (model >> (abs(lit) - 1) & 1) == (lit > 0)}) for cl in clauses),
                )
                sets = oracle.rotate(work, c)
                reference = full_pass_rotate(oracle, work, c)
                # each set lacks the one member of work that the reference reached
                assert [(work - s, s) for s in sets] == [
                    (ConstraintSet(n, 1 << d), grown) for d, _, grown in reference
                ], (clauses, work, c)
                calls += 1
                named += len(sets)
                grew += sum(grown != flipped for _, flipped, grown in reference)
    assert calls > 1500 and named > 1200 and grew > 40 and most_true >= 4


def test_shrink_returns_each_distinct_satisfiable_set_once_in_the_order_first_met():
    # rotation passes through clauses already proved critical and returns a
    # witness for each; on PHP(5,4) some of those repeat an earlier witness,
    # and shrink holds only the first of each
    num_vars, clauses = rotation_formulas(1)[0]
    n = len(clauses)
    oracle = CnfOracle(num_vars, clauses)
    returned = []
    is_sat, rotate = oracle.is_sat, oracle.rotate

    def recording_is_sat(s):
        sat = is_sat(s)
        if sat:
            returned.append(oracle.witness.mask)
        return sat

    def recording_rotate(*args):
        sets = rotate(*args)
        returned.extend(witness.mask for witness in sets)
        return sets

    oracle.is_sat, oracle.rotate = recording_is_sat, recording_rotate
    seed = ConstraintSet.full(n)
    mus, found = shrink(oracle, seed, ConstraintSet.empty(n), seed, UnexploredMap(n))
    assert mus == seed
    assert [s.mask for s in found] == list(dict.fromkeys(returned))
    assert len(found) == n < len(returned)


def guarded_formulas(count):
    """PHP(4,3), PHP(5,4) and unsatisfiable random 3-CNFs with 8-10 variables and 40-60 clauses.

    Their UNSAT proofs learn clauses over many selectors, which the solver
    keeps in guards.
    """
    formulas = [pigeonhole(3), pigeonhole(4)]
    rng = random.Random(74)
    while len(formulas) < count:
        num_vars = rng.randint(8, 10)
        clauses = random_cnf(num_vars, rng.randint(40, 60), 3, rng.randrange(1 << 30))
        if not CnfOracle(num_vars, clauses).is_sat(ConstraintSet.full(len(clauses))):
            formulas.append((num_vars, clauses))
    return formulas


GUARDED_FORMULAS = guarded_formulas(12)


def answer_like_fresh_oracles(num_vars, clauses, seed) -> int:
    """Drive one oracle through shrink-shaped and seeded random queries; returns the guards it made.

    The shrink-shaped queries are the full set, then the full set without
    each constraint in turn. Every answer must match a fresh oracle's.
    """
    n = len(clauses)
    full = (1 << n) - 1
    rng = random.Random(seed)
    queries = [full] + [full & ~(1 << i) for i in range(n)]
    for _ in range(60):
        keep = rng.choice((0.5, 0.8, 0.95))
        queries.append(sum(1 << i for i in range(n) if rng.random() < keep))
    oracle = CnfOracle(num_vars, clauses)
    guards = set()
    for mask in queries:
        query = ConstraintSet(n, mask)
        sat = oracle.is_sat(query)
        guards.update(id(clause) for clause in watched_clauses(oracle._solver) if stored_clause(clause)[1])
        assert_guards_lie_below_a_selector_literal(oracle._solver)
        fresh = CnfOracle(num_vars, clauses)
        assert fresh.is_sat(query) == sat, mask
        if sat:
            # the witness comes from the first model in branching order, which
            # learnt clauses do not move
            assert oracle.witness == fresh.witness, mask
            continue
        # the core is the solver's mask of failed selectors as it comes
        assert oracle._solver.failed_selectors() == oracle.core.mask
        assert oracle.core.is_subset_of(query)
        assert not CnfOracle(num_vars, clauses).is_sat(oracle.core), mask
    return len(guards)


# GUARD_MIN 4 keeps about nine times the guards of the default 16 on these
# formulas, and parks and empties more of them
@pytest.mark.parametrize(
    "formula, guard_min",
    [pytest.param(k, 16, id=str(k)) for k in range(len(GUARDED_FORMULAS))]
    + [pytest.param(k, 4, id=f"{k}-guard_min=4") for k in range(len(GUARDED_FORMULAS))],
)
def test_factored_learnts_keep_every_answer(formula, guard_min, monkeypatch):
    monkeypatch.setattr(satsolver, "GUARD_MIN", guard_min)
    num_vars, clauses = GUARDED_FORMULAS[formula]
    answer_like_fresh_oracles(num_vars, clauses, formula)


def test_factored_learnts_are_exercised():
    # a run that never kept a guard would check nothing
    guards = [answer_like_fresh_oracles(*f, k) for k, f in enumerate(GUARDED_FORMULAS)]
    assert sum(guards) >= 40 and sum(1 for g in guards if g) >= len(guards) // 2


def test_is_mus_predicate():
    oracle = example1_table()
    assert is_mus(oracle, cs("1100"))
    assert is_mus(oracle, cs("1011"))
    assert not is_mus(oracle, cs("1111"))  # unsat but not minimal
    assert not is_mus(oracle, cs("1010"))  # satisfiable
