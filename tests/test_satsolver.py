import hashlib
import itertools
import random
import time

import pytest

from musenum import CnfOracle, ConstraintSet, RemusConfig, enumerate_remus
from musenum.oracles import random_cnf
from musenum.satsolver import SatSolver

from helpers import (
    RECORDED,
    assert_guards_lie_below_a_selector_literal,
    literal,
    pigeonhole,
    stored_clause,
    watched_clauses,
)


def brute_force_first_model(num_vars, clauses, assumptions):
    """First model in branching order (variable 1 first, false before true), or None: tries every assignment."""
    fixed = {abs(lit): lit > 0 for lit in assumptions}
    for bits in itertools.product([False, True], repeat=num_vars):
        if any(bits[v - 1] != want for v, want in fixed.items()):
            continue
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in cl) for cl in clauses):
            return sum(1 << v for v in range(num_vars) if bits[v])
    return None


def model_satisfies(mask, num_vars, clauses, assumptions):
    for lit in assumptions:
        if bool(mask >> (abs(lit) - 1) & 1) != (lit > 0):
            return False
    return all(
        any(bool(mask >> (abs(lit) - 1) & 1) == (lit > 0) for lit in cl)
        for cl in clauses
    )


def mask_of(variables) -> int:
    """The assumption mask that assumes each of the variables true."""
    return sum(1 << (v - 1) for v in set(variables))


def random_clause(rng, num_vars):
    width = rng.randint(1, min(3, num_vars))
    variables = rng.sample(range(1, num_vars + 1), width)
    return [v if rng.random() < 0.5 else -v for v in variables]


def test_agrees_with_brute_force_incrementally():
    rng = random.Random(2024)
    for _ in range(600):
        num_vars = rng.randint(1, 7)
        clauses = [random_clause(rng, num_vars) for _ in range(rng.randint(0, 16))]
        solver = SatSolver(num_vars)
        for cl in clauses:
            solver.add_clause(list(cl))
        for _ in range(3):
            assumptions = rng.sample(range(1, num_vars + 1), rng.randint(0, num_vars))
            got = solver.solve(mask_of(assumptions))
            assert got == (brute_force_first_model(num_vars, clauses, assumptions) is not None)
            if got:
                assert model_satisfies(solver.model_mask, num_vars, clauses, assumptions)
            if rng.random() < 0.7:
                extra = random_clause(rng, num_vars)
                clauses.append(extra)
                solver.add_clause(list(extra))


def false_literals(solver, num_vars):
    """The literals over variables 1..num_vars that the solver's kept trail makes false: v, then -v."""
    return [literal(code) for code in range(2, 2 * num_vars + 2) if solver._val[code] == -1]


def clause_against_trail(rng, solver, num_vars):
    """A clause that is unit or fully falsified under the solver's kept trail."""
    false_lits = false_literals(solver, num_vars)
    clause = rng.sample(false_lits, rng.randint(0, min(3, len(false_lits))))
    free = [v for v in range(1, num_vars + 1) if solver._val[2 * v] == 0]
    if free and (not clause or rng.random() < 0.5):
        clause.append(rng.choice(free) * rng.choice((1, -1)))
    rng.shuffle(clause)
    return clause


def selector_formula(rng, num_vars, count):
    """A solver over `count` random clauses, clause i switched on by selector i, and the clauses."""
    clauses = [random_clause(rng, num_vars) for _ in range(count)]
    solver = SatSolver(num_vars, selectors=count)
    for i, cl in enumerate(clauses):
        solver.add_clause(cl + [-(num_vars + 1 + i)])
    return solver, clauses


def switched_on(clauses, mask):
    return [cl for i, cl in enumerate(clauses) if mask >> i & 1]


def test_kept_trail_returns_the_first_model_in_branching_order():
    # clause i of the formula is switched on by selector i; clauses added
    # later against the kept trail are always on
    rng = random.Random(7)
    kept_trail_clauses = 0
    cores = smaller = 0
    for _ in range(500):
        num_vars = rng.randint(1, 8)
        count = rng.randint(0, 12)
        solver, clauses = selector_formula(rng, num_vars, count)
        added = []
        selected = (1 << count) - 1
        variables = list(range(1, num_vars + 1))
        for _ in range(6):
            if not solver.ok:
                break
            # change a random suffix of the selectors and of the variables, and
            # assume a prefix of the variables true, so consecutive calls share
            # a prefix
            cut = rng.randint(0, count)
            selected ^= rng.getrandbits(count - cut) << cut
            cut = rng.randint(0, num_vars)
            tail = variables[cut:]
            rng.shuffle(tail)
            variables[cut:] = tail
            assumptions = variables[: rng.randint(0, num_vars)]
            on = switched_on(clauses, selected) + added
            want = brute_force_first_model(num_vars, on, assumptions)
            assert solver.solve(mask_of(assumptions) | selected << num_vars) == (want is not None)
            if want is not None:
                assert solver.model_mask == want
            else:
                # the clauses the failed selectors switch on, with the added
                # clauses, are unsatisfiable under the plain assumptions
                failed = solver.failed_selectors()
                assert failed & ~selected == 0
                assert brute_force_first_model(num_vars, switched_on(clauses, failed) + added, assumptions) is None
                cores += 1
                smaller += failed.bit_count() < selected.bit_count()
            extra = clause_against_trail(rng, solver, num_vars)
            kept_trail_clauses += not set(extra).isdisjoint(false_literals(solver, num_vars))
            added.append(extra)
            solver.add_clause(list(extra))
    assert kept_trail_clauses > 300
    assert cores > 300 and smaller > 250


def test_failed_selectors_with_plain_assumptions():
    # the plain assumptions are not named, and may be the one found false
    rng = random.Random(12)
    cores = plain_false = 0
    for _ in range(400):
        num_vars = rng.randint(1, 6)
        count = rng.randint(1, 10)
        solver, clauses = selector_formula(rng, num_vars, count)
        for _ in range(4):
            selected = rng.getrandbits(count)
            assumptions = rng.sample(range(1, num_vars + 1), rng.randint(1, num_vars))
            if solver.solve(mask_of(assumptions) | selected << num_vars):
                continue
            failed = solver.failed_selectors()
            assert failed & ~selected == 0
            assert brute_force_first_model(num_vars, switched_on(clauses, failed), assumptions) is None
            cores += 1
            plain_false += abs(literal(solver._failed)) <= num_vars
    assert cores > 300 and plain_false > 100


def test_a_repeated_assumption_list_answers_like_a_fresh_solver():
    # a SAT answer leaves the model's branch levels on the trail; a clause
    # added before the same assumptions are solved again keeps them, or cuts
    # them back until two of its literals are free, and the next model must
    # still be the first in branching order
    rng = random.Random(11)
    kept_branches = 0
    for _ in range(400):
        num_vars = rng.randint(2, 8)
        clauses = [random_clause(rng, num_vars) for _ in range(rng.randint(0, 10))]
        solver = SatSolver(num_vars)
        for cl in clauses:
            solver.add_clause(list(cl))
        assumptions = rng.sample(range(1, num_vars + 1), rng.randint(0, num_vars // 2))
        if not solver.solve(mask_of(assumptions)):
            continue
        model = solver.model_mask
        true_lits = [v if model >> (v - 1) & 1 else -v for v in range(1, num_vars + 1)]
        picked = rng.sample(true_lits, rng.randint(1, min(3, num_vars)))
        extra = [lit if rng.random() < 0.5 else -lit for lit in picked]
        clauses.append(extra)
        solver.add_clause(list(extra))
        kept_branches += len(solver._lim) > len(assumptions)  # a branch level survived the clause
        fresh = SatSolver(num_vars)
        for cl in clauses:
            fresh.add_clause(list(cl))
        sat = solver.solve(mask_of(assumptions))
        assert sat == fresh.solve(mask_of(assumptions))
        if sat:
            assert solver.model_mask == fresh.model_mask
            assert model_satisfies(solver.model_mask, num_vars, clauses, assumptions)
    assert kept_branches > 80


def test_branching_tries_false_first():
    solver = SatSolver(5)
    assert solver.solve() and solver.model_mask == 0
    solver.add_clause([2, 4])  # variable 2 is tried false first, so 4 satisfies the clause
    assert solver.solve() and solver.model_mask == 0b01000
    assert solver.solve(0b00010) and solver.model_mask == 0b00010  # 2 assumed true, so 4 stays false


def test_empty_clause_is_permanent_unsat():
    solver = SatSolver(3)
    solver.add_clause([])
    assert not solver.solve(0b1)
    assert not solver.ok
    assert solver.failed_selectors() == 0


def test_tautology_and_duplicate_literals():
    solver = SatSolver(2)
    solver.add_clause([1, -1])  # dropped
    solver.add_clause([-2, -2])  # collapses to unit
    assert solver.solve(0b01)
    assert not solver.solve(0b10)


def test_contradicting_units():
    solver = SatSolver(1)
    solver.add_clause([1])
    solver.add_clause([-1])
    assert not solver.solve()
    assert not solver.ok


def test_assumption_against_level0_unit_is_recoverable():
    solver = SatSolver(2)
    solver.add_clause([-1])
    assert not solver.solve(0b1)
    assert solver.ok  # only unsat under those assumptions
    assert solver.solve()


def test_zero_variables():
    solver = SatSolver(0)
    assert solver.solve()
    assert solver.model_mask == 0


def test_branching_cost_is_linear_in_the_variable_count():
    # each decision takes the lowest free variable; scanning for it from
    # variable 1 every time made one model of 20,000 variables take about 3 s
    solver = SatSolver(20000)
    solver.add_clause([1, 2])
    began = time.perf_counter()
    assert solver.solve() and solver.model_mask == 0b10
    assert solver.solve(1 << 19999) and solver.model_mask == 1 << 19999 | 0b10
    assert time.perf_counter() - began < 1.0


def test_literal_range_checked():
    solver = SatSolver(2)
    for bad in (3, -3, 0):
        with pytest.raises(ValueError, match=f"literal {bad} out of range"):
            solver.add_clause([1, -2, bad])
    assert solver.solve(0b11) and solver.model_mask == 0b11  # no clause was added


def test_a_dropped_clause_is_range_checked_too():
    # a tautology, a clause true at level 0 and any clause of an unsatisfiable
    # solver are dropped, each only once every literal names a variable
    solver = SatSolver(2)
    for clause in ([1, -1, 5], [1, -1, 0]):
        with pytest.raises(ValueError, match="out of range"):
            solver.add_clause(clause)
    solver.add_clause([1])
    with pytest.raises(ValueError, match="literal 7 out of range"):
        solver.add_clause([1, 7])
    solver.add_clause([-1])
    assert not solver.ok
    with pytest.raises(ValueError, match="literal 3 out of range"):
        solver.add_clause([3])


def test_assumption_mask_range_checked():
    # a bit beyond the last variable names none, and a negative mask has
    # endless set bits; both are refused before the kept trail changes
    solver = SatSolver(3)
    solver.add_clause([1, 2])
    assert solver.solve(0b100)
    for unsat in (False, True):
        if unsat:  # refused on an unsatisfiable solver too
            solver.add_clause([-1])
            solver.add_clause([-2])
            assert not solver.ok
        trail, assumed = list(solver._trail), list(solver._assumed)
        for bad in (1 << 3, 0b1101, -1, -8):
            with pytest.raises(ValueError, match="out of range"):
                solver.solve(bad)
            assert (solver._trail, solver._assumed) == (trail, assumed)


def test_plain_assumptions_keep_the_previous_order():
    # the previous call's plain assumptions come first while their bits stay
    # set, so a call that assumes more keeps the levels the two share; sorting
    # each mask afresh would put 2 before 5 and undo level 1
    solver = SatSolver(8)
    solver.add_clause([1, 3])
    solver.add_clause([-2, 4, -7])
    assert solver.solve(mask_of([5])) and list(map(literal, solver._assumed)) == [5]
    assert solver.solve(mask_of([2, 5])) and list(map(literal, solver._assumed)) == [5, 2]
    levels = []
    backtrack = solver._backtrack
    solver._backtrack = lambda level: levels.append(level) or backtrack(level)
    assert solver.solve(mask_of([2, 5, 7])) and list(map(literal, solver._assumed)) == [5, 2, 7]
    assert levels and min(levels) >= 2


def test_the_kept_trail_spares_the_maps_propagations(monkeypatch):
    # remus's map propagated 7,866 literals here with the kept trail, and
    # 13,635 when every solve and every added clause started at level 0
    propagated = 0
    propagate = SatSolver._propagate

    def counting(solver):
        nonlocal propagated
        head = solver._qhead
        conflict = propagate(solver)
        if solver._selector > solver.num_vars:  # the map's solver has no selectors
            propagated += solver._qhead - head
        return conflict

    monkeypatch.setattr(SatSolver, "_propagate", counting)
    enumerate_remus(CnfOracle(48, random_cnf(48, 220, 3, 1)), RemusConfig(check_limit=400))
    assert 0 < propagated < 10_000


def test_selector_mask_range_checked():
    # a bit at or beyond the selector count names no selector; the kept
    # trail is left as the last solve left it
    solver = SatSolver(1, selectors=1)
    solver.add_clause([1, -2])
    assert solver.solve(0b10) and solver.model_mask == 1
    trail, assumed = list(solver._trail), list(solver._assumed)
    for bad in (0b100, 0b110, -1):
        with pytest.raises(ValueError, match="out of range"):
            solver.solve(bad)
        assert (solver._trail, solver._assumed) == (trail, assumed)
    with pytest.raises(ValueError, match="out of range"):
        SatSolver(2).solve(0b100)
    solver.add_clause([])  # refused on an unsatisfiable solver too
    for bad in (0b100, -1):
        with pytest.raises(ValueError, match="out of range"):
            solver.solve(bad)


def test_model_unavailable_after_unsat():
    solver = SatSolver(1, selectors=1)
    solver.add_clause([-1])
    solver.add_clause([1, -2])  # selector 0 switches on the clause x1
    assert not solver.solve(0b01)
    with pytest.raises(RuntimeError):
        _ = solver.model_mask
    assert solver.failed_selectors() == 0  # a plain assumption is never named
    assert not solver.solve(0b10)
    assert solver.failed_selectors() == 1  # refuted by level-0 units
    assert solver.solve()
    with pytest.raises(RuntimeError):
        solver.failed_selectors()


def digest(rows) -> str:
    return hashlib.sha256(";".join(" ".join(map(str, row)) for row in rows).encode()).hexdigest()[:16]


RECORDED_RUNS = ["derivation pigeonhole-5", "derivation pigeonhole-6"]


def figures(name: str) -> dict:
    """The full-set proof of PHP(holes + 1, holes) with seeded variable names,
    then the full set without each clause in turn, as a shrink without
    rotation asks: the learnt clauses, how many formed a guard, and sha256
    prefixes of the learnt clauses and of the cores.

    A change to the order in which the solver visits watches or decides
    assumptions moves these figures. With the canonical names the proof
    branches in an order so regular that moving watches leaves it unchanged;
    seeded names make it depend on them.
    """
    holes = int(name.rsplit("-", 1)[1])
    learnts = []
    analyze = SatSolver._analyze

    def recording(self, conflict):
        learnt, back_level = analyze(self, conflict)
        learnts.append((learnt, stored_clause(learnt)[1] != 0))
        return learnt, back_level

    num_vars, clauses = pigeonhole(holes)
    names = list(range(1, num_vars + 1))
    random.Random(holes).shuffle(names)
    clauses = [[names[abs(lit) - 1] if lit > 0 else -names[abs(lit) - 1] for lit in clause] for clause in clauses]
    full = ConstraintSet.full(len(clauses))
    cores = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SatSolver, "_analyze", recording)
        oracle = CnfOracle(num_vars, clauses)
        for query in [full] + [full.remove(i) for i in full]:
            if not oracle.is_sat(query):
                cores.append(oracle.core.indices_1based())
    # a learnt clause means its literals or the negation of a guard selector;
    # parking moves selectors from the guard to the literals, so the union of
    # the two stays the clause
    unions = []
    for learnt, _ in learnts:
        literals, guard = stored_clause(learnt)
        unions.append(sorted(literals + [-(num_vars + 1 + i) for i in ConstraintSet(len(clauses), guard)]))
    formed = sum(guarded for _, guarded in learnts)
    return {"learnts": len(learnts), "guarded": formed, "clauses": digest(unions), "cores": digest(cores)}


@pytest.mark.parametrize("name", RECORDED_RUNS, ids=["5", "6"])
def test_derivation_matches_the_recorded_one(name):
    derivation = figures(name)
    assert derivation["guarded"] >= 1
    assert derivation == RECORDED[name]


def chain_solver_queries():
    """Steps over a chain of implications x1 -> x2 -> ... -> x8 under selectors 11..20.

    Selector 11 + i enables link i: x1, then x_i -> x_(i+1), then not x8;
    link 9, added later, is x10 -> x9. Each implied literal has one clause
    that can imply it, and the one conflict (x10 implies x9 and, once
    [-10, -9] is added, not x9) teaches [-10, -20], which implies nothing
    else; so the failed selectors of an UNSAT answer are the same for any
    solver holding these clauses. Each query is one assumption mask:
    consecutive selector masks differ at the first, a middle and the last
    selector; clauses are added between them, and some queries also assume
    plain variables true that the links make false.
    """
    clauses = [[1, -11]] + [[-i, i + 1, -(11 + i)] for i in range(1, 8)] + [[-8, -19]]
    every = (1 << 10) - 1

    def query(selected, *plain):
        return selected << 10 | sum(1 << (v - 1) for v in plain)

    steps = [("solve", query(every))]
    for bit in (0, 4, 9, 4, 0, 9):  # a SAT answer when a link is missing, else UNSAT
        steps.append(("solve", steps[-1][1] ^ 1 << (10 + bit)))
    steps += [
        ("add", [9, -10, -20]),
        ("solve", query(every & ~(1 << 8), 10)),  # x10 implies x9
        ("solve", query(every & ~(1 << 8), 10, 3)),
        ("solve", query(0b111100000, 5)),  # links 5..8 make x5 false
        ("solve", query(0b111100000 & ~(1 << 6), 5, 7)),  # links 7..8 make x7 false
        ("add", [-10, -9]),
        ("solve", query(every & ~(1 << 8), 10, 9)),
        ("solve", query(1 << 9, 10)),
        ("solve", query(every)),
        ("solve", query(0, 8)),
    ]
    return clauses, steps


def test_reused_assumptions_answer_like_a_fresh_solver():
    clauses, steps = chain_solver_queries()
    solver = SatSolver(10, selectors=10)
    for clause in clauses:
        solver.add_clause(list(clause))
    answers = []
    plain_false = 0
    for step in steps:
        if step[0] == "add":
            clauses.append(step[1])
            solver.add_clause(list(step[1]))
            continue
        _, assumed = step
        fresh = SatSolver(10, selectors=10)
        for clause in clauses:
            fresh.add_clause(list(clause))
        sat = solver.solve(assumed)
        assert sat == fresh.solve(assumed), step
        if sat:
            assert solver.model_mask == fresh.model_mask, step
        else:
            assert solver.failed_selectors() == fresh.failed_selectors(), step
            plain_false += 0 < literal(solver._failed) <= 10
        answers.append(sat)
    assert True in answers and False in answers and plain_false >= 2
    # an out-of-range mask is refused before the kept trail changes
    for bad in (1 << 20, -1):
        with pytest.raises(ValueError, match="out of range"):
            solver.solve(bad)
    assert not solver.solve(((1 << 10) - 1) << 10)



def test_literal_codes_stay_in_range_and_guards_in_slot_0():
    # the shrink-shaped queries of an UNSAT proof, then random subsets; every
    # code a clause, the trail or the assumptions store is 2v or 2v + 1 for a
    # variable v of the solver, and slot 0 of a clause is its guard
    rng = random.Random(30)
    guarded = 0
    for holes in (4, 5):
        num_vars, clauses = pigeonhole(holes)
        oracle = CnfOracle(num_vars, clauses)
        solver = oracle._solver
        top = 2 * solver.num_vars + 1
        full = ConstraintSet.full(len(clauses))
        queries = [full] + [full.remove(i) for i in full]
        for _ in range(40):  # about three quarters of the clauses each
            queries.append(ConstraintSet(full.n, rng.getrandbits(full.n) | rng.getrandbits(full.n)))
        for query in queries:
            oracle.is_sat(query)
            stored = [clause[1:] for clause in watched_clauses(solver)] + [solver._trail, solver._assumed]
            assert all(2 <= code <= top for codes in stored for code in codes)
            assert_guards_lie_below_a_selector_literal(solver)
        guarded += sum(1 for clause in watched_clauses(solver) if stored_clause(clause)[1])
    assert guarded >= 10


@pytest.mark.parametrize("selectors", [False, True])
def test_the_highest_variable_negated_answers_like_a_truth_table(selectors):
    # -n is the last literal code, 2n + 1, where a value or watch array one
    # entry short would fail. Without selectors the clauses hold -n; with
    # them, clause i is switched on by selector i and the last selector's
    # clause holds its negation, the last code
    rng = random.Random(13)
    for _ in range(150):
        num_vars = rng.randint(1, 5)
        clauses = [random_clause(rng, num_vars) for _ in range(rng.randint(1, 6))]
        clauses = [[lit for lit in cl if lit != num_vars] + [-num_vars] for cl in clauses]
        count = len(clauses) if selectors else 0
        solver = SatSolver(num_vars, selectors=count)
        for i, cl in enumerate(clauses):
            solver.add_clause(cl + [-(num_vars + 1 + i)] if selectors else list(cl))
        for selected in range(1 << count):
            on = switched_on(clauses, selected) if selectors else clauses
            for plain in range(1 << num_vars):
                assumptions = [v for v in range(1, num_vars + 1) if plain >> (v - 1) & 1]
                want = brute_force_first_model(num_vars, on, assumptions)
                assert solver.solve(plain | selected << num_vars) == (want is not None)
                if want is not None:
                    assert solver.model_mask == want
