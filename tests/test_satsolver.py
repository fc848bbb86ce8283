import itertools
import random

import pytest

from musenum.satsolver import SatSolver


def brute_force_sat(num_vars, clauses, assumptions=()):
    """Independent oracle: try every assignment."""
    fixed = {abs(lit): lit > 0 for lit in assumptions}
    for bits in itertools.product([False, True], repeat=num_vars):
        if any(bits[v - 1] != want for v, want in fixed.items()):
            continue
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in cl) for cl in clauses):
            return True
    return False


def brute_force_first_model(num_vars, clauses, assumptions, default_phase):
    """First model in branching order (variable 1 first, default phase first)."""
    fixed = {abs(lit): lit > 0 for lit in assumptions}
    phases = (default_phase, not default_phase)
    for bits in itertools.product(phases, repeat=num_vars):
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


def random_clause(rng, num_vars):
    width = rng.randint(1, min(3, num_vars))
    variables = rng.sample(range(1, num_vars + 1), width)
    return [v if rng.random() < 0.5 else -v for v in variables]


def test_agrees_with_brute_force_incrementally():
    rng = random.Random(2024)
    for _ in range(600):
        num_vars = rng.randint(1, 7)
        clauses = [random_clause(rng, num_vars) for _ in range(rng.randint(0, 16))]
        solver = SatSolver(num_vars, default_phase=rng.random() < 0.5)
        for cl in clauses:
            solver.add_clause(list(cl))
        for _ in range(3):
            k = rng.randint(0, num_vars)
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), k)
            ]
            got = solver.solve(assumptions)
            assert got == brute_force_sat(num_vars, clauses, assumptions)
            if got:
                assert model_satisfies(solver.model_mask, num_vars, clauses, assumptions)
            if rng.random() < 0.7:
                extra = random_clause(rng, num_vars)
                clauses.append(extra)
                solver.add_clause(list(extra))


def clause_against_trail(rng, solver, num_vars):
    """A clause that is unit or fully falsified under the solver's kept trail."""
    false_lits = [
        lit
        for v in range(1, num_vars + 1)
        for lit in (v, -v)
        if solver.value(lit) == -1
    ]
    clause = rng.sample(false_lits, rng.randint(0, min(3, len(false_lits))))
    free = [v for v in range(1, num_vars + 1) if solver.value(v) == 0]
    if free and (not clause or rng.random() < 0.5):
        clause.append(rng.choice(free) * rng.choice((1, -1)))
    rng.shuffle(clause)
    return clause


def test_kept_trail_returns_the_first_model_in_branching_order():
    rng = random.Random(7)
    kept_trail_clauses = 0
    cores = smaller = 0
    for _ in range(400):
        num_vars = rng.randint(1, 8)
        phase = rng.random() < 0.5
        clauses = [random_clause(rng, num_vars) for _ in range(rng.randint(0, 12))]
        solver = SatSolver(num_vars, default_phase=phase)
        for cl in clauses:
            solver.add_clause(list(cl))
        literals = [v if rng.random() < 0.5 else -v for v in range(1, num_vars + 1)]
        for _ in range(6):
            if not solver.ok:
                break
            # reorder a random suffix, so consecutive calls share a prefix
            cut = rng.randint(0, num_vars)
            tail = literals[cut:]
            rng.shuffle(tail)
            literals[cut:] = [-lit if rng.random() < 0.3 else lit for lit in tail]
            assumptions = literals[: rng.randint(0, num_vars)]
            want = brute_force_first_model(num_vars, clauses, assumptions, phase)
            assert solver.solve(assumptions) == (want is not None)
            if want is not None:
                assert solver.model_mask == want
            else:
                # the failed assumptions alone refute the clauses
                failed = solver.failed_assumptions()
                assert set(failed) <= set(assumptions)
                assert not brute_force_sat(num_vars, clauses, failed)
                cores += 1
                smaller += len(set(failed)) < len(set(assumptions))
            extra = clause_against_trail(rng, solver, num_vars)
            kept_trail_clauses += any(solver.value(lit) == -1 for lit in extra)
            clauses.append(extra)
            solver.add_clause(list(extra))
    assert kept_trail_clauses > 300
    assert cores > 300 and smaller > 250


def test_default_phase_biases_model():
    all_true = SatSolver(5, default_phase=True)
    assert all_true.solve() and all_true.model_mask == 0b11111
    all_false = SatSolver(5, default_phase=False)
    assert all_false.solve() and all_false.model_mask == 0


def test_empty_clause_is_permanent_unsat():
    solver = SatSolver(3)
    solver.add_clause([])
    assert not solver.solve([1])
    assert not solver.ok
    assert solver.failed_assumptions() == []


def test_tautology_and_duplicate_literals():
    solver = SatSolver(2)
    solver.add_clause([1, -1])  # dropped
    solver.add_clause([2, 2])  # collapses to unit
    assert solver.solve([-1])
    assert not solver.solve([-2])


def test_contradicting_units():
    solver = SatSolver(1)
    solver.add_clause([1])
    solver.add_clause([-1])
    assert not solver.solve()
    assert not solver.ok


def test_assumption_against_level0_unit_is_recoverable():
    solver = SatSolver(2)
    solver.add_clause([1])
    assert not solver.solve([-1])
    assert solver.ok  # only unsat under those assumptions
    assert solver.solve()


def test_zero_variables():
    solver = SatSolver(0)
    assert solver.solve()
    assert solver.model_mask == 0


def test_literal_range_checked():
    solver = SatSolver(2)
    with pytest.raises(ValueError):
        solver.add_clause([3])
    with pytest.raises(ValueError):
        solver.solve([0])
    for bad in (3, -3, 0):
        with pytest.raises(ValueError, match=f"literal {bad} out of range"):
            solver.solve([1, -2, bad, 2, -4])


def test_model_unavailable_after_unsat():
    solver = SatSolver(1)
    solver.add_clause([1])
    assert not solver.solve([-1])
    with pytest.raises(RuntimeError):
        _ = solver.model_mask
    assert solver.failed_assumptions() == [-1]  # refuted by a level-0 unit
    assert solver.solve()
    with pytest.raises(RuntimeError):
        solver.failed_assumptions()
