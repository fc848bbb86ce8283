import random

import pytest

from musenum import CnfOracle, ConstraintSet, PreconditionError, UnexploredMap, is_mus, parse_dimacs, shrink
from helpers import (
    EXAMPLE1_DIMACS,
    RECORDED,
    CoreCnfOracle,
    cs,
    example1_table,
    pigeonhole,
    random_antichain,
    table_from_antichain,
)


def test_full_seed_deletion_trace():
    parsed = parse_dimacs(EXAMPLE1_DIMACS)
    oracle = CoreCnfOracle(parsed.num_vars, parsed.clauses)  # one check per critical
    seed = ConstraintSet.full(4)
    mus, found_sat = shrink(oracle, seed, ConstraintSet.empty(4), seed, UnexploredMap(4))
    assert mus == cs("1011")
    assert oracle.checks == 4  # one check per deletion candidate
    # satisfiable sets met on the way, in deletion order
    assert found_sat == [cs("0111"), cs("1001"), cs("1010")]


def test_known_critical_skips_its_check():
    oracle = parse_dimacs(EXAMPLE1_DIMACS)
    mus, found_sat = shrink(oracle, cs("1100"), cs("1000"), cs("1100"), UnexploredMap(4))
    assert mus == cs("1100")
    assert oracle.checks == 1  # only c2 was a candidate
    # the witness of 1000: the clauses its model (a true, b false) satisfies;
    # rotation goes on through the known c1 (a false, b false), and a free
    # flip of b grows that witness to 0111
    assert found_sat == [cs("1001"), cs("0111")]


def test_unsat_trial_jumps_to_its_core():
    # MUSes {c1,c2,c4}, {c1,c3,c5}, {c1,c6,c7}; c1 is critical for the full set
    oracle = CoreCnfOracle(4, [[1], [-1, 2], [-1, 3], [-2], [-3], [-1, 4], [-4]])
    seed, criticals = ConstraintSet.full(7), cs("1000000")
    mus, found_sat = shrink(oracle, seed, criticals, seed, UnexploredMap(7))
    # dropping c2 leaves c3 and c5 refuting a, so the trial's core drops
    # c4, c6 and c7 with it; only c3 and c5 are tried after that
    assert mus == cs("1010100")
    assert criticals.is_subset_of(mus)
    assert oracle.checks == 3 < len(seed - criticals)
    assert len(found_sat) == 2
    # started from the core of the seed's own check, shrink tries only its members
    assert not oracle.is_sat(seed)
    assert oracle.core == cs("1101000")
    mus, _ = shrink(oracle, seed, criticals, oracle.core, UnexploredMap(7))
    assert mus == cs("1101000")
    assert oracle.checks == 4 + 2


def test_rotation_proves_the_rest_of_example1_critical():
    # the model of 0011 (a false, b true) falsifies only c1; flipping a
    # falsifies only c4, and flipping b from there falsifies only c3
    oracle = parse_dimacs(EXAMPLE1_DIMACS)
    mus, found_sat = shrink(oracle, cs("1011"), ConstraintSet.empty(4), cs("1011"), UnexploredMap(4))
    assert mus == cs("1011")
    assert oracle.checks == 1
    assert found_sat == [cs("0111"), cs("1010"), cs("1001")]


RECORDED_RUNS = ["shrink pigeonhole-3", "shrink pigeonhole-4"]


def shrink_pigeonhole(holes: int):
    """shrink of the whole of PHP(holes + 1, holes), every clause of which is critical."""
    num_vars, clauses = pigeonhole(holes)
    oracle = CnfOracle(num_vars, clauses)
    seed = ConstraintSet.full(len(clauses))
    return oracle, seed, *shrink(oracle, seed, ConstraintSet.empty(len(clauses)), seed, UnexploredMap(len(clauses)))


def figures(name: str) -> dict:
    return {"checks": shrink_pigeonhole(int(name.rsplit("-", 1)[1]))[0].checks}


@pytest.mark.parametrize("name", RECORDED_RUNS, ids=RECORDED_RUNS)
def test_rotation_spares_most_checks_on_a_pigeonhole_formula(name):
    # rotation proves most clauses critical from the models of a few
    # satisfiable trials
    oracle, seed, mus, found_sat = shrink_pigeonhole(int(name.rsplit("-", 1)[1]))
    assert mus == seed
    assert RECORDED[name]["checks"] == oracle.checks < len(seed)
    # one set per clause, lacking that clause alone: from its own trial or
    # from the rotation that proved it; the repeats are not held
    assert {s.mask for s in found_sat} == {seed.remove(i).mask for i in seed}
    assert len(found_sat) == len(seed)
    verifier = CoreCnfOracle(oracle.num_vars, oracle.clauses)
    for s in found_sat:
        assert verifier.is_sat(s)
    assert all(verifier.is_sat(seed.remove(i)) for i in seed)


def test_a_known_satisfiable_trial_keeps_its_candidate_without_a_check():
    oracle = example1_table()
    umap = UnexploredMap(4)
    umap.block_down(cs("0111"))  # the trial without c1
    asked = []
    covered_members = umap.covered_members

    def recording(work):
        asked.append(work)
        return covered_members(work)

    umap.covered_members = recording
    mus, found_sat = shrink(oracle, ConstraintSet.full(4), ConstraintSet.empty(4), ConstraintSet.full(4), umap)
    assert mus == cs("1011")
    # the map is asked once per working set: the seed, then the core of c2's trial
    assert asked == [cs("1111").mask, cs("1011").mask]
    # c1 is kept with no check, and counted once; c2 (UNSAT without it), c3 and c4 are checked
    assert umap.covered_trials == 1 and umap.solver_calls == 0
    assert oracle.checks == 3
    # a known satisfiable set is no discovery: the caller has it already
    assert found_sat == [cs("1001"), cs("1010")]


def test_seed_that_is_already_minimal_with_all_criticals():
    oracle = parse_dimacs(EXAMPLE1_DIMACS)
    mus, found_sat = shrink(oracle, cs("1100"), cs("1100"), cs("1100"), UnexploredMap(4))
    assert mus == cs("1100")
    assert oracle.checks == 0
    assert found_sat == []


def test_criticals_must_be_inside_seed():
    oracle = example1_table()
    with pytest.raises(PreconditionError):
        shrink(oracle, cs("1100"), cs("0010"), cs("1100"), UnexploredMap(4))


def test_shrink_properties_on_random_monotone_tables():
    rng = random.Random(611)
    for _ in range(60):
        n = rng.randint(2, 9)
        antichain = random_antichain(n, rng)
        oracle = table_from_antichain(n, antichain)
        # seed: some unsatisfiable superset of a random minimal unsat set
        base = rng.choice(antichain)
        seed_mask = base | (rng.randrange(1 << n))
        seed = ConstraintSet(n, seed_mask)
        assert not oracle.is_sat(seed)
        # criticals: a random subset of one contained minimal set, valid when
        # that set is the only one inside the seed cone it belongs to
        criticals = ConstraintSet.empty(n)
        contained = [a for a in antichain if a & seed_mask == a]
        if len(contained) == 1:
            keep = contained[0] & rng.randrange(1 << n)
            criticals = ConstraintSet(n, keep)
        before = oracle.checks
        mus, found_sat = shrink(oracle, seed, criticals, seed, UnexploredMap(n))
        used = oracle.checks - before

        assert criticals.is_subset_of(mus)
        assert mus.is_subset_of(seed)
        assert used == len(seed) - len(criticals)
        verifier = table_from_antichain(n, antichain)  # fresh oracle
        assert is_mus(verifier, mus)
        for s in found_sat:
            assert verifier.is_sat(s)
