import random

import pytest

from musenum import ConstraintSet, PreconditionError, UnexploredMap, UniverseMismatchError
from helpers import cs, enumerate_map_models, explicit_map_reference


def example3_map():
    """Universe of three constraints; {c1,c3} found unsat, {c1,c2} found sat."""
    umap = UnexploredMap(3)
    umap.block_up(cs("101"))
    umap.block_down(cs("110"))
    return umap


def random_block_log(rng, n, max_blocks=12):
    log = []
    for _ in range(rng.randint(0, max_blocks)):
        kind = "down" if rng.random() < 0.5 else "up"
        log.append((kind, rng.randrange(1 << n)))
    return log


def apply_log(umap, log):
    for kind, mask in log:
        s = ConstraintSet(umap.n, mask)
        if kind == "down":
            umap.block_down(s)
        else:
            umap.block_up(s)


def test_init_leaves_everything_unexplored():
    umap = UnexploredMap(4)
    assert len(enumerate_map_models(umap)) == 16
    assert umap.max_unexplored_subset_of(ConstraintSet.full(4)) is not None


def test_init_single_constraint():
    umap = UnexploredMap(1)
    assert enumerate_map_models(umap) == {0, 1}


def test_init_rejects_empty_universe():
    with pytest.raises(PreconditionError):
        UnexploredMap(0)


def test_block_down_adds_positive_clause_over_complement():
    umap = UnexploredMap(3)
    umap.block_down(cs("110"))
    assert umap.clauses == [[3]]


def test_block_up_adds_negative_clause_over_members():
    umap = UnexploredMap(3)
    umap.block_up(cs("101"))
    assert umap.clauses == [[-1, -3]]


def test_block_down_keeps_only_the_maximal_sets_as_clauses():
    umap = UnexploredMap(3)
    umap.block_down(cs("100"))
    umap.block_down(cs("110"))  # contains {c1}: its clause replaces {c1}'s
    umap.block_down(cs("010"))  # inside {c1,c2}: adds no clause
    assert umap.clauses == [[3]]
    assert umap.block_log == [("down", cs(b).mask) for b in ("100", "110", "010")]
    assert enumerate_map_models(umap) == {cs(b).mask for b in ("001", "101", "011", "111")}


def test_example3_formula_models():
    umap = example3_map()
    assert umap.clauses == [[-1, -3], [3]]
    # remaining undetermined subsets: {c3} and {c2,c3}
    assert enumerate_map_models(umap) == {cs("001").mask, cs("011").mask}


def test_block_down_full_set_empties_map():
    umap = UnexploredMap(3)
    umap.block_down(ConstraintSet.full(3))
    assert enumerate_map_models(umap) == set()
    assert umap.max_unexplored_subset_of(ConstraintSet.full(3)) is None


def test_block_down_empty_set_removes_only_empty():
    umap = UnexploredMap(3)
    umap.block_down(ConstraintSet.empty(3))
    assert enumerate_map_models(umap) == set(range(1, 8))


def test_block_up_empty_set_empties_map():
    umap = UnexploredMap(3)
    umap.block_up(ConstraintSet.empty(3))
    assert enumerate_map_models(umap) == set()


def test_block_up_removes_exactly_the_supersets():
    umap = UnexploredMap(4)
    umap.block_up(cs("1100"))
    removed = set(range(16)) - enumerate_map_models(umap)
    # expected set computed by independent enumeration of the up-cone
    target = cs("1100").mask
    assert removed == {m for m in range(16) if m & target == target}
    assert removed == {cs(b).mask for b in ("1100", "1110", "1101", "1111")}


def test_has_unexplored_subset_of_examples():
    fresh = UnexploredMap(4)
    assert fresh.max_unexplored_subset_of(cs("0011")) is not None

    blocked = UnexploredMap(4)
    blocked.block_down(cs("0011"))
    assert blocked.max_unexplored_subset_of(cs("0011")) is None

    umap = example3_map()
    assert umap.max_unexplored_subset_of(cs("110")) is None  # every model needs c3


def test_max_on_fresh_map_returns_full_restriction():
    umap = UnexploredMap(4)
    assert umap.max_unexplored_subset_of(ConstraintSet.full(4)) == ConstraintSet.full(4)


def test_max_after_blocking_up_a_pair():
    umap = UnexploredMap(4)
    umap.block_up(cs("1100"))
    got = umap.max_unexplored_subset_of(ConstraintSet.full(4))
    # the twelve remaining subsets have exactly these two maximal elements
    assert got in (cs("1011"), cs("0111"))


def test_max_example3_is_unique():
    umap = example3_map()
    assert umap.max_unexplored_subset_of(ConstraintSet.full(3)) == cs("011")


def test_max_returns_none_when_restriction_exhausted():
    umap = UnexploredMap(3)
    umap.block_down(cs("110"))
    umap.block_down(cs("001"))
    # all subsets of {c1,c2} and of {c3} are now determined
    assert umap.max_unexplored_subset_of(cs("110")) is None
    assert umap.max_unexplored_subset_of(cs("001")) is None
    assert umap.max_unexplored_subset_of(ConstraintSet.full(3)) is not None


def test_map_matches_explicit_reference_on_random_logs():
    rng = random.Random(500)
    for _ in range(200):
        n = rng.randint(1, 9)
        log = random_block_log(rng, n)
        umap = UnexploredMap(n)
        apply_log(umap, log)
        assert enumerate_map_models(umap) == explicit_map_reference(n, log)
        assert umap.block_log == log
        downs = [set(clause) for clause in umap.clauses if clause and clause[0] > 0]
        for i, a in enumerate(downs):
            assert not any(a <= b for b in downs[:i] + downs[i + 1:])


def test_max_satisfies_the_maximality_contract():
    rng = random.Random(501)
    for _ in range(250):
        n = rng.randint(1, 9)
        umap = UnexploredMap(n)
        apply_log(umap, random_block_log(rng, n))
        p_mask = rng.randrange(1 << n)
        p = ConstraintSet(n, p_mask)
        models = enumerate_map_models(umap)
        inside = {m for m in models if m & ~p_mask == 0}
        got = umap.max_unexplored_subset_of(p)
        if not inside:
            assert got is None
            continue
        assert got is not None
        assert got.mask in inside
        assert got.is_subset_of(p)
        for c in p - got:
            assert got.add(c).mask not in models


def test_blocking_both_ways_removes_sup_and_sub_cones():
    rng = random.Random(502)
    for _ in range(100):
        n = rng.randint(1, 8)
        umap = UnexploredMap(n)
        apply_log(umap, random_block_log(rng, n, max_blocks=6))
        before = enumerate_map_models(umap)
        mask = rng.randrange(1 << n)
        s = ConstraintSet(n, mask)
        umap.block_up(s)
        umap.block_down(s)
        after = enumerate_map_models(umap)
        cone = {m for m in before if m & mask == mask or m & ~mask == 0}
        assert after == before - cone


def test_solver_call_counting():
    umap = UnexploredMap(3)
    umap.max_unexplored_subset_of(ConstraintSet.full(3))
    umap.block_down(ConstraintSet.full(3))
    assert umap.max_unexplored_subset_of(cs("110")) is None
    assert umap.solver_calls == 2  # one per call, also when nothing is left


def test_every_member_of_p_outside_the_answer_hits_an_up_block():
    # the solver's model is maximal within p as it stands, so no grow pass runs
    rng = random.Random(503)
    for _ in range(250):
        n = rng.randint(1, 9)
        umap = UnexploredMap(n)
        log = random_block_log(rng, n)
        apply_log(umap, log)
        p = ConstraintSet(n, rng.randrange(1 << n))
        got = umap.max_unexplored_subset_of(p)
        if got is None:
            continue
        ups = [mask for kind, mask in log if kind == "up"]
        for c in p - got:
            grown = got.add(c).mask
            assert any(grown & up == up for up in ups)
        assert umap.grow_evals == 0


def test_universe_mismatch_rejected():
    umap = UnexploredMap(3)
    with pytest.raises(UniverseMismatchError):
        umap.block_down(cs("1100"))
    with pytest.raises(UniverseMismatchError):
        umap.max_unexplored_subset_of(cs("10"))
