import random

import operator

import pytest
from hypothesis import given, settings, strategies as st

from musenum import ConstraintSet, PreconditionError, UniverseMismatchError

from helpers import cs, from_indices


def test_is_subset_of():
    assert cs("1100").is_subset_of(cs("1110"))
    assert not cs("1100").is_subset_of(cs("1010"))
    assert cs("0000").is_subset_of(cs("1011"))


def test_is_subset_of_length_mismatch():
    with pytest.raises(UniverseMismatchError):
        cs("11").is_subset_of(cs("111"))


def test_subset_antisymmetry_matches_equality():
    rng = random.Random(401)
    for _ in range(300):
        n = rng.randint(1, 10)
        a = ConstraintSet(n, rng.randrange(1 << n))
        b = ConstraintSet(n, rng.randrange(1 << n))
        both = a.is_subset_of(b) and b.is_subset_of(a)
        assert both == (a == b)


def test_cardinality_is_popcount():
    assert len(cs("1011")) == 3
    assert len(ConstraintSet.empty(7)) == 0
    assert len(ConstraintSet.full(7)) == 7


def test_iteration_ascending_zero_based():
    assert list(cs("1011")) == [0, 2, 3]
    assert cs("1011").indices_1based() == [1, 3, 4]


def test_membership_and_add_remove():
    s = cs("0101")
    assert 1 in s and 3 in s and 0 not in s
    assert s.add(0) == cs("1101")
    assert s.remove(1) == cs("0001")
    with pytest.raises(PreconditionError):
        s.remove(0)
    with pytest.raises(PreconditionError):
        s.add(9)


def test_set_operators():
    assert (cs("1100") | cs("0110")) == cs("1110")
    assert (cs("1100") - cs("0110")) == cs("1000")
    with pytest.raises(UniverseMismatchError):
        cs("11") | cs("111")


def test_from_indices_and_bits_roundtrip():
    s = from_indices(5, [0, 2, 4])
    assert s.bits() == "10101"
    assert cs(s.bits()) == s
    with pytest.raises(PreconditionError):
        from_indices(3, [3])
    with pytest.raises(PreconditionError):
        cs("10x1")


def test_repr_shows_the_bits_up_to_32_constraints_and_the_size_beyond():
    assert repr(cs("101")) == "ConstraintSet('101')"
    assert repr(ConstraintSet.full(32)) == f"ConstraintSet({'1' * 32!r})"
    assert repr(from_indices(40, [0, 17, 39])) == "ConstraintSet(n=40, size=3)"


def test_mask_bounds_checked():
    with pytest.raises(PreconditionError):
        ConstraintSet(2, 4)
    with pytest.raises(PreconditionError):
        ConstraintSet(-1, 0)


def test_sets_are_hashable_and_immutable():
    s = cs("1010")
    assert {s, cs("1010")} == {s}
    with pytest.raises(AttributeError):
        s.mask = 3


@st.composite
def same_universe(draw, count, min_n=0):
    """`count` constraint sets over one random universe of at most 40 constraints."""
    n = draw(st.integers(min_n, 40))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=count, max_size=count))
    return [ConstraintSet(n, mask) for mask in masks]


LAWS = settings(deadline=None, derandomize=True, max_examples=200)


@LAWS
@given(same_universe(3))
def test_set_laws_match_mask_arithmetic(sets):
    a, b, c = sets
    assert (a | b).mask == a.mask | b.mask
    assert (a - b).mask == a.mask & ~b.mask
    assert (a | b).n == (a - b).n == a.n
    # is_subset_of is a partial order, and it is the order of |
    assert a.is_subset_of(a)
    assert (a.is_subset_of(b) and b.is_subset_of(a)) == (a == b)
    assert a.is_subset_of(b) == (a | b == b) == (a.mask & ~b.mask == 0)
    upper = a | b
    assert a.is_subset_of(upper) and upper.is_subset_of(upper | c) and a.is_subset_of(upper | c)
    # from_indices, iteration and the 1-based indices describe the same members
    members = list(a)
    assert members == sorted(set(members)) and len(members) == len(a)
    assert from_indices(a.n, members) == a
    assert a.indices_1based() == [i + 1 for i in members]
    assert all((i in a) == bool(a.mask >> i & 1) for i in range(a.n))


@LAWS
@given(same_universe(1, min_n=1), st.data())
def test_add_and_remove_round_trip(sets, data):
    (a,) = sets
    i = data.draw(st.integers(0, a.n - 1))
    if i in a:
        assert i not in a.remove(i) and a.remove(i).add(i) == a
    else:
        assert i in a.add(i) and a.add(i).remove(i) == a
    assert a.add(i).add(i) == a.add(i) and len(a.add(i)) == len(a) + (i not in a)


@LAWS
@given(same_universe(1), same_universe(1))
def test_mixed_universes_raise(left, right):
    (a,), (b,) = left, right
    if a.n == b.n:
        b = ConstraintSet.empty(a.n + 1)
    for op in (operator.or_, operator.sub, ConstraintSet.is_subset_of):
        with pytest.raises(UniverseMismatchError):
            op(a, b)
