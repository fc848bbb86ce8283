"""Frozen ground truth and helpers shared across the test suite."""

import random

from musenum import CnfOracle, ConstraintSet, TableOracle
from musenum.reference import random_cnf

# the four-constraint demo system over two variables:
#   c1 = a, c2 = not a, c3 = b, c4 = (not a or not b)
EXAMPLE1_DIMACS = "p cnf 2 4\n1 0\n-1 0\n2 0\n-1 -2 0\n"

# full subset status table of that system, keyed by bitstring whose leftmost
# character is constraint 1; True = satisfiable
EXAMPLE1_STATUSES = {
    "0000": True,
    "1000": True, "0100": True, "0010": True, "0001": True,
    "1100": False, "1010": True, "1001": True,
    "0110": True, "0101": True, "0011": True,
    "1110": False, "1101": False, "1011": False, "0111": True,
    "1111": False,
}

EXAMPLE1_MUSES = {"1100", "1011"}
EXAMPLE1_MSSES = {"1010", "1001", "0111"}
EXAMPLE1_MCSES = {"0110", "0101", "1000"}


def cs(bits: str) -> ConstraintSet:
    """ConstraintSet from a bitstring, leftmost character = constraint 1."""
    return ConstraintSet.from_bits(bits)


def bitsets(sets) -> set[str]:
    return {s.bits() for s in sets}


def example1_table() -> TableOracle:
    statuses = [None] * 16
    for bits, sat in EXAMPLE1_STATUSES.items():
        statuses[cs(bits).mask] = sat
    assert None not in statuses
    return TableOracle(statuses)


class CoreCnfOracle(CnfOracle):
    """CnfOracle that rotates no model: shrink learns a constraint is critical only by a check."""

    def rotate(self, work, critical, known=None):
        return []


def pigeonhole(holes: int) -> tuple[int, list[list[int]]]:
    """(num_vars, clauses) of PHP(holes + 1, holes), which is its own only MUS.

    The first holes + 1 clauses put each pigeon in a hole; the rest forbid
    two pigeons in one hole.
    """
    pigeons = holes + 1

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append([-var(p, h), -var(q, h)])
    return pigeons * holes, clauses


def small_unsat_cnfs(count: int, seed: int) -> list[tuple[int, list[list[int]]]]:
    """(num_vars, clauses) of `count` unsatisfiable random 2- and 3-CNF formulas, n <= 14."""
    rng = random.Random(seed)
    formulas = []
    while len(formulas) < count:
        num_vars = rng.randint(2, 5)
        clauses = random_cnf(num_vars, rng.randint(4, 14), rng.choice([2, 3]), rng.randrange(1 << 30))
        if not CnfOracle(num_vars, clauses).is_sat(ConstraintSet.full(len(clauses))):
            formulas.append((num_vars, clauses))
    return formulas


def assert_block_log_replays(result, verifier) -> None:
    """Replay a run's block log against a fresh oracle.

    Nothing may leave the map unless its status is implied by a completed
    check: up-blocks are unsatisfiable sets; down-blocks are satisfiable sets
    (the oracle's witnesses, which may reach beyond the sets it was asked
    about), except a just-emitted MUS, whose proper subsets are all
    satisfiable by minimality.
    """
    n = verifier.n
    mus_masks = {m.mask for m in result.muses}
    assert result.block_log
    for kind, mask in result.block_log:
        blocked = ConstraintSet(n, mask)
        if kind == "up":
            assert not verifier.is_sat(blocked)
        elif mask in mus_masks:
            assert all(verifier.is_sat(blocked.remove(i)) for i in blocked)
        else:
            assert verifier.is_sat(blocked)
