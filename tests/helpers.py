"""Frozen ground truth, reference implementations and helpers shared across the test suite.

The package ships only what its callers use; the references the tests check
it against live here: an explicit-table oracle, brute-force MUS enumeration,
bitstring sets, the map's clauses read back as lists of literals, and the
solver's stored clauses read back as signed literals and guards.
"""

import json
import math
import random
from pathlib import Path

from musenum import (
    CnfOracle,
    ConstraintSet,
    MusError,
    PreconditionError,
    SatOracle,
    UnexploredMap,
    enumerate_marco,
    enumerate_remus,
    is_mus,
)
from musenum.oracles import random_cnf

# the two enumerators, by the name a recorded run gives its algorithm
RUNNERS = {"remus": enumerate_remus, "marco": enumerate_marco}

# every pinned run figure, by run name; only tests/record.py writes the file
RECORDED = json.loads(Path(__file__).with_name("recorded.json").read_text())

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
    if any(ch not in "01" for ch in bits):
        raise PreconditionError(f"bitstring must contain only 0/1: {bits!r}")
    mask = 0
    for i, ch in enumerate(bits):
        if ch == "1":
            mask |= 1 << i
    return ConstraintSet(len(bits), mask)


def from_indices(n: int, indices) -> ConstraintSet:
    """ConstraintSet from 0-based constraint indices."""
    mask = 0
    for i in indices:
        if not 0 <= i < n:
            raise PreconditionError(f"index {i} out of range for n={n}")
        mask |= 1 << i
    return ConstraintSet(n, mask)


def bitsets(sets) -> set[str]:
    return {s.bits() for s in sets}


def muses_of(result) -> list[ConstraintSet]:
    """The MUSes of an enumeration result, in the order they were emitted."""
    return [record.mus for record in result.records]


def literal(code: int) -> int:
    """The signed literal of a SatSolver literal code: 2v is v and 2v + 1 is -v (0 stays 0)."""
    return -(code >> 1) if code & 1 else code >> 1


def stored_clause(clause) -> tuple[list[int], int]:
    """A clause as SatSolver stores it, read back as (signed literals, guard mask)."""
    return [literal(code) for code in clause[1:]], clause[0]


def watched_clauses(solver) -> list[list[int]]:
    """Each clause a SatSolver watches, once, as it stores it."""
    return list({id(clause): clause for ws in solver._watches for clause in ws}.values())


def assert_guards_lie_below_a_selector_literal(solver) -> None:
    """Each guard lies wholly below a negated selector among its clause's literals.

    So a clause that fires at level L has its guard decided below L, which
    conflict analysis relies on.
    """
    base = solver._selector
    for clause in watched_clauses(solver):
        literals, guard = stored_clause(clause)
        if guard:
            top = max(-lit - base for lit in literals if lit <= -base)
            assert guard >> top == 0, (literals, bin(guard))


class MonotonicityError(MusError):
    """A status table claims an unsatisfiable set with a satisfiable superset."""

    def __init__(self, subset: ConstraintSet, superset: ConstraintSet):
        super().__init__(
            f"monotonicity violated: {subset} is unsat but its superset {superset} is sat"
        )
        self.subset = subset
        self.superset = superset


class TableOracle(SatOracle):
    """Explicit status table over all subsets of a small universe (n <= 20).

    Monotonicity is validated exhaustively at construction; the first
    violating edge is reported as (unsat subset, sat superset).
    """

    MAX_N = 20

    def __init__(self, statuses):
        size = len(statuses)
        n = size.bit_length() - 1
        if size < 2 or (1 << n) != size:
            raise PreconditionError(
                f"need statuses for all 2^n subsets of a non-empty universe, got {size}"
            )
        if n > self.MAX_N:
            raise PreconditionError(f"table oracle refused for n={n} > {self.MAX_N}")
        table = [bool(statuses[m]) for m in range(size)]
        for m in range(size):
            if table[m]:
                continue
            for i in range(n):
                if not m >> i & 1 and table[m | (1 << i)]:
                    raise MonotonicityError(
                        ConstraintSet(n, m), ConstraintSet(n, m | (1 << i))
                    )
        super().__init__(n)
        self._table = table

    def _solve(self, s: ConstraintSet) -> tuple[bool, int]:
        return self._table[s.mask], s.mask


BRUTEFORCE_MAX_N = 20


def bruteforce_all_muses(oracle: SatOracle) -> set[ConstraintSet]:
    """Reference MUS enumeration by exhaustive subset inspection (n <= 20).

    A set qualifies iff it is unsatisfiable and every single-constraint
    removal is satisfiable. Each subset's status is queried exactly once.
    """
    n = oracle.n
    if n > BRUTEFORCE_MAX_N:
        raise PreconditionError(f"brute force refused for n={n} > {BRUTEFORCE_MAX_N}")
    status = [oracle.is_sat(ConstraintSet(n, m)) for m in range(1 << n)]
    muses = set()
    for m in range(1 << n):
        if status[m]:
            continue
        rest = m
        minimal = True
        while rest:
            low = rest & -rest
            if not status[m ^ low]:
                minimal = False
                break
            rest ^= low
        if minimal:
            muses.add(ConstraintSet(n, m))
    return muses


def example1_table() -> TableOracle:
    statuses = [None] * 16
    for bits, sat in EXAMPLE1_STATUSES.items():
        statuses[cs(bits).mask] = sat
    assert None not in statuses
    return TableOracle(statuses)


class CoreCnfOracle(CnfOracle):
    """CnfOracle that rotates no model: shrink learns a constraint is critical only by a check."""

    def rotate(self, work, critical, known):
        return []


def full_pass_rotate(oracle: CnfOracle, work, critical, known):
    """CnfOracle.rotate by one pass over every variable per model: the reference it must match.

    It finds the clauses with at least one and with at least two true
    variables afresh for every model it meets, where the oracle updates counts
    per flip. Returns triples (d, the flipped model's clause set, the witness
    that free flips grow from it); the oracle's pairs are (d, witness), in
    the same order.
    """
    satisfies = [[0, 0] for _ in range(oracle.num_vars)]  # per variable: [if true, if false]
    for i, cl in enumerate(oracle.clauses):
        for lit in cl:
            satisfies[abs(lit) - 1][lit < 0] |= 1 << i

    def true_in(model):
        once = twice = 0
        for t, f in satisfies:
            true = t if model & 1 else f
            twice |= once & true
            once |= true
            model >>= 1
        return once, twice

    def free_flip(model, i):
        """The model with a variable of unsatisfied clause i flipped, if one flip falsifies no clause."""
        _, twice = true_in(model)
        for lit in oracle.clauses[i]:
            v = abs(lit) - 1
            t, f = satisfies[v]
            now, gain = (t, f) if model >> v & 1 else (f, t)
            if not now & ~(twice | gain):
                return model ^ (1 << v)
        return None

    def grown(model):
        while True:  # the first free flip of any unsatisfied clause, in clause order, until none
            for i in range(n):
                if not true_in(model)[0] >> i & 1 and (flipped := free_flip(model, i)) is not None:
                    model = flipped
                    break
            else:
                return true_in(model)[0]

    n = oracle.n
    wanted = work.mask & ~(1 << critical) & ~known.mask
    found = []
    seen = 1 << critical
    stack = [(oracle._solver.model_mask, critical)]
    while stack and wanted & ~seen:
        model, c = stack.pop()
        _, twice = true_in(model)
        for lit in oracle.clauses[c]:
            v = abs(lit) - 1
            t, f = satisfies[v]
            now, flipped = (t, f) if model >> v & 1 else (f, t)
            lost = now & ~(twice | flipped)  # clauses whose only true variable is v
            falsified = work.mask & lost
            if falsified & (falsified - 1) or not falsified & ~seen:
                continue  # not exactly one clause of work, or one seen already
            seen |= falsified
            rotated = model ^ (1 << v)
            d = falsified.bit_length() - 1
            found.append((d, ConstraintSet(n, true_in(rotated)[0]), ConstraintSet(n, grown(rotated))))
            stack.append((rotated, d))
    return found


def per_trial_shrink(oracle, seed, criticals, core, known_sat):
    """shrink with one map question per trial: the reference that `musenum.shrink` must match.

    `known_sat` is a predicate on the trial set; a True answer keeps its
    candidate with no check. `musenum.shrink` asks the map once per working
    set instead, and must make the same checks, discoveries and MUS.
    """
    if not criticals.is_subset_of(seed):
        raise PreconditionError("criticals must be a subset of the seed")
    work = core
    proven = criticals.mask
    discoveries = {}  # by mask, the first of each
    for candidate in work - criticals:
        if candidate not in work or proven >> candidate & 1:
            continue
        trial = work.remove(candidate)
        if known_sat(trial):
            proven |= 1 << candidate
        elif oracle.is_sat(trial):
            proven |= 1 << candidate
            discoveries.setdefault(oracle.witness.mask, oracle.witness)
            for d, witness in oracle.rotate(work, candidate, ConstraintSet(work.n, proven)):
                proven |= 1 << d
                discoveries.setdefault(witness.mask, witness)
        else:
            work = oracle.core
    return work, list(discoveries.values())


def per_member_choose_p(s_mus, s_max, factor):
    """choose_p adding one member at a time: the reference its mask arithmetic must match."""
    target = min(math.floor(factor * len(s_max) + 1e-9), len(s_max) - 1)
    if target <= len(s_mus):
        return None
    p = s_mus
    for i in s_max - s_mus:
        if len(p) >= target:
            break
        p = p.add(i)
    return p


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
    """Replay a run's block log against a fresh oracle and a fresh map.

    Nothing may leave the map unless its status is implied by a completed
    check: up-blocks are MUSes; down-blocks are satisfiable sets (the
    oracle's witnesses, which may reach beyond the sets it was asked about).
    A run marked complete must leave the replayed map empty: then a MUS that
    was not emitted would lie in no satisfiable block, so it would hold an
    emitted MUS and, being minimal, equal it.
    """
    n = verifier.n
    assert result.block_log
    umap = UnexploredMap(n)
    for kind, mask in result.block_log:
        s = ConstraintSet(n, mask)
        if kind == "down":
            assert verifier.is_sat(s)
            umap.block_down(s)
        else:
            assert is_mus(verifier, s)
            umap.block_up(s)
    if result.complete:
        assert umap.max_unexplored_subset_of(ConstraintSet.full(n)) is None


REFERENCE_MAX_N = 12


def explicit_map_reference(n: int, block_log) -> set[int]:
    """Explicitly maintained mirror of the symbolic unexplored map (n <= 12).

    block_log is a sequence of ("down"|"up", subset mask) pairs, as recorded
    by UnexploredMap.block_log. Returns the masks of all subsets the log
    leaves undetermined.
    """
    if n > REFERENCE_MAX_N:
        raise PreconditionError(f"explicit reference refused for n={n} > {REFERENCE_MAX_N}")
    alive = set(range(1 << n))
    for kind, mask in block_log:
        if kind == "down":
            alive = {m for m in alive if m & ~mask}
        elif kind == "up":
            alive = {m for m in alive if m & mask != mask}
        else:
            raise PreconditionError(f"unknown block kind {kind!r}")
    return alive


def map_clauses(umap: UnexploredMap) -> list[list[int]]:
    """A formula equivalent to the map solver's blocking clauses, read from what the map stores.

    Variable i+1 here is true when constraint i is in the subset, so each
    clause is the negation, literal by literal, of the solver's, whose
    variable i+1 means constraint i is left out. The up-blocks of `block_log` in order, each as the negative clause over
    its members, then the maximal down-blocked sets the map keeps, each as the
    positive clause over its complement. The solver also holds the clauses of
    down-blocks that a later block came to contain.
    """
    def members(mask: int) -> list[int]:
        return [i + 1 for i in range(umap.n) if mask >> i & 1]

    full = (1 << umap.n) - 1
    return [[-v for v in members(m)] for kind, m in umap.block_log if kind == "up"] + [
        members(full & ~m) for m in umap._down
    ]


def enumerate_map_models(umap: UnexploredMap) -> set[int]:
    """All models of a map's clause set by direct clause evaluation (n <= 16)."""
    n = umap.n
    if n > 16:
        raise PreconditionError(f"model enumeration refused for n={n} > 16")
    positive: list[int] = []
    negative: list[int] = []
    for clause in map_clauses(umap):
        mask = 0
        for lit in clause:
            mask |= 1 << (abs(lit) - 1)
        if clause and clause[0] < 0:
            negative.append(mask)
        else:
            positive.append(mask)  # an empty clause lands here and kills all models
    models = set()
    for m in range(1 << n):
        if all(m & p for p in positive) and all(m & q != q for q in negative):
            models.add(m)
    return models


def random_antichain(n: int, rng: random.Random) -> list[int]:
    """Sample a non-empty antichain of non-empty subset masks over n constraints."""
    count = rng.randint(1, max(2, min(n, 5)))
    candidates = []
    for _ in range(count):
        size = rng.randint(1, n)
        candidates.append(sum(1 << i for i in rng.sample(range(n), size)))
    candidates.sort(key=lambda m: m.bit_count())
    kept: list[int] = []
    for mask in candidates:
        if not any(k & mask == k for k in kept):
            kept.append(mask)
    return kept


def table_from_antichain(n: int, antichain) -> TableOracle:
    """Monotone table whose unsatisfiable sets are the up-closure of the antichain.

    With a proper antichain the minimal unsatisfiable sets are exactly its
    members; an empty antichain yields the all-satisfiable table.
    """
    statuses = [not any(m & a == a for a in antichain) for m in range(1 << n)]
    return TableOracle(statuses)


def random_monotone_table(n: int, seed: int) -> TableOracle:
    """Seeded monotone table oracle with an unsatisfiable full set (1 <= n <= 12)."""
    if not 1 <= n <= REFERENCE_MAX_N:
        raise PreconditionError(f"n must lie in 1..{REFERENCE_MAX_N}")
    rng = random.Random(seed)
    return table_from_antichain(n, random_antichain(n, rng))
