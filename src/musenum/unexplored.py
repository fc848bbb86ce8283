"""Symbolic map of the constraint subsets whose satisfiability is still unknown.

The map is a CNF formula over one indicator variable per constraint
(variable i+1 for constraint index i); its models are exactly the
undetermined subsets. Determined sets are removed by blocking clauses:
all-positive clauses drop a satisfiable set together with its subsets,
all-negative clauses drop an unsatisfiable set together with its supersets.
A positive clause is removed again once a larger satisfiable set is blocked.
"""

from __future__ import annotations

from .core import Antichain, ConstraintSet, PreconditionError, UniverseMismatchError
from .satsolver import SatSolver


class UnexploredMap:
    """The map over n constraints, on one incremental solver.

    Down-blocks are kept as an antichain of maximal blocked sets: a block
    inside a stored set adds no clause, and a block containing stored sets
    removes their clauses from the solver, since its own clause implies them
    (backward subsumption). Up-blocks are kept as they come; the enumerators
    block up only MUSes, which form an antichain already. `clauses` holds only
    the live clauses, and `block_log` every block in order. A query's answer
    is the solver's model itself, maximal because of the order in which the
    solver branches.
    """

    def __init__(self, n: int):
        if n < 1:
            raise PreconditionError("the universe must contain at least one constraint")
        self.n = n
        self.block_log: list[tuple[str, int]] = []  # ("down"|"up", subset mask)
        self.solver_calls = 0
        # always 0, as answers need no grow pass; kept because bench/tracing.py reads it
        self.grow_evals = 0
        self._solver = SatSolver(n, default_phase=True)
        self._negative_masks: list[int] = []
        self._down = Antichain()  # maximal down-blocked masks -> their solver clauses
        self._outside: list[int] = []  # the last call's assumptions, in order

    def _require_same_universe(self, s: ConstraintSet) -> None:
        if s.n != self.n:
            raise UniverseMismatchError(f"set over universe {s.n}, map over {self.n}")

    def _down_clause(self, mask: int) -> list[int]:
        return [i + 1 for i in range(self.n) if not mask >> i & 1]

    def _up_clause(self, mask: int) -> list[int]:
        return [-(i + 1) for i in range(self.n) if mask >> i & 1]

    @property
    def clauses(self) -> list[list[int]]:
        """The live blocking clauses: the up-blocks in order, then the maximal down-blocks."""
        return [self._up_clause(m) for m in self._negative_masks] + [
            self._down_clause(m) for m in self._down
        ]

    def block_down(self, sat_set: ConstraintSet) -> None:
        """Remove sat_set and all of its subsets from the map."""
        self._require_same_universe(sat_set)
        mask = sat_set.mask
        self.block_log.append(("down", mask))
        dropped = self._down.add(mask)
        if dropped is None:
            return  # inside a down-blocked set already
        solver = self._solver
        self._down[mask] = solver.add_clause(self._down_clause(mask))
        for clause in dropped:
            if clause is not None:
                solver.remove_clause(clause)

    def block_up(self, unsat_set: ConstraintSet) -> None:
        """Remove unsat_set and all of its supersets from the map."""
        self._require_same_universe(unsat_set)
        self.block_log.append(("up", unsat_set.mask))
        self._negative_masks.append(unsat_set.mask)
        self._solver.add_clause(self._up_clause(unsat_set.mask))

    def _assumptions_outside(self, p_mask: int) -> list[int]:
        # restriction to subsets of p is per-call; never encoded as clauses.
        # The solver keeps the levels of the assumption prefix it saw last, so
        # the last call's order is reused while its literals stay outside p; a
        # remus child restricts to a subset of its parent's p, so the parent's
        # prefix survives the descent and the return.
        rest = ~p_mask & ((1 << self.n) - 1)
        outside = []
        for lit in self._outside:
            bit = 1 << (-lit - 1)
            if not rest & bit:
                break
            rest ^= bit
            outside.append(lit)
        while rest:
            low = rest & -rest
            rest ^= low
            outside.append(-low.bit_length())
        self._outside = outside
        return outside

    def max_unexplored_subset_of(self, p: ConstraintSet) -> ConstraintSet | None:
        """An undetermined subset of p maximal within p, or None if none remains.

        One solver call, whose model is the answer. The solver branches with
        `default_phase=True`, so by the model invariant in `satsolver.py` its
        model M is the first in branching order: the lexicographically
        greatest model, variable 1 most significant. For a member x of p
        outside M, M + {x} still satisfies every down-block clause (all
        positive) and every assumption (only constraints outside p are
        assumed false). Were it to satisfy every up-block clause too, it would
        be a model greater than M; so M + {x} contains an up-blocked set, and
        M is maximal within p. A branching order other than this one would
        need a pass that grows the model.
        """
        self._require_same_universe(p)
        self.solver_calls += 1
        if not self._solver.solve(self._assumptions_outside(p.mask)):
            return None
        return ConstraintSet(self.n, self._solver.model_mask & p.mask)
