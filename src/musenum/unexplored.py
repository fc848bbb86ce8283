"""Symbolic map of the constraint subsets whose satisfiability is still unknown.

The map is a growing CNF formula over one indicator variable per constraint
(variable i+1 for constraint index i); its models are exactly the
undetermined subsets. Determined sets are removed by blocking clauses:
all-positive clauses drop a satisfiable set together with its subsets,
all-negative clauses drop an unsatisfiable set together with its supersets.
"""

from __future__ import annotations

from .core import ConstraintSet, PreconditionError, UniverseMismatchError
from .satsolver import SatSolver


class UnexploredMap:
    def __init__(self, n: int):
        if n < 1:
            raise PreconditionError("the universe must contain at least one constraint")
        self.n = n
        self.clauses: list[list[int]] = []
        self.block_log: list[tuple[str, int]] = []  # ("down"|"up", subset mask)
        self.solver_calls = 0
        self.grow_evals = 0  # clause evaluations spent growing models, diagnostics only
        self.stats = None
        self._solver = SatSolver(n, default_phase=True)
        self._negative_masks: list[int] = []
        self._outside: list[int] = []  # the last call's assumptions, in order

    def _require_same_universe(self, s: ConstraintSet) -> None:
        if s.n != self.n:
            raise UniverseMismatchError(f"set over universe {s.n}, map over {self.n}")

    def block_down(self, sat_set: ConstraintSet) -> None:
        """Remove sat_set and all of its subsets from the map."""
        self._require_same_universe(sat_set)
        mask = sat_set.mask
        clause = [i + 1 for i in range(self.n) if not mask >> i & 1]
        self.clauses.append(clause)
        self.block_log.append(("down", mask))
        self._solver.add_clause(clause)

    def block_up(self, unsat_set: ConstraintSet) -> None:
        """Remove unsat_set and all of its supersets from the map."""
        self._require_same_universe(unsat_set)
        clause = [-(i + 1) for i in unsat_set]
        self.clauses.append(clause)
        self.block_log.append(("up", unsat_set.mask))
        self._negative_masks.append(unsat_set.mask)
        self._solver.add_clause(clause)

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

    def _count_solver_call(self) -> None:
        self.solver_calls += 1
        if self.stats is not None:
            self.stats.map_solver_calls += 1

    def has_unexplored_subset_of(self, p: ConstraintSet) -> bool:
        """True iff some subset of p is still undetermined. One solver call."""
        self._require_same_universe(p)
        self._count_solver_call()
        return self._solver.solve(self._assumptions_outside(p.mask))

    def max_unexplored_subset_of(self, p: ConstraintSet) -> ConstraintSet | None:
        """An undetermined subset of p maximal within p, or None if none remains.

        One solver call; the solver's all-true branching bias already yields a
        large model, then a deterministic pass adds each remaining constraint
        of p (ascending index) whose inclusion keeps every all-negative clause
        satisfied. All-positive clauses cannot lose satisfaction by adding
        members, so this guarantees maximality without further solver calls.
        """
        self._require_same_universe(p)
        self._count_solver_call()
        if not self._solver.solve(self._assumptions_outside(p.mask)):
            return None
        grown = self._solver.model_mask & p.mask
        rest = p.mask & ~grown
        while rest:
            low = rest & -rest
            rest ^= low
            candidate = grown | low
            blocked = False
            for neg in self._negative_masks:
                self.grow_evals += 1
                if candidate & neg == neg:
                    blocked = True
                    break
            if not blocked:
                grown = candidate
        return ConstraintSet(self.n, grown)
