"""Symbolic map of the constraint subsets whose satisfiability is still unknown.

The map is a CNF formula over one variable per constraint: variable i+1 is
true when constraint index i is left out. Each model names the constraints
a subset leaves out, and read so they are exactly the undetermined subsets.
Determined sets are removed by blocking clauses: all-negative clauses drop a
satisfiable set together with its subsets, all-positive clauses drop an
unsatisfiable set together with its supersets. Clauses are only ever added:
the map learns each fact once and keeps it.
"""

from __future__ import annotations

from .core import ConstraintSet, PreconditionError, require_universe, set_bits
from .satsolver import SatSolver


class UnexploredMap:
    """The map over n constraints, on one incremental solver.

    Down-blocks are kept as the set of masks the map has logged, one per
    clause given to the solver: a block inside a stored set is dropped, since
    a stored clause implies it, and a repeat of a stored mask is dropped at
    once. Up-blocks are kept as they come; the enumerators block up only
    MUSes, which form an antichain already. `block_log` holds one entry per
    clause given to the solver, in order. A query assumes the constraints
    outside p left out, as one mask whose set bits the solver orders for its
    kept trail; its answer is p less the solver's model, maximal because the
    solver decides every variable false first, whatever its branching order.
    """

    def __init__(self, n: int):
        if n < 1:
            raise PreconditionError("the universe must contain at least one constraint")
        self.n = n
        self.block_log: list[tuple[str, int]] = []  # ("down"|"up", subset mask)
        self.solver_calls = 0
        self.covered_trials = 0  # shrink trials answered by covered_members; shrink counts them
        # always 0, as answers need no grow pass; kept because bench/tracing.py reads it
        self.grow_evals = 0
        self._full = (1 << n) - 1
        self._solver = SatSolver(n)
        self._down: set[int] = set()  # the logged down-block masks

    def block_down(self, sat_set: ConstraintSet) -> None:
        """Remove sat_set and all of its subsets from the map; a set inside a down-block is dropped."""
        require_universe(sat_set, self.n)
        mask = sat_set.mask
        if mask in self._down:
            return  # a repeat: the seed rotation's sets, or sets met again in later steps
        for d in self._down:
            if mask & d == mask:
                return  # a stored clause implies this block's; nothing is logged
        self._down.add(mask)
        self.block_log.append(("down", mask))
        self._solver.add_clause([-v for v in set_bits(self._full & ~mask)])

    def covered_members(self, work: int) -> int:
        """The members c of the mask work whose trial work - {c} lies inside a down-blocked set.

        Such a trial is satisfiable. One pass over the logged down-blocked
        sets D, with no solver call: work - {c} lies inside D exactly when
        work - D is {c} or empty. A logged set inside another D covers no
        member that D does not. Returns a mask.
        """
        found = 0
        for d in self._down:
            rest = work & ~d
            if not rest & (rest - 1):  # at most one member of work outside d
                found |= rest or work
        return found

    def block_up(self, unsat_set: ConstraintSet) -> None:
        """Remove unsat_set and all of its supersets from the map."""
        require_universe(unsat_set, self.n)
        self.block_log.append(("up", unsat_set.mask))
        self._solver.add_clause(set_bits(unsat_set.mask))

    def max_unexplored_subset_of(self, p: ConstraintSet) -> ConstraintSet | None:
        """An undetermined subset of p maximal within p, or None if none remains.

        One solver call, whose model M names the constraints left out; the
        answer is p - M, maximal within p by the solver's polarity alone. Every
        decision is false first, so it keeps a constraint in, and only the
        constraints outside p are assumed left out. A member x of p inside M
        was therefore implied by a clause whose other literals M falsifies:
        putting x back in, M - {x} falsifies that clause, a block clause or a
        learnt clause that the block clauses imply, and so some block clause.
        Down-blocks are negative clauses, which M - {x} still satisfies, so
        that is an up-block, and (p - M) + {x} holds a found MUS. MARCO gets
        its maximal models the same way (Liffiton, Previti, Malik &
        Marques-Silva, "Fast, flexible MUS enumeration", Constraints 2016).
        """
        require_universe(p, self.n)
        self.solver_calls += 1
        # restriction to subsets of p is per call, never encoded as clauses
        if not self._solver.solve(self._full & ~p.mask):
            return None
        return ConstraintSet(self.n, p.mask & ~self._solver.model_mask)
