"""remus and its flat baseline marco: one frame loop, two seed policies.

remus restricts, after each found MUS, the next seed search to a set strictly
between the MUS and its seed, so successive seeds shrink; satisfiable maximal
subsets yield their correction sets, whose members are critical constraints
that speed up later shrinks. The paper's recursion runs on an explicit stack
of frames, so depth is bounded by memory, not by the interpreter's recursion
limit. The map of undetermined subsets is global across all frames, so
nothing is ever examined twice.

marco is the same loop with a flat policy: one frame over the whole universe
that never descends, so every seed is a maximal undetermined subset of the
universe and every shrink starts with no criticals. Map, oracle, shrink,
run record and budgets are the same code for both, so check-count
comparisons isolate the seed-selection strategy.
"""

from __future__ import annotations

import math

from .core import ConstraintSet, InstanceSatisfiableError, PreconditionError
from .session import BudgetReached, EnumerationResult, RemusConfig, Session

# floor() on the float product; the epsilon undoes binary representation
# error when the true product is integral
_FLOOR_EPS = 1e-9


def choose_p(s_mus: ConstraintSet, s_max: ConstraintSet, factor: float) -> ConstraintSet | None:
    """Pick the reduced search space strictly between a found MUS and its seed.

    The target cardinality is floor(factor * |s_max|), capped at |s_max| - 1
    since the epsilon can lift a factor just below 1 to |s_max|; returns None
    when that cannot strictly contain the MUS. The extra members are the
    lowest-index constraints of s_max missing from s_mus, keeping traces
    reproducible.
    """
    if not s_mus.is_subset_of(s_max) or s_mus == s_max:
        raise PreconditionError("s_mus must be a proper subset of s_max")
    target = min(math.floor(factor * len(s_max) + _FLOOR_EPS), len(s_max) - 1)
    if target <= len(s_mus):
        return None
    extra = rest = s_max.mask & ~s_mus.mask
    for _ in range(target - len(s_mus)):
        rest &= rest - 1  # clear the lowest member
    return ConstraintSet(s_max.n, s_mus.mask | (extra ^ rest))


def enumerate_remus(oracle, config: RemusConfig | None = None, sink=None) -> EnumerationResult:
    """Run remus over the oracle's constraints to completion or budget exhaustion.

    Every MUS record is handed to `sink` the moment it is found; the result
    holds all records and the run's counts. Raises PreconditionError when
    the oracle has no constraint and InstanceSatisfiableError when the full
    set is satisfiable.
    """
    return _run(oracle, config, sink, descend=True)


def enumerate_marco(oracle, config: RemusConfig | None = None, sink=None) -> EnumerationResult:
    """Run marco, the flat baseline, to completion or budget exhaustion.

    Every seed is a maximal undetermined subset of the whole universe, and
    every shrink starts with no criticals; otherwise as enumerate_remus.
    """
    return _run(oracle, config, sink, descend=False)


def _run(oracle, config: RemusConfig | None, sink, descend: bool) -> EnumerationResult:
    """Run the frame loop to its end or to a budget stop and complete the result."""
    session = Session(oracle, config or RemusConfig(), sink)
    if oracle.is_sat(session.full):
        raise InstanceSatisfiableError("the full constraint set is satisfiable")
    result = session.result
    try:
        _search(session, descend)
        result.complete = True
    except BudgetReached:
        pass
    result.oracle_checks = session.oracle_checks()
    result.map_solver_calls = session.map.solver_calls
    result.covered_trials = session.map.covered_trials
    result.block_log = session.map.block_log
    return result


def _search(session: Session, descend: bool) -> None:
    """Emit every MUS, running each FindMUSes call of the paper as a frame.

    A frame (s, criticals, depth) emits every not-yet-emitted MUS of the
    unsatisfiable set s, given constraints critical for s. Children depend
    only on their parent's state at the answer that spawns them and leave it
    unchanged, so one answer pushes all of them, the first on top. Without
    `descend` the first frame, over the full set, is the only one, and its
    criticals stay empty.
    """
    stack = [(session.full, ConstraintSet.empty(session.full.n), 0)]
    while stack:
        session.check_budget()
        s, criticals, depth = stack[-1]
        s_max = session.map.max_unexplored_subset_of(s)
        if s_max is None:
            stack.pop()
        # only the first seed is the full set; the precondition's check and core answer it
        elif s_max != session.full and session.oracle.is_sat(s_max):
            # the witness meets s in s_max, since every larger subset of s is
            # up-blocked; beyond s it spares sibling frames and later seeds
            session.map.block_down(session.oracle.witness)
            if not descend:
                continue
            s_mcs = s - s_max
            if len(s_mcs) == 1:
                stack[-1] = (s, criticals | s_mcs, depth)
            else:
                # each c is critical for s_max + {c}; the shared map lets later
                # siblings skip whatever earlier ones already resolved
                stack.extend((s_max.add(c), criticals.add(c), depth + 1) for c in reversed(list(s_mcs)))
        else:
            mus = session.shrink_and_emit(s_max, criticals, depth)
            if descend and mus != s_max:
                p = choose_p(mus, s_max, session.config.reduction_factor)
                if p is not None:
                    stack.append((p, criticals, depth + 1))
