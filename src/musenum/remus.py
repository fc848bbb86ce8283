"""Recursive online MUS enumeration with MCS-based critical mining.

Each found MUS restricts the next seed search to a set strictly between the
MUS and its seed, so successive seeds shrink; satisfiable maximal subsets
yield their correction sets, whose members are critical constraints that
speed up later shrinks. The map of undetermined subsets is global across all
recursion frames, so nothing is ever examined twice.
"""

from __future__ import annotations

import math
import sys

from .core import ConstraintSet, Instance, PreconditionError
from .session import EnumerationResult, RemusConfig, Session, run_session

# floor() on the float product; the epsilon undoes binary representation
# error when the true product is integral
_FLOOR_EPS = 1e-9


def choose_p(s_mus: ConstraintSet, s_max: ConstraintSet, factor: float) -> ConstraintSet | None:
    """Pick the reduced search space strictly between a found MUS and its seed.

    The target cardinality is floor(factor * |s_max|); returns None when that
    cannot strictly contain the MUS. The extra members are the lowest-index
    constraints of s_max missing from s_mus, keeping traces reproducible.
    """
    if not s_mus.is_subset_of(s_max) or s_mus == s_max:
        raise PreconditionError("s_mus must be a proper subset of s_max")
    target = math.floor(factor * len(s_max) + _FLOOR_EPS)
    if target <= len(s_mus):
        return None
    p = s_mus
    for i in s_max - s_mus:
        if len(p) >= target:
            break
        p = p.add(i)
    return p


def enumerate_remus(instance: Instance, config: RemusConfig | None = None, sink=None) -> EnumerationResult:
    """Run the recursive enumerator to completion or budget exhaustion.

    Every MUS is handed to `sink` the moment it is found; the result also
    carries all records plus the check statistics. Raises
    InstanceSatisfiableError when the full set is satisfiable.
    """
    def search(session: Session) -> None:
        # frame depth is bounded by roughly the universe size; the caller's
        # limit comes back however the search ends
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 4 * instance.n + 1000))
        try:
            _find_muses(session, session.full, ConstraintSet.empty(instance.n), 0)
        finally:
            sys.setrecursionlimit(limit)

    return run_session(instance, config, sink, search)


def _find_muses(session: Session, s: ConstraintSet, criticals: ConstraintSet, depth: int) -> None:
    """Emit every not-yet-emitted MUS of the unsatisfiable set s.

    criticals must be critical constraints for s; the set is extended locally
    when a singleton correction set is found, and recursive calls receive
    fresh extended copies.
    """
    while True:
        session.check_budget()
        s_max = session.map.max_unexplored_subset_of(s)
        if s_max is None:
            return
        if session.oracle.is_sat(s_max):
            # the witness meets s in s_max, since every larger subset of s is
            # up-blocked; beyond s it spares sibling frames and later seeds
            session.map.block_down(session.oracle.witness)
            s_mcs = s - s_max
            if len(s_mcs) == 1:
                criticals = criticals | s_mcs
            else:
                # each c is critical for s_max + {c}; the shared map lets later
                # siblings skip whatever earlier ones already resolved
                for c in s_mcs:
                    _find_muses(session, s_max.add(c), criticals.add(c), depth + 1)
        else:
            mus = session.shrink_and_emit(s_max, criticals, session.oracle.core, depth)
            if mus != s_max:
                p = choose_p(mus, s_max, session.config.reduction_factor)
                if p is not None:
                    _find_muses(session, p, criticals, depth + 1)
