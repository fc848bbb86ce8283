"""remus: online MUS enumeration with MCS-based critical mining.

Each found MUS restricts the next seed search to a set strictly between the
MUS and its seed, so successive seeds shrink; satisfiable maximal subsets
yield their correction sets, whose members are critical constraints that
speed up later shrinks. The paper's recursion runs on an explicit stack of
frames, so depth is bounded by memory, not by the interpreter's recursion
limit. The map of undetermined subsets is global across all frames, so
nothing is ever examined twice.
"""

from __future__ import annotations

import math

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
    """Run remus to completion or budget exhaustion.

    Every MUS is handed to `sink` the moment it is found; the result also
    carries all records plus the check statistics. Raises
    InstanceSatisfiableError when the full set is satisfiable.
    """
    return run_session(instance, config, sink, _search)


def _search(session: Session) -> None:
    """Emit every MUS, running each FindMUSes call of the paper as a frame.

    A frame (s, criticals, depth) emits every not-yet-emitted MUS of the
    unsatisfiable set s, given constraints critical for s. Children depend
    only on their parent's state at the answer that spawns them and leave it
    unchanged, so one answer pushes all of them, the first on top.
    """
    stack = [(session.full, ConstraintSet.empty(session.full.n), 0)]
    while stack:
        session.check_budget()
        s, criticals, depth = stack[-1]
        s_max = session.map.max_unexplored_subset_of(s)
        if s_max is None:
            stack.pop()
        elif session.oracle.is_sat(s_max):
            # the witness meets s in s_max, since every larger subset of s is
            # up-blocked; beyond s it spares sibling frames and later seeds
            session.map.block_down(session.oracle.witness)
            s_mcs = s - s_max
            if len(s_mcs) == 1:
                stack[-1] = (s, criticals | s_mcs, depth)
            else:
                # each c is critical for s_max + {c}; the shared map lets later
                # siblings skip whatever earlier ones already resolved
                stack.extend((s_max.add(c), criticals.add(c), depth + 1) for c in reversed(list(s_mcs)))
        else:
            mus = session.shrink_and_emit(s_max, criticals, session.oracle.core, depth)
            if mus != s_max:
                p = choose_p(mus, s_max, session.config.reduction_factor)
                if p is not None:
                    stack.append((p, criticals, depth + 1))
