"""Flat seed-and-shrink MUS enumeration baseline.

Seeds are always maximal undetermined subsets of the whole universe and the
shrink never receives critical constraints; everything else (map, oracle,
shrink procedure, statistics, budgets) is shared with the recursive
enumerator, so check-count comparisons isolate the seed-selection strategy.
"""

from __future__ import annotations

from .core import ConstraintSet, Instance
from .session import EnumerationResult, RemusConfig, Session, run_session


def enumerate_marco(instance: Instance, config: RemusConfig | None = None, sink=None) -> EnumerationResult:
    """Enumerate MUSes by repeatedly shrinking maximal undetermined subsets."""
    return run_session(instance, config, sink, _search)


def _search(session: Session) -> None:
    no_criticals = ConstraintSet.empty(session.full.n)
    while True:
        session.check_budget()
        s_max = session.map.max_unexplored_subset_of(session.full)
        if s_max is None:
            return
        if session.oracle.is_sat(s_max):
            # maximal undetermined + satisfiable == maximal satisfiable == witness
            session.map.block_down(session.oracle.witness)
        else:
            session.shrink_and_emit(s_max, no_criticals, session.oracle.core, 0)
