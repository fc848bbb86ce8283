"""Shared enumeration session: configuration, budgets, emission, the run skeleton.

Oracle checks and map calls are counted only by the oracle and the map; the
session reads them there and copies the final counts into CheckStats once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    CheckStats,
    ConstraintSet,
    Instance,
    InstanceSatisfiableError,
    MusRecord,
    PreconditionError,
    ShrinkCall,
)
from .shrink import shrink
from .unexplored import UnexploredMap


@dataclass
class RemusConfig:
    """Budgets and tuning knobs honoured by both enumeration algorithms.

    reduction_factor sizes the reduced search space after each found MUS (only
    the recursive algorithm uses it). feed_map blocks the oracle's witnesses
    of the satisfiable sets a shrink meets, so later seeds skip them.

    All budgets are optional and are checked between steps. check_limit caps
    cumulative oracle checks deterministically, where wall-clock limits would
    make runs irreproducible, but it may be overshot: the full-set check
    always runs, and a shrink in flight is never cut. A run ends with at most
    max(check_limit, 1) + max(0, k - 1) checks, where k is |seed \\ criticals|
    of its last shrink.
    """

    reduction_factor: float = 0.9
    mus_limit: int | None = None
    time_limit: float | None = None
    check_limit: int | None = None
    feed_map: bool = True

    def __post_init__(self):
        if not 0.0 < self.reduction_factor < 1.0:
            raise PreconditionError("reduction_factor must lie strictly between 0 and 1")
        if self.mus_limit is not None and self.mus_limit < 1:
            raise PreconditionError("mus_limit must be at least 1")
        if self.time_limit is not None and not self.time_limit >= 0:  # NaN too
            raise PreconditionError("time_limit must be a non-negative number")
        if self.check_limit is not None and self.check_limit < 0:
            raise PreconditionError("check_limit must be non-negative")


@dataclass
class EnumerationResult:
    """Everything a finished (or budget-stopped) enumeration run produced.

    block_log is the map's chronological ("down"|"up", subset mask) record;
    replaying it against the oracle is the standard soundness check. Each
    down-block is an emitted MUS or an oracle witness, a satisfiable superset
    of a set found satisfiable.
    """

    stats: CheckStats
    complete: bool
    block_log: list[tuple[str, int]]

    @property
    def records(self) -> list[MusRecord]:
        return self.stats.per_mus

    @property
    def muses(self) -> list[ConstraintSet]:
        return [record.mus for record in self.records]


class BudgetReached(Exception):
    """Internal stop signal: a budget expired; all emitted state stays valid."""


class Session:
    """Single-threaded enumeration state: one map, one oracle, one stats block."""

    def __init__(self, instance: Instance, config: RemusConfig, sink=None):
        self.oracle = instance.oracle
        self.config = config
        self.sink = sink
        self.map = UnexploredMap(instance.n)
        self.stats = CheckStats()
        self.full = ConstraintSet.full(instance.n)
        self._checks_before = self.oracle.checks

    def oracle_checks(self) -> int:
        """Checks this session has made; the oracle may have served others before."""
        return self.oracle.checks - self._checks_before

    def check_budget(self) -> None:
        cfg = self.config
        if cfg.time_limit is not None and self.stats.elapsed() >= cfg.time_limit:
            raise BudgetReached
        if cfg.check_limit is not None and self.oracle_checks() >= cfg.check_limit:
            raise BudgetReached

    def emit(self, mus: ConstraintSet, depth: int) -> None:
        per_mus = self.stats.per_mus
        record = MusRecord(
            len(per_mus) + 1, mus, self.stats.elapsed(), self.oracle_checks(),
            self.map.solver_calls, depth,
        )
        per_mus.append(record)
        if self.sink is not None:
            self.sink(record)
        limit = self.config.mus_limit
        if limit is not None and len(per_mus) >= limit:
            raise BudgetReached

    def shrink_and_emit(
        self, seed: ConstraintSet, criticals: ConstraintSet, core: ConstraintSet, depth: int
    ) -> ConstraintSet:
        """Shrink an unsatisfiable seed, emit its MUS and block what was learnt (see feed_map).

        The seed is the set the enumerator chose and found unsatisfiable, and
        the shrink log records it; `core` is the oracle's core of that check,
        the unsatisfiable subset of the seed that the shrink starts from.
        """
        self.check_budget()
        before = self.oracle_checks()
        mus, discoveries = shrink(self.oracle, seed, criticals, core)
        self.stats.shrink_log.append(ShrinkCall(seed, criticals, self.oracle_checks() - before))
        self.emit(mus, depth)
        self.check_budget()
        if self.config.feed_map:
            for sat_set in discoveries:
                self.map.block_down(sat_set)
        self.map.block_up(mus)
        self.map.block_down(mus)
        return mus


def run_session(instance: Instance, config: RemusConfig | None, sink, search) -> EnumerationResult:
    """Run `search(session)` to its end or to a budget stop and collect the result.

    Raises InstanceSatisfiableError when the full set is satisfiable.
    """
    session = Session(instance, config or RemusConfig(), sink)
    if session.oracle.is_sat(session.full):
        raise InstanceSatisfiableError("the full constraint set is satisfiable")
    complete = True
    try:
        search(session)
    except BudgetReached:
        complete = False
    stats = session.stats
    stats.oracle_checks = session.oracle_checks()
    stats.map_solver_calls = session.map.solver_calls
    return EnumerationResult(stats, complete, session.map.block_log)
