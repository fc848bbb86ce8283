"""Shared enumeration session: configuration, budgets, emission and blocking.

Oracle checks and map calls are counted only by the oracle and the map; the
session reads them there, and the run copies the final counts into its
EnumerationResult once. The frame loop that drives a session, for both
algorithms, is in musenum.remus.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

from .core import ConstraintSet, MusRecord, PreconditionError
from .shrink import shrink
from .unexplored import UnexploredMap


@dataclass(frozen=True)
class RemusConfig:
    """The run parameters of both enumeration algorithms, and their one validation.

    reduction_factor sizes the reduced search space after each found MUS (only
    the recursive algorithm uses it).

    All budgets are optional and are checked between steps. check_limit caps
    cumulative oracle checks deterministically, where wall-clock limits would
    make runs irreproducible, but it may be overshot: the full-set check
    always runs, and a shrink in flight is never cut. A run ends with at most
    max(check_limit, 1) + max(0, k - 1) checks, where k is |seed \\ criticals|
    of its last shrink.

    A config is frozen, so the values it was validated with are the values a
    run reads.
    """

    reduction_factor: float = 0.9
    mus_limit: int | None = None
    time_limit: float | None = None
    check_limit: int | None = None

    def __post_init__(self):
        if not (_real(self.reduction_factor) and 0.0 < self.reduction_factor < 1.0):
            raise PreconditionError("reduction_factor must lie strictly between 0 and 1")
        if self.mus_limit is not None and not _int_at_least(self.mus_limit, 1):
            raise PreconditionError("mus_limit must be an integer of at least 1")
        if self.time_limit is not None and not (_real(self.time_limit) and self.time_limit >= 0):  # NaN too
            raise PreconditionError("time_limit must be a non-negative number")
        if self.check_limit is not None and not _int_at_least(self.check_limit, 0):
            raise PreconditionError("check_limit must be a non-negative integer")


def _real(value) -> bool:
    # True is no time budget, and a string does not compare with numbers
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _int_at_least(value, low: int) -> bool:
    # NaN, 1.5 and True are no budgets
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


@dataclass
class EnumerationResult:
    """The record of one enumeration run, finished or budget-stopped.

    The session fills `records`, one per emitted MUS and its shrink, as the run
    goes. When the run ends it writes the rest once: the counts are copies, so
    they do not move if the oracle is queried again; `covered_trials` counts
    the shrink trials the map answered satisfiable, with no check.

    block_log is the map's chronological ("down"|"up", subset mask) record;
    replaying it against the oracle is the standard soundness check. Each
    down-block is an oracle witness, a satisfiable superset of a set found
    satisfiable; each up-block is an emitted MUS.
    """

    records: list[MusRecord] = field(default_factory=list)
    start_time: float = field(default_factory=time.monotonic)
    oracle_checks: int = 0
    map_solver_calls: int = 0
    covered_trials: int = 0
    complete: bool = False
    block_log: list[tuple[str, int]] = field(default_factory=list)

    def elapsed(self) -> float:
        return time.monotonic() - self.start_time

    @property
    def muses(self) -> list[ConstraintSet]:
        return [record.mus for record in self.records]


class BudgetReached(Exception):
    """Internal stop signal: a budget expired; all emitted state stays valid."""


class Session:
    """Single-threaded enumeration state: one map, one oracle, one run record."""

    def __init__(self, oracle, config: RemusConfig, sink=None):
        self.oracle = oracle
        self.config = config
        self.sink = sink
        self.map = UnexploredMap(oracle.n)  # rejects an empty universe
        self.result = EnumerationResult()
        self.full = ConstraintSet.full(oracle.n)
        self._checks_before = oracle.checks

    def oracle_checks(self) -> int:
        """Checks this session has made; the oracle may have served others before."""
        return self.oracle.checks - self._checks_before

    def check_budget(self) -> None:
        cfg = self.config
        if cfg.time_limit is not None and self.result.elapsed() >= cfg.time_limit:
            raise BudgetReached
        if cfg.check_limit is not None and self.oracle_checks() >= cfg.check_limit:
            raise BudgetReached

    def emit(self, mus: ConstraintSet, depth: int, seed: ConstraintSet, criticals: ConstraintSet,
             shrink_checks: int) -> None:
        # mus and depth stay first: bench/tracing.py reads depth by position
        records = self.result.records
        record = MusRecord(
            len(records) + 1, mus, self.result.elapsed(), self.oracle_checks(),
            self.map.solver_calls, depth, seed, criticals, shrink_checks,
        )
        records.append(record)
        if self.sink is not None:
            self.sink(record)
        limit = self.config.mus_limit
        if limit is not None and len(records) >= limit:
            raise BudgetReached

    def shrink_and_emit(self, seed: ConstraintSet, criticals: ConstraintSet, depth: int) -> ConstraintSet:
        """Shrink an unsatisfiable seed, emit its MUS and block what was learnt.

        The map up-blocks the MUS and down-blocks the oracle's witness of
        every satisfiable set the shrink found, so later seeds skip them. The
        seed is the set the enumerator chose and found unsatisfiable, and the
        MUS's record keeps it; that check is the oracle's last, and the shrink
        starts from its core, an unsatisfiable subset of the seed.
        """
        self.check_budget()
        before = self.oracle_checks()
        mus, discoveries = shrink(self.oracle, seed, criticals, self.oracle.core, self.map)
        self.emit(mus, depth, seed, criticals, self.oracle_checks() - before)
        self.check_budget()
        for sat_set in discoveries:
            self.map.block_down(sat_set)
        # no down-block: a proper subset lies in the blocked witness that proved a member critical
        self.map.block_up(mus)
        return mus
