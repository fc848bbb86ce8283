"""The enumeration run: remus and its flat baseline marco, one frame loop, two seed policies.

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

Oracle checks and map calls are counted only by the oracle and the map; the
session reads them there, and builds the run's EnumerationResult once, when
the run ends.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

from .core import ConstraintSet, InstanceSatisfiableError, MusRecord, PreconditionError, is_int
from .shrink import shrink
from .unexplored import UnexploredMap

# floor() on the float product; the epsilon undoes binary representation
# error when the true product is integral
_FLOOR_EPS = 1e-9


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
    return is_int(value) and value >= low


@dataclass(frozen=True)
class EnumerationResult:
    """The record of one enumeration run, finished or budget-stopped.

    The run builds it once, when it ends, so none of its figures moves after
    that: `records` holds one record per emitted MUS and its shrink; the
    counts are copies, so they do not move if the oracle is queried again;
    `covered_trials` counts the shrink trials the map answered satisfiable,
    with no check; and `elapsed_s` is the run's time from the session's start
    to its end, at least the last record's.

    block_log is the map's chronological ("down"|"up", subset mask) record;
    replaying it against the oracle is the standard soundness check. Each
    down-block is an oracle witness, a satisfiable superset of a set found
    satisfiable; each up-block is an emitted MUS.
    """

    records: list[MusRecord]
    elapsed_s: float
    oracle_checks: int
    map_solver_calls: int
    covered_trials: int
    complete: bool
    block_log: list[tuple[str, int]]

    @property
    def muses(self) -> list[ConstraintSet]:
        return [record.mus for record in self.records]


class BudgetReached(Exception):
    """Internal stop signal: a budget expired; all emitted state stays valid."""


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


class Session:
    """Single-threaded enumeration state: one map, one oracle, one list of records."""

    def __init__(self, oracle, config: RemusConfig, sink=None):
        self._start = time.monotonic()
        self.oracle = oracle
        self.config = config
        self.sink = sink
        self.map = UnexploredMap(oracle.n)  # rejects an empty universe
        self.records: list[MusRecord] = []
        self.full = ConstraintSet.full(oracle.n)
        self._checks_before = oracle.checks

    def elapsed(self) -> float:
        """Seconds since this session started."""
        return time.monotonic() - self._start

    def oracle_checks(self) -> int:
        """Checks this session has made; the oracle may have served others before."""
        return self.oracle.checks - self._checks_before

    def check_budget(self) -> None:
        cfg = self.config
        if cfg.time_limit is not None and self.elapsed() >= cfg.time_limit:
            raise BudgetReached
        if cfg.check_limit is not None and self.oracle_checks() >= cfg.check_limit:
            raise BudgetReached

    def emit(self, mus: ConstraintSet, depth: int, seed: ConstraintSet, criticals: ConstraintSet,
             shrink_checks: int) -> None:
        # mus and depth stay first: bench/tracing.py reads depth by position
        records = self.records
        record = MusRecord(
            len(records) + 1, mus, self.elapsed(), self.oracle_checks(),
            self.map.solver_calls, depth, seed, criticals, shrink_checks,
        )
        records.append(record)
        if self.sink is not None:
            self.sink(record)
        limit = self.config.mus_limit
        if limit is not None and len(records) >= limit:
            raise BudgetReached

    def run(self, descend: bool) -> EnumerationResult:
        """Run the frame loop to its end or to a budget stop and build the result."""
        if self.oracle.is_sat(self.full):
            raise InstanceSatisfiableError("the full constraint set is satisfiable")
        complete = False
        try:
            self._search(descend)
            complete = True
        except BudgetReached:
            pass
        return EnumerationResult(
            records=self.records,
            elapsed_s=self.elapsed(),
            oracle_checks=self.oracle_checks(),
            map_solver_calls=self.map.solver_calls,
            covered_trials=self.map.covered_trials,
            complete=complete,
            block_log=self.map.block_log,
        )

    def _search(self, descend: bool) -> None:
        """Emit every MUS, running each FindMUSes call of the paper as a frame.

        A frame (s, criticals, depth) emits every not-yet-emitted MUS of the
        unsatisfiable set s, given constraints critical for s. Children depend
        only on their parent's state at the answer that spawns them and leave
        it unchanged, so one answer pushes all of them, the first on top.
        Without `descend` the first frame, over the full set, is the only one,
        and its criticals stay empty.
        """
        stack = [(self.full, ConstraintSet.empty(self.full.n), 0)]
        while stack:
            self.check_budget()
            s, criticals, depth = stack[-1]
            s_max = self.map.max_unexplored_subset_of(s)
            if s_max is None:
                stack.pop()
            # only the first seed is the full set; the precondition's check and core answer it
            elif s_max != self.full and self.oracle.is_sat(s_max):
                # the witness meets s in s_max, since every larger subset of s is
                # up-blocked; beyond s it spares sibling frames and later seeds
                self.map.block_down(self.oracle.witness)
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
                # s_max's check, unsatisfiable, is the oracle's last, so the shrink
                # starts from its core, an unsatisfiable subset of the seed
                self.check_budget()
                before = self.oracle_checks()
                mus, discoveries = shrink(self.oracle, s_max, criticals, self.oracle.core, self.map)
                self.emit(mus, depth, s_max, criticals, self.oracle_checks() - before)
                self.check_budget()
                # down-block the witness of every satisfiable set the shrink met, so
                # later seeds skip them: after the emit, so the MUS is out first, and
                # never during the shrink, which reads the map as it stood at its start
                for sat_set in discoveries:
                    self.map.block_down(sat_set)
                # no down-block: a proper subset lies in the blocked witness that proved a member critical
                self.map.block_up(mus)
                if descend and mus != s_max:
                    p = choose_p(mus, s_max, self.config.reduction_factor)
                    if p is not None:
                        stack.append((p, criticals, depth + 1))


def enumerate_remus(oracle, config: RemusConfig | None = None, sink=None) -> EnumerationResult:
    """Run remus over the oracle's constraints to completion or budget exhaustion.

    Every MUS record is handed to `sink` the moment it is found; the result
    holds all records and the run's counts. Raises PreconditionError when
    the oracle has no constraint and InstanceSatisfiableError when the full
    set is satisfiable.
    """
    return Session(oracle, config or RemusConfig(), sink).run(descend=True)


def enumerate_marco(oracle, config: RemusConfig | None = None, sink=None) -> EnumerationResult:
    """Run marco, the flat baseline, to completion or budget exhaustion.

    Every seed is a maximal undetermined subset of the whole universe, and
    every shrink starts with no criticals; otherwise as enumerate_remus.
    """
    return Session(oracle, config or RemusConfig(), sink).run(descend=False)
