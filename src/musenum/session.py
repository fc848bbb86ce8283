"""The enumeration run: remus and its flat baseline marco, one frame loop and its shrink.

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

A satisfiable seed s_max of a frame over s has its witness down-blocked, and
its model is then rotated (`SatOracle.rotate`) with no check: each c in
s - s_max makes s_max + {c} unsatisfiable, as the map has it up-blocked, and
the seed's check is still the oracle's last answer. Each distinct
satisfiable set the rotations return is down-blocked too. For marco, s is
the universe, so the rotations run through the whole complement of s_max.

Every budget is one stop rule, `Session._spent`, which the loop tests
between steps and right after each emit; a stopped loop returns, and the
run's EnumerationResult says it is incomplete. Oracle checks and map calls
are counted only by the oracle and the map; the session reads them there,
and builds the result once, when the run ends.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

from .core import ConstraintSet, InstanceSatisfiableError, MusRecord, PreconditionError, is_int
from .unexplored import UnexploredMap

# floor() on the float product; the epsilon undoes binary representation
# error when the true product is integral
_FLOOR_EPS = 1e-9


@dataclass(frozen=True)
class RemusConfig:
    """The run parameters of both enumeration algorithms, and their one validation.

    reduction_factor sizes the reduced search space after each found MUS (only
    the recursive algorithm uses it).

    All budgets are optional and form one stop rule, tested between steps
    and right after each emit, so mus_limit is exact. check_limit caps
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
    satisfiable, or a satisfiable set that rotation found from a model; each
    up-block is an emitted MUS.
    """

    records: list[MusRecord]
    elapsed_s: float
    oracle_checks: int
    map_solver_calls: int
    covered_trials: int
    complete: bool
    block_log: list[tuple[str, int]]


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


def shrink(oracle, seed: ConstraintSet, criticals: ConstraintSet, core: ConstraintSet, umap):
    """Minimize an unsatisfiable seed without ever dropping known criticals.

    The working set starts as `core`, the unsatisfiable subset of the seed
    that the caller's own check of the seed returned. Its members outside the
    criticals are tried in ascending index order, skipping those no longer in
    the working set: if removal leaves the set satisfiable the constraint is
    critical and kept, otherwise the working set jumps to the oracle's core of
    that trial (clause-set refinement), which may drop several candidates at
    once. A core keeps every critical, since removing a critical leaves a
    satisfiable set, so the result is a MUS of the seed.

    A trial inside a down-blocked set of `umap`, the run's map, is satisfiable
    and needs no check. The map names those candidates once per working set
    (`covered_members`), which holds because the frame loop changes the map
    only after a shrink returns; each one the loop reaches is counted in
    `umap.covered_trials`.

    After each satisfiable check the oracle's `rotate` may prove further
    members of the working set critical without a check; they are skipped
    like the given criticals, and stay critical in every later working set,
    which is a subset holding them. Uses at most
    |core \\ criticals| <= |seed \\ criticals| oracle checks.

    Returns (mus, sat_discoveries) where sat_discoveries holds the oracle's
    witness (a satisfiable superset of the trial) of every satisfiable check,
    and the satisfiable set of every member that rotation returned, newly
    proved critical or not. Each mask is kept once, the first time it comes:
    rotation passes again through members proved before, often to the same
    set.
    """
    if not criticals.is_subset_of(seed):
        raise PreconditionError("criticals must be a subset of the seed")
    n = seed.n
    work = core.mask
    covered = umap.covered_members(work)
    proven = criticals.mask
    discoveries: dict[int, ConstraintSet] = {}  # by mask, so each set is kept once
    candidates = work & ~proven
    while candidates:
        bit = candidates & -candidates
        candidates ^= bit
        if not work & bit or proven & bit:
            continue
        if covered & bit:
            proven |= bit
            umap.covered_trials += 1
        elif oracle.is_sat(ConstraintSet(n, work ^ bit)):
            proven |= bit
            discoveries.setdefault(oracle.witness.mask, oracle.witness)
            rotated = oracle.rotate(ConstraintSet(n, work), bit.bit_length() - 1, ConstraintSet(n, proven))
            for d, witness in rotated:
                proven |= 1 << d
                discoveries.setdefault(witness.mask, witness)
        else:
            work = oracle.core.mask
            covered = umap.covered_members(work)
    return ConstraintSet(n, work), list(discoveries.values())


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

    def _spent(self) -> bool:
        """Whether a budget is used up: the MUS cap, the time limit or the check limit."""
        cfg = self.config
        return (
            (cfg.mus_limit is not None and len(self.records) >= cfg.mus_limit)
            or (cfg.time_limit is not None and self.elapsed() >= cfg.time_limit)
            or (cfg.check_limit is not None and self.oracle_checks() >= cfg.check_limit)
        )

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

    def run(self, descend: bool) -> EnumerationResult:
        """Run the frame loop to its end or to a budget stop and build the result."""
        if self.oracle.is_sat(self.full):
            raise InstanceSatisfiableError("the full constraint set is satisfiable")
        complete = self._search(descend)
        return EnumerationResult(
            records=self.records,
            elapsed_s=self.elapsed(),
            oracle_checks=self.oracle_checks(),
            map_solver_calls=self.map.solver_calls,
            covered_trials=self.map.covered_trials,
            complete=complete,
            block_log=self.map.block_log,
        )

    def _search(self, descend: bool) -> bool:
        """Emit every MUS, running each FindMUSes call of the paper as a frame.

        A frame (s, criticals, depth) emits every not-yet-emitted MUS of the
        unsatisfiable set s, given constraints critical for s. Children depend
        only on their parent's state at the answer that spawns them and leave
        it unchanged, so one answer pushes all of them, the first on top.
        Without `descend` the first frame, over the full set, is the only one,
        and its criticals stay empty. Returns True when the map runs out and
        False at a budget stop.
        """
        stack = [(self.full, ConstraintSet.empty(self.full.n), 0)]
        while stack:
            if self._spent():
                return False
            s, criticals, depth = stack[-1]
            s_max = self.map.max_unexplored_subset_of(s)
            if s_max is None:
                stack.pop()
            # only the first seed is the full set; the precondition's check and core answer it
            elif s_max != self.full and self.oracle.is_sat(s_max):
                # the witness meets s in s_max, since every larger subset of s is
                # up-blocked; beyond s it spares sibling frames and later seeds
                self.map.block_down(self.oracle.witness)
                # each s_max + {c} is up-blocked, so unsatisfiable, and s_max's check
                # is still the oracle's last answer: its model rotates through every c
                s_mcs = s - s_max
                rotated = {}
                for c in s_mcs:
                    for _, witness in self.oracle.rotate(s_max.add(c), c, criticals.add(c)):
                        rotated.setdefault(witness.mask, witness)
                for witness in rotated.values():
                    self.map.block_down(witness)
                if not descend:
                    continue
                if len(s_mcs) == 1:
                    stack[-1] = (s, criticals | s_mcs, depth)
                else:
                    # each c is critical for s_max + {c}; the shared map lets later
                    # siblings skip whatever earlier ones already resolved
                    stack.extend((s_max.add(c), criticals.add(c), depth + 1) for c in reversed(list(s_mcs)))
            else:
                if self._spent():
                    return False
                # s_max's check, unsatisfiable, is the oracle's last: shrink starts from its core
                before = self.oracle_checks()
                mus, discoveries = shrink(self.oracle, s_max, criticals, self.oracle.core, self.map)
                self.emit(mus, depth, s_max, criticals, self.oracle_checks() - before)
                if self._spent():
                    return False
                # down-block the witness of every satisfiable set the shrink met, so
                # later seeds skip them; after the emit, so the MUS is out first
                for sat_set in discoveries:
                    self.map.block_down(sat_set)
                # no down-block: a proper subset lies in the blocked witness that proved a member critical
                self.map.block_up(mus)
                if descend and mus != s_max:
                    p = choose_p(mus, s_max, self.config.reduction_factor)
                    if p is not None:
                        stack.append((p, criticals, depth + 1))
        return True


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
