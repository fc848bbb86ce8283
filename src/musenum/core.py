"""Constraint-universe set algebra, the errors, and the run records: MusRecord, ShrinkCall, CheckStats."""

from __future__ import annotations

import time
from dataclasses import dataclass


class MusError(Exception):
    """Base class for all errors raised by this package."""


class UniverseMismatchError(MusError):
    """Two constraint sets (or a set and an oracle/map) disagree on universe size."""


class PreconditionError(MusError, ValueError):
    """An operation was invoked outside its documented precondition."""


class InstanceSatisfiableError(MusError):
    """The full constraint set is satisfiable, so there is nothing to enumerate."""


class DimacsParseError(MusError):
    """Malformed DIMACS CNF input; `line` is the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MonotonicityError(MusError):
    """A status table claims an unsatisfiable set with a satisfiable superset."""

    def __init__(self, subset: "ConstraintSet", superset: "ConstraintSet"):
        super().__init__(
            f"monotonicity violated: {subset} is unsat but its superset {superset} is sat"
        )
        self.subset = subset
        self.superset = superset


@dataclass(frozen=True)
class ConstraintSet:
    """Immutable subset of a constraint universe of size n, stored as a bitmask.

    Bit i corresponds to the (i+1)-th constraint of the instance: indices are
    0-based internally and 1-based in all human-facing I/O. All binary
    operations require both operands to share the same universe size.
    """

    n: int
    mask: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise PreconditionError("universe size must be non-negative")
        if not 0 <= self.mask < (1 << self.n):
            raise PreconditionError(f"mask {self.mask:#x} out of range for n={self.n}")

    @classmethod
    def empty(cls, n: int) -> "ConstraintSet":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "ConstraintSet":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_indices(cls, n: int, indices) -> "ConstraintSet":
        """Build from 0-based constraint indices."""
        mask = 0
        for i in indices:
            if not 0 <= i < n:
                raise PreconditionError(f"index {i} out of range for n={n}")
            mask |= 1 << i
        return cls(n, mask)

    @classmethod
    def from_bits(cls, bits: str) -> "ConstraintSet":
        """Build from a bitstring whose leftmost character is constraint 1."""
        if any(ch not in "01" for ch in bits):
            raise PreconditionError(f"bitstring must contain only 0/1: {bits!r}")
        mask = 0
        for i, ch in enumerate(bits):
            if ch == "1":
                mask |= 1 << i
        return cls(len(bits), mask)

    def bits(self) -> str:
        return "".join("1" if self.mask >> i & 1 else "0" for i in range(self.n))

    def __repr__(self):
        if self.n <= 32:
            return f"ConstraintSet({self.bits()!r})"
        return f"ConstraintSet(n={self.n}, size={len(self)})"

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        """0-based member indices in ascending order."""
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool(self.mask >> i & 1)

    def _require_same_universe(self, other: "ConstraintSet") -> None:
        if self.n != other.n:
            raise UniverseMismatchError(
                f"universe sizes differ: {self.n} vs {other.n}"
            )

    def __or__(self, other: "ConstraintSet") -> "ConstraintSet":
        self._require_same_universe(other)
        return ConstraintSet(self.n, self.mask | other.mask)

    def __and__(self, other: "ConstraintSet") -> "ConstraintSet":
        self._require_same_universe(other)
        return ConstraintSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "ConstraintSet") -> "ConstraintSet":
        self._require_same_universe(other)
        return ConstraintSet(self.n, self.mask & ~other.mask)

    def add(self, i: int) -> "ConstraintSet":
        if not 0 <= i < self.n:
            raise PreconditionError(f"index {i} out of range for n={self.n}")
        return ConstraintSet(self.n, self.mask | (1 << i))

    def remove(self, i: int) -> "ConstraintSet":
        if i not in self:
            raise PreconditionError(f"index {i} is not a member")
        return ConstraintSet(self.n, self.mask & ~(1 << i))

    def is_subset_of(self, other: "ConstraintSet") -> bool:
        self._require_same_universe(other)
        return self.mask & ~other.mask == 0

    def indices_1based(self) -> list[int]:
        return set_bits(self.mask)


def set_bits(mask: int) -> list[int]:
    """The 1-based positions of the set bits of a non-negative mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


class Antichain(set):
    """Subset masks of which none lies inside another: the maximal masks added so far.

    Adding a mask that lies inside a stored one stores nothing; adding any
    other mask drops the stored masks inside it. A mask lies inside some added
    mask exactly when it lies inside a stored one.
    """

    def add(self, mask: int) -> bool:
        """Store mask and return True, unless it is covered.

        A covered mask is not stored and returns False. Storing drops the
        stored masks inside mask; one pass decides both, since in an antichain
        no mask lies inside one stored mask and contains another.
        """
        inside = []
        for m in self:
            common = mask & m
            if common == mask:
                return False
            if common == m:
                inside.append(m)
        self.difference_update(inside)
        super().add(mask)
        return True


@dataclass
class Instance:
    """A constraint universe bound to its satisfiability oracle."""

    oracle: object

    def __post_init__(self):
        if self.oracle.n < 1:
            raise PreconditionError("an instance needs at least one constraint")

    @property
    def n(self) -> int:
        return self.oracle.n


@dataclass(frozen=True)
class MusRecord:
    """One emitted MUS with the run's cumulative counters at its emission."""

    ordinal: int
    mus: ConstraintSet
    elapsed_s: float
    oracle_checks: int
    map_solver_calls: int
    depth: int


@dataclass(frozen=True)
class ShrinkCall:
    """Diagnostics for one shrink invocation: its seed, criticals and check cost."""

    seed: ConstraintSet
    criticals: ConstraintSet
    checks: int


class CheckStats:
    """One run's records as they are made, and its counts, written when it ends.

    The final counts are copies, so they do not move if the oracle is queried again.
    """

    def __init__(self):
        self.oracle_checks = 0
        self.map_solver_calls = 0
        self.covered_trials = 0  # shrink trials the map answered satisfiable, with no check
        self.start_time = time.monotonic()
        self.per_mus: list[MusRecord] = []
        self.shrink_log: list[ShrinkCall] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start_time
