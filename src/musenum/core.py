"""Constraint-universe set algebra, the errors, and the record of one emitted MUS."""

from __future__ import annotations

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
        return (b - 1 for b in set_bits(self.mask))

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool(self.mask >> i & 1)

    def __or__(self, other: "ConstraintSet") -> "ConstraintSet":
        require_universe(other, self.n)
        return ConstraintSet(self.n, self.mask | other.mask)

    def __sub__(self, other: "ConstraintSet") -> "ConstraintSet":
        require_universe(other, self.n)
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
        require_universe(other, self.n)
        return self.mask & ~other.mask == 0

    def indices_1based(self) -> list[int]:
        return set_bits(self.mask)


def require_universe(s: ConstraintSet, n: int) -> None:
    """Raise UniverseMismatchError unless s is a set over a universe of n constraints."""
    if s.n != n:
        raise UniverseMismatchError(f"set over universe {s.n}, expected universe {n}")


def is_int(value) -> bool:
    """An int that is not a bool: True is no variable and no budget, and 1.0 no integer."""
    return isinstance(value, int) and not isinstance(value, bool)


def set_bits(mask: int) -> list[int]:
    """The 1-based positions of the set bits of a non-negative mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


@dataclass(frozen=True)
class MusRecord:
    """One emitted MUS, the run's cumulative counters at its emission, and the shrink that found it."""

    ordinal: int
    mus: ConstraintSet
    elapsed_s: float
    oracle_checks: int
    map_solver_calls: int
    depth: int
    seed: ConstraintSet  # the unsatisfiable set the enumerator chose and the shrink started from
    criticals: ConstraintSet  # constraints known critical for the seed, which the shrink kept
    shrink_checks: int  # the oracle checks the shrink made
