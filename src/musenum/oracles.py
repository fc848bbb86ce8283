"""Satisfiability oracles over constraint subsets: CNF clauses and explicit tables."""

from __future__ import annotations

from .core import (
    ConstraintSet,
    DimacsParseError,
    MonotonicityError,
    PreconditionError,
    UniverseMismatchError,
)
from .satsolver import SatSolver

BRUTEFORCE_MAX_N = 20


class SatOracle:
    """Base for subset-satisfiability testers over a universe of n constraints.

    Implementations must be monotone: once a subset is unsatisfiable, every
    superset is too. `checks` counts every query over the oracle's lifetime;
    binding `stats` additionally mirrors the count into a session's CheckStats.
    """

    def __init__(self, n: int):
        self.n = n
        self.checks = 0
        self.stats = None

    def is_sat(self, s: ConstraintSet) -> bool:
        if s.n != self.n:
            raise UniverseMismatchError(
                f"set over universe {s.n}, oracle over universe {self.n}"
            )
        self.checks += 1
        if self.stats is not None:
            self.stats.oracle_checks += 1
        return self._solve(s)

    def _solve(self, s: ConstraintSet) -> bool:
        raise NotImplementedError


class CnfOracle(SatOracle):
    """Boolean-CNF domain: constraint i is the i-th clause of a CNF formula.

    All subset checks run on one persistent incremental solver. Clause i is
    extended with the negated selector literal for constraint i, so a check
    only passes selector assumptions; learnt clauses stay valid across checks.
    Selectors are assumed in constraint order, and the solver keeps the trail
    of the selectors a check shares with the one before it, so checks that
    differ late in that order (as consecutive shrink checks do) skip most of
    the assumption propagation. Answers depend only on the subset.
    """

    def __init__(self, num_vars: int, clauses):
        clauses = [list(c) for c in clauses]
        for cl in clauses:
            for lit in cl:
                if lit == 0 or abs(lit) > num_vars:
                    raise PreconditionError(
                        f"literal {lit} outside variable range 1..{num_vars}"
                    )
        super().__init__(len(clauses))
        self.num_vars = num_vars
        self.clauses = clauses
        self._solver = SatSolver(num_vars + self.n)
        for i, cl in enumerate(clauses):
            self._solver.add_clause(cl + [-(num_vars + 1 + i)])

    def _solve(self, s: ConstraintSet) -> bool:
        base = self.num_vars + 1
        mask = s.mask
        assumptions = [
            (base + i) if mask >> i & 1 else -(base + i) for i in range(self.n)
        ]
        return self._solver.solve(assumptions)


class TableOracle(SatOracle):
    """Explicit status table over all subsets of a small universe (n <= 20).

    Monotonicity is validated exhaustively at construction; the first
    violating edge is reported as (unsat subset, sat superset).
    """

    MAX_N = 20

    def __init__(self, statuses):
        size = len(statuses)
        n = size.bit_length() - 1
        if size < 2 or (1 << n) != size:
            raise PreconditionError(
                f"need statuses for all 2^n subsets of a non-empty universe, got {size}"
            )
        if n > self.MAX_N:
            raise PreconditionError(f"table oracle refused for n={n} > {self.MAX_N}")
        table = [bool(statuses[m]) for m in range(size)]
        for m in range(size):
            if table[m]:
                continue
            for i in range(n):
                if not m >> i & 1 and table[m | (1 << i)]:
                    raise MonotonicityError(
                        ConstraintSet(n, m), ConstraintSet(n, m | (1 << i))
                    )
        super().__init__(n)
        self._table = table

    def _solve(self, s: ConstraintSet) -> bool:
        return self._table[s.mask]


def parse_dimacs(text) -> CnfOracle:
    """Parse DIMACS CNF text into an oracle; constraint c_i is the i-th clause.

    Accepts str or bytes. Comment lines start with 'c'; exactly one
    'p cnf <vars> <clauses>' header must precede the clause data; clauses are
    whitespace-separated nonzero integer literals, each clause terminated by 0
    (clauses may span lines). Any malformation raises DimacsParseError naming
    the offending line.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8", errors="replace")
    num_vars: int | None = None
    declared: int | None = None
    header_line = 0
    clauses: list[list[int]] = []
    current: list[int] = []
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsParseError("duplicate 'p cnf' header", line_no)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsParseError(f"malformed header {line!r}", line_no)
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsParseError(f"malformed header {line!r}", line_no) from None
            if num_vars < 0 or declared < 0:
                raise DimacsParseError("negative counts in header", line_no)
            header_line = line_no
            continue
        if num_vars is None:
            raise DimacsParseError(f"clause data before header: {line!r}", line_no)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsParseError(
                    f"expected integer literal, got {token!r}", line_no
                ) from None
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsParseError(
                        f"literal {lit} exceeds the declared {num_vars} variables",
                        line_no,
                    )
                current.append(lit)
    if num_vars is None:
        raise DimacsParseError("missing 'p cnf' header", max(line_no, 1))
    if current:
        raise DimacsParseError("unterminated clause at end of input", line_no)
    if len(clauses) != declared:
        raise DimacsParseError(
            f"header declares {declared} clauses, file has {len(clauses)}",
            header_line,
        )
    return CnfOracle(num_vars, clauses)


def bruteforce_all_muses(oracle: SatOracle) -> set[ConstraintSet]:
    """Reference MUS enumeration by exhaustive subset inspection (n <= 20).

    A set qualifies iff it is unsatisfiable and every single-constraint
    removal is satisfiable. Each subset's status is queried exactly once.
    """
    n = oracle.n
    if n > BRUTEFORCE_MAX_N:
        raise PreconditionError(f"brute force refused for n={n} > {BRUTEFORCE_MAX_N}")
    status = [oracle.is_sat(ConstraintSet(n, m)) for m in range(1 << n)]
    muses = set()
    for m in range(1 << n):
        if status[m]:
            continue
        rest = m
        minimal = True
        while rest:
            low = rest & -rest
            if not status[m ^ low]:
                minimal = False
                break
            rest ^= low
        if minimal:
            muses.add(ConstraintSet(n, m))
    return muses


def is_mus(oracle: SatOracle, s: ConstraintSet) -> bool:
    """Definition check: s is unsatisfiable and every single removal is satisfiable."""
    if oracle.is_sat(s):
        return False
    return all(oracle.is_sat(s.remove(i)) for i in s)
