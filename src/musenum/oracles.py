"""Satisfiability oracles over constraint subsets: the CNF oracle, DIMACS in and out, and `is_mus`.

`SatOracle` is the interface an enumerator needs from any constraint domain;
`CnfOracle` is the one domain the package ships.
"""

from __future__ import annotations

import random

from .core import ConstraintSet, DimacsParseError, PreconditionError, is_int, require_universe
from .satsolver import SatSolver


class SatOracle:
    """Base for subset-satisfiability testers over a universe of n constraints.

    Implementations must be monotone: once a subset is unsatisfiable, every
    superset is too. `checks` counts every query over the oracle's lifetime.

    After each query, `witness` is a satisfiable superset of the query when it
    was satisfiable (the query itself unless the domain knows a larger one),
    and None when it was not. Blocking the witness rather than the query is
    sound, and lets an enumerator skip the larger set as well.

    Dually, `core` is an unsatisfiable subset of the query when it was
    unsatisfiable (the query itself unless the domain knows a smaller one),
    and None when it was not. Every unsatisfiable subset of a set keeps that
    set's critical constraints, so a shrink may continue from the core.

    After a SAT answer to `work - {critical}` where `work` is unsatisfiable,
    `rotate(work, critical, known)` may return further constraints d of
    `work` that the same answer proves critical, each with a satisfiable set
    that holds `work - {d}` and not d. Constraints in `known` may come back
    too, with a new satisfiable set; the others are newly proved critical. It
    evaluates constraints under what the answer already found and makes no
    check; the base class returns none.
    """

    def __init__(self, n: int):
        self.n = n
        self.checks = 0
        self.witness: ConstraintSet | None = None
        self.core: ConstraintSet | None = None

    def is_sat(self, s: ConstraintSet) -> bool:
        require_universe(s, self.n)
        self.checks += 1
        sat, mask = self._solve(s)
        found = ConstraintSet(self.n, mask)
        self.witness = found if sat else None
        self.core = None if sat else found
        return sat

    def _solve(self, s: ConstraintSet) -> tuple[bool, int]:
        """(True, mask of a satisfiable superset of s) or (False, mask of an unsatisfiable subset)."""
        raise NotImplementedError

    def rotate(
        self, work: ConstraintSet, critical: int, known: ConstraintSet
    ) -> list[tuple[int, ConstraintSet]]:
        """Pairs (d, witness): d is critical for work; witness is satisfiable, holds work - {d}, lacks d.

        Valid right after a SAT answer to `work - {critical}`, with work
        unsatisfiable. `critical` is never returned; a member of `known`
        (constraints the caller already knows to be critical) may be, and a
        call may stop once every other member of work is returned or known.
        """
        return []


class CnfOracle(SatOracle):
    """Boolean-CNF domain: constraint i is the i-th clause of a CNF formula.

    All subset checks run on one persistent incremental solver. Clause i is
    extended with the negated selector literal for constraint i, so a check
    only passes selector assumptions; learnt clauses stay valid across checks.
    The selectors follow the formula's variables in the solver, which
    assumes them in constraint order, true for the queried constraints, and
    keeps the trail of the selectors a check shares with the one before it,
    so checks that differ late in that order (as consecutive shrink checks
    do) skip most of the assumption propagation. It also keeps long runs of
    negated selectors out of its learnt clauses, in guards (see
    musenum.satsolver), which makes an UNSAT proof over many constraints
    cheaper.

    The witness of a SAT answer is the set of clauses its model satisfies;
    verdicts, models and witnesses depend only on the subset. The core of an
    UNSAT answer is the solver's mask of failed selectors as it comes, since
    selector i is constraint i. Which selectors it names depends on the
    solver's derivation, and so on the checks before, not only on the query.

    Rotation (recursive model rotation; Belov & Marques-Silva, FMCAD 2011)
    starts from the solver's model M of the last SAT answer, which holds the
    formula's variables only and satisfies work - {c} and falsifies c; after
    an UNSAT answer there is no model, and rotation raises RuntimeError.
    Flipping one variable of c satisfies c; if it falsifies exactly one clause
    d of work, d is critical, and rotation goes on from the flipped model. It
    goes on through clauses already known to be critical (Wieringa, CP 2012),
    visits each clause at most once per call, and stops once every other
    clause of work is named or known. Each clause it reaches, known or not,
    comes back with a witness: the flipped model's clause set, grown by free
    flips. A flip is free when it satisfies a clause that is still
    unsatisfied and leaves every clause a true variable; the growth flips a
    copy, and rotation goes on from the ungrown model. For M the oracle
    keeps every clause's count of true variables as bit planes (plane k
    holds bit k of each count), made by one pass over the variables when the
    solver finds the model. A flip of v updates them from the two masks of
    the clauses v occurs in: a borrow on the clauses whose true literal of v
    turns false, a carry on those whose false literal of v turns true, and a
    tautology on v keeps its count. "Exactly one true variable" is plane 0
    without the higher planes, so rotation reads each model with a few
    operations on masks and never passes over the variables.

    Each witness is checked with one mask test: a SAT answer's must hold the
    query, and a rotation's must hold work - {d} and not d. A witness that
    fails, as a corrupted clause count would make one, raises RuntimeError
    rather than reach the map.
    """

    def __init__(self, num_vars: int, clauses):
        if not is_int(num_vars) or num_vars < 0:
            raise PreconditionError(f"num_vars must be a non-negative integer, got {num_vars!r}")
        clauses = [list(c) for c in clauses]
        top = 0  # the highest variable a clause uses; the solver holds none above it
        for cl in clauses:
            for lit in cl:
                if not is_int(lit) or lit == 0:
                    raise PreconditionError(f"literal {lit!r} is not a non-zero integer")
                if abs(lit) > top:
                    top = abs(lit)
        if top > num_vars:
            raise PreconditionError(f"a clause uses variable {top}, beyond num_vars={num_vars}")
        super().__init__(len(clauses))
        self.num_vars = num_vars
        self.clauses = clauses
        self._top = top
        self._solver = SatSolver(top, selectors=self.n)
        for i, cl in enumerate(clauses):
            self._solver.add_clause(cl + [-(top + 1 + i)])
        self._planes = [0]  # the bit planes of the last model's clause counts of true variables
        self._satisfies: list[list[int]] = []  # per variable: [if true, if false]

    def _solve(self, s: ConstraintSet) -> tuple[bool, int]:
        solver = self._solver
        if not solver.solve(s.mask << self._top):
            return False, solver.failed_selectors()
        bits = solver.model_mask
        self._planes = planes = [0]
        for t, f in self._occurrences():
            _carry(planes, t if bits & 1 else f)
            bits >>= 1
        satisfied, _ = _true_counts(planes)
        if s.mask & ~satisfied:
            raise RuntimeError(f"the model's clause set {satisfied:#x} misses a clause of {s.mask:#x}")
        return True, satisfied

    def _occurrences(self) -> list[list[int]]:
        """Per variable, the masks of the clauses it makes true: [if true, if false]."""
        if not self._satisfies:  # built here, so constructing an oracle pays nothing for it
            self._satisfies = [[0, 0] for _ in range(self._top)]
            for i, cl in enumerate(self.clauses):
                for lit in cl:
                    self._satisfies[abs(lit) - 1][lit < 0] |= 1 << i
        return self._satisfies

    def rotate(
        self, work: ConstraintSet, critical: int, known: ConstraintSet
    ) -> list[tuple[int, ConstraintSet]]:
        n = self.n
        occurrences = self._occurrences()
        wanted = work.mask & ~(1 << critical) & ~known.mask
        # a free flip satisfying d would satisfy the unsatisfiable work, so
        # only the clauses outside work can grow a witness
        outside = (1 << n) - 1 & ~work.mask
        found = []
        seen = 1 << critical
        stack = [(self._solver.model_mask, self._planes, critical)]
        while stack and wanted & ~seen:
            model, planes, c = stack.pop()
            once, twice = _true_counts(planes)
            for lit in self.clauses[c]:
                v = abs(lit) - 1
                t, f = occurrences[v]
                now, flipped = (t, f) if model >> v & 1 else (f, t)
                lost = now & ~(twice | flipped)  # clauses whose only true variable is v
                falsified = work.mask & lost
                if falsified & (falsified - 1) or not falsified & ~seen:
                    continue  # not exactly one clause of work, or one seen already
                seen |= falsified
                d = falsified.bit_length() - 1
                # a clause holding both literals of v (a tautology) keeps its count
                child = planes.copy()
                _borrow(child, now & ~flipped)
                _carry(child, flipped & ~now)
                rotated = model ^ (1 << v)
                witness = once & ~lost | flipped  # the clause set of the rotated model
                if outside & ~witness:
                    witness = self._grow(rotated, child, outside)
                if witness & falsified or work.mask & ~witness & ~falsified:
                    raise RuntimeError(f"rotation witness {witness:#x} is not {work.mask:#x} without {d}")
                found.append((d, ConstraintSet(n, witness)))
                stack.append((rotated, child, d))  # rotation goes on from the ungrown model
        return found

    def _grow(self, model: int, planes: list[int], scan: int) -> int:
        """The clause set of `model` after free flips, found among the clauses of `scan`.

        A flip is free when it satisfies a clause that is still unsatisfied
        and leaves no clause without a true variable. The first free flip in
        clause order is made, on a copy of `planes`, until there is none;
        only the literals of unsatisfied clauses in `scan` are read.
        """
        occurrences = self._satisfies  # built by rotate, the one caller
        once, twice = _true_counts(planes)
        unsatisfied = scan & ~once
        while unsatisfied:
            low = unsatisfied & -unsatisfied
            unsatisfied ^= low
            for lit in self.clauses[low.bit_length() - 1]:
                v = abs(lit) - 1
                t, f = occurrences[v]
                now, gain = (t, f) if model >> v & 1 else (f, t)
                if not now & ~(twice | gain):  # no clause has v as its only true variable
                    planes = planes.copy()
                    _borrow(planes, now & ~gain)
                    _carry(planes, gain & ~now)
                    model ^= 1 << v
                    once, twice = _true_counts(planes)
                    unsatisfied = scan & ~once  # from the first again: the flip may free a clause passed
                    break
        return once


def _true_counts(planes: list[int]) -> tuple[int, int]:
    """The clauses with at least one and with at least two true variables, from their bit planes."""
    twice = 0
    for plane in planes[1:]:
        twice |= plane
    return planes[0] | twice, twice


def _carry(planes: list[int], gain: int) -> None:
    """Add one to the count of every clause in `gain`, in bit planes."""
    for k, plane in enumerate(planes):
        planes[k] = plane ^ gain
        gain &= plane
        if not gain:
            return
    planes.append(gain)


def _borrow(planes: list[int], lose: int) -> None:
    """Subtract one from the count of every clause in `lose`; each count is at least one."""
    k = 0
    while lose:
        plane = planes[k]
        planes[k] = plane ^ lose
        lose &= ~plane
        k += 1


def parse_dimacs(text) -> CnfOracle:
    """Parse DIMACS CNF text into an oracle; constraint c_i is the i-th clause.

    Accepts str or bytes. Comment lines start with 'c'; exactly one
    'p cnf <vars> <clauses>' header must precede the clause data; clauses are
    whitespace-separated nonzero integer literals, each clause terminated by 0
    (clauses may span lines). A line that begins with '%' ends the clause
    data, as in SATLIB's uniform random 3-SAT files. Any malformation raises
    DimacsParseError naming the offending line.
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
                if line.startswith("%"):
                    break
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
        else:
            continue
        break  # the '%' line: nothing after it is clause data
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


def to_dimacs(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in clauses)
    return "\n".join(lines) + "\n"


def random_cnf(num_vars: int, num_clauses: int, width: int = 3, seed: int = 0) -> list[list[int]]:
    """Seeded random CNF clause list; each clause uses `width` distinct variables."""
    if num_vars < 1 or num_clauses < 0 or width < 1:
        raise PreconditionError("invalid generator parameters")
    rng = random.Random(seed)
    actual_width = min(width, num_vars)
    clauses = []
    for _ in range(num_clauses):
        chosen = sorted(rng.sample(range(1, num_vars + 1), actual_width))
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return clauses


def is_mus(oracle: SatOracle, s: ConstraintSet) -> bool:
    """Definition check: s is unsatisfiable and every single removal is satisfiable."""
    if oracle.is_sat(s):
        return False
    return all(oracle.is_sat(s.remove(i)) for i in s)
