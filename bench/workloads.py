"""Seeded CNF corpora for the benchmark's workloads.

Each workload turns the workload seed into a list of unsatisfiable CNF
formulas. Generation and the unsatisfiability filter run before any timing
starts; `musenum solve` only ever sees the DIMACS files written from them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from musenum import CnfOracle, ConstraintSet


@dataclass(frozen=True)
class Formula:
    label: str
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def dimacs(self) -> str:
        lines = [f"c {self.label}", f"p cnf {self.num_vars} {len(self.clauses)}"]
        lines.extend(" ".join(map(str, clause)) + " 0" for clause in self.clauses)
        return "\n".join(lines) + "\n"

    def oracle(self) -> CnfOracle:
        return CnfOracle(self.num_vars, self.clauses)

    def is_unsat(self) -> bool:
        return not self.oracle().is_sat(ConstraintSet.full(len(self.clauses)))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweep_s: float  # about how long one run of every formula with both algorithms takes
    build: Callable[[int], list[Formula]]  # seed -> formulas
    single_full_mus: bool = False  # the only MUS is the whole formula

    def sweeps(self, seconds: float) -> int:
        """Runs per formula and algorithm; at least two, for the determinism check."""
        return max(2, round(seconds / self.sweep_s))


def random_3cnf(label: str, num_vars: int, num_clauses: int, rng: random.Random) -> Formula:
    clauses = []
    for _ in range(num_clauses):
        chosen = sorted(rng.sample(range(1, num_vars + 1), 3))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return Formula(label, num_vars, tuple(clauses))


def unsat_3cnf(num_vars: int, num_clauses: int, count: int, stream: str) -> list[Formula]:
    """The first `count` unsatisfiable formulas of a named generator stream."""
    found: list[Formula] = []
    attempt = 0
    while len(found) < count:
        rng = random.Random(f"{stream}/{attempt}")
        formula = random_3cnf(f"{stream}/{attempt}", num_vars, num_clauses, rng)
        if formula.is_unsat():
            found.append(formula)
        attempt += 1
    return found


def pigeonhole(holes: int) -> Formula:
    """PHP(holes+1, holes): every pigeon sits in a hole, no hole holds two."""
    pigeons = holes + 1

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append((-var(p, h), -var(q, h)))
    return Formula(f"php{pigeons}-{holes}", pigeons * holes, tuple(clauses))


def renamed(formula: Formula, rng: random.Random) -> Formula:
    """The same formula with its variables renamed and their polarities flipped.

    Every subset keeps its satisfiability, so each oracle answer, map call and
    MUS stays the same; only the search inside each check changes.
    """
    names = list(range(1, formula.num_vars + 1))
    rng.shuffle(names)
    sign = [rng.choice((1, -1)) * name for name in names]

    def lit(x: int) -> int:
        return sign[abs(x) - 1] if x > 0 else -sign[abs(x) - 1]

    clauses = tuple(tuple(lit(x) for x in clause) for clause in formula.clauses)
    return Formula(formula.label, formula.num_vars, clauses)


def clause_order_permuted(formula: Formula, rng: random.Random) -> Formula:
    clauses = list(formula.clauses)
    rng.shuffle(clauses)
    return Formula(formula.label, formula.num_vars, tuple(clauses))


# The corpora are fixed and the seed changes only how each formula is written.
# Completion time is heavy-tailed across formulas (0.01-1 s at this size), and
# clause order moves remus's whole path: 125 small formulas in seeded clause
# orders still moved its check count by 5% between seeds. Renaming variables
# keeps every enumeration step and changes only the search inside each check.
def _small(seed: int) -> list[Formula]:
    rng = random.Random(f"small/{seed}")
    return [renamed(f, rng) for f in unsat_3cnf(6, 22, 40, "small")]


def _php(seed: int) -> list[Formula]:
    rng = random.Random(f"php/{seed}")
    return [clause_order_permuted(pigeonhole(holes), rng) for holes in (8, 9)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-complete",
            "completion regime: 40 unsat random 3-CNF, 6 vars / 22 clauses, seeded variable "
            "names, to the end; the map dominates remus, marco makes many cheap checks",
            8.0,
            _small,
        ),
        Workload(
            "php-hard",
            "PHP(9,8) and PHP(10,9) in seeded clause order: one hard UNSAT proof plus n "
            "searching SAT checks; map, session and emission idle, shrink removes nothing",
            7.0,
            _php,
            single_full_mus=True,
        ),
    )
}
