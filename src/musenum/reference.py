"""Seeded random CNF generation and DIMACS output, for `musenum gen` and the tests."""

from __future__ import annotations

import random

from .core import PreconditionError


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


def to_dimacs(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in clauses)
    return "\n".join(lines) + "\n"
