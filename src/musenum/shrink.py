"""Deletion-based reduction of an unsatisfiable seed to one of its MUSes."""

from __future__ import annotations

from .core import ConstraintSet, PreconditionError


def shrink(oracle, seed: ConstraintSet, criticals: ConstraintSet):
    """Minimize an unsatisfiable seed without ever dropping known criticals.

    Candidates in seed \\ criticals are tried in ascending index order against
    the current working set: if removal leaves the set unsatisfiable the
    constraint is dropped, otherwise it is critical and kept. Uses at most
    |seed \\ criticals| oracle checks.

    Returns (mus, sat_discoveries) where sat_discoveries holds, for every
    trial found satisfiable along the way, the oracle's witness: a satisfiable
    superset of the trial.
    """
    if not criticals.is_subset_of(seed):
        raise PreconditionError("criticals must be a subset of the seed")
    work = seed
    discoveries: list[ConstraintSet] = []
    for candidate in seed - criticals:
        trial = work.remove(candidate)
        if oracle.is_sat(trial):
            discoveries.append(oracle.witness)
        else:
            work = trial
    return work, discoveries
