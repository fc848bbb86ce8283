"""Deletion-based reduction of an unsatisfiable seed to one of its MUSes."""

from __future__ import annotations

from .core import ConstraintSet, PreconditionError


def shrink(
    oracle, seed: ConstraintSet, criticals: ConstraintSet, core: ConstraintSet | None = None, known_sat=None
):
    """Minimize an unsatisfiable seed without ever dropping known criticals.

    The working set starts as `core`, the unsatisfiable subset of the seed
    that the caller's own check of the seed returned (the seed itself when
    None). Its members outside the criticals are tried in ascending index
    order, skipping those no longer in the working set: if removal leaves the
    set satisfiable the constraint is critical and kept, otherwise the working
    set jumps to the oracle's core of that trial (clause-set refinement),
    which may drop several candidates at once. A core keeps every critical,
    since removing a critical leaves a satisfiable set, so the result is a
    MUS of the seed. A trial that `known_sat` (a run's map) holds satisfiable
    needs no check.

    After each satisfiable check the oracle's `rotate` may prove further
    members of the working set critical without a check; they are skipped
    like the given criticals, and stay critical in every later working set,
    which is a subset holding them. Uses at most
    |core \\ criticals| <= |seed \\ criticals| oracle checks.

    Returns (mus, sat_discoveries) where sat_discoveries holds the oracle's
    witness (a satisfiable superset of the trial) of every satisfiable check,
    and for every member that rotation proved critical, the satisfiable set
    it came with.
    """
    if not criticals.is_subset_of(seed):
        raise PreconditionError("criticals must be a subset of the seed")
    work = seed if core is None else core
    proven = criticals.mask
    discoveries: list[ConstraintSet] = []
    for candidate in work - criticals:
        if candidate not in work or proven >> candidate & 1:
            continue
        trial = work.remove(candidate)
        if known_sat is not None and known_sat(trial):
            proven |= 1 << candidate
        elif oracle.is_sat(trial):
            proven |= 1 << candidate
            discoveries.append(oracle.witness)
            for d, witness in oracle.rotate(work, candidate, ConstraintSet(work.n, proven)):
                proven |= 1 << d
                discoveries.append(witness)
        else:
            work = oracle.core
    return work, discoveries
