"""Deletion-based reduction of an unsatisfiable seed to one of its MUSes."""

from __future__ import annotations

from .core import ConstraintSet, PreconditionError


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
    (`covered_members`), which holds because it does not change during a
    shrink; each one the loop reaches is counted in `umap.covered_trials`.

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
    n = seed.n
    work = core.mask
    covered = umap.covered_members(work)
    proven = criticals.mask
    discoveries: list[ConstraintSet] = []
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
            discoveries.append(oracle.witness)
            rotated = oracle.rotate(ConstraintSet(n, work), bit.bit_length() - 1, ConstraintSet(n, proven))
            for d, witness in rotated:
                proven |= 1 << d
                discoveries.append(witness)
        else:
            work = oracle.core.mask
            covered = umap.covered_members(work)
    return ConstraintSet(n, work), discoveries
