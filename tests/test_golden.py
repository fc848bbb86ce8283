"""Golden enumeration runs: oracle checks, map calls and the MUS sequence.

The figures were recorded before the solver kept its trail between solves,
and the budget stops and per-MUS counters before the session stopped
mirroring its counters into CheckStats. Verdicts are semantic and models are
fixed by the clauses and the assumption set (see musenum.satsolver), so a
change to the solvers' search must leave every figure derived from them as
it is: all of GOLDEN, GOLDEN_COUNTERS, BUDGET_STOPS and the WITNESS_ tables.
The CORE_ and ROTATION_ tables also depend on the oracle's cores, which
follow the solver's derivation, so a change to the search may move their
rows; it re-records the rows that moved and lists them. A change that alters
which model or MUS is found on purpose re-records the rest and says why.
The CORE_ rows 16-80-2-8-marco and 20-100-1-8-remus and the ROTATION_ rows
16-80-2-8-marco and 20-100-1-8-marco were re-recorded when the solver began
to keep long runs of negated selectors in guards.

Each run is recorded three times, on oracles that know more and more
beyond the query. GOLDEN, GOLDEN_COUNTERS and BUDGET_STOPS run on an oracle
whose witness and core are the query itself, as for any oracle that knows
no larger satisfiable and no smaller unsatisfiable set (TableOracle), so
the enumerators block only the sets they asked about and shrink deletes one
constraint at a time. The WITNESS_ tables run on an oracle whose witness is
the clause set of a model and whose core is the query; they were recorded
when the enumerators began to block the oracle's witness. The CORE_ tables
run on an oracle whose witness and core are CnfOracle's, the core being the
set of clauses in the solver's failed assumptions; they were recorded when
shrink began to jump to cores. None of these oracles rotates models, so
shrink proves a constraint critical only by a check. The ROTATION_ tables
run on CnfOracle itself, whose rotation proves constraints critical from the
models of satisfiable trials; they were recorded when shrink began to skip
those. The CORE_ and ROTATION_ test ids name the run, not its figures, so
that a re-recording keeps them.
"""

import hashlib

import pytest

from musenum import CnfOracle, Instance, RemusConfig, enumerate_marco, enumerate_remus
from musenum.reference import random_cnf

from helpers import CoreCnfOracle

RUNNERS = {"remus": enumerate_remus, "marco": enumerate_marco}


class QueryCnfOracle(CoreCnfOracle):
    """CoreCnfOracle that knows only the query: its witness and its core are the query."""

    def _solve(self, s):
        return super()._solve(s)[0], s.mask


class QueryCoreCnfOracle(CoreCnfOracle):
    """CoreCnfOracle whose core is the query; its witness is still a model's clause set."""

    def _solve(self, s):
        sat, mask = super()._solve(s)
        return sat, mask if sat else s.mask


# (vars, clauses, seed) of random_cnf, MUS limit, algorithm,
# oracle checks, map calls, MUSes, sha256 prefix of the MUS sequence;
# on QueryCnfOracle
GOLDEN = [
    ((4, 16, 5), None, "remus", 641, 430, 48, "9665394022921e74"),
    ((4, 16, 5), None, "marco", 681, 57, 48, "704af43cea276b91"),
    ((5, 22, 3), None, "remus", 1085, 964, 56, "952910cfd026a9fe"),
    ((5, 22, 3), None, "marco", 1050, 72, 56, "c54e9940f9d69e96"),
    ((6, 24, 1), None, "remus", 1074, 1034, 34, "830aa1bbcba57ff9"),
    ((6, 24, 1), None, "marco", 739, 53, 34, "1d58988ed702b392"),
    ((16, 80, 2), 8, "remus", 428, 54, 8, "c18b58218213fa94"),
    ((16, 80, 2), 8, "marco", 637, 8, 8, "4981a1ae72c95929"),
    ((20, 100, 1), 8, "remus", 538, 72, 8, "bcf08d91d7ff1ec8"),
    ((20, 100, 1), 8, "marco", 795, 8, 8, "896d7ba410005ab2"),
]

# sha256 prefix of each GOLDEN run's per-MUS counters, in GOLDEN's order
GOLDEN_COUNTERS = [
    "c8d49e61f79e6f2e",
    "d2fa3e6b8617a997",
    "ff59b076a5ba6317",
    "b8b43d859a56e579",
    "7159a6820f6806bf",
    "7d27b34f119c8788",
    "250618d8a15740cc",
    "ca84236d1deb5f22",
    "1a08434cb04413e7",
    "6baca9e1a8ee962c",
]

# as GOLDEN, with a check limit in place of the MUS limit, plus the sha256
# prefix of the per-MUS counters; every run stops on the check limit
BUDGET_STOPS = [
    ((5, 22, 3), 50, "remus", 50, 9, 2, "eaf83872a9d58553", "328a53247da838aa"),
    ((5, 22, 3), 50, "marco", 68, 4, 3, "4af6a7654773b1f6", "bfc873a065bed7fe"),
    ((5, 22, 3), 200, "remus", 200, 150, 12, "1060f50a6fe7e5f7", "db6fdf3e02e20be1"),
    ((5, 22, 3), 200, "marco", 212, 14, 10, "3cc28dd4c591e4d5", "21eab1874c25f7b0"),
    ((6, 24, 1), 50, "remus", 65, 3, 3, "f890fcd85f928693", "aa362176a92392f3"),
    ((6, 24, 1), 50, "marco", 50, 2, 2, "29f02501f905770f", "d1cd7dcaf31eaf9d"),
    ((6, 24, 1), 200, "remus", 200, 100, 9, "b8d48ca3a2de7814", "60f48422c673fb54"),
    ((6, 24, 1), 200, "marco", 217, 12, 9, "502fa553e2383ffd", "5ee26ba220c3c8d9"),
]

# as GOLDEN, GOLDEN_COUNTERS and BUDGET_STOPS, on QueryCoreCnfOracle
WITNESS_GOLDEN = [
    ((4, 16, 5), None, "remus", 598, 57, 48, "a9e97e57b99e26c7"),
    ((4, 16, 5), None, "marco", 673, 49, 48, "704af43cea276b91"),
    ((5, 22, 3), None, "remus", 883, 110, 56, "adcdd87974ae2ce6"),
    ((5, 22, 3), None, "marco", 1037, 59, 56, "c54e9940f9d69e96"),
    ((6, 24, 1), None, "remus", 590, 75, 34, "72afe07185a556eb"),
    ((6, 24, 1), None, "marco", 724, 38, 34, "1d58988ed702b392"),
    ((16, 80, 2), 8, "remus", 434, 32, 8, "c18b58218213fa94"),
    ((16, 80, 2), 8, "marco", 637, 8, 8, "4981a1ae72c95929"),
    ((20, 100, 1), 8, "remus", 514, 31, 8, "44e00e79275b9f33"),
    ((20, 100, 1), 8, "marco", 795, 8, 8, "896d7ba410005ab2"),
]

WITNESS_GOLDEN_COUNTERS = [
    "1c6aeadd3b50d8f5",
    "b63c90e58111a065",
    "ccc19c872af3ae94",
    "f9244d087879bbf2",
    "8547dc77b5cb72b1",
    "8abb1a132a936719",
    "04c88df36f600892",
    "ca84236d1deb5f22",
    "894c373446f66df2",
    "6baca9e1a8ee962c",
]

WITNESS_BUDGET_STOPS = [
    ((5, 22, 3), 50, "remus", 50, 10, 2, "eaf83872a9d58553", "328a53247da838aa"),
    ((5, 22, 3), 50, "marco", 68, 4, 3, "4af6a7654773b1f6", "bfc873a065bed7fe"),
    ((5, 22, 3), 200, "remus", 200, 33, 12, "41315fa973ffe464", "a5cf5cf8f106f1ca"),
    ((5, 22, 3), 200, "marco", 209, 11, 10, "3cc28dd4c591e4d5", "eb1e5514c6f95316"),
    ((6, 24, 1), 50, "remus", 65, 3, 3, "f890fcd85f928693", "aa362176a92392f3"),
    ((6, 24, 1), 50, "marco", 50, 2, 2, "29f02501f905770f", "d1cd7dcaf31eaf9d"),
    ((6, 24, 1), 200, "remus", 209, 26, 11, "f6b560c1fc15736c", "11c473e021d8500d"),
    ((6, 24, 1), 200, "marco", 216, 11, 9, "502fa553e2383ffd", "8f7dd6c841262955"),
]

# as GOLDEN plus the per-MUS counters digest, and as BUDGET_STOPS, on CoreCnfOracle
CORE_GOLDEN = [
    ((4, 16, 5), None, "remus", 529, 58, 48, "e33ed99513b3601d", "6c16a657c89c7c63"),
    ((4, 16, 5), None, "marco", 529, 49, 48, "c50e2570b530a0f6", "a9b9bf87b57ea16d"),
    ((5, 22, 3), None, "remus", 615, 113, 56, "1c5b59fed9f3b032", "32b1866cf3fb8b20"),
    ((5, 22, 3), None, "marco", 642, 60, 56, "bd69c2a37d8c2143", "5e2c00bafee4d194"),
    ((6, 24, 1), None, "remus", 400, 83, 34, "6f8366757f420e80", "2ec2c499d9826d7c"),
    ((6, 24, 1), None, "marco", 464, 40, 34, "8e3748c14ba99f89", "d57d029d6915f54f"),
    ((16, 80, 2), 8, "remus", 230, 29, 8, "35d9a894d3b52ca7", "b99de650ed29c868"),
    ((16, 80, 2), 8, "marco", 270, 9, 8, "47b5bc70a3d49f23", "bcad9a99fbb18d18"),
    ((20, 100, 1), 8, "remus", 268, 42, 8, "a2877bfa15f50c6f", "7ba09fed4f532217"),
    ((20, 100, 1), 8, "marco", 285, 9, 8, "5d20894308f5e5b6", "2fccb9a013fa6fdb"),
]

CORE_BUDGET_STOPS = [
    ((5, 22, 3), 50, "remus", 58, 12, 5, "ea26f11faf68cf74", "37fcea4eea50ba2b"),
    ((5, 22, 3), 50, "marco", 57, 7, 5, "1c0a3bdaca0eac3b", "8afabf70146e7faf"),
    ((5, 22, 3), 200, "remus", 204, 35, 19, "3e8ce3d93669fb8c", "02e148acdb293422"),
    ((5, 22, 3), 200, "marco", 202, 21, 18, "867aa97a19feca90", "cfe7fddb62c3adae"),
    ((6, 24, 1), 50, "remus", 56, 11, 5, "84efd2841ad45743", "a93d446296f35bbf"),
    ((6, 24, 1), 50, "marco", 59, 8, 4, "6f542b4d6a1ccedc", "d559947535c18c51"),
    ((6, 24, 1), 200, "remus", 200, 46, 19, "26bdf7eab6cb4a9c", "2758385fd0c1db61"),
    ((6, 24, 1), 200, "marco", 208, 19, 15, "547a39bc26c306bf", "18f02ae8c1aa0163"),
]

# as CORE_GOLDEN and CORE_BUDGET_STOPS, on CnfOracle; with rotation the
# (5, 22, 3) and (6, 24, 1) runs end before 200 checks, so they stop at 120
ROTATION_GOLDEN = [
    ((4, 16, 5), None, "remus", 97, 58, 48, "f849c1dc78fb14eb", "da0e8157f828bb8c"),
    ((4, 16, 5), None, "marco", 97, 49, 48, "d928b4da110fd66b", "5478a40109f34903"),
    ((5, 22, 3), None, "remus", 165, 108, 56, "35d8a10b0c7c5d47", "b2c524c3bcbb547b"),
    ((5, 22, 3), None, "marco", 175, 57, 56, "f50dd9695bf21198", "dc154ce8fbf8a8de"),
    ((6, 24, 1), None, "remus", 130, 73, 34, "83cdc8137742f32f", "53d97814ffad4661"),
    ((6, 24, 1), None, "marco", 132, 38, 34, "340bd9fd2d6b6161", "4036c52718739036"),
    ((16, 80, 2), 8, "remus", 116, 32, 8, "01e9c91e1e65e5a3", "7b8eb1f394051fe1"),
    ((16, 80, 2), 8, "marco", 105, 9, 8, "bcfa20fb058c0a3a", "30e839d088b9811d"),
    ((20, 100, 1), 8, "remus", 116, 28, 8, "27288d2ebc30230a", "9fbba141270d6c27"),
    ((20, 100, 1), 8, "marco", 109, 11, 8, "97922bb6242ecdfb", "afc770b1026a0c3b"),
]

ROTATION_BUDGET_STOPS = [
    ((5, 22, 3), 50, "remus", 50, 28, 15, "10d19fb4467d4547", "bbb44e9e7efd9cd3"),
    ((5, 22, 3), 50, "marco", 52, 15, 15, "9558b8b1307803ed", "c3ed4af1a93aa98b"),
    ((5, 22, 3), 120, "remus", 120, 77, 41, "62a98ca45f5691c7", "be69e955f9b50b60"),
    ((5, 22, 3), 120, "marco", 121, 38, 38, "8cdda2f028a3d2f0", "dbfc11a5be7e0043"),
    ((6, 24, 1), 50, "remus", 50, 28, 13, "b6c65515d55966dd", "d7dee70cf6402d0a"),
    ((6, 24, 1), 50, "marco", 52, 15, 12, "4c8d191dd28cb32a", "4772a1edd4bf232c"),
    ((6, 24, 1), 120, "remus", 125, 67, 32, "e14c87ef59953c2f", "74e4e08ab30f6000"),
    ((6, 24, 1), 120, "marco", 122, 34, 31, "25956a9c405d4e24", "674d1c2a16065508"),
]


def run_id(row) -> str:
    """Test id from a row's formula, limit and algorithm: "5-22-3-200-marco"."""
    return "-".join(map(str, (*row[0], row[1], row[2])))


def run(formula, algorithm, oracle_class=QueryCnfOracle, **config):
    num_vars, num_clauses, seed = formula
    oracle = oracle_class(num_vars, random_cnf(num_vars, num_clauses, 3, seed))
    return RUNNERS[algorithm](Instance(oracle), RemusConfig(**config))


def sequence_digest(records) -> str:
    """sha256 prefix of the MUSes in emission order, "1 3 4;1 2;..." (1-based)."""
    text = ";".join(" ".join(map(str, r.mus.indices_1based())) for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def counters_digest(records) -> str:
    """sha256 prefix of the per-MUS "oracle checks, map calls, depth", "6 1 0;10 2 0;..."."""
    text = ";".join(f"{r.oracle_checks} {r.map_solver_calls} {r.depth}" for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def assert_enumeration(result, mus_limit, checks, map_calls, muses, digest):
    assert result.complete == (mus_limit is None)
    assert result.stats.oracle_checks == checks
    assert result.stats.map_solver_calls == map_calls
    assert len(result.records) == muses
    assert sequence_digest(result.records) == digest


def assert_budget_stop(result, checks, map_calls, muses, digest, counters):
    assert not result.complete
    assert result.stats.oracle_checks == checks
    assert result.stats.map_solver_calls == map_calls
    assert len(result.records) == muses
    assert sequence_digest(result.records) == digest
    assert counters_digest(result.records) == counters


@pytest.mark.parametrize(
    "formula, mus_limit, algorithm, checks, map_calls, muses, digest", GOLDEN
)
def test_enumeration_matches_the_recorded_run(
    formula, mus_limit, algorithm, checks, map_calls, muses, digest
):
    result = run(formula, algorithm, mus_limit=mus_limit)
    assert_enumeration(result, mus_limit, checks, map_calls, muses, digest)


@pytest.mark.parametrize(
    "formula, mus_limit, algorithm, digest",
    [(row[0], row[1], row[2], digest) for row, digest in zip(GOLDEN, GOLDEN_COUNTERS)],
)
def test_per_mus_counters_match_the_recorded_run(formula, mus_limit, algorithm, digest):
    result = run(formula, algorithm, mus_limit=mus_limit)
    assert counters_digest(result.records) == digest


@pytest.mark.parametrize(
    "formula, check_limit, algorithm, checks, map_calls, muses, digest, counters",
    BUDGET_STOPS,
)
def test_budget_stop_matches_the_recorded_run(
    formula, check_limit, algorithm, checks, map_calls, muses, digest, counters
):
    result = run(formula, algorithm, check_limit=check_limit)
    assert_budget_stop(result, checks, map_calls, muses, digest, counters)


@pytest.mark.parametrize(
    "formula, mus_limit, algorithm, checks, map_calls, muses, digest", WITNESS_GOLDEN
)
def test_witness_enumeration_matches_the_recorded_run(
    formula, mus_limit, algorithm, checks, map_calls, muses, digest
):
    result = run(formula, algorithm, QueryCoreCnfOracle, mus_limit=mus_limit)
    assert_enumeration(result, mus_limit, checks, map_calls, muses, digest)


@pytest.mark.parametrize(
    "formula, mus_limit, algorithm, digest",
    [
        (row[0], row[1], row[2], digest)
        for row, digest in zip(WITNESS_GOLDEN, WITNESS_GOLDEN_COUNTERS)
    ],
)
def test_witness_per_mus_counters_match_the_recorded_run(formula, mus_limit, algorithm, digest):
    result = run(formula, algorithm, QueryCoreCnfOracle, mus_limit=mus_limit)
    assert counters_digest(result.records) == digest


@pytest.mark.parametrize(
    "formula, check_limit, algorithm, checks, map_calls, muses, digest, counters",
    WITNESS_BUDGET_STOPS,
)
def test_witness_budget_stop_matches_the_recorded_run(
    formula, check_limit, algorithm, checks, map_calls, muses, digest, counters
):
    result = run(formula, algorithm, QueryCoreCnfOracle, check_limit=check_limit)
    assert_budget_stop(result, checks, map_calls, muses, digest, counters)


@pytest.mark.parametrize(
    "formula, mus_limit, algorithm, checks, map_calls, muses, digest, counters",
    CORE_GOLDEN,
    ids=map(run_id, CORE_GOLDEN),
)
def test_core_enumeration_matches_the_recorded_run(
    formula, mus_limit, algorithm, checks, map_calls, muses, digest, counters
):
    result = run(formula, algorithm, CoreCnfOracle, mus_limit=mus_limit)
    assert_enumeration(result, mus_limit, checks, map_calls, muses, digest)
    assert counters_digest(result.records) == counters


@pytest.mark.parametrize(
    "formula, check_limit, algorithm, checks, map_calls, muses, digest, counters",
    CORE_BUDGET_STOPS,
    ids=map(run_id, CORE_BUDGET_STOPS),
)
def test_core_budget_stop_matches_the_recorded_run(
    formula, check_limit, algorithm, checks, map_calls, muses, digest, counters
):
    result = run(formula, algorithm, CoreCnfOracle, check_limit=check_limit)
    assert_budget_stop(result, checks, map_calls, muses, digest, counters)


@pytest.mark.parametrize(
    "formula, mus_limit, algorithm, checks, map_calls, muses, digest, counters",
    ROTATION_GOLDEN,
    ids=map(run_id, ROTATION_GOLDEN),
)
def test_rotation_enumeration_matches_the_recorded_run(
    formula, mus_limit, algorithm, checks, map_calls, muses, digest, counters
):
    result = run(formula, algorithm, CnfOracle, mus_limit=mus_limit)
    assert_enumeration(result, mus_limit, checks, map_calls, muses, digest)
    assert counters_digest(result.records) == counters


@pytest.mark.parametrize(
    "formula, check_limit, algorithm, checks, map_calls, muses, digest, counters",
    ROTATION_BUDGET_STOPS,
    ids=map(run_id, ROTATION_BUDGET_STOPS),
)
def test_rotation_budget_stop_matches_the_recorded_run(
    formula, check_limit, algorithm, checks, map_calls, muses, digest, counters
):
    result = run(formula, algorithm, CnfOracle, check_limit=check_limit)
    assert_budget_stop(result, checks, map_calls, muses, digest, counters)
