"""Golden enumeration runs: oracle checks, map calls and the MUS sequence.

The figures were recorded before the solver kept its trail between solves,
and the budget stops and per-MUS counters before the session stopped
mirroring its counters into the run's statistics. Verdicts are semantic and
models are fixed by the clauses and the assumption set (see
musenum.satsolver), so a change to the solvers' search must leave every
figure derived from them as it is: all of GOLDEN, GOLDEN_COUNTERS,
BUDGET_STOPS and the WITNESS_ tables.
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
shrink proves a constraint critical only by a trial. The ROTATION_ tables
run on CnfOracle itself, whose rotation proves constraints critical from the
models of satisfiable trials; they were recorded when shrink began to skip
those. No test id changes when a row is re-recorded: the CORE_ and
ROTATION_ ids name the run (formula, limit and algorithm), and the other
tables' ids are frozen in the *_IDS lists below.

Every row was re-recorded when shrink began to take a trial inside a
down-blocked set of the map as satisfiable without a check, and the first
seed, the full set, began to reuse the run's precondition check. Every
table runs through shrink, so every check count fell. The MUS sequences of
GOLDEN, WITNESS_GOLDEN and CORE_GOLDEN did not change, since such a trial
has the answer a check would have; those of ROTATION_GOLDEN did, since
rotation does not follow it. The CORE_ and ROTATION_ runs now end before
200 or 120 checks, so their second budget stop is at 70.

BLOCK_LOG_STOPS was recorded when the budgets became one stop rule, tested
at the same three points of the frame loop as the checks it replaced.
"""

import hashlib

import pytest

from musenum import CnfOracle, RemusConfig, enumerate_marco, enumerate_remus
from musenum.oracles import random_cnf

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
    ((4, 16, 5), None, "remus", 427, 430, 48, "9665394022921e74"),
    ((4, 16, 5), None, "marco", 222, 57, 48, "704af43cea276b91"),
    ((5, 22, 3), None, "remus", 990, 964, 56, "952910cfd026a9fe"),
    ((5, 22, 3), None, "marco", 591, 72, 56, "c54e9940f9d69e96"),
    ((6, 24, 1), None, "remus", 1009, 1034, 34, "830aa1bbcba57ff9"),
    ((6, 24, 1), None, "marco", 450, 53, 34, "1d58988ed702b392"),
    ((16, 80, 2), 8, "remus", 387, 54, 8, "c18b58218213fa94"),
    ((16, 80, 2), 8, "marco", 547, 8, 8, "4981a1ae72c95929"),
    ((20, 100, 1), 8, "remus", 505, 72, 8, "bcf08d91d7ff1ec8"),
    ((20, 100, 1), 8, "marco", 765, 8, 8, "896d7ba410005ab2"),
]

# sha256 prefix of each GOLDEN run's per-MUS counters, in GOLDEN's order
GOLDEN_COUNTERS = [
    "05fdec71ad15f189",
    "663030fd931b81f0",
    "940ca53963930d91",
    "8c600bf9396d5ee0",
    "e780c00f4f9999ce",
    "02c3fe040a9fc3e0",
    "3cf59574601b49a4",
    "85082122b9ee7150",
    "ca327574796cff51",
    "777fca397e36b3b1",
]

# as GOLDEN, with a check limit in place of the MUS limit, plus the sha256
# prefix of the per-MUS counters; every run stops on the check limit
BUDGET_STOPS = [
    ((5, 22, 3), 50, "remus", 62, 16, 3, "b5e305c286ab3108", "de6fd7a59872ede5"),
    ((5, 22, 3), 50, "marco", 59, 4, 3, "4af6a7654773b1f6", "e758836d2e8bf0e8"),
    ((5, 22, 3), 200, "remus", 206, 151, 13, "c765205fc5d996dc", "2c65ff6949b30f0e"),
    ((5, 22, 3), 200, "marco", 206, 19, 14, "3bdfab480a441d08", "88dfb6d175940a78"),
    ((6, 24, 1), 50, "remus", 63, 3, 3, "f890fcd85f928693", "0da6e5775c6181b2"),
    ((6, 24, 1), 50, "marco", 67, 3, 3, "10cbd8732b116d7d", "b514ed8937e15bbe"),
    ((6, 24, 1), 200, "remus", 206, 107, 10, "60fe0269dc6687fa", "4700021b0f36e1e0"),
    ((6, 24, 1), 200, "marco", 201, 13, 10, "4215aa4ad1108a2a", "7cd1a5fb53b9a40a"),
]

# as GOLDEN, GOLDEN_COUNTERS and BUDGET_STOPS, on QueryCoreCnfOracle
WITNESS_GOLDEN = [
    ((4, 16, 5), None, "remus", 127, 57, 48, "a9e97e57b99e26c7"),
    ((4, 16, 5), None, "marco", 202, 49, 48, "704af43cea276b91"),
    ((5, 22, 3), None, "remus", 345, 110, 56, "adcdd87974ae2ce6"),
    ((5, 22, 3), None, "marco", 504, 59, 56, "c54e9940f9d69e96"),
    ((6, 24, 1), None, "remus", 232, 75, 34, "72afe07185a556eb"),
    ((6, 24, 1), None, "marco", 350, 38, 34, "1d58988ed702b392"),
    ((16, 80, 2), 8, "remus", 286, 32, 8, "c18b58218213fa94"),
    ((16, 80, 2), 8, "marco", 443, 8, 8, "4981a1ae72c95929"),
    ((20, 100, 1), 8, "remus", 405, 31, 8, "44e00e79275b9f33"),
    ((20, 100, 1), 8, "marco", 652, 8, 8, "896d7ba410005ab2"),
]

WITNESS_GOLDEN_COUNTERS = [
    "b7bc6fd19adebc53",
    "ef35b5001e8b0f77",
    "901c28f1b3238487",
    "65ceb755d99c86b3",
    "9a4b4456052060fd",
    "690309d45313650b",
    "3bc5703dcf419a09",
    "40780655a29cac14",
    "9d8f41fcc7419a63",
    "c1acc6228713d918",
]

WITNESS_BUDGET_STOPS = [
    ((5, 22, 3), 50, "remus", 52, 10, 3, "15e9db94d5325ce0", "2d07b0af77975865"),
    ((5, 22, 3), 50, "marco", 53, 4, 3, "4af6a7654773b1f6", "83a9bcc348854968"),
    ((5, 22, 3), 200, "remus", 207, 66, 33, "f07ad5d91a487bc9", "292b3ee21e167ac4"),
    ((5, 22, 3), 200, "marco", 200, 18, 17, "b0b7f867b851fed8", "43b3ef8685c5150b"),
    ((6, 24, 1), 50, "remus", 57, 10, 4, "88f76886abc1d266", "eaa0b352e093b999"),
    ((6, 24, 1), 50, "marco", 52, 3, 3, "10cbd8732b116d7d", "a8345218cc798981"),
    ((6, 24, 1), 200, "remus", 202, 61, 28, "724725eb23ae0d91", "404da2701ff63c04"),
    ((6, 24, 1), 200, "marco", 207, 18, 16, "51244d0c95a8eb58", "48e090cc4f49847c"),
]

# as GOLDEN plus the per-MUS counters digest, and as BUDGET_STOPS, on CoreCnfOracle
CORE_GOLDEN = [
    ((4, 16, 5), None, "remus", 58, 58, 48, "e33ed99513b3601d", "2072ba7b9289068b"),
    ((4, 16, 5), None, "marco", 58, 49, 48, "c50e2570b530a0f6", "220d981768ec50c1"),
    ((5, 22, 3), None, "remus", 96, 113, 56, "1c5b59fed9f3b032", "aec7a8394fc5b9cb"),
    ((5, 22, 3), None, "marco", 108, 60, 56, "bd69c2a37d8c2143", "cf662bf1bb4249ec"),
    ((6, 24, 1), None, "remus", 90, 83, 34, "6f8366757f420e80", "ae8b6ac77dc1fea2"),
    ((6, 24, 1), None, "marco", 88, 40, 34, "8e3748c14ba99f89", "f52c5715fdda8ad9"),
    ((16, 80, 2), 8, "remus", 130, 29, 8, "35d9a894d3b52ca7", "bdaeda47c4713c37"),
    ((16, 80, 2), 8, "marco", 101, 9, 8, "47b5bc70a3d49f23", "273489e946d17b52"),
    ((20, 100, 1), 8, "remus", 145, 42, 8, "a2877bfa15f50c6f", "c1a8011e7f6b5166"),
    ((20, 100, 1), 8, "marco", 148, 9, 8, "5d20894308f5e5b6", "c72027005253024d"),
]

CORE_BUDGET_STOPS = [
    ((5, 22, 3), 50, "remus", 50, 40, 20, "69a75e497e233809", "44e7e4b9e8bd3cf6"),
    ((5, 22, 3), 50, "marco", 50, 24, 21, "623273c32ab5045f", "ad42a61847a61145"),
    ((5, 22, 3), 70, "remus", 70, 73, 36, "737d34b38dce7953", "c338550d881c6c8e"),
    ((5, 22, 3), 70, "marco", 70, 36, 33, "f74a94237825de67", "5923a7becf8eafd9"),
    ((6, 24, 1), 50, "remus", 50, 37, 15, "0fb295b05dad39bc", "f49d155c12ad6e69"),
    ((6, 24, 1), 50, "marco", 50, 17, 12, "f493939a07160df5", "8f912e9b2c3a1eeb"),
    ((6, 24, 1), 70, "remus", 70, 53, 22, "255dc54385dc8566", "6830dbbcf360c634"),
    ((6, 24, 1), 70, "marco", 70, 29, 23, "e98b0ec2a1979a2a", "96cf35beb7c475bc"),
]

# as CORE_GOLDEN and CORE_BUDGET_STOPS, on CnfOracle
ROTATION_GOLDEN = [
    ((4, 16, 5), None, "remus", 49, 58, 48, "f849c1dc78fb14eb", "5d72e6cbe6dbba6b"),
    ((4, 16, 5), None, "marco", 49, 49, 48, "d928b4da110fd66b", "d2d71b51045351e7"),
    ((5, 22, 3), None, "remus", 98, 111, 56, "a915c6d1ada02ac8", "797624fa43f4d012"),
    ((5, 22, 3), None, "marco", 106, 58, 56, "6da0671cef31485d", "4698819e3cd9614a"),
    ((6, 24, 1), None, "remus", 79, 76, 34, "aff67c36156b4a0e", "8bec86ab4c1f566a"),
    ((6, 24, 1), None, "marco", 78, 41, 34, "6d1ce1c60bc576f0", "ee5ffcb94ac5f095"),
    ((16, 80, 2), 8, "remus", 77, 32, 8, "7306e865eee714c2", "f5b3dfcee0842147"),
    ((16, 80, 2), 8, "marco", 58, 8, 8, "372a54684dab78d1", "f6b0a4cdf1d11e44"),
    ((20, 100, 1), 8, "remus", 67, 26, 8, "27288d2ebc30230a", "36ae578a7a60eb4b"),
    ((20, 100, 1), 8, "marco", 80, 10, 8, "170332783d952f87", "80cb78604cc3fd13"),
]

ROTATION_BUDGET_STOPS = [
    ((5, 22, 3), 50, "remus", 50, 46, 21, "c89b2918ca723ef3", "9705294a7e5ef029"),
    ((5, 22, 3), 50, "marco", 50, 26, 25, "ebf3db54caedb763", "ed8d78887fcb7d7e"),
    ((5, 22, 3), 70, "remus", 70, 71, 36, "aa10445feb413316", "a93a51ff1c5ac36f"),
    ((5, 22, 3), 70, "marco", 70, 36, 35, "43becfb521ef9c0c", "6cfcb71a8662c9e1"),
    ((6, 24, 1), 50, "remus", 51, 42, 19, "ef62394915c2c006", "aaf87e085ba3b9fb"),
    ((6, 24, 1), 50, "marco", 50, 21, 16, "23a58da6d376ce9f", "e728ca6572bc2dec"),
    ((6, 24, 1), 70, "remus", 70, 61, 27, "433bfc43a1bda712", "c801a4f8c8299302"),
    ((6, 24, 1), 70, "marco", 70, 34, 28, "a69e4e0e0f709b8e", "a6d42c9429ba797e"),
]

# Every kind of stop, on CnfOracle: (vars, clauses, seed) of random_cnf, the
# budgets, algorithm, MUSes, oracle checks, map calls and the sha256 prefix
# of repr(block_log). The budget-stop tables above pin records and counters;
# a stop one step earlier or later can move a block across it and leave
# those as they are, so this table pins the block log too.
BLOCK_LOG_STOPS = [
    ((4, 16, 5), {"mus_limit": 3}, "remus", 3, 4, 3, "4314e269c415fae7"),
    ((4, 16, 5), {"mus_limit": 3}, "marco", 3, 4, 3, "ad434214726cb47e"),
    ((4, 16, 5), {"check_limit": 20}, "remus", 18, 20, 23, "be2b630e37d22774"),
    ((4, 16, 5), {"check_limit": 20}, "marco", 18, 20, 19, "29df4fd064616655"),
    ((4, 16, 5), {"time_limit": 0.0}, "remus", 0, 1, 0, "4f53cda18c2baa0c"),
    ((4, 16, 5), {"time_limit": 0.0}, "marco", 0, 1, 0, "4f53cda18c2baa0c"),
    ((4, 16, 5), {"mus_limit": 2, "check_limit": 9}, "remus", 2, 3, 2, "969d3510210806e5"),
    ((4, 16, 5), {"mus_limit": 2, "check_limit": 9}, "marco", 2, 3, 2, "969d3510210806e5"),
    ((5, 22, 3), {"mus_limit": 3}, "remus", 3, 13, 6, "c48258a58d8e08fb"),
    ((5, 22, 3), {"mus_limit": 3}, "marco", 3, 9, 3, "47e4e821de9e705e"),
    ((5, 22, 3), {"check_limit": 20}, "remus", 5, 20, 10, "db166dbd88e195e2"),
    ((5, 22, 3), {"check_limit": 20}, "marco", 8, 20, 9, "ff4d1870a223a25c"),
    ((5, 22, 3), {"time_limit": 0.0}, "remus", 0, 1, 0, "4f53cda18c2baa0c"),
    ((5, 22, 3), {"time_limit": 0.0}, "marco", 0, 1, 0, "4f53cda18c2baa0c"),
    ((5, 22, 3), {"mus_limit": 2, "check_limit": 9}, "remus", 2, 6, 2, "85da7cb38c428d15"),
    ((5, 22, 3), {"mus_limit": 2, "check_limit": 9}, "marco", 2, 7, 2, "85da7cb38c428d15"),
    ((6, 24, 1), {"mus_limit": 3}, "remus", 3, 12, 6, "137a62f289b84dd0"),
    ((6, 24, 1), {"mus_limit": 3}, "marco", 3, 13, 6, "55efdf3f6141cce5"),
    ((6, 24, 1), {"check_limit": 20}, "remus", 5, 20, 12, "38f46c68df2c06b5"),
    ((6, 24, 1), {"check_limit": 20}, "marco", 4, 20, 9, "1aeaacbec23efb4c"),
    ((6, 24, 1), {"time_limit": 0.0}, "remus", 0, 1, 0, "4f53cda18c2baa0c"),
    ((6, 24, 1), {"time_limit": 0.0}, "marco", 0, 1, 0, "4f53cda18c2baa0c"),
    ((6, 24, 1), {"mus_limit": 2, "check_limit": 9}, "remus", 2, 10, 5, "e0ae5e63f8c6cf54"),
    ((6, 24, 1), {"mus_limit": 2, "check_limit": 9}, "marco", 2, 8, 2, "07dbc7352efdbd1d"),
]

# The tests on GOLDEN, GOLDEN_COUNTERS, BUDGET_STOPS and the WITNESS_ tables
# keep the ids that pytest made from the figures of their first recording,
# in table order, so that a re-recording renames none of them. The figures
# in such an id are the first recording's; the row holds the current ones.
GOLDEN_IDS = [
    "formula0-None-remus-641-430-48-9665394022921e74",
    "formula1-None-marco-681-57-48-704af43cea276b91",
    "formula2-None-remus-1085-964-56-952910cfd026a9fe",
    "formula3-None-marco-1050-72-56-c54e9940f9d69e96",
    "formula4-None-remus-1074-1034-34-830aa1bbcba57ff9",
    "formula5-None-marco-739-53-34-1d58988ed702b392",
    "formula6-8-remus-428-54-8-c18b58218213fa94",
    "formula7-8-marco-637-8-8-4981a1ae72c95929",
    "formula8-8-remus-538-72-8-bcf08d91d7ff1ec8",
    "formula9-8-marco-795-8-8-896d7ba410005ab2",
]

GOLDEN_COUNTERS_IDS = [
    "formula0-None-remus-c8d49e61f79e6f2e",
    "formula1-None-marco-d2fa3e6b8617a997",
    "formula2-None-remus-ff59b076a5ba6317",
    "formula3-None-marco-b8b43d859a56e579",
    "formula4-None-remus-7159a6820f6806bf",
    "formula5-None-marco-7d27b34f119c8788",
    "formula6-8-remus-250618d8a15740cc",
    "formula7-8-marco-ca84236d1deb5f22",
    "formula8-8-remus-1a08434cb04413e7",
    "formula9-8-marco-6baca9e1a8ee962c",
]

BUDGET_STOPS_IDS = [
    "formula0-50-remus-50-9-2-eaf83872a9d58553-328a53247da838aa",
    "formula1-50-marco-68-4-3-4af6a7654773b1f6-bfc873a065bed7fe",
    "formula2-200-remus-200-150-12-1060f50a6fe7e5f7-db6fdf3e02e20be1",
    "formula3-200-marco-212-14-10-3cc28dd4c591e4d5-21eab1874c25f7b0",
    "formula4-50-remus-65-3-3-f890fcd85f928693-aa362176a92392f3",
    "formula5-50-marco-50-2-2-29f02501f905770f-d1cd7dcaf31eaf9d",
    "formula6-200-remus-200-100-9-b8d48ca3a2de7814-60f48422c673fb54",
    "formula7-200-marco-217-12-9-502fa553e2383ffd-5ee26ba220c3c8d9",
]

WITNESS_GOLDEN_IDS = [
    "formula0-None-remus-598-57-48-a9e97e57b99e26c7",
    "formula1-None-marco-673-49-48-704af43cea276b91",
    "formula2-None-remus-883-110-56-adcdd87974ae2ce6",
    "formula3-None-marco-1037-59-56-c54e9940f9d69e96",
    "formula4-None-remus-590-75-34-72afe07185a556eb",
    "formula5-None-marco-724-38-34-1d58988ed702b392",
    "formula6-8-remus-434-32-8-c18b58218213fa94",
    "formula7-8-marco-637-8-8-4981a1ae72c95929",
    "formula8-8-remus-514-31-8-44e00e79275b9f33",
    "formula9-8-marco-795-8-8-896d7ba410005ab2",
]

WITNESS_GOLDEN_COUNTERS_IDS = [
    "formula0-None-remus-1c6aeadd3b50d8f5",
    "formula1-None-marco-b63c90e58111a065",
    "formula2-None-remus-ccc19c872af3ae94",
    "formula3-None-marco-f9244d087879bbf2",
    "formula4-None-remus-8547dc77b5cb72b1",
    "formula5-None-marco-8abb1a132a936719",
    "formula6-8-remus-04c88df36f600892",
    "formula7-8-marco-ca84236d1deb5f22",
    "formula8-8-remus-894c373446f66df2",
    "formula9-8-marco-6baca9e1a8ee962c",
]

WITNESS_BUDGET_STOPS_IDS = [
    "formula0-50-remus-50-10-2-eaf83872a9d58553-328a53247da838aa",
    "formula1-50-marco-68-4-3-4af6a7654773b1f6-bfc873a065bed7fe",
    "formula2-200-remus-200-33-12-41315fa973ffe464-a5cf5cf8f106f1ca",
    "formula3-200-marco-209-11-10-3cc28dd4c591e4d5-eb1e5514c6f95316",
    "formula4-50-remus-65-3-3-f890fcd85f928693-aa362176a92392f3",
    "formula5-50-marco-50-2-2-29f02501f905770f-d1cd7dcaf31eaf9d",
    "formula6-200-remus-209-26-11-f6b560c1fc15736c-11c473e021d8500d",
    "formula7-200-marco-216-11-9-502fa553e2383ffd-8f7dd6c841262955",
]


def run_id(row) -> str:
    """Test id from a row's formula, limit and algorithm: "5-22-3-70-marco"."""
    return "-".join(map(str, (*row[0], row[1], row[2])))


def run(formula, algorithm, oracle_class=QueryCnfOracle, **config):
    num_vars, num_clauses, seed = formula
    oracle = oracle_class(num_vars, random_cnf(num_vars, num_clauses, 3, seed))
    return RUNNERS[algorithm](oracle, RemusConfig(**config))


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
    assert result.oracle_checks == checks
    assert result.map_solver_calls == map_calls
    assert len(result.records) == muses
    assert sequence_digest(result.records) == digest


def assert_budget_stop(result, checks, map_calls, muses, digest, counters):
    assert not result.complete
    assert result.oracle_checks == checks
    assert result.map_solver_calls == map_calls
    assert len(result.records) == muses
    assert sequence_digest(result.records) == digest
    assert counters_digest(result.records) == counters


@pytest.mark.parametrize(
    "table, ids",
    [
        (GOLDEN, GOLDEN_IDS),
        (GOLDEN, GOLDEN_COUNTERS_IDS),
        (BUDGET_STOPS, BUDGET_STOPS_IDS),
        (WITNESS_GOLDEN, WITNESS_GOLDEN_IDS),
        (WITNESS_GOLDEN, WITNESS_GOLDEN_COUNTERS_IDS),
        (WITNESS_BUDGET_STOPS, WITNESS_BUDGET_STOPS_IDS),
    ],
)
def test_frozen_ids_follow_their_tables_rows(table, ids):
    assert [test_id.split("-")[:3] for test_id in ids] == [
        [f"formula{i}", str(row[1]), row[2]] for i, row in enumerate(table)
    ]


@pytest.mark.parametrize(
    "formula, mus_limit, algorithm, checks, map_calls, muses, digest",
    GOLDEN,
    ids=GOLDEN_IDS,
)
def test_enumeration_matches_the_recorded_run(
    formula, mus_limit, algorithm, checks, map_calls, muses, digest
):
    result = run(formula, algorithm, mus_limit=mus_limit)
    assert_enumeration(result, mus_limit, checks, map_calls, muses, digest)


@pytest.mark.parametrize(
    "formula, mus_limit, algorithm, digest",
    [(row[0], row[1], row[2], digest) for row, digest in zip(GOLDEN, GOLDEN_COUNTERS)],
    ids=GOLDEN_COUNTERS_IDS,
)
def test_per_mus_counters_match_the_recorded_run(formula, mus_limit, algorithm, digest):
    result = run(formula, algorithm, mus_limit=mus_limit)
    assert counters_digest(result.records) == digest


@pytest.mark.parametrize(
    "formula, check_limit, algorithm, checks, map_calls, muses, digest, counters",
    BUDGET_STOPS,
    ids=BUDGET_STOPS_IDS,
)
def test_budget_stop_matches_the_recorded_run(
    formula, check_limit, algorithm, checks, map_calls, muses, digest, counters
):
    result = run(formula, algorithm, check_limit=check_limit)
    assert_budget_stop(result, checks, map_calls, muses, digest, counters)


@pytest.mark.parametrize(
    "formula, mus_limit, algorithm, checks, map_calls, muses, digest",
    WITNESS_GOLDEN,
    ids=WITNESS_GOLDEN_IDS,
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
    ids=WITNESS_GOLDEN_COUNTERS_IDS,
)
def test_witness_per_mus_counters_match_the_recorded_run(formula, mus_limit, algorithm, digest):
    result = run(formula, algorithm, QueryCoreCnfOracle, mus_limit=mus_limit)
    assert counters_digest(result.records) == digest


@pytest.mark.parametrize(
    "formula, check_limit, algorithm, checks, map_calls, muses, digest, counters",
    WITNESS_BUDGET_STOPS,
    ids=WITNESS_BUDGET_STOPS_IDS,
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


def stop_id(row) -> str:
    """Test id from a row's formula, budgets and algorithm: "5-22-3-mus_limit=2,check_limit=9-remus"."""
    budgets = ",".join(f"{name}={value}" for name, value in row[1].items())
    return "-".join(map(str, (*row[0], budgets, row[2])))


@pytest.mark.parametrize(
    "formula, budgets, algorithm, muses, checks, map_calls, blocks",
    BLOCK_LOG_STOPS,
    ids=map(stop_id, BLOCK_LOG_STOPS),
)
def test_stopped_run_keeps_the_recorded_block_log(
    formula, budgets, algorithm, muses, checks, map_calls, blocks
):
    result = run(formula, algorithm, CnfOracle, **budgets)
    assert not result.complete
    assert len(result.records) == muses
    assert result.oracle_checks == checks
    assert result.map_solver_calls == map_calls
    assert hashlib.sha256(repr(result.block_log).encode()).hexdigest()[:16] == blocks
