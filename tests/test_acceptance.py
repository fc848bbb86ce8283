"""Acceptance suite: one test per numbered criterion.

Each test prints a single `[criterion N] ...: PASS/FAIL` line; run with
`pytest tests/test_acceptance.py -v -s` to watch them live.
"""

import functools
import os
import re
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import pytest

from musenum import (
    CnfOracle,
    ConstraintSet,
    RemusConfig,
    UnexploredMap,
    enumerate_marco,
    enumerate_remus,
    is_mus,
)
from musenum.oracles import random_cnf, to_dimacs

from helpers import (
    bruteforce_all_muses,
    enumerate_map_models,
    explicit_map_reference,
    from_indices,
    muses_of,
    random_antichain,
    table_from_antichain,
)

import random

SMALL_CORPUS_SEED = 0xC0FFEE
MAP_LOG_SEED = 0xBEEF
BENCH_SEED = 0x5EED
BENCH_CHECK_CAP = 4000

MUS_LINE_RE = re.compile(rb"^MUS (\d+): ((?:\d+ )*\d+)$")
SUMMARY_RE = re.compile(
    rb"^found=(\d+) oracle_checks=(\d+) map_calls=(\d+) elapsed=([0-9.]+)s complete=(yes|no)$"
)


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {number}] {title}: FAIL")
                raise
            print(f"\n[criterion {number}] {title}: PASS{f' ({detail})' if detail else ''}")

        return run

    return wrap


def run_cli(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "musenum", *args],
        capture_output=True,
        timeout=timeout,
    )


@dataclass
class CorpusRun:
    kind: str
    n: int
    make_oracle: object
    expected: set
    results: dict


@dataclass
class SmallCorpus:
    runs: list = field(default_factory=list)
    build_seconds: float = 0.0
    table_count: int = 0
    cnf_count: int = 0


@pytest.fixture(scope="module")
def small_corpus():
    """Criterion-2 corpus: monotone tables plus unsatisfiable CNFs, both algorithms run."""
    started = time.monotonic()
    corpus = SmallCorpus()
    rng = random.Random(SMALL_CORPUS_SEED)

    for _ in range(200):
        n = rng.randint(1, 12)
        antichain = random_antichain(n, rng)

        def make(n=n, antichain=antichain):
            return table_from_antichain(n, antichain)

        corpus.runs.append(
            CorpusRun(
                kind="table",
                n=n,
                make_oracle=make,
                expected=bruteforce_all_muses(make()),
                results={
                    "remus": enumerate_remus(make()),
                    "marco": enumerate_marco(make()),
                },
            )
        )
        corpus.table_count += 1

    seed = 0
    while corpus.cnf_count < 100:
        seed += 1
        num_vars = rng.randint(2, 6)
        num_clauses = rng.randint(4, 12)
        width = rng.choice([1, 2, 2, 3])
        clauses = random_cnf(num_vars, num_clauses, width, seed=seed)
        probe = CnfOracle(num_vars, clauses)
        if probe.is_sat(ConstraintSet.full(probe.n)):
            continue

        def make(num_vars=num_vars, clauses=clauses):
            return CnfOracle(num_vars, clauses)

        corpus.runs.append(
            CorpusRun(
                kind="cnf",
                n=probe.n,
                make_oracle=make,
                expected=bruteforce_all_muses(make()),
                results={
                    "remus": enumerate_remus(make()),
                    "marco": enumerate_marco(make()),
                },
            )
        )
        corpus.cnf_count += 1

    corpus.build_seconds = time.monotonic() - started
    return corpus


@dataclass
class BenchInstance:
    num_vars: int
    clauses: list
    results: dict


@pytest.fixture(scope="module")
def bench_corpus():
    """Criterion-5 corpus: 3-CNF near ratio 4.3, 40-80 clauses, >= 20 MUSes each."""
    started = time.monotonic()
    rng = random.Random(BENCH_SEED)
    config = RemusConfig(mus_limit=20, check_limit=BENCH_CHECK_CAP)
    instances = []
    seed = 0
    while len(instances) < 30:
        seed += 1
        num_clauses = rng.randint(40, 80)
        num_vars = max(3, round(num_clauses / 4.3))
        clauses = random_cnf(num_vars, num_clauses, 3, seed=BENCH_SEED + seed)
        probe = CnfOracle(num_vars, clauses)
        if probe.is_sat(ConstraintSet.full(probe.n)):
            continue
        marco_run = enumerate_marco(CnfOracle(num_vars, clauses), config)
        if len(marco_run.records) < 20:
            continue  # cannot certify the instance holds >= 20 MUSes
        remus_run = enumerate_remus(CnfOracle(num_vars, clauses), config)
        instances.append(
            BenchInstance(num_vars, clauses, {"remus": remus_run, "marco": marco_run})
        )
    return instances, time.monotonic() - started


@criterion(1, "example-1 reproduction via CLI, both algorithms, under one second")
def test_criterion_1_example1_reproduction(example1_path):
    timings = []
    for algorithm in ("remus", "marco"):
        start = time.monotonic()
        proc = run_cli("solve", example1_path, "--algorithm", algorithm)
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        emitted = []
        for line in lines:
            match = MUS_LINE_RE.match(line)
            if match:
                emitted.append(frozenset(int(t) for t in match.group(2).split()))
        assert len(emitted) == 2, lines
        assert set(emitted) == {frozenset({1, 2}), frozenset({1, 3, 4})}
        summary = SUMMARY_RE.match(lines[-1])
        assert summary and summary.group(5) == b"yes"
        assert elapsed < 1.0, f"{algorithm} took {elapsed:.3f}s"
        timings.append(f"{algorithm} {elapsed:.2f}s")
    return ", ".join(timings)


@criterion(2, "oracle equivalence with brute force on 200 tables + 100 CNFs")
def test_criterion_2_oracle_equivalence(small_corpus):
    assert small_corpus.table_count >= 200
    assert small_corpus.cnf_count >= 100
    for run in small_corpus.runs:
        for name, result in run.results.items():
            assert result.complete, (run.kind, name)
            assert set(muses_of(result)) == run.expected, (run.kind, name)
    assert small_corpus.build_seconds < 120.0, f"took {small_corpus.build_seconds:.1f}s"
    return (
        f"{small_corpus.table_count} tables + {small_corpus.cnf_count} cnfs "
        f"in {small_corpus.build_seconds:.1f}s"
    )


@criterion(3, "zero duplicate emissions; every MUS passes fresh-oracle verification")
def test_criterion_3_uniqueness_and_minimality(small_corpus):
    verified = 0
    for run in small_corpus.runs:
        for name, result in run.results.items():
            assert len(muses_of(result)) == len(set(muses_of(result))), (run.kind, name)
            verifier = run.make_oracle()
            for mus in muses_of(result):
                assert is_mus(verifier, mus), (run.kind, name, mus)
                verified += 1
    return f"{verified} emissions verified"


@criterion(4, "symbolic map equals explicit reference on 1000 random block logs")
def test_criterion_4_map_soundness():
    rng = random.Random(MAP_LOG_SEED)
    discrepancies = 0
    for _ in range(1000):
        n = rng.randint(1, 12)
        umap = UnexploredMap(n)
        log = []
        for _ in range(rng.randint(0, 12)):
            mask = rng.randrange(1 << n)
            if rng.random() < 0.5:
                umap.block_down(ConstraintSet(n, mask))
                log.append(("down", mask))
            else:
                umap.block_up(ConstraintSet(n, mask))
                log.append(("up", mask))
        if enumerate_map_models(umap) != explicit_map_reference(n, log):
            discrepancies += 1
    assert discrepancies == 0
    return "1000 logs, zero discrepancies"


@criterion(5, "fewer checks per MUS than the baseline on the generated bench corpus")
def test_criterion_5_checks_per_mus(bench_corpus):
    instances, build_seconds = bench_corpus
    assert len(instances) >= 30
    ratios = []
    seed_sizes = {"remus": [], "marco": []}
    for inst in instances:
        for name, result in inst.results.items():
            assert len(result.records) >= 10, (name, inst.num_vars)
            seed_sizes[name].extend(len(r.seed) for r in result.records)
        to_first_10 = {
            name: result.records[9].oracle_checks
            for name, result in inst.results.items()
        }
        ratios.append(to_first_10["remus"] / to_first_10["marco"])
    median_ratio = statistics.median(ratios)
    mean_seed = {name: statistics.mean(sizes) for name, sizes in seed_sizes.items()}
    assert median_ratio <= 1.0, f"median ratio {median_ratio:.3f}"
    assert mean_seed["remus"] < mean_seed["marco"], mean_seed
    assert build_seconds < 600.0, f"took {build_seconds:.1f}s"
    return (
        f"{len(instances)} instances, median checks ratio {median_ratio:.2f}, "
        f"mean seed {mean_seed['remus']:.1f} vs {mean_seed['marco']:.1f}, "
        f"{build_seconds:.0f}s"
    )


# The paper's headline claim, beside criterion 5: within one budget of
# checks remus emits more MUSes than marco. These six seeds are the
# unsatisfiable ones among random_cnf(30, 130) seeds 1-14.
HEADLINE_SEEDS = (6, 7, 8, 11, 13, 14)


def test_remus_emits_more_muses_than_marco_within_a_check_budget():
    config = RemusConfig(check_limit=300)
    for seed in HEADLINE_SEEDS:
        clauses = random_cnf(30, 130, 3, seed)
        found = {}
        for run in (enumerate_remus, enumerate_marco):
            result = run(CnfOracle(30, clauses), config)
            assert not result.complete, (seed, run.__name__)
            found[run.__name__] = len(result.records)
        assert found["enumerate_remus"] > found["enumerate_marco"], (seed, found)


def _find_unsat_bench_file(tmp_path, num_vars, num_clauses):
    for seed in range(1, 50):
        clauses = random_cnf(num_vars, num_clauses, 3, seed=seed)
        oracle = CnfOracle(num_vars, clauses)
        if not oracle.is_sat(ConstraintSet.full(oracle.n)):
            path = tmp_path / f"bench_{seed}.cnf"
            path.write_text(to_dimacs(num_vars, clauses))
            return str(path), clauses
    raise AssertionError("no unsatisfiable bench instance found")


@criterion(6, "online/any-time: exact --mus-limit output and kill-safe streaming")
def test_criterion_6_online_anytime(tmp_path):
    path, clauses = _find_unsat_bench_file(tmp_path, num_vars=14, num_clauses=60)

    # budget stop: exactly k valid MUSes, clean exit
    k = 5
    proc = run_cli("solve", path, "--mus-limit", str(k))
    assert proc.returncode == 0
    mus_lines = [m for m in map(MUS_LINE_RE.match, proc.stdout.splitlines()) if m]
    assert len(mus_lines) == k
    verifier = CnfOracle(14, clauses)
    for match in mus_lines:
        indices = [int(t) - 1 for t in match.group(2).split()]
        assert is_mus(verifier, from_indices(verifier.n, indices))
    assert proc.stdout.splitlines()[-1].endswith(b"complete=no")

    # kill mid-run: a long instance, SIGKILL after two streamed MUSes
    big_path, big_clauses = _find_unsat_bench_file(tmp_path, num_vars=48, num_clauses=220)
    child = subprocess.Popen(
        [sys.executable, "-m", "musenum", "solve", big_path],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    received = b""
    deadline = time.monotonic() + 90
    try:
        while received.count(b"\n") < 2 and time.monotonic() < deadline:
            ready, _, _ = select.select([child.stdout], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(child.stdout.fileno(), 65536)
            if not chunk:
                break
            received += chunk
        child.kill()
        remainder, _ = child.communicate(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
    output = received + remainder
    assert output.endswith(b"\n"), "partial line after kill"
    lines = output.splitlines()
    assert len(lines) >= 1
    big_verifier = CnfOracle(48, big_clauses)
    ordinals = []
    for line in lines:
        match = MUS_LINE_RE.match(line)
        assert match, f"non-MUS line in killed output: {line!r}"
        ordinals.append(int(match.group(1)))
        indices = [int(t) - 1 for t in match.group(2).split()]
        assert is_mus(big_verifier, from_indices(big_verifier.n, indices))
    assert ordinals == list(range(1, len(ordinals) + 1))
    return f"mus-limit {k} exact; {len(ordinals)} valid lines survived SIGKILL"


@criterion(7, "every shrink stays within its |seed \\ criticals| check budget")
def test_criterion_7_shrink_check_bound(small_corpus):
    calls = 0
    for run in small_corpus.runs:
        for name, result in run.results.items():
            for record in result.records:
                assert record.shrink_checks <= len(record.seed) - len(record.criticals), (run.kind, name)
                calls += 1
    assert calls > 0
    return f"{calls} shrink calls within bound"
