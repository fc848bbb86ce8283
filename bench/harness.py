"""One `musenum solve` run in this process, timed from outside, plus its output checks."""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import musenum.cli
from musenum import ConstraintSet, is_mus

from workloads import Formula, Workload

MUS_LINE = re.compile(r"MUS (\d+):((?: \d+)*)\n")
SUMMARY_LINE = re.compile(
    r"found=(\d+) oracle_checks=(\d+) map_calls=(\d+) elapsed=\S+ complete=(yes|no)\n"
)


# host_probe() on one quiet core of the 2-core Intel Xeon VM the benchmark was tuned on
REFERENCE_PROBE_S = 0.002
_PROBE_TABLE = list(range(4096))


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop that calls no musenum code.

    The host's speed drifts by up to 1.6x for a minute or more at a time; the
    loop slows down with it, so a time measured next to it can be scaled to
    the reference speed. Takes the faster of two passes.
    """
    times = []
    for _ in range(2):
        began = time.perf_counter()
        table, index, total = _PROBE_TABLE, 17, 0
        for i in range(20000):
            index = table[(index * 31 + i) & 4095]
            total += index & 7
        times.append(time.perf_counter() - began)
    return min(times)


class LineClock(io.TextIOBase):
    """Stands in for stdout during a run and stamps each write with the clock."""

    def __init__(self):
        self.writes: list[tuple[float, str]] = []

    def write(self, text: str) -> int:
        self.writes.append((time.perf_counter(), text))
        return len(text)


@dataclass
class Run:
    instance: int
    algorithm: str
    traced: bool
    code: int
    start: float = 0.0  # enumeration start and end, perf_counter seconds
    end: float = 0.0
    wall_s: float = 0.0  # the whole `musenum solve` call
    mus_times: list[float] = field(default_factory=list)
    ordinals: list[int] = field(default_factory=list)
    muses: list[tuple[int, ...]] = field(default_factory=list)
    summary: tuple[int, int, int, bool] | None = None  # found, checks, map calls, complete
    csv_rows: int = -1
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None  # per-layer totals of a traced run
    probe_s: float = REFERENCE_PROBE_S  # mean host_probe() just before and just after

    @property
    def scale(self) -> float:
        """Factor that turns this run's times into times at the reference host speed."""
        return REFERENCE_PROBE_S / self.probe_s

    @property
    def run_s(self) -> float:
        return self.end - self.start

    @property
    def first_mus_s(self) -> float:
        return self.mus_times[0] - self.start

    def fingerprint(self) -> tuple:
        digest = hashlib.sha256(repr(self.muses).encode()).hexdigest()
        return (self.summary[1], self.summary[2], digest) if self.summary else None


class Harness:
    """Times enumeration start and end around musenum.cli's enumerate functions."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._start = self._end = 0.0
        self._saved: dict[str, object] = {}

    def __enter__(self):
        for name in ("enumerate_remus", "enumerate_marco"):
            self._saved[name] = original = getattr(musenum.cli, name)
            setattr(musenum.cli, name, self._clocked(original))
        return self

    def __exit__(self, *exc):
        for name, original in self._saved.items():
            setattr(musenum.cli, name, original)

    def _clocked(self, fn):
        def clocked(*args, **kwargs):
            self._start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end = time.perf_counter()

        return clocked

    def solve(self, path: Path, instance: int, algorithm: str, tracer=None) -> Run:
        stats_path = self.workdir / f"stats-{instance}-{algorithm}.csv"
        argv = ["solve", str(path), "--algorithm", algorithm, "--stats", str(stats_path)]
        stats_path.unlink(missing_ok=True)  # a stale file must not pass the row check
        stream = LineClock()
        saved_stdout = sys.stdout
        self._start = self._end = 0.0
        error = None
        gc.collect()
        probe_before = host_probe()
        sys.stdout = stream
        try:
            with tracer or contextlib.nullcontext():
                began = time.perf_counter()
                try:
                    code = musenum.cli.run(argv)
                except Exception as exc:  # a crashing run is a failed run, not the end of the benchmark
                    code, error = -1, f"raised {exc!r}"
                wall_s = time.perf_counter() - began
        finally:
            sys.stdout = saved_stdout
        run = Run(instance, algorithm, tracer is not None, code, self._start, self._end, wall_s)
        run.probe_s = (probe_before + host_probe()) / 2
        if error:
            run.problems.append(error)
        _read_output(run, stream.writes, stats_path)
        return run


def _read_output(run: Run, writes: list[tuple[float, str]], stats_path: Path) -> None:
    for stamp, text in writes:
        line = MUS_LINE.fullmatch(text)
        if line:
            run.mus_times.append(stamp)
            run.ordinals.append(int(line.group(1)))
            run.muses.append(tuple(int(i) for i in line.group(2).split()))
            continue
        summary = SUMMARY_LINE.fullmatch(text)
        if summary:
            found, checks, maps, complete = summary.groups()
            run.summary = (int(found), int(checks), int(maps), complete == "yes")
        else:
            run.problems.append(f"unexpected output {text!r}")
    try:
        with open(stats_path, newline="") as handle:
            run.csv_rows = sum(1 for _ in csv.reader(handle)) - 1
    except OSError:
        run.problems.append("no --stats file")


class Verifier:
    """Checks one run's output against the formula it ran on.

    Whether a clause set is a MUS depends only on its clauses, so each distinct
    set is checked once, with is_mus on a fresh oracle over just those clauses.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self._verdicts: dict[tuple, bool] = {}

    def check(self, run: Run, formula: Formula) -> None:
        problems = run.problems
        if run.code != 0:
            problems.append(f"exit code {run.code}")
        if run.summary is None:
            problems.append("no summary line")
            return
        found, _, _, complete = run.summary
        if run.ordinals != list(range(1, len(run.ordinals) + 1)):
            problems.append("MUS ordinals are not 1..k")
        if len(set(run.muses)) != len(run.muses):
            problems.append("duplicate MUS")
        if not found == len(run.muses) == run.csv_rows:
            problems.append(f"found={found}, {len(run.muses)} MUS lines, {run.csv_rows} CSV rows")
        if not complete:
            problems.append("enumeration did not complete")
        n = len(formula.clauses)
        if self.workload.single_full_mus and run.muses != [tuple(range(1, n + 1))]:
            problems.append("the single MUS is not the full clause set")
        for mus in run.muses:
            if not self._is_mus(formula, mus):
                problems.append(f"MUS {mus} fails is_mus")

    def _is_mus(self, formula: Formula, mus: tuple[int, ...]) -> bool:
        clauses = tuple(formula.clauses[i - 1] for i in mus if 1 <= i <= len(formula.clauses))
        if len(clauses) != len(mus):
            return False
        key = tuple(sorted(clauses))
        if key not in self._verdicts:
            oracle = Formula(formula.label, formula.num_vars, clauses).oracle()
            self._verdicts[key] = is_mus(oracle, ConstraintSet.full(len(clauses)))
        return self._verdicts[key]


def check_across_runs(runs: list[Run]) -> None:
    """Determinism per (instance, algorithm), and equal MUS sets from remus and marco."""
    first: dict[tuple[int, str], Run] = {}
    for run in runs:
        key = (run.instance, run.algorithm)
        if key not in first:
            first[key] = run
        elif run.fingerprint() != first[key].fingerprint():
            run.problems.append("checks, map calls or MUS sequence differ from an earlier run")
    for (instance, algorithm), run in first.items():
        other = first.get((instance, "marco"))
        if algorithm == "remus" and other and set(run.muses) != set(other.muses):
            run.problems.append("remus and marco emitted different MUS sets")
