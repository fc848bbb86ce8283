import argparse
import csv
import re
import subprocess
import sys
from pathlib import Path

import pytest

import musenum
from musenum import parse_dimacs
from musenum.cli import build_parser, run

SUMMARY_RE = re.compile(
    r"^found=(\d+) oracle_checks=(\d+) map_calls=(\d+) elapsed=([0-9.]+)s complete=(yes|no)$"
)
MUS_LINE_RE = re.compile(r"^MUS (\d+): ((?:\d+ )*\d+)$")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "musenum", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def parse_mus_lines(stdout):
    muses = {}
    for line in stdout.splitlines():
        match = MUS_LINE_RE.match(line)
        if match:
            muses[int(match.group(1))] = frozenset(int(t) for t in match.group(2).split())
    return muses


@pytest.mark.parametrize("algorithm", ["remus", "marco"])
def test_solve_example1(example1_path, algorithm):
    proc = run_cli("solve", example1_path, "--algorithm", algorithm)
    assert proc.returncode == 0, proc.stderr
    muses = parse_mus_lines(proc.stdout)
    assert sorted(muses) == [1, 2]
    assert set(muses.values()) == {frozenset({1, 2}), frozenset({1, 3, 4})}
    summary = SUMMARY_RE.match(proc.stdout.splitlines()[-1])
    assert summary, proc.stdout
    assert summary.group(1) == "2"
    assert summary.group(5) == "yes"


def test_solve_mus_limit_stops_cleanly(example1_path):
    proc = run_cli("solve", example1_path, "--mus-limit", "1")
    assert proc.returncode == 0
    assert len(parse_mus_lines(proc.stdout)) == 1
    assert proc.stdout.splitlines()[-1].endswith("complete=no")


def test_solve_into_a_closed_pipe_stops_quietly_with_exit_1(tmp_path):
    # 200 MUSes {c1, ci}: the run is still streaming when the reader leaves
    path = tmp_path / "many.cnf"
    path.write_text("p cnf 1 201\n-1 0\n" + "1 0\n" * 200)
    with subprocess.Popen(
        [sys.executable, "-m", "musenum", "solve", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        assert MUS_LINE_RE.match(proc.stdout.readline().rstrip("\n"))
        proc.stdout.close()
        code = proc.wait(timeout=120)
        stderr = proc.stderr.read()
    assert code == 1
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr


def test_solve_satisfiable_instance_exits_3(tmp_path):
    path = tmp_path / "sat.cnf"
    path.write_text("p cnf 2 2\n1 0\n2 0\n")
    proc = run_cli("solve", str(path))
    assert proc.returncode == 3
    assert "instance is satisfiable" in proc.stderr
    assert "MUS" not in proc.stdout


def test_solve_unreadable_input_exits_2(tmp_path):
    proc = run_cli("solve", str(tmp_path / "missing.cnf"))
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr


def test_solve_malformed_input_exits_2_with_line(tmp_path):
    path = tmp_path / "broken.cnf"
    path.write_text("p cnf 2 3\n1 0\n2 0\n")
    proc = run_cli("solve", str(path))
    assert proc.returncode == 2
    assert "line 1" in proc.stderr and "declares 3 clauses" in proc.stderr


def test_zero_constraint_instance_exits_2(tmp_path):
    path = tmp_path / "empty.cnf"
    path.write_text("p cnf 3 0\n")
    proc = run_cli("solve", str(path))
    assert proc.returncode == 2
    assert "at least one constraint" in proc.stderr


def test_bad_flag_values_exit_2(example1_path):
    for flags in (
        ["--reduction-factor", "1.5"],
        ["--reduction-factor", "nan"],
        ["--mus-limit", "0"],
        ["--time-limit", "-1"],
        ["--algorithm", "dfs"],
        ["--no-shrink-feed"],
    ):
        proc = run_cli("solve", example1_path, *flags)
        assert proc.returncode == 2, flags
        assert "Traceback" not in proc.stderr, flags
        assert "MUS" not in proc.stdout, flags


def test_nan_time_limit_exits_2(example1_path):
    proc = run_cli("solve", example1_path, "--time-limit", "nan")
    assert proc.returncode == 2
    assert "non-negative number" in proc.stderr


def test_quiet_suppresses_mus_lines(example1_path):
    proc = run_cli("solve", example1_path, "--quiet")
    assert proc.returncode == 0
    assert not parse_mus_lines(proc.stdout)
    assert SUMMARY_RE.match(proc.stdout.strip())


def test_stats_csv_reconciles_with_summary(example1_path, tmp_path):
    csv_path = tmp_path / "stats.csv"
    proc = run_cli("solve", example1_path, "--stats", str(csv_path))
    assert proc.returncode == 0
    summary = SUMMARY_RE.match(proc.stdout.splitlines()[-1])
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["mus_index", "elapsed_s", "oracle_checks", "map_solver_calls", "depth"]
    data = rows[1:]
    assert len(data) == int(summary.group(1))
    assert [int(row[0]) for row in data] == list(range(1, len(data) + 1))
    # cumulative columns never decrease and stay within the summary totals
    for earlier, later in zip(data, data[1:]):
        assert float(earlier[1]) <= float(later[1])
        assert int(earlier[2]) <= int(later[2])
        assert int(earlier[3]) <= int(later[3])
    assert int(data[-1][2]) <= int(summary.group(2))
    assert int(data[-1][3]) <= int(summary.group(3))


def test_stats_csv_with_mus_limit_has_one_row(example1_path, tmp_path):
    csv_path = tmp_path / "stats.csv"
    proc = run_cli("solve", example1_path, "--mus-limit", "1", "--stats", str(csv_path))
    assert proc.returncode == 0
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 2


def test_completed_run_always_has_at_least_one_row(tmp_path):
    # an unsatisfiable instance always contains a MUS
    path = tmp_path / "tiny.cnf"
    path.write_text("p cnf 1 2\n1 0\n-1 0\n")
    csv_path = tmp_path / "stats.csv"
    proc = run_cli("solve", str(path), "--stats", str(csv_path))
    assert proc.returncode == 0
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) >= 2


def test_gen_is_deterministic_and_parseable(tmp_path):
    first = run_cli("gen", "--vars", "6", "--clauses", "20", "--seed", "5")
    second = run_cli("gen", "--vars", "6", "--clauses", "20", "--seed", "5")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    oracle = parse_dimacs(first.stdout)
    assert oracle.num_vars == 6
    assert oracle.n == 20


def test_gen_to_file_then_solve(tmp_path):
    from musenum import ConstraintSet

    cnf_path = tmp_path / "gen.cnf"
    gen = run_cli("gen", "--vars", "5", "--clauses", "30", "--width", "2",
                  "--seed", "9", "-o", str(cnf_path))
    assert gen.returncode == 0
    oracle = parse_dimacs(cnf_path.read_text())
    assert not oracle.is_sat(ConstraintSet.full(oracle.n))  # pinned by the seed
    proc = run_cli("solve", str(cnf_path), "--mus-limit", "2")
    assert proc.returncode == 0
    assert len(parse_mus_lines(proc.stdout)) == 2


def test_run_in_process_matches_subprocess(example1_path, capsys, tmp_path):
    code = run(["solve", example1_path, "--algorithm", "marco"])
    captured = capsys.readouterr()
    assert code == 0
    assert set(parse_mus_lines(captured.out).values()) == {
        frozenset({1, 2}),
        frozenset({1, 3, 4}),
    }


def test_write_stats_csv_unwritable_path(example1_path, tmp_path):
    code = run(["solve", example1_path, "--stats", str(tmp_path / "no" / "dir.csv")])
    assert code == 1


def test_gen_unwritable_output_exits_1(tmp_path):
    code = run(["gen", "--vars", "3", "--clauses", "4", "-o", str(tmp_path / "no" / "x.cnf")])
    assert code == 1


def test_readme_synopsis_names_every_long_option():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```")[1]
    documented = {
        chunk.split()[0]: set(re.findall(r"--[a-z][a-z-]*", chunk))
        for chunk in re.split(r"^musenum ", block, flags=re.M)
        if chunk.strip()
    }
    (commands,) = [
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    defined = {
        name: {
            option for action in sub._actions for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        for name, sub in commands.items()
    }
    assert documented == defined


def test_readme_layout_lists_every_module():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Layout\n", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\w+\.py) ", block, flags=re.M)
    modules = Path(musenum.__file__).parent.glob("*.py")
    assert sorted(listed) == sorted(m.name for m in modules if not m.name.startswith("__"))
