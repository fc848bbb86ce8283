"""The musenum benchmark: MUS streaming latency and check counts, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process, one `musenum solve` at
a time, both algorithms on every formula. With --trace 0 it prints the
end-to-end metrics; with --trace 1 it repeats each run with spans around the
package's layers and prints the per-layer metrics. The last line of stdout is
a JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
ALGORITHMS = ("remus", "marco")
SETUP_MIN_REPEATS = 11
SETUP_MIN_SECONDS = 0.5

# name -> unit; each is reported once per algorithm as "<algorithm>.<name>"
LAYER_UNITS = {
    "oracles.checks": "count",
    "oracles.sat_frac": "frac",
    "oracles.s": "s",
    "oracles.self_s": "s",
    "oracles.check_ms.p50": "ms",
    "oracles.check_ms.p99": "ms",
    "oracles.check_ms.growth": "ratio",
    "satsolver.solves": "count",
    "satsolver.oracle_s": "s",
    "satsolver.map_s": "s",
    "unexplored.max_calls": "count",
    "unexplored.max_s": "s",
    "unexplored.max_self_s": "s",
    "unexplored.none_frac": "frac",
    "unexplored.useful_frac": "frac",
    "unexplored.blocks": "count",
    "unexplored.block_s": "s",
    "unexplored.grow_evals": "count",
    "shrink.calls": "count",
    "shrink.s": "s",
    "shrink.self_s": "s",
    "shrink.checks_per_call": "count",
    "shrink.seed_size": "count",
    "shrink.removal_frac": "frac",
    "session.self_s": "s",
    "session.emit_s": "s",
    "max_depth": "count",
    "cli.parse_s": "s",
    "cli.write_s": "s",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setup(paths, parse_dimacs, host_probe, reference_probe_s) -> float:
    """Median time for parse_dimacs to turn all of the workload's files into oracles.

    Each repetition is scaled to the reference host speed like a run.
    """
    texts = [path.read_bytes() for path in paths]
    spent = 0.0
    samples: list[float] = []
    while len(samples) < SETUP_MIN_REPEATS or spent < SETUP_MIN_SECONDS:
        probe_s = host_probe()
        began = time.perf_counter()
        for text in texts:
            parse_dimacs(text)
        elapsed = time.perf_counter() - began
        spent += elapsed
        samples.append(elapsed * reference_probe_s / probe_s)
    return statistics.median(samples)


def measure(workload, seed: int, seconds: float, trace: bool):
    """Every run of one workload: sweeps over its formulas with both algorithms.

    A traced run makes one sweep in which each run is made untraced, then traced.
    """
    from musenum import parse_dimacs

    from harness import REFERENCE_PROBE_S, Harness, LineClock, Verifier, check_across_runs, host_probe
    from tracing import Tracer, summarize

    formulas = workload.build(seed)
    workdir = WORK / f"{workload.name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, formula in enumerate(formulas):
        paths.append(workdir / f"f{i}.cnf")
        paths[-1].write_text(formula.dimacs())
    setup_s = time_setup(paths, parse_dimacs, host_probe, REFERENCE_PROBE_S)

    runs = []
    tracer = Tracer(LineClock) if trace else None
    with Harness(workdir) as harness:
        for _ in range(1 if trace else workload.sweeps(seconds)):
            for i, path in enumerate(paths):
                for algorithm in ALGORITHMS:
                    runs.append(harness.solve(path, i, algorithm))
                    if tracer:
                        run = harness.solve(path, i, algorithm, tracer)
                        run.layers = summarize(tracer.take(), run.wall_s, len(run.muses))
                        runs.append(run)

    verifier = Verifier(workload)
    for run in runs:
        verifier.check(run, formulas[run.instance])
    check_across_runs(runs)
    return setup_s, runs


def end_to_end(setup_s: float, runs) -> dict:
    """User-visible metrics; times are at the reference host speed (see harness.host_probe)."""
    metrics = {"setup_s": (setup_s, "s")}
    for algorithm in ALGORITHMS:
        by_formula = defaultdict(list)
        for run in runs:
            if run.algorithm == algorithm and run.muses:
                by_formula[run.instance].append(run)
        # each formula counts with the median of its runs' scaled times
        first_s = statistics.median(
            statistics.median(r.first_mus_s * r.scale for r in v) for v in by_formula.values())
        run_s = sum(statistics.median(r.run_s * r.scale for r in v) for v in by_formula.values())
        checks = sum(v[0].summary[1] for v in by_formula.values())
        muses = sum(len(v[0].muses) for v in by_formula.values())
        metrics[f"{algorithm}.first_mus_s"] = (first_s, "s")
        metrics[f"{algorithm}.run_s"] = (run_s, "s")
        metrics[f"{algorithm}.checks_per_mus"] = (checks / muses, "checks/mus")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    failed = sum(1 for run in runs if run.problems)
    metrics["ok_frac"] = (1 - failed / len(runs), "frac")
    return metrics


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(runs) -> dict:
    metrics = {}
    for algorithm in ALGORITHMS:
        traced = [r for r in runs if r.algorithm == algorithm and r.layers]
        plain = {r.instance: r for r in runs if r.algorithm == algorithm and not r.layers}
        total = defaultdict(float)
        checks_ms: list[float] = []
        for run in traced:
            for key, value in run.layers.items():
                if isinstance(value, (int, float)):
                    total[key] += value
            checks_ms.extend(run.layers["checks_ms"])
        p = statistics.quantiles(checks_ms, n=100)
        untraced_s = sum(plain[r.instance].run_s * plain[r.instance].scale for r in traced)
        maps_with_set = total["unexplored.max_calls"] - total["unexplored.none"]
        values = {
            "oracles.checks": total["oracles.checks"],
            "oracles.sat_frac": _ratio(total["oracles.sat"], total["oracles.checks"]),
            "oracles.s": total["oracles.s"],
            "oracles.self_s": total["oracles.self_s"],
            "oracles.check_ms.p50": p[49],
            "oracles.check_ms.p99": p[98],
            "oracles.check_ms.growth": statistics.median(r.layers["growth"] for r in traced),
            "satsolver.solves": total["satsolver.solves"],
            "satsolver.oracle_s": total["satsolver.oracle_s"],
            "satsolver.map_s": total["satsolver.map_s"],
            "unexplored.max_calls": total["unexplored.max_calls"],
            "unexplored.max_s": total["unexplored.max_s"],
            "unexplored.max_self_s": total["unexplored.max_self_s"],
            "unexplored.none_frac": _ratio(total["unexplored.none"], total["unexplored.max_calls"]),
            "unexplored.useful_frac": _ratio(total["muses"], maps_with_set),
            "unexplored.blocks": total["unexplored.blocks"],
            "unexplored.block_s": total["unexplored.block_s"],
            "unexplored.grow_evals": total["unexplored.grow_evals"],
            "shrink.calls": total["shrink.calls"],
            "shrink.s": total["shrink.s"],
            "shrink.self_s": total["shrink.self_s"],
            "shrink.checks_per_call": _ratio(total["shrink.checks"], total["shrink.calls"]),
            "shrink.seed_size": _ratio(total["shrink.seed_size"], total["shrink.calls"]),
            "shrink.removal_frac": _ratio(total["shrink.removed"], total["shrink.checks"]),
            "session.self_s": total["session.self_s"],
            "session.emit_s": total["session.emit_s"],
            "max_depth": max(r.layers["max_depth"] for r in traced),
            "cli.parse_s": total["cli.parse_s"],
            "cli.write_s": total["cli.write_s"],
            "trace.overhead_frac": _ratio(sum(r.run_s * r.scale for r in traced), untraced_s) - 1,
            "trace.unattributed_frac": _ratio(
                total["wall_s"] - total["attributed_s"], total["wall_s"]),
        }
        for name, value in values.items():
            metrics[f"{algorithm}.{name}"] = (value, LAYER_UNITS[name])
    return metrics


def write_trace_summary(path: Path, runs) -> None:
    rows = []
    for run in runs:
        if run.layers:
            layers = {k: v for k, v in run.layers.items() if k != "checks_ms"}
            rows.append({"instance": run.instance, "algorithm": run.algorithm, **layers})
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "musenum" / "__init__.py").is_file():
        print(f"error: musenum sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # the benchmark's own modules import musenum, so they load only from here on
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup_s, runs = measure(workload, args.seed, args.seconds, bool(args.trace))
    failed = [run for run in runs if run.problems]
    speed = statistics.median(run.scale for run in runs)
    print(f"{workload.name} seed={args.seed}: {len(runs)} runs, {len(failed)} failed, "
          f"host at {speed:.2f} of reference speed", file=sys.stderr)
    for run in failed:
        print(f"FAILED {workload.name} seed={args.seed} formula={run.instance} "
              f"{run.algorithm} traced={run.traced}: {'; '.join(run.problems)}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(runs)
        write_trace_summary(WORK / f"trace-{workload.name}-{args.seed}.jsonl", runs)
    else:
        metrics = end_to_end(setup_s, runs)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
