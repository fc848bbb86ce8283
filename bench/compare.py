"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds the last stdout line of several `bench/run.py` runs of one
workload, one JSON object per line (one line per seed). For every metric it
prints each side's median and quartiles and the change of the medians; for the
end-to-end metrics in BENCHMARK.json it also flags a change worse than the
metric's bound, and a spread wider than the bound as unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> tuple[dict[str, list[float]], int]:
    values: dict[str, list[float]] = {}
    failed = 0
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        result = json.loads(line)
        failed += result["failed"] + (not result["correct"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, failed


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, base_failed), (new, new_failed) = load(argv[0]), load(argv[1])
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    print(f"failures: base {base_failed}, new {new_failed}")
    print(f"{'metric':40s} {'base median [q1, q3]':>32s} {'new median [q1, q3]':>32s} {'change':>8s}")
    for name in sorted(set(base) & set(new)):
        b1, bm, b3 = summary(base[name])
        n1, nm, n3 = summary(new[name])
        change = (nm - bm) / bm if bm else 0.0
        verdict = ""
        if name in bounds:
            bound, better = bounds[name]
            worse = change if better == "lower" else -change
            if (b3 - b1) / bm > bound:
                verdict = "unresolved: base spread exceeds bound"
            elif worse > bound:
                verdict = f"WORSE than bound {bound}"
        print(f"{name:40s} {bm:12.6g} [{b1:.4g}, {b3:.4g}] {nm:12.6g} [{n1:.4g}, {n3:.4g}] "
              f"{change:+8.1%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
