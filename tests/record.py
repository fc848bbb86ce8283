"""Recompute every pinned run figure and rewrite tests/recorded.json.

Usage: python tests/record.py

Each figure comes from the function its test calls, `figures(name)` in the
module that names the run in `RECORDED_RUNS`. Every figure that changed is
printed as "<run name> <figure>: old → new", the lines to quote in
CHANGES.md.
"""

import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

import test_bench_hooks  # noqa: E402
import test_golden  # noqa: E402
import test_satsolver  # noqa: E402
import test_shrink  # noqa: E402


def main() -> None:
    path = TESTS / "recorded.json"
    old = json.loads(path.read_text())
    new = {}
    for module in (test_golden, test_satsolver, test_shrink, test_bench_hooks):
        for name in module.RECORDED_RUNS:
            new[name] = module.figures(name)
    for name in {**old, **new}:
        before, after = old.get(name, {}), new.get(name, {})
        for figure in {**before, **after}:
            if before.get(figure) != after.get(figure):
                print(f"{name} {figure}: {before.get(figure)} → {after.get(figure)}")
    path.write_text("{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in new.items()) + "\n}\n")


if __name__ == "__main__":
    main()
