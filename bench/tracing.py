"""Spans around calls into musenum's layers, recorded from outside the package.

A Tracer replaces public functions and methods with wrappers while it is
installed and restores them on exit. Spans stay in memory as
[layer, parent index, start, end, info]; `summarize` folds one run's spans
into per-layer counts and times after the run has ended.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import musenum.cli
import musenum.session
from musenum.oracles import SatOracle
from musenum.satsolver import SatSolver
from musenum.session import Session
from musenum.unexplored import UnexploredMap


def _result(args, result):
    return result


def _map_info(args, result):
    return (result is None, args[0].grow_evals)


def _shrink_info(args, result):
    seed = len(args[1])
    return (seed, len(result[0]) if result else seed)


def _emit_info(args, result):
    return args[2]


class Tracer:
    """Records one span per wrapped call; `spans` is emptied by `take`."""

    def __init__(self, stream_class):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._targets = [
            ("oracle", SatOracle, "is_sat", _result),
            ("solver", SatSolver, "solve", None),
            ("map.max", UnexploredMap, "max_unexplored_subset_of", _map_info),
            ("map.block", UnexploredMap, "block_down", None),
            ("map.block", UnexploredMap, "block_up", None),
            ("shrink", musenum.session, "shrink", _shrink_info),
            ("emit", Session, "emit", _emit_info),
            ("parse", musenum.cli, "parse_dimacs", None),
            ("enumerate", musenum.cli, "enumerate_remus", None),
            ("enumerate", musenum.cli, "enumerate_marco", None),
            ("write", musenum.cli, "write_stats_csv", None),
            ("write", stream_class, "write", None),
        ]

    def __enter__(self):
        for layer, owner, attr, info in self._targets:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, self._wrap(layer, getattr(owner, attr), info))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            result = None  # stays None when the call raises, as emit does at the MUS cap
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = clock()
                stack.pop()
                if info is not None:
                    span[4] = info(args, result)

        return traced

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list[list], wall_s: float, mus_count: int) -> dict:
    """Per-layer totals of one traced `musenum solve` run.

    Self time is a span's duration minus its children's; the self times of all
    spans add up to the time the root spans cover, and whatever of `wall_s`
    they leave is reported as unattributed.
    """
    child = [0.0] * len(spans)
    for layer, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    count = defaultdict(int)
    for i, (layer, parent, start, end, _) in enumerate(spans):
        total[layer] += end - start
        self_time[layer] += end - start - child[i]
        count[layer] += 1

    checks_ms = []
    sat = shrink_checks = 0
    solver_oracle_s = solver_map_s = 0.0
    map_none = grow_evals = seed_size = removed = depth = 0
    for layer, parent, start, end, info in spans:
        parent_layer = spans[parent][0] if parent >= 0 else None
        if layer == "oracle":
            checks_ms.append((end - start) * 1e3)
            sat += info
            shrink_checks += parent_layer == "shrink"
        elif layer == "solver":
            if parent_layer == "oracle":
                solver_oracle_s += end - start
            else:
                solver_map_s += end - start
        elif layer == "map.max":
            map_none += info[0]
            grow_evals = info[1]
        elif layer == "shrink":
            seed_size += info[0]
            removed += info[0] - info[1]
        elif layer == "emit":
            depth = max(depth, info)

    quarter = max(1, len(checks_ms) // 4)
    return {
        "checks_ms": checks_ms,
        "growth": statistics.fmean(checks_ms[-quarter:]) / statistics.fmean(checks_ms[:quarter]),
        "oracles.checks": count["oracle"],
        "oracles.sat": sat,
        "oracles.s": total["oracle"],
        "oracles.self_s": self_time["oracle"],
        "satsolver.solves": count["solver"],
        "satsolver.oracle_s": solver_oracle_s,
        "satsolver.map_s": solver_map_s,
        "unexplored.max_calls": count["map.max"],
        "unexplored.max_s": total["map.max"],
        "unexplored.max_self_s": self_time["map.max"],
        "unexplored.none": map_none,
        "unexplored.blocks": count["map.block"],
        "unexplored.block_s": total["map.block"],
        "unexplored.grow_evals": grow_evals,
        "shrink.calls": count["shrink"],
        "shrink.s": total["shrink"],
        "shrink.self_s": self_time["shrink"],
        "shrink.checks": shrink_checks,
        "shrink.seed_size": seed_size,
        "shrink.removed": removed,
        "session.self_s": self_time["enumerate"],
        "session.emit_s": total["emit"],
        "muses": mus_count,
        "max_depth": depth,
        "cli.parse_s": total["parse"],
        "cli.write_s": total["write"],
        "attributed_s": sum(self_time.values()),
        "wall_s": wall_s,
    }
