"""Spans around the benchmark's calls into the engine, and Ray operator stats.

Spans are recorded only in a traced run (``--trace 1``), kept in memory and
written out when the run ends. Each span has a name (the engine module and
function it wraps), start, end, its parent span and the round it belongs
to. Ray's own per-operator counters (``Dataset.stats()``) are read after
every timed step of every run: the task CPU time they hold is what the
end-to-end CPU metrics sum. The time spent inside this module is measured
too, so a traced run can state its own overhead.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

_EXCHANGE_OPS = ("Sort", "Repartition", "Shuffle", "Aggregate", "AllToAll")


def classify_operator(name: str, is_sub: bool, after_exchange: bool) -> str:
    """Ray Data operator -> layer. Fused operators count under their first
    member, except that a map fused with the write gives the write what is
    not UDF time; maps before the first exchange of a plan are the per-row
    stage (``embed``), maps after it the per-partition stage (``merge``)."""
    if name.startswith("Read"):
        return "read"
    if name.startswith("Write"):
        return "write"
    if is_sub or any(x in name for x in _EXCHANGE_OPS):
        return "exchange"
    return "merge" if after_exchange else "embed"


def operator_times(summary, seen: set) -> dict[str, list[float]]:
    """Sum remote wall and CPU seconds per layer over a dataset's stats
    summary and its parents (one level per executed operator), each
    operator execution counted once across calls."""
    out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])

    def walk(s) -> bool:  # True once an exchange ran upstream
        after_exchange = any([walk(p) for p in s.parents])
        for op in s.operators_stats:
            cat = classify_operator(op.operator_name, op.is_sub_operator, after_exchange)
            after_exchange |= cat == "exchange"
            key = (op.operator_name, op.earliest_start_time)
            if key in seen:
                continue
            seen.add(key)
            wall = (op.wall_time or {}).get("sum", 0.0)
            cpu = (op.cpu_time or {}).get("sum", 0.0)
            # a map fused with the parquet write: the UDF's share is the map's
            share = 1.0
            if cat != "write" and op.operator_name.split("->")[-1].startswith("Write"):
                udf = (op.udf_time or {}).get("sum", 0.0)
                share = min(1.0, udf / wall) if wall > 0 else 0.0
                out["write"][0] += wall * (1 - share)
                out["write"][1] += cpu * (1 - share)
            out[cat][0] += wall * share
            out[cat][1] += cpu * share
        return after_exchange

    walk(summary)
    return out


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.round = -1
        self.step = ""
        self.round_walls: list[list[float]] = []  # per round, per step
        # task CPU seconds per round and step, from Ray's operator stats
        self.step_cpu: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.spans: list[dict] = []
        self.ray: dict[int, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0.0]))
        self.overhead_s: dict[int, float] = defaultdict(float)
        self._stack: list[int] = []
        self._seen: set = set()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        t = time.perf_counter()
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "round": self.round,
                           "parent": self._stack[-1] if self._stack else None})
        self._stack.append(sid)
        self.overhead_s[self.round] += time.perf_counter() - t
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid].update(start=start, end=end)
            self.overhead_s[self.round] += time.perf_counter() - end

    def ray_stats(self, *datasets):
        t = time.perf_counter()
        for ds in datasets:
            # a written dataset keeps its execution stats on the internal
            # write dataset, as Dataset.stats() does
            ds = getattr(ds, "_write_ds", None) or ds
            for cat, (wall, cpu) in operator_times(ds._get_stats_summary(),
                                                   self._seen).items():
                self.ray[self.round][cat][0] += wall
                self.ray[self.round][cat][1] += cpu
                self.step_cpu[self.round][self.step] += cpu
        self.overhead_s[self.round] += time.perf_counter() - t

    def span_totals(self, name: str) -> list[float]:
        """Per-round total seconds of the spans called ``name``."""
        per_round: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["name"] == name and "end" in s:
                per_round[s["round"]] += s["end"] - s["start"]
        return [per_round[r] for r in sorted(per_round)]

    def dump(self, path: str):
        with open(path, "w") as f:
            json.dump({"spans": self.spans,
                       "ray": {r: dict(v) for r, v in self.ray.items()}}, f)
