"""The timed workloads: one round = the same engine calls on the same inputs.

Every step reads parquet files the benchmark wrote and writes its output
to parquet. Each side handed to ``asof_join`` is a bare ``read_parquet`` or
a materialized dataset, and every right side already names its time column
``ts_r`` so that ``asof_join`` adds no rename map over it: the engine's
schema probe of an unexecuted ``read_parquet -> map_batches`` plan can abort
the driving process (see README.md, "Lazy-schema abort").
"""

from __future__ import annotations

import os
import shutil

import pandas as pd
import ray.data as rd

from pic2vec_ray.pipelines.featurize import featurize_images
from pic2vec_ray.temporal.asof import asof_join
from pic2vec_ray.temporal.skew import detect_hot_keys
from pic2vec_ray.temporal.windows import ewma_range, rolling_range_agg, sessionize

from . import inputs

ROLL_WINDOW = pd.Timedelta("1h")
SESSION_GAP = pd.Timedelta("30min")
EWMA_WINDOW = pd.Timedelta("48h")
EWMA_HALFLIFE = pd.Timedelta("12h")


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


class Workload:
    """``run_step`` runs one timed step; a round runs ``steps`` in order.

    ``step_ops`` counts the engine calls of each step. ``round_items`` is
    what one round moves, ``asof_rows`` the observation rows that the
    ``asof_step`` joins: the throughput denominators.
    """

    name = ""
    steps: tuple[str, str] = ("", "")
    step_ops: tuple[int, int] = (1, 1)
    asof_step = ""

    def __init__(self, data: dict, work_dir: str, tracer):
        self.data = data
        self.paths = data["paths"]
        self.work = work_dir
        self.tr = tracer

    def out(self, name: str) -> str:
        return os.path.join(self.work, "out", name)

    def step_inputs(self) -> dict[str, list[str]]:
        """Input files each step reads, for the scheduling-floor probe."""
        raise NotImplementedError

    def exchange_inputs(self) -> list[tuple[str, str]]:
        """(input file, key) of each partitioned exchange a round runs."""
        raise NotImplementedError


class Headline(Workload):
    """featurize_images -> parquet, then a shuffle-plan as-of to parquet."""

    name = "headline"
    steps = ("featurize", "asof")
    asof_step = "asof"

    @property
    def asof_rows(self):
        return len(self.data["obs"])

    @property
    def round_items(self):
        return len(self.data["images"])

    def run_step(self, step: str):
        if step == "featurize":
            with self.tr.span("pipelines.featurize.featurize_images"):
                ds = featurize_images(self.paths["images"])
                ds.write_parquet(_fresh(self.out("features")))
            self.tr.ray_stats(ds)
            return
        with self.tr.span("temporal.asof.asof_join.shuffle"):
            right = rd.read_parquet(
                self.out("features"), columns=["image_id", "missing", "features"]
            ).map_batches(inputs.add_feature_ts(self.data["seed"]),
                          batch_format="pyarrow").materialize()
            joined = asof_join(rd.read_parquet(self.paths["obs"]), right,
                               on="ts", by="image_id", right_on="ts_r")
            joined.write_parquet(_fresh(self.out("asof")))
        self.tr.ray_stats(right, joined)

    def step_inputs(self):
        return {"featurize": [self.paths["images"]], "asof": [self.paths["obs"]]}

    def exchange_inputs(self):
        return [(self.paths["obs"], "image_id")]


class Temporal(Workload):
    """Point-in-time matrix, salted as-of, rolling, EWMA and session windows."""

    name = "temporal"
    steps = ("pit", "windows")
    # three as-of joins and hot-key detection; rolling sum, count, EWMA, sessions
    step_ops = (4, 4)
    asof_step = "pit"

    @property
    def asof_rows(self):
        return 3 * len(self.data["obs"])

    @property
    def round_items(self):
        return self.asof_rows + 4 * len(self.data["events"])

    def _asof(self, right_name: str, out: str, **kw):
        right = rd.read_parquet(self.paths[right_name])
        if kw.get("broadcast") == "auto":
            right = right.materialize()
        joined = asof_join(rd.read_parquet(self.paths["obs"]), right, on="ts",
                           by="user_id", right_on="ts_r", **kw)
        joined.write_parquet(_fresh(self.out(out)))
        self.tr.ray_stats(right, joined)

    def run_step(self, step: str):
        if step == "pit":
            with self.tr.span("temporal.asof.asof_join.broadcast"):
                self._asof("eng", "pit_eng", allow_exact_matches=False,
                           broadcast="auto")
                self._asof("buy", "pit_buy", allow_exact_matches=False,
                           broadcast="auto")
            with self.tr.span("temporal.asof.asof_join.salted"):
                hot = detect_hot_keys(rd.read_parquet(self.paths["events"]),
                                      "user_id")
                self._asof("allev", "salted", hot_keys=hot)
            return
        events = self.paths["events"]
        calls = (
            ("rolling", "roll_sum", lambda ds: rolling_range_agg(
                ds, by="user_id", order="ts", value="amount", window=ROLL_WINDOW,
                agg="sum", tiebreak="event_id", out_col="roll_sum")),
            ("rolling", "roll_cnt", lambda ds: rolling_range_agg(
                ds, by="user_id", order="ts", value="amount", window=ROLL_WINDOW,
                agg="count", tiebreak="event_id", out_col="roll_cnt")),
            ("ewma", "ewma", lambda ds: ewma_range(
                ds, by="user_id", order="ts", value="amount", window=EWMA_WINDOW,
                halflife=EWMA_HALFLIFE, tiebreak="event_id", out_col="value_ewma48h")),
            ("sessionize", "sessions", lambda ds: sessionize(
                ds, by="user_id", order="ts", gap=SESSION_GAP, tiebreak="event_id")),
        )
        for layer, out, call in calls:
            with self.tr.span(f"temporal.windows.{layer}"):
                ds = call(rd.read_parquet(events))
                ds.write_parquet(_fresh(self.out(out)))
            self.tr.ray_stats(ds)

    def step_inputs(self):
        obs, ev = self.paths["obs"], self.paths["events"]
        return {"pit": [obs, obs, obs], "windows": [ev, ev, ev, ev]}

    def exchange_inputs(self):
        return [(self.paths["obs"], "user_id")] + [(self.paths["events"], "user_id")] * 4


WORKLOADS = {w.name: w for w in (Headline, Temporal)}
