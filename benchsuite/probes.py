"""Per-layer probes of a traced run, made after the timed window.

In-process probes call one engine layer at a time on the workload's own
rows; Ray probes re-run one engine operator on a timed step's own input.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from benchsuite.checks import hamming_adjacency
from pic2vec_ray.codecs.registry import DecodeError, decode_image, sniff_format
from pic2vec_ray.functions.image_ops import (average_hash, normalize_tf,
                                             resize_nearest, to_rgb)
from pic2vec_ray.model.zoo import build_featurizer
from pic2vec_ray.pipelines.featurize import featurize_images
from pic2vec_ray.stages.dedup import image_neardup_groups, neardup_groups
from pic2vec_ray.stages.embed import EmbedActor
from pic2vec_ray.temporal.asof import asof_join
from pic2vec_ray.temporal.core import partitioned_apply
from pic2vec_ray.temporal.windows import ewma_range, rolling_range_agg, sessionize

TARGET = (64, 64)   # tinynet input size
BATCH = 128


def settle(timeout_s: float = 30.0) -> float:
    """Wait until every CPU of the Ray session is free again; seconds waited.

    Ray releases an actor pool's CPUs only once the pool is torn down, and a
    dataset caught in a reference cycle keeps its pool until the garbage
    collector runs: a step started right after a featurize waits for those
    CPUs inside its own timing (one back-to-back featurize took 18.8 s
    instead of ~3 s). Every timed call starts from a settled session; a
    timed step counts the settle in its wall, a probe does not.
    """
    t = time.perf_counter()
    gc.collect()
    cpus = ray.cluster_resources().get("CPU", 0)
    while (ray.available_resources().get("CPU", 0) < cpus
           and time.perf_counter() - t < timeout_s):
        time.sleep(0.02)
    return time.perf_counter() - t


def _timed(fn, repeat: int = 1) -> float:
    """Median wall seconds of ``repeat`` calls of ``fn``, each started from
    a settled session."""
    walls = []
    for _ in range(repeat):
        settle()
        t = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t)
    return statistics.median(walls)


def codec_class(data: bytes) -> str:
    fmt = sniff_format(bytes(data[:8])) if data else None
    return fmt if fmt in ("jpeg", "png", "bmp") else "reject"


def decode_rows(payloads: list[bytes]) -> tuple[dict[str, float], list]:
    """ms per image of ``decode_image`` per codec; decoded RGB images."""
    per: dict[str, list[float]] = {"jpeg": [], "png": [], "bmp": [], "reject": []}
    images = []
    for data in payloads:
        cls = codec_class(data)
        t = time.perf_counter()
        try:
            img = to_rgb(decode_image(bytes(data)))
        except DecodeError:
            img = None
        per[cls if img is not None else "reject"].append(time.perf_counter() - t)
        images.append(img)
    return {k: 1e3 * float(np.mean(v)) if v else float("nan")
            for k, v in per.items()}, images


def image_layers(payloads: list[bytes], table: pa.Table) -> dict[str, float]:
    dec, images = decode_rows(payloads)
    out = {f"codecs.decode_ms.{k}": v for k, v in dec.items()}
    valid = [im for im in images if im is not None]
    t = time.perf_counter()
    small = [resize_nearest(im, TARGET) for im in valid]
    out["functions.image_ops.resize_ms"] = 1e3 * (time.perf_counter() - t) / len(valid)
    stack = np.stack((small * (BATCH // len(small) + 1))[:BATCH]).astype(np.float32)
    out["functions.image_ops.normalize_ms"] = 1e3 * _timed(
        lambda: normalize_tf(stack), 5) / BATCH
    t = time.perf_counter()
    for im in valid:
        average_hash(im)
    out["functions.image_ops.phash_ms"] = 1e3 * (time.perf_counter() - t) / len(valid)
    actor = EmbedActor()
    batch = table.slice(0, BATCH)
    out["stages.embed.call_ms"] = 1e3 * _timed(lambda: actor(batch), 3) / len(batch)
    return out


def model_layers() -> dict[str, float]:
    """tinynet forward at batch 128, and per-layer time from the
    differences between cut depths (depth 4 cuts after conv1, depth 1
    after conv4)."""
    x = np.random.default_rng(0).uniform(-1, 1, (BATCH, *TARGET, 3)).astype(np.float32)
    out = {"model.zoo.build_s": _timed(lambda: build_featurizer("tinynet", 1), 3)}
    per_depth = {}
    for depth in (4, 3, 2, 1):
        model = build_featurizer("tinynet", depth)
        model(x[:16])
        per_depth[depth] = 1e3 * _timed(lambda: model(x), 3) / BATCH
    out["model.zoo.forward_ms"] = per_depth[1]
    prev = 0.0
    for layer, depth in (("conv1", 4), ("conv2", 3), ("conv3", 2), ("conv4", 1)):
        out[f"model.zoo.layer_ms.{layer}"] = per_depth[depth] - prev
        prev = per_depth[depth]
    return out


def featurize_s(images: str, out_dir: str) -> float:
    """``featurize_images`` with its defaults, to parquet."""
    return _timed(lambda: featurize_images(images).write_parquet(out_dir))


def floor_s(step_inputs: dict[str, list[str]]) -> float:
    """Scheduling floor of a round: one identity ``map_batches`` over each
    step's own materialized input blocks, summed over the round's calls."""
    total = 0.0
    for paths in step_inputs.values():
        for path in paths:
            ds = rd.read_parquet(path).materialize()
            total += _timed(lambda: ds.map_batches(
                lambda b: b, batch_format="pyarrow").materialize())
    return total


def exchange_s(exchange_inputs: list[tuple[str, str]]) -> float:
    """``partitioned_apply`` with an identity function over each exchange
    input of a round, at the engine's default partition count."""
    total = 0.0
    for path, key in exchange_inputs:
        total += _timed(lambda: partitioned_apply(
            rd.read_parquet(path), key, lambda df: df).materialize())
    return total


def asof_plans(obs: str, right: str, by: str, hot_keys: list) -> dict[str, float]:
    """The three as-of plans on one (observations, right side) pair."""
    kw = dict(on="ts", by=by, right_on="ts_r")

    def run(plan: str):
        r = rd.read_parquet(right)
        if plan == "broadcast":
            r = r.materialize()
            return asof_join(rd.read_parquet(obs), r, broadcast=True, **kw).materialize()
        if plan == "salted":
            return asof_join(rd.read_parquet(obs), r, hot_keys=hot_keys, **kw).materialize()
        return asof_join(rd.read_parquet(obs), r, **kw).materialize()

    return {f"temporal.asof.{p}_s": _timed(lambda p=p: run(p))
            for p in ("shuffle", "broadcast", "salted")}


def salted_with_vectors(obs: str, right: str, by: str, hot_keys: list) -> str:
    """Outcome of the salted as-of plan on a right side with a vector column."""
    try:
        asof_join(rd.read_parquet(obs), rd.read_parquet(right), on="ts", by=by,
                  right_on="ts_r", hot_keys=hot_keys).materialize()
    except Exception as err:  # the outcome is what the probe reports
        return f"fails with {type(err).__name__}: {str(err).strip().splitlines()[-1][:240]}"
    return "runs"


def window_ops(path: str, by: str, value: str, tiebreak: str) -> dict[str, float]:
    kw = dict(by=by, order="ts", tiebreak=tiebreak)
    calls = {
        "rolling": lambda: [rolling_range_agg(rd.read_parquet(path), value=value,
                                              window=pd.Timedelta("1h"), agg=a,
                                              **kw).materialize()
                            for a in ("sum", "count")],
        "ewma": lambda: ewma_range(rd.read_parquet(path), value=value,
                                   window=pd.Timedelta("48h"),
                                   halflife=pd.Timedelta("12h"), **kw).materialize(),
        "sessionize": lambda: sessionize(rd.read_parquet(path),
                                         gap=pd.Timedelta("30min"), **kw).materialize(),
    }
    return {f"temporal.windows.{k}_s": _timed(f) for k, f in calls.items()}


def cc_s(keys: np.ndarray, hashes: np.ndarray) -> float:
    """``neardup_groups`` over the exact hamming <= 3 edge set built in NumPy."""
    a, b = np.nonzero(np.triu(hamming_adjacency(hashes), k=1))
    edges = rd.from_pandas(pd.DataFrame({"id_a": keys[a], "id_b": keys[b]})).materialize()
    return _timed(lambda: neardup_groups(edges).materialize())


def groups(path: str) -> tuple[float, pd.DataFrame]:
    t = time.perf_counter()
    out = image_neardup_groups(rd.read_parquet(path)).to_pandas()
    return time.perf_counter() - t, out
