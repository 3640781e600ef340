"""Seeded inputs of the three workloads.

Every input is a pure function of ``--seed`` and of the generator code.
Encoded image rows are the only costly part (the pure-Python JPEG encoder
takes tens of ms per row), so they are drawn from fixed pools whose rows
are cached on disk by generator version; a seed only chooses rows from the
pools, their ids and their order. The engine sees nothing but the parquet
files written here.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from pic2vec_ray.codecs.bmp import encode_bmp
from pic2vec_ray.codecs.jpeg import encode_jpeg
from pic2vec_ray.codecs.png import encode_png
from pic2vec_ray.fixtures import synth
from pic2vec_ray.functions.image_ops import average_hash

# Bump on any change to the pools below: it invalidates the row cache.
GEN_VERSION = "b1"
BASE_TS = np.datetime64("2024-01-01T00:00:00", "us")

ROW_SCHEMA = pa.schema([
    ("key", pa.int64()), ("bytes", pa.binary()), ("w", pa.int32()),
    ("h", pa.int32()), ("fmt", pa.string()), ("phash", pa.int64()),
])


class RowCache:
    """Encoded image rows of one pool, keyed by an int, kept in one parquet file."""

    def __init__(self, cache_dir: str, pool: str, make_row):
        os.makedirs(cache_dir, exist_ok=True)
        self.path = os.path.join(cache_dir, f"{pool}-{GEN_VERSION}.parquet")
        self.make_row = make_row
        self.rows: dict[int, dict] = {}
        if os.path.exists(self.path):
            for r in pq.read_table(self.path).to_pylist():
                self.rows[r.pop("key")] = r

    def get(self, keys) -> list[dict]:
        missing = [k for k in keys if k not in self.rows]
        for k in missing:
            self.rows[k] = self.make_row(k)
        if missing:
            tmp = self.path + f".tmp{os.getpid()}"
            table = pa.Table.from_pylist(
                [{"key": k, **r} for k, r in sorted(self.rows.items())],
                schema=ROW_SCHEMA)
            pq.write_table(table, tmp)
            os.replace(tmp, self.path)
        return [self.rows[k] for k in keys]


# ------------------------------------------------------------ headline

HEADLINE_BLOCKS = 40   # pool: 40 blocks of 20 part keys, one per row role
HEADLINE_PICK = 18     # blocks per seed: 360 images
OBS_PER_IMAGE = 100


def _headline_row(partkey: int) -> dict:
    r = synth.make_image_row(partkey, "")
    return {k: r[k] for k in ("bytes", "w", "h", "fmt", "phash")}


def feature_versions(keys: np.ndarray, seed: int) -> pd.DataFrame:
    """When each image's features became available: 1-3 versions per image.

    The engine side applies the same rule inside ``add_feature_ts``; the
    as-of check rebuilds it here, apart from the Ray plan.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = 1 + keys % 3
    k = np.repeat(keys, n)
    v = np.arange(len(k)) - np.repeat(np.cumsum(n) - n, n)
    hours = (k * 37 + seed) % 97 + 2 * v
    return pd.DataFrame({
        "image_id": [f"img_{x:08d}" for x in k],
        "feature_ts": BASE_TS + (hours * 3600).astype("timedelta64[s]"),
    })


def add_feature_ts(seed: int):
    """map_batches UDF: feature rows -> one row per (image, version) with
    the version's time in ``ts_r``. Vectorized over the batch; the rule is
    :func:`feature_versions`."""

    def fn(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keys = pc.cast(pc.utf8_slice_codeunits(t["image_id"], 4),
                       pa.int64()).to_numpy()
        n = 1 + keys % 3
        idx = np.repeat(np.arange(len(keys)), n)
        v = np.arange(len(idx)) - np.repeat(np.cumsum(n) - n, n)
        hours = (keys[idx] * 37 + seed) % 97 + 2 * v
        ts = BASE_TS + (hours * 3600).astype("timedelta64[s]")
        return t.take(pa.array(idx)).append_column(
            "ts_r", pa.array(ts.astype("datetime64[us]")))

    return fn


def warm_images(cache_dir: str, path: str):
    """One block of 20 rows, one per row role, for the set-up warm-up."""
    keys = list(range(20, 40))
    rows = RowCache(cache_dir, "headline", _headline_row).get(keys)
    pq.write_table(pa.table({"image_id": [f"img_{k:08d}" for k in keys],
                             "bytes": [r["bytes"] for r in rows]}), path)


def headline(seed: int, cache_dir: str, out_dir: str) -> dict:
    """Images with the fixture's row-role mix plus an observation stream."""
    rng = np.random.default_rng([seed, 1])
    blocks = np.sort(rng.choice(HEADLINE_BLOCKS, HEADLINE_PICK, replace=False))
    keys = [20 * (int(b) + 1) + r for b in blocks for r in range(20)]
    rows = RowCache(cache_dir, "headline", _headline_row).get(keys)
    images = pa.table({
        "image_id": [f"img_{k:08d}" for k in keys],
        "bytes": [r["bytes"] for r in rows],
        "w": pa.array([r["w"] for r in rows], pa.int32()),
        "h": pa.array([r["h"] for r in rows], pa.int32()),
        "fmt": [r["fmt"] for r in rows],
        "caption": [f"part {k}" for k in keys],
        "phash": pa.array([r["phash"] for r in rows], pa.int64()),
    }, schema=synth.IMAGES_SCHEMA)
    images = images.take(pa.array(rng.permutation(len(keys))))

    # observations: ~100 per image, uniform over images (undecodable ones
    # too), times spanning before the first feature version to after the
    # last; 5% sit exactly on a feature version (ties of the >= rule)
    n_obs = OBS_PER_IMAGE * len(keys)
    obs_keys = rng.choice(np.asarray(keys), n_obs)
    hours = rng.uniform(-6.0, 110.0, n_obs)
    ts = BASE_TS + (hours * 3.6e9).astype("timedelta64[us]")
    versions = feature_versions(np.asarray(keys), seed)
    vkeys = np.array([int(s[4:]) for s in versions["image_id"]])
    tie = rng.random(n_obs) < 0.05
    for i in np.flatnonzero(tie):
        cand = np.flatnonzero(vkeys == obs_keys[i])
        ts[i] = versions["feature_ts"].to_numpy()[rng.choice(cand)]
    obs = pa.table({
        "obs_id": np.arange(n_obs, dtype=np.int64),
        "image_id": [f"img_{k:08d}" for k in obs_keys],
        "ts": pa.array(ts.astype("datetime64[us]")),
        "value": np.round(rng.gamma(2.0, 5.0, n_obs), 2),
    })
    os.makedirs(out_dir, exist_ok=True)
    paths = {"images": os.path.join(out_dir, "images.parquet"),
             "obs": os.path.join(out_dir, "obs.parquet")}
    pq.write_table(images, paths["images"])
    pq.write_table(obs, paths["obs"])
    return {"paths": paths, "images": images, "obs": obs, "seed": seed,
            "keys": np.asarray(keys)}


# ------------------------------------------------------------ temporal

N_EVENTS = 20_000
N_OBS = 5_000
N_USERS = 2_000
HOT_USERS = 3
SPAN_S = 14 * 86_400
# A user no draw produces, with two 0.02 views exactly 48 h apart, the same
# on every seed: at the later view the decayed addend 0.02 * 2**-4 * 1e4 of
# ewma_range lands exactly on 12.5, where its np.round (half to even) and
# the SQL ROUND of its oracle (half away from zero) disagree (CHANGES.md,
# FOUND). The seeded events hit such ties on most seeds but not all; with
# the witness the EWMA call's output is wrong on every seed alike.
WITNESS_USER = N_USERS + 1


def _draw_users(rng, n: int) -> np.ndarray:
    # Zipf-skewed ids plus three hot keys holding 4% of the rows each
    users = (rng.zipf(1.3, n) - 1) % N_USERS + 1
    hot = rng.random(n) < 0.04 * HOT_USERS
    users[hot] = rng.integers(1, HOT_USERS + 1, hot.sum()) * 7919 % N_USERS + 1
    return users.astype(np.int64)


def temporal(seed: int, out_dir: str) -> dict:
    """Events with skewed users, tied and out-of-order times; observations;
    three right sides collapsed per (user, ts)."""
    rng = np.random.default_rng([seed, 2])
    users = _draw_users(rng, N_EVENTS)
    secs = rng.integers(0, SPAN_S, N_EVENTS)
    # 10% of events share the timestamp of another event of the same user
    df = pd.DataFrame({"user_id": users, "s": secs})
    first = df.groupby("user_id")["s"].transform("first").to_numpy()
    tie = rng.random(N_EVENTS) < 0.10
    secs = np.where(tie, first, secs)
    etype = rng.choice(np.array(["view", "click", "purchase"]), N_EVENTS,
                       p=[0.70, 0.22, 0.08])
    amount = np.where(etype == "purchase", rng.uniform(5, 200, N_EVENTS),
                      np.where(etype == "click", rng.uniform(0.05, 1, N_EVENTS),
                               rng.uniform(0.01, 0.1, N_EVENTS)))
    events = pd.DataFrame({
        "event_id": rng.permutation(N_EVENTS).astype(np.int64),
        "user_id": users,
        "ts": BASE_TS + secs.astype("timedelta64[s]"),
        "event_type": etype,
        "amount": np.round(amount, 2),
    })  # row order is random, so timestamps arrive out of order
    witness = pd.DataFrame({
        "event_id": np.array([N_EVENTS, N_EVENTS + 1], dtype=np.int64),
        "user_id": np.array([WITNESS_USER] * 2, dtype=np.int64),
        "ts": BASE_TS + np.array([0, 48 * 3600]).astype("timedelta64[s]"),
        "event_type": ["view", "view"],
        "amount": [0.02, 0.02],
    })
    events = pd.concat([events, witness], ignore_index=True)

    o_users = _draw_users(rng, N_OBS)
    o_secs = rng.integers(0, SPAN_S, N_OBS)
    obs = pd.DataFrame({"obs_id": np.arange(N_OBS, dtype=np.int64),
                        "user_id": o_users,
                        "ts": BASE_TS + o_secs.astype("timedelta64[s]")})
    # 5% of observations sit exactly on an event of their user
    ev_by_user = events.groupby("user_id")["ts"].first()
    tie = (rng.random(N_OBS) < 0.05) & obs.user_id.isin(ev_by_user.index)
    obs.loc[tie, "ts"] = ev_by_user.loc[obs.loc[tie, "user_id"]].to_numpy()

    g = events.assign(
        is_view=events.event_type.eq("view").astype(np.int64),
        is_click=events.event_type.eq("click").astype(np.int64),
    )
    eng = g[g.event_type != "purchase"].groupby(["user_id", "ts"], as_index=False).agg(
        n_view=("is_view", "sum"), n_click=("is_click", "sum"))
    buy = g[g.event_type == "purchase"].groupby(["user_id", "ts"], as_index=False).agg(
        n_buy=("amount", "size"), spend=("amount", "sum"))
    buy["spend"] = buy["spend"].round(2)
    allev = g.groupby(["user_id", "ts"], as_index=False).agg(
        n_events=("amount", "size"), amount_sum=("amount", "sum"))
    allev["amount_sum"] = allev["amount_sum"].round(2)

    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, frame in (("events", events), ("obs", obs), ("eng", eng),
                        ("buy", buy), ("allev", allev)):
        paths[name] = os.path.join(out_dir, f"{name}.parquet")
        frame = frame.assign(ts=frame.ts.astype("datetime64[us]"))
        if name in ("eng", "buy", "allev"):  # right sides of the as-of joins
            frame = frame.rename(columns={"ts": "ts_r"})
        pq.write_table(pa.Table.from_pandas(frame, preserve_index=False),
                       paths[name])
    return {"paths": paths, "events": events, "obs": obs, "seed": seed}


# ------------------------------------------------------------ imagedup

DUP_POOL = 240      # base images in the pool
DUP_SOURCES = 60    # base images per seed
GRID = 8            # 8x8 cells: the average hash samples one pixel per cell


def _base_pixels(idx: int, flips: tuple[int, ...] = ()) -> np.ndarray:
    """Blocky image whose 8x8 average hash is its random cell pattern.

    Cells are bright or dark with a wide gap, so re-encoding and noise do
    not move any hash bit; ``flips`` turns the listed cells over, which
    changes exactly those bits (a planted near duplicate).
    """
    rng = np.random.default_rng([synth.SEED, idx])
    side = (48, 64, 80, 96)[idx % 4]
    h, w = side, (64, 80, 96, 48)[idx // 4 % 4]
    bright = rng.random((GRID, GRID)) < 0.5
    for c in flips:
        bright.flat[c] = not bright.flat[c]
    level = np.where(bright, rng.integers(170, 215, (GRID, GRID)),
                     rng.integers(40, 85, (GRID, GRID)))
    px = np.kron(level, np.ones((h // GRID, w // GRID), dtype=np.int64))
    px = px[:, :, None] + rng.integers(-6, 7, (h, w, 3)) + np.array([0, 4, -4])
    return np.clip(px, 0, 255).astype(np.uint8)


# variant -> (encoder, cell flips relative to the base image)
_EDIT1 = (3, 17)
_EDIT2 = (3, 17, 40, 58)
DUP_VARIANTS = {
    "png": ("png", ()), "bmp": ("bmp", ()), "jpeg": ("jpeg", ()),
    "edit1_jpeg": ("jpeg", _EDIT1), "edit2_png": ("png", _EDIT2),
}
_VARIANT_CODE = {name: i for i, name in enumerate(DUP_VARIANTS)}


def _dup_row(key: int) -> dict:
    idx, code = divmod(key, 16)
    name = list(DUP_VARIANTS)[code]
    fmt, flips = DUP_VARIANTS[name]
    px = _base_pixels(idx, flips)
    enc = {"png": encode_png, "bmp": encode_bmp,
           "jpeg": lambda p: encode_jpeg(p, quality=synth.JPEG_QUALITY)}[fmt]
    h, w = px.shape[:2]
    return {"bytes": enc(px), "w": w, "h": h, "fmt": fmt,
            "phash": average_hash(px)}


def _source_plan(j: int) -> list[tuple[str, int]]:
    """(variant, byte copies) of the j-th source: a fixed shape per j, so
    every seed has the same duplicate structure."""
    lossless = "png" if j % 2 == 0 else "bmp"
    plan = [(lossless, 1 + (j % 5))]            # 0-4 byte-identical copies
    if j % 2 == 0:
        plan.append(("bmp", 1))                  # same pixels, other bytes
    if j % 3 == 0:
        plan.append(("jpeg", 1 + (j % 2)))       # lossy re-encode
    if j % 4 == 1:
        plan += [("edit1_jpeg", 1), ("edit2_png", 1)]  # near-dup chain
    return plan


GARBAGE_SHARE = 0.03


def imagedup(seed: int, cache_dir: str, out_dir: str) -> dict:
    rng = np.random.default_rng([seed, 3])
    bases = rng.choice(DUP_POOL, DUP_SOURCES, replace=False)
    keys, source, variant = [], [], []
    for j, b in enumerate(bases):
        for name, copies in _source_plan(j):
            keys += [int(b) * 16 + _VARIANT_CODE[name]] * copies
            source += [int(b)] * copies
            variant += [name] * copies
    rows = RowCache(cache_dir, "imagedup", _dup_row).get(keys)
    n_garbage = int(round(GARBAGE_SHARE * len(rows)))
    junk = [b"\x89PNG\r\n\x1a\n" + bytes(rng.integers(0, 256, 96, dtype=np.uint8))
            for _ in range(n_garbage)]
    n = len(rows) + n_garbage
    table = pa.table({
        "img_key": rng.permutation(np.arange(1, n + 1)).astype(np.int64),
        "bytes": [r["bytes"] for r in rows] + junk,
        "fmt": [r["fmt"] for r in rows] + ["png"] * n_garbage,
        "variant": variant + ["garbage"] * n_garbage,
        "source": np.array(source + [-1] * n_garbage, dtype=np.int64),
        "phash": pa.array([r["phash"] for r in rows] + [0] * n_garbage, pa.int64()),
    })
    table = table.take(pa.array(rng.permutation(n)))
    os.makedirs(out_dir, exist_ok=True)
    paths = {"images": os.path.join(out_dir, "dup_images.parquet")}
    # the engine reads only the key and the payload
    pq.write_table(table.select(["img_key", "bytes"]), paths["images"])
    return {"paths": paths, "table": table, "seed": seed}
