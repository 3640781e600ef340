"""Featurize with one warm embedder per Ray worker process: the cache
follows the weights file, no process outlives the Ray session, and a
multi-column featurize at default concurrency and the headline's
featurize -> parquet -> shuffle as-of finish on a 2-CPU session."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DRIVER = r"""
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
rd.DataContext.get_current().enable_progress_bars = False
from pic2vec_ray.pipelines.featurize import featurize_images

images, out = sys.argv[1], sys.argv[2]
for k in range(2):
    featurize_images(images).write_parquet(f"{out}/single{k}")
t = pq.read_table(images, columns=["image_id", "bytes"])
rev = list(range(len(t)))[::-1]
t = t.append_column("bytes2", t["bytes"].take(rev)) \
     .append_column("rev_id", t["image_id"].take(rev))
featurize_images(rd.from_arrow(t), image_columns=["bytes", "bytes2"]) \
    .write_parquet(f"{out}/multi")

from pic2vec_ray.temporal.asof import asof_join
from tests.test_warm_featurize import observations, version_ts

def versions(b):
    return b.append_column("ts_r", pa.array(
        [version_ts(i) for i in b["image_id"].to_pylist()], pa.timestamp("us")))

ids = pq.read_table(images, columns=["image_id"])["image_id"].to_pylist()
pq.write_table(observations(ids), f"{out}/obs.parquet")
right = rd.read_parquet(f"{out}/single0", columns=["image_id", "missing", "features"]) \
    .map_batches(versions, batch_format="pyarrow").materialize()
asof_join(rd.read_parquet(f"{out}/obs.parquet"), right, on="ts", by="image_id",
          right_on="ts_r").write_parquet(f"{out}/asof")
ray.shutdown()
"""

# one feature version per image, 0-4 h after BASE; observations of each
# image at 0.5, 2.5 and 6 h, so up to two come before its version, and of
# an image without features: the as-of leaves both kinds unmatched
BASE = np.datetime64("2024-01-01T00:00:00", "us")
HOUR = np.timedelta64(3600, "s")


def version_ts(image_id):
    return BASE + sum(map(ord, image_id)) % 5 * HOUR


def observations(ids):
    ids = list(ids) + ["no_such_image"]
    hours = np.array([0.5, 2.5, 6.0])
    return pa.table({
        "obs_id": np.arange(3 * len(ids), dtype=np.int64),
        "image_id": np.repeat(ids, 3),
        "ts": BASE + (np.tile(hours, len(ids)) * 3600e6).astype("timedelta64[us]"),
    })


def _session_members(sid: int) -> list[tuple[int, str]]:
    """(pid, state) of every process in session ``sid`` that is not a zombie."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # after the command name: state, ppid, pgrp, session, ...
        if int(fields[3]) == sid and fields[0] != "Z":
            out.append((int(name), fields[0]))
    return out


@pytest.fixture(scope="module")
def driver_run(images_dir, tmp_path_factory):
    """Run DRIVER in its own session; its pid is the session id every Ray
    process it starts inherits."""
    out = str(tmp_path_factory.mktemp("warm_driver"))
    env = {**os.environ, "PYTHONPATH": REPO}
    env.pop("RAY_ADDRESS", None)
    # the log goes to a file: a leftover process holding a pipe would
    # keep the wait below from returning when the driver exits
    with open(f"{out}/driver.log", "wb") as log:
        proc = subprocess.Popen([sys.executable, "-c", DRIVER, images_dir, out],
                                cwd=REPO, env=env, start_new_session=True,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    with open(f"{out}/driver.log", errors="replace") as f:
        text = f.read()[-3000:]
    if proc.returncode == -signal.SIGKILL:
        pytest.fail("featurize driver on 2 CPUs did not finish in 120 s "
                    "(multi-column deadlock?):\n" + text)
    return proc.pid, proc.returncode, text, out


def test_no_process_outlives_the_session(driver_run):
    sid, code, log, _ = driver_run
    assert code == 0, log
    deadline = time.time() + 20
    while (left := _session_members(sid)) and time.time() < deadline:
        time.sleep(0.2)
    for pid, _ in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    names = []
    for pid, state in left:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                names.append((pid, state, f.read().replace(b"\0", b" ")[:120]))
        except OSError:
            names.append((pid, state, b"?"))
    assert not left, f"processes still alive 20 s after ray.shutdown(): {names}"


def test_multicolumn_default_concurrency_on_two_cpus(driver_run):
    """Two chained embed stages at default concurrency share 2 CPUs with
    the read and write tasks; each column's features equal the
    single-column run's for the same image bytes."""
    _, code, log, out = driver_run
    assert code == 0, log
    single = pq.read_table(f"{out}/single0").to_pandas().set_index("image_id")
    again = pq.read_table(f"{out}/single1").to_pandas().set_index("image_id")
    multi = pq.read_table(f"{out}/multi").to_pandas()
    assert len(multi) == len(single) == 200
    feats = {i: np.asarray(f) for i, f in single.features.items()}
    for i, f in again.features.items():
        assert np.array_equal(np.asarray(f), feats[i])
    for r in multi.itertuples():
        assert np.array_equal(np.asarray(r.bytes_features), feats[r.image_id])
        assert np.array_equal(np.asarray(r.bytes2_features), feats[r.rev_id])
        assert r.bytes_missing == single.missing[r.image_id]
        assert r.bytes2_missing == single.missing[r.rev_id]


def test_headline_asof_on_two_cpus(driver_run):
    """featurize -> parquet, then a shuffle as-of of observations of
    which some have no feature version: one output row per observation,
    no vector on an unmatched row, the featurize output's vector on a
    matched one."""
    _, code, log, out = driver_run
    assert code == 0, log
    single = pq.read_table(f"{out}/single0").to_pandas().set_index("image_id")
    got = pq.read_table(f"{out}/asof").to_pandas().sort_values("obs_id")
    assert got.obs_id.tolist() == list(range(3 * (len(single) + 1)))
    version = got.image_id.map(lambda i: version_ts(i) if i in single.index else None)
    hit = (version.notna() & (got.ts >= version)).to_numpy()
    assert 0 < hit.sum() < len(got)
    assert got.features[~hit].isna().all() and got.ts_r[~hit].isna().all()
    for r in got[hit].itertuples():
        assert r.ts_r == version_ts(r.image_id)
        assert np.array_equal(r.features, single.features[r.image_id])
        assert r.missing == single.missing[r.image_id]


def test_weights_rewritten_in_place_are_reloaded(ray_session, images_dir, tmp_path):
    """Two calls with different weights written to the same path, the
    rewrite keeping the file's size and mtime: each matches a fresh
    EmbedActor built with that call's weights, though warm workers from
    the first call serve the second."""
    import ray.data as rd

    from pic2vec_ray.model.zoo import build_featurizer
    from pic2vec_ray.pipelines.featurize import featurize_images
    from pic2vec_ray.stages.embed import EmbedActor

    table = pq.read_table(images_dir, columns=["image_id", "bytes"]).slice(0, 64)
    base = build_featurizer("tinynet", depth=1)._weights
    path = str(tmp_path / "w.npz")
    got, first = [], None
    for scale in (-0.25, 0.5):
        np.savez(path, **{k: v * scale for k, v in base.items()})
        if first is None:
            first = os.stat(path)
        else:
            os.utime(path, ns=(first.st_atime_ns, first.st_mtime_ns))
            st = os.stat(path)
            assert (st.st_size, st.st_mtime_ns) == (first.st_size, first.st_mtime_ns)
        blocks = [table.slice(i, 16) for i in range(0, len(table), 16)]
        out = featurize_images(rd.from_arrow(blocks), loaded_weights=path,
                               batch_size=16).to_pandas().sort_values("image_id")
        want = (EmbedActor(loaded_weights=path)(table).to_pandas()
                .sort_values("image_id"))
        assert out.image_id.tolist() == want.image_id.tolist()
        feats = np.stack(out.features.to_numpy())
        assert np.array_equal(feats, np.stack(want.features.to_numpy()))
        got.append(feats)
    assert not np.allclose(got[0], got[1])
