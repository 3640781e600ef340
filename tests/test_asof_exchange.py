"""As-of output in Arrow: an embedding column of the right side leaves as
``list`` with a null for every left row without a match, which
``to_pandas()`` reads as None and parquet stores, in all three plans;
every output block of the shuffle plans has one Arrow schema."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

DIM = 128
PLANS = {"broadcast": dict(broadcast=True), "shuffle": dict(num_partitions=7),
         "salted": dict(num_partitions=7, hot_keys=[0], salt=4)}


def _sides():
    """Observations of users 0-4 at 15-minute steps; feature versions of
    users 0-2 only, from the second hour on: users 3 and 4 and every
    early observation have no match."""
    rng = np.random.default_rng(7)
    t0 = pd.Timestamp("2024-01-01")
    obs = pd.DataFrame({"oid": np.arange(120, dtype=np.int64),
                        "user": rng.integers(0, 5, 120).astype(np.int64),
                        "ts": (t0 + pd.to_timedelta(rng.integers(0, 40, 120) * 900, unit="s")
                               ).astype("datetime64[us]")})
    ver = pd.DataFrame({"user": np.repeat(np.arange(3, dtype=np.int64), 4),
                        "ts_r": (t0 + pd.to_timedelta(np.tile([1, 3, 5, 8], 3), unit="h")
                                 ).astype("datetime64[us]")})
    vec = rng.random((len(ver), DIM)).astype(np.float32)
    right = pa.Table.from_pandas(ver, preserve_index=False).append_column(
        "features", pa.FixedSizeListArray.from_arrays(pa.array(vec.ravel()), DIM))
    return obs, ver, vec, right


@pytest.mark.parametrize("plan", list(PLANS))
def test_vector_column_with_unmatched_rows_reads_and_writes(ray_session, tmp_path, plan):
    import ray.data as rd

    from pic2vec_ray.temporal.asof import asof_join

    obs, ver, vec, right = _sides()
    exp = pd.merge_asof(obs.sort_values("ts"),
                        ver.assign(vrow=np.arange(len(ver))).sort_values("ts_r"),
                        left_on="ts", right_on="ts_r", by="user")
    exp = exp.sort_values("oid").reset_index(drop=True)
    assert exp.vrow.isna().sum() > 20 and exp.vrow.notna().sum() > 20
    ds = asof_join(rd.from_pandas([obs[:60], obs[60:]]), rd.from_arrow(right).materialize(),
                   on="ts", by="user", right_on="ts_r", **PLANS[plan])

    ds.write_parquet(str(tmp_path / "out"))
    # Ray's driver-side concat in to_pandas() casts an object column whose
    # FIRST value is an ndarray to TensorArray, and that cast fails on any
    # null, whatever made the column; the as-of cannot change it.
    ctx = rd.DataContext.get_current()
    ctx.enable_tensor_extension_casting = False
    try:
        frame = ds.to_pandas()
    finally:
        ctx.enable_tensor_extension_casting = True
    for got in (frame, pq.read_table(str(tmp_path / "out")).to_pandas()):
        got = got.sort_values("oid").reset_index(drop=True)
        assert got.oid.tolist() == exp.oid.tolist()
        pd.testing.assert_series_equal(got.ts_r, exp.ts_r, check_dtype=False)
        for f, v in zip(got.features, exp.vrow):
            if np.isnan(v):
                assert f is None
            else:
                assert np.array_equal(np.asarray(f), vec[int(v)])


@pytest.mark.parametrize("plan", list(PLANS))
def test_matched_vector_before_a_miss_materializes(ray_session, plan):
    """One block whose first row has a vector and a later row none: the
    kernel output must stay Arrow, with an int right column kept int64."""
    import ray
    import ray.data as rd

    from pic2vec_ray.temporal.asof import asof_join

    t0 = pd.Timestamp("2024-01-01")
    obs = pd.DataFrame({"oid": np.arange(4, dtype=np.int64), "user": np.int64([0, 0, 3, 3]),
                        "ts": (t0 + pd.to_timedelta([1, 2, 3, 4], unit="h")).astype("datetime64[us]")})
    right = pa.table({"user": pa.array([0], pa.int64()), "ts_r": pa.array([t0], pa.timestamp("us")),
                      "n": pa.array([7], pa.int64()),
                      "features": pa.FixedSizeListArray.from_arrays(pa.array(np.ones(DIM, np.float32)), DIM)})
    ds = asof_join(rd.from_pandas(obs), rd.from_arrow(right), on="ts", by="user",
                   right_on="ts_r", **PLANS[plan]).materialize()
    got = pa.concat_tables(t for t in ray.get(ds.to_arrow_refs()) if t.num_rows).sort_by("oid")
    assert got.schema.field("n").type == pa.int64()
    assert got["n"].to_pylist() == [7, 7, None, None]
    assert got["features"].to_pylist() == [[1.0] * DIM] * 2 + [None, None]


@pytest.mark.parametrize("hot_keys", [None, [0]])
def test_every_shuffle_output_block_has_one_schema(ray_session, hot_keys):
    """2 entities over 64 partitions: many sorted blocks hold no left
    row, and the kernel's empty output must carry the output schema.
    A sorted block with no row at all never reaches the kernel: Ray's
    ``map_batches`` passes it on as a block without columns."""
    import ray
    import ray.data as rd

    from pic2vec_ray.temporal.asof import asof_join

    obs, ver, vec, right = _sides()
    obs, keep = obs[obs.user < 2], (ver.user < 2).to_numpy()
    right = right.filter(pa.array(keep))
    left = rd.from_pandas(np.array_split(obs, 6))
    rt = rd.from_arrow([right.take(i) for i in np.array_split(np.arange(len(right)), 6)])
    ds = asof_join(left, rt, on="ts", by="user", right_on="ts_r", num_partitions=64,
                   hot_keys=hot_keys, salt=8)
    blocks = ray.get(ds.to_arrow_refs())
    assert sum(t.num_rows for t in blocks) == len(obs)
    tables = [t for t in blocks if t.num_columns or t.num_rows]
    schemas = {t.schema.remove_metadata().to_string() for t in tables}
    assert len(schemas) == 1, schemas
    assert tables[0].schema.field("features").type == pa.list_(pa.float32())
