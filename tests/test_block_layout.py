"""Temporal kernels run once per sorted block, which may hold several
whole partitions, or every salted partition of a hot key at once.
Results must not depend on that layout: ``num_partitions``, ``salt``,
the number of input blocks, or the plan of ``partitioned_apply`` (local
for a materialized input, shuffle for a lazy one). Also the numeric
edges of the vectorized window kernels (EWMA int64 range, one
``grid_ts`` unit)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

W, H, GAP, FREQ = (pd.Timedelta(hours=6), pd.Timedelta(hours=2),
                   pd.Timedelta(minutes=90), pd.Timedelta(hours=4))


def _frames(seed: int):
    """Events with one hot user (about half the rows), timestamp ties
    and shuffled order; observations; a right side unique per (user, ts)
    so an as-of match never depends on row order."""
    rng = np.random.default_rng(seed)
    n, users = int(rng.integers(20, 160)), int(rng.integers(2, 12))
    user = np.where(rng.random(n) < 0.5, 0, rng.integers(1, users + 1, n))
    ts = (pd.Timestamp("2024-01-01")
          + pd.to_timedelta(rng.integers(0, 40, n) * 1800, unit="s"))
    ev = pd.DataFrame({"eid": np.arange(n, dtype=np.int64),
                       "user": user.astype(np.int64),
                       "ts": ts.astype("datetime64[us]"),
                       "v": rng.uniform(-5, 100, n).round(2)})
    ev = ev.sample(frac=1, random_state=seed).reset_index(drop=True)
    m = int(rng.integers(10, 80))
    obs = pd.DataFrame({"oid": np.arange(m, dtype=np.int64),
                        "user": np.where(rng.random(m) < 0.5, 0,
                                         rng.integers(0, users + 2, m)).astype(np.int64),
                        "ts": (pd.Timestamp("2024-01-01") + pd.to_timedelta(
                            rng.integers(0, 80, m) * 900, unit="s")).astype("datetime64[us]")})
    right = ev.drop_duplicates(["user", "ts"]).rename(columns={"ts": "ts_r"})
    return ev, obs, right[["user", "ts_r", "v"]].reset_index(drop=True)


def _ds(df: pd.DataFrame, blocks: int):
    import ray.data as rd

    return rd.from_pandas([c for c in np.array_split(df, blocks) if len(c)] or [df])


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _same(got: pd.DataFrame, exp: pd.DataFrame):
    if len(exp) == 0:  # an empty dataset reads back without columns
        assert len(got) == 0
        return
    pd.testing.assert_frame_equal(_canon(got), _canon(exp), check_dtype=False,
                                  check_exact=True)


def _whole(fn, df, **kw):
    """The kernel over ONE frame holding every entity: the reference
    layout, with no exchange."""
    from pic2vec_ray.temporal import windows

    with mock.patch.object(windows, "partitioned_apply",
                           lambda ds, by, f, n: f(ds.copy())):
        return fn(df, **kw)


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), parts=st.sampled_from([1, 7, 64]),
       salt=st.sampled_from([1, 8]), blocks=st.sampled_from([1, 5]))
@example(seed=3, parts=1, salt=8, blocks=1)   # every partition in one call
@example(seed=4, parts=64, salt=8, blocks=5)
@example(seed=5, parts=7, salt=1, blocks=1)
def test_results_do_not_depend_on_layout(ray_session, seed, parts, salt, blocks):
    from pic2vec_ray.temporal.asof import asof_join
    from pic2vec_ray.temporal.join import hash_join, range_join
    from pic2vec_ray.temporal.windows import (ewma_range, resample_grid, rolling_range_agg,
                                              rolling_rows_agg, sessionize)

    ev, obs, right = _frames(seed)
    hot = [0]
    lay = dict(num_partitions=parts)

    exp = pd.merge_asof(obs.sort_values("ts"), right.sort_values("ts_r"), left_on="ts",
                        right_on="ts_r", by="user", allow_exact_matches=False)
    for hk in (None, hot):
        got = asof_join(_ds(obs, blocks), _ds(right, blocks), on="ts", by="user",
                        right_on="ts_r", allow_exact_matches=False,
                        hot_keys=hk, salt=salt, **lay).to_pandas()
        _same(got, exp)

    rj = right.rename(columns={"ts_r": "t2"})
    for how in ("inner", "left", "semi", "anti"):
        got = hash_join(_ds(obs, blocks), _ds(rj, blocks), on="user", how=how,
                        broadcast=False, hot_keys=hot, salt=salt, **lay).to_pandas()
        if how in ("semi", "anti"):
            mask = obs.user.isin(rj.user)
            exp = obs[mask] if how == "semi" else obs[~mask]
        else:
            exp = obs.merge(rj, on="user", how=how)
        _same(got, exp)

    got = range_join(_ds(obs, blocks), _ds(rj, blocks), on="user", left_ts="ts",
                     right_ts="t2", min_delta=-W, max_delta=pd.Timedelta(0),
                     hot_keys=hot, salt=salt, **lay).to_pandas()
    pairs = obs.merge(rj, on="user")
    _same(got, pairs[(pairs.t2 >= pairs.ts - W) & (pairs.t2 < pairs.ts)])

    for fn, kw in [
        (rolling_range_agg, dict(value="v", window=W, agg="sum", tiebreak="eid")),
        (rolling_rows_agg, dict(value="v", k=3, agg="mean", tiebreak="eid")),
        (ewma_range, dict(value="v", window=W, halflife=H, tiebreak="eid")),
        (sessionize, dict(gap=GAP, tiebreak="eid")),
        (resample_grid, dict(value="v", freq=FREQ)),
    ]:
        kw = dict(by="user", order="ts", **kw)
        exp = _whole(fn, ev, **kw)
        # plan axis: a materialized input takes the local plan, the same
        # input behind an identity map is lazy and takes the shuffle plan
        for ds in (_ds(ev, blocks),
                   _ds(ev, blocks).map_batches(lambda b: b, batch_format="pandas")):
            _same(fn(ds, **kw, **lay).to_pandas(), exp)


def test_salted_asof_with_vector_column_matches_unsalted(ray_session):
    """A fixed_size_list<float>[128] value column survives salted
    tagging (hot right rows replicated with ``Table.take``)."""
    import ray
    import ray.data as rd

    from pic2vec_ray.temporal.asof import asof_join

    ev, obs, right = _frames(11)
    rng = np.random.default_rng(0)
    vec = pa.FixedSizeListArray.from_arrays(
        pa.array(rng.random(len(right) * 128).astype(np.float32)), 128)
    rt = pa.Table.from_pandas(right, preserve_index=False).append_column("features", vec)

    def run(hot_keys):
        ds = asof_join(rd.from_pandas(obs), rd.from_arrow(rt), on="ts", by="user",
                       right_on="ts_r", hot_keys=hot_keys, num_partitions=7)
        tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
        out = pd.concat([t.to_pandas() for t in tables], ignore_index=True)
        out["features"] = [None if f is None or (np.isscalar(f) and pd.isna(f))
                           else np.asarray(f, dtype=np.float32).tobytes()
                           for f in out.features]
        return out

    salted, plain = run([0, 1]), run(None)
    assert len(salted) == len(obs)
    assert salted.features.notna().any()
    _same(salted, plain)


def _no_sampling(monkeypatch):
    """Make Ray's sort raise if it samples its range boundaries."""
    from ray.data._internal.planner.exchange.sort_task_spec import SortTaskSpec

    def sample(*a, **kw):
        raise AssertionError("the exchange sampled its sort boundaries")

    monkeypatch.setattr(SortTaskSpec, "sample_boundaries", staticmethod(sample))


@pytest.mark.parametrize("parts", [1, 7, 64])
def test_no_exchange_samples(ray_session, monkeypatch, caplog, parts):
    """``__part``'s domain is known, so every two-sided exchange and the
    shuffle plan of ``partitioned_apply`` sort on fixed ranges of it."""
    import logging

    from pic2vec_ray.temporal.asof import asof_join
    from pic2vec_ray.temporal.core import sort_ranges
    from pic2vec_ray.temporal.join import hash_join, range_join
    from pic2vec_ray.temporal.windows import rolling_range_agg, sessionize

    _no_sampling(monkeypatch)
    caplog.set_level(logging.INFO, logger="pic2vec_ray.temporal")
    ev, obs, right = _frames(21)
    lay = dict(num_partitions=parts)

    exp = pd.merge_asof(obs.sort_values("ts"), right.sort_values("ts_r"), left_on="ts",
                        right_on="ts_r", by="user")
    for hk in (None, [0]):
        got = asof_join(_ds(obs, 3), _ds(right, 2), on="ts", by="user", right_on="ts_r",
                        hot_keys=hk, salt=4, **lay).to_pandas()
        _same(got, exp)
        assert (f"asof_join plan=shuffle partitions={parts} ranges={sort_ranges(parts)} "
                f"hot_keys={len(hk or ())}") in caplog.text

    rj = right.rename(columns={"ts_r": "t2"})
    for how in ("inner", "left", "right", "outer", "semi", "anti"):
        got = hash_join(_ds(obs, 3), _ds(rj, 2), on="user", how=how, broadcast=False,
                        **lay).to_pandas()
        if how in ("semi", "anti"):
            mask = obs.user.isin(rj.user)
            exp = obs[mask] if how == "semi" else obs[~mask]
        else:
            exp = obs.merge(rj, on="user", how=how)
        _same(got, exp)

    got = range_join(_ds(obs, 3), _ds(rj, 2), on="user", left_ts="ts", right_ts="t2",
                     min_delta=-W, max_delta=pd.Timedelta(0), **lay).to_pandas()
    pairs = obs.merge(rj, on="user")
    _same(got, pairs[(pairs.t2 >= pairs.ts - W) & (pairs.t2 < pairs.ts)])

    for fn, kw in [(rolling_range_agg, dict(value="v", window=W, agg="sum", tiebreak="eid")),
                   (sessionize, dict(gap=GAP, tiebreak="eid"))]:
        kw = dict(by="user", order="ts", **kw)
        lazy = _ds(ev, 3).map_batches(lambda b: b, batch_format="pandas")
        _same(fn(lazy, **kw, **lay).to_pandas(), _whole(fn, ev, **kw))
    assert (f"partitioned_apply plan=shuffle partitions={parts} "
            f"ranges={sort_ranges(parts)}") in caplog.text


def test_salt_spreads_a_hot_key_over_partitions(ray_session):
    """``salt=4`` at ``P=8``: a hot key of partition ``p`` owns the
    partitions ``(p + 2s) mod 8``. Its left rows spread over them and
    reach ``min(4, R)`` sorted blocks; each right row is replicated into
    every one. ``salt=8`` at ``P=2`` is clamped to 2."""
    import ray
    import ray.data as rd

    from pic2vec_ray.temporal.asof import asof_join
    from pic2vec_ray.temporal.core import (PART_COL, add_partition_column,
                                           hash_partition_ids, sort_ranges)

    ev, obs, right = _frames(21)
    p = int(hash_partition_ids(pd.DataFrame({"user": [0]}), "user", 8)[0])
    owned = {(p + 2 * s) % 8 for s in range(4)}
    for side, df in ((0, obs), (1, right)):
        t = add_partition_column(rd.from_pandas(df), "user", 8, [0], 4, side=side).to_pandas()
        hot = t[t.user == 0]
        assert t[PART_COL].between(0, 7).all()
        assert set(hot[PART_COL]) == owned
        if side:  # every hot right row once in each owned partition
            assert len(hot) == 4 * (right.user == 0).sum()
            assert (hot.groupby(["ts_r", PART_COL]).size() == 1).all()
    assert len(t[t.user != 0]) == (right.user != 0).sum()

    def run(parts, hot_keys, salt):
        ds = asof_join(_ds(obs, 1), _ds(right, 2), on="ts", by="user", right_on="ts_r",
                       num_partitions=parts, hot_keys=hot_keys, salt=salt)
        return [b.to_pandas() for b in ray.get(ds.to_arrow_refs()) if b.num_rows]

    salted = run(8, [0], 4)
    assert (obs.user == 0).sum() >= 4
    assert sum(bool((b.user == 0).any()) for b in salted) >= min(4, sort_ranges(8))
    _same(pd.concat(salted), pd.concat(run(8, None, 8)))
    _same(pd.concat(run(2, [0], 8)), pd.concat(run(2, None, 8)))


def test_ewma_large_values_do_not_wrap(ray_session):
    """|num| above ~4.6e12 made ``2·|num|·10^6`` wrap int64 silently.
    The result must equal ``SQL_EWMA``'s integer formula, evaluated here
    in HUGEINT so that the oracle itself cannot overflow."""
    import duckdb
    import ray.data as rd

    from pic2vec_ray.pipelines.queries import SQL_EWMA
    from pic2vec_ray.temporal.windows import ewma_range

    events = pd.DataFrame({
        "event_id": np.int64([0, 1, 2, 3]),
        "user_id": np.int64([7, 7, 7, 8]),
        "ts": pd.to_datetime(["2024-01-01 00:00", "2024-01-01 12:00", "2024-01-02 00:00",
                              "2024-01-02 00:00"]).astype("datetime64[us]"),
        "value": [1e9, -3.3e9, 7.25e8, -5e11],
    })
    got = (ewma_range(rd.from_pandas(events), by="user_id", order="ts", value="value",
                      window=pd.Timedelta(hours=48), halflife=pd.Timedelta(hours=12),
                      out_col="value_ewma48h")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    sql = (SQL_EWMA.replace("2 * num *", "2 * CAST(num AS HUGEINT) *")
                   .replace("2 * (-num) *", "2 * CAST(-num AS HUGEINT) *"))
    assert sql.count("HUGEINT") == 2
    con = duckdb.connect()
    con.register("events", events)
    exp = con.execute(sql + " ORDER BY event_id").df()
    assert got.value_ewma48h_micro6.iloc[0] == 10**15
    assert got.value_ewma48h_micro6.iloc[3] == -5 * 10**17
    assert got.value_ewma48h_micro6.tolist() == exp.value_ewma48h_micro6.tolist()


def test_ewma_unrepresentable_ratio_raises(ray_session):
    import ray.data as rd

    from pic2vec_ray.temporal.windows import ewma_range

    events = pd.DataFrame({"event_id": [0], "user_id": [1],
                           "ts": pd.to_datetime(["2024-01-01"]), "value": [1e13]})
    with pytest.raises(Exception, match="does not fit int64"):
        ewma_range(rd.from_pandas(events), by="user_id", order="ts", value="value",
                   window=pd.Timedelta(hours=1), halflife=pd.Timedelta(hours=1)
                   ).materialize()


def test_resample_grid_emits_one_time_unit(ray_session):
    """A block whose rows all have a null key yields no grid points; its
    empty output must carry the same ``grid_ts`` unit as any other."""
    from pic2vec_ray.temporal.windows import resample_grid

    ev, _, _ = _frames(2)
    nulls = ev.assign(user=np.nan)

    def unit(df):
        schema = resample_grid(_ds(df, 3), by="user", order="ts", value="v", freq=FREQ,
                               num_partitions=4).materialize().schema()
        return str(dict(zip(schema.names, schema.types))["grid_ts"])

    assert unit(ev) == unit(nulls) == "timestamp[ns]"
