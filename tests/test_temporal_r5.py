"""Round-5 temporal additions: nearest-direction as-of, time-decayed
EWMA over a RANGE frame, regular-grid resampling. Brute-force pandas
oracles, partition invariance, and the quantization contract."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest


def _events(n=500, users=8, seed=17):
    rng = np.random.default_rng(seed)
    ts = (pd.Timestamp("2024-01-01")
          + pd.to_timedelta(rng.integers(0, 3_000_000, n), unit="s"))
    return pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, users, n).astype(np.int64),
        "ts": ts.astype("datetime64[us]"),
        "value": rng.uniform(-5, 100, n).round(3),
    })


def test_ewma_matches_bruteforce(ray_session):
    import ray.data as rd
    from pic2vec_ray.temporal.windows import ewma_range

    df = _events()
    W, H = pd.Timedelta(hours=4), pd.Timedelta(hours=1)
    out = (ewma_range(rd.from_pandas(df).repartition(6), by="user_id",
                      order="ts", value="value", window=W, halflife=H,
                      out_col="ew")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    tau = H.total_seconds() * 1e6 / np.log(2.0)
    for _, r in out.sample(60, random_state=0).iterrows():
        g = df[df.user_id == r.user_id]
        frame = g[(g.ts >= r.ts - W) & (g.ts <= r.ts)]
        dt = (r.ts - frame.ts).dt.total_seconds().to_numpy() * 1e6
        w = np.exp(-dt / tau)
        num = int(np.round(frame.value.to_numpy() * w * 10000).sum())
        den = int(np.round(w * 10000).sum())
        expect = int(np.sign(num)) * ((2 * abs(num) * 10**6 + den)
                                      // (2 * den))
        assert r.ew_micro6 == expect
        # and the integer encodes the ratio to within 1e-6
        assert r.ew_micro6 / 1e6 == pytest.approx(num / den, abs=1e-6)
        assert r.ew_n == len(frame)


def test_ewma_partition_invariant(ray_session):
    import ray.data as rd
    from pic2vec_ray.temporal.windows import ewma_range

    df = _events(n=300, seed=3)
    outs = []
    for parts in (1, 7):
        outs.append(
            ewma_range(rd.from_pandas(df).repartition(parts), by="user_id",
                       order="ts", value="value",
                       window=pd.Timedelta(hours=6),
                       halflife=pd.Timedelta(hours=2), out_col="ew")
            .to_pandas().sort_values("event_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_ewma_current_row_weight_one(ray_session):
    """A row with an empty trailing window (first event of its user)
    still includes itself at weight 1 => ewma == value."""
    import ray.data as rd
    from pic2vec_ray.temporal.windows import ewma_range

    df = pd.DataFrame({
        "event_id": [0, 1],
        "user_id": np.int64([1, 1]),
        "ts": pd.to_datetime(["2024-01-01", "2024-06-01"]).astype("datetime64[us]"),
        "value": [42.5, 7.25],
    })
    out = (ewma_range(rd.from_pandas(df), by="user_id", order="ts",
                      value="value", window=pd.Timedelta(hours=1),
                      halflife=pd.Timedelta(minutes=10), out_col="ew")
           .to_pandas().sort_values("event_id"))
    assert out.ew_micro6.tolist() == [42_500_000, 7_250_000]
    assert out.ew_n.tolist() == [1, 1]


def test_ewma_half_addend_matches_sql_oracle(ray_session):
    """Two 0.02 events 48 h apart at a 12 h half-life: the older one's
    addend is 0.02 · 2⁻⁴ · 10⁴ = 12.5 exactly. SQL ``ROUND`` takes it to
    13 (half away from zero); ``ewma_range`` must agree with its oracle."""
    import duckdb
    import ray.data as rd
    from pic2vec_ray.pipelines.queries import SQL_EWMA
    from pic2vec_ray.temporal.windows import ewma_range

    events = pd.DataFrame({
        "event_id": np.int64([0, 1, 2]),
        "user_id": np.int64([7, 7, -3]),
        "ts": pd.to_datetime(["2024-01-01", "2024-01-03", "2024-01-03"])
              .astype("datetime64[us]"),
        "value": [0.02, 0.02, -0.02],
    })
    got = (ewma_range(rd.from_pandas(events), by="user_id", order="ts",
                      value="value", window=pd.Timedelta(hours=48),
                      halflife=pd.Timedelta(hours=12), out_col="value_ewma48h")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("events", events)
    exp = con.execute(SQL_EWMA + " ORDER BY event_id").df()
    # (200 + 13) / (10000 + 625) at 1e6 scale, rounded half away
    assert got.value_ewma48h_micro6.iloc[1] == 20047
    assert got.value_ewma48h_micro6.tolist() == exp.value_ewma48h_micro6.tolist()
    assert got.value_ewma48h_n.tolist() == exp.value_ewma48h_n.tolist()


def test_round_half_away_ties_and_near_ties():
    from pic2vec_ray.temporal.windows import _round_half_away

    x = np.array([0.5, 1.5, 2.5, -0.5, -2.5, 12.5, 0.49999999999999994,
                  -0.49999999999999994, 2.4999999999999996, 3.7, -3.7, 0.0])
    exp = [1, 2, 3, -1, -3, 13, 0, 0, 2, 4, -4, 0]
    assert _round_half_away(x).tolist() == exp


def test_resample_grid_locf(ray_session):
    import ray.data as rd
    from pic2vec_ray.temporal.windows import resample_grid

    df = _events(n=400, users=5, seed=9)
    F = pd.Timedelta(hours=12)
    out = (resample_grid(rd.from_pandas(df).repartition(5), by="user_id",
                         order="ts", value="value", freq=F)
           .to_pandas().sort_values(["user_id", "grid_ts"])
           .reset_index(drop=True))
    dedup = df.groupby(["user_id", "ts"], as_index=False).value.max()
    for uid, g in dedup.groupby("user_id"):
        g = g.sort_values("ts")
        grid = pd.date_range(g.ts.iloc[0], g.ts.iloc[-1], freq=F)
        sub = out[out.user_id == uid]
        assert list(sub.grid_ts) == list(grid)
        for gts, got in zip(sub.grid_ts, sub.value_ffill):
            expect = g[g.ts <= gts].value.iloc[-1]
            assert got == expect


def test_asof_nearest_matches_pandas(ray_session):
    import ray.data as rd
    from pic2vec_ray.temporal.asof import asof_join

    df = _events(n=400, users=6, seed=31)
    left = df[df.event_id % 3 != 0][["event_id", "user_id", "ts"]]
    right = (df[df.event_id % 3 == 0]
             .groupby(["user_id", "ts"], as_index=False).value.max()
             .rename(columns={"value": "v"}))
    out = (asof_join(rd.from_pandas(left).repartition(4),
                     rd.from_pandas(right).repartition(3),
                     on="ts", by="user_id", direction="nearest")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    expect = pd.merge_asof(
        left.sort_values("ts"),
        right.rename(columns={"ts": "ts_r"}).sort_values("ts_r"),
        left_on="ts", right_on="ts_r", by="user_id", direction="nearest",
    ).sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        out[["event_id", "ts_r", "v"]], expect[["event_id", "ts_r", "v"]])
