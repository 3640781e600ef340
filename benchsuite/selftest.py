"""Self-test of the output checks; starts no Ray session.

    python3 benchsuite/selftest.py

Every check runs twice on small hand-built data: on a correct output,
which it must pass, and on a deliberately corrupted copy, which it must
fail. Correct outputs are built here with pandas and plain Python, apart
from the SQL and graph code inside the checks; the EWMA case takes its
oracle SQL from the engine's query module. Exits 1 if any check misjudges
either case.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchsuite import checks  # noqa: E402

T0 = pd.Timestamp("2024-01-01")


def _hours(xs) -> pd.Series:
    return pd.Series([T0 + pd.Timedelta(hours=x) for x in xs]).astype("datetime64[us]")


def features_case():
    # roles 0-2 decode; role 17 (GIF) is missing; img 21 repeats img 1's bytes
    ids = ["img_00000001", "img_00000002", "img_00000003", "img_00000017",
           "img_00000021"]
    payload = [b"a", b"b", b"c", b"GIF89a", b"a"]
    images = pd.DataFrame({"image_id": ids, "bytes": payload})
    rng = np.random.default_rng(0)
    by_payload = {p: rng.normal(size=8).astype(np.float32) for p in set(payload)}
    feats = pd.DataFrame({"image_id": ids, "missing": [False, False, False, True, False],
                          "features": [by_payload[p] for p in payload]})
    sample = {i: by_payload[p] for i, p in zip(ids, payload) if i != "img_00000017"}
    bad = feats.copy()
    bad.at[1, "features"], bad.at[2, "features"] = feats.features[2], feats.features[1]
    return (lambda f: checks.check_features(images, f, sample)), feats, bad, \
        "two feature vectors swapped between ids"


def asof_case():
    versions = pd.DataFrame({"image_id": ["img_1", "img_1", "img_2"],
                             "feature_ts": _hours([1, 5, 3])})
    obs = pd.DataFrame({"obs_id": np.arange(5), "image_id": ["img_1"] * 3 + ["img_2"] * 2,
                        "ts": _hours([0, 1, 7, 2, 4])})
    vec = {"img_1": np.ones(4, np.float32), "img_2": np.zeros(4, np.float32)}
    feats = pd.DataFrame({"image_id": list(vec), "missing": [False, True],
                          "features": list(vec.values())})
    out = pd.merge_asof(obs.sort_values("ts"), versions.sort_values("feature_ts"),
                        left_on="ts", right_on="feature_ts", by="image_id")
    out = out.rename(columns={"feature_ts": "ts_r"}).sort_values("obs_id")
    out["missing"] = out.image_id.map({"img_1": False, "img_2": True}).where(
        out.ts_r.notna())
    out["features"] = [vec[i] if pd.notna(t) else None
                       for i, t in zip(out.image_id, out.ts_r)]
    bad = out.copy()
    row = bad.index[bad.obs_id == 2][0]
    bad.at[row, "ts_r"] = bad.at[row, "ts"] + pd.Timedelta(hours=1)
    return (lambda o: checks.check_asof(obs, versions, feats, o)), out, bad, \
        "an as-of match moved after its observation"


def groups_case():
    # keys 1,2 identical hash; 3 within hamming 3 of them; 4,5 identical; 6 alone
    keys = np.array([1, 2, 3, 4, 5, 6], dtype=np.int64)
    hashes = np.array([0, 0, 0b111, 0xFFFF0000, 0xFFFF0000, 0x0F0F0F0F0F], dtype=np.int64)
    lossless = {1: 0, 4: 0xFFFF0000}
    good = pd.DataFrame({"id": [1, 2, 3, 4, 5], "group_id": [1, 1, 1, 4, 4]})
    bad = pd.DataFrame({"id": [1, 2, 3, 4, 5], "group_id": [1, 4, 1, 4, 4]})
    return (lambda g: checks.check_groups(keys, hashes, lossless, g)[0]), good, bad, \
        "an identical-hash image moved to another group"


def _events() -> pd.DataFrame:
    return pd.DataFrame({
        "event_id": np.arange(8, dtype=np.int64),
        "user_id": np.array([1, 1, 1, 1, 2, 2, 2, 1], dtype=np.int64),
        "ts": _hours([0, 0.5, 0.5, 3, 1, 1.9, 4, 1.25]),
        "amount": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
    })


def rolling_case():
    ev = _events()
    sums, cnts = [], []
    for _, r in ev.iterrows():
        frame = ev[(ev.user_id == r.user_id) & (ev.ts <= r.ts)
                   & (ev.ts >= r.ts - pd.Timedelta(hours=1))]
        sums.append(frame.amount.sum())
        cnts.append(len(frame))
    good_sum = ev.assign(roll_sum=sums)
    good_cnt = ev.assign(roll_cnt=cnts)
    bad_sum = good_sum.copy()
    bad_sum.loc[3, "roll_sum"] += ev.amount[2]  # one more event in the frame
    return (lambda s: checks.check_rolling(ev, s, good_cnt)), good_sum, bad_sum, \
        "a rolling sum off by one event"


def pit_case():
    obs = pd.DataFrame({"obs_id": np.arange(4, dtype=np.int64),
                        "user_id": np.array([1, 1, 2, 2], dtype=np.int64),
                        "ts": _hours([1, 3, 2, 5])})
    right = pd.DataFrame({"user_id": np.array([1, 1, 2], dtype=np.int64),
                          "ts_r": _hours([1, 2, 5]), "n_buy": np.array([1, 2, 3])})
    out = pd.merge_asof(obs.sort_values("ts"), right.sort_values("ts_r"), left_on="ts",
                        right_on="ts_r", by="user_id", allow_exact_matches=False)
    bad = out.copy()
    bad.loc[bad.obs_id == 1, "n_buy"] = 1
    return (lambda o: checks.check_pit(obs, right, o, strict=True)), out, bad, \
        "a strict as-of value taken from the wrong right row"


def sessions_case():
    ev = _events()
    ev = ev.sort_values(["user_id", "ts", "event_id"])
    gap = ev.groupby("user_id").ts.diff() > pd.Timedelta(minutes=30)
    first = ev.groupby("user_id").cumcount() == 0
    good = ev.assign(session_id=(gap | first).astype(int).groupby(ev.user_id).cumsum())
    bad = good.copy()
    bad.iloc[1, bad.columns.get_loc("session_id")] += 1
    return (lambda o: checks.check_sessions(ev, o, 30)), good, bad, \
        "a session id off by one"


def ewma_case():
    from pic2vec_ray.pipelines.queries import SQL_EWMA

    ev = _events()
    tau_us = 12 * 3600e6 / math.log(2)
    half_away = lambda x: math.floor(x + 0.5)  # noqa: E731, all addends are >= 0
    micro, n = [], []
    for _, r in ev.iterrows():
        frame = ev[(ev.user_id == r.user_id) & (ev.ts <= r.ts)
                   & (ev.ts >= r.ts - pd.Timedelta(hours=48))]
        w = [math.exp(-(r.ts - t) / pd.Timedelta(microseconds=1) / tau_us)
             for t in frame.ts]
        num = sum(half_away(v * wi * 1e4) for v, wi in zip(frame.amount, w))
        den = sum(half_away(wi * 1e4) for wi in w)
        micro.append((2 * num * 10**6 + den) // (2 * den))
        n.append(len(frame))
    good = ev.assign(value_ewma48h_micro6=micro, value_ewma48h_n=n)
    bad = good.copy()
    bad.loc[5, "value_ewma48h_micro6"] += 1
    return (lambda o: checks.check_ewma(ev, o, SQL_EWMA)), good, bad, \
        "an EWMA one unit off in its sixth decimal"


CASES = {"features": features_case, "asof": asof_case, "groups": groups_case,
         "rolling": rolling_case, "pit": pit_case, "sessions": sessions_case,
         "ewma": ewma_case}


def main() -> int:
    ok = True
    for name, make in CASES.items():
        check, good, bad, corruption = make()
        good_errs, bad_errs = check(good), check(bad)
        fine = not good_errs and bool(bad_errs)
        ok &= fine
        print(f"{'ok  ' if fine else 'FAIL'} {name:9s} correct output: "
              f"{'pass' if not good_errs else good_errs}; "
              f"{corruption}: {'caught' if bad_errs else 'NOT caught'}"
              + (f" ({bad_errs[0]})" if bad_errs else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
