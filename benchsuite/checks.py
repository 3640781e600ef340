"""Output checks, computed apart from the Ray plan. No Ray import here.

Each ``check_*`` returns a list of error strings; an empty list passes.
Expected values come from DuckDB SQL over the benchmark's own inputs,
from NumPy over in-process hashes, or from properties the method must
have. None compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

MISSING_ROLES = (17, 18, 19)  # GIF, empty and garbage rows of the fixture


def _vectors(col) -> np.ndarray:
    return np.stack([np.asarray(v, dtype=np.float32) for v in col])


def _sql(query: str, **tables: pd.DataFrame) -> pd.DataFrame:
    con = duckdb.connect()
    try:
        for name, df in tables.items():
            con.register(name, df)
        return con.execute(query).df()
    finally:
        con.close()


def _first_diffs(label: str, bad: pd.DataFrame, n: int = 3) -> list[str]:
    if bad.empty:
        return []
    return [f"{label}: {len(bad)} rows differ, e.g. {bad.head(n).to_dict('records')}"]


# ------------------------------------------------------------ headline

def check_features(images: pd.DataFrame, feats: pd.DataFrame,
                   refeaturized: dict[str, np.ndarray]) -> list[str]:
    """Featurize output against its input and against in-process vectors.

    ``images``: image_id, bytes. ``feats``: image_id, missing, features.
    ``refeaturized``: image_id -> vector computed one row at a time in
    process for a seeded sample.
    """
    errs = []
    if feats.image_id.duplicated().any():
        errs.append("features: duplicate image_id rows")
    if set(feats.image_id) != set(images.image_id) or len(feats) != len(images):
        errs.append(f"features: ids are not the input's ({len(feats)} rows "
                    f"for {len(images)} inputs)")
        return errs
    f = feats.set_index("image_id").loc[images.image_id]
    role = images.image_id.str[4:].astype(np.int64).to_numpy() % 20
    want_missing = np.isin(role, MISSING_ROLES)
    got_missing = f.missing.to_numpy(dtype=bool)
    if not np.array_equal(want_missing, got_missing):
        errs.append(f"features: missing flag disagrees with the row-role rule on "
                    f"{int((want_missing != got_missing).sum())} rows")
    vec = _vectors(f.features)
    payload = images.bytes.map(bytes)
    for _, idx in pd.Series(range(len(images))).groupby(payload.to_numpy()):
        if len(idx) > 1 and not all(np.array_equal(vec[idx.iloc[0]], vec[i])
                                    for i in idx.iloc[1:]):
            errs.append("features: byte-identical payloads got different vectors")
            break
    pos = {iid: i for i, iid in enumerate(images.image_id)}
    for iid, want in refeaturized.items():
        if not np.allclose(vec[pos[iid]], want, rtol=1e-4, atol=1e-5):
            errs.append(f"features: {iid} differs from its in-process vector")
    return errs


def check_asof(obs: pd.DataFrame, versions: pd.DataFrame, feats: pd.DataFrame,
               out: pd.DataFrame) -> list[str]:
    """As-of output against DuckDB ``ASOF LEFT JOIN`` over the same files.

    ``versions``: image_id, feature_ts (the right side's time rule).
    ``out``: obs_id, image_id, ts, ts_r, missing, features.
    """
    errs = []
    if len(out) != len(obs) or out.obs_id.duplicated().any():
        return [f"asof: {len(out)} rows for {len(obs)} observations"]
    future = out.ts_r.notna() & (out.ts_r > out.ts)
    if future.any():
        errs.append(f"asof: {int(future.sum())} matches lie after their observation")
    want = _sql("""
        SELECT o.obs_id, v.feature_ts AS want_ts
        FROM obs o ASOF LEFT JOIN versions v
          ON o.image_id = v.image_id AND o.ts >= v.feature_ts""",
                obs=obs[["obs_id", "image_id", "ts"]], versions=versions)
    got = out[["obs_id", "ts_r"]].merge(want, on="obs_id", how="outer")
    same = (got.ts_r == got.want_ts) | (got.ts_r.isna() & got.want_ts.isna())
    errs += _first_diffs("asof vs DuckDB", got[~same])
    matched = out[out.ts_r.notna()]
    if out.loc[out.ts_r.isna(), "features"].notna().any():
        errs.append("asof: unmatched rows carry features")
    f = feats.set_index("image_id")
    want_vec = _vectors(f.loc[matched.image_id, "features"])
    if len(matched) and not np.array_equal(_vectors(matched.features), want_vec):
        errs.append("asof: matched features differ from the featurize output")
    if not np.array_equal(matched.missing.to_numpy(bool),
                          f.loc[matched.image_id, "missing"].to_numpy(bool)):
        errs.append("asof: matched missing flags differ from the featurize output")
    return errs


# ------------------------------------------------------------ temporal

def check_pit(obs: pd.DataFrame, right: pd.DataFrame, out: pd.DataFrame,
              strict: bool) -> list[str]:
    """One as-of join against DuckDB over the same observation and right files."""
    if len(out) != len(obs) or out.obs_id.duplicated().any():
        return [f"pit: {len(out)} rows for {len(obs)} observations"]
    vals = [c for c in right.columns if c not in ("user_id", "ts_r")]
    op = ">" if strict else ">="
    want = _sql(f"""
        SELECT o.obs_id, r.ts_r, {", ".join(f"r.{c}" for c in vals)}
        FROM obs o ASOF LEFT JOIN r ON o.user_id = r.user_id AND o.ts {op} r.ts_r""",
                obs=obs, r=right)
    got = out[["obs_id", "ts", "ts_r"] + vals].merge(
        want, on="obs_id", how="outer", suffixes=("", "_want"))
    errs = []
    late = got.ts_r.notna() & ((got.ts_r >= got.ts) if strict else (got.ts_r > got.ts))
    if late.any():
        errs.append(f"pit: {int(late.sum())} matches are not before their observation")
    for c in ["ts_r"] + vals:
        a, b = got[c], got[c + "_want"]
        if np.issubdtype(np.asarray(a.dropna()).dtype, np.floating):
            same = np.isclose(a.astype(float), b.astype(float), rtol=1e-9, atol=1e-9,
                              equal_nan=True)
        else:
            same = (a == b) | (a.isna() & b.isna())
        errs += _first_diffs(f"pit column {c} vs DuckDB",
                             got.loc[~np.asarray(same), ["obs_id", c, c + "_want"]])
    return errs


def check_rolling(events: pd.DataFrame, out_sum: pd.DataFrame,
                  out_cnt: pd.DataFrame) -> list[str]:
    """RANGE 1 hour sums and counts against DuckDB window SQL."""
    want = _sql("""
        SELECT event_id,
          SUM(amount) OVER w AS want_sum, COUNT(*) OVER w AS want_cnt
        FROM ev WINDOW w AS (PARTITION BY user_id ORDER BY ts
          RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)""",
                ev=events)
    errs = []
    for out, col, wcol in ((out_sum, "roll_sum", "want_sum"),
                           (out_cnt, "roll_cnt", "want_cnt")):
        got = out[["event_id", col]].merge(want, on="event_id", how="outer")
        if len(out) != len(events):
            errs.append(f"{col}: {len(out)} rows for {len(events)} events")
        same = np.isclose(got[col].astype(float), got[wcol].astype(float),
                          rtol=1e-9, atol=1e-9)
        errs += _first_diffs(f"{col} vs DuckDB", got[~same])
    return errs


def check_sessions(events: pd.DataFrame, out: pd.DataFrame, gap_min: int) -> list[str]:
    want = _sql(f"""
        SELECT event_id, SUM(CASE WHEN prev IS NULL OR ts - prev > INTERVAL {gap_min} MINUTE
                              THEN 1 ELSE 0 END)
            OVER (PARTITION BY user_id ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING)
            AS want_sid
        FROM (SELECT *, LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
              FROM ev)""", ev=events)
    got = out[["event_id", "session_id"]].merge(want, on="event_id", how="outer")
    errs = [] if len(out) == len(events) else [f"sessions: {len(out)} rows"]
    return errs + _first_diffs("sessions vs DuckDB", got[got.session_id != got.want_sid])


EWMA_COLS = ["value_ewma48h_micro6", "value_ewma48h_n"]


def check_ewma(events: pd.DataFrame, out: pd.DataFrame, oracle_sql: str) -> list[str]:
    """48 h EWMA against the engine's own SQL oracle, run in DuckDB over the
    same events. ``oracle_sql`` reads a table ``events`` (event_id, user_id,
    ts, value); both sides quantize to integers, so the match is exact."""
    ev = events.rename(columns={"amount": "value"})[["event_id", "user_id", "ts", "value"]]
    want = _sql(oracle_sql, events=ev)[["event_id"] + EWMA_COLS]
    got = out[["event_id"] + EWMA_COLS].merge(want, on="event_id", how="outer",
                                               suffixes=("", "_want"))
    errs = [] if len(out) == len(events) else [f"ewma: {len(out)} rows for {len(events)} events"]
    same = np.logical_and.reduce([got[c] == got[c + "_want"] for c in EWMA_COLS])
    return errs + _first_diffs("ewma vs SQL_EWMA", got[~same])


# ------------------------------------------------------------ image dedup

def hamming_adjacency(hashes: np.ndarray, max_hamming: int = 3) -> np.ndarray:
    """Exact all-pairs hamming <= ``max_hamming`` matrix of 64-bit hashes."""
    h = hashes.astype(np.int64).view(np.uint64)
    x = (h[:, None] ^ h[None, :]).view(np.uint8).reshape(len(h), len(h), 8)
    return np.unpackbits(x, axis=2).sum(axis=2) <= max_hamming


def hamming_components(keys: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """Component label (min member key) of every row in the exact all-pairs
    hamming <= 3 graph."""
    adj = hamming_adjacency(hashes)
    label = keys.astype(np.int64).copy()
    while True:  # min-label propagation to a fixed point
        new = np.where(adj, label[None, :], np.iinfo(np.int64).max).min(axis=1)
        if np.array_equal(new, label):
            return label
        label = new


def check_groups(keys: np.ndarray, hashes: np.ndarray, lossless_phash: dict,
                 groups: pd.DataFrame) -> tuple[list[str], int]:
    """Near-duplicate groups against the exact hamming <= 3 graph.

    ``keys``/``hashes``: every decodable row and its in-process hash.
    ``lossless_phash``: key -> generator phash of the PNG/BMP rows.
    Returns (errors, number of true components the output splits).
    """
    errs = []
    hash_of = dict(zip(keys.tolist(), hashes.tolist()))
    wrong = [k for k, p in lossless_phash.items() if hash_of.get(k) != p]
    if wrong:
        errs.append(f"groups: {len(wrong)} lossless rows hash differently from "
                    f"the generator, e.g. key {wrong[0]}")
    comp = dict(zip(keys.tolist(), hamming_components(keys, hashes).tolist()))
    g = dict(zip(groups["id"].tolist(), groups["group_id"].tolist()))
    if len(g) != len(groups):
        errs.append("groups: an image appears twice")
    if any(k not in comp for k in g):
        errs.append("groups: output holds an id that is not a decodable input")
        return errs, 0
    for gid, members in groups.groupby("group_id")["id"]:
        if len({comp[k] for k in members}) > 1:
            errs.append(f"groups: group {gid} spans several true components")
            break
        if len(members) < 2 or gid != members.min():
            errs.append(f"groups: group {gid} is not labelled by its min member")
            break
    for h, members in pd.Series(keys).groupby(hashes):
        labels = {g.get(k) for k in members}
        if len(members) > 1 and (len(labels) != 1 or None in labels):
            errs.append(f"groups: the identical-hash set {h} is not whole")
            break
    comp_members = pd.Series(list(comp.keys())).groupby(list(comp.values()))
    split = sum(1 for _, m in comp_members
                if len(m) > 1 and len({g.get(k) for k in m}) > 1)
    return errs, split

