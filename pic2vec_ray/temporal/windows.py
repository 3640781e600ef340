"""Windowed feature engineering over entity partitions (north_rule):
lag/lead, backfill, gap-threshold sessionization, range rolling
aggregates. New relative to the reference (SURVEY.md §2.5 — the
reference has no cross-row aggregation at all); semantics are pinned to
the ANSI-SQL window-function equivalents the oracle tests run.

All operators share the contract:

- deterministic order inside an entity: ``ORDER BY order_col, tiebreak``
  (ties on the timestamp are broken by an explicit unique id column —
  FIXTURES.md T2 requires the tie-break rule be pinned);
- one exchange on the entity key via ``partitioned_apply``: a small
  input of known size runs the kernel once over all its rows (local
  plan), any other input is hash-shuffled and the kernel runs once per
  sorted block, which may hold several whole partitions (or none). Each
  call is one vectorized pass over every entity it is given: pandas
  groupby ops, and for frames one ``searchsorted`` over a
  packed (entity code, time rank) key (``core.rank_packer``) — no Python
  loop over entities or rows.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .core import DEFAULT_PARTITIONS, as_i8, partitioned_apply, rank_packer

# (row, frame-row) pairs ewma_range builds at once: bounds its peak
# memory whatever the block size (a single row's frame may exceed it)
_EWMA_PAIR_BUDGET = 1 << 20


def _sorted(df: pd.DataFrame, by: str, order: str, tiebreak: str | None) -> pd.DataFrame:
    keys = [by, order] + ([tiebreak] if tiebreak else [])
    return df.sort_values(keys, kind="mergesort")


def _entities(df: pd.DataFrame, by: str) -> tuple[np.ndarray, np.ndarray]:
    """Entity code of every row of a frame sorted by ``by`` (codes in
    order of appearance, so non-decreasing; a null key is one entity)
    and the index of each entity's first row."""
    codes = pd.factorize(df[by], use_na_sentinel=False)[0]
    return codes, np.flatnonzero(np.diff(codes, prepend=-1))


def _range_frames(codes: np.ndarray, ts: np.ndarray, window: pd.Timedelta):
    """Row bounds ``[lo, hi)`` of the RANGE frame ``[t − window, t]``,
    timestamp peers included, for every row of a block sorted by
    (entity, ts): one ``searchsorted`` over packed (code, time rank)."""
    t, t_lo = as_i8(ts), as_i8(ts - window)
    pack = rank_packer(t, t_lo)
    key = pack(codes, t)
    return (np.searchsorted(key, pack(codes, t_lo), side="left"),
            np.searchsorted(key, key, side="right"))


def _entity_cumsum(v: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums of ``v`` restarting at every entity start
    in ``first``, each entity summed left to right exactly as
    ``np.cumsum`` sums it alone (pandas' ``groupby().cumsum()`` is
    compensated, so its sums differ in the last bits). Entities are
    padded into one 2-D ``np.cumsum`` per power-of-two length class, so
    padding at most doubles the work."""
    out = np.empty(len(v), dtype=np.float64)
    lengths = np.diff(first, append=len(v))
    cls = np.frexp(lengths)[1]
    for c in np.unique(cls):
        sel = np.flatnonzero(cls == c)
        col = np.arange(lengths[sel].max())
        valid = col < lengths[sel][:, None]
        idx = (first[sel][:, None] + col)[valid]
        padded = np.zeros(valid.shape, dtype=np.float64)
        padded[valid] = v[idx]
        out[idx] = np.cumsum(padded, axis=1)[valid]
    return out


def _frame_sum(csum: np.ndarray, starts: np.ndarray, lo: np.ndarray,
               hi: np.ndarray) -> np.ndarray:
    """``Σ v[lo:hi]`` per row from per-entity prefix sums ``csum``
    (``starts``: each row's entity start; an empty prefix is 0)."""
    return csum[hi - 1] - np.where(lo > starts, csum[lo - 1], 0.0)


def lag_lead(ds, *, by: str, order: str, cols: list[str], lags=(1,), leads=(1,),
             tiebreak: str | None = None, num_partitions: int = DEFAULT_PARTITIONS):
    """SQL: ``lag(col, n) OVER (PARTITION BY by ORDER BY order, tiebreak)``
    (and ``lead``). Output columns: ``{col}_lag{n}`` / ``{col}_lead{n}``."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted(df, by, order, tiebreak)
        g = df.groupby(by, sort=False)
        for col in cols:
            for n in lags:
                df[f"{col}_lag{n}"] = g[col].shift(n)
            for n in leads:
                df[f"{col}_lead{n}"] = g[col].shift(-n)
        return df

    return partitioned_apply(ds, by, fn, num_partitions)


def backfill(ds, *, by: str, order: str, cols: list[str], direction: str = "forward",
             limit: int | None = None, tiebreak: str | None = None,
             num_partitions: int = DEFAULT_PARTITIONS, out_suffix: str = "_filled"):
    """Forward/backward fill of nullable columns along the entity timeline.

    SQL (forward): ``last_value(col IGNORE NULLS) OVER (PARTITION BY by
    ORDER BY order, tiebreak ROWS UNBOUNDED PRECEDING)``.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted(df, by, order, tiebreak)
        g = df.groupby(by, sort=False)
        for col in cols:
            filled = g[col].ffill(limit=limit) if direction == "forward" else g[col].bfill(limit=limit)
            df[f"{col}{out_suffix}"] = filled
        return df

    return partitioned_apply(ds, by, fn, num_partitions)


def sessionize(ds, *, by: str, order: str, gap: pd.Timedelta,
               tiebreak: str | None = None, num_partitions: int = DEFAULT_PARTITIONS,
               session_col: str = "session_id"):
    """Gap-threshold sessionization: a new session starts when
    ``order - prev(order) > gap`` (strictly greater). 1-based per
    entity.

    SQL: ``SUM(CASE WHEN prev_ts IS NULL OR ts - prev_ts > gap THEN 1
    ELSE 0 END) OVER (PARTITION BY by ORDER BY ts, tiebreak ROWS
    UNBOUNDED PRECEDING)``.
    """

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted(df, by, order, tiebreak)
        prev = df.groupby(by, sort=False)[order].shift(1)
        new_session = prev.isna() | ((df[order] - prev) > gap)
        df[session_col] = new_session.groupby(df[by], sort=False).cumsum().astype("int64")
        return df

    return partitioned_apply(ds, by, fn, num_partitions)


def tumbling_window_agg(ds, *, by: str, order: str, value: str, width: pd.Timedelta,
                        origin: pd.Timestamp, aggs: tuple[str, ...] = ("count", "sum"),
                        num_partitions: int = DEFAULT_PARTITIONS):
    """Tumbling (fixed, non-overlapping) event-time windows per entity.

    Window assignment is ``floor((ts - origin) / width)`` — a pure
    per-row projection, so this is the cheap kind of "window": one
    vectorized map to add ``window_start``, then an ordinary grouped
    aggregate (here fused into the same per-partition pass). SQL
    equivalent: ``GROUP BY by, time_bucket/date_trunc``. Ray Data has
    no event-time windowing primitive (SURVEY.md §2.9); this is the
    composition it recommends for historical stream-shaped tables.

    Returns one row per (by, window_start) with ``n_rows`` / ``sum_v``
    / ``mean_v`` columns.
    """
    width_us = int(width.total_seconds() * 1_000_000)
    origin64 = pd.Timestamp(origin).to_datetime64()

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        off = (df[order].to_numpy() - origin64).astype("timedelta64[us]").astype("int64")
        win = off // width_us
        df = df.assign(window_start=pd.Series(
            origin64 + (win * width_us).astype("timedelta64[us]"), index=df.index
        ))
        g = df.groupby([by, "window_start"], as_index=False)
        out = g.agg(n_rows=(value, "size"), sum_v=(value, "sum"), mean_v=(value, "mean"))
        keep = ["n_rows"] if "count" in aggs else []
        if "sum" in aggs:
            keep.append("sum_v")
        if "mean" in aggs:
            keep.append("mean_v")
        return out[[by, "window_start"] + keep]

    return partitioned_apply(ds, by, fn, num_partitions)


def rolling_range_agg(ds, *, by: str, order: str, value: str | None, window: pd.Timedelta,
                      agg: str = "count", tiebreak: str | None = None,
                      num_partitions: int = DEFAULT_PARTITIONS, out_col: str | None = None):
    """Rolling aggregate over the time range ``[t - window, t]`` per entity.

    Semantics match SQL ``RANGE BETWEEN window PRECEDING AND CURRENT
    ROW`` exactly — including *peer rows*: every row whose timestamp
    equals the current row's is inside the frame, which pandas'
    ``rolling`` cannot express; implemented with two vectorized
    ``searchsorted`` bounds per block over per-entity prefix sums.
    """
    if agg not in ("count", "sum", "mean"):
        raise ValueError("agg must be count/sum/mean")
    out_col = out_col or f"{value or 'rows'}_{agg}_{int(window.total_seconds())}s"

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted(df, by, order, tiebreak)
        codes, first = _entities(df, by)
        lo, hi = _range_frames(codes, df[order].to_numpy(), window)
        n = hi - lo
        if agg == "count":
            df[out_col] = n.astype("int64")
            return df
        csum = _entity_cumsum(df[value].to_numpy(dtype=np.float64), first)
        s = _frame_sum(csum, first[codes], lo, hi)
        df[out_col] = s if agg == "sum" else s / np.maximum(n, 1)
        return df

    return partitioned_apply(ds, by, fn, num_partitions)


def rolling_rows_agg(ds, *, by: str, order: str, value: str, k: int,
                     agg: str = "sum", tiebreak: str | None = None,
                     num_partitions: int = DEFAULT_PARTITIONS,
                     out_col: str | None = None):
    """Rolling aggregate over the last ``k`` PHYSICAL rows plus the
    current one per entity — SQL ``ROWS BETWEEN k PRECEDING AND
    CURRENT ROW`` (the positional counterpart of
    :func:`rolling_range_agg`'s RANGE frame).  ROWS frames depend on
    the physical order, so ``tiebreak`` must pin a total order — same
    discipline as the rank family.  Vectorized per block with per-entity
    prefix sums + a clamped index diff."""
    if agg not in ("count", "sum", "mean"):
        raise ValueError("agg must be count/sum/mean")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    out_col = out_col or f"{value}_{agg}_{k}rows"

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted(df, by, order, tiebreak)
        codes, first = _entities(df, by)
        starts = first[codes]
        i = np.arange(len(df))
        lo = np.maximum(starts, i - k)
        n = i - lo + 1
        if agg == "count":
            df[out_col] = n.astype("int64")
            return df
        csum = _entity_cumsum(df[value].to_numpy(dtype=np.float64), first)
        s = _frame_sum(csum, starts, lo, i + 1)
        df[out_col] = s if agg == "sum" else s / n
        return df

    return partitioned_apply(ds, by, fn, num_partitions)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    """Round half away from zero, as SQL ``ROUND`` does (``np.round``
    rounds half to even). ``x - round(x)`` is exact for every double, so
    a tie is found exactly; ``floor(x + 0.5)`` would not be (it rounds
    0.49999999999999994 up). Ties are rare, so only they are redone."""
    r = np.round(x)
    d = np.subtract(x, r)
    np.abs(d, out=d)
    tie = d == 0.5
    if tie.any():
        r[tie] = x[tie] + np.copysign(0.5, x[tie])
    return r


def ewma_range(ds, *, by: str, order: str, value: str, window: pd.Timedelta,
               halflife: pd.Timedelta, tiebreak: str | None = None,
               num_partitions: int = DEFAULT_PARTITIONS,
               out_col: str | None = None, decimals: int = 6,
               _scale: int = 10_000):
    """Time-decayed exponentially weighted mean over the RANGE frame
    ``[t − window, t]`` per entity::

        ewma_i = Σ_j v_j·w_ij / Σ_j w_ij,   w_ij = exp(−dt_ij / τ)

    with ``τ = halflife / ln 2`` and ``dt_ij = t_i − t_j`` (peers at
    dt = 0 get weight 1; like ``rolling_range_agg``, ALL timestamp
    peers are in frame, so no tiebreak dependence).  The recency-decay
    sibling of the flat rolling mean — the standard "recent behavior
    matters more" feature.

    Exactness contract: each addend is quantized to 1/_scale units
    (``round(w·s)`` / ``round(v·w·s)`` as int64, half away from zero
    like SQL ``ROUND``) and the two frame sums are INTEGER sums —
    order-invariant, so the SQL oracle's unordered SUM() over a windowed
    self-join reproduces ``num``, ``den`` and the
    final ``round(num/den, decimals)`` exactly (numpy's vectorized
    exp() and libm's can disagree by 1 ulp; the quantum absorbs it —
    flip probability ~1e-12 per addend, measured).

    Scale shape: one entity hash exchange; the (row, frame-row) pairs
    number Σ window occupancy (bounded by rows × the entity's max events
    per ``window``) and are built with vectorized searchsorted + repeat
    over slices of rows of at most ``_EWMA_PAIR_BUDGET`` pairs, so peak
    memory does not grow with the block — no Python loop over rows or
    entities.  Output: input columns +
    ``{out_col}_micro{decimals}`` (int64 — the ratio at 10^decimals
    scale, rounded half-away in exact integer arithmetic) +
    ``{out_col}_n`` (int64 frame size)."""
    out_col = out_col or f"{value}_ewma_{int(window.total_seconds())}s"
    tau_us = halflife.total_seconds() * 1e6 / np.log(2.0)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted(df, by, order, tiebreak)
        codes, _ = _entities(df, by)
        ts = df[order].to_numpy()
        v = df[value].to_numpy(dtype=np.float64)
        lo, hi = _range_frames(codes, ts, window)
        cnt = hi - lo
        ends = np.cumsum(cnt)  # pairs through each row
        num = np.empty(len(df), dtype=np.float64)
        den = np.empty(len(df), dtype=np.float64)
        a = 0
        while a < len(df):
            # rows [a, b) hold at most the pair budget (or one row); each
            # row's sums need only its own pairs
            done = int(ends[a - 1]) if a else 0
            b = max(a + 1, int(np.searchsorted(ends, done + _EWMA_PAIR_BUDGET, side="right")))
            n = cnt[a:b]
            ii = np.repeat(np.arange(b - a), n)
            # pair k of row i: frame row lo[i] + (k − first pair of row i)
            jj = (np.arange(int(ends[b - 1]) - done)
                  + np.repeat(lo[a:b] - (ends[a:b] - n - done), n))
            dt = (ts[ii + a] - ts[jj]).astype("timedelta64[us]").astype(np.int64)
            w = np.exp(-(dt.astype(np.float64)) / tau_us)
            aw = _round_half_away(w * _scale)          # int-valued doubles;
            av = _round_half_away(v[jj] * w * _scale)  # sums < 2^53 ⇒ exact
            num[a:b] = np.bincount(ii, weights=av, minlength=b - a)
            den[a:b] = np.bincount(ii, weights=aw, minlength=b - a)
            a = b
        # the rounded ratio is emitted as an EXACT integer at 10^decimals
        # scale, computed in integer arithmetic (round half away from
        # zero): a float ratio rounded at 6 dp can land exactly on a
        # .5 boundary where numpy (half-even) and SQL (half-away)
        # disagree — measured once in 10k rows at sf0.01. Dividing
        # first keeps every intermediate below den·2·10^decimals, where
        # 2·|num|·10^decimals would wrap int64 once |num| passes ~4.6e12.
        S = 10 ** decimals
        num_i = num.astype(np.int64)
        den_i = den.astype(np.int64)
        q, rem = np.divmod(np.abs(num_i), den_i)
        if len(q) and q.max() > (np.iinfo(np.int64).max - S) // S:
            raise OverflowError(
                f"ewma_range: an EWMA of magnitude {int(q.max())} does not fit "
                f"int64 at 10^{decimals} scale")
        r = q * S + (2 * rem * S + den_i) // (2 * den_i)
        df[out_col + f"_micro{decimals}"] = np.sign(num_i) * r
        df[out_col + "_n"] = cnt.astype(np.int64)
        return df

    return partitioned_apply(ds, by, fn, num_partitions)


def resample_grid(ds, *, by: str, order: str, value: str, freq: pd.Timedelta,
                  num_partitions: int = DEFAULT_PARTITIONS,
                  out_value: str = "value_ffill"):
    """Resample each entity's irregular timeline onto a regular grid:
    grid points ``first, first+freq, … ≤ last`` per entity (both ends
    anchored at the ENTITY's own first/last timestamp), each carrying
    the last observation at-or-before it (backward as-of).

    Determinism: duplicate timestamps within an entity are collapsed
    FIRST to ``max(value)`` per ``(by, order)`` — an as-of against a
    non-unique right side would make "last row wins" depend on block
    order.  SQL replays with generate_series + ASOF JOIN over the same
    MAX() pre-aggregate.

    Output: ``by``, ``grid_ts`` (``datetime64[ns]`` in every block),
    ``out_value`` — one row per grid point per entity.  Scale shape: one
    entity hash exchange; the grid is generated inside the block (never
    materialized globally); grid size per entity is span/freq, the
    caller's knob."""

    freq_ns = pd.Timedelta(freq).value

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = (df.groupby([by, order], as_index=False)[value].max()
              .sort_values([by, order], kind="mergesort"))
        codes, first = _entities(df, by)
        t = as_i8(df[order].to_numpy())
        last = first + np.diff(first, append=len(df)) - 1
        npts = (t[last] - t[first]) // freq_ns + 1
        ent = np.repeat(np.arange(len(first)), npts)
        k = np.arange(len(ent)) - np.repeat(np.cumsum(npts) - npts, npts)
        grid = t[first][ent] + k * freq_ns
        pack = rank_packer(t, grid)
        idx = np.searchsorted(pack(codes, t), pack(ent, grid), side="right") - 1
        return pd.DataFrame({
            by: df[by].to_numpy()[first][ent],
            "grid_ts": grid.view("datetime64[ns]"),
            out_value: df[value].to_numpy()[idx],
        })

    return partitioned_apply(ds, by, fn, num_partitions)


def hopping_window_agg(ds, *, by: str, order: str, value: str, width: pd.Timedelta,
                       hop: pd.Timedelta, origin: pd.Timestamp,
                       aggs: tuple[str, ...] = ("count", "sum"),
                       num_partitions: int = DEFAULT_PARTITIONS):
    """Hopping (sliding, overlapping) event-time windows per entity:
    width ``width``, advancing every ``hop`` (``width = m × hop``
    required). Each row is REPLICATED to its m covering windows with a
    vectorized projection — rows expand ×m before the same grouped
    aggregate tumbling uses, so the shuffle grows by the overlap
    factor, never the driver. SQL equivalent: GROUP BY time_bucket
    minus i·hop over an unnested hop index.
    """
    width_us = int(width.total_seconds() * 1_000_000)
    hop_us = int(hop.total_seconds() * 1_000_000)
    if width_us % hop_us:
        raise ValueError("width must be an integer multiple of hop")
    m = width_us // hop_us
    origin64 = pd.Timestamp(origin).to_datetime64()

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        off = (df[order].to_numpy() - origin64).astype("timedelta64[us]").astype("int64")
        base = (off // hop_us) * hop_us  # latest covering window start
        frames = []
        for i in range(m):
            w = df[[by, value]].copy()
            w["window_start"] = pd.Series(
                origin64 + (base - i * hop_us).astype("timedelta64[us]"),
                index=df.index)
            frames.append(w)
        allw = pd.concat(frames, ignore_index=True)
        g = allw.groupby([by, "window_start"], as_index=False)
        out = g.agg(n_rows=(value, "size"), sum_v=(value, "sum"), mean_v=(value, "mean"))
        keep = ["n_rows"] if "count" in aggs else []
        if "sum" in aggs:
            keep.append("sum_v")
        if "mean" in aggs:
            keep.append("mean_v")
        return out[[by, "window_start"] + keep]

    return partitioned_apply(ds, by, fn, num_partitions)


def window_ranks(ds, *, by: str, order: str, tiebreak: str,
                 num_partitions: int = DEFAULT_PARTITIONS):
    """The SQL rank-function family per entity partition: RANK,
    DENSE_RANK, ROW_NUMBER, CUME_DIST, PERCENT_RANK ordered by
    ``order`` (ROW_NUMBER additionally tie-broken by ``tiebreak`` so it
    is total-order deterministic).  One hash shuffle on the entity key;
    inside a partition everything is vectorized ``groupby.rank`` /
    ``cumcount`` — ties share RANK/DENSE_RANK exactly like the SQL
    window semantics the oracle runs.  PERCENT_RANK of a single-row
    partition is 0 (the SQL definition's 0/0 case)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([by, order, tiebreak], kind="mergesort")
        g = df.groupby(by, sort=False)[order]
        rnk = g.rank(method="min").astype("int64")
        n = g.transform("size").astype("int64")
        df = df.copy()
        df["rnk"] = rnk
        df["drnk"] = g.rank(method="dense").astype("int64")
        df["rn"] = df.groupby(by, sort=False).cumcount() + 1
        df["cd"] = g.rank(method="max") / n
        df["pr"] = np.where(n > 1, (rnk - 1) / np.maximum(n - 1, 1), 0.0)
        return df

    return partitioned_apply(ds, by, fn, num_partitions)


def top_n_per_group(ds, *, by: str, order_cols: list[str], ascending: list[bool],
                    n: int, num_partitions: int = DEFAULT_PARTITIONS):
    """Deterministic top-n rows per entity (SQL ROW_NUMBER ≤ n): one
    hash shuffle on the entity key, then a vectorized partition-local
    sort + ``groupby.head`` — never a global sort, never a driver
    collect. ``order_cols``/``ascending`` must pin total order
    (include a tiebreak column)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(order_cols, ascending=ascending, kind="mergesort")
                  .groupby(by, sort=False).head(n))

    return partitioned_apply(ds, by, fn, num_partitions)


def ntile(ds, *, by: str, order: str, tiebreak: str, n: int,
          out_col: str = "tile", num_partitions: int = DEFAULT_PARTITIONS):
    """SQL ``NTILE(n)`` per entity partition with a pinned total order
    (``order`` then ``tiebreak``): the first ``count % n`` tiles get
    ``count // n + 1`` rows, the rest ``count // n`` — bit-for-bit the
    SQL remainder-to-leading-tiles rule. One hash shuffle on the
    entity key; inside a partition the tile assignment is pure numpy
    arithmetic on the row number (no loops, no quantile estimation).
    """

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([by, order, tiebreak], kind="mergesort").copy()
        rn0 = df.groupby(by, sort=False).cumcount().to_numpy()
        c = df.groupby(by, sort=False)[order].transform("size").to_numpy()
        small = c // n
        n_large = c % n
        boundary = n_large * (small + 1)
        in_large = rn0 < boundary
        small_safe = np.maximum(small, 1)
        df[out_col] = np.where(
            in_large,
            rn0 // (small + 1) + 1,
            n_large + (rn0 - boundary) // small_safe + 1,
        ).astype(np.int64)
        return df

    return partitioned_apply(ds, by, fn, num_partitions)
