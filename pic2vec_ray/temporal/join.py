"""Partitioned hash join for two LARGE datasets (SURVEY.md §2.4).

Ray Data's portable large-large join pattern: align each side's schema
with typed Arrow nulls, tag its side and ``__part = hash(key) % P`` in
one fused map per side (``core.tag_sides``), union, sort once on fixed
ranges of ``__part``, and join matching sides inside each sorted block
with a vectorized pandas merge keyed on ``keys + [__part]``. One
all-to-all exchange; partitions are key-disjoint and never span two
blocks, so the merge is local and exact. Small sides should use a
broadcast lookup instead (see ``pipelines/queries.q2_top_customers``);
skewed keys use the same salt-and-replicate scheme as
``temporal.asof`` (salt the probe side, replicate the build side).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .core import (DEFAULT_PARTITIONS, PART_COL, SIDE_COL, arrow_schema, as_i8,
                   block_apply, rank_packer, rename_columns, restore_int_dtypes,
                   small_materialized, tag_sides)


def _union_tagged(left, right, keys: list[str], suffix: str, num_partitions: int,
                  hot_keys: list | None = None, salt: int = 8):
    """Shared co-shuffle front half of the bucketed joins: suffix right
    value columns that clash with left names, then ``core.tag_sides``:
    align each side to one Arrow schema (typed nulls for the other
    side's columns) and tag its side and ``__part`` from the keys in one
    fused map per side, and union. Returns the partition-tagged union,
    the left schema, the right value column names (post-suffix), and the
    int-typed columns of BOTH sides (the typed-null alignment turns every
    column float64 in pandas once the other side's rows are present —
    the merge must cast back).

    ``hot_keys`` (from ``temporal.skew.detect_hot_keys``) enables the
    same salting as ``temporal.asof``: ``salt`` is clamped to ``P``, and
    a hot key of partition ``p`` owns the partitions
    ``(p + s·(P // salt)) mod P``, ``s < salt``. Its LEFT rows spread
    round-robin over them and its RIGHT rows are replicated into all of
    them — every left row still sees the key's full right side exactly
    once, so left-anchored joins (inner/left/semi/anti, range) are exact
    while the hot key's work fans out ``salt``-wide. The spread
    assignment is arbitrary-but-deterministic per batch; any assignment
    yields the same result set. Those partitions hold other keys too and
    can share a sorted block, so every merge keys on ``__part`` as well
    as the join keys."""
    left_schema = arrow_schema(left)
    right_schema = arrow_schema(right)
    value_cols = [n for n in right_schema.names if n not in keys]
    clashes = [c for c in value_cols if c in left_schema.names]
    if clashes:
        right = rename_columns(right, {c: c + suffix for c in clashes})
        right_schema = arrow_schema(right)
        value_cols = [n for n in right_schema.names if n not in keys]

    unified = pa.schema(
        list(left_schema) + [right_schema.field(c) for c in value_cols]
    )
    both = tag_sides(left, right, unified, keys, num_partitions, hot_keys, salt)
    int_like = {f.name: str(f.type) for f in unified if pa.types.is_integer(f.type)}
    return both, left_schema, value_cols, int_like


def _hash_join_broadcast(left, right, keys: list[str], how: str, suffix: str):
    """Zero-shuffle plan for a small materialized right side: one
    ``ray.put`` of the (suffixed, null-key-dropped where the mode
    allows) right table, probed with the SAME merge semantics as the
    shuffle plan inside a stateless ``map_batches`` over the left."""
    import logging

    import ray

    left_schema = arrow_schema(left)
    rdf = right.to_pandas()
    clashes = [c for c in rdf.columns if c not in keys and c in left_schema.names]
    if clashes:
        rdf = rdf.rename(columns={c: c + suffix for c in clashes})
    value_cols = [c for c in rdf.columns if c not in keys]
    # SQL null semantics: a NULL key never matches (see the shuffle
    # plan's merge) — drop null-key right rows once, before the put.
    rdf = rdf.dropna(subset=keys).reset_index(drop=True)
    logging.getLogger(__name__).info(
        "hash_join plan=broadcast how=%s right_rows=%d", how, len(rdf))

    int_like = {f.name: str(f.type) for f in left_schema
                if pa.types.is_integer(f.type)}
    rschema = pa.Schema.from_pandas(rdf, preserve_index=False)
    for c in value_cols:
        t = rschema.field(c).type
        if pa.types.is_integer(t):
            int_like[c] = str(t)
    ref = ray.put(rdf)
    left_names = list(left_schema.names)

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(ref)
        if how in ("semi", "anti"):
            mask = batch.set_index(keys).index.isin(r.set_index(keys).index)
            return batch[mask] if how == "semi" else batch[~mask]
        out = batch.merge(r, on=keys, how=how)
        out = out.reindex(columns=left_names + value_cols)
        return restore_int_dtypes(out, int_like)

    return left.map_batches(probe, batch_format="pandas")


def hash_join(
    left,
    right,
    *,
    on: str | list[str],
    right_on: str | list[str] | None = None,
    how: str = "inner",
    suffix: str = "_r",
    num_partitions: int = DEFAULT_PARTITIONS,
    hot_keys: list | None = None,
    salt: int = 8,
    broadcast: bool | str = "auto",
):
    """Join two Datasets on equality keys.
    ``how``: inner/left/right/outer/semi/anti.

    inner/left/right/outer output: left columns + right's non-key
    columns (clashes suffixed); unmatched rows carry typed nulls for
    the other side, and an unmatched RIGHT row's key values fill the
    (left-named) key columns, SQL ``COALESCE(l.k, r.k)`` style.
    semi/anti output: left columns only — left rows with at least
    one / no key match on the right (the reference's CSV⋉directory
    membership shape, §2.4, as a true distributed join instead of a
    broadcast membership set).

    Per-bucket merges compose exactly for every mode because hash
    co-partitioning is key-disjoint: a row unmatched in its bucket is
    unmatched globally.

    ``hot_keys``/``salt`` (see ``temporal.skew.detect_hot_keys``) fan a
    hot key's left rows across ``salt`` partitions with the right side
    replicated — exact for the LEFT-anchored modes (inner/left/semi/
    anti). right/outer reject salting: a replicated unmatched right row
    would be emitted once per replica.

    ``broadcast``: ``"auto"`` (default) takes the zero-shuffle
    broadcast plan — ``ray.put`` the right side once, probe it inside
    a stateless ``map_batches`` over the left — when the right side is
    ALREADY MATERIALIZED and small (same metadata-only test as
    ``asof_join``: no execution is triggered just to pick a plan) and
    the mode is left-anchored (inner/left/semi/anti; right/outer must
    see unmatched right rows exactly once, which only the co-shuffle
    guarantees). ``True`` forces it (raises for right/outer), ``False``
    forces the shuffle plan. Both plans produce identical rows — pinned
    by ``tests/test_round4_ops.py``.
    """
    if how not in ("inner", "left", "right", "outer", "semi", "anti"):
        raise ValueError(
            "how must be 'inner', 'left', 'right', 'outer', 'semi' or 'anti'")
    if hot_keys and how in ("right", "outer"):
        raise ValueError("hot-key salting is exact only for left-anchored "
                         "modes (inner/left/semi/anti)")
    keys = [on] if isinstance(on, str) else list(on)
    rkeys = [right_on] if isinstance(right_on, str) else list(right_on or keys)
    if len(keys) != len(rkeys):
        raise ValueError("on/right_on arity mismatch")

    if broadcast == "auto":
        broadcast = how in ("inner", "left", "semi", "anti") and small_materialized(right)
    elif broadcast and how in ("right", "outer"):
        raise ValueError("broadcast join is exact only for left-anchored "
                         "modes (inner/left/semi/anti)")

    if rkeys != keys:
        right = rename_columns(right, dict(zip(rkeys, keys)))
    if broadcast:
        return _hash_join_broadcast(left, right, keys, how, suffix)

    both, left_schema, value_cols, int_like = _union_tagged(
        left, right, keys, suffix, num_partitions, hot_keys, salt)
    left_names = list(left_schema.names)

    lcols = left_names + [PART_COL]
    pkeys = keys + [PART_COL]
    out_cols = left_names if how in ("semi", "anti") else left_names + value_cols

    def merge(block: pd.DataFrame) -> pd.DataFrame:
        side = block[SIDE_COL].to_numpy()
        l = block.loc[side == 0, lcols]
        r = block.loc[side == 1, pkeys + value_cols]
        # SQL semantics: a NULL key never matches anything (pandas'
        # isin/merge treat NaN == NaN as a match) — merge only non-null
        # keys on both sides, then re-attach null-key rows as unmatched
        # where the mode preserves their side (left/outer keep null-key
        # left rows, right/outer keep null-key right rows; inner/semi
        # exclude them, anti keeps them, = EXISTS/NOT EXISTS in the
        # DuckDB oracle).
        rv = r.dropna(subset=keys)
        if how in ("semi", "anti"):
            mask = l.set_index(pkeys).index.isin(rv.set_index(pkeys).index)
            out = l[mask] if how == "semi" else l[~mask]
        elif how in ("right", "outer"):
            null_l = l[keys].isna().any(axis=1).to_numpy()
            parts = [l[~null_l].merge(rv, on=pkeys, how=how)]
            if how == "outer" and null_l.any():
                parts.append(l[null_l])
            null_r = r[keys].isna().any(axis=1).to_numpy()
            if null_r.any():
                parts.append(r[null_r])
            out = (pd.concat(parts, ignore_index=True)
                   if len(parts) > 1 else parts[0])
        else:
            out = l.merge(rv, on=pkeys, how=how)
        out = out.reindex(columns=out_cols)
        # right/outer can null ANY column (incl. keys, via preserved
        # null-key rows) in SOME buckets only — force nullable ints so
        # the block dtype is not data-dependent per bucket.
        return restore_int_dtypes(out, int_like,
                                  force_nullable=how in ("right", "outer"))

    return block_apply(both, merge, num_partitions)


def range_join(
    left,
    right,
    *,
    on: str | list[str],
    left_ts: str,
    right_ts: str,
    min_delta,
    max_delta,
    suffix: str = "_r",
    num_partitions: int = DEFAULT_PARTITIONS,
    hot_keys: list | None = None,
    salt: int = 8,
):
    """Interval (range) join: inner-join rows with equal ``on`` keys
    where ``left_ts + min_delta <= right_ts < left_ts + max_delta``
    (half-open, the event-attribution shape: every right event landing
    in a window anchored at the left row).

    Partitioning assumption (document per SURVEY §2.4): the equality
    key bounds the local work — all rows of one key meet in one bucket,
    so per-bucket cost is Σ |L_k|·|R_k| over that bucket's keys, NOT
    |L|·|R|. A range join with no equality key would need a band/
    interval partitioning scheme instead and is intentionally not
    offered. Hot keys salt the same way as ``temporal.asof``.

    ``min_delta``/``max_delta``: anything comparable after
    ``pd.to_timedelta`` for datetimes, or plain numbers for numeric
    axes. ``right_ts`` is suffixed if it clashes with a left column.
    """
    keys = [on] if isinstance(on, str) else list(on)
    both, left_schema, value_cols, int_like = _union_tagged(
        left, right, keys, suffix, num_partitions, hot_keys, salt)
    left_names = list(left_schema.names)
    rts = right_ts if right_ts in value_cols else right_ts + suffix
    if rts not in value_cols:
        raise ValueError(f"right_ts column {right_ts!r} not found on the right side")
    if left_ts not in left_names:
        raise ValueError(f"left_ts column {left_ts!r} not found on the left side")

    lcols = left_names + [PART_COL]
    pkeys = keys + [PART_COL]

    def merge(block: pd.DataFrame) -> pd.DataFrame:
        # Null semantics = SQL: a null key or null timestamp never
        # matches (inner join ⇒ dropping such rows on either side is
        # exact).
        side = block[SIDE_COL].to_numpy()
        l = block.loc[side == 0, lcols].dropna(subset=keys + [left_ts])
        r = block.loc[side == 1, pkeys + value_cols].dropna(subset=keys + [rts])

        def pairs(lidx: np.ndarray, ridx: np.ndarray) -> pd.DataFrame:
            out = pd.concat(
                [l[left_names].iloc[lidx].reset_index(drop=True),
                 r[value_cols].iloc[ridx].reset_index(drop=True)],
                axis=1,
            )
            return restore_int_dtypes(out, int_like)

        if len(l) == 0 or len(r) == 0:
            return pairs(np.array([], dtype=np.int64), np.array([], dtype=np.int64))

        # Never materialize the key-equijoin before the window filter
        # (a hot key × wide-span sides would blow per-bucket memory to
        # |L_k|·|R_k| rows): sort the right side by (key, ts) once,
        # binary-search each left row's half-open window bounds, and
        # gather exactly the surviving pairs. Peak memory = OUTPUT
        # size + the sorted index arrays. ``__part`` is part of the key:
        # salted partitions of one key may share this block.
        kcodes = pd.concat([l[pkeys], r[pkeys]]).groupby(pkeys, sort=False).ngroup().to_numpy()
        lc, rc = kcodes[: len(l)], kcodes[len(l):]

        lo = as_i8(l[left_ts] + min_delta)
        hi = as_i8(l[left_ts] + max_delta)
        rts_v = as_i8(r[rts])

        order = np.lexsort((rts_v, rc))
        rc_s, rts_s = rc[order], rts_v[order]
        pack = rank_packer(rts_s, lo, hi)
        comb = pack(rc_s, rts_s)
        starts = np.searchsorted(comb, pack(lc, lo))
        ends = np.searchsorted(comb, pack(lc, hi))
        counts = ends - starts
        total = int(counts.sum())
        lidx = np.repeat(np.arange(len(l)), counts)
        offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
        within = np.arange(total) - np.repeat(offsets, counts)
        ridx = order[np.repeat(starts, counts) + within]
        return pairs(lidx, ridx)

    return block_apply(both, merge, num_partitions)
