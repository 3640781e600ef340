"""Point-in-time (as-of) join — the heart of the north_rule engine.

``asof_join(left, right)`` attaches, to every left row, the latest
right row of the same entity with ``right_ts <= left_ts`` (backward;
``allow_exact_matches=False`` gives the strict ``<`` leakage-safe
variant — the zero-temporal-leakage invariant is simply this flag, and
tests assert every joined ``right_ts`` obeys the bound).

Two physical plans, chosen by ``broadcast``:

- **broadcast** (small right side): materialize + sort the right table
  once, ``ray.put`` it, and run a shuffle-free ``map_batches`` doing a
  per-batch sorted ``pd.merge_asof`` against the shared copy. The
  object-store reference is fetched zero-copy per task — the small
  side is shipped once per node, not per batch.
- **shuffle** (both sides large): tag each side, align schemas with
  typed Arrow nulls, union, hash-partition on the entity key
  (``partitioned_apply``'s key), sort on it, and run one sorted
  ``merge_asof`` per sorted block. One all-to-all exchange; a block
  holds whole partitions and partitions are entity-disjoint, so the
  merge is local and exact.

Skew (hot ``phash``-style keys, north_rule): ``salt`` splits each hot
key's LEFT rows across ``salt`` sub-partitions and replicates the hot
key's RIGHT rows into every sub-partition — replication of the build
side preserves exact as-of semantics while fanning the probe side out.
Several sub-partitions of one key can share a block, so the merge keys
on ``(by, __part)``: each replica of the right side answers only the
left rows of its own sub-partition.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from .core import (DEFAULT_PARTITIONS, PART_COL, SIDE_COL, add_partition_column,
                   block_apply, restore_int_dtypes, union_sides)

BROADCAST_MAX_BYTES = 64 << 20  # right sides under this go via ray.put


def _arrow_schema(ds) -> pa.Schema:
    s = ds.schema()
    if s is None:
        raise ValueError(
            "dataset has no resolvable schema — Ray reports None for empty "
            "datasets, so an asof_join side must contain at least one row "
            "(join with an empty side is degenerate: filter it out upstream "
            "or skip the join)"
        )
    try:
        return pa.schema(list(zip(s.names, s.types)))
    except TypeError:
        # pandas-backed datasets report object columns as Python classes;
        # fall back to one real Arrow batch (1 row) for the true schema.
        tbl = next(iter(ds.limit(1).iter_batches(batch_size=1, batch_format="pyarrow")))
        return tbl.schema


def _rename(ds, mapping: dict):
    """Portable rename: Dataset.rename_columns assumes Arrow blocks and
    breaks on pandas-backed datasets; a pyarrow map_batches works for both."""

    def fn(t: pa.Table) -> pa.Table:
        return t.rename_columns([mapping.get(n, n) for n in t.column_names])

    return ds.map_batches(fn, batch_format="pyarrow")


def asof_join(
    left,
    right,
    *,
    on: str,
    by: str,
    right_on: str | None = None,
    right_by: str | None = None,
    allow_exact_matches: bool = True,
    direction: str = "backward",
    tolerance=None,
    suffix: str = "_r",
    num_partitions: int = DEFAULT_PARTITIONS,
    broadcast: bool | str = False,
    hot_keys: list | None = None,
    salt: int = 8,
):
    """Returns left's rows + right's value columns + ``{on}{suffix}``
    (the matched right timestamp, null when no match)."""
    right_on = right_on or on
    right_by = right_by or by
    ron = on + suffix

    rename = {}
    if right_by != by:
        rename[right_by] = by
    if right_on != ron:
        rename[right_on] = ron
    if rename:
        right = _rename(right, rename)

    left_schema = _arrow_schema(left)
    right_schema = _arrow_schema(right)
    for name, schema, side in ((on, left_schema, "left"), (by, left_schema, "left"),
                               (ron, right_schema, "right"), (by, right_schema, "right")):
        if name not in schema.names:
            raise ValueError(
                f"asof_join: column {name!r} not in the {side} schema "
                f"{schema.names} (pass right_on=/right_by= for differently "
                "named right-side columns)"
            )
    value_cols = [n for n in right_schema.names if n not in (by, ron)]
    clashes = [c for c in value_cols if c in left_schema.names]
    if clashes:
        right = _rename(right, {c: c + suffix for c in clashes})
        right_schema = _arrow_schema(right)
        value_cols = [n for n in right_schema.names if n not in (by, ron)]

    if broadcast == "auto":
        # plan selection from metadata only: broadcast when the right
        # side is ALREADY MATERIALIZED and comfortably single-node
        # (size_bytes on a lazy lineage would trigger an execution just
        # to pick a plan); anything lazy or big takes the shuffle plan,
        # which is always correct.
        from ray.data.dataset import MaterializedDataset

        nbytes = (right.size_bytes()
                  if isinstance(right, MaterializedDataset) else None)
        broadcast = nbytes is not None and nbytes <= BROADCAST_MAX_BYTES
    if broadcast:
        return _asof_broadcast(left, right, on, by, ron, value_cols,
                               allow_exact_matches, direction, tolerance)
    return _asof_shuffle(left, right, left_schema, right_schema, on, by, ron,
                         value_cols, allow_exact_matches, direction, tolerance,
                         num_partitions, hot_keys, salt)


def _asof_broadcast(left, right, on, by, ron, value_cols, allow_exact, direction, tolerance):
    import ray

    rdf = right.to_pandas().sort_values(ron, kind="mergesort").reset_index(drop=True)
    ref = ray.put(rdf)

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(ref)
        if r[ron].dtype != batch[on].dtype:  # unify mixed timestamp units
            r = r.assign(**{ron: r[ron].astype(batch[on].dtype)})
        b = batch.sort_values(on, kind="mergesort")
        return pd.merge_asof(
            b, r, left_on=on, right_on=ron, by=by,
            allow_exact_matches=allow_exact, direction=direction, tolerance=tolerance,
        )

    return left.map_batches(probe, batch_format="pandas")


def _asof_shuffle(left, right, left_schema, right_schema, on, by, ron, value_cols,
                  allow_exact, direction, tolerance, num_partitions, hot_keys, salt):
    # the matched-timestamp column adopts the LEFT side's `on` type so
    # mixed timestamp units (s vs ns) can't poison the partition merge
    unified = pa.schema(
        list(left_schema)
        + [pa.field(ron, left_schema.field(on).type)]
        + [right_schema.field(c) for c in value_cols]
    )
    tagged = add_partition_column(union_sides(left, right, unified), by,
                                  num_partitions, hot_keys, salt)
    lcols = list(left_schema.names) + [PART_COL]  # `on` is a left column
    rcols = [by, PART_COL, ron] + value_cols
    int_like = {
        f.name: str(f.type)
        for f in left_schema
        if pa.types.is_integer(f.type)
    }

    def merge(block: pd.DataFrame) -> pd.DataFrame:
        side = block[SIDE_COL].to_numpy()
        l = block.loc[side == 0, lcols].sort_values(on, kind="mergesort")
        r = block.loc[side == 1, rcols].sort_values(ron, kind="mergesort")
        out = pd.merge_asof(
            l, r, left_on=on, right_on=ron, by=[by, PART_COL],
            allow_exact_matches=allow_exact, direction=direction, tolerance=tolerance,
        )
        # union-with-nulls upcast int64→float64 in pandas; restore exact
        # dtypes (nullable-safe: a left int column may itself hold nulls).
        return restore_int_dtypes(out.drop(columns=[PART_COL]), int_like)

    return block_apply(tagged, merge)
