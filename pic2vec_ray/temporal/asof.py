"""Point-in-time (as-of) join — the heart of the north_rule engine.

``asof_join(left, right)`` attaches, to every left row, the latest
right row of the same entity with ``right_ts <= left_ts`` (backward;
``allow_exact_matches=False`` gives the strict ``<`` leakage-safe
variant — the zero-temporal-leakage invariant is simply this flag, and
tests assert every joined ``right_ts`` obeys the bound).

Two physical plans, chosen by ``broadcast``, share one Arrow kernel
(``_merge``): ``pd.merge_asof`` runs on a narrow frame of the key
columns, the times and a row index, and every output column is then an
Arrow ``take``. No value column goes through pandas.

- **broadcast** (small right side): sort the right side once as an
  Arrow table and ``ray.put`` it; a shuffle-free ``map_batches``
  probes it. Each worker fetches it zero-copy and builds its key frame
  once, not per batch.
- **shuffle** (both sides large): each side is aligned to one Arrow
  schema (typed nulls for the other side's columns) and hash-tagged on
  the entity key in its own fused map (``core.tag_sides``); the union
  is sorted on fixed ranges of ``__part`` and merged once per sorted
  block. One all-to-all exchange; a block holds whole partitions and
  partitions are entity-disjoint, so the merge is local and exact.

Each call logs its plan once: ``plan=broadcast right_rows=…`` or
``plan=shuffle partitions=… ranges=… hot_keys=…``.

A ``fixed_size_list`` value column (an embedding) leaves as ``list``
in both plans, and in the shuffle it is widened before the exchange, so
a left row carries a zero-length null instead of a vector of zeros. A
left row without a match gets a zero-length null too: pyarrow 16.1's
parquet writer rejects a ``fixed_size_list`` (or its cast to ``list``)
with a null before a non-null slot ("Lists with non-zero length null
components"), and Ray's ``TensorArray`` cast fails on it as well.

Skew (hot ``phash``-style keys, north_rule): ``salt`` (clamped to
``P``) spreads each hot key's LEFT rows round-robin over ``salt``
partitions, ``(p + s·(P // salt)) mod P`` for the key's own partition
``p``, and replicates the hot key's RIGHT rows into every one of them —
replication of the build side preserves exact as-of semantics while
fanning the probe side out over as many sorted ranges. Those partitions
hold other keys too, and several can share a block, so the merge keys
on ``(by, __part)``: each replica of the right side answers only the
left rows of its own partition.
"""

from __future__ import annotations

import functools
import logging

import numpy as np
import pandas as pd
import pyarrow as pa

from .core import (DEFAULT_PARTITIONS, PART_COL, SIDE_COL, arrow_schema, block_apply,
                   mark_nullable_ints, rename_columns, small_materialized, sort_ranges,
                   tag_sides)

log = logging.getLogger(__name__)


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

    rename = {k: v for k, v in ((right_by, by), (right_on, ron)) if k != v}
    if rename:
        right = rename_columns(right, rename)

    left_schema = arrow_schema(left)
    right_schema = arrow_schema(right)
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
        right = rename_columns(right, {c: c + suffix for c in clashes})
        right_schema = arrow_schema(right)
        value_cols = [n for n in right_schema.names if n not in (by, ron)]

    if broadcast == "auto":
        broadcast = small_materialized(right)
    asof = dict(left_on=on, right_on=ron, allow_exact_matches=allow_exact_matches,
                direction=direction, tolerance=tolerance)
    if broadcast:
        return _asof_broadcast(left, right, left_schema, on, by, ron, asof)
    return _asof_shuffle(left, right, left_schema, right_schema, on, by, ron,
                         value_cols, asof, num_partitions, hot_keys, salt)


def _widen(t: pa.DataType) -> pa.DataType:
    """``fixed_size_list`` -> ``list``, whose null slot has zero length."""
    return pa.list_(t.value_field) if pa.types.is_fixed_size_list(t) else t


def _keys(table: pa.Table, cols: list[str], row: str, rows: np.ndarray) -> pd.DataFrame:
    """The narrow frame ``merge_asof`` runs on: ``cols`` of ``table``'s
    ``rows`` and, in ``row``, each one's index into ``table``."""
    df = table.select(cols).take(rows).to_pandas()
    df[row] = rows
    return df


def _merge(left: pa.Table, lrows, right: pa.Table, rkeys: pd.DataFrame,
           by: list[str], out: pa.Schema, rcols: list[str], asof: dict) -> pa.Table:
    """The as-of kernel of both plans. ``pd.merge_asof`` pairs ``left``'s
    ``lrows`` with ``rkeys`` (``_keys`` of ``right``, sorted on its
    time); no value column enters pandas. The output takes ``left`` in
    merge order and each of ``right``'s ``rcols`` with a null index for
    a row without a match."""
    if not len(lrows):
        return out.empty_table()
    on = asof["left_on"]
    lkeys = _keys(left, by + [on], "__lrow", lrows).sort_values(on, kind="mergesort")
    m = pd.merge_asof(lkeys, rkeys, by=by, **asof)
    hit = pa.array(m["__rrow"].astype("Int64"))  # null where no right row matched
    lorder = m["__lrow"].to_numpy()
    lnames = out.names[:len(out) - len(rcols)]
    cols = [left[c].take(lorder) for c in lnames] + [right[c].take(hit) for c in rcols]
    return mark_nullable_ints(pa.Table.from_arrays(cols, names=out.names), lnames)


@functools.lru_cache(maxsize=1)
def _broadcast_side(ref, by: str, ron: str):
    """A broadcast right side and its key frame, built once per worker
    process, not per batch (``maxsize=1``: only the latest is kept)."""
    import ray

    table = ray.get(ref)
    return table, _keys(table, [by, ron], "__rrow", np.arange(len(table)))


def _asof_broadcast(left, right, left_schema, on, by, ron, asof):
    import ray

    rt = pa.concat_tables(ray.get(right.to_arrow_refs()), promote_options="permissive")
    # the matched time adopts the left `on` type (mixed s/ns units)
    rt = rt.cast(pa.schema([pa.field(ron, left_schema.field(on).type) if f.name == ron
                            else pa.field(f.name, _widen(f.type)) for f in rt.schema]))
    log.info("asof_join plan=broadcast right_rows=%d", len(rt))
    ref = ray.put(rt.sort_by(ron))
    rcols = [c for c in rt.column_names if c != by]
    out = pa.schema(list(left_schema) + [rt.schema.field(c) for c in rcols])

    def probe(batch: pa.Table) -> pa.Table:
        table, rkeys = _broadcast_side(ref, by, ron)
        return _merge(batch, np.arange(len(batch)), table, rkeys, [by], out, rcols, asof)

    return left.map_batches(probe, batch_format="pyarrow")


def _asof_shuffle(left, right, left_schema, right_schema, on, by, ron, value_cols,
                  asof, num_partitions, hot_keys, salt):
    # left rows carry each value column as a null: widened, that null is
    # zero-length through align, tag, sort and merge
    out = pa.schema(list(left_schema) + [pa.field(ron, left_schema.field(on).type)]
                    + [pa.field(c, _widen(right_schema.field(c).type)) for c in value_cols])
    log.info("asof_join plan=shuffle partitions=%d ranges=%d hot_keys=%d",
             num_partitions, sort_ranges(num_partitions), len(hot_keys or ()))
    tagged = tag_sides(left, right, out, by, num_partitions, hot_keys, salt)
    keys = [by, PART_COL]

    def merge(block: pa.Table) -> pa.Table:
        side = block[SIDE_COL].to_numpy()
        rkeys = _keys(block, keys + [ron], "__rrow", np.flatnonzero(side == 1))
        return _merge(block, np.flatnonzero(side == 0), block,
                      rkeys.sort_values(ron, kind="mergesort"), keys, out,
                      [ron] + value_cols, asof)

    return block_apply(tagged, merge, num_partitions, batch_format="pyarrow")
