"""Entity partitioning primitives for the temporal layer (SURVEY.md §2.4/§2.5).

Every wide temporal operation here uses ONE partitioning key reused
across stages: ``__part = stable_hash(entity_key) % P``. One sort on
``__part`` co-locates all rows of an entity in one block; a kernel then
runs once per sorted block in vectorized pandas/numpy (never a Python
loop over rows or entities), over every whole partition in that block.
``P`` bounds per-partition memory: at 100 TB, pick P so the largest
partition (all rows of ~1/P of entities, both join sides) fits a
worker's heap — P scales with the cluster, not hard-coded.

The one-sided exchange (``partitioned_apply``) has two physical plans,
picked by ``small_known_size`` from metadata alone, never by executing
its input:

- **local**: the input's rows and bytes are known without running it
  (a ``MaterializedDataset``, or a bare ``read_parquet`` whose footers
  give both) and the bytes are at most ``BROADCAST_MAX_BYTES``. The
  kernel runs once over every row in one task — no tag, no sort. Every
  kernel already takes several whole partitions per call, so this is
  the ``P = 1`` case of the same kernel.
- **shuffle**: anything else, including every lazy ``map_batches``
  output: tag ``__part``, sort, one kernel call per sorted block.

``pd.util.hash_pandas_object`` is the hash: deterministic across
processes (fixed-key siphash), vectorized, available on workers.
"""

from __future__ import annotations

import json
import logging
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

DEFAULT_PARTITIONS = 64
PART_COL = "__part"
SIDE_COL = "__side"  # 0 = left (probe) row, 1 = right (build) row
BROADCAST_MAX_BYTES = 64 << 20  # broadcast right sides and local-plan inputs


def arrow_schema(ds) -> pa.Schema:
    s = ds.schema()
    if s is None:
        raise ValueError(
            "dataset has no resolvable schema — Ray reports None for empty "
            "datasets, so each side of a join must contain at least one row "
            "(a join with an empty side is degenerate: filter it out upstream "
            "or skip the join)"
        )
    try:
        return pa.schema(list(zip(s.names, s.types)))
    except TypeError:
        # pandas-backed datasets report object columns as Python classes;
        # fall back to one real Arrow batch (1 row) for the true schema.
        tbl = next(iter(ds.limit(1).iter_batches(batch_size=1, batch_format="pyarrow")))
        return tbl.schema


def rename_columns(ds, mapping: dict):
    """Portable rename: Dataset.rename_columns assumes Arrow blocks and
    breaks on pandas-backed datasets; a pyarrow map_batches works for both."""

    def fn(t: pa.Table) -> pa.Table:
        return t.rename_columns([mapping.get(n, n) for n in t.column_names])

    return ds.map_batches(fn, batch_format="pyarrow")


def _footer_bytes(files: list[str]) -> int | None:
    """Uncompressed row-group bytes from the parquet footers of
    ``files``, read until the sum passes ``BROADCAST_MAX_BYTES``; None
    when there is no file or one is not a readable parquet file."""
    if not files:
        return None
    total = 0
    try:
        for f in files:
            md = pq.read_metadata(f)
            total += sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
            if total > BROADCAST_MAX_BYTES:
                break
    except (OSError, pa.ArrowException):
        return None
    return total


def small_known_size(ds) -> tuple[int, int] | None:
    """``(rows, bytes)`` of ``ds`` when both are known from metadata
    alone and the bytes are at most ``BROADCAST_MAX_BYTES``; else None.

    Nothing executes: rows come from Ray's metadata-only count
    (``Dataset._meta_count``: the blocks of a materialized dataset, or
    the footers of a bare read), bytes from the block metadata of a
    ``MaterializedDataset`` or the footers of the read's parquet files
    (an upper bound after a ``limit`` or a column projection). A lazy
    ``map_batches`` output has no metadata row count, so it is None."""
    from ray.data.dataset import MaterializedDataset

    rows = ds._meta_count()
    if rows is None:
        return None
    nbytes = (ds.size_bytes() if isinstance(ds, MaterializedDataset)
              else _footer_bytes(ds.input_files()))
    if nbytes is None or nbytes > BROADCAST_MAX_BYTES:
        return None
    return rows, nbytes


def small_materialized(right) -> bool:
    """The ``broadcast="auto"`` rule of the joins: broadcast when the
    right side is ALREADY MATERIALIZED and ``small_known_size`` (a lazy
    right side takes the shuffle plan, which is always correct)."""
    from ray.data.dataset import MaterializedDataset

    return isinstance(right, MaterializedDataset) and small_known_size(right) is not None


def hash_partition_ids(df: pd.DataFrame, by: str | list[str], num_partitions: int) -> pd.Series:
    cols = [by] if isinstance(by, str) else list(by)
    h = pd.util.hash_pandas_object(df[cols] if len(cols) > 1 else df[cols[0]], index=False)
    return (h % num_partitions).astype("int64")


def add_partition_column(ds, by: str | list[str], num_partitions: int = DEFAULT_PARTITIONS,
                         hot_keys: list | None = None, salt: int = 8):
    """Append ``__part`` from the key column(s) only — Arrow in/out, so
    the non-key columns are never converted to pandas just to hash.

    ``hot_keys`` salts skewed keys for a two-sided exchange whose rows
    carry ``SIDE_COL``: partition ``p`` becomes the ``salt``
    sub-partitions ``p·salt + s``. A hot key's LEFT rows are spread
    round-robin over them and its RIGHT rows are replicated into every
    one (``Table.take``), so each left row still meets the key's whole
    right side exactly once. Cold rows keep sub-partition 0."""
    cols = [by] if isinstance(by, str) else list(by)
    hot = list(hot_keys) if hot_keys else None
    if hot and len(cols) != 1:
        raise ValueError("hot-key salting supports single-key exchanges only")

    def tag(batch: pa.Table) -> pa.Table:
        key = batch.select(cols).to_pandas()
        part = hash_partition_ids(key, cols, num_partitions).to_numpy()
        if not hot:
            return batch.append_column(PART_COL, pa.array(part))
        is_hot = key[cols[0]].isin(hot).to_numpy()
        right = batch[SIDE_COL].to_numpy() == 1
        cold = np.flatnonzero(~is_hot)
        hleft = np.flatnonzero(is_hot & ~right)
        hright = np.flatnonzero(is_hot & right)
        take = np.concatenate([cold, hleft, np.tile(hright, salt)])
        sub = np.concatenate([
            np.zeros(len(cold), dtype=np.int64),
            np.arange(len(hleft), dtype=np.int64) % salt,
            np.repeat(np.arange(salt, dtype=np.int64), len(hright)),
        ])
        return batch.take(take).append_column(
            PART_COL, pa.array(part[take] * salt + sub))

    return ds.map_batches(tag, batch_format="pyarrow")


def union_sides(left, right, unified: pa.Schema):
    """Cast both sides to one Arrow schema (typed nulls for the other
    side's columns), tag each row's ``SIDE_COL`` and union them — the
    front half of every two-sided exchange."""
    names = unified.names

    def align(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = len(batch)
            cols = [
                batch[f.name].cast(f.type) if f.name in batch.column_names
                else pa.nulls(n, f.type)
                for f in unified
            ]
            out = pa.table(cols, names=names)
            return out.append_column(SIDE_COL, pa.array(np.full(n, side, dtype=np.int8)))

        return fn

    return left.map_batches(align(0), batch_format="pyarrow").union(
        right.map_batches(align(1), batch_format="pyarrow"))


def block_apply(tagged, fn: Callable, batch_format: str = "pandas"):
    """Sort a ``__part``-tagged dataset and run ``fn`` once per sorted
    block, given as a ``batch_format`` batch. A ``__part`` value never
    spans two sort output blocks (Ray's own ``map_groups`` relies on
    this), so ``fn`` sees every row of each partition it is given — but
    it may be given several partitions at once, and must key its work on
    the entity (or on ``__part`` itself, where salted sub-partitions of
    one entity must stay apart). One call per block, not one per
    partition. Ray passes a block without rows on without calling
    ``fn``, as a block without columns."""
    return tagged.sort(PART_COL).map_batches(fn, batch_size=None, batch_format=batch_format)


def as_i8(values) -> np.ndarray:
    """Datetimes as int64 nanoseconds, numbers unchanged. Normalizing to
    ONE unit before comparing as ints matters: parquet columns are
    typically datetime64[us] while ``ts + Timedelta`` promotes to [ns] —
    mixed units viewed as i8 silently compare across scales. ns bounds
    the representable range to years 1677-2262, plenty for event data
    and lossless for coarser units."""
    v = np.asarray(values)
    if v.dtype.kind == "M":
        return v.astype("datetime64[ns]").view("i8")
    return v


def rank_packer(*domains: np.ndarray):
    """Return ``pack(codes, values)``: one sortable int64 per (entity
    code, value) pair, ordered by code and then value. Values are
    rank-encoded over the union of ``domains`` — ranks are
    order-isomorphic, so with every probed value a member of a domain,
    ``>=``/``<``/``<=`` bounds translate exactly — and the packed key
    cannot overflow the way ``code · 2^k + value`` would. One
    ``searchsorted`` over packed keys then finds per-entity frame bounds
    for every row of a block at once."""
    uniq = np.unique(np.concatenate(domains))
    span = np.int64(len(uniq) + 1)

    def pack(codes: np.ndarray, values: np.ndarray) -> np.ndarray:
        return codes.astype(np.int64) * span + np.searchsorted(uniq, values)

    return pack


_NULLABLE_INT = {
    "int8": "Int8", "int16": "Int16", "int32": "Int32", "int64": "Int64",
    "uint8": "UInt8", "uint16": "UInt16", "uint32": "UInt32", "uint64": "UInt64",
}


def restore_int_dtypes(df: pd.DataFrame, int_like: dict[str, str],
                       force_nullable: bool = False) -> pd.DataFrame:
    """Undo pandas' int→float64 upcast after a union/merge with nulls.

    Columns that came out null-free are cast straight back to their
    numpy dtype; columns that legitimately contain nulls (nullable ints
    are common in parquet) go to the pandas nullable extension dtype
    instead — a hard ``astype('int64')`` on NaN raises and would crash
    the join.

    ``force_nullable`` casts every listed column to the nullable
    extension dtype regardless of this block's null content. Use it
    whenever a PARTITIONED operator can null the column in only SOME
    buckets (e.g. full-outer join): deciding per bucket would make the
    block dtype data-dependent, and Ray unifying int64 blocks with
    Int64 blocks fails nondeterministically downstream.
    """
    for c, t in int_like.items():
        if c not in df.columns:
            continue
        if force_nullable or df[c].isna().any():
            df[c] = df[c].astype(_NULLABLE_INT.get(t, "Int64"))
        else:
            df[c] = df[c].astype(t)
    return df


def mark_nullable_ints(table: pa.Table, names: list[str]) -> pa.Table:
    """The Arrow form of ``restore_int_dtypes``: name each int column of
    ``names`` that holds a null in this table with pandas' nullable
    dtype in the table's pandas metadata, so that ``to_pandas()`` gives
    ``Int64`` with exact values instead of float64. Arrow types and
    values are unchanged."""
    cols = []
    for n in names:
        t = table.schema.field(n).type
        if pa.types.is_integer(t) and table[n].null_count:
            cols.append({"name": n, "field_name": n, "pandas_type": str(t),
                         "numpy_type": _NULLABLE_INT.get(str(t), "Int64"), "metadata": None})
    if not cols:
        return table
    meta = {"index_columns": [], "column_indexes": [], "columns": cols}
    return table.replace_schema_metadata({"pandas": json.dumps(meta)})


def suggest_partitions(inputs, num_cpus: int | None = None,
                       target_bytes: int = 64 << 20,
                       lo: int = 8, hi: int = 4096) -> int:
    """Size a shuffle's partition count from the INPUT, not a constant.

    ``inputs``: paths (files or parquet directories) and/or plain byte
    counts. The count is ``max(2 × cluster CPUs, bytes / 64 MiB)``
    clamped to [lo, hi]: enough partitions that every core gets work
    and the largest partition stays well under a worker's heap — the
    same formula holds on a 256-node cluster because both terms scale
    with the deployment, none is hard-coded.
    """
    import os

    if num_cpus is None:
        try:
            import ray

            num_cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
        except Exception:
            num_cpus = 4
    total = 0
    for item in inputs if isinstance(inputs, (list, tuple)) else [inputs]:
        if isinstance(item, int):
            total += item
        elif os.path.isdir(item):
            for f in os.listdir(item):
                if f.endswith(".parquet"):
                    total += os.path.getsize(os.path.join(item, f))
        elif os.path.exists(item):
            total += os.path.getsize(item)
    return int(min(hi, max(lo, 2 * num_cpus, total // target_bytes)))


def partitioned_apply(
    ds,
    by: str | list[str],
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    num_partitions: int = DEFAULT_PARTITIONS,
):
    """Run ``fn`` over whole entities of ``ds``, keyed by ``by``.

    ``fn`` receives every row of each entity it sees, but may receive
    several entities at once, or an empty frame: it must handle multiple
    entities (vectorized ``df.groupby``). Two plans (module docstring),
    chosen by ``small_known_size`` from metadata only:

    - **local**: a small input of known size runs ``fn`` ONCE over all
      of its rows, in one task — no ``__part`` tag and no sort;
    - **shuffle**: any other input is hash-partitioned on ``by`` into
      ``num_partitions`` partitions, sorted on ``__part``, and ``fn``
      runs once per sorted block. ``num_partitions`` applies to this
      plan only.

    The plan is logged once per call.
    """
    log = logging.getLogger(__name__)
    small = small_known_size(ds)
    if small is not None:
        rows, nbytes = small
        log.info("partitioned_apply plan=local rows=%d bytes=%d", rows, nbytes)
        return ds.map_batches(fn, batch_size=max(rows, 1), batch_format="pandas")
    log.info("partitioned_apply plan=shuffle partitions=%d", num_partitions)
    tagged = add_partition_column(ds, by, num_partitions)

    def run(df: pd.DataFrame) -> pd.DataFrame:
        return fn(df.drop(columns=[PART_COL]))

    return block_apply(tagged, run)
