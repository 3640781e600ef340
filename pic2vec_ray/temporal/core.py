"""Entity partitioning primitives for the temporal layer (SURVEY.md §2.4/§2.5).

Every wide temporal operation here uses ONE partitioning key reused
across stages: ``__part = stable_hash(entity_key) % P``. One sort on
``__part`` co-locates all rows of an entity in one block; a kernel then
runs once per sorted block in vectorized pandas/numpy (never a Python
loop over rows or entities), over every whole partition in that block.

The domain ``[0, P)`` of ``__part`` is known before anything runs, so
the sort never samples: it splits ``[0, P)`` into
``R = min(P, 2 × cluster CPUs)`` ranges of equal width
(``sort_ranges``), and each sorted block holds the ``P / R`` partitions
of one range. So ``R``, not ``P``, bounds the memory of a kernel call:
a block holds about ``1/R`` of the entities (both join sides), and
``R`` grows with the cluster, not with the input — an input larger
than ``R`` worker heaps needs a larger ``R`` than this rule gives.
``P`` caps ``R`` and sets the grain of hot-key salting, which spreads
a hot key over partitions of ``[0, P)`` (``add_partition_column``).

A two-sided exchange (as-of, ``hash_join``, ``range_join``) aligns and
tags each side in its own fused map (``tag_sides``), unions the tagged
sides, and sorts them on those fixed ranges (``block_apply``).

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
                         hot_keys: list | None = None, salt: int = 8, side: int = 0):
    """Append ``__part = hash(by) % P`` from the key column(s) only —
    Arrow in/out, so the non-key columns are never converted to pandas
    just to hash.

    ``hot_keys`` salts skewed keys of one ``side`` of a two-sided
    exchange (``tag_sides``) into whole partitions of ``[0, P)``:
    ``salt`` is clamped to ``P``, and a hot key of partition ``p`` owns
    the ``salt`` partitions ``(p + s·(P // salt)) mod P``, ``s < salt``,
    so ``__part`` stays in ``[0, P)``. Its LEFT rows (``side=0``) are
    spread round-robin over them and its RIGHT rows (``side=1``) are
    replicated into every one (``Table.take``), so each left row still
    meets the key's whole right side exactly once. Cold rows keep ``p``.
    A salted partition holds cold keys too, so every merge keys on
    ``(key, __part)``."""
    cols = [by] if isinstance(by, str) else list(by)
    hot = list(hot_keys or ())
    if hot and len(cols) != 1:
        raise ValueError("hot-key salting supports single-key exchanges only")
    salt = min(salt, num_partitions)

    def tag(batch: pa.Table) -> pa.Table:
        key = batch.select(cols).to_pandas()
        part = hash_partition_ids(key, cols, num_partitions).to_numpy()
        is_hot = key[cols[0]].isin(hot).to_numpy()
        if is_hot.any():  # a hot right row once per salt value, hot left rows round-robin
            rows = np.repeat(np.arange(len(part)), np.where(is_hot, salt if side else 1, 1))
            s = np.where(is_hot[rows], np.cumsum(is_hot[rows]) - 1, 0) % salt
            part = (part[rows] + s * (num_partitions // salt)) % num_partitions
            batch = batch.take(rows) if side else batch
        return batch.append_column(PART_COL, pa.array(part))

    return ds.map_batches(tag, batch_format="pyarrow")


def tag_sides(left, right, unified: pa.Schema, by: str | list[str], num_partitions: int,
              hot_keys: list | None = None, salt: int = 8):
    """The front half of every two-sided exchange. Each side is cast to
    one Arrow schema (typed nulls for the other side's columns), marked
    with its ``SIDE_COL`` and tagged with ``__part``
    (``add_partition_column``) in one chain of maps that Ray fuses into
    the side's own tasks; the two tagged sides are then unioned."""
    names = unified.names

    def side(ds, s: int):
        def align(batch: pa.Table) -> pa.Table:
            n = len(batch)
            cols = [batch[f.name].cast(f.type) if f.name in batch.column_names
                    else pa.nulls(n, f.type) for f in unified]
            return pa.table(cols + [pa.array(np.full(n, s, dtype=np.int8))],
                            names=names + [SIDE_COL])

        return add_partition_column(ds.map_batches(align, batch_format="pyarrow"), by,
                                    num_partitions, hot_keys, salt, side=s)

    return side(left, 0).union(side(right, 1))


def sort_ranges(num_partitions: int) -> int:
    """How many sorted blocks an exchange over ``P`` partitions makes:
    ``R = min(P, 2 × cluster CPUs)`` — the floor of
    ``suggest_partitions``, enough blocks that every core gets work."""
    return min(num_partitions, 2 * cluster_cpus())


def block_apply(tagged, fn: Callable, num_partitions: int, batch_format: str = "pandas"):
    """Sort a ``__part``-tagged dataset on fixed ranges and run ``fn``
    once per sorted block, given as a ``batch_format`` batch.

    The domain of ``__part`` is known before anything runs, so the sort
    takes explicit ``boundaries`` instead of sampling them: the
    ``sort_ranges(P)`` ranges of ``[0, P)`` of equal width. A partition
    never spans two sort output blocks, so ``fn`` sees every row of each
    partition it is given — but it is given the ``P / R`` partitions of
    a range at once, and must key its work on the entity (or on
    ``__part`` itself, where salted partitions of one entity must stay
    apart). At ``R = 1`` the one boundary is ``P`` itself (Ray samples
    when given none): one block holds every row, the other is empty. A
    range without rows reaches no ``fn`` call: Ray passes it on as a
    block without columns."""
    r = sort_ranges(num_partitions)
    bounds = [i * num_partitions // r for i in range(1, r)] or [num_partitions]
    return tagged.sort(PART_COL, boundaries=bounds).map_batches(
        fn, batch_size=None, batch_format=batch_format)


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


def cluster_cpus() -> int:
    """The CPUs of the running Ray cluster (4 without one)."""
    import ray

    return int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4


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
        num_cpus = cluster_cpus()
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
      ``num_partitions`` partitions, sorted on the ``sort_ranges`` fixed
      ranges of ``__part`` (no sampling), and ``fn`` runs once per
      sorted block. ``num_partitions`` applies to this plan only.

    The plan is logged once per call.
    """
    log = logging.getLogger(__name__)
    small = small_known_size(ds)
    if small is not None:
        rows, nbytes = small
        log.info("partitioned_apply plan=local rows=%d bytes=%d", rows, nbytes)
        return ds.map_batches(fn, batch_size=max(rows, 1), batch_format="pandas")
    log.info("partitioned_apply plan=shuffle partitions=%d ranges=%d",
             num_partitions, sort_ranges(num_partitions))
    tagged = add_partition_column(ds, by, num_partitions)

    def run(df: pd.DataFrame) -> pd.DataFrame:
        return fn(df.drop(columns=[PART_COL]))

    return block_apply(tagged, run, num_partitions)
