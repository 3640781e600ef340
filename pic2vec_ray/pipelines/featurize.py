"""The flagship featurize pipeline: read → fused decode+embed tasks → features.

Ray-Data-native re-expression of ``ImageFeaturizer.featurize``
(``/root/reference/pic2vec/image_featurizer.py:362-482``): where the
reference loops sequentially over 1000-image slices
(``image_featurizer.py:678-729``), here the streaming executor
pipelines Arrow blocks through plain Ray tasks with backpressure; the
batch loop, tail-batch clamp and ETA logging all disappear into Ray
Data scheduling. Each task embeds with its worker process's warm model
(``stages.embed.embed_batch``), so a call starts no actor and a task
holds its CPU only while it runs.

Multi-column support (``image_featurizer.py:587-593``): each image
column is featurized by its own chained map stage appending
``{col}_features`` / ``{col}_missing`` — the positional
``pd.concat(axis=1)`` of the reference (M9) is unnecessary because
features are computed in-line in the same rows.
"""

from __future__ import annotations

import ray
import ray.data as rd

from ..model.zoo import validate_config
from ..stages.embed import embed_batch, weights_stamp


def read_for_embed(path: str, columns: list[str] | None = None) -> rd.Dataset:
    """Parquet read feeding an embed stage, in 3 blocks per cluster CPU:
    many small blocks mean one task per ~90 rows, which this virtualized
    host punishes (syscall-heavy paths show >20% hypervisor steal)."""
    n = ray.cluster_resources().get("CPU", 4) if ray.is_initialized() else 4
    return rd.read_parquet(path, columns=columns, override_num_blocks=3 * int(n))


def featurize_images(
    images,
    model_str: str = "tinynet",
    depth: int = 1,
    downsample: bool = False,
    num_pooled_features: int = 0,
    image_columns: str | list[str] = "bytes",
    batch_size: int = 128,
    concurrency=None,
    loaded_weights: str = "",
    num_gpus: float | None = None,
    num_cpus: float | None = None,
    columns: list[str] | None = None,
):
    """images: a Dataset or a parquet path of the input_hint schema.

    Returns a lazy Dataset with ``{prefix}features`` +
    ``{prefix}missing`` appended per image column. ``concurrency``
    caps the concurrent embed tasks per column (default: as many as
    the cluster's CPUs admit). ``loaded_weights`` names an ``.npz``
    custom-weight file on shared storage, loaded once per worker
    process and loaded again after the file changes.

    ``num_gpus``: GPU fraction reserved per embed task (SURVEY.md §4),
    forwarded to ``map_batches`` so Ray schedules the tasks onto GPU
    nodes — e.g. ``num_gpus=0.25`` packs 4 tasks per device. When the
    cluster advertises NO GPU resource the kwarg is dropped with a
    warning instead of blocking the stage on an unsatisfiable
    reservation (this CPU sandbox takes that path). ``num_cpus``
    adjusts the per-task CPU reservation the same way (e.g. lower it
    under ``num_gpus`` so CPU slots don't cap the GPU tasks).

    ``columns``: projection pushed into the parquet read when ``images``
    is a path. Default ``None`` reads every input column so non-image
    columns (captions, ids) ride through to the output — the
    reference's append-to-the-input-frame semantics. Pipelines that
    only consume the features should pass the minimal list
    (``["image_id", *image_columns]``): at 100 TB the caption/metadata
    bytes are real scan I/O and real object-store traffic through the
    embed stage, so pruning them at the read is the difference
    between shipping features and shipping the whole table.
    """
    validate_config(model_str, depth, downsample, num_pooled_features)
    if loaded_weights:
        # fail on the driver, not inside the first embed batch
        from ..model.zoo import build_featurizer

        build_featurizer(model_str, depth, downsample, num_pooled_features,
                         loaded_weights=loaded_weights)
    if isinstance(image_columns, str):
        image_columns = [image_columns]
    ds = read_for_embed(images, columns) if isinstance(images, str) else images
    resource_kwargs = {}
    if num_gpus:
        if ray.is_initialized() and ray.cluster_resources().get("GPU", 0) > 0:
            resource_kwargs["num_gpus"] = float(num_gpus)
        else:
            import warnings

            warnings.warn(
                f"featurize_images(num_gpus={num_gpus}) on a cluster with no "
                "GPU resource — falling back to CPU-only tasks",
                stacklevel=2)
    if num_cpus is not None:
        resource_kwargs["num_cpus"] = float(num_cpus)
    model = (("model_str", model_str), ("depth", depth),
             ("downsample", downsample),
             ("num_pooled_features", num_pooled_features),
             ("loaded_weights", loaded_weights))
    stamp = weights_stamp(loaded_weights)
    multi = len(image_columns) > 1
    for col in image_columns:
        prefix = f"{col}_" if multi else ""
        ds = ds.map_batches(
            embed_batch,
            fn_kwargs=dict(model=model, stamp=stamp, bytes_col=col,
                           features_col=f"{prefix}features"),
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
            **resource_kwargs,
        )
        if multi:
            # each stage emits a bare ``missing``; qualify it per column
            ds = ds.rename_columns({"missing": f"{prefix}missing"})
    return ds
