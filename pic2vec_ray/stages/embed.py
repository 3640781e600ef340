"""Embed stage (SURVEY.md §2.3 T1–T8).

``EmbedActor`` holds the model: weights build ONCE in ``__init__`` (the
Ray analog of the reference holding a Keras model as instance state,
``/root/reference/pic2vec/image_featurizer.py:151-163``), per-batch
work is fused decode → resize → normalize → CNN forward → (optional
splice-average downsample), emitting a
``features: fixed_size_list<float32>[F]`` column. Fusing decode into
the embed stage keeps the huge intermediate pixel tensors out of the
object store — only compact encoded bytes go in, compact feature
vectors come out (the design SURVEY.md §1.4 calls for).

``featurize_images`` runs it as a plain task ``map_batches`` over
``embed_batch``, which takes the embedder from ``warm_stage``: one
instance per Ray worker process, built on that process's first batch
and reused by every later task and call with the same model. Ray's own
workers are reused across tasks, so no featurize call starts or ends a
process.

Missing-row semantics match the reference exactly: failed/empty rows
become a zero tensor which the model still featurizes
(``data_featurizing.py:50-51`` predicts over the zero slices), so
missing rows carry the constant CNN(0) vector with ``missing=True``.
We compute that constant once per embedder instead of re-running the net.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pyarrow as pa

from ..functions.image_ops import NORMALIZERS
from ..model.zoo import build_featurizer
from .decode import BatchDecoder


class EmbedActor:
    def __init__(self, model_str: str = "tinynet", depth: int = 1,
                 downsample: bool = False, num_pooled_features: int = 0,
                 bytes_col: str = "bytes", features_col: str = "features",
                 drop_bytes: bool = True, loaded_weights: str = ""):
        # custom weights load once per instance from shared storage —
        # the npz path rides the tiny task arguments, not the batches
        self.model = build_featurizer(model_str, depth, downsample,
                                      num_pooled_features,
                                      loaded_weights=loaded_weights)
        self.normalize = NORMALIZERS[self.model.preprocessing]
        self.decoder = BatchDecoder(target_size=self.model.target_size)
        self.bytes_col = bytes_col
        self.features_col = features_col
        self.drop_bytes = drop_bytes
        h, w = self.model.target_size
        # reference parity: failed rows enter the model as RAW zeros — the
        # except branch returns np.zeros WITHOUT preprocessing
        # (feature_preprocessing.py:318-323), and preprocess_data zero-fills
        # AFTER normalization (stages/decode.py:107) — so the missing-row
        # constant is CNN(0), not CNN(normalize(0)).
        zero = np.zeros((1, h, w, 3), dtype=np.float32)
        self.zero_features = self.model(zero)[0]  # CNN(0): constant for missing rows
        self.num_features = self.model.num_features

    def _embed_bytes(self, byte_rows: list) -> tuple[np.ndarray, np.ndarray]:
        images, missing = self.decoder.decode_column(byte_rows)
        n = len(images)
        feats = np.empty((n, self.num_features), dtype=np.float32)
        feats[missing] = self.zero_features
        # exact within-batch dedup generalized to the featurize step:
        # identical decoded content runs the forward pass once.
        valid_idx = np.flatnonzero(~missing)
        if valid_idx.size:
            uniq: dict[int, int] = {}
            order: list[int] = []
            inverse = np.empty(valid_idx.size, dtype=np.int64)
            for pos, i in enumerate(valid_idx):
                key = id(images[i])  # dedup memo aliases repeated arrays
                if key not in uniq:
                    uniq[key] = len(order)
                    order.append(i)
                inverse[pos] = uniq[key]
            stack = np.stack([images[i] for i in order]).astype(np.float32)
            out = self.model(self.normalize(stack))
            feats[valid_idx] = out[inverse]
        return feats, missing

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.embed(batch, self.bytes_col, self.features_col)

    def embed(self, batch: pa.Table, bytes_col: str, features_col: str) -> pa.Table:
        feats, missing = self._embed_bytes(batch[bytes_col].to_pylist())
        out = batch.drop_columns([bytes_col]) if self.drop_bytes else batch
        out = out.append_column("missing", pa.array(missing))
        flat = pa.array(feats.ravel(), type=pa.float32())
        col = pa.FixedSizeListArray.from_arrays(flat, self.num_features)
        return out.append_column(features_col, col)


@functools.lru_cache(maxsize=1)
def warm_stage(cls, kwargs: tuple, stamp: tuple = ()):
    """``cls(**dict(kwargs))``, built once per worker process and kept
    for every later task that asks for the same ``(cls, kwargs, stamp)``.

    ``stamp`` identifies what the kwargs name but do not hold, such as
    the weights file's ``weights_stamp``. ``maxsize=1``: a worker holds
    at most one model, and a different key replaces it. That model's
    memory (several hundred MB for ``vgg16``, which also takes seconds
    to build) stays with the idle worker until Ray ends it: it is the
    price of a warm worker.
    """
    return cls(**dict(kwargs))


def weights_stamp(path: str) -> tuple:
    """``(path, blake2b digest of its bytes)`` of a weights file, ``()``
    for none: a file rewritten in place gets a new stamp even when its
    size and mtime are kept (``cp -p``, a rewrite within one timestamp
    tick), so a warm worker never serves features of the old weights."""
    if not path:
        return ()
    h = hashlib.blake2b()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return (path, h.hexdigest())


def embed_batch(batch: pa.Table, *, model: tuple, stamp: tuple,
                bytes_col: str, features_col: str) -> pa.Table:
    """``map_batches`` task function: embed ``batch[bytes_col]`` with this
    process's warm ``EmbedActor(**dict(model))``. The columns are per
    call, not part of the key, so the chained stages of a multi-column
    featurize share one model instead of rebuilding it on every batch."""
    return warm_stage(EmbedActor, model, stamp).embed(batch, bytes_col, features_col)


class PatchEmbedActor:
    """ViT-style patch embedding: project each ``patchify`` tile's raw
    pixels (``P·P·3`` uint8) to a ``dim``-float vector with a seeded
    linear layer plus learned-position-free sinusoidal 2-D positional
    encoding — the stage between ``stages/decode.make_patchify_fn``
    and a transformer trainer.

    Actor-pool discipline: the projection matrix (and the positional
    table cache) is built ONCE per actor in ``__init__`` from a fixed
    seed (He-init — the same environment-blocked-weights disclosure as
    ``model/zoo.py``; swap ``weights`` for a trained .npz when one
    exists); ``__call__`` is one ``(tiles/255 − 0.5) @ W`` matmul per
    batch. Zero-copy in: the fixed-size-binary tile buffer is
    reinterpreted as a (n, P·P·3) uint8 view, never iterated.

    Output: input columns minus the tile payload, plus ``embedding``
    (FixedSizeList<float32, dim>).
    """

    def __init__(self, patch: int = 16, dim: int = 64, seed: int = 5102020,
                 patch_col: str = "patch", weights: np.ndarray | None = None,
                 weights_path: str | None = None, pos_encode: bool = True):
        self.P, self.dim = int(patch), int(dim)
        self.patch_col = patch_col
        self.pos_encode = pos_encode
        d_in = self.P * self.P * 3
        if weights_path is not None:
            # trained projection from .npz (key "W") — loaded ONCE per
            # actor from shared storage, so the array never rides the
            # task closure (the loaded_weights idiom of model/zoo.py)
            if weights is not None:
                raise ValueError("pass weights or weights_path, not both")
            with np.load(weights_path) as z:
                if "W" not in z:
                    raise ValueError(f"{weights_path} has no 'W' array")
                weights = z["W"]
        if weights is not None:
            w = np.asarray(weights, dtype=np.float32)
            if w.shape != (d_in, self.dim):
                raise ValueError(f"weights must be {(d_in, self.dim)}, "
                                 f"got {w.shape}")
            self.W = w
        else:
            rng = np.random.default_rng(seed)
            self.W = rng.normal(0.0, np.sqrt(2.0 / d_in),
                                (d_in, self.dim)).astype(np.float32)

    def _pos(self, py: np.ndarray, px: np.ndarray) -> np.ndarray:
        """Standard sinusoidal encoding, half the dims on each axis."""
        half = self.dim // 2
        freq = np.exp(-np.log(10000.0) * np.arange(half, dtype=np.float32)
                      / max(half, 1))
        out = np.zeros((len(py), self.dim), dtype=np.float32)
        ay = py[:, None].astype(np.float32) * freq[None, :]
        ax = px[:, None].astype(np.float32) * freq[None, :]
        out[:, 0:half:2] = np.sin(ay[:, ::2])
        out[:, 1:half:2] = np.cos(ay[:, 1::2])
        out[:, half::2] = np.sin(ax[:, : (self.dim - half + 1) // 2])
        out[:, half + 1::2] = np.cos(ax[:, : (self.dim - half) // 2])
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.patch_col].combine_chunks()
        n = len(col)
        d_in = self.P * self.P * 3
        if n:
            buf = np.frombuffer(col.buffers()[1], dtype=np.uint8,
                                count=n * d_in).reshape(n, d_in)
            emb = ((buf.astype(np.float32) / 255.0) - 0.5) @ self.W
            if self.pos_encode:
                emb = emb + self._pos(batch["py"].to_numpy(),
                                      batch["px"].to_numpy())
        else:
            emb = np.zeros((0, self.dim), dtype=np.float32)
        out = batch.drop_columns([self.patch_col])
        flat = pa.array(emb.ravel(), type=pa.float32())
        return out.append_column(
            "embedding", pa.FixedSizeListArray.from_arrays(flat, self.dim))
