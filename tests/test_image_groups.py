"""Image near-dup GROUPS (stages/dedup.image_neardup_groups).

Planted-cluster semantics: encode controlled images whose average
hashes are known by construction, so the expected connected-component
set is closed form — exact clones collapse via the hamming-0 star
phase, noisy near-duplicates (≤ 3 flipped hash bits) attach via the
banded representative pairs, and distant images stay apart.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from pic2vec_ray.codecs.png import encode_png
from pic2vec_ray.functions.image_ops import average_hash
from pic2vec_ray.stages.dedup import image_neardup_groups


def _img(seed: int, w: int = 32, h: int = 32) -> np.ndarray:
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    base = ((xx * 255) // (w - 1) + (yy * 131) // (h - 1)) % 256
    noise = rng.integers(0, 64, size=(h, w, 3), dtype=np.int64)
    return ((base[:, :, None] + noise) % 256).astype(np.uint8)


def _noisy_neardup(img: np.ndarray, seed: int, max_tries: int = 200) -> np.ndarray:
    """A pixel-noised copy whose average hash is within hamming 1-3 of
    the original (searched deterministically, then asserted)."""
    base_hash = average_hash(img)
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        cand = img.astype(np.int64) + rng.integers(-14, 15, size=img.shape)
        cand = np.clip(cand, 0, 255).astype(np.uint8)
        ham = int(bin((np.uint64(average_hash(cand))
                       ^ np.uint64(base_hash))
                      & np.uint64(0xFFFFFFFFFFFFFFFF)).count("1"))
        if 1 <= ham <= 3:
            return cand
    raise AssertionError("could not construct a hamming 1-3 near-dup")


def test_planted_clusters(ray_session):
    import ray.data as rd

    a = _img(1)          # cluster A: ids 0, 1 (clone), 2 (noisy)
    b = _img(2)          # cluster B: ids 10, 11 (clone)
    c = _img(3)          # singleton: id 20
    a_noisy = _noisy_neardup(a, seed=100)

    rows = [
        (0, encode_png(a)), (1, encode_png(a)), (2, encode_png(a_noisy)),
        (10, encode_png(b)), (11, encode_png(b)),
        (20, encode_png(c)),
    ]
    # distant singletons to fill buckets realistically
    rows += [(30 + i, encode_png(_img(50 + i))) for i in range(10)]
    df = pd.DataFrame({"img_key": [r[0] for r in rows],
                       "bytes": [r[1] for r in rows]})
    # hashes must actually be distinct across clusters for the plant
    assert average_hash(a) != average_hash(b) != average_hash(c)

    out = (image_neardup_groups(rd.from_pandas(df), id_col="img_key",
                                max_hamming=3, num_partitions=4)
           .to_pandas().sort_values("id").reset_index(drop=True))
    groups = dict(zip(out.id, out.group_id))

    assert groups[0] == groups[1] == 0          # clone pair, min-id label
    assert groups[2] == 0                       # noisy dup joins cluster A
    assert groups[10] == groups[11] == 10       # second cluster
    assert 20 not in groups                     # singleton: no edges, no row
    # no cross-cluster merge
    assert groups[0] != groups[10]


def test_partition_invariance(ray_session):
    import ray.data as rd

    a, b = _img(7), _img(8)
    rows = [(i, encode_png(a)) for i in range(5)] + \
           [(100 + i, encode_png(b)) for i in range(4)] + \
           [(200 + i, encode_png(_img(300 + i))) for i in range(6)]
    df = pd.DataFrame({"img_key": [r[0] for r in rows],
                       "bytes": [r[1] for r in rows]})
    outs = []
    for blocks in (1, 5):
        for nparts in (1, 7, 64):
            ds = rd.from_pandas(df.sample(frac=1.0, random_state=nparts)
                                .reset_index(drop=True)).repartition(blocks)
            outs.append(image_neardup_groups(ds, id_col="img_key",
                                             num_partitions=nparts)
                        .to_pandas().sort_values("id").reset_index(drop=True))
    for out in outs[1:]:
        pd.testing.assert_frame_equal(out, outs[0])


def test_bad_hamming_raises(ray_session):
    import ray.data as rd

    ds = rd.from_pandas(pd.DataFrame({"img_key": [1], "bytes": [b""]}))
    with pytest.raises(ValueError, match="hamming"):
        image_neardup_groups(ds, max_hamming=4)
