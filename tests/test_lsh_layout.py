"""Layout independence of the LSH candidate engine
(``stages/dedup._lsh_candidates``): every near-duplicate operator built
on it returns the same pair set, whatever the exchange width and the
input block count. One kernel call may hold several partitions, so a
bucket loop keyed on anything but the bucket columns would show here.
Each input spans at least three of its operator's batches, so the
bucket exchange sorts several blocks."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from pic2vec_ray.codecs.png import encode_png
from pic2vec_ray.stages.dedup import (embedding_neardup_pairs,
                                      image_neardup_pairs, minhash_lsh_pairs,
                                      simhash_pairs, substring_dup_pairs)

LAYOUTS = [(parts, blocks) for parts in (1, 7, 64) for blocks in (1, 5)]


def _texts() -> pd.DataFrame:
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(3000)]
    base = [" ".join(rng.choice(words, 30)) for _ in range(800)]
    span = ("the quick brown fox jumps over the lazy dog while the band "
            "plays on and the crowd cheers loudly forever ")
    texts = (base
             + [base[i] + " tail" for i in range(6)]
             + ["the same boilerplate paragraph about cookies"] * 6
             + [base[i][:50] + span * 2 + base[i + 1][:40] for i in range(4)])
    return pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                         "text": texts})


def _vectors() -> pd.DataFrame:
    rng = np.random.default_rng(4)
    v = rng.standard_normal((2200, 16))
    near = v[:8] + 0.01 * rng.standard_normal((8, 16))
    vecs = np.vstack([v, near, v[:3]])
    return pd.DataFrame({"vec_id": np.arange(len(vecs), dtype=np.int64),
                         "embedding": list(vecs)})


def _images() -> pd.DataFrame:
    def blocky(seed):
        r = np.random.default_rng(seed)
        blocks = r.integers(0, 2, (8, 8)) * 255
        return np.repeat(np.repeat(blocks, 4, 0), 4, 1)[..., None] \
            .repeat(3, 2).astype(np.uint8)

    imgs = [blocky(s) for s in range(400)]
    noisy = imgs[0].copy()
    noisy[:2, :2] ^= 4
    imgs += [imgs[0], imgs[1], imgs[1], noisy]
    # string ids: the engine must keep the id dtype of its input
    return pd.DataFrame({"image_id": [f"img_{i:03d}" for i in range(len(imgs))],
                         "bytes": [encode_png(im) for im in imgs]})


CASES = {
    "minhash_all": (_texts, lambda ds, p: minhash_lsh_pairs(
        ds, threshold=0.5, num_partitions=p, edges="all")),
    "minhash_star": (_texts, lambda ds, p: minhash_lsh_pairs(
        ds, threshold=0.5, num_partitions=p, edges="star")),
    "embedding_lsh": (_vectors, lambda ds, p: embedding_neardup_pairs(
        ds, threshold=0.95, mode="lsh", bands=8, band_bits=16,
        num_partitions=p)),
    "simhash": (_texts, lambda ds, p: simhash_pairs(
        ds, max_hamming=3, num_partitions=p)),
    "substring": (_texts, lambda ds, p: substring_dup_pairs(
        ds, k=8, sel_mod=16, window=64, num_partitions=p)),
    "image": (_images, lambda ds, p: image_neardup_pairs(
        ds, max_hamming=3, num_partitions=p)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_pairs_do_not_depend_on_layout(ray_session, case):
    import ray.data as rd

    make, run = CASES[case]
    df = make()
    outs = []
    for parts, blocks in LAYOUTS:
        out = run(rd.from_pandas(df).repartition(blocks), parts).to_pandas()
        cols = sorted(out.columns)
        outs.append(out[cols].sort_values(cols).reset_index(drop=True))
    assert len(outs[0]) > 0
    for (parts, blocks), out in zip(LAYOUTS[1:], outs[1:]):
        pd.testing.assert_frame_equal(out, outs[0], obj=f"{case} @ {parts} "
                                      f"partitions, {blocks} blocks")
