"""Round-5 fuzzy decontamination: planted near-duplicates between
train and eval sides must be dropped; unrelated docs kept; within-side
duplicates are NOT grounds for removal."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest


def _corpus():
    rng = np.random.default_rng(41)
    words = [f"tok{i}" for i in range(300)]

    def doc(n, seed_words=None):
        base = list(seed_words) if seed_words else []
        base += list(rng.choice(words, n))
        return " ".join(base)

    eval_text = doc(40)
    near_dup = eval_text + " tail bit"          # jaccard ~ 1
    train_clone = doc(40)                        # within-train near-dup pair
    rows = [
        {"doc_id": 0, "side": "eval", "text": eval_text},
        {"doc_id": 1, "side": "train", "text": near_dup},
        {"doc_id": 2, "side": "train", "text": doc(45)},
        {"doc_id": 3, "side": "train", "text": train_clone},
        {"doc_id": 4, "side": "train", "text": train_clone + " x"},
        {"doc_id": 5, "side": "train", "text": doc(35)},
        {"doc_id": 6, "side": "eval", "text": doc(50)},
    ]
    return pd.DataFrame(rows)


def test_fuzzy_decontam_drops_cross_side_neardups_only(ray_session):
    import ray.data as rd
    from pic2vec_ray.stages.decontam import decontaminate_fuzzy

    df = _corpus()
    train = rd.from_pandas(df[df.side == "train"]).repartition(3)
    ev = rd.from_pandas(df[df.side == "eval"]).repartition(2)
    kept = sorted(decontaminate_fuzzy(train, ev, threshold=0.5)
                  .to_pandas().doc_id.tolist())
    # doc 1 is a near-dup of eval doc 0 -> dropped; the within-train
    # clone pair (3, 4) survives — fuzzy decontam is cross-side only
    assert kept == [2, 3, 4, 5]


def test_fuzzy_decontam_no_eval_overlap_keeps_everything(ray_session):
    import ray.data as rd
    from pic2vec_ray.stages.decontam import decontaminate_fuzzy

    df = _corpus()
    train = rd.from_pandas(df[df.side == "train"])
    # eval set that shares nothing with train
    ev = rd.from_pandas(pd.DataFrame(
        {"doc_id": [100], "text": ["completely different words entirely"]}))
    kept = sorted(decontaminate_fuzzy(train, ev, threshold=0.5)
                  .to_pandas().doc_id.tolist())
    assert kept == [1, 2, 3, 4, 5]


def test_fuzzy_decontam_partition_invariant(ray_session):
    import ray.data as rd
    from pic2vec_ray.stages.decontam import decontaminate_fuzzy

    df = _corpus()
    outs = []
    for blocks in (1, 5):
        for parts in (1, 7, 64):
            train = rd.from_pandas(df[df.side == "train"]).repartition(blocks)
            ev = rd.from_pandas(df[df.side == "eval"]).repartition(blocks)
            outs.append(sorted(decontaminate_fuzzy(train, ev, threshold=0.5,
                                                   num_partitions=parts)
                               .to_pandas().doc_id.tolist()))
    assert all(out == outs[0] for out in outs)


def test_fuzzy_decontam_cap_replayed_by_oracle(ray_session):
    """A hot bucket where ``max_bucket_fanout`` binds: 10 identical train
    docs and 2 identical eval docs share every band bucket (10·2 > 5),
    so only the 5 // 2 = 2 smallest train ids are candidates and the
    other 8 clones are kept. The DuckDB oracle replays the same cap."""
    import duckdb
    import ray.data as rd

    from pic2vec_ray.pipelines.sketch_sql import minhash_decontam_sql
    from pic2vec_ray.stages.dedup import _minhash_params
    from pic2vec_ray.stages.decontam import decontaminate_fuzzy

    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(200)]
    hot = " ".join(rng.choice(words, 30))
    texts = [hot] * 10 + [" ".join(rng.choice(words, 30)) for _ in range(5)]
    docs = pd.DataFrame({
        "doc_id": np.r_[np.arange(15), [100, 101]].astype(np.int64),
        "source": ["src1"] * 15 + ["src0"] * 2,
        "text": texts + [hot, hot],
    })
    docs["n_chars"] = docs.text.str.len().astype(np.int64)

    train = rd.from_pandas(docs[docs.source != "src0"]).repartition(3)
    ev = rd.from_pandas(docs[docs.source == "src0"])
    got = sorted(decontaminate_fuzzy(train, ev, threshold=0.5,
                                     max_bucket_fanout=5)
                 .to_pandas().doc_id.tolist())
    con = duckdb.connect()
    con.register("documents", docs)
    oracle = sorted(con.execute(minhash_decontam_sql(
        *_minhash_params(64), max_bucket_fanout=5)).df().doc_id.tolist())
    assert got == oracle == list(range(2, 15))
