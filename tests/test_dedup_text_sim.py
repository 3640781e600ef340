"""Dedup / text-analysis / similarity operator tests with brute-force oracles."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from pic2vec_ray.stages.dedup import (
    dedup_exact,
    embedding_neardup_pairs,
    jaccard,
    minhash_lsh_pairs,
    simhash64,
    simhash_pairs,
)
from pic2vec_ray.stages.similarity import IvfIndex, ann_topk
from pic2vec_ray.stages.text import LangId, TextStats, count_tokens_bpe_ish, fingerprint64


@pytest.fixture(scope="module")
def docs(ray_session, sf_dir):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/documents.parquet").materialize()


@pytest.fixture(scope="module")
def docs_pdf(docs):
    return docs.to_pandas()


def test_dedup_exact_with_injected_dups(ray_session, docs_pdf):
    import ray.data as rd

    dup = docs_pdf.copy()
    clones = docs_pdf.head(50).copy()
    clones["doc_id"] = clones["doc_id"] + 1_000_000  # clones get larger ids
    pdf = pd.concat([dup, clones], ignore_index=True)
    out = dedup_exact(rd.from_pandas(pdf), col="text", id_col="doc_id",
                      num_partitions=8).to_pandas()
    # oracle: min doc_id per distinct text
    oracle = pdf.sort_values("doc_id").drop_duplicates("text", keep="first")
    assert sorted(out.doc_id) == sorted(oracle.doc_id)
    assert len(out) == len(docs_pdf)  # all clones removed


def test_minhash_lsh_finds_planted_neardups(ray_session, docs_pdf):
    import ray.data as rd

    base = docs_pdf.head(100).copy()
    # plant near-duplicates: copy with a tiny suffix edit
    nd = base.head(10).copy()
    nd["doc_id"] = nd["doc_id"] + 500_000
    nd["text"] = nd["text"] + " tail"
    pdf = pd.concat([base, nd], ignore_index=True)
    out = minhash_lsh_pairs(rd.from_pandas(pdf), threshold=0.6,
                            num_perm=64, bands=16, num_partitions=8).to_pandas()
    planted = {(int(a), int(a + 500_000)) for a in base.head(10).doc_id}
    found = {(int(a), int(b)) for a, b in zip(out.id_a, out.id_b)}
    assert planted.issubset(found)
    # verified jaccard values are true jaccard
    lookup = pdf.set_index("doc_id").text.to_dict()
    for row in out.itertuples():
        assert abs(row.jaccard - jaccard(lookup[row.id_a], lookup[row.id_b])) < 1e-12
        assert row.jaccard >= 0.6


def test_simhash_pairs_on_planted(ray_session, docs_pdf):
    import ray.data as rd

    base = docs_pdf.head(50).copy()
    nd = base.head(5).copy()
    nd["doc_id"] = nd["doc_id"] + 500_000  # exact clones → hamming 0
    pdf = pd.concat([base, nd], ignore_index=True)
    out = simhash_pairs(rd.from_pandas(pdf), max_hamming=3, num_partitions=8).to_pandas()
    planted = {(int(a), int(a + 500_000)) for a in base.head(5).doc_id}
    found = {(int(a), int(b)) for a, b in zip(out.id_a, out.id_b)}
    assert planted.issubset(found)
    assert (out.hamming <= 3).all()
    # determinism of simhash across calls
    t = docs_pdf.text.iloc[0]
    assert simhash64(t) == simhash64(t)


def test_simhash_pairs_rejects_lossy_banding(ray_session, docs_pdf):
    """4×16-bit banding is lossless only up to hamming 3; past it the
    engine would miss pairs its all-pairs oracle finds, so it raises."""
    import ray.data as rd

    with pytest.raises(ValueError, match="max_hamming <= 3"):
        simhash_pairs(rd.from_pandas(docs_pdf.head(20)), max_hamming=4)


def test_text_stats_oracle(docs, docs_pdf):
    out = docs.map_batches(TextStats, batch_format="pandas", concurrency=2).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    src = docs_pdf.sort_values("doc_id").reset_index(drop=True)
    assert (out.n_chars_calc == src.text.str.len()).all()
    assert (out.n_tokens == src.text.str.split().str.len()).all()
    assert out.quality_score.between(0, 1).all()


def test_bpe_ish_and_fingerprint(docs):
    out = docs.map_batches(count_tokens_bpe_ish, batch_format="pandas") \
              .map_batches(fingerprint64, batch_format="pandas").to_pandas()
    assert (out.n_bpe_tokens >= out.text.str.split().str.len()).all()
    # fingerprint is whitespace-normalization invariant
    import ray.data as rd

    mod = out[["doc_id", "text"]].copy()
    mod["text"] = mod.text.str.replace(" ", "   ", regex=False)
    out2 = rd.from_pandas(mod).map_batches(fingerprint64, batch_format="pandas").to_pandas()
    merged = out.merge(out2, on="doc_id", suffixes=("", "_sp"))
    assert (merged.fingerprint == merged.fingerprint_sp).all()


def test_fingerprint_matches_scalar_horner():
    """The vectorized power-scan fingerprint equals a per-char scalar
    Horner fold (h = h*P + codepoint, mod 2^64) — the definition the
    SQL oracle reproduces."""
    import pandas as pd

    texts = ["", "   ", "a", "Hello  World", "ünïcode ÇHARS", "x" * 500]

    def scalar(t):
        h = 0
        for c in " ".join(t.lower().split()):
            h = (h * 1099511628211 + ord(c)) % (1 << 64)
        return h - (1 << 64) if h >= (1 << 63) else h

    out = fingerprint64(pd.DataFrame({"text": texts}))
    assert out.fingerprint.tolist() == [scalar(t) for t in texts]


def test_langid_on_documents(docs, docs_pdf):
    out = docs.map_batches(LangId, batch_format="pandas", concurrency=2).to_pandas()
    # documents are english word-salad; predictions must be en or und,
    # and some should hit en via stopwords
    assert set(out.lang_pred.unique()).issubset({"en", "und"})


def test_ann_topk_matches_bruteforce(ray_session, sf_dir):
    import ray.data as rd

    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    pdf = emb.to_pandas()
    m = np.stack(pdf.embedding.to_numpy()).astype(np.float64)
    q = m[:3]
    out = ann_topk(emb, q, k=5, query_ids=[0, 1, 2]).to_pandas()
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = qn @ mn.T
    for qi in range(3):
        ids = pdf.vec_id.to_numpy()
        idx = np.lexsort((ids, -sims[qi]))[:5]
        expect = ids[idx]
        got = out[out.query_id == qi].sort_values(["cosine", "vec_id"],
                                                  ascending=[False, True]).vec_id.to_numpy()
        assert list(got) == list(expect)
        # self-match first with cosine ≈ 1
        assert got[0] == pdf.vec_id.iloc[qi]


def test_ivf_recall(ray_session, sf_dir):
    import ray.data as rd

    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    pdf = emb.to_pandas()
    m = np.stack(pdf.embedding.to_numpy()).astype(np.float64)
    idx = IvfIndex(num_centroids=8, iters=5).train(m)
    assigned = idx.assign(emb).materialize()
    q = m[7]
    got = idx.search(assigned, q, k=10, nprobe=4)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q)
    exact = set(pdf.vec_id.to_numpy()[np.argsort(-(mn @ qn))[:10]].tolist())
    recall = len(set(got.vec_id) & exact) / 10
    assert got.vec_id.iloc[0] == pdf.vec_id.iloc[7]  # self-match survives probing
    assert recall >= 0.5  # coarse index, half the probes


def test_ivf_built_index_prunes_partitions(ray_session, sf_dir, tmp_path):
    """build() writes bucket-partitioned parquet and search(path) reads
    ONLY the nprobe probed buckets' files — rows read scale with
    nprobe, not corpus size — while matching the scan-and-filter path
    row for row."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    pdf = emb.to_pandas()
    m = np.stack(pdf.embedding.to_numpy()).astype(np.float64)
    path = str(tmp_path / "ivf_index")
    idx = IvfIndex(num_centroids=8, iters=5)
    idx.build(emb, path, train_sample=2000)

    # the partition layout exists and covers the corpus exactly once
    bucket_dirs = sorted(d for d in os.listdir(path) if d.startswith("ivf_bucket="))
    assert 1 < len(bucket_dirs) <= 8
    per_bucket = {d: sum(pq.read_metadata(os.path.join(path, d, f)).num_rows
                         for f in os.listdir(os.path.join(path, d))
                         if f.endswith(".parquet"))
                  for d in bucket_dirs}
    assert sum(per_bucket.values()) == len(pdf)

    q = m[7]
    for nprobe in (1, 4):
        dirs = idx.probe_dirs(path, q, nprobe)
        assert len(dirs) <= nprobe
        # the probed scan is strictly smaller than the corpus
        probed_rows = sum(per_bucket[os.path.basename(d)] for d in dirs)
        assert probed_rows < len(pdf)
        got = idx.search(path, q, k=10, nprobe=nprobe)
        legacy = idx.search(idx.assign(emb).materialize(), q, k=10, nprobe=nprobe)
        assert got.vec_id.tolist() == legacy.vec_id.tolist()
        assert np.allclose(got.cosine.to_numpy(), legacy.cosine.to_numpy())
    # reload from disk alone reproduces the search
    idx2 = IvfIndex.load(path)
    assert np.allclose(idx2.centroids, idx.centroids)
    assert idx2.search(path, q, k=10, nprobe=4).vec_id.tolist() == \
        idx.search(path, q, k=10, nprobe=4).vec_id.tolist()


def test_embedding_neardup_selfpairs(ray_session, sf_dir):
    import ray.data as rd

    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    pdf = emb.to_pandas().head(100)
    dup = pdf.copy()
    dup["vec_id"] = dup["vec_id"] + 10_000  # exact clones
    both = pd.concat([pdf, dup], ignore_index=True)
    out = embedding_neardup_pairs(rd.from_pandas(both), threshold=0.999).to_pandas()
    planted = {(int(v), int(v + 10_000)) for v in pdf.vec_id}
    found = {(int(a), int(b)) for a, b in zip(out.id_a, out.id_b)}
    assert planted.issubset(found)


def test_neardup_groups_connected_components(ray_session):
    import ray.data as rd
    from pic2vec_ray.stages.dedup import neardup_groups

    # two chains (1-2-3, 10-11) and one isolated pair (20, 21)
    pairs = pd.DataFrame({"id_a": [1, 2, 10, 20], "id_b": [2, 3, 11, 21]})
    out = neardup_groups(rd.from_pandas(pairs), num_partitions=4).to_pandas()
    groups = dict(zip(out.id, out.group_id))
    assert groups[1] == groups[2] == groups[3] == 1
    assert groups[10] == groups[11] == 10
    assert groups[20] == groups[21] == 20


def test_neardup_groups_long_chain_converges(ray_session):
    import ray.data as rd
    from pic2vec_ray.stages.dedup import neardup_groups

    n = 12  # chain 0-1-2-...-11: worst-case diameter for propagation
    pairs = pd.DataFrame({"id_a": list(range(n - 1)), "id_b": list(range(1, n))})
    out = neardup_groups(rd.from_pandas(pairs), num_partitions=2).to_pandas()
    assert (out.group_id == 0).all()


# ---------------------------------------------------- round-2 scale rewrites


def test_minhash_batch_equals_scalar(docs_pdf):
    from pic2vec_ray.stages.dedup import (
        _minhash_params,
        minhash_signature,
        minhash_signatures_batch,
    )

    texts = list(docs_pdf.head(30).text) + ["ab", ""]  # incl. short-text path
    a, b = _minhash_params(64)
    batch = minhash_signatures_batch(texts, a, b, 5)
    for i, t in enumerate(texts):
        assert (batch[i] == minhash_signature(t, a, b, 5)).all()


def test_simhash_batch_equals_scalar(docs_pdf):
    from pic2vec_ray.stages.dedup import simhash64, simhash64_batch

    texts = list(docs_pdf.head(30).text) + ["abc", ""]
    batch = simhash64_batch(texts, 4)
    for i, t in enumerate(texts):
        assert int(batch[i]) == simhash64(t, 4)


def test_minhash_join_path_equals_driver_reference(ray_session, docs_pdf):
    """Pair-for-pair equality of the join-based (driver-collect-free)
    minhash path with a driver-side re-derivation of the same LSH
    algorithm (the round-1 broadcast path's semantics)."""
    import ray.data as rd

    from pic2vec_ray.stages.dedup import (
        _minhash_params,
        jaccard,
        minhash_lsh_pairs,
        minhash_signatures_batch,
    )

    base = docs_pdf.head(80).copy()
    nd = base.head(8).copy()
    nd["doc_id"] += 700_000
    nd["text"] += " xyz"
    pdf = pd.concat([base, nd], ignore_index=True)
    got = minhash_lsh_pairs(rd.from_pandas(pdf), threshold=0.5,
                            num_perm=64, bands=16, num_partitions=8).to_pandas()

    # driver-side reference: same signatures, same banding, same verify
    a, b = _minhash_params(64)
    sigs = minhash_signatures_batch(list(pdf.text), a, b, 5)
    ids = pdf.doc_id.to_numpy()
    buckets: dict[tuple, list] = {}
    for r, i in enumerate(ids):
        for band in range(16):
            key = (band, tuple(sigs[r, band * 4:(band + 1) * 4]))
            buckets.setdefault(key, []).append(int(i))
    cand = set()
    for members in buckets.values():
        ms = sorted(set(members))
        for x in range(len(ms)):
            for y in range(x + 1, len(ms)):
                cand.add((ms[x], ms[y]))
    lookup = pdf.set_index("doc_id").text.to_dict()
    expect = {(x, y): jaccard(lookup[x], lookup[y], 5) for x, y in cand
              if jaccard(lookup[x], lookup[y], 5) >= 0.5}
    got_pairs = {(int(r.id_a), int(r.id_b)): r.jaccard for r in got.itertuples()}
    assert got_pairs.keys() == expect.keys()
    for k in expect:
        assert abs(got_pairs[k] - expect[k]) < 1e-12


def test_embedding_lsh_equals_exact(ray_session, sf_dir):
    import ray.data as rd

    from pic2vec_ray.stages.dedup import embedding_neardup_pairs

    emb = pd.read_parquet(f"{sf_dir}/embeddings.parquet")
    clones = emb.head(15).copy()
    clones["vec_id"] += 100_000
    both = pd.concat([emb, clones], ignore_index=True)
    lsh = embedding_neardup_pairs(rd.from_pandas(both), threshold=0.95).to_pandas()
    exact = embedding_neardup_pairs(rd.from_pandas(both), threshold=0.95,
                                    mode="exact").to_pandas()
    key = lambda d: sorted(zip(d.id_a.astype(int), d.id_b.astype(int),
                               d.cosine.round(9)))
    assert key(lsh) == key(exact)
    assert len(lsh) == 15


def test_neardup_groups_pointer_doubling_long_chain(ray_session):
    """A 40-node chain (diameter 39) must converge well inside
    max_rounds=30 — only possible with the pointer-doubling shortcut."""
    import ray.data as rd

    from pic2vec_ray.stages.dedup import neardup_groups

    n = 40
    pairs = pd.DataFrame({"id_a": list(range(n - 1)), "id_b": list(range(1, n))})
    out = neardup_groups(rd.from_pandas(pairs), num_partitions=4,
                         max_rounds=12).to_pandas()
    assert len(out) == n and (out.group_id == 0).all()


def test_ngram_jaccard_exact_all_pairs(ray_session, docs_pdf):
    """Block theta-join output == brute-force all-pairs Jaccard."""
    import ray.data as rd

    from pic2vec_ray.stages.dedup import jaccard, ngram_jaccard_pairs

    base = docs_pdf.head(60).copy()
    nd = base.head(6).copy()
    nd["doc_id"] += 900_000
    nd["text"] += " zz"
    pdf = pd.concat([base, nd], ignore_index=True)
    got = ngram_jaccard_pairs(rd.from_pandas(pdf), threshold=0.5, shingle_k=5,
                              num_blocks=4, num_partitions=6).to_pandas()
    ids = pdf.doc_id.tolist()
    lookup = pdf.set_index("doc_id").text.to_dict()
    expect = {}
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            a, b = sorted((int(ids[x]), int(ids[y])))
            j = jaccard(lookup[a], lookup[b], 5)
            if j >= 0.5:
                expect[(a, b)] = j
    got_pairs = {(int(r.id_a), int(r.id_b)): r.jaccard for r in got.itertuples()}
    assert got_pairs.keys() == expect.keys()
    for key_ in expect:
        assert abs(got_pairs[key_] - expect[key_]) < 1e-12


def test_textstats_langid_vectorized_equal_scalar(docs_pdf):
    """The explode/groupby kernels must reproduce the per-row scalar
    definitions exactly."""
    from pic2vec_ray.stages.text import _WORD, STOPWORDS, LangId, TextStats

    batch = docs_pdf.head(50)[["doc_id", "text"]].copy()
    batch.loc[len(batch)] = {"doc_id": 10**9, "text": ""}  # empty-doc edge
    batch = batch.reset_index(drop=True)
    out = TextStats()(batch.copy())
    lid = LangId()(batch.copy())
    for i, t in enumerate(batch.text):
        ws = _WORD.findall(t.lower())
        exp_stop = sum(w in STOPWORDS for w in ws) / max(len(ws), 1)
        exp_avg = sum(len(w) for w in ws) / max(len(ws), 1)
        assert abs(out.stopword_ratio[i] - exp_stop) < 1e-12
        assert abs(out.avg_word_len[i] - exp_avg) < 1e-12
        best, best_r = "und", 0.0
        for lang, sw in LangId.LANG_STOPWORDS.items():
            r = sum(w in sw for w in ws) / len(ws) if ws else 0.0
            if r > best_r:
                best, best_r = lang, r
        exp_pred = best if best_r > 0.01 else "und"
        assert lid.lang_pred[i] == exp_pred
        assert abs(lid.lang_conf[i] - best_r) < 1e-12


# ------------------------------------------------ sketch SQL oracles


def _duck_with_docs(pdf):
    import duckdb

    con = duckdb.connect()
    con.register("documents", pdf[["doc_id", "text"]])
    return con


def test_simhash_sql_oracle_matches_ray(ray_session, docs_pdf):
    """The generated DuckDB oracle replays simhash bit-for-bit: same
    pairs AND same hamming values as the banded Ray pipeline."""
    import ray.data as rd

    from pic2vec_ray.pipelines.sketch_sql import simhash_pairs_sql

    base = docs_pdf.head(80).copy()
    nd = base.head(8).copy()
    nd["doc_id"] = nd["doc_id"] + 500_000
    nd["text"] = nd["text"].str.replace("a", "e", n=1)
    pdf = pd.concat([base, nd], ignore_index=True)
    got = simhash_pairs(rd.from_pandas(pdf), max_hamming=3,
                        num_partitions=8).to_pandas()
    oracle = _duck_with_docs(pdf).execute(simhash_pairs_sql()).df()
    key = ["id_a", "id_b", "hamming"]
    pd.testing.assert_frame_equal(
        got[key].sort_values(key).reset_index(drop=True),
        oracle[key].astype("int64").sort_values(key).reset_index(drop=True),
    )


def test_minhash_sql_oracles_match_ray(ray_session, docs_pdf):
    """The generated DuckDB oracle replays the FULL minhash chain —
    signatures, band collisions, agreement prefilter, exact-Jaccard
    verify — and the recursive-CTE connected components."""
    import ray.data as rd

    from pic2vec_ray.pipelines.sketch_sql import (
        minhash_groups_sql,
        minhash_pairs_sql,
    )
    from pic2vec_ray.stages.dedup import _minhash_params, neardup_groups

    base = docs_pdf.head(80).copy()
    nd = base.head(8).copy()
    nd["doc_id"] = nd["doc_id"] + 500_000
    nd["text"] = nd["text"] + " tail"
    # a 3-chain so connected components must actually propagate
    nd2 = base.head(4).copy()
    nd2["doc_id"] = nd2["doc_id"] + 900_000
    nd2["text"] = nd2["text"] + " tail x"
    pdf = pd.concat([base, nd, nd2], ignore_index=True)
    a, b = _minhash_params(64)

    pairs = minhash_lsh_pairs(rd.from_pandas(pdf), threshold=0.5,
                              num_perm=64, bands=16, num_partitions=8)
    pairs = pairs.materialize()
    got_pairs = pairs.to_pandas()
    con = _duck_with_docs(pdf)
    oracle_pairs = con.execute(minhash_pairs_sql(a, b)).df()
    key = ["id_a", "id_b"]
    got_sorted = got_pairs.sort_values(key).reset_index(drop=True)
    ora_sorted = oracle_pairs.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got_sorted[key + ["jaccard"]],
        ora_sorted[key + ["jaccard"]].astype({"id_a": "int64", "id_b": "int64"}),
    )
    assert len(got_pairs) >= 8  # planted pairs actually found

    got_groups = neardup_groups(pairs, num_partitions=8).to_pandas()
    oracle_groups = con.execute(minhash_groups_sql(a, b)).df()
    pd.testing.assert_frame_equal(
        got_groups.sort_values("id").reset_index(drop=True),
        oracle_groups.astype("int64").sort_values("id").reset_index(drop=True),
    )


def _para_dedup_bruteforce(pdf: pd.DataFrame, k: int = 10) -> pd.DataFrame:
    """Scalar replay of the keep rule: a segment instance survives iff
    its (doc_id, seg_idx) is the global minimum among instances of that
    exact text; docs with no surviving segment vanish."""
    first: dict[str, tuple[int, int]] = {}
    segs = []
    for _, row in pdf.sort_values("doc_id").iterrows():
        words = row["text"].split(" ")
        for idx in range(0, -(-len(words) // k)):
            seg = " ".join(words[idx * k:(idx + 1) * k])
            key = (row["doc_id"], idx)
            if seg not in first or key < first[seg]:
                first[seg] = key
            segs.append((seg, key))
    out: dict[int, list[tuple[int, str]]] = {}
    for seg, key in segs:
        if first[seg] == key:
            out.setdefault(key[0], []).append((key[1], seg))
    return pd.DataFrame(
        {"doc_id": sorted(out),
         "clean_text": [" ".join(s for _, s in sorted(out[d])) for d in sorted(out)]}
    )


def test_paragraph_dedup_bruteforce_and_partition_invariance(ray_session):
    import ray.data as rd

    from pic2vec_ray.stages.dedup import paragraph_dedup

    w = lambda n, tag: " ".join(f"{tag}{i}" for i in range(n))
    pdf = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "text": [
            w(25, "a"),              # 3 segments, trailing short one
            w(25, "a"),              # full duplicate of doc 1 → vanishes
            w(10, "b") + " " + w(25, "a"),  # head unique, tail all dup
            w(7, "c"),               # single short segment
            " ".join([w(10, "d")] * 3),     # within-doc repeated segment
        ],
    })
    exp = _para_dedup_bruteforce(pdf)
    assert 2 not in set(exp.doc_id)          # fixture exercises vanishing
    assert exp.loc[exp.doc_id == 5, "clean_text"].iloc[0] == w(10, "d")

    for nparts in (1, 7):
        got = (paragraph_dedup(rd.from_pandas(pdf).repartition(nparts))
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, exp)


def test_repetition_stats_bruteforce():
    from collections import Counter

    import pyarrow as pa

    from pic2vec_ray.stages.text import repetition_stats

    rng = np.random.default_rng(7)
    texts = ["a b a b a b a b",   # heavy 2-gram repetition
             "x",                  # single word: no grams at all
             "p q r",              # one of each
             ""]                   # '' splits to [''] — one word
    for _ in range(50):
        n = rng.integers(1, 40)
        texts.append(" ".join(rng.choice([f"w{i}" for i in range(8)], n)))
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    got = repetition_stats(t).to_pandas()

    def brute(text):
        w = text.split(" ")
        out = []
        for n in (2, 3):
            grams = [tuple(w[i:i + n]) for i in range(len(w) - n + 1)]
            if not grams:
                out += [0.0, 0.0]
            else:
                c = Counter(grams)
                out += [round(1 - len(c) / len(grams), 6),
                        round(max(c.values()) / len(grams), 6)]
        return out

    exp = pd.DataFrame([brute(x) for x in texts],
                       columns=["dup_2gram_frac", "top_2gram_frac",
                                "dup_3gram_frac", "top_3gram_frac"])
    pd.testing.assert_frame_equal(got.drop(columns="doc_id"), exp)
    assert got.loc[0, "dup_2gram_frac"] > 0.7  # the planted spam row


def test_chunk_documents_bruteforce_and_partition_invariance(ray_session):
    import math

    import ray.data as rd

    from pic2vec_ray.stages.text import chunk_documents

    rng = np.random.default_rng(11)
    texts = ["a",                                      # single token
             " ".join(f"w{i}" for i in range(32)),     # exactly max_tokens
             " ".join(f"w{i}" for i in range(33)),     # one past the window
             "x y"]
    for _ in range(40):
        n = rng.integers(1, 120)
        texts.append(" ".join(rng.choice([f"t{i}" for i in range(9)], n)))
    pdf = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})

    MAX, OV = 32, 8
    STEP = MAX - OV

    def brute(doc_id, text):
        toks = text.split(" ")
        k_total = max(1, math.ceil((len(toks) - OV) / STEP))
        for k in range(k_total):
            c = toks[k * STEP:k * STEP + MAX]
            yield (doc_id, k, " ".join(c), len(c))

    exp = sorted(r for d, t in zip(pdf.doc_id, pdf.text) for r in brute(d, t))
    # every token covered, consecutive chunks share exactly OV tokens
    for d, t in zip(pdf.doc_id, pdf.text):
        rows = [r for r in exp if r[0] == d]
        toks = []
        for _, k, chunk, _ in rows:
            c = chunk.split(" ")
            if k:
                assert toks[-OV:] == c[:OV]
            toks.extend(c[OV:] if k else c)
        assert toks == t.split(" ")

    for nparts in (1, 7):
        ds = chunk_documents(rd.from_pandas(pdf).repartition(nparts),
                             max_tokens=MAX, overlap=OV)
        got = sorted((r["doc_id"], r["chunk_no"], r["chunk"], r["n_tokens"])
                     for r in ds.take_all())
        assert got == exp

    with pytest.raises(ValueError):
        chunk_documents(rd.from_pandas(pdf), max_tokens=8, overlap=8)
    with pytest.raises(ValueError):
        chunk_documents(rd.from_pandas(pdf), max_tokens=0, overlap=0)


def test_dedup_incremental_cross_snapshot(ray_session):
    import ray.data as rd

    from pic2vec_ray.stages.dedup import dedup_incremental

    seen = pd.DataFrame({"doc_id": [1, 2, 3],
                         "text": ["alpha beta", "gamma", "delta eps"]})
    new = pd.DataFrame({
        "doc_id": [10, 11, 12, 13, 14],
        "text": ["gamma",          # dup of seen -> dropped
                 "new one",        # survives
                 "new two",        # survives
                 "new one",        # within-new dup -> dropped (10 < 13? id 11 wins)
                 "ALPHA   BETA"],  # normalization dup of seen -> dropped
    })
    out = (dedup_incremental(rd.from_pandas(new).repartition(3),
                             rd.from_pandas(seen).repartition(2),
                             num_partitions=4)
           .to_pandas().sort_values("doc_id"))
    assert out.doc_id.tolist() == [11, 12]
