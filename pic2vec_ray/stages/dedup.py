"""Deduplication suite (exact, MinHash-LSH, SimHash, n-gram Jaccard,
embedding-cosine, perceptual image hash) — the large-scale
training-data operators the reference lacks (its only dedup is a
per-batch memo in pic2vec's ``feature_preprocessing.py``; SURVEY.md
§2.7 maps the global variants to hash-partition shuffles). Nothing in
this module collects the corpus, the signature table or the label
table to one node.

Every near-duplicate operator is its own signature kernel and verify
kernel around ONE candidate engine:

- signatures are computed vectorized per batch and leave as narrow
  ``(bucket key, id)`` band rows — text and vectors never ride the
  band exchange;
- ``_lsh_candidates`` runs one hash-partition exchange on the bucket
  key and one per-bucket pair loop, then a second exchange on
  ``(id_a, id_b)`` that drops (or counts) repeat pairs;
- verify runs either inside the bucket, on the 64-bit hash the band
  rows carry (``_hamming_pairs``: simhash, image hashes), or after
  ``_join_back``, whose two pair-bounded hash joins attach each
  member's payload (minhash signature + text, embedding vector).
  Candidates, not the corpus, bound every intermediate. The MinHash
  signature-agreement prefilter runs before exact Jaccard and kills
  most false candidates.

Hot buckets (a boilerplate cluster of 10⁶ near-identical docs lands
every member in one bucket) are bounded per bucket, and the number of
dropped candidates is logged, never silent:

- ``edges="star"`` emits the m−1 edges ``(bucket min, other)``, the
  connectivity a connected-components consumer needs. A star edge
  that fails verification can sever a B–C link full enumeration would
  keep; that is the standard LSH-dedup trade;
- ``edges="all"`` enumerates the upper triangle, capped per bucket by
  a deterministic index-distance schedule that always keeps the
  distance-1 ring (``_enumerate_bucket_pairs``);
- decontamination pairs train × eval members only and keeps a prefix
  of each hot bucket's train ids (``max_bucket_fanout``), a rule its
  SQL oracle replays.

Other shapes: exact dedup is two-phase (a per-batch min-id partial,
then one exchange on the content; groups are verified on content, so
a 64-bit hash collision never merges distinct texts); connected
components is distributed min-label propagation with pointer-doubling
shortcuts — labels stay a Dataset, O(log diameter) rounds, convergence
checked with a scalar count.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd

_MERSENNE = (1 << 61) - 1
_LOG = logging.getLogger(__name__)
_BUCKET_PAIR_CAP = 1_000_000  # per-bucket candidate cap under edges="all"


def _enumerate_bucket_pairs(ids: np.ndarray, *, edges: str,
                            max_pairs: int | None):
    """Candidate pairs for one LSH bucket of sorted unique ``ids``.

    ``edges="star"``: ``(ids[0], other)`` only — m−1 edges, exactly the
    connectivity the connected-components consumer needs; a bucket of
    10⁶ near-identical docs emits 10⁶−1 edges instead of ~5·10¹¹ pairs.

    ``edges="all"``: the full upper triangle, CAPPED at ``max_pairs``
    per bucket via a deterministic index-distance schedule (all pairs
    at distance 1, then 2, …) — the distance-1 ring is always included
    so within-bucket connectivity survives truncation, and the schedule
    depends only on the sorted id order, never on partitioning.

    Returns ``(id_a, id_b, n_dropped)``.
    """
    m = len(ids)
    if edges == "star":
        return np.repeat(ids[0], m - 1), ids[1:], 0
    if edges != "all":
        raise ValueError("edges must be 'all' or 'star'")
    total = m * (m - 1) // 2
    if max_pairs is None or total <= max_pairs:
        ia, ib = np.triu_indices(m, k=1)
        return ids[ia], ids[ib], 0
    take_a, take_b, n = [], [], 0
    for j in range(1, m):
        cnt = min(m - j, max_pairs - n)
        idx = np.arange(cnt)
        take_a.append(idx)
        take_b.append(idx + j)
        n += cnt
        if n >= max_pairs:
            break
    ia = np.concatenate(take_a)
    ib = np.concatenate(take_b)
    return ids[ia], ids[ib], total - n


def _lsh_candidates(banded, bucket_cols: list[str], id_col: str, *,
                    num_partitions: int, edges: str = "all",
                    max_pairs: int | None = _BUCKET_PAIR_CAP,
                    cross_cap: int | None = None, verify=None,
                    count_col: str | None = None):
    """Candidate pairs ``(id_a, id_b)`` from band rows — the one LSH
    engine of this module.

    ``banded`` holds one row per (bucket, member): the ``bucket_cols``
    key, ``id_col``, and whatever ``verify`` reads. One exchange on the
    bucket key; each bucket then emits ``_enumerate_bucket_pairs``
    (``edges``, ``max_pairs``; ``id_a < id_b``) or, with ``cross_cap``,
    the cross-side rule: ``id_a`` train (``SIDE_COL`` 0) × ``id_b`` eval
    (``SIDE_COL`` 1), and when ``n_train·n_eval > cross_cap`` only the
    ``max(cross_cap // n_eval, 1)`` smallest train ids. The kernel keys
    on the bucket columns, never on ``__part``: one call may hold
    several partitions. ``verify(pairs, rows)`` filters or annotates a
    block's pairs from that block's rows. A second exchange on
    ``(id_a, id_b)`` keeps one row per pair or, with ``count_col``,
    counts the buckets the pair shares. Ids keep the dtype of
    ``banded`` (image ids may be strings).
    """
    from ..temporal.core import SIDE_COL, partitioned_apply

    members = [*bucket_cols, id_col] + ([SIDE_COL] if cross_cap is not None else [])
    pair = ["id_a", "id_b"]

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(members)
        multi = df.groupby(bucket_cols, sort=False)[id_col].transform("size") > 1
        ia, ib, dropped = [], [], 0
        for _, g in df[multi.to_numpy()].groupby(bucket_cols, sort=False):
            ids = g[id_col].to_numpy()
            if cross_cap is None:
                a, b, d = _enumerate_bucket_pairs(
                    np.unique(ids), edges=edges, max_pairs=max_pairs)
            else:
                side = g[SIDE_COL].to_numpy()
                tr, ev = np.unique(ids[side == 0]), np.unique(ids[side == 1])
                keep = len(tr)
                if len(tr) * len(ev) > cross_cap:
                    keep = max(cross_cap // len(ev), 1)
                d = (len(tr) - keep) * len(ev)
                a, b = np.repeat(tr[:keep], len(ev)), np.tile(ev, keep)
            ia.append(a)
            ib.append(b)
            dropped += d
        if dropped:
            _LOG.warning(
                "LSH bucket pair enumeration truncated: %d candidate pairs "
                "dropped by the per-bucket cap %s", dropped,
                max_pairs if cross_cap is None else cross_cap)
        none = df[id_col].to_numpy()[:0]
        out = pd.DataFrame({"id_a": np.concatenate(ia) if ia else none,
                            "id_b": np.concatenate(ib) if ib else none})
        if count_col is None:
            out = out.drop_duplicates()
        return verify(out, df) if verify else out

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if count_col is None:
            return df.drop_duplicates(pair)
        out = df.groupby(pair, as_index=False).size()
        return out.rename(columns={"size": count_col}).astype({count_col: "int64"})

    cand = partitioned_apply(banded, bucket_cols, bucket_pairs, num_partitions)
    return partitioned_apply(cand, pair, merge, num_partitions)


def _join_back(cand, payload_a, payload_b, id_col: str, cols: list[str],
               num_partitions: int):
    """Attach each pair member's ``cols`` as ``{col}_a`` / ``{col}_b``
    with two pair-bounded hash joins (no corpus broadcast). The
    candidates are materialized first — ``None`` when there are none —
    and so is the first join, which the second join's schema resolution
    would otherwise re-execute."""
    from ..temporal.core import rename_columns
    from ..temporal.join import hash_join

    cand = cand.materialize()
    if cand.count() == 0:
        return None

    def side(s: str, payload):
        return rename_columns(payload, {id_col: f"id_{s}",
                                        **{c: f"{c}_{s}" for c in cols}})

    with_a = hash_join(cand, side("a", payload_a), on="id_a",
                       num_partitions=num_partitions).materialize()
    return hash_join(with_a, side("b", payload_b), on="id_b",
                     num_partitions=num_partitions)


def _empty_pairs_ds(extra: dict[str, str] | None = None):
    import ray.data as rd

    cols = {"id_a": pd.Series([], dtype="int64"),
            "id_b": pd.Series([], dtype="int64")}
    for name, dtype in (extra or {}).items():
        cols[name] = pd.Series([], dtype=dtype)
    return rd.from_pandas(pd.DataFrame(cols))


# ------------------------------------------------------------ exact dedup


def dedup_exact(ds, *, col: str = "text", id_col: str = "doc_id", num_partitions: int = 64):
    """Keep exactly one row (min ``id_col``) per distinct ``col`` value."""
    from ..temporal.core import partitioned_apply

    def first(df: pd.DataFrame) -> pd.DataFrame:
        # run per batch (shrinks the exchange) and per partition, where
        # the verify is on actual content, not a hash
        return df.sort_values(id_col).drop_duplicates(subset=[col], keep="first")

    return partitioned_apply(ds.map_batches(first, batch_format="pandas"),
                             col, first, num_partitions)


def dedup_with_quota(ds, *, col: str = "text", id_col: str = "doc_id",
                     group_col: str = "source", quota: int = 100,
                     num_partitions: int = 64):
    """Exact dedup with a per-group KEEP QUOTA — the standard
    corpus-balancing knob: after the content-level winner rule
    (:func:`dedup_exact`, min-id survivor per distinct text), each
    ``group_col`` value (domain / source / language) keeps at most
    ``quota`` survivors, selected by the deterministic id order. One
    over-represented crawl domain then contributes a bounded share of
    the training mix instead of drowning it (the dedup-side sibling of
    ``split.temperature_mixture``'s rate math).

    Scale shape: dedup's two-phase fingerprint exchange, then ONE
    top-n-per-group shuffle keyed by ``group_col``
    (``temporal.windows.top_n_per_group``: per-partition vectorized
    head-of-sorted-group, only survivor rows move). The SQL oracle
    replays the cut as ``ROW_NUMBER() OVER (PARTITION BY group ORDER
    BY id) <= quota`` on the deduped survivor set.

    Output: the surviving rows (all input columns), plus nothing —
    ordering is not part of the contract.
    """
    from ..temporal.windows import top_n_per_group

    if quota < 1:
        raise ValueError(f"quota must be >= 1, got {quota}")
    kept = dedup_exact(ds, col=col, id_col=id_col,
                       num_partitions=num_partitions)
    return top_n_per_group(kept, by=group_col, order_cols=[id_col],
                           ascending=[True], n=quota,
                           num_partitions=num_partitions)


def exact_dup_edges(ds, *, col: str = "text", id_col: str = "doc_id",
                    num_partitions: int = 64):
    """Exact-duplicate STAR edges ``(id_a=group min, id_b=other)`` per
    distinct fingerprint — the edge-producing complement of
    :func:`dedup_exact`, for feeding connected components together
    with edges from OTHER modalities (see query
    ``multimodal_dedup_groups``).

    Identity is the SQL-replayable 64-bit content fingerprint
    (``stages/text.fingerprint64``: Horner over normalized codepoints;
    collision probability ~2⁻⁶⁴ per pair).  Scale shape: per-batch
    fingerprinting, one hash-partition exchange on the fingerprint,
    vectorized per-partition min-anchor edge emit — m−1 edges per
    duplicate group, never m(m−1)/2."""
    from ..temporal.core import partitioned_apply
    from .text import fingerprint64

    def fp(batch: pd.DataFrame) -> pd.DataFrame:
        out = fingerprint64(batch[[id_col, col]].rename(columns={col: "text"}))
        return out[[id_col, "fingerprint"]]

    fps = ds.map_batches(fp, batch_format="pandas")

    def edges(df: pd.DataFrame) -> pd.DataFrame:
        mn = df.groupby("fingerprint")[id_col].transform("min")
        dup = df[df[id_col] != mn]
        return pd.DataFrame({"id_a": mn[df[id_col] != mn].to_numpy(),
                             "id_b": dup[id_col].to_numpy()})

    return partitioned_apply(fps, "fingerprint", edges,
                             num_partitions=num_partitions)


_GRAM_PRIME = np.uint64(1099511628211)  # FNV prime; same kernel family as
# fingerprint64, composed over token hashes (SQL replays with list_reduce)


def dup_ngram_spans(ds, *, col: str = "text", id_col: str = "doc_id",
                    n: int = 8, num_partitions: int = 64):
    """EXHAUSTIVE cross-document duplicated-span detection — the exact
    complement of the sampled winnowing pass (`substring_dup_pairs`):
    every word n-gram occurring in ≥ 2 distinct documents marks its
    start position, and maximal runs of marked positions merge into
    spans ``(doc_id, span_start, span_end, n_grams)`` in token
    coordinates.  This is the gram-granular form of exact substring
    dedup for training corpora (find-everything, not find-probably).

    Scale shape (two bounded exchanges, no joins):
    1. per-batch VECTORIZED gram hashing — tokens split on single
       spaces (the chunking convention), each DISTINCT token Horner-
       hashed once (vocabulary-bounded Python), gram hash = Horner
       composition over the n token hashes via n shifted-slice fused
       multiply-adds (uint64 wraparound IS mod 2⁶⁴);
    2. hash-partition by gram: all occurrences of a gram co-locate, so
       "≥ 2 distinct docs" is a partition-local groupby — duplicated
       positions come out, unique grams (the overwhelming majority)
       die here and never shuffle again;
    3. hash-partition by doc: gaps-and-islands merge of consecutive
       duplicated starts, vectorized across all docs in the partition.
    """
    from ..temporal.core import partitioned_apply
    from .encode import _horner64

    N = int(n)
    if N < 2:
        raise ValueError(f"n must be >= 2, got {N}")

    def grams(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch[col].str.split(" ")
        lens = toks.str.len().to_numpy(np.int64)
        ex = toks.explode()
        vals = ex.to_numpy()
        lut = {t: _horner64(t) for t in pd.unique(vals)}
        th = pd.Series(vals).map(lut).to_numpy(np.uint64)
        total = th.shape[0]
        if total < N:
            return pd.DataFrame({id_col: pd.Series([], dtype=np.int64),
                                 "pos": pd.Series([], dtype=np.int64),
                                 "gram": pd.Series([], dtype=np.uint64)})
        L = total - N + 1
        g = np.zeros(L, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for k in range(N):
                g = g * _GRAM_PRIME + th[k:k + L]
        doc_idx = np.repeat(np.arange(len(lens)), lens)
        valid = doc_idx[:L] == doc_idx[N - 1:]
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        pos_local = np.arange(total, dtype=np.int64) - starts
        ids = batch[id_col].to_numpy()
        return pd.DataFrame({id_col: ids[doc_idx[:L][valid]],
                             "pos": pos_local[:L][valid],
                             "gram": g[valid]})

    gram_rows = ds.map_batches(grams, batch_format="pandas")

    def dup_positions(df: pd.DataFrame) -> pd.DataFrame:
        ndocs = df.groupby("gram")[id_col].transform("nunique")
        return df.loc[ndocs >= 2, [id_col, "pos"]]

    dup = partitioned_apply(gram_rows, "gram", dup_positions,
                            num_partitions=num_partitions)

    def islands(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([id_col, "pos"])
        ids = df[id_col].to_numpy()
        pos = df["pos"].to_numpy()
        new = np.ones(len(df), dtype=bool)
        if len(df) > 1:
            new[1:] = (ids[1:] != ids[:-1]) | (pos[1:] != pos[:-1] + 1)
        grp = np.cumsum(new) - 1
        agg = (pd.DataFrame({id_col: ids, "pos": pos, "g": grp})
               .groupby("g", as_index=False)
               .agg(**{id_col: (id_col, "first"),
                       "span_start": ("pos", "min"),
                       "span_end": ("pos", "max"),
                       "n_grams": ("pos", "size")}))
        agg["span_end"] = agg.span_end + N - 1
        return agg.drop(columns=["g"]) if "g" in agg.columns else agg

    return partitioned_apply(dup, id_col, islands,
                             num_partitions=num_partitions)


# --------------------------------------------------------------- shingles


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """Character k-shingle 64-bit hashes (vector per doc).

    Hash = splitmix64(Horner polynomial over the shingle's codepoints,
    mod 2^64) — the same SQL-pinned kernel as ``text.fingerprint64`` /
    ``sketch._token_hash64``, so the minhash/simhash pipelines built on
    these hashes are reproducible bit-for-bit by a DuckDB oracle
    (queries ``minhash_neardup_docs`` / ``simhash_neardup_docs``).
    A doc shorter than ``k`` contributes ONE hash of the whole text
    (empty text → splitmix64(0)).
    """
    h, _ = _shingle_hashes_batch([text], k)
    return h


def _shingle_hashes_batch(texts: list[str], k: int) -> tuple[np.ndarray, np.ndarray]:
    """All shingle hashes of a BATCH in one vectorized pass.

    Returns ``(hashes, offsets)`` with doc ``i``'s shingles at
    ``hashes[offsets[i]:offsets[i+1]]`` — elementwise identical to
    per-doc :func:`_shingle_hashes` (the hash is value-based).

    One utf-32 decode of the concatenated batch, then k shifted
    multiply-adds build every sliding-window Horner value at once
    (uint64 wraparound IS the mod 2^64); windows that straddle doc
    boundaries exist in the global accumulator but are never selected.
    """
    from .sketch import _splitmix64
    from .text import _FP_PRIME

    n = len(texts)
    lens = np.fromiter((len(t) for t in texts), count=n, dtype=np.int64)
    counts = np.maximum(lens - k + 1, 1)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    out = np.zeros(int(offsets[-1]), dtype=np.uint64)
    if n == 0:
        return out, offsets
    cat = "".join(texts)
    cps = np.frombuffer(cat.encode("utf-32-le"), dtype="<u4").astype(np.uint64)
    text_starts = np.zeros(n, dtype=np.int64)
    np.cumsum(lens[:-1], out=text_starts[1:])
    with np.errstate(over="ignore"):
        pows = np.empty(k, dtype=np.uint64)
        pows[k - 1] = 1
        for j in range(k - 2, -1, -1):
            pows[j] = pows[j + 1] * _FP_PRIME
        nwin = len(cps) - k + 1
        acc = np.zeros(max(nwin, 0), dtype=np.uint64)
        for j in range(k):
            acc += cps[j : j + nwin] * pows[j]
        for i in range(n):
            if lens[i] >= k:
                s = text_starts[i]
                out[offsets[i] : offsets[i + 1]] = acc[s : s + lens[i] - k + 1]
            elif lens[i] > 0:  # whole-text Horner for short docs
                h = np.uint64(0)
                for c in cps[text_starts[i] : text_starts[i] + lens[i]]:
                    h = h * _FP_PRIME + c
                out[offsets[i]] = h
    return _splitmix64(out), offsets


def _doc_chunks(offsets: np.ndarray, max_items: int = 1 << 16):
    """Split a batch's doc range so each chunk holds ≤ max_items shingles
    (bounds the (shingles × perms) intermediate to a few tens of MB)."""
    n = len(offsets) - 1
    lo = 0
    while lo < n:
        hi = lo + 1
        while hi < n and offsets[hi + 1] - offsets[lo] <= max_items:
            hi += 1
        yield lo, hi
        lo = hi


def jaccard(a: str, b: str, k: int = 5) -> float:
    """True n-gram (character k-shingle) Jaccard similarity."""
    sa = {a[i : i + k] for i in range(max(len(a) - k + 1, 1))}
    sb = {b[i : i + k] for i in range(max(len(b) - k + 1, 1))}
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def _minhash_params(num_perm: int, seed: int = 5102020):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def minhash_signature(text: str, a: np.ndarray, b: np.ndarray, k: int = 5) -> np.ndarray:
    sh = _shingle_hashes(text, k).astype(np.uint64)
    # (a*x + b) mod p, vectorized over shingles × permutations
    prod = (np.outer(sh % _MERSENNE, a) + b) % _MERSENNE
    return prod.min(axis=0)


def minhash_signatures_batch(texts: list[str], a: np.ndarray, b: np.ndarray,
                             k: int = 5) -> np.ndarray:
    """(N, num_perm) signature matrix for a whole batch — one hash pass +
    one ``minimum.reduceat`` per memory-bounded chunk; elementwise equal
    to :func:`minhash_signature` per doc."""
    sh, offsets = _shingle_hashes_batch(texts, k)
    out = np.empty((len(texts), len(a)), dtype=np.uint64)
    for lo, hi in _doc_chunks(offsets):
        seg = sh[offsets[lo] : offsets[hi]]
        prod = (np.outer(seg % _MERSENNE, a) + b) % _MERSENNE
        out[lo:hi] = np.minimum.reduceat(prod, offsets[lo:hi] - offsets[lo], axis=0)
    return out


def _minhash_stage(ds, *, col: str, id_col: str, num_perm: int,
                   bands: int, shingle_k: int, side: int | None = None):
    """The shared MinHash front half: ``(sigs, banded)``.

    ``sigs`` is materialized ``(id_col, sig, __text)`` — signatures as
    plain bytes (a binary column shuffles and joins cleanly) with the
    text riding along, so the prefilter and the verify are served by
    the same two join-backs. ``banded`` is one narrow
    ``(band, band_hash, id_col)`` row per doc and band, tagged with
    ``SIDE_COL = side`` when ``side`` is given.
    """
    from ..temporal.core import SIDE_COL

    if num_perm % bands:
        raise ValueError("bands must divide num_perm")
    rows_per_band = num_perm // bands
    a, b = _minhash_params(num_perm)

    def to_sigs(batch: pd.DataFrame) -> pd.DataFrame:
        sigs = minhash_signatures_batch(list(batch[col]), a, b, shingle_k)
        return pd.DataFrame({id_col: batch[id_col].to_numpy(),
                             "sig": [s.tobytes() for s in sigs],
                             "__text": batch[col].to_numpy()})

    sigs = ds.map_batches(to_sigs, batch_format="pandas", batch_size=256).materialize()

    def to_bands(batch: pd.DataFrame) -> pd.DataFrame:
        sig = np.stack([np.frombuffer(s, dtype=np.uint64) for s in batch["sig"]])
        n = len(batch)
        bh = np.empty(bands * n, dtype=np.uint64)
        for bi in range(bands):
            seg = sig[:, bi * rows_per_band : (bi + 1) * rows_per_band]
            bh[bi * n : (bi + 1) * n] = pd.util.hash_pandas_object(
                pd.DataFrame(seg), index=False
            ).to_numpy()
        out = pd.DataFrame({"band": np.repeat(np.arange(bands), n), "band_hash": bh,
                            id_col: np.tile(batch[id_col].to_numpy(), bands)})
        if side is not None:
            out[SIDE_COL] = np.int8(side)
        return out

    return sigs, sigs.map_batches(to_bands, batch_format="pandas")


def _minhash_verified(cand, sigs_a, sigs_b, id_col: str, *, threshold: float,
                      shingle_k: int, num_partitions: int):
    """The shared MinHash back half: join both members' signature and
    text back onto the candidates, drop pairs whose signature agreement
    (the estimated Jaccard) is below ``threshold − 0.2``, then keep
    exact Jaccard ``>= threshold``. Output ``(id_a, id_b, jaccard)``;
    ``None`` when there are no candidates.

    The prefilter is the eager input filter of the verify: LSH buckets
    over repetitive corpora explode into 100k+ candidates, and exact
    set-based verification of each was the measured bottleneck. With
    64 permutations the estimate's σ ≈ 0.06, so the 0.2 margin keeps
    recall while dropping ~99% of false candidates.
    """
    joined = _join_back(cand, sigs_a, sigs_b, id_col, ["sig", "__text"],
                        num_partitions)
    if joined is None:
        return None
    est_cutoff = max(0.0, threshold - 0.2)

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        if not batch.empty:
            sa = np.stack([np.frombuffer(s, dtype=np.uint64) for s in batch["sig_a"]])
            sb = np.stack([np.frombuffer(s, dtype=np.uint64) for s in batch["sig_b"]])
            batch = batch[(sa == sb).mean(axis=1) >= est_cutoff]
        jac = np.array([jaccard(x, y, shingle_k)
                        for x, y in zip(batch["__text_a"], batch["__text_b"])],
                       dtype=np.float64)
        out = batch.loc[jac >= threshold, ["id_a", "id_b"]]
        out["jaccard"] = jac[jac >= threshold]
        return out

    return joined.map_batches(verify, batch_format="pandas")


def minhash_lsh_pairs(ds, *, col: str = "text", id_col: str = "doc_id",
                      num_perm: int = 64, bands: int = 16, shingle_k: int = 5,
                      threshold: float = 0.5, num_partitions: int = 64,
                      edges: str = "all",
                      max_bucket_pairs: int | None = _BUCKET_PAIR_CAP):
    """MinHash+LSH near-duplicate pairs with verified true Jaccard:
    shingle → minhash signatures per batch (vectorized) → band rows →
    ``_lsh_candidates`` → signature-agreement prefilter → exact Jaccard
    on the survivors (``_minhash_verified``). Returns
    ``(id_a, id_b, jaccard)``, ``id_a < id_b``.

    ``edges``/``max_bucket_pairs`` choose the hot-bucket rule (module
    docstring): ``"star"`` for a connected-components consumer
    (``minhash_dedup_groups``), ``"all"`` with a logged per-bucket cap
    for the pair surface.
    """
    sigs, banded = _minhash_stage(ds, col=col, id_col=id_col, num_perm=num_perm,
                                  bands=bands, shingle_k=shingle_k)
    cand = _lsh_candidates(banded, ["band", "band_hash"], id_col,
                           num_partitions=num_partitions, edges=edges,
                           max_pairs=max_bucket_pairs)
    pairs = _minhash_verified(cand, sigs, sigs, id_col, threshold=threshold,
                              shingle_k=shingle_k, num_partitions=num_partitions)
    return _empty_pairs_ds({"jaccard": "float64"}) if pairs is None else pairs


def ngram_jaccard_pairs(ds, *, col: str = "text", id_col: str = "doc_id",
                        threshold: float = 0.5, shingle_k: int = 5,
                        num_blocks: int = 8, num_partitions: int = 64):
    """EXACT all-pairs n-gram (character k-shingle) Jaccard ≥ threshold.

    Distributed block theta-join: every doc hashes to one of
    ``num_blocks`` blocks and is replicated to each block-PAIR group
    containing its block; each of the B(B+1)/2 groups computes the
    cross product of its two blocks locally (shingle sets built once
    per doc, a sound size-ratio prefilter skips pairs whose set sizes
    already bound Jaccard below threshold). One shuffle of B×corpus
    rows; compute is inherently O(N²) — this operator exists for
    exactness (and as the oracle-checkable member of the Jaccard
    family); MinHash-LSH is the sub-quadratic scale path. ``num_blocks``
    should scale ~√(cluster cores) so groups stay balanced.
    Returns (id_a, id_b, jaccard), id_a < id_b.
    """
    from ..temporal.core import partitioned_apply

    def scatter(batch: pd.DataFrame) -> pd.DataFrame:
        blk = (
            pd.util.hash_pandas_object(batch[id_col], index=False) % num_blocks
        ).astype("int64")
        frames = []
        for other in range(num_blocks):
            i = np.minimum(blk, other)
            j = np.maximum(blk, other)
            frames.append(pd.DataFrame({
                "grp": i * num_blocks + j,
                "blk": blk.to_numpy(),
                id_col: batch[id_col].to_numpy(),
                col: batch[col].to_numpy(),
            }))
        return pd.concat(frames, ignore_index=True).drop_duplicates(
            subset=["grp", id_col])

    def cross(group: pd.DataFrame) -> pd.DataFrame:
        res = []
        for grp, g in group.groupby("grp", sort=False):
            i, j = int(grp) // num_blocks, int(grp) % num_blocks
            g = g.drop_duplicates(subset=[id_col])
            sets = {int(r): {t[x : x + shingle_k]
                             for x in range(max(len(t) - shingle_k + 1, 1))}
                    for r, t in zip(g[id_col], g[col])}
            sizes = {d: len(s) for d, s in sets.items()}
            left = sorted(int(d) for d in g[g.blk == i][id_col])
            right = sorted(int(d) for d in g[g.blk == j][id_col])
            pairs = (
                [(a, b) for ai, a in enumerate(left) for b in left[ai + 1:]]
                if i == j else
                [(min(a, b), max(a, b)) for a in left for b in right]
            )
            for a_id, b_id in pairs:
                la, lb = sizes[a_id], sizes[b_id]
                if min(la, lb) < threshold * max(la, lb):
                    continue  # J <= min/max < threshold — sound skip
                inter = len(sets[a_id] & sets[b_id])
                jac = inter / (la + lb - inter)
                if jac >= threshold:
                    res.append((a_id, b_id, jac))
        if not res:
            return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64"),
                                 "jaccard": pd.Series([], dtype="float64")})
        out = pd.DataFrame(res, columns=["id_a", "id_b", "jaccard"])
        return out

    return partitioned_apply(ds.map_batches(scatter, batch_format="pandas"),
                             "grp", cross, num_partitions)


# ---------------------------------------------------------------- simhash


def simhash64(text: str, k: int = 4) -> int:
    """64-bit SimHash over character k-shingles (scalar reference)."""
    sh = _shingle_hashes(text, k)
    bits = ((sh[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(np.int64)
    v = (2 * bits - 1).sum(axis=0)
    out = np.uint64(0)
    for i in np.flatnonzero(v > 0):
        out |= np.uint64(1) << np.uint64(i)
    return int(out.astype(np.int64))


def simhash64_batch(texts: list[str], k: int = 4) -> np.ndarray:
    """SimHash for a whole batch: one shingle-hash pass, one
    unpackbits + ``add.reduceat`` per chunk, one packbits — elementwise
    equal to :func:`simhash64`. Returns int64 (two's-complement view)."""
    sh, offsets = _shingle_hashes_batch(texts, k)
    counts = np.diff(offsets)
    votes = np.empty((len(texts), 64), dtype=np.int64)
    for lo, hi in _doc_chunks(offsets, max_items=1 << 18):
        seg = sh[offsets[lo] : offsets[hi]]
        # little-endian uint64 → 64 bits, LSB first: bit j == (x >> j) & 1
        bits = np.unpackbits(seg.view(np.uint8).reshape(-1, 8),
                             axis=1, bitorder="little")
        votes[lo:hi] = np.add.reduceat(bits, offsets[lo:hi] - offsets[lo], axis=0)
    pos = (2 * votes - counts[:, None]) > 0
    packed = np.packbits(pos.astype(np.uint8), axis=1, bitorder="little")
    return packed.view(np.uint64).ravel().view(np.int64).copy()


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount for 64-bit integer arrays."""
    return np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)


def _hamming_pairs(hashed, id_col: str, *, max_hamming: int,
                   num_partitions: int, edges: str = "all",
                   max_pairs: int | None = None):
    """The 4×16-bit stage shared by simhash and the image hashes: band
    each 64-bit hash ``h`` (int64) of ``hashed`` into four 16-bit
    chunks — pigeonhole: hamming ≤ 3 ⇒ one chunk agrees, so banding
    loses no pair — pair every bucket through ``_lsh_candidates``
    (8-byte rows; the hash rides along) and keep the pairs whose
    popcount(xor) ≤ ``max_hamming``, verified inside the bucket.
    Output ``(id_a, id_b, hamming)``. Raises ``ValueError`` for
    ``max_hamming`` > 3, where banding would silently miss pairs."""
    if not 0 <= max_hamming <= 3:
        raise ValueError("banded pigeonhole is lossless only for "
                         f"max_hamming <= 3, got {max_hamming}")

    def to_bands(batch: pd.DataFrame) -> pd.DataFrame:
        h = np.repeat(batch["h"].to_numpy(np.int64), 4)
        band = np.tile(np.arange(4, dtype=np.int64), len(batch))
        bh = (h.view(np.uint64) >> (16 * band).astype(np.uint64)) & np.uint64(0xFFFF)
        return pd.DataFrame({"band": band, "bh": bh.astype(np.int64),
                             id_col: np.repeat(batch[id_col].to_numpy(), 4),
                             "sig": h})

    def verify(pairs: pd.DataFrame, rows: pd.DataFrame) -> pd.DataFrame:
        sig = rows.drop_duplicates(id_col).set_index(id_col)["sig"]
        x = (pairs["id_a"].map(sig).to_numpy(np.int64)
             ^ pairs["id_b"].map(sig).to_numpy(np.int64))
        ham = _popcount64(x).astype(np.int64)
        return pairs.assign(hamming=ham)[ham <= max_hamming]

    return _lsh_candidates(hashed.map_batches(to_bands, batch_format="pandas"),
                           ["band", "bh"], id_col, num_partitions=num_partitions,
                           edges=edges, max_pairs=max_pairs, verify=verify)


def simhash_pairs(ds, *, col: str = "text", id_col: str = "doc_id",
                  max_hamming: int = 3, shingle_k: int = 4, num_partitions: int = 64):
    """SimHash near-dup pairs: the 64-bit simhash per doc through the
    4×16-bit stage (``_hamming_pairs``: every in-bucket pair, exact
    hamming verify; ``max_hamming`` > 3 raises ``ValueError``). Returns
    (id_a, id_b, hamming)."""

    def to_hash(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({id_col: batch[id_col].to_numpy(),
                             "h": simhash64_batch(list(batch[col]), shingle_k)})

    return _hamming_pairs(ds.map_batches(to_hash, batch_format="pandas"), id_col,
                          max_hamming=max_hamming, num_partitions=num_partitions)


# ------------------------------------------ near-dup clusters (conn. comp.)


def neardup_groups(pairs_ds, *, num_partitions: int = 64, max_rounds: int = 30):
    """Connected components over near-duplicate pairs → (id, group_id).

    Distributed hash-min label propagation with pointer-doubling
    shortcuts: labels stay a Dataset end to end (never collected to the
    driver). Each round is ONE chained streaming execution of three
    hash shuffles:

    1. key=node — co-locate every node's label with its edges; emit the
       label to each neighbor, to the node itself (carrying the old
       label), and a *request* to the label's own group (the
       pointer-doubling message: "what is my label's label?");
    2. key=dest — per node, provisional label = min(received); answer
       the requests that landed here with it;
    3. key=node — final label = min(provisional, answers); flag
       ``changed``.

    The request/answer pass makes convergence O(log diameter), so long
    chains cannot exhaust ``max_rounds``; if rounds run out anyway this
    RAISES instead of silently returning half-propagated groups (the
    "keep id == group_id" rule downstream depends on correct labels).
    Convergence is checked with a scalar count per round. ``group_id``
    is the minimum member id.
    """
    import pyarrow as pa

    from ..temporal.core import partitioned_apply

    def to_edges(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids_a, ids_b = t["id_a"], t["id_b"]
        return pa.table({
            "node": pa.concat_arrays([pc.cast(c, pa.int64()).combine_chunks()
                                      for c in (ids_a, ids_b)]),
            "peer": pa.concat_arrays([pc.cast(c, pa.int64()).combine_chunks()
                                      for c in (ids_b, ids_a)]),
        })

    edges = pairs_ds.select_columns(["id_a", "id_b"]).map_batches(
        to_edges, batch_format="pyarrow"
    ).materialize()
    n_edge_rows = edges.count()
    if n_edge_rows == 0:
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame({"id": pd.Series([], dtype="int64"),
                                            "group_id": pd.Series([], dtype="int64")}))

    # size the loop's exchanges from the ACTUAL edge count, not the
    # caller's corpus-sized hint: dup edges are a tiny fraction of the
    # corpus, and every label-propagation round pays 3 shuffles whose
    # fixed cost scales with partition count and input block count —
    # 38 edges over 64 partitions × fragmented union blocks measured
    # 134 s at sf0.1 vs ~3 s right-sized.  num_partitions stays the
    # UPPER bound, so giant edge sets still spread.
    num_partitions = max(1, min(num_partitions,
                                -(-n_edge_rows // 65_536)))
    if edges.num_blocks() > 4 * num_partitions:
        edges = edges.repartition(num_partitions).materialize()

    # initial labels: every node labels itself (distinct nodes via the
    # same two-phase dedup shuffle as dedup_exact)
    labels = dedup_exact(edges, col="node", id_col="node",
                         num_partitions=num_partitions).map_batches(
        lambda df: df.drop_duplicates(subset=["node"])[["node"]].assign(
            label=lambda d: d.node),
        batch_format="pandas",
    ).materialize()

    _K_LAB, _K_EDGE, _K_MSG, _K_ID, _K_REQ, _K_PROV, _K_ANS = range(7)

    def scatter(group: pd.DataFrame) -> pd.DataFrame:
        lab = group[group.kind == _K_LAB]
        edge = group[group.kind == _K_EDGE]
        to_peers = edge.merge(lab[["key", "a"]].rename(columns={"a": "label"}),
                              on="key")  # (key=node, a=peer, label)
        out = [
            pd.DataFrame({"key": to_peers.a, "kind": _K_MSG, "a": to_peers.label,
                          "b": -1}),
            pd.DataFrame({"key": lab.key, "kind": _K_ID, "a": lab.a, "b": lab.a}),
        ]
        req = lab[lab.a != lab.key]
        if len(req):
            out.append(pd.DataFrame({"key": req.a, "kind": _K_REQ, "a": req.key,
                                     "b": -1}))
        return pd.concat(out, ignore_index=True)

    def gather(group: pd.DataFrame) -> pd.DataFrame:
        recv = group[group.kind.isin((_K_MSG, _K_ID))]
        prov = recv.groupby("key", as_index=False)["a"].min().rename(
            columns={"a": "prov"})
        ids = group[group.kind == _K_ID][["key", "b"]].rename(columns={"b": "old"})
        prov = prov.merge(ids, on="key")
        out = [pd.DataFrame({"key": prov.key, "kind": _K_PROV, "a": prov.prov,
                             "b": prov.old})]
        req = group[group.kind == _K_REQ]
        if len(req):
            ans = req.merge(prov[["key", "prov"]], on="key")
            out.append(pd.DataFrame({"key": ans.a, "kind": _K_ANS, "a": ans.prov,
                                     "b": -1}))
        return pd.concat(out, ignore_index=True)

    def resolve(group: pd.DataFrame) -> pd.DataFrame:
        new = group.groupby("key", as_index=False)["a"].min().rename(
            columns={"a": "label"})
        old = group[group.kind == _K_PROV][["key", "b"]].rename(columns={"b": "old"})
        new = new.merge(old, on="key")
        return pd.DataFrame({"node": new.key, "label": new.label,
                             "changed": new.label != new.old})

    lab_rows = None
    edge_rows = edges.map_batches(
        lambda df: pd.DataFrame({"key": df.node, "kind": _K_EDGE, "a": df.peer,
                                 "b": -1}),
        batch_format="pandas",
    ).materialize()

    for _round in range(max_rounds):
        lab_rows = labels.map_batches(
            lambda df: pd.DataFrame({"key": df.node, "kind": _K_LAB, "a": df.label,
                                     "b": -1}),
            batch_format="pandas",
        )
        stage = partitioned_apply(lab_rows.union(edge_rows), "key", scatter,
                                  num_partitions=num_partitions)
        stage = partitioned_apply(stage, "key", gather, num_partitions=num_partitions)
        new_labels = partitioned_apply(stage, "key", resolve,
                                       num_partitions=num_partitions).materialize()
        changed = new_labels.map_batches(
            lambda df: df[df.changed][["node"]], batch_format="pandas"
        ).count()
        labels = new_labels.map_batches(
            lambda df: df[["node", "label"]], batch_format="pandas"
        ).materialize()
        if changed == 0:
            break
    else:
        raise RuntimeError(
            f"neardup_groups did not converge in {max_rounds} rounds — "
            "pathological component structure; raise max_rounds"
        )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df.rename(columns={"node": "id", "label": "group_id"})
        # empty shuffle partitions can upcast the label to float64 — restore
        out["id"] = out["id"].astype("int64")
        out["group_id"] = out["group_id"].astype("int64")
        return out

    return labels.map_batches(finish, batch_format="pandas")


# ------------------------------------------------- embedding cosine dedup


def embedding_neardup_pairs(ds, *, vec_col: str = "embedding", id_col: str = "vec_id",
                            threshold: float = 0.95, mode: str = "lsh",
                            bands: int = 16, band_bits: int = 8,
                            num_partitions: int = 64, seed: int = 5102020):
    """Near-duplicate pairs by embedding cosine ≥ threshold.

    ``mode="lsh"`` (default, the scale path): random-hyperplane sign
    sketches — ``bands`` bands of ``band_bits`` projection signs each;
    two vectors land in the same bucket for a band iff all its signs
    agree, and exact cosine runs only on bucket-derived candidate
    pairs. A true pair is missed only if every band splits it: for
    cosine ≥ 0.95 the per-band hit rate is (1 − θ/π)^8 ≈ 0.43, so 16
    bands give recall ≈ 1 − 0.57^16 > 0.9998 (exact duplicates are
    always caught — identical vectors sign identically). Only narrow
    ``(band, bucket, id)`` rows cross the band exchange; the normalized
    vectors are joined back to the candidates (``_join_back``) and
    cosine is one rowwise dot per batch.

    ``mode="exact"``: the quadratic broadcast baseline — the normalized
    corpus matrix is shipped once via ray.put and each batch computes
    one matmul block. Only for corpora that fit one node; the oracle
    baseline for the LSH path's recall tests.
    """
    if mode == "exact":
        return _embedding_neardup_exact(ds, vec_col, id_col, threshold)

    def to_norm(batch: pd.DataFrame) -> pd.DataFrame:
        q = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        q /= np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
        return pd.DataFrame({id_col: batch[id_col].to_numpy(),
                             "vec": [v.tobytes() for v in q]})

    # one derived corpus copy in the object store (spillable), reused by
    # the band stage and both join-back sides
    vec_ds = ds.map_batches(to_norm, batch_format="pandas").materialize()
    # size every downstream exchange from the MATERIALIZED corpus count
    # (free after materialize) rather than the caller's corpus-scale
    # hint — 64-way exchanges on a 2k-row table are fixed overhead
    # (the multimodal_dedup_groups lesson)
    num_partitions = min(num_partitions,
                         max(8, vec_ds.count() // 50_000 + 1))

    def to_bands(batch: pd.DataFrame) -> pd.DataFrame:
        q = np.stack([np.frombuffer(v, dtype=np.float64) for v in batch["vec"]])
        # planes built once per worker process (cached by content key),
        # not once per batch — same pattern as the JPEG LUT cache
        planes = _lsh_planes(seed, q.shape[1], bands * band_bits)
        bits = (q @ planes >= 0).astype(np.uint8)  # (n, bands*band_bits)
        n = len(batch)
        keys = np.empty(bands * n, dtype=np.int64)
        for bi in range(bands):
            seg = bits[:, bi * band_bits : (bi + 1) * band_bits]
            keys[bi * n : (bi + 1) * n] = np.packbits(
                seg, axis=1, bitorder="little")[:, 0].astype(np.int64)
        return pd.DataFrame({"band": np.repeat(np.arange(bands), n), "bucket": keys,
                             id_col: np.tile(batch[id_col].to_numpy(), bands)})

    cand = _lsh_candidates(vec_ds.map_batches(to_bands, batch_format="pandas"),
                           ["band", "bucket"], id_col, num_partitions=num_partitions)
    joined = _join_back(cand, vec_ds, vec_ds, id_col, ["vec"], num_partitions)
    if joined is None:
        return _empty_pairs_ds({"cosine": "float64"})

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64"),
                                 "cosine": pd.Series([], dtype="float64")})
        va = np.stack([np.frombuffer(v, dtype=np.float64) for v in batch["vec_a"]])
        vb = np.stack([np.frombuffer(v, dtype=np.float64) for v in batch["vec_b"]])
        cos = np.einsum("ij,ij->i", va, vb)
        out = batch.loc[cos >= threshold, ["id_a", "id_b"]].copy()
        out["cosine"] = cos[cos >= threshold]
        return out

    return joined.map_batches(verify, batch_format="pandas")


_PLANES_CACHE: dict[tuple, np.ndarray] = {}


def _lsh_planes(seed: int, dim: int, nbits: int) -> np.ndarray:
    """Deterministic random-hyperplane matrix, built once per worker
    process per (seed, dim, nbits) — hoisted out of the per-batch fn."""
    key = (seed, dim, nbits)
    hit = _PLANES_CACHE.get(key)
    if hit is None:
        hit = np.random.default_rng(seed).standard_normal((dim, nbits))
        if len(_PLANES_CACHE) < 16:
            _PLANES_CACHE[key] = hit
    return hit


def _embedding_neardup_exact(ds, vec_col: str, id_col: str, threshold: float):
    import ray

    mat_pdf = ds.to_pandas()
    ids = mat_pdf[id_col].to_numpy()
    m = np.stack(mat_pdf[vec_col].to_numpy()).astype(np.float64)
    m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
    ref = ray.put((ids, m))

    def block(batch: pd.DataFrame) -> pd.DataFrame:
        all_ids, mat = ray.get(ref)
        q = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        q /= np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
        sims = q @ mat.T
        bi = batch[id_col].to_numpy()
        rows, cols = np.nonzero(sims >= threshold)
        ia, ib = bi[rows], all_ids[cols]
        keep = ia < ib  # upper triangle only; also drops self-pairs
        return pd.DataFrame({"id_a": ia[keep], "id_b": ib[keep],
                             "cosine": sims[rows, cols][keep]})

    return ds.map_batches(block, batch_format="pandas")


# --------------------------------------------- sub-document (segment) dedup


def paragraph_dedup(ds, *, col: str = "text", id_col: str = "doc_id",
                    words_per_segment: int = 10):
    """Sub-document global exact dedup with document reconstruction —
    the C4/RefinedWeb "drop duplicated paragraphs from every page" step
    re-expressed Ray-Data-first.

    A *segment* is ``words_per_segment`` consecutive whitespace tokens
    (this corpus carries no newline paragraph marks, so the
    segmentation rule is a parameter, not a semantic commitment; a
    trailing short segment is kept as-is).  Keep rule: a segment
    instance survives iff its ``(doc_id, seg_idx)`` is the global
    minimum order key among all instances of that exact text; documents
    whose every segment is a duplicate drop out entirely.

    Shape (two shuffles, no join): vectorized explode (one ListArray
    re-chunk + ``binary_join`` per batch — no per-word Python) → ONE
    global ``groupby(seg).min(order_key)`` whose winners are decoded
    *arithmetically* from the min key (doc = key >> 20, idx = key &
    0xFFFFF), so no join-back ships the corpus a second time → ordered
    per-document reassembly.  Only ``(seg, order_key)`` rows cross the
    first exchange; group sizes in the second are bounded by document
    length.  (No reference counterpart — the reference has no text
    dedup at all; the within-batch image memo at
    ``/root/reference/pic2vec/feature_preprocessing.py:434`` is its
    closest idea.)
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    K = int(words_per_segment)
    IDX_BITS = 20

    def explode(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        words = pc.split_pattern(t[col].combine_chunks().cast(pa.string()), " ")
        off = words.offsets.to_numpy().astype(np.int64)
        counts = np.diff(off)
        nseg = -(-counts // K)  # ceil; split() yields >=1 word, so >=1 seg
        total = int(nseg.sum())
        seg_doc = np.repeat(np.arange(len(ids)), nseg)
        prefix = np.concatenate([[0], np.cumsum(nseg)[:-1]])
        seg_idx = np.arange(total) - prefix[seg_doc]
        if total and seg_idx.max() >= (1 << IDX_BITS):
            raise ValueError("document exceeds 2^20 segments")
        if len(ids) and ids.max() >= (1 << (63 - IDX_BITS)):
            raise ValueError(
                f"{id_col} exceeds 2^{63 - IDX_BITS}; packed (id<<"
                f"{IDX_BITS})|seg order key would overflow int64")
        if len(ids) and ids.min() < 0:
            raise ValueError(f"{id_col} must be non-negative for packing")
        starts = off[seg_doc] + seg_idx * K
        seg_lists = pa.ListArray.from_arrays(
            pa.array(np.append(starts, off[-1]), pa.int32()), words.values)
        seg_text = pc.binary_join(seg_lists, " ")
        okey = (ids[seg_doc] << IDX_BITS) | seg_idx
        return pa.table({"seg": seg_text, "okey": pa.array(okey, pa.int64())})

    from ..temporal.core import DEFAULT_PARTITIONS, partitioned_apply

    segs = ds.map_batches(explode, batch_format="pyarrow")

    # both merges go through the hash-partition + vectorized-local-
    # groupby path: Ray's sort-aggregate on the high-cardinality `seg`
    # key measured 13 s at sf0.1 where this shape runs in ~3 s
    def keep_min(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("seg", as_index=False)["okey"].min()
        fk = g["okey"].to_numpy()
        return pd.DataFrame({
            id_col: fk >> IDX_BITS,
            "seg_idx": fk & ((1 << IDX_BITS) - 1),
            "seg": g["seg"],
        })

    winners = partitioned_apply(segs, "seg", keep_min, DEFAULT_PARTITIONS)

    def rebuild(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([id_col, "seg_idx"], kind="mergesort")
        g = (df.groupby(id_col, sort=False)["seg"].agg(" ".join)
               .rename("clean_text").reset_index())
        return g

    return partitioned_apply(winners, id_col, rebuild, DEFAULT_PARTITIONS)


def dedup_incremental(new_ds, seen_ds, *, id_col: str = "doc_id",
                      num_partitions: int | None = None):
    """Incremental (cross-snapshot) exact dedup — the production shape
    for daily crawl updates: keep only NEW documents whose fingerprint
    appears neither in the already-ingested corpus nor earlier within
    the new batch itself.

    Shape: fingerprint both sides (``stages/text.fingerprint64``, the
    SQL-replayable Horner hash — shuffle-free), self-dedup the new
    batch with ONE ``groupby(fingerprint).min(id)`` (one row per
    distinct fingerprint crosses the exchange), then ANTI hash-join the
    winners against the seen side's ``(fingerprint)`` rows — the seen
    corpus streams through the join as narrow 8-byte keys, never
    text.  Output: ``(id_col, fingerprint)`` of the surviving new
    documents; persist it (or union it into the seen index) to advance
    the snapshot.
    """
    from ..temporal.join import hash_join
    from .text import fingerprint64

    def fp(ds, cols):
        return (ds.map_batches(fingerprint64, batch_format="pandas")
                  .map_batches(lambda df: df[cols], batch_format="pandas"))

    from ..temporal.core import DEFAULT_PARTITIONS, partitioned_apply

    new_fp = fp(new_ds, [id_col, "fingerprint"])
    seen_fp = fp(seen_ds, ["fingerprint"])

    # hash-partition + local min, not a Ray sort-aggregate — the
    # fingerprint key is per-document cardinality (see BASELINE.md's
    # high-cardinality-merge audit)
    def keep_min(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("fingerprint", as_index=False)[id_col].min()

    # materialize: a lazy shuffle output re-executes upstream when
    # the join resolves schemas (see round-2 notes)
    firsts = partitioned_apply(new_fp, "fingerprint", keep_min,
                               DEFAULT_PARTITIONS).materialize()
    kwargs = {"num_partitions": num_partitions} if num_partitions else {}
    return hash_join(firsts, seen_fp, on="fingerprint", how="anti", **kwargs)


# ---------------------------------------- duplicated-span detection
# (content-defined fingerprinting / winnowing — Schleimer et al.'s
# MOSS scheme: anchors selected by CONTENT (k-gram hash % sel_mod == 0)
# align across copies of a span regardless of byte offset, which fixed
# -stride sampling cannot do. The practical substitute for suffix-array
# substring dedup at corpus scale: one streaming pass, no global sort.)


def winnow_fingerprints_batch(texts: list[str], *, k: int = 8,
                              sel_mod: int = 16, window: int = 64):
    """Content-defined window fingerprints of a batch.

    Anchors = positions whose k-gram hash (the SQL-pinned
    splitmix64(Horner) shingle kernel) is ≡ 0 mod ``sel_mod`` and
    whose ``window``-char window stays inside the doc; fingerprint =
    the same kernel over the window text. Expected anchor density is
    ``1/sel_mod`` per char, so a duplicated span of length ≥ roughly
    ``window + sel_mod·k`` chars shares at least one fingerprint
    between its copies with high probability — and EVERY shared
    fingerprint is a true 64-bit window-hash match.

    Returns ``(doc_idx, pos, fp)`` numpy arrays (pos 0-based).
    """
    from .sketch import _splitmix64, _token_hash64

    hashes, offsets = _shingle_hashes_batch(texts, k)
    n = len(texts)
    lens = np.fromiter((len(t) for t in texts), count=n, dtype=np.int64)
    counts = np.diff(offsets)
    doc_of = np.repeat(np.arange(n, dtype=np.int64), counts)
    pos = np.arange(len(hashes), dtype=np.int64) - np.repeat(offsets[:-1], counts)
    valid = ((hashes % np.uint64(sel_mod) == 0)
             & (lens[doc_of] >= k)
             & (pos + window <= lens[doc_of]))
    a_doc, a_pos = doc_of[valid], pos[valid]
    wins = np.array([texts[d][p:p + window]
                     for d, p in zip(a_doc, a_pos)], dtype=object)
    with np.errstate(over="ignore"):
        fp = _splitmix64(_token_hash64(wins)) if len(wins) else \
            np.zeros(0, dtype=np.uint64)
    return a_doc, a_pos, fp.view(np.int64)


def substring_dup_pairs(ds, *, col: str = "text", id_col: str = "doc_id",
                        k: int = 8, sel_mod: int = 16, window: int = 64,
                        num_partitions: int = 64):
    """Cross-document duplicated-span candidate pairs: documents
    sharing ≥ 1 content-defined window fingerprint, with the count of
    DISTINCT shared fingerprints per pair (a proxy for total
    duplicated length: ≈ ``shared_spans × sel_mod`` chars).

    Plan: per-batch winnowing (vectorized shingle scan; anchors ~1/
    ``sel_mod`` of chars) → distinct (doc, fp) rows → ``_lsh_candidates``
    with the fingerprint as the bucket (8-byte rows, never text), whose
    pair-key exchange counts the shared fingerprints. Output: ``id_a <
    id_b``, ``shared_spans`` (int64). The SQL oracle replays anchors,
    window hashes and the pair join bit-for-bit.
    """

    def fps(batch: pd.DataFrame) -> pd.DataFrame:
        doc_idx, _pos, fp = winnow_fingerprints_batch(
            batch[col].tolist(), k=k, sel_mod=sel_mod, window=window)
        return pd.DataFrame({id_col: batch[id_col].to_numpy()[doc_idx],
                             "fp": fp}).drop_duplicates()

    return _lsh_candidates(ds.map_batches(fps, batch_format="pandas"), ["fp"],
                           id_col, num_partitions=num_partitions,
                           count_col="shared_spans")


def _image_hashes(ds, bytes_col: str, id_col: str):
    """The decode stage shared by the image operators: decode each row
    (from-scratch codecs) and keep ``(id_col, h)``, ``h`` the 64-bit
    average hash as int64; rows that do not decode drop out."""
    from ..functions.image_ops import average_hash
    from .decode import BatchDecoder

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        images, missing = BatchDecoder().decode_column(batch[bytes_col].tolist())
        return pd.DataFrame({
            id_col: batch[id_col].to_numpy()[~missing],
            "h": np.array([average_hash(im) for im in images if im is not None],
                          dtype=np.int64),
        })

    return ds.map_batches(fn, batch_format="pandas", batch_size=128)


def image_neardup_pairs(ds, *, bytes_col: str = "bytes",
                        id_col: str = "image_id", max_hamming: int = 3,
                        num_partitions: int = 64):
    """Near-duplicate IMAGE pairs by perceptual-hash banding — the
    image-axis counterpart of :func:`simhash_pairs`: the 64-bit average
    hash per decoded row through the 4×16-bit stage
    (``_hamming_pairs``, every in-bucket pair under the per-bucket
    cap). ``id_col`` may hold strings. Output: ``id_a < id_b``,
    ``hamming`` (int64).

    No driver oracle: the synthetic corpus's perceptual hashes collide
    structurally (uniform/flat images share hashes), so there is no
    closed-form expected pair set — correctness is pinned by pytest on
    planted noisy duplicates instead (``test_round4_ops.py``).
    """
    return _hamming_pairs(_image_hashes(ds, bytes_col, id_col), id_col,
                          max_hamming=max_hamming, num_partitions=num_partitions,
                          max_pairs=_BUCKET_PAIR_CAP)


def image_neardup_groups(ds, *, bytes_col: str = "bytes",
                         id_col: str = "img_key", max_hamming: int = 3,
                         num_partitions: int = 64):
    """Near-duplicate IMAGE groups: perceptual-hash connected components
    — the image-axis counterpart of ``minhash_dedup_groups`` (rounds
    out image dedup past :func:`image_neardup_pairs`'s pair surface).
    ``id_col`` must be int64 (``neardup_groups``' node ids).

    Exactness + scale both come from an EXACT-COLLAPSE first phase:
    identical 64-bit hashes are collapsed to their min-id
    representative with one hash-partitioned exchange of (hash, id)
    rows, emitting ``m − 1`` star edges per identical-hash cluster —
    hamming 0, no verify needed, LINEAR where the pair enumeration of
    a 2,667-member solid-image cluster (the sf0.1 corpus's real shape)
    would be ~3.5M pairs. Banding then runs over DISTINCT hashes only
    (``_hamming_pairs``), in-bucket pairs are hamming-verified between
    representatives, and the components of (star ∪ verified-rep) edges
    equal the components of the full hamming ≤ ``max_hamming`` graph:
    members of an identical-hash cluster are interchangeable ⇒ edges
    through the representative preserve exactly the connectivity the
    full pair set has.

    Output: ``(id, group_id)`` for every image in a ≥2-member group,
    ``group_id`` = min member id (``neardup_groups``' label rule).
    Like ``image_neardup_pairs`` there is no SQL oracle — the phash
    depends on generator noise — so the query surface entry is
    rows-only and the semantics are pinned by the planted-cluster
    pytest (``tests/test_image_groups.py``).

    The representative buckets are paired by the star rule, fixed:
    (bucket-min rep, other) only, m−1 candidates per bucket, with the
    trade of the module docstring — a star edge failing the hamming
    verify can sever a B–C link full enumeration would keep. Star is
    what keeps hot buckets linear: the synthetic sf0.1 images
    concentrate 11k distinct hashes into ~150 buckets per band, 18.8M
    all-pairs candidates (measured).
    """
    from ..temporal.core import partitioned_apply

    hashed = _image_hashes(ds, bytes_col, id_col).materialize()

    # Every downstream exchange moves (id, h) scalar rows — size the
    # partition count from the MATERIALIZED hash-row count, not the
    # caller's corpus-scale hint (the multimodal_dedup_groups lesson:
    # 64-way exchanges on a 17k-row table are pure fixed overhead).
    num_partitions = min(num_partitions,
                         max(16, hashed.count() // 50_000 + 1))

    # phase 1 — exact collapse: min-id representative per identical
    # hash; star edges cover within-cluster connectivity at hamming 0
    def collapse(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(id_col, kind="mergesort")
        rep = g.groupby("h", sort=False)[id_col].transform("min")
        out = pd.DataFrame({"id_a": rep.to_numpy(np.int64),
                            "id_b": g[id_col].to_numpy(np.int64),
                            "h": g["h"].to_numpy(np.int64)})
        return out  # rep -> member rows; rep -> rep rows mark the rep

    collapsed = partitioned_apply(hashed, "h", collapse,
                                  num_partitions=num_partitions).materialize()

    star = collapsed.filter(expr="id_a != id_b").select_columns(["id_a", "id_b"])
    reps = collapsed.filter(expr="id_a == id_b")

    # phase 2 — banding over DISTINCT hashes only (tiny buckets by
    # construction), exact in-bucket hamming verify between reps
    rep_edges = _hamming_pairs(reps, "id_a", max_hamming=max_hamming,
                               num_partitions=num_partitions, edges="star")
    return neardup_groups(star.union(rep_edges.select_columns(["id_a", "id_b"])),
                          num_partitions=num_partitions)


def snapshot_diff(old_ds, new_ds, *, id_col: str = "doc_id",
                  num_partitions: int = 64):
    """Corpus snapshot diff — the data-versioning audit between two
    crawl/ingest versions: classify every id as ``added`` (new only),
    ``removed`` (old only) or ``changed`` (present in both with a
    different content fingerprint); unchanged rows are dropped (the
    diff, not the union). Both sides reduce to (id, 8-byte
    fingerprint) rows shuffle-free (``stages/text.fingerprint64``),
    then ONE full-outer hash join on the id classifies everything —
    text never crosses an exchange. Output: ``id_col``, ``status``.
    """
    import pyarrow as pa

    from ..temporal.join import hash_join
    from .text import fingerprint64

    def fp(ds, name):
        def pick(df: pd.DataFrame) -> pd.DataFrame:
            out = df[[id_col, "fingerprint"]].copy()
            return out.rename(columns={"fingerprint": name})
        return ds.map_batches(fingerprint64, batch_format="pandas") \
                 .map_batches(pick, batch_format="pandas")

    joined = hash_join(fp(old_ds, "fp_old"), fp(new_ds, "fp_new"),
                       on=id_col, how="outer",
                       num_partitions=num_partitions)

    def classify(df: pd.DataFrame) -> pa.Table:
        # fingerprints arrive as NULLABLE Int64 (exact — the join's
        # typed-null restore; a float64 upcast would corrupt hashes
        # beyond 2^53); compare via plain bool arrays, never NA bools
        added = df["fp_old"].isna().to_numpy()
        removed = df["fp_new"].isna().to_numpy()
        differ = (df["fp_old"].fillna(0) != df["fp_new"].fillna(0)).to_numpy()
        status = np.where(added, "added",
                          np.where(removed, "removed",
                                   np.where(differ, "changed", "unchanged")))
        keep = status != "unchanged"
        # typed Arrow, so an all-unchanged block is an empty int64/string
        # table rather than an empty object column
        return pa.table({id_col: pa.array(df[id_col].to_numpy("int64")[keep], pa.int64()),
                         "status": pa.array(status[keep], pa.string())})

    return joined.map_batches(classify, batch_format="pandas")
