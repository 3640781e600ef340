"""Text-analysis stages: stats/quality scoring, token counting,
language ID, document fingerprinting (training-data-pipeline operators
beyond the reference; each is a vectorized pandas/numpy map_batches
body, stateful pieces (compiled regexes, frequency tables) built once
per actor in ``__init__``)."""

from __future__ import annotations

import math
import re

import numpy as np
import pandas as pd

_WS = re.compile(r"\S+")
_WORD = re.compile(r"\w+", re.UNICODE)
_PUNCT = re.compile(r"[^\w\s]")
_BPE_ISH = re.compile(r"\w+|[^\w\s]")  # word-or-single-punct, a BPE-ish pretokenizer

STOPWORDS = frozenset(
    "the a an and or of to in is are was were be been it this that for on with as at by from".split()
)


class TextStats:
    """Per-doc stats + quality score. Actor-pool stage
    (``map_batches(TextStats, concurrency=N, batch_format="pandas")``).

    Columns emitted (all named to match the oracle SQL):
    n_chars_calc, n_tokens (whitespace), n_words, n_punct, punct_ratio,
    stopword_ratio, avg_word_len, quality_score.
    """

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        s = batch["text"]
        batch["n_chars_calc"] = s.str.len().astype("int64")
        batch["n_tokens"] = s.str.count(_WS).astype("int64")
        batch["n_words"] = s.str.count(_WORD).astype("int64")
        batch["n_punct"] = s.str.count(_PUNCT).astype("int64")
        nc = batch["n_chars_calc"].to_numpy().astype(np.float64)
        batch["punct_ratio"] = batch["n_punct"] / np.maximum(nc, 1.0)
        # explode+groupby keeps the whole batch in pandas kernels (no
        # per-row Python lambdas): one stopword-membership pass and one
        # char-length pass over all words of the batch at once
        words = s.str.lower().str.findall(_WORD)
        exploded = words.explode()
        grp = exploded.index
        stop_counts = exploded.isin(STOPWORDS).groupby(grp).sum().reindex(
            batch.index, fill_value=0)
        word_chars = exploded.str.len().fillna(0).groupby(grp).sum().reindex(
            batch.index, fill_value=0)
        n_words = np.maximum(batch["n_words"].to_numpy(), 1)
        batch["stopword_ratio"] = stop_counts.to_numpy() / n_words
        batch["avg_word_len"] = word_chars.to_numpy() / n_words
        # simple quality heuristic: long-enough, low punct, some stopwords
        batch["quality_score"] = (
            np.clip(nc / 200.0, 0, 1) * 0.4
            + (1.0 - np.clip(batch["punct_ratio"].to_numpy() * 5, 0, 1)) * 0.3
            + np.clip(batch["stopword_ratio"].to_numpy() * 4, 0, 1) * 0.3
        )
        return batch


def count_tokens_bpe_ish(batch: pd.DataFrame) -> pd.DataFrame:
    """Token counting with a BPE-ish pretokenizer regex (word or single
    punctuation char), vectorized via Series.str.count."""
    batch["n_bpe_tokens"] = batch["text"].str.count(_BPE_ISH).astype("int64")
    return batch


class LangId:
    """n-gram/stopword-heuristic language ID (no model libs available).

    Scores per language = stopword-hit-rate using small public stopword
    lists; emits ``lang_pred`` and ``lang_conf``. Accuracy is checked
    in pytest against the documents table's ``lang`` column; not
    SQL-expressible, so its queries() entry is rows-only checked.
    """

    LANG_STOPWORDS = {
        "en": frozenset("the and of to in is a that it for on with as at".split()),
        "de": frozenset("der die das und ist ein eine zu den von mit für auf".split()),
        "fr": frozenset("le la les et de un une est pour dans que sur avec".split()),
        "es": frozenset("el la los las y de un una es para en que con por".split()),
    }

    def __init__(self):
        self.word = _WORD

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        # vectorized scoring: explode the batch's words once, one isin
        # pass per language, groupby-sum back to rows, argmax across the
        # (rows × langs) rate matrix (first-max ties == the scalar
        # strict-> iteration order)
        words = batch["text"].str.lower().str.findall(self.word)
        exploded = words.explode()
        grp = exploded.index
        n = words.str.len().to_numpy().astype(np.float64)
        rates = np.zeros((len(batch), len(self.LANG_STOPWORDS)))
        langs = list(self.LANG_STOPWORDS)
        for j, lang in enumerate(langs):
            hits = exploded.isin(self.LANG_STOPWORDS[lang]).groupby(grp).sum()
            rates[:, j] = hits.reindex(batch.index, fill_value=0).to_numpy() \
                / np.maximum(n, 1.0)
        best = rates.argmax(axis=1)
        best_r = rates[np.arange(len(batch)), best]
        pred = np.array(langs, dtype=object)[best]
        pred[best_r <= 0.01] = "und"
        batch["lang_pred"] = pred
        batch["lang_conf"] = best_r
        return batch


_FP_PRIME = np.uint64(1099511628211)  # FNV-1 prime: odd → bijective step mod 2^64


def fingerprint64(batch: pd.DataFrame) -> pd.DataFrame:
    """Deterministic 64-bit document fingerprint: a TRUE polynomial
    rolling hash over the codepoints of the whitespace-normalized
    lowercased text — ``h = fold(h·P + c) mod 2^64`` (Horner), which a
    SQL oracle can reproduce with ``list_reduce`` (query
    ``fingerprint_docs``).

    Vectorized across the batch: all normalized texts are concatenated
    once, decoded to codepoints via utf-32, each position multiplied by
    the precomputed power ``P^(doc_end-1-pos)`` (the sum form of
    Horner), and one ``add.reduceat`` per batch folds them per document
    — no per-document Python loop. uint64 arithmetic wraps mod 2^64 by
    construction.
    """
    norm = batch["text"].str.lower().str.split().str.join(" ")
    lens = norm.str.len().to_numpy(dtype=np.int64)
    out = np.zeros(len(batch), dtype=np.uint64)
    nonempty = lens > 0
    if nonempty.any():
        cat = "".join(norm[nonempty])
        cps = np.frombuffer(cat.encode("utf-32-le"), dtype="<u4").astype(np.uint64)
        ne_lens = lens[nonempty]
        ends = np.cumsum(ne_lens)
        starts = ends - ne_lens
        # P^k table up to the longest doc (uint64 wraparound)
        with np.errstate(over="ignore"):  # uint64 wraparound IS the mod 2^64
            ppow = np.empty(int(ne_lens.max()), dtype=np.uint64)
            ppow[0] = 1
            for k in range(1, len(ppow)):
                ppow[k] = ppow[k - 1] * _FP_PRIME
        # exponent of position i in doc d = (end_d - 1) - i
        pos = np.arange(len(cps), dtype=np.int64)
        exp = np.repeat(ends - 1, ne_lens) - pos
        contrib = cps * ppow[exp]
        out[nonempty] = np.add.reduceat(contrib, starts)
    batch["fingerprint"] = out.astype(np.int64)  # two's-complement view
    return batch


def tfidf_topk(ds, n_docs: int, *, id_col: str = "doc_id", col: str = "text",
               k: int = 3, num_partitions: int | None = None):
    """Top-k TF-IDF terms per document — the corpus-keyword pass of a
    training-data build (boilerplate/topic surfacing), composed from
    the engine's own primitives so every stage keeps its scale shape:

    - tf: docs are rows, so term frequencies need NO shuffle — one
      explode + groupby inside each batch;
    - df: per-batch partial doc-counts per token (tf rows are already
      unique per (doc, token)), then one vocabulary-bounded groupby;
    - tf ⋈ df: distributed ``hash_join`` on token (the df side scales
      with vocabulary — too big to assume broadcastable);
    - top-k per doc: ``top_n_per_group`` with (score desc, token asc)
      tie-break, mirrored by the oracle's ROW_NUMBER ordering.

    ``n_docs`` comes from the caller (a metadata-only count on the
    source read), keeping this function lazy end-to-end. Scores are
    ``tf · ln(n_docs / df)`` rounded to 6 decimals on both sides.
    """
    from ..temporal.join import hash_join
    from ..temporal.windows import top_n_per_group

    def tf_partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch[[id_col, col]].copy()
        toks["token"] = toks[col].str.lower().str.findall(r"[a-z0-9]+")
        ex = toks[[id_col, "token"]].explode("token").dropna(subset=["token"])
        g = ex.groupby([id_col, "token"], as_index=False).size()
        return g.rename(columns={"size": "tf"})

    tf = ds.map_batches(tf_partial, batch_format="pandas")

    def df_partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["token"].value_counts()
        return pd.DataFrame({"token": vc.index.to_numpy(dtype=object),
                             "pdc": vc.to_numpy(dtype=np.int64)})

    df = (tf.map_batches(df_partial, batch_format="pandas")
            .groupby("token").sum("pdc"))

    def df_finish(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.rename(columns={"sum(pdc)": "df"})

    # groupby outputs are lazy: materialize before hash_join resolves
    # schemas, else the upstream re-executes once per schema probe
    df = df.map_batches(df_finish, batch_format="pandas").materialize()
    tf = tf.materialize()

    kw = {"num_partitions": num_partitions} if num_partitions else {}
    scored = hash_join(tf, df, on="token", **kw)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        batch["tfidf"] = (batch["tf"] * np.log(n_docs / batch["df"].to_numpy(dtype=np.float64))).round(6)
        return batch[[id_col, "token", "tf", "tfidf"]]

    return top_n_per_group(
        scored.map_batches(score, batch_format="pandas"),
        by=id_col, order_cols=["tfidf", "token"], ascending=[False, True],
        n=k, **kw,
    )


class Redactor:
    """Vectorized regex redaction (PII-scrub shape): each (pattern →
    replacement) pair is compiled ONCE per actor in ``__init__`` and
    applied with pandas' C-backed ``str.replace`` — no per-row Python.
    Emits ``text_redacted`` and ``n_redactions`` (total matches
    removed), names shared with the ``regexp_replace`` SQL oracle.

    Patterns must stay in the RE2-compatible subset (no backrefs/
    lookaround) so the same pattern string means the same language in
    Python ``re`` and the oracle engine.
    """

    def __init__(self, rules: list[tuple[str, str]], *, col: str = "text"):
        self.rules = [(re.compile(p), rep) for p, rep in rules]
        self.col = col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[self.col]
        n = np.zeros(len(batch), dtype=np.int64)
        for pat, rep in self.rules:
            n += s.str.count(pat).to_numpy(dtype=np.int64)
            s = s.str.replace(pat, rep, regex=True)
        batch["text_redacted"] = s
        batch["n_redactions"] = n
        return batch


def token_topk(ds, *, col: str = "text", k: int = 20):
    """Global token frequency heavy hitters: the corpus-stats pass every
    training-data build runs (vocabulary coverage, boilerplate
    detection).

    Scale shape: tokens are counted INSIDE each batch first (one
    value_counts per batch), so the groupby shuffle moves one row per
    (batch, distinct token) — bounded by vocabulary size × blocks, not
    corpus token count. The final sort runs on the already-tiny
    aggregate. Ties at the k boundary break on the token string so the
    result set is deterministic (mirrored by the SQL oracle's ORDER BY).
    """
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch[col].str.lower().str.findall(r"[a-z0-9]+")
        vc = toks.explode().dropna().value_counts()
        return pd.DataFrame({"token": vc.index.to_numpy(dtype=object),
                             "cnt": vc.to_numpy(dtype=np.int64)})

    agg = (ds.map_batches(partial, batch_format="pandas")
             .groupby("token").sum("cnt"))

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.rename(columns={"sum(cnt)": "cnt"})

    return (agg.map_batches(finish, batch_format="pandas")
               .sort(["cnt", "token"], descending=[True, False])
               .limit(k))


def hash_vectorize(ds, *, col: str = "text", n_dims: int = 256):
    """Signed feature hashing (the "hashing trick" vectorizer) over
    corpus tokens: every token hashes through the pinned Horner
    kernel; ``dim = h mod n_dims`` and the NEXT hash bit supplies a
    ±1 sign so collisions cancel in expectation (Weinberger et al.'s
    signed construction).  Output is the corpus-level hashed
    bag-of-words: one row per dimension with the signed sum and the
    raw token count.

    Scale shape: tokens are counted per DISTINCT token inside each
    batch (vocabulary-bounded hashing work), partials are already
    dimension-bounded (≤ n_dims rows per batch) before the one tiny
    groupby — corpus token count never crosses the exchange.  The SQL
    oracle replays the identical hash via list_reduce."""
    from .encode import _horner64

    D = int(n_dims)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch[col].str.lower().str.findall(r"[a-z0-9]+")
        vc = toks.explode().dropna().value_counts()
        if not len(vc):
            return pd.DataFrame({"dim": pd.Series([], dtype=np.int64),
                                 "signed_sum": pd.Series([], dtype=np.int64),
                                 "n_tokens": pd.Series([], dtype=np.int64)})
        h = np.fromiter((_horner64(t) for t in vc.index), dtype=np.uint64,
                        count=len(vc))
        dim = (h % np.uint64(D)).astype(np.int64)
        sign = np.where((h // np.uint64(D)) % np.uint64(2) == 0, 1, -1)
        cnt = vc.to_numpy(np.int64)
        g = pd.DataFrame({"dim": dim, "signed_sum": sign * cnt,
                          "n_tokens": cnt})
        return g.groupby("dim", as_index=False).sum()

    agg = (ds.map_batches(partial, batch_format="pandas")
           .groupby("dim").sum(["signed_sum", "n_tokens"]))

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.rename(columns={"sum(signed_sum)": "signed_sum",
                                     "sum(n_tokens)": "n_tokens"})

    return agg.map_batches(finish, batch_format="pandas")


def bm25_score(ds, *, query_terms: list[str], col: str = "text",
               id_col: str = "doc_id", k1: float = 1.2, b: float = 0.75,
               decimals: int = 6):
    """Okapi BM25 relevance of every document against a fixed query
    term set — the classic retrieval / quality-ranking feature
    (Lucene-style idf: ``ln(1 + (N − df + ½)/(df + ½))``).

    Two passes, both corpus-stat shaped: (1) per-batch partials for
    ``N``, ``Σdl`` and per-term document frequencies — one
    (2 + |terms|)-int row per batch to the driver, never raw rows;
    (2) a stateless scoring ``map_batches`` with the broadcast idf
    table (tf per term via one vectorized explode + isin per batch).
    Docs matching no term score 0.  All inputs to the score are exact
    integers plus ``avgdl = Σdl/N`` (identical doubles on both
    sides), so the SQL oracle reproduces every addend; the ≤ |terms|
    per-doc sum is rounded to ``decimals``."""
    terms = list(dict.fromkeys(query_terms))

    def _toklists(batch: pd.DataFrame) -> pd.Series:
        return batch[col].str.lower().str.findall(r"[a-z0-9]+")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _toklists(batch)
        ex = toks.explode().dropna()
        hits = ex[ex.isin(terms)]
        present = hits.reset_index().drop_duplicates()
        dfc = present.iloc[:, 1].value_counts()
        row = {"n": [len(batch)], "dl": [int(toks.str.len().sum())]}
        for i, t in enumerate(terms):
            row[f"df{i}"] = [int(dfc.get(t, 0))]
        return pd.DataFrame(row)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    N = float(parts.n.sum())
    if N == 0:
        raise ValueError("bm25_score over an empty corpus")
    avgdl = float(parts.dl.sum()) / N
    idf = {t: math.log(1.0 + (N - float(parts[f"df{i}"].sum()) + 0.5)
                       / (float(parts[f"df{i}"].sum()) + 0.5))
           for i, t in enumerate(terms)}

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _toklists(batch)
        dl = toks.str.len().to_numpy(np.float64)
        ex = toks.explode().dropna()
        hits = ex[ex.isin(terms)]
        s = np.zeros(len(batch), dtype=np.float64)
        if len(hits):
            tf = (hits.groupby([hits.index, hits.values]).size()
                  .rename("tf").reset_index())
            tf.columns = ["row", "term", "tf"]
            rowpos = {ix: p for p, ix in enumerate(batch.index)}
            for t in terms:  # fixed term order = pinned addend order
                sub = tf[tf.term == t]
                if not len(sub):
                    continue
                pos = sub.row.map(rowpos).to_numpy()
                f = sub.tf.to_numpy(np.float64)
                denom = f + k1 * (1.0 - b + b * dl[pos] / avgdl)
                s[pos] += idf[t] * (f * (k1 + 1.0)) / denom
        out = batch[[id_col]].copy()
        out["dl"] = dl.astype(np.int64)
        out["bm25"] = np.round(s, decimals) + 0.0
        return out

    return ds.map_batches(score, batch_format="pandas")


def char_entropy(batch: pd.DataFrame, *, id_col: str = "doc_id",
                 col: str = "text", decimals: int = 6) -> pd.DataFrame:
    """Per-document Shannon character entropy (nats) — the classic
    gibberish / low-diversity quality signal (near-zero for repeated
    filler, high for natural text).  One map_batches body, NO shuffle
    at any scale: all batch texts are concatenated once, decoded to
    codepoints via utf-32, and per-(doc, char) run counts come from a
    single argsort + reduceat — no per-document Python loop.  Empty
    docs get entropy 0 by convention.  The SQL oracle recomputes
    ``−Σ (c/L)·ln(c/L)`` from exact character counts (identical
    integer operands → identical libm), rounded to ``decimals``."""
    texts = batch[col]
    lens = texts.str.len().to_numpy(np.int64)
    H = np.zeros(len(batch), dtype=np.float64)
    nonempty = lens > 0
    if nonempty.any():
        cat = "".join(texts[nonempty])
        cps = np.frombuffer(cat.encode("utf-32-le"), dtype="<u4").astype(np.uint64)
        ne_lens = lens[nonempty]
        did = np.repeat(np.arange(len(ne_lens), dtype=np.uint64), ne_lens)
        key = (did << np.uint64(21)) | cps  # codepoints < 2^21 (Unicode max)
        order = np.argsort(key, kind="stable")
        sk = key[order]
        run_start = np.ones(len(sk), dtype=bool)
        run_start[1:] = sk[1:] != sk[:-1]
        starts = np.flatnonzero(run_start)
        counts = np.diff(np.append(starts, len(sk))).astype(np.float64)
        run_doc = (sk[starts] >> np.uint64(21)).astype(np.int64)
        L = ne_lens[run_doc].astype(np.float64)
        p = counts / L
        terms = -p * np.log(p)
        doc_bounds = np.flatnonzero(np.r_[True, run_doc[1:] != run_doc[:-1]])
        h = np.add.reduceat(terms, doc_bounds)
        H[np.flatnonzero(nonempty)[run_doc[doc_bounds]]] = h
    out = batch[[id_col]].copy()
    out["char_entropy"] = np.round(H, decimals) + 0.0  # fold −0.0 → +0.0
    out["n_chars_text"] = lens
    return out


def repetition_stats(batch, *, id_col: str = "doc_id", col: str = "text"):
    """Gopher-style within-document repetition filters (one map_batches
    body — each doc is independent, so NO shuffle at any scale).

    Per document, over word n-grams (split on single spaces, same rule
    as the dedup family): ``dup_{n}gram_frac`` = fraction of n-gram
    instances that are repeats of an earlier instance, and
    ``top_{n}gram_frac`` = share held by the single most common n-gram,
    for n = 2, 3.  These are the published repetition-quality rules
    used to drop boilerplate/spam pages from LLM training corpora.

    Fully vectorized and EXACT (no hash collisions): words are
    ``pd.factorize``d to int32 codes once per batch, n-gram identity is
    integer code packing (2-gram: two codes in an int64; 3-gram: the
    factorized 2-gram code packed with the third word's code), and the
    per-document distinct/top counts come from one ``np.lexsort`` over
    (row, gram) + run-length counting. No Python loop over rows.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    words = pc.split_pattern(batch[col].combine_chunks().cast(pa.string()), " ")
    off = words.offsets.to_numpy().astype(np.int64)
    counts = np.diff(off)
    nrows = len(counts)
    codes, _ = pd.factorize(words.values.to_numpy(zero_copy_only=False))
    codes = codes.astype(np.int64)
    row_of_word = np.repeat(np.arange(nrows), counts)

    def per_row_stats(gram: np.ndarray, rows: np.ndarray, n_grams: np.ndarray):
        """(distinct, top-count) per row for exact gram ids."""
        distinct = np.zeros(nrows, np.int64)
        top = np.zeros(nrows, np.int64)
        if len(gram):
            order = np.lexsort((gram, rows))
            g, r = gram[order], rows[order]
            new = np.ones(len(g), bool)
            new[1:] = (g[1:] != g[:-1]) | (r[1:] != r[:-1])
            starts = np.flatnonzero(new)
            runs = np.diff(np.append(starts, len(g)))
            distinct = np.bincount(r[starts], minlength=nrows)
            np.maximum.at(top, r[starts], runs)
        denom = np.maximum(n_grams, 1).astype(np.float64)
        dup = np.where(n_grams > 0, 1.0 - distinct / denom, 0.0)
        topf = np.where(n_grams > 0, top / denom, 0.0)
        return np.round(dup, 6), np.round(topf, 6)

    # an n-gram starts at word position p iff p + n stays inside p's row
    pos = np.arange(len(codes))
    row_end = off[row_of_word + 1] if len(codes) else pos
    pos2 = pos[pos + 2 <= row_end]
    pos3 = pos[pos + 3 <= row_end]

    # 2-grams: two int32 factor codes packed into one int64 (exact)
    g2 = (codes[pos2] << 32) | codes[pos2 + 1]
    n2 = np.maximum(counts - 1, 0)
    dup2, top2 = per_row_stats(g2, row_of_word[pos2], n2)

    # 3-grams: factorize the 2-gram ids, pack with the third word's code
    # (pos3 ⊂ pos2 and both sorted, so searchsorted maps 3-gram starts
    # to their leading 2-gram's factor code)
    c2 = pd.factorize(g2)[0].astype(np.int64) if len(g2) else g2
    idx2 = np.searchsorted(pos2, pos3)
    g3 = (c2[idx2] << 32) | codes[pos3 + 2]
    n3 = np.maximum(counts - 2, 0)
    dup3, top3 = per_row_stats(g3, row_of_word[pos3], n3)

    return pa.table({
        id_col: batch[id_col],
        "dup_2gram_frac": pa.array(dup2, pa.float64()),
        "top_2gram_frac": pa.array(top2, pa.float64()),
        "dup_3gram_frac": pa.array(dup3, pa.float64()),
        "top_3gram_frac": pa.array(top3, pa.float64()),
    })


def chunk_documents(ds, *, col: str = "text", id_col: str = "doc_id",
                    max_tokens: int = 32, overlap: int = 8):
    """Context-window chunking: split each document into overlapping
    windows of at most ``max_tokens`` whitespace tokens (HF-tokenizer
    ``return_overflowing_tokens`` semantics) — the step that turns a
    document corpus into fixed-budget training sequences, complementing
    ``stages/pack.py`` (which packs SHORT docs up to a budget; this
    splits LONG docs down to one).

    Chunk ``k`` covers tokens ``[k*step, k*step + max_tokens)`` with
    ``step = max_tokens - overlap``; a document with ``n`` tokens emits
    ``K = max(1, ceil((n - overlap) / step))`` chunks, so every token
    is covered and consecutive chunks share exactly ``overlap`` tokens
    (except a shorter final window).  Tokens are single-space splits —
    the same rule as the dedup/fingerprint family, and exactly
    reproducible in SQL.

    Scale shape: each document is independent, so this is ONE stateless
    ``map_batches`` with NO shuffle at any corpus size.  The body is
    fully vectorized: one Arrow ``split_pattern`` per batch, chunk
    boundaries computed arithmetically from the list offsets, one
    overlapping ``take`` gather over the flat token buffer, and one
    ``binary_join`` re-chunk — no Python loop over rows or chunks.
    Output rows are ~``1/step`` × token count regardless of skew; a
    pathological single giant document only grows its own batch's
    output linearly.  (No reference counterpart; SURVEY.md §2's
    training-data additions.)
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    max_tokens = int(max_tokens)
    overlap = int(overlap)
    if max_tokens < 1:
        raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
    if not 0 <= overlap < max_tokens:
        raise ValueError(
            f"overlap must be in [0, max_tokens), got {overlap}")
    step = max_tokens - overlap

    def explode(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        words = pc.split_pattern(t[col].combine_chunks().cast(pa.string()), " ")
        off = words.offsets.to_numpy().astype(np.int64)
        counts = np.diff(off)
        nchunk = np.maximum(1, -(-(counts - overlap) // step))  # ceil
        total = int(nchunk.sum())
        chunk_doc = np.repeat(np.arange(len(ids)), nchunk)
        prefix = np.concatenate([[0], np.cumsum(nchunk)[:-1]])
        chunk_no = np.arange(total) - prefix[chunk_doc]
        starts = off[chunk_doc] + chunk_no * step
        ends = np.minimum(starts + max_tokens, off[chunk_doc + 1])
        lens = ends - starts
        # overlapping gather: flat index list = concat(arange(s, e)) per chunk
        out_off = np.concatenate([[0], np.cumsum(lens)])
        flat = (np.arange(int(out_off[-1]))
                - np.repeat(out_off[:-1], lens)
                + np.repeat(starts, lens))
        taken = words.values.take(pa.array(flat, pa.int64()))
        lists = pa.ListArray.from_arrays(pa.array(out_off, pa.int32()), taken)
        return pa.table({
            id_col: pa.array(ids[chunk_doc], pa.int64()),
            "chunk_no": pa.array(chunk_no, pa.int64()),
            "chunk": pc.binary_join(lists, " "),
            "n_tokens": pa.array(lens, pa.int64()),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


def quality_filter(ds, *, cutoff: float = 0.5, concurrency: int | None = None,
                   drop_counter=None, counter_key: str = "quality_filter"):
    """First-class quality gate: score with :class:`TextStats`, keep
    rows with ``quality_score > cutoff``. ``drop_counter`` (a
    ``state.metrics.DropCounter`` handle) receives each batch's
    dropped-row count under ``counter_key`` so the removal is
    observable, never silent (VERDICT r03 #8). ``concurrency``
    defaults to ``stages.pool.fixed_pool()``."""
    from .pool import fixed_pool

    scored = ds.map_batches(TextStats, batch_format="pandas",
                            concurrency=concurrency or fixed_pool())

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        mask = batch["quality_score"] > cutoff
        if drop_counter is not None:
            from ..state.metrics import add_dropped

            add_dropped(drop_counter, counter_key,
                        int((~mask).sum()))
        return batch[mask]

    return scored.map_batches(keep, batch_format="pandas")


def token_topk_by_group(ds, *, group_col: str, k: int = 5,
                        text_col: str = "text",
                        num_partitions: int = 16):
    """Per-group token heavy hitters: top-``k`` tokens per
    ``group_col`` by (count DESC, token ASC) — the per-domain vocab
    profile step of corpus analysis.

    Two-stage distributed plan, no raw rows moved: per-batch partial
    (group, token) counts → hash partition on (group, token) for the
    exact merge (vocabulary × groups rows, vectorized local groupby,
    avoiding Ray's sort-aggregate per the high-cardinality rule) →
    hash partition on group for the per-group top-k (counts tables
    only). Output: group_col, token, cnt, rnk (1-based)."""
    from ..temporal.core import partitioned_apply

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch[[group_col]].copy()
        toks["token"] = batch[text_col].str.lower().str.findall(r"[a-z0-9]+")
        ex = toks.explode("token").dropna(subset=["token"])
        g = ex.groupby([group_col, "token"], as_index=False).size()
        return g.rename(columns={"size": "cnt"})

    partials = ds.map_batches(partial, batch_format="pandas")
    merged = partitioned_apply(
        partials, [group_col, "token"],
        lambda df: df.groupby([group_col, "token"], as_index=False)["cnt"].sum(),
        num_partitions=num_partitions)

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([group_col, "cnt", "token"],
                            ascending=[True, False, True], kind="mergesort")
        df["rnk"] = df.groupby(group_col, sort=False).cumcount() + 1
        out = df[df["rnk"] <= k].copy()
        out["cnt"] = out["cnt"].astype("int64")
        out["rnk"] = out["rnk"].astype("int64")
        return out

    return partitioned_apply(merged, group_col, topk,
                             num_partitions=num_partitions)


def _explode_tokens(batch: pd.DataFrame, id_col: str, text_col: str) -> pd.DataFrame:
    """(id, token, pos) rows for every ``[a-z0-9]+`` token of the
    lowercased text, vectorized via pandas explode (one findall per
    row, no Python loop over tokens)."""
    toks = batch[[id_col]].copy()
    toks["w"] = batch[text_col].str.lower().str.findall(r"[a-z0-9]+")
    ex = toks.explode("w").dropna(subset=["w"])
    ex["pos"] = ex.groupby(level=0).cumcount()
    return ex.reset_index(drop=True)


def _doc_bigrams(batch: pd.DataFrame, id_col: str, text_col: str) -> pd.DataFrame:
    """(id, w1, w2) adjacent-token bigram rows (multiplicity kept)."""
    ex = (batch[[id_col]].copy()
          .assign(w=batch[text_col].str.lower().str.findall(r"[a-z0-9]+"))
          .explode("w").dropna(subset=["w"]))
    idx = ex.index.to_numpy()
    same = np.empty(len(ex), dtype=bool)
    if len(ex):
        same[:-1] = idx[:-1] == idx[1:]
        same[-1] = False
    w = ex["w"].to_numpy()
    out = pd.DataFrame({
        id_col: ex[id_col].to_numpy()[same],
        "w1": w[same],
        "w2": np.roll(w, -1)[same],
    })
    return out


def bigram_lm_score(ds, *, id_col: str = "doc_id", text_col: str = "text",
                    alpha: float = 0.5, decimals: int = 6,
                    num_partitions: int = 16):
    """Per-document bigram language-model score — the CCNet-style
    perplexity quality signal: ``lm_score = mean over doc bigrams of
    -ln P(w2|w1)`` with additive smoothing
    ``P = (c(w1,w2) + α) / (c(w1) + α·V)`` where ``c(w1)`` is the
    context count (sum of bigram counts with that ``w1``) and ``V``
    the number of distinct contexts. High score = improbable text
    under the corpus's own statistics (gibberish / boilerplate-mix).

    Fully distributed — the bigram table is NEVER assumed
    broadcastable (at 100 TB it is corpus-sized) — and join-free: the
    (doc, w1, w2, k) rows are hash-partitioned on the CONTEXT word
    ``w1``, which co-locates every occurrence of a (w1, w2) bigram and
    every (w1, ·) context, so the corpus counts ``c(w1,w2)`` and
    ``c(w1)`` fall out of two vectorized local groupbys in the same
    pass that scores the rows — no count-table shuffle joins. Only
    ``V`` needs a separate (vocabulary-bounded) pre-pass. A third
    exchange on ``id_col`` sums per doc. Three exchanges total; the
    formerly join-based plan (5+ exchanges) measured 26 s vs 6 s at
    sf0.1/32 CPUs. Hot-context skew note: all rows of one ``w1`` land
    in one partition — bounded by the corpus count of the hottest
    context word over ``num_partitions``; raise ``num_partitions``
    for web-scale vocabularies.

    Docs with < 2 tokens produce no bigrams and are absent from the
    output (the SQL oracle's inner joins agree).
    Output: ``id_col``, ``n_bigrams`` (int64), ``lm_score`` (rounded).
    """
    from ..temporal.core import partitioned_apply

    def doc_partial(b: pd.DataFrame) -> pd.DataFrame:
        big = _doc_bigrams(b, id_col, text_col)
        return big.groupby([id_col, "w1", "w2"], as_index=False).size() \
                  .rename(columns={"size": "k"})

    doc = ds.map_batches(doc_partial, batch_format="pandas")

    # V = distinct contexts: per-batch distinct w1 -> one
    # vocabulary-bounded merge -> count
    def w1_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"w1": pd.unique(b["w1"])})

    v = partitioned_apply(
        doc.map_batches(w1_partial, batch_format="pandas"), "w1",
        lambda df: df.drop_duplicates("w1"),
        num_partitions=num_partitions).count()

    def score_rows(df: pd.DataFrame) -> pd.DataFrame:
        # all rows of each w1 are co-located: exact counts locally
        cb = df.groupby(["w1", "w2"], sort=False)["k"].transform("sum") \
               .to_numpy(np.float64)
        cu = df.groupby("w1", sort=False)["k"].transform("sum") \
               .to_numpy(np.float64)
        k = df["k"].to_numpy(np.float64)
        p = (cb + alpha) / (cu + alpha * v)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "k": df["k"].to_numpy(np.int64),
            "s": -np.log(p) * k,
        })

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(id_col, as_index=False).agg(
            n_bigrams=("k", "sum"), s=("s", "sum"))
        g["lm_score"] = np.round(g["s"] / g["n_bigrams"], decimals)
        g["n_bigrams"] = g["n_bigrams"].astype("int64")
        return g.drop(columns="s")

    scored = partitioned_apply(doc, "w1", score_rows,
                               num_partitions=num_partitions)
    return partitioned_apply(scored, id_col, per_doc,
                             num_partitions=num_partitions)


def cooccur_topk(ds, *, text_col: str = "text", id_col: str = "doc_id",
                 window: int = 2, k: int = 20, num_partitions: int = 16):
    """Global top-``k`` ordered token co-occurrence pairs within a
    ``window``-token forward context (the skip-gram count table's
    heavy hitters). Per-batch partial pair counts (numpy shifts, doc
    boundaries masked) → exact merge on the (w1, w2) hash-partition
    path → per-partition local top-k (each pair lives in exactly one
    partition post-merge, so the union of partition top-ks contains
    the global top-k) → tiny driver finish. Tie-break
    (cnt DESC, w1 ASC, w2 ASC) is total, matching the SQL oracle.
    """
    import ray.data as rd

    from ..temporal.core import partitioned_apply

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        ex = _explode_tokens(batch, id_col, text_col)
        ids = ex[id_col].to_numpy()
        w = ex["w"].to_numpy()
        parts = []
        for d in range(1, window + 1):
            if len(ex) <= d:
                break
            same = ids[:-d] == ids[d:]
            parts.append(pd.DataFrame({"w1": w[:-d][same], "w2": w[d:][same]}))
        if not parts:
            return pd.DataFrame({"w1": pd.Series([], dtype=str),
                                 "w2": pd.Series([], dtype=str),
                                 "cnt": pd.Series([], dtype="int64")})
        allp = pd.concat(parts, ignore_index=True)
        return allp.groupby(["w1", "w2"], as_index=False).size() \
                   .rename(columns={"size": "cnt"})

    def merge_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["w1", "w2"], as_index=False)["cnt"].sum()
        g = g.sort_values(["cnt", "w1", "w2"],
                          ascending=[False, True, True], kind="mergesort")
        return g.head(k)

    cand = partitioned_apply(
        ds.map_batches(pairs, batch_format="pandas"),
        ["w1", "w2"], merge_topk, num_partitions=num_partitions).to_pandas()
    out = cand.sort_values(["cnt", "w1", "w2"],
                           ascending=[False, True, True],
                           kind="mergesort").head(k).reset_index(drop=True)
    out["cnt"] = out["cnt"].astype("int64")
    return rd.from_pandas(out)


def pmi_topk(ds, *, text_col: str = "text", id_col: str = "doc_id",
             window: int = 2, k: int = 20, min_count: int = 5,
             num_partitions: int = 16, decimals: int = 6):
    """Top-``k`` token pairs by pointwise mutual information
    ``ln(c_xy·T / (c_x·c_y))`` over the same forward-window skip-gram
    counts as :func:`cooccur_topk` — the collocation detector (PMI
    surfaces "strongly associated" pairs where raw counts surface
    merely frequent ones).  ``min_count`` drops rare pairs whose PMI
    is noise (the standard guard).

    Scale shape: exact pair counts on the (w1, w2) hash-partition
    path, then marginals attach via two more single-key exchanges
    (all rows of a w1 — then a w2 — co-locate, so each marginal is a
    partition-local transform('sum')); ``T`` is one scalar aggregate.
    Selection sorts by the UNROUNDED double (identical on both sides)
    with a total tie-break; only the output rounds."""
    import ray.data as rd

    from ..temporal.core import partitioned_apply

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        ex = _explode_tokens(batch, id_col, text_col)
        ids = ex[id_col].to_numpy()
        w = ex["w"].to_numpy()
        parts = []
        for d in range(1, window + 1):
            if len(ex) <= d:
                break
            same = ids[:-d] == ids[d:]
            parts.append(pd.DataFrame({"w1": w[:-d][same], "w2": w[d:][same]}))
        if not parts:
            return pd.DataFrame({"w1": pd.Series([], dtype=str),
                                 "w2": pd.Series([], dtype=str),
                                 "cnt": pd.Series([], dtype="int64")})
        allp = pd.concat(parts, ignore_index=True)
        return allp.groupby(["w1", "w2"], as_index=False).size() \
                   .rename(columns={"size": "cnt"})

    merged = partitioned_apply(
        ds.map_batches(pairs, batch_format="pandas"), ["w1", "w2"],
        lambda df: df.groupby(["w1", "w2"], as_index=False)["cnt"].sum(),
        num_partitions=num_partitions).materialize()  # T + reuse below:
    # one execution, not a re-derivation per consumer

    T = float(merged.sum("cnt"))

    def attach_cx(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["cx"] = df.groupby("w1", sort=False)["cnt"].transform("sum")
        return df

    withx = partitioned_apply(merged, "w1", attach_cx,
                              num_partitions=num_partitions)

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["cy"] = df.groupby("w2", sort=False)["cnt"].transform("sum")
        df = df[df.cnt >= min_count]
        if not len(df):
            return pd.DataFrame({"w1": pd.Series([], dtype=str),
                                 "w2": pd.Series([], dtype=str),
                                 "cnt": pd.Series([], dtype="int64"),
                                 "pmi_raw": pd.Series([], dtype="float64")})
        c = df.cnt.to_numpy(np.float64)
        df["pmi_raw"] = np.log(c * T / (df.cx.to_numpy(np.float64)
                                        * df.cy.to_numpy(np.float64)))
        df = df.sort_values(["pmi_raw", "w1", "w2"],
                            ascending=[False, True, True], kind="mergesort")
        return df.head(k)[["w1", "w2", "cnt", "pmi_raw"]]

    # every pair lives in exactly one partition (keyed by w2), so the
    # union of partition top-ks contains the global top-k
    cand = partitioned_apply(withx, "w2", local_topk,
                             num_partitions=num_partitions).to_pandas()
    out = cand.sort_values(["pmi_raw", "w1", "w2"],
                           ascending=[False, True, True],
                           kind="mergesort").head(k).reset_index(drop=True)
    out["pmi"] = np.round(out.pmi_raw, decimals)
    out["cnt"] = out["cnt"].astype("int64")
    return rd.from_pandas(out.drop(columns="pmi_raw"))


def ppmi_svd(ds, *, text_col: str = "text", id_col: str = "doc_id",
             window: int = 2, vocab_size: int = 64, dim: int = 16,
             num_partitions: int = 16, decimals: int = 6):
    """PPMI + truncated-SVD word vectors (Levy & Goldberg 2014's
    count-based equivalent of skip-gram embeddings) — the natural
    composition of the :func:`cooccur_topk` counts-cube shape with the
    ``pca_project`` driver-eigh pattern: every distributed exchange is
    vocabulary-bounded, never corpus-sized.

    Passes:

    1. exact top-``vocab_size`` unigram vocabulary (per-batch partial
       counts → one token-key partition merge → tiny driver top-V,
       tie-break cnt DESC, token ASC — total, SQL-replayable);
    2. forward-``window`` skip-gram pair counts RESTRICTED to
       vocab × vocab (per-batch partials; the merged cube is ≤ V²
       rows, merged on the driver like ``featsel._counts_cube``);
    3. driver finish on the V×V matrix: marginals are row/column sums
       of the restricted matrix, ``ppmi = max(0, ln(c_ij·T/(r_i·c_j)))``
       with the operand order pinned for the SQL replay, then one
       LAPACK SVD — ``W = U_d·diag(sqrt(s_d))``, the standard
       symmetric weight split. Sign convention pinned per component
       (largest-|loading| coordinate made positive) so the output is
       deterministic across LAPACK builds.

    Returns ``(vectors, ppmi)``: ``vectors`` a pandas DataFrame
    ``(token, v0..v{dim-1})`` rounded to ``decimals``; ``ppmi`` the
    nonzero matrix entries ``(w1, w2, cnt, ppmi)`` — the
    SQL-replayable surface (the SVD itself is iterative and lives
    under pytest instead: orthonormality + reconstruction bounds).
    """
    from ..temporal.core import partitioned_apply

    V = int(vocab_size)
    d = int(dim)
    if d > V:
        raise ValueError(f"dim {d} > vocab_size {V}")

    # pass 1 — exact unigram top-V
    def unigrams(batch: pd.DataFrame) -> pd.DataFrame:
        ex = _explode_tokens(batch, id_col, text_col)
        return (ex.groupby("w", as_index=False).size()
                .rename(columns={"size": "cnt"}))

    merged_uni = partitioned_apply(
        ds.map_batches(unigrams, batch_format="pandas"), "w",
        lambda df: df.groupby("w", as_index=False)["cnt"].sum(),
        num_partitions=num_partitions).to_pandas()
    if not len(merged_uni):
        raise ValueError("ppmi_svd over an empty corpus")
    merged_uni = merged_uni.sort_values(["cnt", "w"],
                                        ascending=[False, True],
                                        kind="mergesort").head(V)
    vocab = list(merged_uni.w)
    V = len(vocab)  # the corpus may have fewer distinct tokens
    d = min(d, V)
    vpos = {w: i for i, w in enumerate(vocab)}

    # pass 2 — vocab-restricted forward-window pair counts
    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        ex = _explode_tokens(batch, id_col, text_col)
        ids = ex[id_col].to_numpy()
        w = ex["w"].to_numpy()
        parts = []
        for dd in range(1, window + 1):
            if len(ex) <= dd:
                break
            same = ids[:-dd] == ids[dd:]
            parts.append(pd.DataFrame({"w1": w[:-dd][same],
                                       "w2": w[dd:][same]}))
        if not parts:
            return pd.DataFrame({"w1": pd.Series([], dtype=str),
                                 "w2": pd.Series([], dtype=str),
                                 "cnt": pd.Series([], dtype="int64")})
        allp = pd.concat(parts, ignore_index=True)
        allp = allp[allp.w1.isin(vpos) & allp.w2.isin(vpos)]
        return allp.groupby(["w1", "w2"], as_index=False).size() \
                   .rename(columns={"size": "cnt"})

    # bounded V^2 cube: merge on the driver (counts-cube pattern)
    cube = (ds.map_batches(pairs, batch_format="pandas").to_pandas()
            .groupby(["w1", "w2"], as_index=False)["cnt"].sum())

    M = np.zeros((V, V), dtype=np.float64)
    if len(cube):
        M[cube.w1.map(vpos).to_numpy(), cube.w2.map(vpos).to_numpy()] = \
            cube.cnt.to_numpy(np.float64)
    T = float(M.sum())
    if T == 0:
        raise ValueError("ppmi_svd: no in-vocabulary co-occurrences")
    r = M.sum(axis=1)  # row marginals (restricted matrix)
    c = M.sum(axis=0)  # column marginals
    ppmi = np.zeros_like(M)
    nz = M > 0
    # operand order pinned to the SQL replay: (c_ij * T) / (r_i * c_j);
    # marginals are strictly positive wherever c_ij > 0
    ppmi[nz] = np.log((M[nz] * T) / np.outer(r, c)[nz])
    np.maximum(ppmi, 0.0, out=ppmi)

    U, s, _ = np.linalg.svd(ppmi, full_matrices=False)
    W = U[:, :d] * np.sqrt(s[:d])
    # pin the SVD sign ambiguity: largest-|loading| coordinate positive
    for j in range(d):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0:
            W[:, j] = -W[:, j]

    vectors = pd.DataFrame({"token": vocab})
    for j in range(d):
        vectors[f"v{j}"] = np.round(W[:, j], decimals) + 0.0

    i1, i2 = np.nonzero(nz)
    ppmi_df = pd.DataFrame({
        "w1": [vocab[i] for i in i1],
        "w2": [vocab[i] for i in i2],
        "cnt": M[i1, i2].astype(np.int64),
        "ppmi": np.round(ppmi[i1, i2], decimals) + 0.0,
    }).sort_values(["w1", "w2"], kind="mergesort").reset_index(drop=True)
    return vectors, ppmi_df


def bm25_topk(ds, *, queries: list[str], k: int = 5, col: str = "text",
              id_col: str = "doc_id", k1: float = 1.2, b: float = 0.75,
              decimals: int = 6, num_partitions: int = 16):
    """Batch BM25 retrieval: top-``k`` documents per query string —
    the lexical sibling of ``similarity.ann_topk`` (a data pipeline
    needs BOTH retrieval modalities for decontamination-style lookups
    and hard-negative mining).

    Corpus stats fit once over the UNION of query terms (same bounded
    partials as :func:`bm25_score`); the scorer emits one sparse row
    per (query, matching doc); selection is the existing
    ``top_n_per_group`` shuffle keyed by query id.  Ranking orders by
    the ROUNDED score with a doc-id tiebreak so both engines rank
    identical keys (raw doubles can differ in the last ulp across
    summation orders)."""
    from ..temporal.windows import top_n_per_group

    qterms = [list(dict.fromkeys(re.findall(r"[a-z0-9]+", q.lower())))
              for q in queries]
    union_terms = list(dict.fromkeys(t for ts in qterms for t in ts))

    def _toklists(batch: pd.DataFrame) -> pd.Series:
        return batch[col].str.lower().str.findall(r"[a-z0-9]+")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _toklists(batch)
        ex = toks.explode().dropna()
        hits = ex[ex.isin(union_terms)]
        present = hits.reset_index().drop_duplicates()
        dfc = present.iloc[:, 1].value_counts()
        row = {"n": [len(batch)], "dl": [int(toks.str.len().sum())]}
        for i, t in enumerate(union_terms):
            row[f"df{i}"] = [int(dfc.get(t, 0))]
        return pd.DataFrame(row)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    N = float(parts.n.sum())
    avgdl = float(parts.dl.sum()) / N
    idf = {t: math.log(1.0 + (N - float(parts[f"df{i}"].sum()) + 0.5)
                       / (float(parts[f"df{i}"].sum()) + 0.5))
           for i, t in enumerate(union_terms)}

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _toklists(batch)
        dl = toks.str.len().to_numpy(np.float64)
        ex = toks.explode().dropna()
        hits = ex[ex.isin(union_terms)]
        addend: dict[str, np.ndarray] = {}
        if len(hits):
            tf = (hits.groupby([hits.index, hits.values]).size()
                  .rename("tf").reset_index())
            tf.columns = ["row", "term", "tf"]
            rowpos = {ix: p for p, ix in enumerate(batch.index)}
            for t in union_terms:
                sub = tf[tf.term == t]
                if not len(sub):
                    continue
                pos = sub.row.map(rowpos).to_numpy()
                f = sub.tf.to_numpy(np.float64)
                v = np.zeros(len(batch), dtype=np.float64)
                denom = f + k1 * (1.0 - b + b * dl[pos] / avgdl)
                v[pos] = idf[t] * (f * (k1 + 1.0)) / denom
                addend[t] = v
        out = []
        ids = batch[id_col].to_numpy()
        for qi, terms in enumerate(qterms):
            s = np.zeros(len(batch), dtype=np.float64)
            for t in terms:  # fixed order per query = pinned addends
                if t in addend:
                    s += addend[t]
            nz = s > 0
            out.append(pd.DataFrame({
                "query_id": np.full(int(nz.sum()), qi, dtype=np.int64),
                id_col: ids[nz],
                "score": np.round(s[nz], decimals)}))
        return (pd.concat(out, ignore_index=True) if out
                else pd.DataFrame({"query_id": pd.Series([], dtype=np.int64),
                                   id_col: pd.Series([], dtype=np.int64),
                                   "score": pd.Series([], dtype=np.float64)}))

    scored = ds.map_batches(score, batch_format="pandas")
    return top_n_per_group(scored, by="query_id",
                           order_cols=["score", id_col],
                           ascending=[False, True], n=k,
                           num_partitions=num_partitions)


def kl_unigram(ds, *, id_col: str = "doc_id", text_col: str = "text",
               vocab_size: int = 128, alpha: float = 1.0,
               _scale: int = 1_000_000_000):
    """Per-document KL divergence from the corpus unigram distribution
    over the exact top-V vocabulary — the "how unlike the corpus is
    this document" quality signal (high = topical outlier / gibberish;
    the unigram sibling of ``bigram_lm_score``)::

        p_d(t) = (k_t + α) / (n_d + α·V)      (doc, smoothed)
        q(t)   = (K_t + α) / (N + α·V)        (corpus, smoothed)
        kl_d   = Σ_{t ∈ vocab} p_d(t) · ln(p_d(t) / q(t))

    summed over ALL V vocabulary terms (k_t = 0 terms contribute their
    smoothed mass — proper KL, not doc-support surprisal).  ``n_d``
    counts only vocabulary tokens, so OOV mass never skews the
    distribution.

    Exactness: every addend is a pure function of exact integer counts
    (identical doubles both sides), quantized to 1e-9 nats and summed
    as INTEGERS — order-invariant, SQL-replayable with no pinning
    (``stages/classify`` discipline).  Scale shape: the (token→count)
    corpus table is vocabulary-bounded and broadcast once via
    ``ray.put``; scoring is a stateless dense (batch × V) numpy pass.

    Output: ``id_col``, ``n_vocab_tokens`` (int64), ``kl_micro``
    (int64, 1e-9-nat units), ``kl_nats`` (rounded double).  Docs with
    zero vocabulary tokens get the closed-form uniform-vs-q divergence
    (n_d = 0 ⇒ p_d uniform) — kept, never dropped."""
    import ray

    def tok_partial(b: pd.DataFrame) -> pd.DataFrame:
        ex = (b[[id_col]].copy()
              .assign(w=b[text_col].str.lower().str.findall(r"[a-z0-9]+"))
              .explode("w").dropna(subset=["w"]))
        return ex.groupby("w", as_index=False).size() \
                 .rename(columns={"size": "k"})

    parts = ds.map_batches(tok_partial, batch_format="pandas").to_pandas()
    if parts.empty:
        raise ValueError("kl_unigram over an empty corpus (no tokens)")
    tot = parts.groupby("w", as_index=False).k.sum()
    vocab = (tot.sort_values(["k", "w"], ascending=[False, True])
             .head(vocab_size))
    V = len(vocab)
    if V == 0:
        raise ValueError("kl_unigram over an empty corpus (no tokens)")
    words = vocab.w.tolist()
    K = vocab.k.to_numpy(np.float64)
    N = float(K.sum())
    q = (K + alpha) / (N + alpha * V)
    lnq = np.log(q)
    ref = ray.put(({w: i for i, w in enumerate(words)}, lnq))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        t2i, lq = ray.get(ref)
        ex = (b[[id_col]].copy()
              .assign(w=b[text_col].str.lower().str.findall(r"[a-z0-9]+"))
              .explode("w").dropna(subset=["w"]))
        ex["i"] = ex.w.map(t2i)
        ex = ex.dropna(subset=["i"])
        kmat = np.zeros((len(b), V), dtype=np.float64)
        pos = {d: r for r, d in enumerate(b[id_col])}
        if len(ex):
            tf = ex.groupby([id_col, "i"], as_index=False).size()
            kmat[tf[id_col].map(pos).to_numpy(np.int64),
                 tf.i.to_numpy(np.int64)] = tf["size"].to_numpy(np.float64)
        n = kmat.sum(axis=1)
        p = (kmat + alpha) / (n + alpha * V)[:, None]
        addends = np.round(p * (np.log(p) - lq[None, :]) * _scale)
        kl_micro = addends.sum(axis=1)  # int-valued doubles < 2^53
        return pd.DataFrame({
            id_col: b[id_col].to_numpy(),
            "n_vocab_tokens": n.astype(np.int64),
            "kl_micro": kl_micro.astype(np.int64),
            "kl_nats": np.round(kl_micro / _scale, 6),
        })

    return ds.map_batches(score, batch_format="pandas")
