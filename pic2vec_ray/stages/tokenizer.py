"""From-scratch BPE tokenizer: driver fit over a bounded word-count
table, vectorized distributed apply, SQL-replayable merge semantics.

``pack_sequences``/``chunk_documents`` count whitespace tokens; real
training pipelines pack BPE tokens. This module supplies the missing
piece with semantics pinned tightly enough that a DuckDB oracle can
replay the tokenizer bit-for-bit:

- **Pre-tokenizer**: the corpus word rule used across ``stages/text``
  — lowercase, words = ``[a-z0-9]+`` (everything else is a boundary).
- **Symbol representation**: a word is the delimited string
  ``_ _ c1 _ _ c2 _ _ ... _ _`` (separator ``_``, DOUBLE at every
  boundary; ``_`` can never occur inside a ``[a-z0-9]+`` word). A
  merge of pair (a, b) is the plain string replacement
  ``replace(s, '_a__b_', '_ab_')`` — leftmost, non-overlapping. With
  double delimiters this is EXACTLY one standard greedy BPE pass
  (``a a a`` → ``[aa, a]``, ``a b a b`` → ``[ab, ab]``): each match
  consumes one delimiter from each side of the pair, leaving the
  neighbours' delimiters intact for the next match. SQL ``REPLACE``
  has identical semantics, so the oracle applies the same merge chain.
- **Fit** (:func:`fit_bpe`): word counts come from a distributed
  per-batch partial (the same driver-bounded shape as
  ``stages/text.token_topk`` — bounded by DISTINCT words, not corpus
  rows); the merge loop then runs on that table: per step, count
  adjacent symbol pairs weighted by word frequency, take the most
  frequent (ties → lexicographically smallest pair), merge, repeat.
  Fully deterministic ⇒ the merge table can be pinned and shipped
  (``PINNED_MERGES``, fitted on the sf0.001 documents table — guarded
  against drift by ``tests/test_round4_ops.py``), exactly how real
  tokenizers ship a fixed vocab.
- **Apply** (:class:`BpeTokenizer`): an actor-pool ``map_batches``
  stage — the merge table is prepared once per actor in ``__init__``;
  per batch the merge chain runs vectorized over the batch's UNIQUE
  words only (``pandas.str.replace`` × M merges), then token counts
  map back to rows. No Python loop over rows or words.

No counterpart in the reference (images only); part of SURVEY.md §2's
training-data additions (VERDICT r03 next-round #6).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd

SEP = "_"
_WORD_RE = r"[a-z0-9]+"


def _delim(word: str) -> str:
    return SEP * 2 + (SEP * 2).join(word) + SEP * 2


def _merge_pattern(a: str, b: str) -> tuple[str, str]:
    return f"{SEP}{a}{SEP}{SEP}{b}{SEP}", f"{SEP}{a}{b}{SEP}"


def _merge_word(syms: list[str], a: str, b: str) -> list[str]:
    """One greedy leftmost non-overlapping merge pass over a symbol
    list — the list-form twin of the delimited-string replacement."""
    out, i, n = [], 0, len(syms)
    while i < n:
        if i + 1 < n and syms[i] == a and syms[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def word_counts(ds, *, text_col: str = "text") -> pd.DataFrame:
    """Distributed word-count table (word, cnt): per-batch partials,
    merged on the driver — bounded by distinct words (the documented
    ``token_topk`` bound), never corpus rows."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        words = (batch[text_col].str.lower().str.findall(_WORD_RE)
                 .explode().dropna())
        vc = words.value_counts()
        return pd.DataFrame({"word": vc.index.to_numpy(dtype=object),
                             "cnt": vc.to_numpy()})

    return (ds.map_batches(partial, batch_format="pandas")
            .to_pandas()
            .groupby("word", as_index=False)["cnt"].sum())


def fit_bpe_from_counts(wc: pd.DataFrame, num_merges: int) -> list[tuple[str, str]]:
    """Deterministic BPE fit over a (word, cnt) table: most frequent
    adjacent pair per step, ties to the lexicographically smallest
    pair; stops early when no pair repeats."""
    words = [list(w) for w in wc["word"].tolist()]
    counts = wc["cnt"].to_numpy()
    merges: list[tuple[str, str]] = []
    for _ in range(int(num_merges)):
        pairs: Counter = Counter()
        for syms, c in zip(words, counts):
            for i in range(len(syms) - 1):
                pairs[(syms[i], syms[i + 1])] += int(c)
        if not pairs:
            break
        # pinned tie-break: highest count, then smallest (a, b)
        top = max(pairs.values())
        best = min(p for p, c in pairs.items() if c == top)
        if pairs[best] < 2:
            break
        a, b = best
        merges.append(best)
        words = [_merge_word(s, a, b) if a in s else s for s in words]
    return merges


def fit_bpe(ds, *, text_col: str = "text", num_merges: int = 120) -> list[tuple[str, str]]:
    return fit_bpe_from_counts(word_counts(ds, text_col=text_col), num_merges)


class BpeTokenizer:
    """Actor-pool stage: tokenize ``text_col`` with a fixed merge
    table; appends ``n_tokens_bpe`` (``output='count'``) or ``tokens``
    (list<string>, ``output='tokens'``). Merge chain is applied
    vectorized to each batch's unique words only."""

    def __init__(self, merges: list[tuple[str, str]], *,
                 text_col: str = "text", output: str = "count"):
        if output not in ("count", "tokens"):
            raise ValueError(f"output must be 'count' or 'tokens', got {output}")
        self.text_col = text_col
        self.output = output
        self.patterns = [_merge_pattern(a, b) for a, b in merges]

    def _tokenize_unique(self, uniq: pd.Series) -> pd.Series:
        s = uniq.map(_delim)
        for pat, rep in self.patterns:
            s = s.str.replace(pat, rep, regex=False)
        return s

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        words = batch[self.text_col].str.lower().str.findall(_WORD_RE)
        flat = words.explode().dropna()
        uniq, inv = np.unique(flat.to_numpy(dtype=object), return_inverse=True)
        merged = self._tokenize_unique(pd.Series(uniq, dtype=object))
        if self.output == "count":
            per_word = (merged.str.len() -
                        merged.str.replace(SEP, "", regex=False).str.len()) // 2 - 1
            cnt = pd.Series(per_word.to_numpy()[inv], index=flat.index)
            batch["n_tokens_bpe"] = (cnt.groupby(level=0).sum()
                                     .reindex(batch.index, fill_value=0)
                                     .astype("int64"))
            return batch
        toks = merged.str.strip(SEP).str.split(SEP + SEP)
        per_word = pd.Series(toks.to_numpy()[inv], index=flat.index)
        joined = per_word.groupby(level=0).sum()
        batch["tokens"] = joined.reindex(batch.index)
        batch["tokens"] = batch["tokens"].apply(
            lambda v: v if isinstance(v, list) else [])
        return batch


def bpe_tokenize(ds, merges, *, text_col: str = "text",
                 output: str = "count", batch_size: int = 512,
                 concurrency: int | None = None):
    """Apply a fitted/pinned merge table as an actor-pool stage
    (``concurrency`` defaults to ``stages.pool.fixed_pool()``)."""
    from .pool import fixed_pool

    return ds.map_batches(
        BpeTokenizer,
        fn_constructor_kwargs=dict(merges=list(map(tuple, merges)),
                                   text_col=text_col, output=output),
        batch_format="pandas",
        batch_size=batch_size,
        concurrency=concurrency or fixed_pool(),
    )


# Fitted by fit_bpe on the sf0.001 documents table (120 merges) and
# pinned so the distributed apply and the SQL oracle share one vocab;
# regenerate with tools/refit_bpe.py if the corpus generator changes.
# Drift is guarded by tests/test_round4_ops.py::test_pinned_merges_match_fit.
PINNED_MERGES: list[tuple[str, str]] = [
    ('e', 'r'),
    ('o', 'r'),
    ('i', 'n'),
    ('o', 'w'),
    ('s', 't'),
    ('l', 'u'),
    ('a', 'r'),
    ('p', 'ar'),
    ('m', 'er'),
    ('a', 't'),
    ('a', 'n'),
    ('c', 'an'),
    ('s', 'can'),
    ('c', 'o'),
    ('co', 'lu'),
    ('colu', 'm'),
    ('colum', 'n'),
    ('d', 'ow'),
    ('in', 'dow'),
    ('w', 'indow'),
    ('d', 'er'),
    ('or', 'der'),
    ('or', 't'),
    ('s', 'ort'),
    ('par', 't'),
    ('u', 'p'),
    ('a', 'g'),
    ('ag', 'g'),
    ('a', 'lu'),
    ('alu', 'e'),
    ('v', 'alue'),
    ('in', 'e'),
    ('l', 'ine'),
    ('e', 'y'),
    ('k', 'ey'),
    ('j', 'o'),
    ('jo', 'in'),
    ('g', 'e'),
    ('mer', 'ge'),
    ('er', 'y'),
    ('g', 'r'),
    ('gr', 'o'),
    ('gro', 'up'),
    ('q', 'u'),
    ('qu', 'ery'),
    ('c', 't'),
    ('ct', 'or'),
    ('e', 'ctor'),
    ('v', 'ector'),
    ('a', 's'),
    ('as', 'h'),
    ('h', 'ash'),
    ('l', 'ow'),
    ('s', 'low'),
    ('a', 'm'),
    ('e', 'am'),
    ('r', 'eam'),
    ('st', 'ream'),
    ('f', 'i'),
    ('fi', 'l'),
    ('fil', 't'),
    ('filt', 'er'),
    ('a', 'st'),
    ('f', 'ast'),
    ('at', 'c'),
    ('atc', 'h'),
    ('b', 'atch'),
    ('h', 'e'),
    ('par', 'k'),
    ('s', 'park'),
    ('t', 'he'),
    ('a', 'b'),
    ('ab', 'l'),
    ('abl', 'e'),
    ('t', 'able'),
    ('a', 'l'),
    ('al', 'l'),
    ('m', 'all'),
    ('s', 'mall'),
    ('at', 'a'),
    ('d', 'ata'),
    ('b', 'i'),
    ('bi', 'g'),
    ('c', 'u'),
    ('cu', 'st'),
    ('cust', 'o'),
    ('custo', 'mer'),
    ('r', 'ow'),
    ('d', 'up'),
]
