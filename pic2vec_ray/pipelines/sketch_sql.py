"""DuckDB oracle-SQL generators for the sketch-based dedup queries.

Round 2's verdict classified ``minhash_neardup_docs`` /
``minhash_dedup_groups`` / ``simhash_neardup_docs`` as "genuinely
non-SQL-expressible" (sketch-hash-derived pairs).  That stopped being
true once the shingle hash became the SQL-pinned Horner-polynomial +
splitmix64 kernel (``stages/dedup._shingle_hashes_batch`` — the same
kernel ``fingerprint_docs`` and the HLL oracle already reproduce in
DuckDB): every downstream step is integer arithmetic a SQL oracle can
replay bit-for-bit —

- **shingles**: ``substr`` windows (DuckDB ``substr`` is
  codepoint-based, like Python slicing); docs shorter than ``k`` hash
  the whole text; empty text hashes to splitmix64(0);
- **splitmix64** in HUGEINT via 32-bit half-multiplies (the direct
  64×64 product would overflow INT128) — identical CTE chain to the
  ``hll_distinct_tokens`` oracle;
- **simhash votes**: per-bit majority over shingles WITH multiplicity;
  a lo/hi BIGINT split makes the 64 shift-and-mask aggregates ~7×
  faster than HUGEINT division;
- **minhash permutations**: ``((h mod M61)·a + b)`` evaluated with
  numpy's uint64 WRAPAROUND reproduced explicitly (``% 2^64`` before
  the final ``% M61``) — the (a, b) parameters are embedded as literals
  generated from the same seeded ``_minhash_params`` the Ray side uses
  (the ``langid`` oracle set the precedent of generating SQL from the
  implementation's own constants);
- **LSH banding**: band-hash equality on the Ray side is value
  equality of the band's signature slice, which SQL expresses directly
  (``array_to_string(list_slice(sig, ...))`` group keys) — no need to
  reproduce ``hash_pandas_object``;
- **prefilter + verify**: the signature-agreement prefilter is an
  integer count over the signature lists, and the exact-Jaccard verify
  reuses the unnest-join shape of the ``ngram_jaccard_pairs`` oracle;
- **connected components** (groups query): a recursive CTE over the
  MATERIALIZED pair set (without MATERIALIZED, DuckDB re-evaluates the
  whole minhash chain on every recursion step — measured 84 s → 6 s).

Exactness pinned by tests/test_dedup_text_sim.py (SQL-vs-Ray on the
planted-neardup fixture) and the driver gate at sf0.01.
"""

from __future__ import annotations

from ..stages.decontam import _MAX_BUCKET_FANOUT

FP_PRIME = 1099511628211           # FNV-1 prime (stages/text._FP_PRIME)
M61 = (1 << 61) - 1                # Mersenne modulus (stages/dedup._MERSENNE)
TWO64 = 1 << 64


def _splitmix_ctes(src: str, carry: str) -> str:
    """CTE chain applying the splitmix64 finalizer to column ``hv`` of
    CTE ``src``, carrying ``carry`` columns; defines CTE ``smx``."""
    return f"""
m0 AS (SELECT {carry}, (hv + 11400714819323198485) % 18446744073709551616 AS z FROM {src}),
x1 AS (SELECT {carry}, xor(z, z // 1073741824) AS y FROM m0),
m1 AS (SELECT {carry}, ((y % 4294967296) * 484763065
        + (((y % 4294967296) * 3210233709
            + (y // 4294967296) * 484763065) % 4294967296) * 4294967296)
        % 18446744073709551616 AS z FROM x1),
x2 AS (SELECT {carry}, xor(z, z // 134217728) AS y FROM m1),
m2 AS (SELECT {carry}, ((y % 4294967296) * 321982955
        + (((y % 4294967296) * 2496678331
            + (y // 4294967296) * 321982955) % 4294967296) * 4294967296)
        % 18446744073709551616 AS z FROM x2),
smx AS (SELECT {carry}, xor(z, z // 2147483648) AS hv FROM m2)"""


def _shingle_ctes(k: int, distinct: bool) -> str:
    """CTEs ``documents`` → ``smx(doc_id[, g], hv)``: per-shingle
    splitmix64(Horner) hash, multiplicity preserved unless ``distinct``."""
    d = "DISTINCT " if distinct else ""
    carry = "doc_id, g" if distinct else "doc_id"
    return f"""sh0 AS (
  SELECT {d}doc_id, unnest(CASE WHEN length(text) >= {k}
         THEN [substr(text, i, {k}) FOR i IN range(1, length(text) - {k} + 2)]
         ELSE [text] END) AS g
  FROM documents
),
h0 AS (
  SELECT {carry}, CASE WHEN length(g) = 0 THEN CAST(0 AS HUGEINT) ELSE list_reduce(
      list_transform(string_split(g, ''), c -> CAST(unicode(c) AS HUGEINT)),
      (a, b) -> (a * {FP_PRIME} + b) % {TWO64}) END AS hv
  FROM sh0
),{_splitmix_ctes('h0', carry)}"""


def simhash_pairs_sql(k: int = 4, max_hamming: int = 3) -> str:
    """Exact oracle for ``simhash_pairs``: 64-bit simhash per doc, then
    all pairs with hamming ≤ ``max_hamming`` (the Ray side's 4×16-bit
    pigeonhole banding is lossless for max_hamming ≤ 3, so banded
    output == all-pairs output)."""
    bit_terms = "\n       + ".join(
        f"(CASE WHEN 2 * sum(({'lo' if j < 32 else 'hi'} >> {j % 32}) & 1) > count(*)"
        f" THEN CAST({1 << j} AS HUGEINT) ELSE CAST(0 AS HUGEINT) END)"
        for j in range(64)
    )
    return f"""WITH {_shingle_ctes(k, distinct=False)},
sp AS (SELECT doc_id, CAST(hv % 4294967296 AS BIGINT) AS lo,
              CAST(hv // 4294967296 AS BIGINT) AS hi FROM smx),
sim AS (
  SELECT doc_id, {bit_terms} AS v
  FROM sp GROUP BY doc_id
),
s2 AS (SELECT doc_id, CAST(CASE WHEN v >= 9223372036854775808
        THEN v - 18446744073709551616 ELSE v END AS BIGINT) AS sim64 FROM sim)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(bit_count(xor(a.sim64, b.sim64)) AS BIGINT) AS hamming
FROM s2 a JOIN s2 b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.sim64, b.sim64)) <= {max_hamming}"""


def _minhash_common_ctes(a, b, k: int = 5, bands: int = 16,
                         threshold: float = 0.5, edges: str = "all") -> str:
    """CTEs up to ``mh_pairs(id_a, id_b, jaccard)`` — the exact replay
    of ``minhash_lsh_pairs`` (signatures → band-equality candidates →
    signature-agreement prefilter → exact-Jaccard verify).
    ``edges="star"`` replays the scale-safe star enumeration (bucket-min
    anchor joined to every other member) used by the groups consumer."""
    num_perm = len(a)
    rpb = num_perm // bands
    perm_rows = ", ".join(f"({i}, {int(a[i])}, {int(b[i])})"
                          for i in range(num_perm))
    if edges == "star":
        cand = f"""cand AS (
  SELECT DISTINCT m.mn AS id_a, x.doc_id AS id_b
  FROM bandrows x
  JOIN (SELECT bnum, bkey, MIN(doc_id) AS mn
        FROM bandrows GROUP BY bnum, bkey) m
    ON x.bnum = m.bnum AND x.bkey = m.bkey AND x.doc_id > m.mn
)"""
    else:
        cand = """cand AS (
  SELECT DISTINCT x.doc_id AS id_a, y.doc_id AS id_b
  FROM bandrows x JOIN bandrows y
    ON x.bnum = y.bnum AND x.bkey = y.bkey AND x.doc_id < y.doc_id
)"""
    return f"""{_shingle_ctes(k, distinct=True)},
perms(p, pa, pb) AS (VALUES {perm_rows}),
pv AS (
  -- numpy uint64 wraparound reproduced: (x*a + b) mod 2^64, THEN mod M61
  SELECT doc_id, p, MIN((((hv % {M61}) * pa % {TWO64} + pb) % {TWO64}) % {M61}) AS v
  FROM smx CROSS JOIN perms GROUP BY doc_id, p
),
sig AS (SELECT doc_id, list(v ORDER BY p) AS s FROM pv GROUP BY doc_id),
bandrows AS (
  SELECT doc_id, bnum,
         array_to_string(list_slice(s, {rpb} * bnum + 1, {rpb} * bnum + {rpb}), ',') AS bkey
  FROM sig, range({bands}) t(bnum)
),
{cand},
est AS (
  SELECT c.id_a, c.id_b,
         list_sum([CASE WHEN sa.s[j] = sb.s[j] THEN 1 ELSE 0 END
                   FOR j IN range(1, {num_perm} + 1)]) AS mc
  FROM cand c
  JOIN sig sa ON sa.doc_id = c.id_a
  JOIN sig sb ON sb.doc_id = c.id_b
),
cand2 AS (SELECT id_a, id_b FROM est
          WHERE mc / {num_perm}.0 >= ({threshold} - 0.2)),
sizes AS (SELECT doc_id, count(*) AS n FROM sh0 GROUP BY doc_id),
inter AS (
  SELECT c.id_a, c.id_b, count(*) AS i
  FROM cand2 c
  JOIN sh0 sa ON sa.doc_id = c.id_a
  JOIN sh0 sb ON sb.doc_id = c.id_b AND sb.g = sa.g
  GROUP BY c.id_a, c.id_b
),
mh_pairs AS MATERIALIZED (
  SELECT c.id_a, c.id_b, i::DOUBLE / (na.n + nb.n - i) AS jaccard
  FROM inter c
  JOIN sizes na ON na.doc_id = c.id_a
  JOIN sizes nb ON nb.doc_id = c.id_b
  WHERE i::DOUBLE / (na.n + nb.n - i) >= {threshold}
)"""


def minhash_pairs_sql(a, b, **kw) -> str:
    """Exact oracle for ``minhash_lsh_pairs`` with the given seeded
    permutation parameters (pass ``_minhash_params(num_perm)``)."""
    return (f"WITH {_minhash_common_ctes(a, b, **kw)}\n"
            f"SELECT id_a, id_b, jaccard FROM mh_pairs")


def minhash_groups_sql(a, b, **kw) -> str:
    """Exact oracle for ``minhash_lsh_pairs(edges="star") →
    neardup_groups``: star candidate edges (the groups query's
    scale-safe enumeration), then connected components over the
    verified pairs via a recursive CTE; ``group_id`` = min member id,
    matching the hash-min propagation."""
    kw.setdefault("edges", "star")
    return f"""WITH RECURSIVE {_minhash_common_ctes(a, b, **kw)},
e AS MATERIALIZED (SELECT id_a AS s, id_b AS d FROM mh_pairs
      UNION ALL SELECT id_b, id_a FROM mh_pairs),
nodes AS (SELECT DISTINCT s AS id FROM e),
reach(id, r) AS (
  SELECT id, id FROM nodes
  UNION
  SELECT e.d, reach.r FROM reach JOIN e ON e.s = reach.id
)
SELECT id, MIN(r) AS group_id FROM reach GROUP BY id"""


def cms_probe_sql(probes: list[str], depth: int = 4,
                  width: int = 1024) -> str:
    """Exact oracle for ``stages/sketch.cms_token_counts``: rebuild
    the depth×width register grid from EVERY corpus token through the
    same Horner → +r·GOLDEN → splitmix64 chain (HUGEINT arithmetic,
    bit-for-bit the numpy kernel), then probe the declared tokens —
    hashed by the SAME SQL chain via a tagged UNION, so the probe
    addressing is verified too — with min over rows."""
    vals = ", ".join(f"('{p}')" for p in sorted(probes))
    return f"""WITH corpus AS (
  SELECT 'c' AS src,
         unnest(list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                t -> t <> '')) AS g
  FROM documents
), probes AS (
  SELECT 'p' AS src, g FROM (VALUES {vals}) AS v(g)
), allt AS (
  SELECT * FROM corpus UNION ALL SELECT * FROM probes
), rr AS (
  SELECT src, g, unnest(range(0, {int(depth)})) AS r FROM allt
), h0 AS (
  SELECT src, g, r,
    ((CASE WHEN length(g) = 0 THEN CAST(0 AS HUGEINT) ELSE list_reduce(
        list_transform(string_split(g, ''), c -> CAST(unicode(c) AS HUGEINT)),
        (a, b) -> (a * {FP_PRIME} + b) % {TWO64}) END
      + CAST(r AS HUGEINT) * 11400714819323198485) % {TWO64}) AS hv
  FROM rr
),{_splitmix_ctes('h0', 'src, g, r')},
cols AS (
  SELECT src, g, r, CAST(hv % {int(width)} AS BIGINT) AS col FROM smx
), regs AS (
  SELECT r, col, COUNT(*) AS cnt FROM cols WHERE src = 'c' GROUP BY r, col
), pr AS (
  SELECT DISTINCT g, r, col FROM cols WHERE src = 'p'
)
SELECT pr.g AS token,
       CAST(MIN(COALESCE(regs.cnt, 0)) AS BIGINT) AS est_cnt
FROM pr LEFT JOIN regs ON regs.r = pr.r AND regs.col = pr.col
GROUP BY pr.g
ORDER BY token"""


def _splitmix_ctes_p(src: str, carry: str, p: str) -> str:
    """Prefixed variant of :func:`_splitmix_ctes` so two chains can
    coexist in one query; defines CTE ``{p}smx``."""
    return f"""
{p}m0 AS (SELECT {carry}, (hv + 11400714819323198485) % 18446744073709551616 AS z FROM {src}),
{p}x1 AS (SELECT {carry}, xor(z, z // 1073741824) AS y FROM {p}m0),
{p}m1 AS (SELECT {carry}, ((y % 4294967296) * 484763065
        + (((y % 4294967296) * 3210233709
            + (y // 4294967296) * 484763065) % 4294967296) * 4294967296)
        % 18446744073709551616 AS z FROM {p}x1),
{p}x2 AS (SELECT {carry}, xor(z, z // 134217728) AS y FROM {p}m1),
{p}m2 AS (SELECT {carry}, ((y % 4294967296) * 321982955
        + (((y % 4294967296) * 2496678331
            + (y // 4294967296) * 321982955) % 4294967296) * 4294967296)
        % 18446744073709551616 AS z FROM {p}x2),
{p}smx AS (SELECT {carry}, xor(z, z // 2147483648) AS hv FROM {p}m2)"""


def winnow_pairs_sql(k: int = 8, sel_mod: int = 16,
                     window: int = 64) -> str:
    """Exact oracle for ``stages/dedup.substring_dup_pairs``: replay
    the content-defined anchors (k-gram splitmix64(Horner) hash ≡ 0
    mod ``sel_mod``, window inside the doc), the window fingerprints
    (same kernel over ``substr(text, pos, window)``), and the
    distinct-shared-fingerprint pair join — bit-for-bit in HUGEINT."""
    horner = (f"list_reduce(list_transform(string_split({{s}}, ''), "
              f"c -> CAST(unicode(c) AS HUGEINT)), "
              f"(a, b) -> (a * {FP_PRIME} + b) % {TWO64})")
    return f"""WITH g AS (
  SELECT doc_id, text,
         unnest([substr(text, i, {k})
                 FOR i IN range(1, length(text) - {k} + 2)]) AS sh,
         unnest(range(1, length(text) - {k} + 2)) AS pos
  FROM documents WHERE length(text) >= {k}
), h0 AS (
  SELECT doc_id, text, pos, {horner.format(s='sh')} AS hv FROM g
),{_splitmix_ctes_p('h0', 'doc_id, text, pos', 'a')},
anch AS (
  SELECT doc_id, substr(text, pos, {window}) AS win
  FROM asmx
  WHERE hv % {sel_mod} = 0 AND pos + {window} - 1 <= length(text)
), h1 AS (
  SELECT doc_id, {horner.format(s='win')} AS hv FROM anch
),{_splitmix_ctes_p('h1', 'doc_id', 'b')},
fps AS (
  SELECT DISTINCT doc_id,
         CAST(CASE WHEN hv >= 9223372036854775808
                   THEN hv - 18446744073709551616 ELSE hv END
              AS BIGINT) AS fp
  FROM bsmx
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS shared_spans
FROM fps a JOIN fps b ON a.fp = b.fp AND a.doc_id < b.doc_id
GROUP BY 1, 2"""


def minhash_decontam_sql(a, b, *, eval_source: str = "src0", k: int = 5,
                         bands: int = 16, threshold: float = 0.5,
                         max_bucket_fanout: int = _MAX_BUCKET_FANOUT) -> str:
    """Exact oracle for ``stages/decontam.decontaminate_fuzzy`` with
    eval = ``documents.source == eval_source``: same signature /
    band-bucket / prefilter / exact-Jaccard replay as
    ``minhash_pairs_sql`` but with CROSS-SIDE candidates only
    (train × eval within a bucket), finishing with the anti join that
    keeps un-contaminated train rows. The engine's hot-bucket cap is
    replayed too: a bucket with ``n_train·n_eval > max_bucket_fanout``
    pairs only its ``GREATEST(max_bucket_fanout // n_eval, 1)``
    smallest train ids (default: the engine's default)."""
    num_perm = len(a)
    rpb = num_perm // bands
    perm_rows = ", ".join(f"({i}, {int(a[i])}, {int(b[i])})"
                          for i in range(num_perm))
    return f"""WITH {_shingle_ctes(k, distinct=True)},
perms(p, pa, pb) AS (VALUES {perm_rows}),
pv AS (
  SELECT doc_id, p, MIN((((hv % {M61}) * pa % {TWO64} + pb) % {TWO64}) % {M61}) AS v
  FROM smx CROSS JOIN perms GROUP BY doc_id, p
),
sig AS (SELECT doc_id, list(v ORDER BY p) AS s FROM pv GROUP BY doc_id),
bandrows AS (
  SELECT doc_id, bnum,
         array_to_string(list_slice(s, {rpb} * bnum + 1, {rpb} * bnum + {rpb}), ',') AS bkey
  FROM sig, range({bands}) t(bnum)
),
sided AS (
  SELECT x.doc_id, x.bnum, x.bkey, d.source = '{eval_source}' AS is_eval
  FROM bandrows x JOIN documents d ON d.doc_id = x.doc_id
),
bsize AS (
  SELECT bnum, bkey, count(*) FILTER (WHERE NOT is_eval) AS n_t,
         count(*) FILTER (WHERE is_eval) AS n_e
  FROM sided GROUP BY bnum, bkey
),
kept AS (
  SELECT t.doc_id, t.bnum, t.bkey
  FROM (SELECT *, row_number() OVER (PARTITION BY bnum, bkey
                                     ORDER BY doc_id) AS rk
        FROM sided WHERE NOT is_eval) t
  JOIN bsize c ON c.bnum = t.bnum AND c.bkey = t.bkey
  WHERE c.n_t * c.n_e <= {max_bucket_fanout}
     OR t.rk <= GREATEST({max_bucket_fanout} // NULLIF(c.n_e, 0), 1)
),
cand AS (
  SELECT DISTINCT t.doc_id AS id_t, e.doc_id AS id_e
  FROM kept t
  JOIN sided e ON e.bnum = t.bnum AND e.bkey = t.bkey AND e.is_eval
),
est AS (
  SELECT c.id_t, c.id_e,
         list_sum([CASE WHEN st.s[j] = se.s[j] THEN 1 ELSE 0 END
                   FOR j IN range(1, {num_perm} + 1)]) AS mc
  FROM cand c
  JOIN sig st ON st.doc_id = c.id_t
  JOIN sig se ON se.doc_id = c.id_e
),
cand2 AS (SELECT id_t, id_e FROM est
          WHERE mc / {num_perm}.0 >= ({threshold} - 0.2)),
sizes AS (SELECT doc_id, count(*) AS n FROM sh0 GROUP BY doc_id),
inter AS (
  SELECT c.id_t, c.id_e, count(*) AS i
  FROM cand2 c
  JOIN sh0 st ON st.doc_id = c.id_t
  JOIN sh0 se ON se.doc_id = c.id_e AND se.g = st.g
  GROUP BY c.id_t, c.id_e
),
contaminated AS (
  SELECT DISTINCT c.id_t AS doc_id
  FROM inter c
  JOIN sizes nt ON nt.doc_id = c.id_t
  JOIN sizes ne ON ne.doc_id = c.id_e
  WHERE c.i::DOUBLE / (nt.n + ne.n - c.i) >= {threshold}
)
SELECT doc_id, source, n_chars FROM documents
WHERE source <> '{eval_source}'
  AND doc_id NOT IN (SELECT doc_id FROM contaminated)"""
