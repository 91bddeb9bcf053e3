"""Text-analysis stages over the ``documents`` table.

Training-data-pipeline operators, each an actor-pool ``map_batches`` stage
with per-actor compiled state (ST2 pattern, ``correlate.py:25-33``):
language-ID (stopword/char n-gram heuristic), quality scoring
(length/punct/stopword ratios — M9-style derived columns,
``filters.py:200-202``), token counting (whitespace + BPE-ish regex), and
rolling-hash document fingerprinting.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray.data

from gene_etl_ray.hashing import hash_objects
from gene_etl_ray.ops.util import per_process, typed_if_empty

# tiny deterministic stopword sets per language (public common words)
_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "zu", "den", "von"},
    "fr": {"le", "la", "les", "et", "un", "une", "des", "est", "que", "pour"},
    "es": {"el", "la", "los", "de", "que", "y", "en", "un", "una", "es"},
    "pt": {"o", "a", "os", "de", "que", "e", "em", "um", "uma", "para"},
    "ru": {"и", "в", "не", "на", "что", "я", "с", "он", "как", "это"},
}

_WORD = re.compile(r"\w+", re.UNICODE)

#: Distinct (gram, doc) pair-row bound for novelty_score's in-task
#: fast path: below it one worker task computes both novelty
#: aggregates (pair table ≈ 16 B/row → ≤ ~130 MB in-task), replacing
#: two fixed-cost in-pipeline exchanges; above it the bucketed
#: exchanges run (10^10-doc pair tables are corpus-sized).
NOVELTY_INTASK_PAIRS = 8_000_000
_BPE_ISH = re.compile(  # GPT-2-style pretokenizer shape (public pattern)
    r"'(?:s|t|re|ve|m|ll|d)| ?\w+| ?[^\s\w]+|\s+(?!\S)|\s+"
)
_PUNCT = re.compile(r"[^\w\s]", re.UNICODE)


class LangId:
    """Heuristic language ID: stopword hit-rate per language + CJK script
    detection — FULLY VECTORIZED (one compiled alternation regex per
    language, counted column-wise; no per-document Python). A token
    equals a stopword exactly when the text contains it as a maximal
    ``\\w`` run, so ``\\b(?:w1|w2|...)\\b`` over the lowered sample counts
    precisely the tokens the per-row set-membership version counted —
    the two are equivalent and the regexes are RE2-compatible, which is
    what gives this stage its DuckDB oracle (LANG_ID_SQL). Tie-break:
    first language in declaration order wins (argmax-first), matching
    the historical iteration order."""

    def __init__(self) -> None:
        self.langs = list(_STOPWORDS)
        self.pats = {
            lang: re.compile(r"\b(?:" + "|".join(sorted(ws)) + r")\b")
            for lang, ws in _STOPWORDS.items()
        }
        self.word = _WORD
        self.cjk = re.compile(r"[一-鿿぀-ヿ]")
        self.kana = re.compile(r"[぀-ヿ]")

    def classify(self, text: str) -> str:
        """Single-doc convenience (tests/accuracy gates): routes through
        the same vectorized kernel."""
        return self(pd.DataFrame({"text": [text]}))["lang_pred"].iloc[0]

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        sample = batch["text"].fillna("").str.slice(0, 2000)
        low = sample.str.lower()
        n_toks = low.str.count(self.word)
        rates = np.stack(
            [
                (low.str.count(self.pats[lang]) / n_toks.replace(0, 1)).to_numpy()
                for lang in self.langs
            ],
            axis=1,
        )
        best_idx = rates.argmax(axis=1)  # first max wins, like the dict loop
        best_rate = rates.max(axis=1)
        pred = np.asarray(self.langs, dtype=object)[best_idx]
        pred = np.where(
            (best_rate > 0.02) & (n_toks.to_numpy() > 0), pred, "und"
        )
        # CJK script override (vectorized counts; rare path on web corpora)
        cjk_n = sample.str.count(self.cjk).to_numpy()
        is_cjk = cjk_n > sample.str.len().to_numpy() * 0.15
        if is_cjk.any():
            has_kana = sample.str.count(self.kana).to_numpy() > 0
            pred = np.where(is_cjk, np.where(has_kana, "ja", "zh"), pred)
        batch["lang_pred"] = pred
        return batch


class QualityScorer:
    """Per-doc quality signals, Arrow end-to-end (zero-copy batches in,
    one RE2 count kernel per signal — no pandas string boxing): char/word
    counts, mean word length, punctuation ratio, stopword ratio, uppercase
    ratio — the derived-ratio column family (M9). RE2's ASCII ``\\w`` and
    Python's unicode one agree on this corpus (asserted in tests), which
    is also what makes every signal SQL-derivable (QUALITY_FULL_SQL)."""

    def __init__(self) -> None:
        self.stop_en = _STOPWORDS["en"]
        self.stop_pat = r"\b(?:" + "|".join(sorted(_STOPWORDS["en"])) + r")\b"

    def __call__(self, batch: "pa.Table") -> "pa.Table":
        import pyarrow as pa
        import pyarrow.compute as pc

        s = pc.fill_null(batch.column("text"), "")
        f64 = pa.float64()

        def cnt(pat: str, col=None):
            return pc.cast(
                pc.count_substring_regex(s if col is None else col, pat), f64
            )

        n_chars = pc.cast(pc.utf8_length(s), f64)
        # every kernel is a column-wise count — no per-row Python:
        # mean word length = (# of \w chars) / (# of \w+ runs), identical
        # to the mean of token lengths; stopword hits via ONE alternation
        # regex over the lowered text (token == stopword ⟺ maximal \w run
        # matches \b-delimited alternative)
        n_words = cnt(r"\w+")
        n_word_chars = cnt(r"\w")
        stop_hits = cnt(self.stop_pat, pc.utf8_lower(s))
        one = pa.scalar(1.0, f64)
        chars_div = pc.max_element_wise(n_chars, one)
        words_div = pc.max_element_wise(n_words, one)
        has_words = pc.greater(n_words, pa.scalar(0.0, f64))
        zero = pa.scalar(0.0, f64)
        out = batch
        for name, col in (
            ("n_chars", pc.cast(n_chars, pa.int64())),
            ("n_words", pc.cast(n_words, pa.int64())),
            (
                "mean_word_len",
                pc.if_else(has_words, pc.divide(n_word_chars, words_div), zero),
            ),
            ("punct_ratio", pc.divide(cnt(_PUNCT.pattern), chars_div)),
            (
                "stopword_ratio",
                pc.if_else(has_words, pc.divide(stop_hits, words_div), zero),
            ),
            ("upper_ratio", pc.divide(cnt(r"[A-Z]"), chars_div)),
        ):
            out = out.append_column(name, col)
        return out


def quality_filter_frame(
    b: "pa.Table",
    lang: str = "en",
    min_chars: int = 100,
    max_chars: int = 20000,
    max_upper_ratio: float = 0.3,
) -> "pa.Table":
    """THE corpus quality gate (shared by queries.docs_quality_filter and
    pipelines.curate so the predicate can never diverge between them —
    its SQL twin lives in QUALITY_FILTER_SQL / CURATION_SQL's quality
    CTE): language match, length bounds, shouting-ratio cap. Arrow
    in/out (zero-copy filter over the batch — the full corpus flows
    through this gate, so no pandas string boxing). Returns the kept
    rows with an ``n_chars`` column appended."""
    import pyarrow as pa
    import pyarrow.compute as pc

    s = pc.fill_null(b.column("text"), "")
    f64 = pa.float64()
    n = pc.cast(pc.utf8_length(s), f64)
    upper = pc.divide(
        pc.cast(pc.count_substring_regex(s, r"[A-Z]"), f64),
        pc.max_element_wise(n, pa.scalar(1.0, f64)),
    )
    keep = pc.and_(
        pc.and_(
            pc.equal(b.column("lang"), lang),
            pc.and_(
                pc.greater_equal(n, float(min_chars)),
                pc.less_equal(n, float(max_chars)),
            ),
        ),
        pc.less(upper, max_upper_ratio),
    )
    keep = pc.fill_null(keep, False)
    out = b.append_column("n_chars", pc.cast(n, pa.int64()))
    return out.filter(keep)


def token_count_ws(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Whitespace token count — SQL-checkable kernel, Arrow end-to-end
    (zero-copy batch in, one RE2 count kernel, no pandas string boxing)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch.column("text"), "")
        return batch.append_column(
            "n_tokens_ws",
            pc.cast(pc.count_substring_regex(t, r"\S+"), pa.int64()),
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def token_count_bpe_ish(ds: ray.data.Dataset) -> ray.data.Dataset:
    """BPE-ish pretokenizer count — one RE2 ``count_substring_regex``
    over Arrow batches (non-overlapping matches, identical to
    ``len(findall)``). RE2 has no lookahead, so this uses the
    lookahead-free variant of ``_BPE_ISH`` — the same one the DuckDB
    twin (BPE_SQL) runs: the ``\\s+(?!\\S)`` branch only changes
    SEGMENTATION of whitespace runs, never the token COUNT."""
    import pyarrow as pa
    import pyarrow.compute as pc

    pat = r"'(?:s|t|re|ve|m|ll|d)| ?\w+| ?[^\s\w]+|\s+"

    def fn(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch.column("text"), "")
        return batch.append_column(
            "n_tokens_bpe",
            pc.cast(pc.count_substring_regex(t, pat), pa.int64()),
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def _seg_arange(sizes: np.ndarray) -> np.ndarray:
    """[s0, s1, …] → concatenated [0..s0), [0..s1), …: per-segment arange
    from ONE global arange (no per-segment loop); gather indices are then
    ``repeat(starts, sizes) + _seg_arange(sizes)``."""
    total = int(sizes.sum())
    seg_starts = np.cumsum(sizes) - sizes
    return np.arange(total, dtype=np.int64) - np.repeat(seg_starts, sizes)


class Fingerprinter:
    """Rolling-hash (Rabin-Karp winnowing) document fingerprints: the
    minimum rolling hash in each window of ``w`` k-grams — a deterministic
    compact sketch for near-dup screening."""

    def __init__(self, k: int = 8, window: int = 16):
        self.k, self.w = k, window
        self.base = np.uint64(257)
        self.mod_mask = np.uint64(0xFFFFFFFFFFFFFFFF)

    def fingerprint(self, text: str) -> list[int]:
        data = text.encode("utf-8", errors="replace")
        n = len(data)
        if n < self.k:
            return [int(hash_objects([text])[0])]
        arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
        # fully vectorized: h_i = Σ_j arr[i+j] · base^(k-1-j) mod 2^64 —
        # identical values to the serial Rabin-Karp recurrence, computed
        # as one windows × powers product (no per-byte Python loop)
        from numpy.lib.stride_tricks import sliding_window_view

        powers = np.array(
            [pow(257, self.k - 1 - j, 2**64) for j in range(self.k)],
            dtype=np.uint64,
        )
        windows = sliding_window_view(arr, self.k)
        hashes = (windows * powers[None, :]).sum(axis=1, dtype=np.uint64)
        m = len(hashes)
        if m <= self.w:
            return [int(hashes.min())]
        # winnowing: min per sliding window, deduplicated consecutive
        from numpy.lib.stride_tricks import sliding_window_view

        mins = sliding_window_view(hashes, self.w).min(axis=1)
        keep = np.empty(len(mins), dtype=bool)
        keep[0] = True
        keep[1:] = mins[1:] != mins[:-1]
        return [int(x) for x in mins[keep]]

    def __call__(self, batch: "pa.Table") -> "pa.Table":
        """Flat batch kernel: identical values to per-doc ``fingerprint``
        with NO per-document loop. The whole batch's utf-8 bytes are one
        zero-copy Arrow buffer; the rolling hash accumulates in k passes
        over that flat array (no windows×k intermediate), the winnowing
        minimum in w passes; documents select their slices by offset
        arithmetic, and windows that would cross document boundaries are
        simply never selected. Per-doc consecutive-dedup via a
        doc-start-reset keep mask + ``add.reduceat``."""
        import pyarrow as pa
        import pyarrow.compute as pc

        col = batch.column("text")
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        col = pc.fill_null(col, "")
        arr = pc.cast(col, pa.large_string())
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        n = len(arr)
        if n == 0:
            return batch.append_column(
                "fingerprint", pa.array([], pa.list_(pa.uint64()))
            ).append_column("n_fingerprints", pa.array([], pa.int64()))
        off = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
            arr.offset : arr.offset + n + 1
        ]
        dbuf = arr.buffers()[2]
        data = (
            np.frombuffer(dbuf, dtype=np.uint8)
            if dbuf is not None
            else np.empty(0, np.uint8)
        )
        lens = np.diff(off)
        k, w = self.k, self.w
        powers = np.array(
            [pow(257, k - 1 - j, 2**64) for j in range(k)], dtype=np.uint64
        )
        nbytes = int(off[-1])
        flat = data[: nbytes].astype(np.uint64)
        # rolling k-gram hashes over the FLAT byte stream, k accumulation
        # passes (h[p] = Σ_j flat[p+j]·257^(k-1-j) mod 2^64); positions
        # whose window crosses a doc boundary exist but are never selected
        nh = max(0, nbytes - k + 1)
        h = np.zeros(nh, dtype=np.uint64)
        for j in range(k):
            h += flat[j : j + nh] * powers[j]
        # winnowing minima over w consecutive hashes, w passes
        nm = max(0, nh - w + 1)
        mins = h[:nm].copy()
        for j in range(1, w):
            np.minimum(mins, h[j : j + nm], out=mins)

        m = lens - k + 1  # per-doc k-gram count (≤0 ⇒ short-doc fallback)
        case_a = lens < k  # whole-text hash
        case_c = m > w  # winnowed minima with consecutive dedup
        case_b = (~case_a) & ~case_c  # single min over ≤w hashes

        # C first: its kept-count feeds the final per-doc counts
        n_fp = np.ones(n, dtype=np.int64)
        gvals = keep = bounds = None
        ci = np.flatnonzero(case_c)
        if len(ci):
            counts = (m - w + 1)[ci]
            gidx = np.repeat(off[ci], counts) + _seg_arange(counts)
            gvals = mins[gidx]
            bounds = np.concatenate([[0], np.cumsum(counts)[:-1]])
            keep = np.ones(len(gvals), dtype=bool)
            keep[1:] = gvals[1:] != gvals[:-1]
            keep[bounds] = True  # dedup never crosses a doc boundary
            n_fp[ci] = np.add.reduceat(keep, bounds)

        out_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(n_fp, out=out_off[1:])
        vals = np.zeros(int(out_off[-1]), dtype=np.uint64)

        ai = np.flatnonzero(case_a)
        if len(ai):
            texts = pc.take(arr, pa.array(ai)).to_pylist()
            vals[out_off[ai]] = hash_objects(texts)
        bi = np.flatnonzero(case_b)
        if len(bi):
            # gather each doc's ≤w hashes, min.reduceat over exact sizes
            sizes = m[bi]
            gidx = np.repeat(off[bi], sizes) + _seg_arange(sizes)
            vals[out_off[bi]] = np.minimum.reduceat(
                h[gidx], np.concatenate([[0], np.cumsum(sizes)[:-1]])
            )
        if len(ci):
            kept_per_doc = n_fp[ci]
            tgt = np.repeat(out_off[ci], kept_per_doc) + _seg_arange(kept_per_doc)
            vals[tgt] = gvals[keep]
        fp_col = pa.LargeListArray.from_arrays(
            pa.array(out_off, pa.int64()), pa.array(vals, pa.uint64())
        )
        return batch.append_column("fingerprint", fp_col).append_column(
            "n_fingerprints", pa.array(n_fp, pa.int64())
        )


def redact_terms(
    ds: "ray.data.Dataset",
    pattern: str,
    replacement: str = "[X]",
) -> "ray.data.Dataset":
    """Regex scrubbing over the text column (the PII-redaction shape —
    emails/phones in real webtext; scrub terms on this corpus): per-doc
    hit count and the redacted text, fully vectorized (pandas str
    kernels over compiled RE2-compatible patterns — no lookarounds or
    backrefs, so the exact predicate is SQL-checkable). Adds
    ``n_redacted`` and ``redacted_len``; per-batch, no shuffle; Arrow
    end-to-end (RE2 count + replace kernels — no pandas string boxing)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def fn(b: pa.Table) -> pa.Table:
        t = pc.fill_null(b.column("text"), "")
        b = b.append_column(
            "n_redacted",
            pc.cast(pc.count_substring_regex(t, pattern), pa.int64()),
        )
        return b.append_column(
            "redacted_len",
            pc.cast(
                pc.utf8_length(
                    pc.replace_substring_regex(t, pattern, replacement)
                ),
                pa.int64(),
            ),
        )

    return ds.map_batches(fn, batch_format="pyarrow")


# PII patterns (RE2-safe: no lookarounds/backrefs — the same regex
# runs verbatim in DuckDB, which is what gives pii_scan its oracle).
# Order matters for redaction (emails first so their digits can't be
# half-eaten by the phone pattern) and is identical in the SQL twin.
PII_PATTERNS = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"),
    ("ipv4", r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b"),
    ("phone", r"\+[0-9][0-9()\- ]{6,}[0-9]"),
)


def pii_scan(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    replacement: str = "[PII]",
) -> "ray.data.Dataset":
    """PII detection + redaction over a text column — the
    scrub-before-training stage every webtext pipeline runs (emails,
    IPv4 addresses, international-format phone numbers). Arrow
    end-to-end: one RE2 count kernel per pattern and sequential RE2
    replaces for the redaction — no per-row Python, no pandas string
    boxing (the ``redact_terms`` shape, multi-pattern). Appends
    ``n_email / n_ipv4 / n_phone`` (match counts), ``n_pii`` (total)
    and ``redacted_len`` (length after all patterns are replaced in
    declaration order). Per-batch, no shuffle — scale cost is one pass
    over the text bytes."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def fn(b: pa.Table) -> pa.Table:
        t = pc.fill_null(b.column(text_col), "")
        total = None
        for name, pat in PII_PATTERNS:
            c = pc.cast(pc.count_substring_regex(t, pat), pa.int64())
            b = b.append_column(f"n_{name}", c)
            total = c if total is None else pc.add(total, c)
        b = b.append_column("n_pii", total)
        red = t
        for _, pat in PII_PATTERNS:
            red = pc.replace_substring_regex(red, pat, replacement)
        return b.append_column(
            "redacted_len", pc.cast(pc.utf8_length(red), pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow")


#: Bound on the gathered benchmark (bench_id, trigram) pair table for
#: containment_decontaminate — real decontamination benchmarks are
#: external and small; the guard is loud, not silent.
CONTAINMENT_BENCH_LIMIT = 2_000_000


def containment_decontaminate(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    bench_mod: int = 97,
    n: int = 3,
) -> "ray.data.Dataset":
    """GRADED benchmark decontamination by n-gram CONTAINMENT (the
    GPT-3/PaLM-style definition): for each corpus document, the best
    benchmark item by ``|G(doc) ∩ G(bench)| / |G(bench)|`` — the
    fraction of that benchmark item's distinct word trigrams the
    document contains — with per-benchmark attribution. Complements
    the boolean ``decontaminate`` (shared-gram count) with the graded
    score contamination reports rank by.

    Scale shape: the benchmark subset (here ``id % bench_mod == 0``;
    in production an external eval set) gathers ONCE to a bounded
    (bench_id, gram) table — loud error above
    ``CONTAINMENT_BENCH_LIMIT`` — and ships via ``ray.put``; the
    corpus side is ONE shuffle-free pass (docs never straddle batches,
    so the per-doc argmax finishes in-batch). Ties break
    (containment DESC, bench_id ASC) on the exact double both engines
    compute. Emits only docs sharing ≥1 gram with some benchmark item
    (self excluded). Returns (id, bench_id, n_shared, containment)."""
    def bench_grams(b: pd.DataFrame) -> pd.DataFrame:
        sub = b[b[id_col] % bench_mod == 0]
        ids = sub[id_col].to_numpy(np.int64)
        d, g = _flat_ngrams(sub[text_col].fillna("").str.split(" "), n)
        return pd.DataFrame({"bench_id": ids[d] if len(g) else
                             np.empty(0, np.int64),
                             "g": g}).drop_duplicates()

    bench_pairs = ds.map_batches(
        bench_grams, batch_format="pandas").to_pandas()
    if len(bench_pairs) > CONTAINMENT_BENCH_LIMIT:
        raise ValueError(
            f"containment_decontaminate: benchmark gram table has "
            f"{len(bench_pairs)} pairs > {CONTAINMENT_BENCH_LIMIT} — "
            "decontamination benchmarks are expected to be small; "
            "raise the bound explicitly if yours is not")
    bench_pairs = bench_pairs.drop_duplicates()
    sizes = bench_pairs.groupby("bench_id").size()
    bref = ray.put((bench_pairs, sizes))

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        bp, sz = ray.get(bref)
        empty = pd.DataFrame({
            id_col: pd.Series([], dtype="int64"),
            "bench_id": pd.Series([], dtype="int64"),
            "n_shared": pd.Series([], dtype="int64"),
            "containment": pd.Series([], dtype="float64")})
        if not len(b) or not len(bp):
            return empty
        toks = b[text_col].fillna("").str.split(" ")
        d, g = _flat_ngrams(toks, n)
        if not len(g):
            return empty
        ids = b[id_col].to_numpy(np.int64)
        fr = pd.DataFrame({id_col: ids[d], "g": g}).drop_duplicates()
        m = fr.merge(bp, on="g")
        m = m[m[id_col] != m["bench_id"]]
        if not len(m):
            return empty
        c = m.groupby([id_col, "bench_id"], as_index=False).size()
        c = c.rename(columns={"size": "n_shared"})
        c["containment"] = (
            c["n_shared"].to_numpy(np.float64)
            / sz.loc[c["bench_id"]].to_numpy(np.float64))
        c = c.sort_values(
            [id_col, "containment", "bench_id"],
            ascending=[True, False, True], kind="mergesort")
        c = c.drop_duplicates(id_col, keep="first")
        c["n_shared"] = c["n_shared"].astype("int64")
        return c[[id_col, "bench_id", "n_shared", "containment"]]

    return ds.map_batches(fn, batch_format="pandas")


def pmi_collocations(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    k: int = 50,
    min_count: int = 5,
) -> pd.DataFrame:
    """Top-k COLLOCATIONS by pointwise mutual information over the
    corpus bigram stream:

        PMI(w1, w2) = ln( c(w1,w2) · N / (c1(w1) · c2(w2)) )

    with N total bigram tokens, c1/c2 the left/right marginal counts —
    the classic corpus-analysis surface (word2vec's SGNS objective
    factorizes a shifted version of this matrix). ``min_count`` drops
    rare bigrams whose PMI is noise (the standard guard).

    Scale shape: the corpus explodes once to (w1, w2) bigram rows
    (flat-array kernel); counts are vocab-sized bucketed exchanges;
    the top-k selection is a per-bucket partial top-k widened at the
    boundary tie, merged driver-side — O(buckets·k) driver rows, the
    grouped_sum_topk convention. Ties break (pmi DESC, bigram ASC).
    Returns a k-row frame (w1, w2, n, pmi)."""
    from gene_etl_ray.ops.dedup import bucketed_group_apply

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        toks = b[text_col].fillna("").str.lower().str.findall(_WORD)
        lens = toks.str.len().to_numpy(dtype=np.int64)
        total = int(lens.sum())
        if total < 2:
            return pd.DataFrame({"w1": pd.Series([], dtype=object),
                                 "w2": pd.Series([], dtype=object)})
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
        w1, w2 = flat[:-1], flat[1:]
        ends = np.cumsum(lens)
        ok = np.ones(total - 1, dtype=bool)
        cut = ends - 1
        cut = cut[(cut >= 0) & (cut < total - 1)]
        ok[cut] = False
        return pd.DataFrame({"w1": w1[ok], "w2": w2[ok]})

    grams = ds.map_batches(explode, batch_format="pandas").materialize()
    n_total = grams.count()
    if n_total == 0:
        return pd.DataFrame({"w1": pd.Series([], dtype=object),
                             "w2": pd.Series([], dtype=object),
                             "n": pd.Series([], dtype="int64"),
                             "pmi": pd.Series([], dtype="float64")})

    def sizes(cols, out):
        def fn(g: pd.DataFrame) -> pd.DataFrame:
            return g.groupby(cols, as_index=False, sort=False).size() \
                    .rename(columns={"size": out})
        return fn

    c12 = bucketed_group_apply(grams, ["w1", "w2"],
                               sizes(["w1", "w2"], "n"))
    c1 = bucketed_group_apply(grams.select_columns(["w1"]), ["w1"],
                              sizes(["w1"], "c1"))
    c2 = bucketed_group_apply(grams.select_columns(["w2"]), ["w2"],
                              sizes(["w2"], "c2"))
    from gene_etl_ray.ops.relational import partitioned_join

    j = c12.map_batches(lambda b: b[b["n"] >= min_count],
                        batch_format="pandas")
    j = partitioned_join(j, c1, "w1", "w1")
    j = partitioned_join(j, c2, "w2", "w2")

    def score_topk(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(pmi=np.log(
            b["n"].to_numpy(np.float64) * float(n_total)
            / (b["c1"].to_numpy(np.float64)
               * b["c2"].to_numpy(np.float64))))
        b = b.sort_values(["pmi", "w1", "w2"],
                          ascending=[False, True, True], kind="mergesort")
        return b.head(k)[["w1", "w2", "n", "pmi"]]

    tops = j.map_batches(score_topk, batch_format="pandas").to_pandas()
    tops = tops.sort_values(["pmi", "w1", "w2"],
                            ascending=[False, True, True],
                            kind="mergesort").head(k)
    tops["n"] = tops["n"].astype("int64")
    return tops.reset_index(drop=True)


#: Gopher-adapted quality-rule thresholds (Rae et al. 2021, Table A1,
#: adapted word-level to this corpus's signals — the fixtures carry no
#: newlines, so the line-level rules are represented by their word/
#: n-gram counterparts from ``repetition_stats``).
GOPHER_RULES = {
    "min_words": 50,
    "max_words": 100_000,
    "min_word_len": 3.0,
    "max_word_len": 10.0,
    "min_stopword_ratio": 0.06,
    "max_punct_ratio": 0.3,
    "max_dup_word_frac": 0.6,
    "max_top_bigram_frac": 0.2,
    "max_dup_trigram_frac": 0.6,
}


def gopher_filter(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    rules: dict | None = None,
) -> "ray.data.Dataset":
    """The Gopher/MassiveText COMPOSITE quality filter: every rule from
    ``GOPHER_RULES`` evaluated per document as an explicit flag plus the
    conjunction (``keep``) — the go/no-go gate a pretraining corpus
    runs after the individual signals. Composes the existing vectorized
    kernels in ONE streaming pass (repetition stats → quality scorer →
    flag map; no shuffle, no extra execution). Flags compare against
    6-dp-rounded signal values — the exact doubles the SQL twin
    computes, so boundary documents cannot diverge. Returns
    (id, ok_* flags as int64, keep)."""
    r = dict(GOPHER_RULES, **(rules or {}))
    rep = repetition_stats(
        ds, id_col=id_col, text_col=text_col, keep_columns=True
    ).map_batches(
        # repetition's n_words is space-split; the scorer appends the
        # \w+-token n_words the word-count rule uses — keep both
        lambda b: b.rename(columns={"n_words": "n_words_ws"}),
        batch_format="pandas",
    )
    q = rep.map_batches(per_process(QualityScorer), batch_format="pyarrow")

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        mwl = np.round(b["mean_word_len"].to_numpy(np.float64), 6)
        pr = np.round(b["punct_ratio"].to_numpy(np.float64), 6)
        sr = np.round(b["stopword_ratio"].to_numpy(np.float64), 6)
        nw = b["n_words"].to_numpy(np.int64)
        out = pd.DataFrame({id_col: b[id_col].to_numpy(np.int64)})
        out["ok_words"] = (
            (nw >= r["min_words"]) & (nw <= r["max_words"]))
        out["ok_word_len"] = (
            (mwl >= r["min_word_len"]) & (mwl <= r["max_word_len"]))
        out["ok_stopwords"] = sr >= r["min_stopword_ratio"]
        out["ok_punct"] = pr <= r["max_punct_ratio"]
        out["ok_dup_words"] = (
            b["dup_word_frac"].to_numpy(np.float64)
            <= r["max_dup_word_frac"])
        out["ok_top_bigram"] = (
            b["top_bigram_frac"].to_numpy(np.float64)
            <= r["max_top_bigram_frac"])
        out["ok_dup_trigram"] = (
            b["dup_trigram_frac"].to_numpy(np.float64)
            <= r["max_dup_trigram_frac"])
        flag_cols = [c for c in out.columns if c.startswith("ok_")]
        out["keep"] = out[flag_cols].all(axis=1)
        for c in flag_cols + ["keep"]:
            out[c] = out[c].astype("int64")
        return out

    return q.map_batches(flags, batch_format="pandas")


def bigram_lm_score(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    k: float = 0.5,
) -> "ray.data.Dataset":
    """CORPUS-TRAINED bigram language-model scoring — the CCNet-style
    perplexity quality filter, self-trained so no external model is
    needed: per doc, the mean add-k-smoothed bigram log-probability

        lp(w1 w2) = ln( (c(w1,w2) + k) / (c_left(w1) + k·V) )

    where c(w1,w2) are corpus bigram counts, c_left(w1) the count of w1
    as a bigram LEFT token, and V the corpus vocabulary size. Low
    scores flag machine-generated / boilerplate / wrong-language text
    relative to the corpus itself. Tokenization is the corpus-wide
    ``\\w+`` over lowered text (the tfidf/term-df convention — RE2-safe,
    which is what gives the op its DuckDB twin).

    Scale shape: ONE text pass explodes (doc, bigram, w1) rows via the
    flat-array kernel (no per-doc Python); counts are vocab-sized
    bucketed exchanges; scoring joins the bigram stream against the two
    count tables with the big⋈big partitioned join (strings hash, never
    broadcast); the per-doc mean folds through one
    bucketed int exchange and the result STAYS a Dataset (one row
    per doc is itself corpus-sized at 10^10 docs — callers collect
    bounded slices). Nothing lands whole on the driver. Docs with
    fewer than two tokens carry no bigram and are absent from the
    output (SQL semantics). Returns a Dataset of
    (id, n_bigrams, avg_logprob)."""
    from gene_etl_ray.ops.dedup import bucketed_group_apply
    from gene_etl_ray.ops.relational import partitioned_join

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        toks = b[text_col].fillna("").str.lower().str.findall(_WORD)
        lens = toks.str.len().to_numpy(dtype=np.int64)
        total = int(lens.sum())
        empty = pd.DataFrame({
            id_col: pd.Series([], dtype="int64"),
            "big": pd.Series([], dtype=object),
            "w1": pd.Series([], dtype=object)})
        if total < 2:
            return empty
        flat = np.concatenate(
            [np.asarray(t, dtype=object) for t in toks])
        w1 = flat[:-1]
        w2 = flat[1:]
        ends = np.cumsum(lens)
        ok = np.ones(total - 1, dtype=bool)
        cut = ends - 1  # a bigram starting at a doc's last token straddles
        cut = cut[(cut >= 0) & (cut < total - 1)]
        ok[cut] = False
        if not ok.any():
            return empty
        doc = np.repeat(
            b[id_col].to_numpy(np.int64), lens)[: total - 1]
        return pd.DataFrame({
            id_col: doc[ok],
            "big": (w1.astype(object) + " " + w2)[ok],
            "w1": w1[ok]})

    grams = ds.map_batches(explode, batch_format="pandas").materialize()

    # vocabulary size V: distinct tokens over ALL positions (finals and
    # single-token docs included — a second, token-only pass)
    def tok_unique(b: pd.DataFrame) -> pd.DataFrame:
        toks = b[text_col].fillna("").str.lower().str.findall(_WORD)
        total = int(toks.str.len().sum())
        if not total:
            return pd.DataFrame({"w": pd.Series([], dtype=object)})
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
        return pd.DataFrame({"w": pd.unique(flat)})

    vocab_n = bucketed_group_apply(
        ds.map_batches(tok_unique, batch_format="pandas"),
        ["w"], lambda g: g.drop_duplicates("w"),
    ).count()

    def sizes(cols: list[str], out: str):
        def fn(g: pd.DataFrame) -> pd.DataFrame:
            s = g.groupby(cols, as_index=False, sort=False).size()
            return s.rename(columns={"size": out})
        return fn

    c2 = bucketed_group_apply(
        grams.select_columns(["big"]), ["big"], sizes(["big"], "c2"))
    c1 = bucketed_group_apply(
        grams.select_columns(["w1"]), ["w1"], sizes(["w1"], "c1"))

    j = partitioned_join(grams, c2, "big", "big")
    j = partitioned_join(j, c1, "w1", "w1")

    denom_k = float(k)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        lp = np.log(
            (b["c2"].to_numpy(np.float64) + denom_k)
            / (b["c1"].to_numpy(np.float64) + denom_k * vocab_n))
        g = b.assign(__lp=lp).groupby(id_col, as_index=False, sort=False)
        return g.agg(slp=("__lp", "sum"), n_bigrams=("__lp", "size"))

    # per-doc mean via ONE bucketed int exchange of the per-batch
    # partials — the output stays a Dataset (one row per doc; at
    # 10^10 docs that is itself corpus-sized, so it must NOT fold on
    # the driver — review-caught; callers collect bounded slices)
    def fold(p: pd.DataFrame) -> pd.DataFrame:
        g = p.groupby(id_col, as_index=False, sort=False).agg(
            slp=("slp", "sum"), n_bigrams=("n_bigrams", "sum"))
        g["avg_logprob"] = g["slp"] / g["n_bigrams"]
        g["n_bigrams"] = g["n_bigrams"].astype("int64")
        return g[[id_col, "n_bigrams", "avg_logprob"]]

    return bucketed_group_apply(
        j.map_batches(score, batch_format="pandas"), [id_col], fold)


def _flat_ngrams(toks: pd.Series, n: int, with_pos: bool = False):
    """Word n-grams for EVERY doc in the batch from ONE flat token array
    (the ``ngram_topk`` join shape): all tokens concatenate, windows
    shift against the flat array, and windows that would straddle a
    document boundary are masked out by offset arithmetic — no
    per-document Python loop. Returns ``(doc_idx, grams)`` where
    ``doc_idx`` is the batch-local row index of each gram's document;
    with ``with_pos=True`` returns ``(doc_idx, start, grams)`` where
    ``start`` is the gram's 0-based token offset WITHIN its document
    (the span-dedup shape)."""
    lens = toks.str.len().to_numpy(dtype=np.int64)
    total = int(lens.sum())
    if total < n:
        e = np.empty(0, np.int64), np.empty(0, object)
        return (e[0], e[0].copy(), e[1]) if with_pos else e
    flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
    gram = flat[: total - n + 1].astype(object)
    for j in range(1, n):
        gram = gram + " "
        gram = gram + flat[j : total - n + 1 + j]
    ends = np.cumsum(lens)
    ok = np.ones(total - n + 1, dtype=bool)
    for j in range(1, n):
        cut = ends - j  # window starts whose span crosses this doc's end
        cut = cut[(cut >= 0) & (cut < total - n + 1)]
        ok[cut] = False
    doc = np.repeat(np.arange(len(lens), dtype=np.int64), lens)[: total - n + 1]
    if not with_pos:
        return doc[ok], gram[ok]
    offs = ends - lens  # flat index of each doc's first token
    pos = np.flatnonzero(ok)
    d = doc[ok]
    return d, pos - offs[d], gram[ok]


def repetition_stats(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    keep_columns: bool = False,
) -> ray.data.Dataset:
    """Gopher/MassiveText-style repetition quality signals, per document:
    ``dup_word_frac`` (1 − distinct/total words), ``top_bigram_frac``
    (share of bigram occurrences claimed by the most frequent bigram)
    and ``dup_trigram_frac`` (1 − distinct/total trigrams) — the
    repetition family of the published Gopher quality filters, adapted
    word-level to this corpus (the fixtures carry no newlines, so the
    line-level variants are degenerate here).

    Scale shape: documents never straddle batches, so the whole operator
    is ONE shuffle-free ``map_batches`` pass; inside a batch the n-gram
    join is the flat-array ``_flat_ngrams`` kernel and every per-doc
    statistic is a C-level pandas hash groupby over the gram stream (no
    per-row Python). SQL twin: REPETITION_SQL (string_split + list_zip
    windows + grouped counts)."""

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        toks = b[text_col].fillna("").str.split(" ")
        ids = b[id_col].to_numpy()
        nd = len(b)
        lens = toks.str.len().to_numpy(dtype=np.int64)
        total = int(lens.sum())
        flat = (
            np.concatenate([np.asarray(t, dtype=object) for t in toks])
            if total
            else np.empty(0, object)
        )
        doc_all = np.repeat(np.arange(nd, dtype=np.int64), lens)
        n_distinct = np.zeros(nd, dtype=np.int64)
        if total:
            dw = pd.DataFrame({"d": doc_all, "w": flat}).groupby("d")["w"].nunique()
            n_distinct[dw.index.to_numpy()] = dw.to_numpy()
        dup_word = np.where(
            lens > 0, 1.0 - n_distinct / np.maximum(lens, 1), 0.0
        )
        d2, g2 = _flat_ngrams(toks, 2)
        top_bi = np.zeros(nd)
        if len(g2):
            c = pd.DataFrame({"d": d2, "g": g2}).groupby(["d", "g"]).size()
            st = c.groupby(level=0).agg(["max", "sum"])
            top_bi[st.index.to_numpy()] = (st["max"] / st["sum"]).to_numpy()
        d3, g3 = _flat_ngrams(toks, 3)
        dup_tri = np.zeros(nd)
        if len(g3):
            fr = pd.DataFrame({"d": d3, "g": g3})
            tot = fr.groupby("d").size()
            dis = fr.drop_duplicates().groupby("d").size()
            v = 1.0 - dis / tot
            dup_tri[v.index.to_numpy()] = v.to_numpy()
        stats = pd.DataFrame(
            {
                id_col: ids,
                "n_words": lens,
                "dup_word_frac": np.round(dup_word, 6),
                "top_bigram_frac": np.round(top_bi, 6),
                "dup_trigram_frac": np.round(dup_tri, 6),
            }
        )
        if keep_columns:  # append stats; input columns (incl. text) flow on
            return pd.concat(
                [b.reset_index(drop=True), stats.drop(columns=[id_col])], axis=1
            )
        return stats

    return ds.map_batches(fn, batch_format="pandas")


def decontaminate(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 3,
    min_hits: int = 2,
    bench_mod: int = 97,
    bench_ds: ray.data.Dataset | None = None,
    keep_columns: bool = False,
) -> ray.data.Dataset:
    """Benchmark decontamination: flag documents sharing ≥ ``min_hits``
    DISTINCT word ``n``-grams with a benchmark set — the published
    n-gram-overlap decontamination pattern for training corpora. The
    benchmark here is the deterministic ``doc_id % bench_mod == 0``
    subset (a stand-in for a fixed eval suite; pass any doc predicate
    by pre-filtering in a real run).

    Scale shape: the benchmark n-gram vocabulary is inherently bounded
    (eval suites are fixed and tiny next to the corpus — O(10⁶) grams),
    so it is collected once as per-batch DISTINCT partials and broadcast
    via ``ray.put`` (one object-store copy, read zero-copy by every
    scoring task — never re-shipped per batch); the corpus side is ONE
    shuffle-free ``map_batches`` pass using the same flat-array n-gram
    kernel, with membership via a C-level hash ``isin``. SQL twin:
    DECONTAMINATE_SQL."""
    import ray

    def bench_partial(b: pd.DataFrame):
        import pyarrow as pa

        m = b[b[id_col] % bench_mod == 0]
        if len(m):
            _, g = _flat_ngrams(m[text_col].fillna("").str.split(" "), n)
        else:
            g = np.empty(0, object)
        # Arrow out: Ray's block-size estimator chokes on EMPTY pandas
        # object/string columns (np.vectorize on size-0 input); Arrow
        # blocks size exactly
        return pa.table({"g": pa.array(pd.unique(g), type=pa.string())})

    # ``bench_ds``: build the benchmark gram set from a DIFFERENT corpus
    # than the one being scored (e.g. the full corpus while scoring an
    # already-filtered subset — the benchmark is external by nature)
    bench = (
        (ds if bench_ds is None else bench_ds)
        .map_batches(bench_partial, batch_format="pandas")
        .to_pandas()["g"]
        .unique()
    )
    ref = ray.put(set(bench))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        bs = ray.get(ref)
        ids = b[id_col].to_numpy()
        hits = np.zeros(len(b), dtype=np.int64)
        d, g = _flat_ngrams(b[text_col].fillna("").str.split(" "), n)
        if len(g):
            fr = pd.DataFrame({"d": d, "g": g}).drop_duplicates()
            hc = fr[fr["g"].isin(bs)].groupby("d").size()
            hits[hc.index.to_numpy()] = hc.to_numpy()
        stats = pd.DataFrame(
            {
                id_col: ids,
                "n_hits": hits,
                "contaminated": hits >= min_hits,
                "is_benchmark": ids % bench_mod == 0,
            }
        )
        if keep_columns:
            return pd.concat(
                [b.reset_index(drop=True), stats.drop(columns=[id_col])], axis=1
            )
        return stats

    return ds.map_batches(score, batch_format="pandas")


def chunk_windows(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    window: int = 32,
    stride: int = 24,
) -> ray.data.Dataset:
    """Sliding token-window chunking — the LM-training preprocessing
    step that splits long documents into overlapping fixed-budget
    windows. Emits per-chunk METADATA (token start/count + exact char
    offsets into the original text) rather than materializing the
    overlapping chunk strings, so the output is O(chunks) small ints and
    the text is sliced lazily by whoever consumes a chunk — at 100 TB
    re-materializing every overlapping window would multiply the corpus
    by window/stride.

    Flat-map shape, ONE shuffle-free pass; inside a batch everything is
    offset arithmetic over the flat token array (per-doc chunk counts →
    ``_seg_arange`` fan-out → gather). The char offsets satisfy
    ``text[char_start:char_start+char_len] ==
    ' '.join(tokens[tok_start:tok_start+n_tok])`` (pinned in tests).
    SQL twin: CHUNK_SQL (range-unnest fan-out + prefix-sum window)."""

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        toks = b[text_col].fillna("").str.split(" ")
        ids = b[id_col].to_numpy()
        lens = toks.str.len().to_numpy(dtype=np.int64)
        empty = {
            id_col: np.empty(0, dtype=ids.dtype if len(ids) else np.int64),
            "chunk_id": np.empty(0, np.int64),
            "tok_start": np.empty(0, np.int64),
            "n_tok": np.empty(0, np.int64),
            "char_start": np.empty(0, np.int64),
            "char_len": np.empty(0, np.int64),
        }
        if not len(b) or not int(lens.sum()):
            return pd.DataFrame(empty)
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
        tlen = pd.Series(flat).str.len().to_numpy(dtype=np.int64)
        g = np.cumsum(tlen + 1)  # +1: the single-space joiner
        cstart = np.concatenate(([0], g[:-1]))  # char start of each token
        doc_tok_off = np.cumsum(lens) - lens
        n_chunks = (np.maximum(lens, 1) - 1) // stride + 1
        didx = np.repeat(np.arange(len(b), dtype=np.int64), n_chunks)
        ci = _seg_arange(n_chunks)
        tok_start = ci * stride
        n_tok = np.minimum(window, lens[didx] - tok_start)
        first = doc_tok_off[didx] + tok_start
        last = first + n_tok - 1
        base = cstart[doc_tok_off[didx]]
        return pd.DataFrame(
            {
                id_col: ids[didx],
                "chunk_id": ci,
                "tok_start": tok_start,
                "n_tok": n_tok,
                "char_start": cstart[first] - base,
                "char_len": cstart[last] + tlen[last] - cstart[first],
            }
        )

    return ds.map_batches(fn, batch_format="pandas")


def greedy_pack(n: np.ndarray, budget: int) -> np.ndarray:
    """First-fit-in-order greedy packing kernel: item i joins the
    current sequence iff the sequence's fill + n[i] ≤ budget, else
    starts a new one (an oversized item still gets a sequence). Loops
    over SEQUENCES, not items: one global cumsum + a searchsorted per
    sequence boundary, O(seqs·log items). Returns the per-item seq id."""
    c = np.cumsum(n, dtype=np.int64)
    seq = np.zeros(len(n), dtype=np.int64)
    i, s = 0, 0
    while i < len(n):
        prev = int(c[i - 1]) if i else 0
        j = int(np.searchsorted(c, prev + budget, side="right"))
        j = max(j, i + 1)  # an oversized item still gets a sequence
        seq[i:j] = s
        s += 1
        i = j
    return seq


def pack_sequences(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    budget: int = 128,
    bucket_size: int = 16,
) -> ray.data.Dataset:
    """Greedy training-sequence packing: documents, in id order, fill a
    sequence until the next doc would overflow the token ``budget``
    (an oversized doc always gets its own sequence) — first-fit-in-order
    bin packing, the standard pretraining-batch packer.

    Packing is inherently sequential, so parallelism comes from the
    PARTITIONING ASSUMPTION (documented per the custom-operator rule):
    docs pack within disjoint ``id // bucket_size`` buckets, giving one
    hash shuffle on a bounded-size key and an embarrassingly parallel
    per-bucket pack. Per bucket the loop runs over SEQUENCES, not docs
    (global cumsum + searchsorted per boundary, O(seqs·log docs)). Only
    (id, bucket, n_tokens) rows move — never text. Emits per-sequence
    (bucket, seq_id, n_docs, seq_tokens). SQL twin: PACK_SQL (recursive
    CTE over per-bucket row_number chains)."""

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        toks = b[text_col].fillna("").str.split(" ")
        ids = b[id_col].to_numpy()
        return pd.DataFrame(
            {
                id_col: ids,
                "bucket": ids // bucket_size,
                "n": toks.str.len().to_numpy(dtype=np.int64),
            }
        )

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col)
        n = g["n"].to_numpy(dtype=np.int64)
        out = pd.DataFrame(
            {"bucket": g["bucket"].to_numpy(), "seq_id": greedy_pack(n, budget), "n": n}
        )
        return out.groupby(["bucket", "seq_id"], as_index=False).agg(
            n_docs=("n", "size"), seq_tokens=("n", "sum")
        )

    prepped = ds.map_batches(prep, batch_format="pandas")
    return prepped.groupby("bucket").map_groups(pack, batch_format="pandas")


def tfidf_topk(
    ds: ray.data.Dataset,
    k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Top-k TF-IDF terms per document: tf(term, doc) · ln(N / df(term)).

    Document frequency is computed with the distinct-(term, doc)-pair
    combiner (per batch, before anything moves) and ONE vocab-sized
    groupby — the same exchange shape as ``docs_term_df``. The resulting
    term→df map is broadcast once via ``ray.put`` (bounded-vocab
    assumption: natural-language vocabularies are millions of terms at
    most, O(100 MB) — far below fact-table scale; were the "vocabulary"
    unbounded, swap the broadcast for a partitioned join on term).
    TF and the per-doc top-k then run entirely inside ``map_batches``
    (documents never straddle batches), so the whole scoring pass is
    shuffle-free. Ties break by term ascending, deterministically."""
    import ray

    def term_doc_pairs(b: pd.DataFrame) -> pd.DataFrame:
        s = b.set_index(id_col)[text_col].str.split(" ").explode()
        return (
            pd.DataFrame({id_col: s.index, "term": s.to_numpy()})
            .drop_duplicates()
        )

    def df_count(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"term": [g["term"].iloc[0]], "df": [int(g[id_col].nunique())]}
        )

    n_docs = ds.count()
    df_tbl = (
        ds.map_batches(term_doc_pairs, batch_format="pandas")
        .groupby("term")
        .map_groups(df_count, batch_format="pandas")
        .to_pandas()
    )
    df_ref = ray.put(dict(zip(df_tbl["term"], df_tbl["df"].astype(float))))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        dfm = ray.get(df_ref)
        s = b.set_index(id_col)[text_col].str.split(" ").explode()
        tf = (
            pd.DataFrame({id_col: s.index, "term": s.to_numpy()})
            .groupby([id_col, "term"], as_index=False)
            .size()
        )
        dfv = tf["term"].map(dfm).to_numpy(dtype=np.float64)
        tf["tfidf"] = tf["size"].to_numpy(dtype=np.float64) * np.log(
            float(n_docs) / dfv
        )
        tf = tf.sort_values(
            [id_col, "tfidf", "term"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        out = tf.groupby(id_col, as_index=False).head(k)
        return out[[id_col, "term", "tfidf"]]

    return (
        ds.map_batches(score, batch_format="pandas")
        .to_pandas()
        .sort_values([id_col, "tfidf", "term"], ascending=[True, False, True])
        .reset_index(drop=True)
    )


def ngram_topk(
    ds: ray.data.Dataset,
    n: int = 2,
    k: int = 20,
    text_col: str = "text",
) -> pd.DataFrame:
    """Corpus-wide top-k word n-grams (the LM-preprocessing count table):
    per-batch n-gram count partials are the combiner — a hot n-gram's
    occurrences collapse to one row per batch before anything moves —
    then the skew-safe ``grouped_sum_topk`` merge. The n-gram join is
    fully vectorized: all batch tokens concatenate into one flat array,
    windows shift against it, and cross-document windows are masked out
    by boundary arithmetic (no per-document Python loop)."""
    from gene_etl_ray.ops.relational import grouped_sum_topk

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        toks_per_doc = b[text_col].str.split(" ")
        lens = toks_per_doc.str.len().to_numpy(dtype=np.int64)
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks_per_doc])
        total = len(flat)
        if total < n:
            return pd.DataFrame({"ngram": pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64")})
        gram = flat[: total - n + 1].astype(object)
        for j in range(1, n):
            gram = gram + " "
            gram = gram + flat[j : total - n + 1 + j]
        # a window starting within the last n-1 tokens of a doc crosses
        # into the next doc — mask it out via the doc-end boundaries
        ends = np.cumsum(lens)
        ok = np.ones(total - n + 1, dtype=bool)
        for j in range(1, n):
            cut = ends - j  # window starts that would straddle the end
            cut = cut[(cut >= 0) & (cut < total - n + 1)]
            ok[cut] = False
        vc = pd.Series(gram[ok]).value_counts()
        return pd.DataFrame(
            {"ngram": vc.index.to_numpy(object), "n": vc.to_numpy(np.int64)}
        )

    partials = ds.map_batches(partial, batch_format="pandas")
    out = grouped_sum_topk(partials, "ngram", "n", k)
    out["n"] = out["n"].astype("int64")
    return out


def novelty_score(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 3,
) -> ray.data.Dataset:
    """Per-document n-gram NOVELTY: the fraction of a document's
    distinct word ``n``-grams whose corpus-wide first occurrence
    (min ``id_col``) is this document — the diversity/novelty signal
    data-pruning recipes rank by (a doc made entirely of grams already
    seen earlier scores 0; fully original text scores 1). Extends the
    reference's whole-record duplicate collapse
    (``etl/transform.py`` content-hash dedup) to a graded sub-record
    signal.

    Scale shape — two column-pruned streaming passes, no gram↔doc
    join: (1) per-batch DISTINCT ``(gram, doc)`` pairs (docs never
    straddle batches, so batch-local dedup is globally exact), grams
    identified by their 64-bit siphash — the same hash-equality
    identity convention ``content_hash`` dedup already relies on
    (birthday risk ~n²/2⁶⁵; deterministic, so the string-based SQL
    twin stays green at gate scales) — shuffled ONCE by hash bucket to
    take min(doc) per gram (int64 exchange instead of sorting gram
    strings: measured ~2× the whole operator at sf0.1); first-owner
    counts then hash-aggregate by doc via per-batch partials.
    (2) per-doc distinct-gram totals are shuffle-free. The two partial
    streams meet in one tiny per-doc groupby. SQL twin: NOVELTY_SQL
    (min-per-gram + two grouped counts)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def pairs(b: pd.DataFrame) -> "pa.Table":
        ids = b[id_col].to_numpy(np.int64)
        d, g = _flat_ngrams(b[text_col].fillna("").str.split(" "), n)
        if len(g):
            gh = hash_objects(g).astype(np.int64)
            gh &= np.int64(0x7FFFFFFFFFFFFFFF)  # keep the sentinel space
            u = pd.DataFrame({"gh": gh, "doc": ids[d]}).drop_duplicates()
            pg = u["gh"].to_numpy(np.int64)
            pdoc = u["doc"].to_numpy(np.int64)
        else:
            pg = np.array([], dtype=np.int64)
            pdoc = np.array([], dtype=np.int64)
        # docs with zero grams (< n tokens) keep one sentinel (-1) row
        # so the per-doc distinct-count table still covers them
        miss = np.setdiff1d(ids, pdoc)
        return pa.table(
            {
                "gh": pa.array(
                    np.concatenate([pg, np.full(len(miss), -1, np.int64)]),
                    pa.int64(),
                ),
                "doc": pa.array(np.concatenate([pdoc, miss]), pa.int64()),
            }
        )

    # ONE gram pass, checkpointed: the distinct (gram, doc) pair table
    # is built once and both aggregates below derive from it. The
    # checkpoint is object-store-pinned (Ray spills it past memory) —
    # the same stage-checkpoint pattern the MinHash chain uses; without
    # it each downstream sort re-executes the lazy gram build (measured
    # 3-4x the whole operator's wall at sf0.1).
    pair_ds = ds.map_batches(pairs, batch_format="pandas").materialize()

    if pair_ds.count() <= NOVELTY_INTASK_PAIRS:
        # bounded pair-table fast path (the in-task convention): both
        # aggregates — min-doc-per-gram then per-doc counts — are pure
        # functions of the distinct (gram, doc) pair table; below the
        # bound ONE worker task resolves the block refs and computes
        # them in pandas, replacing the two in-pipeline exchanges
        # (each ~1.2 s fixed at bench scale). Refs resolve inside the
        # task; the result returns as a Dataset via from_pandas_refs —
        # nothing lands on the driver. Parity with the distributed
        # path pinned by tests/test_ops.py.
        import ray as _ray

        @_ray.remote(num_cpus=1)
        def solve(*parts: pd.DataFrame) -> pd.DataFrame:
            df = pd.concat(list(parts), ignore_index=True)
            if not len(df):
                return pd.DataFrame({
                    id_col: pd.Series([], dtype="int64"),
                    "n_distinct": pd.Series([], dtype="int64"),
                    "n_novel": pd.Series([], dtype="int64"),
                    "novelty": pd.Series([], dtype="float64")})
            valid = df[df["gh"] >= 0]
            nd = valid.groupby("doc")["gh"].size()
            nv = valid.groupby("gh")["doc"].min().value_counts()
            docs = np.sort(df["doc"].unique()).astype(np.int64)
            ndv = nd.reindex(docs).fillna(0).to_numpy(np.int64)
            nvv = nv.reindex(docs).fillna(0).to_numpy(np.int64)
            return pd.DataFrame({
                id_col: docs,
                "n_distinct": ndv,
                "n_novel": nvv,
                "novelty": np.where(
                    ndv > 0,
                    nvv.astype(np.float64) / np.maximum(ndv, 1),
                    np.nan),
            })

        refs = pair_ds.to_pandas_refs()
        if refs:
            return ray.data.from_pandas_refs([solve.remote(*refs)])
        return ray.data.from_pandas(pd.DataFrame({
            id_col: pd.Series([], dtype="int64"),
            "n_distinct": pd.Series([], dtype="int64"),
            "n_novel": pd.Series([], dtype="int64"),
            "novelty": pd.Series([], dtype="float64")}))

    # the one real shuffle: min doc per gram (first owner) — int64
    # hash-bucketed exchange + vectorized in-bucket min, not a global
    # sort over gram strings
    from gene_etl_ray.ops.dedup import bucketed_group_apply

    firsts = bucketed_group_apply(
        pair_ds.map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("gh"),
                                                pa.scalar(0, pa.int64()))),
            batch_format="pyarrow",
        ),
        ["gh"],
        lambda g: g.groupby("gh", as_index=False, sort=False)["doc"].min(),
    )

    def novel_partial(b: pd.DataFrame) -> pd.DataFrame:
        c = b.groupby("doc").size()
        return pd.DataFrame(
            {
                id_col: c.index.to_numpy(np.int64),
                "dc": np.zeros(len(c), dtype=np.int64),
                "nc": c.to_numpy(np.int64),
            }
        )

    def dist_partial(t: "pa.Table") -> pd.DataFrame:
        doc = t.column("doc").to_numpy(zero_copy_only=False)
        valid = (
            t.column("gh").to_numpy(zero_copy_only=False) >= 0
        )
        c = (
            pd.DataFrame({"doc": doc, "v": valid.astype(np.int64)})
            .groupby("doc")["v"]
            .sum()
        )
        return pd.DataFrame(
            {
                id_col: c.index.to_numpy(np.int64),
                "dc": c.to_numpy(np.int64),
                "nc": np.zeros(len(c), dtype=np.int64),
            }
        )

    # both per-doc counts meet in ONE tiny bucketed groupby (no join):
    # union the two partial streams — (doc, n_distinct, 0) from the
    # pair table, (doc, 0, n_novel) from the first-owner table — and
    # sum per doc inside hash buckets (int64 exchange, no global sort)
    per_doc = bucketed_group_apply(
        pair_ds.map_batches(dist_partial, batch_format="pyarrow").union(
            firsts.map_batches(novel_partial, batch_format="pandas")
        ),
        [id_col],
        lambda g: g.groupby(id_col, as_index=False, sort=False)[
            ["dc", "nc"]
        ].sum(),
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        nv = b["nc"].fillna(0).astype(np.int64)
        nd = b["dc"].fillna(0).astype(np.int64)
        return pd.DataFrame(
            {
                id_col: b[id_col].astype(np.int64),
                "n_distinct": nd,
                "n_novel": nv,
                "novelty": np.where(
                    nd > 0, nv.to_numpy(np.float64) / np.maximum(nd, 1), np.nan
                ),
            }
        )

    return per_doc.map_batches(finish, batch_format="pandas")


def lm_quality(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    vocab_size: int = 20,
) -> ray.data.Dataset:
    """CCNet-style language-model quality scoring with a deterministic
    unigram LM standing in for KenLM (the published pattern: score each
    document by its mean token log-probability under a corpus LM; cut
    the low tail). The LM here is add-one-smoothed unigram over the
    top-``vocab_size`` corpus terms — deterministic and
    SQL-reproducible, while the Ray plumbing (distributed vocabulary
    build → one broadcast → shuffle-free scoring pass) is exactly what
    a real KenLM/fastText scorer needs; swap the probability table for
    a model handle in an actor pool to productionize.

    ``score(doc) = round(mean_t ln((c(t)+1) / (T+V+1)), 6)`` where
    ``c(t)`` is the corpus count of in-vocab terms (0 for OOV) and
    ``T`` the total corpus token count.

    Scale shape: vocabulary counts are per-batch value_counts partials
    (vocab-bounded exchange, same as term_df) reduced by the existing
    partial top-k; the count table broadcasts ONCE via ``ray.put``;
    scoring is one shuffle-free pass — flat token array, C-level dict
    lookup, per-doc means by ``np.bincount``. SQL twin: LM_QUALITY_SQL.
    """
    import ray

    from gene_etl_ray.ops.relational import grouped_sum_topk

    # the sentinel key threads the batch token totals through the same
    # partials so the global T needs no second corpus pass (it is
    # excluded from the top-k below — NUL sorts before any real term
    # but top-k keys on count, so strip it explicitly)
    _SENT = "\x00total"

    def term_partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = b[text_col].fillna("").str.split(" ")
        lens = toks.str.len().to_numpy(np.int64)
        if not lens.sum():
            return pd.DataFrame(
                {
                    "t": pd.Series([], dtype="object"),
                    "c": pd.Series([], dtype="int64"),
                }
            )
        flat = np.concatenate([np.asarray(x, dtype=object) for x in toks])
        vc = pd.Series(flat).value_counts()
        return pd.DataFrame(
            {
                "t": np.concatenate([vc.index.to_numpy(object), [_SENT]]),
                "c": np.concatenate(
                    [vc.to_numpy(np.int64), [int(lens.sum())]]
                ),
            }
        )

    partials = ds.map_batches(term_partial, batch_format="pandas")
    total = int(
        partials.map_batches(
            lambda b: typed_if_empty(b[b["t"] == _SENT]),
            batch_format="pandas",
        ).sum("c")
        or 0
    )
    vocab = grouped_sum_topk(
        partials.map_batches(
            lambda b: typed_if_empty(b[b["t"] != _SENT]),
            batch_format="pandas",
        ),
        "t", "c", vocab_size,
    )
    cmap = dict(zip(vocab["t"].tolist(), (int(v) for v in vocab["c"])))
    denom = float(total + vocab_size + 1)
    ref = ray.put(cmap)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        cm = ray.get(ref)
        toks = b[text_col].fillna("").str.split(" ")
        lens = toks.str.len().to_numpy(np.int64)
        ids = b[id_col].to_numpy(np.int64)
        if not lens.sum():
            return pd.DataFrame(
                {id_col: ids, "lm_score": np.full(len(b), np.nan)}
            )
        flat = np.concatenate([np.asarray(x, dtype=object) for x in toks])
        c = pd.Series(flat).map(cm).fillna(0).to_numpy(np.float64)
        lp = np.log((c + 1.0) / denom)
        doc = np.repeat(np.arange(len(b)), lens)
        sums = np.bincount(doc, weights=lp, minlength=len(b))
        mean = np.where(lens > 0, sums / np.maximum(lens, 1), np.nan)
        return pd.DataFrame(
            {id_col: ids, "lm_score": np.round(mean, 6)}
        )

    return ds.map_batches(score, batch_format="pandas")


def prefix_key(
    ds: ray.data.Dataset,
    k: int = 12,
    text_col: str = "text",
    out_col: str = "prefix_key",
) -> ray.data.Dataset:
    """First-``k``-whitespace-tokens fingerprint: the cheap
    boilerplate/near-dup key crawl pipelines use when two snapshots of
    a page share an opening but differ in the tail (URL-less exact-ish
    dedup). The key is the first ``k`` tokens of the trimmed text
    joined by single spaces — identical to the SQL
    ``array_to_string(string_split_regex(trim(text),'\\s+')[1:k],' ')``
    so results are value-hash oracle-checkable.

    Fully vectorized: one compiled-regex ``str.extract`` pulls the
    prefix (no per-row token lists), one ``str.replace`` collapses
    interior whitespace runs. Map-only, zero shuffle."""
    pat = re.compile(r"^((?:\S+\s+){0,%d}\S+)" % (int(k) - 1))

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        s = b[text_col].fillna("").str.strip()
        pre = s.str.extract(pat, expand=False).fillna("")
        b[out_col] = pre.str.replace(r"\s+", " ", regex=True)
        return typed_if_empty(b)

    return ds.map_batches(fn, batch_format="pandas")


def _distinct_term_doc_pairs(
    b: pd.DataFrame, id_col: str, text_col: str
) -> pd.DataFrame:
    """Per-batch distinct (term, doc) pairs — the inverted-index /
    DF combiner: a batch emits at most its vocabulary × docs pairs,
    never its raw token stream. Flat-array build (no per-row loop)."""
    lists = b[text_col].fillna("").str.split().tolist()
    lens = np.fromiter(
        (len(t) for t in lists), dtype=np.int64, count=len(lists)
    )
    if lens.sum() == 0:
        return pd.DataFrame(
            {"term": pd.Series([], dtype="object"),
             id_col: pd.Series([], dtype="int64")}
        )
    terms = np.concatenate([np.asarray(t, dtype=object) for t in lists if t])
    ids = np.repeat(b[id_col].to_numpy(), lens)
    return (
        pd.DataFrame({"term": terms, id_col: ids})
        .drop_duplicates()
        .reset_index(drop=True)
    )


def inverted_index(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_postings: int = 1000,
) -> pd.DataFrame:
    """Distributed inverted-index build: term → (df, sorted posting
    list) — the corpus-search structure every retrieval/dedup stack
    needs beside the DF table. Shape: the distinct-(term, doc)-pair
    combiner per batch (repeats collapse before anything moves), ONE
    vocab-keyed groupby, and a per-term in-group kernel that sorts the
    posting list. Stop-term guard: a term whose df exceeds
    ``max_postings`` keeps its exact df but ELIDES the posting list
    (postings = NULL) — the standard stop-list rule that bounds the
    widest row at 100 TB instead of materializing an O(corpus) list in
    one group task; callers that need full stop-term postings shard
    them by doc range instead. Postings serialize as a comma-joined
    string (equal to SQL ``string_agg(id, ',' ORDER BY id)``), so the
    whole structure sits under the value-hash oracle gate."""

    from gene_etl_ray.ops.dedup import bucketed_group_apply

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        return _distinct_term_doc_pairs(b, id_col, text_col)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # whole terms are co-located per bucket; one vectorized task per
        # bucket, NOT one Ray dispatch per term (ruinous at natural-
        # language vocabulary sizes — the GROUP_BUCKETS rationale)
        g = g.drop_duplicates(["term", id_col]).sort_values(
            ["term", id_col], kind="mergesort"
        )
        sizes = g.groupby("term", sort=False)[id_col].size()
        under = sizes[sizes <= max_postings].index
        joined = (
            g[g["term"].isin(under)]
            .astype({id_col: str})
            .groupby("term", sort=False)[id_col]
            .agg(",".join)
        )
        out = pd.DataFrame(
            {"term": sizes.index.to_numpy(dtype=object),
             "df": sizes.to_numpy(np.int64)}
        )
        out["postings"] = out["term"].map(joined).astype(object)
        out.loc[out["postings"].isna(), "postings"] = None  # not NaN
        return out

    out = bucketed_group_apply(
        ds.map_batches(pairs, batch_format="pandas"), ["term"], per_bucket
    ).to_pandas()
    if "term" not in out.columns:  # all-empty corpus loses the schema
        out = pd.DataFrame(
            {"term": pd.Series([], dtype="object"),
             "df": pd.Series([], dtype="int64"),
             "postings": pd.Series([], dtype="object")}
        )
    out["df"] = out["df"].astype("int64")
    return out.sort_values("term").reset_index(drop=True)


def search_and(
    ds: ray.data.Dataset,
    terms: list[str],
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Conjunctive (AND) term search: doc ids containing EVERY query
    term. The query-term filter is pushed into the tokenize batch —
    each batch emits at most |terms| × docs pairs (usually far fewer),
    so the single doc-keyed groupby exchange carries query-sized data,
    never the token stream. Equivalent to intersecting the inverted
    index's posting lists, fused with the build."""
    want = sorted(set(terms))

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        p = _distinct_term_doc_pairs(b, id_col, text_col)
        return typed_if_empty(p[p["term"].isin(want)])

    from gene_etl_ray.ops.dedup import bucketed_group_apply

    def covered(g: pd.DataFrame) -> pd.DataFrame:
        # whole docs co-locate per bucket; vectorized coverage count —
        # no per-doc dispatch
        g = g.drop_duplicates([id_col, "term"])
        n = g.groupby(id_col, sort=False)["term"].size()
        return pd.DataFrame({id_col: n.index[n == len(want)].to_numpy()})

    hits = bucketed_group_apply(
        ds.map_batches(pairs, batch_format="pandas"), [id_col], covered
    ).to_pandas()
    if id_col not in hits.columns:  # every group filtered out
        hits = pd.DataFrame({id_col: pd.Series([], dtype="int64")})
    hits[id_col] = hits[id_col].astype("int64")
    return hits.sort_values(id_col).reset_index(drop=True)


def phrase_search(
    ds: ray.data.Dataset,
    phrase: str,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Exact phrase search: doc ids containing the query tokens as a
    CONTIGUOUS run — the positional-index query beside ``search_and``
    (bag-of-words AND). Fused with tokenization: each batch builds its
    word n-grams (n = phrase length) from ONE flat token array
    (``_flat_ngrams`` — no per-document loop), filters to the phrase,
    and emits matching ids; the only exchange is the match-sized doc-id
    dedup. Equivalent to intersecting a positional index's postings
    with adjacency — done in one pass at query-sized cost."""
    want = phrase.split()
    n = len(want)
    if n == 0:
        raise ValueError("empty phrase")
    target = " ".join(want)

    def match(b: pd.DataFrame) -> pd.DataFrame:
        toks = b[text_col].fillna("").str.split()
        doc_idx, grams = _flat_ngrams(toks, n)
        hit = doc_idx[grams == target]
        ids = b[id_col].to_numpy(np.int64)[np.unique(hit)]
        return pd.DataFrame({id_col: pd.Series(ids, dtype="int64")})

    from gene_etl_ray.ops.dedup import bucketed_group_apply

    out = bucketed_group_apply(
        ds.map_batches(match, batch_format="pandas"), [id_col],
        lambda g: g.drop_duplicates(id_col),
    ).to_pandas()
    if id_col not in out.columns:
        out = pd.DataFrame({id_col: pd.Series([], dtype="int64")})
    out[id_col] = out[id_col].astype("int64")
    return out.sort_values(id_col).reset_index(drop=True)


def bm25_topk(
    ds: ray.data.Dataset,
    terms: list[str],
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """BM25 ranked retrieval: top-k documents for a bag-of-words query
    under the Robertson/Okapi scorer

      score(d) = Σ_t idf(t) · tf·(k1+1) / (tf + k1·(1−b + b·len/avglen))
      idf(t)   = ln((N − df + 0.5) / (df + 0.5) + 1)

    — the canonical search-engine ranking beside the boolean
    (``search_and``) and phrase (``phrase_search``) queries. Two cheap
    passes: (1) corpus stats — per-batch partials for N, Σlen and the
    QUERY terms' document frequencies (the term filter is pushed into
    the batch, so the partial is query-sized); (2) scoring — per-batch
    vectorized tf/len for query terms only, then the global top-k via
    ``relational.top_k`` partial merges (no full sort). Ties break by
    id ascending."""
    from gene_etl_ray.ops import relational

    want = sorted(set(terms))
    if not want:
        raise ValueError("empty query")

    def stats_partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch[text_col].fillna("").str.split()
        lens = toks.str.len().to_numpy(dtype=np.int64)
        p = _distinct_term_doc_pairs(batch, id_col, text_col)
        p = p[p["term"].isin(want)]
        dfc = p.groupby("term").size()
        row = {"n": [np.int64(len(batch))], "sum_len": [np.int64(lens.sum())]}
        for t in want:
            row[f"df_{t}"] = [np.int64(dfc.get(t, 0))]
        return pd.DataFrame(row)

    stats = ds.map_batches(stats_partial, batch_format="pandas").to_pandas()
    n_docs = float(stats["n"].sum())
    avglen = float(stats["sum_len"].sum()) / max(n_docs, 1.0)
    idf = {
        t: float(np.log((n_docs - stats[f"df_{t}"].sum() + 0.5)
                        / (stats[f"df_{t}"].sum() + 0.5) + 1.0))
        for t in want
    }

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        toks = batch[text_col].fillna("").str.split()
        lens = toks.str.len().to_numpy(dtype=np.float64)
        norm = k1 * (1.0 - b + b * lens / avglen)
        total = np.zeros(len(batch), dtype=np.float64)
        any_hit = np.zeros(len(batch), dtype=bool)
        flat = toks.explode()
        for t in want:
            tf = (
                (flat == t).groupby(level=0).sum()
                .reindex(range(len(batch)), fill_value=0)
                .to_numpy(dtype=np.float64)
            )
            any_hit |= tf > 0
            total += idf[t] * tf * (k1 + 1.0) / (tf + norm)
        ids = batch[id_col].to_numpy(np.int64)[any_hit]
        # top_k tie-breaks DESC on extra_sort; SQL wants id ASC — negate
        return pd.DataFrame(
            {id_col: ids, "score": total[any_hit], "__negid": -ids}
        )

    scored = ds.map_batches(score, batch_format="pandas")
    top = relational.top_k(scored, "score", k, extra_sort=["__negid"])
    top = top.sort_values(
        ["score", id_col], ascending=[False, True], kind="mergesort"
    ).head(k)
    top[id_col] = top[id_col].astype("int64")
    return top[[id_col, "score"]].reset_index(drop=True)
