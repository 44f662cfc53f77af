"""Text analysis operators over a documents table.

- token_counts: whitespace tokens + a BPE-ish subword estimate.
- quality: length / punctuation / stopword / repetition signals and a
  composite score.
- langid: character/stopword n-gram heuristic over a small built-in
  profile set (no external models).
- fingerprint: md5 of punctuation/case-normalized text (deterministic,
  SQL-replicable) plus a 64-bit rolling hash.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd

from ..exchange import hash_array_pure as _hash_pure
import pyarrow as pa
import pyarrow.compute as pc

_WS = re.compile(r"\s+")
_PUNCT = re.compile(r"[^\w\s]", re.UNICODE)

STOPWORDS = {
    "en": {"the", "and", "of", "a", "to", "in", "is", "it", "that", "for"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "una", "los", "las"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "zu", "mit", "von"},
    "fr": {"le", "la", "les", "de", "et", "un", "une", "est", "que", "pour"},
}


def token_counts(ds, text_col: str = "text", id_col: str = "doc_id"):
    """(id, n_tokens, n_subwords): whitespace tokens and a BPE-ish count
    (word + punctuation pieces) — all vectorized via Arrow splits."""

    def f(tbl: pa.Table) -> pa.Table:
        text = tbl.column(text_col)
        toks = pc.list_value_length(
            pc.split_pattern_regex(pc.utf8_trim_whitespace(text), r"\s+"))
        # trim→split yields [''] for empty strings; count those as 0
        empty = pc.equal(pc.utf8_trim_whitespace(text), "")
        toks = pc.if_else(empty, pa.scalar(0, pa.int32()),
                          pc.cast(toks, pa.int32()))
        # RE2 \w/\s are the ASCII classes the DuckDB oracle spells out —
        # one vectorized count pass, no per-row findall
        sub = pc.count_substring_regex(text, r"\w+|[^\w\s]")
        return pa.table({id_col: tbl.column(id_col),
                         "n_tokens": pc.cast(toks, pa.int64()),
                         "n_subwords": pc.cast(sub, pa.int64())})

    return ds.map_batches(f, batch_format="pyarrow")


def _words_flat(col: pa.ChunkedArray | pa.Array):
    """Flat lowercase word array of a text column (words = ``[a-z0-9_]+``
    runs — the python ``\\w+``-on-ASCII spec the SQL oracles spell out):
    split on non-word runs, drop the empty boundary tokens. Returns
    (n_docs, doc_of, wlen, wh, words) over the kept words — one Arrow
    split + one hash_array pass, no per-row findall."""
    col = pc.utf8_lower(col.cast(pa.large_string()))
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    la = pc.split_pattern_regex(col, "[^a-z0-9_]+")
    if isinstance(la, pa.ChunkedArray):
        la = la.combine_chunks()
    flat = la.values
    offs = np.asarray(la.offsets, dtype=np.int64)
    wlen = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    doc_of = np.repeat(np.arange(len(col)), np.diff(offs))
    keep = wlen > 0
    words = flat.to_numpy(zero_copy_only=False)[keep].astype(object)
    wh = _hash_pure(words).astype(np.uint64)
    return len(col), doc_of[keep], wlen[keep], wh, words


def _stop_hashes(words) -> np.ndarray:
    return np.sort(_hash_pure(
        np.array(sorted(words), dtype=object)).astype(np.uint64))


def quality(ds, text_col: str = "text", id_col: str = "doc_id",
            lang: str = "en"):
    """Quality signals + composite score in [0,1] — fully vectorized:
    flat word array + bincount per signal. uniq_ratio counts distinct
    64-bit word hashes per doc (an in-doc collision — P < 1e-15 —
    could undercount by one; the dedup family's documented stance)."""
    stop_h = _stop_hashes(STOPWORDS.get(lang, STOPWORDS["en"]))

    def f(tbl: pa.Table) -> pa.Table:
        text = tbl.column(text_col)
        n_docs, doc_of, wlen, wh, _ = _words_flat(text)
        n_chars = (pc.utf8_length(text).to_numpy(zero_copy_only=False)
                   .astype(np.int64))
        n_words = np.bincount(doc_of, minlength=n_docs).astype(np.int64)
        nw1 = np.maximum(n_words, 1)
        sum_len = np.bincount(doc_of, weights=wlen, minlength=n_docs)
        avg_word_len = np.where(n_words > 0, sum_len / nw1, 0.0)
        n_punct = (pc.count_substring_regex(text, r"[^a-zA-Z0-9_\s]")
                   .to_numpy(zero_copy_only=False).astype(np.int64))
        punct_ratio = n_punct / np.maximum(n_chars, 1)
        is_stop = np.isin(wh, stop_h)
        stop_ratio = (np.bincount(doc_of, weights=is_stop,
                                  minlength=n_docs) / nw1)
        o, _, _, first = _gram_runs(doc_of, wh)
        n_uniq = np.bincount(doc_of[o][first], minlength=n_docs)
        uniq_ratio = n_uniq / nw1
        score = (0.25 * (np.minimum(n_words, 200) / 200)
                 + 0.25 * (1 - np.minimum(punct_ratio, 0.5) / 0.5)
                 + 0.25 * uniq_ratio
                 + 0.25 * (np.minimum(avg_word_len, 10) / 10))
        return pa.table({
            id_col: tbl.column(id_col),
            "n_chars": pa.array(n_chars),
            "n_words": pa.array(n_words),
            "avg_word_len": pa.array(avg_word_len, pa.float64()),
            "punct_ratio": pa.array(punct_ratio, pa.float64()),
            "stop_ratio": pa.array(stop_ratio, pa.float64()),
            "uniq_ratio": pa.array(uniq_ratio, pa.float64()),
            "quality": pa.array(score, pa.float64()),
        })

    return ds.map_batches(f, batch_format="pyarrow")


def langid(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Stopword-profile language guess with confidence — the actor-pool
    pattern (profile hash sets built once per actor in __init__), with
    the per-doc scoring fully vectorized: one flat word-hash pass, one
    sorted-set membership + bincount per language, argmax row-wise
    (first max wins, 'und' when every score is 0 — the exact semantics
    SQL_LANGID spells out)."""

    class LangId:
        def __init__(self):
            self.langs = list(STOPWORDS)
            self.prof = [_stop_hashes(STOPWORDS[lg]) for lg in self.langs]

        def __call__(self, tbl: pa.Table) -> pa.Table:
            n_docs, doc_of, wlen, wh, _ = _words_flat(
                tbl.column(text_col))
            nw1 = np.maximum(np.bincount(doc_of, minlength=n_docs), 1)
            scores = np.stack([
                np.bincount(doc_of, weights=np.isin(wh, ph),
                            minlength=n_docs) / nw1
                for ph in self.prof])                    # (n_lang, n_docs)
            best = np.argmax(scores, axis=0)             # first max wins
            conf = scores[best, np.arange(n_docs)]
            pred = np.array(self.langs, dtype=object)[best]
            pred[conf <= 0] = "und"
            return pa.table({
                id_col: tbl.column(id_col),
                "lang_pred": pa.array(pred, pa.string()),
                "lang_conf": pa.array(np.where(conf > 0, conf, 0.0),
                                      pa.float64()),
            })

    return ds.map_batches(LangId, batch_format="pyarrow", concurrency=2)


_REP_HORNER = np.uint64(1099511628211)


def readability(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """(doc_id, n_words, n_syll, syll_per_word) — the syllable-density
    readability signal (the Flesch family's per-word term; this corpus
    has no sentence punctuation, so the sentence term is omitted from
    the spec). Words = the family tokenizer (``[a-z0-9_]+`` on
    lowercased text); syllables = maximal ``[aeiou]`` vowel runs.

    Vectorized shape: a vowel run can never span a word boundary (a
    boundary char is never a vowel), so ``n_syll`` is ONE mask pass
    over the batch's flat lowercased utf-8 buffer — run starts =
    vowel & ~prev-vowel (doc-start positions get no prev) — attributed
    to docs via searchsorted on the string offsets; no word loop.
    ``syll_per_word`` is a single int/int division on both sides (the
    SQL oracle recomputes everything with DuckDB regexps), so no
    rounding is needed anywhere."""
    _VOWELS = np.frombuffer(b"aeiou", dtype=np.uint8)

    def f(tbl: pa.Table) -> pa.Table:
        n_docs, doc_of, _, _, _ = _words_flat(tbl.column(text_col))
        n_words = np.bincount(doc_of, minlength=n_docs).astype(np.int64)

        col = pc.utf8_lower(tbl.column(text_col).cast(pa.large_string()))
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        off_buf = np.frombuffer(col.buffers()[1], dtype=np.int64)
        offs = off_buf[col.offset:col.offset + len(col) + 1]
        buf = np.frombuffer(col.buffers()[2], dtype=np.uint8)
        vowel = np.isin(buf, _VOWELS)
        prev = np.empty_like(vowel)
        prev[0] = False
        prev[1:] = vowel[:-1]
        starts = offs[:-1]
        prev[starts[starts < len(prev)]] = False
        idx = np.flatnonzero(vowel & ~prev)
        idx = idx[(idx >= offs[0]) & (idx < offs[-1])]
        doc = np.searchsorted(offs, idx, side="right") - 1
        n_syll = np.bincount(doc, minlength=n_docs).astype(np.int64)
        return pa.table({
            id_col: tbl.column(id_col),
            "n_words": pa.array(n_words),
            "n_syll": pa.array(n_syll),
            "syll_per_word": pa.array(
                n_syll / np.maximum(n_words, 1), pa.float64()),
        })

    return ds.map_batches(f, batch_format="pyarrow")


def type_token_ratio(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """(doc_id, n_words, n_types, ttr) — per-doc type-token ratio, the
    classic lexical-diversity signal. Words = the family tokenizer
    (``[a-z0-9_]+`` on lowercased text); types = distinct words within
    the doc, counted on the 64-bit word hashes from ``_words_flat``
    (the corpus-stats distinct stance: a within-doc collision is the
    only failure mode and is negligible + deterministic). Per-doc
    distinct is one lexsort over (doc, hash) + a neighbor-diff mask —
    no per-doc loop, no exchange (the doc is the group and lives
    entirely inside its batch row). ``ttr`` is a single int/int
    division on both sides, so no rounding is needed."""

    def f(tbl: pa.Table) -> pa.Table:
        n_docs, doc_of, _, wh, _ = _words_flat(tbl.column(text_col))
        n_words = np.bincount(doc_of, minlength=n_docs).astype(np.int64)
        order = np.lexsort((wh, doc_of))
        d_s, h_s = doc_of[order], wh[order]
        new = np.ones(len(d_s), dtype=bool)
        new[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
        n_types = np.bincount(d_s[new], minlength=n_docs).astype(np.int64)
        return pa.table({
            id_col: tbl.column(id_col),
            "n_words": pa.array(n_words),
            "n_types": pa.array(n_types),
            "ttr": pa.array(n_types / np.maximum(n_words, 1),
                            pa.float64()),
        })

    return ds.map_batches(f, batch_format="pyarrow")


def _split_flat(tbl: pa.Table, text_col: str):
    """Literal single-space split of a batch into a flat word array with
    per-doc bookkeeping — the spec is DuckDB's string_split(text, ' ')
    (empty tokens kept), so the SQL oracles and the vectorized kernels
    tokenize identically. Returns (n_docs, doc_of, wlen, wh, offs)."""
    col = tbl.column(text_col).cast(pa.large_string())
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    la = pc.split_pattern(col, " ")
    if isinstance(la, pa.ChunkedArray):
        la = la.combine_chunks()
    flat = la.values
    offs = np.asarray(la.offsets, dtype=np.int64)
    wlen = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    wh = _hash_pure(
        flat.to_numpy(zero_copy_only=False).astype(object)).astype(np.uint64)
    n_docs = len(col)
    doc_of = np.repeat(np.arange(n_docs), np.diff(offs))
    return n_docs, doc_of, wlen, wh, offs


def _gram_runs(doc: np.ndarray, h: np.ndarray):
    """Sort (doc, hash) occurrence rows and return (order, run_id,
    run_counts, first_mask): contiguous runs are the occurrences of one
    distinct gram within one doc."""
    o = np.lexsort((h, doc))
    ds_, hs_ = doc[o], h[o]
    new = np.empty(len(o), dtype=bool)
    if len(o):
        new[0] = True
        new[1:] = (ds_[1:] != ds_[:-1]) | (hs_[1:] != hs_[:-1])
    run_id = np.cumsum(new) - 1
    return o, run_id, np.bincount(run_id), new


def repetition(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Per-doc repetition signals (the Gopher/MassiveText repetition
    filters, word-level): for each document,

    - ``total_chars`` — Σ len(word) over the single-space split;
    - ``top2_chars``  — max over distinct word-2-grams of
      occurrence_count × (len(w1)+len(w2)): the character mass of the
      most-repeated 2-gram (callers divide by total_chars for the
      "fraction of characters in the most common 2-gram" filter);
    - ``dup3_chars``  — Σ len(word) over word positions covered by any
      word-3-gram that occurs ≥2 times in the doc ("fraction of
      characters inside duplicated 3-grams" after dividing).

    Integer outputs so the DuckDB oracle compares exactly (no float
    rounding at 6-decimal midpoints). One Arrow split + ONE hash_array
    pass per batch; grouping is lexsort + run-length over (doc, gram
    hash) — a 64-bit in-doc gram-hash collision (P < 1e-15 per doc)
    could miscount vs the SQL's exact strings; accepted and documented,
    the same stance as the dedup family's shingle hashes."""

    def f(tbl: pa.Table) -> pa.Table:
        n_docs, doc_of, wlen, wh, offs = _split_flat(tbl, text_col)
        m = len(wh)
        total = np.bincount(doc_of, weights=wlen, minlength=n_docs
                            ).astype(np.int64)
        top2 = np.zeros(n_docs, dtype=np.int64)
        dup3 = np.zeros(n_docs, dtype=np.int64)
        with np.errstate(over="ignore"):
            # ---- 2-grams: start positions whose successor is in-doc
            valid = np.ones(m, dtype=bool)
            valid[offs[1:] - 1] = False          # last word of each doc
            i2 = np.nonzero(valid)[0]
            if len(i2):
                h2 = wh[i2] * _REP_HORNER + wh[i2 + 1]
                chars2 = wlen[i2] + wlen[i2 + 1]
                o, run_id, counts, first = _gram_runs(doc_of[i2], h2)
                val = counts[run_id[first]] * chars2[o][first]
                np.maximum.at(top2, doc_of[i2][o][first], val)
            # ---- 3-grams: positions covered by a duplicated 3-gram
            valid3 = valid.copy()
            valid3[np.maximum(offs[1:] - 2, 0)] = False
            i3 = np.nonzero(valid3)[0]
            if len(i3):
                h3 = (wh[i3] * _REP_HORNER + wh[i3 + 1]) * _REP_HORNER + wh[i3 + 2]
                o, run_id, counts, _ = _gram_runs(doc_of[i3], h3)
                dup_occ = i3[o][counts[run_id] >= 2]     # flat start idx
                covered = np.zeros(m, dtype=bool)
                covered[dup_occ] = True
                covered[dup_occ + 1] = True
                covered[dup_occ + 2] = True
                dup3 = np.bincount(doc_of, weights=wlen * covered,
                                   minlength=n_docs).astype(np.int64)
        return pa.table({id_col: tbl.column(id_col),
                         "total_chars": pa.array(total, pa.int64()),
                         "top2_chars": pa.array(top2, pa.int64()),
                         "dup3_chars": pa.array(dup3, pa.int64())})

    return ds.map_batches(f, batch_format="pyarrow")


def cross_doc_dup(ds, *, k: int = 5, text_col: str = "text",
                  id_col: str = "doc_id"):
    """Corpus-level duplicated-span analysis (the corpus-internal cousin
    of benchmark decontamination, after Lee et al.'s dedup of repeated
    training spans): for each doc, how many of its word-k-gram start
    positions carry a gram that also appears in ≥2 DISTINCT documents.
    Returns (doc_id, n_grams, n_dup) — integer outputs for exact SQL
    parity; divide for the fraction.

    Distributed shape: per-batch gram hashing (one split + one
    hash_array pass) emits one row per DISTINCT (gram, doc) with its
    in-doc occurrence count; the hash exchange groups by gram, keeps
    grams seen in ≥2 docs, and re-keys the surviving (doc, count) rows
    by doc for the per-doc sum — only 16-byte gram/doc/count rows ever
    cross the wire, never text. Totals ride a second cheap pass over
    the id/text columns (a column-pruned re-scan, not a cached
    materialization)."""
    from ..exchange import hash_group_apply

    occ_schema = pa.schema([("g", pa.uint64()), (id_col, pa.int64()),
                            ("npos", pa.int64())])

    def grams(tbl: pa.Table) -> pa.Table:
        n_docs, doc_of, wlen, wh, offs = _split_flat(tbl, text_col)
        m = len(wh)
        valid = np.ones(m, dtype=bool)
        for j in range(1, k):
            valid[np.maximum(offs[1:] - j, 0)] = False
        i0 = np.nonzero(valid)[0]
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        if not len(i0):
            return occ_schema.empty_table()
        with np.errstate(over="ignore"):
            h = wh[i0].copy()
            for j in range(1, k):
                h = h * _REP_HORNER + wh[i0 + j]
        o, run_id, counts, first = _gram_runs(doc_of[i0], h)
        return pa.table({"g": pa.array(h[o][first], pa.uint64()),
                         id_col: pa.array(ids[doc_of[i0][o][first]],
                                          pa.int64()),
                         "npos": pa.array(counts, pa.int64())})

    def keep_crossdup(df: pd.DataFrame) -> pd.DataFrame:
        # rows of one gram-hash bucket: survive iff the gram occurs in
        # ≥2 distinct docs (rows are already distinct per (g, doc))
        nd = df.groupby("g", sort=False)[id_col].transform("size")
        return df.loc[nd >= 2, [id_col, "npos"]]

    dup_schema = pa.schema([(id_col, pa.int64()), ("npos", pa.int64())])
    dup = hash_group_apply(ds.map_batches(grams, batch_format="pyarrow"),
                           ["g"], keep_crossdup, out_schema=dup_schema)

    def totals(tbl: pa.Table) -> pa.Table:
        n_docs, doc_of, wlen, wh, offs = _split_flat(tbl, text_col)
        nw = np.diff(offs)
        return pa.table({id_col: tbl.column(id_col),
                         "n_grams": pa.array(np.maximum(nw - (k - 1), 0),
                                             pa.int64()),
                         "npos": pa.array(np.zeros(len(nw), np.int64))})

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(id_col, sort=False).agg(
            n_grams=("n_grams", "sum"), n_dup=("npos", "sum"))
        return g.reset_index()

    tot = ds.map_batches(totals, batch_format="pyarrow")
    dup2 = dup.map_batches(
        lambda t: pa.table({id_col: t.column(id_col),
                            "n_grams": pa.array(np.zeros(len(t), np.int64)),
                            "npos": t.column("npos")}),
        batch_format="pyarrow")
    out_schema = pa.schema([(id_col, pa.int64()), ("n_grams", pa.int64()),
                            ("n_dup", pa.int64())])
    return hash_group_apply(tot.union(dup2), [id_col], combine,
                            out_schema=out_schema)


def unigram_nll(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Corpus-unigram-LM surprisal per document (the CCNet-style
    "how typical is this doc of the corpus" quality signal): with
    ``cnt(w)`` the corpus count of word ``w`` and ``T`` the corpus word
    total, each doc's mean negative log-likelihood is

        nll = -(1/n) Σ_w ln(cnt(w)/T)  =  ln(T) - (1/n) Σ_w tf·ln(cnt(w))

    No smoothing needed — every scored word has cnt ≥ 1 by construction.
    Returns (doc_id, n_words, nll) for docs with ≥1 word.

    Distributed shape (the large×large join: a doc's words meet the
    corpus vocabulary counts in a word-keyed exchange — broadcasting
    the vocabulary would not scale):

    - a cheap column-pruned pass sums per-batch word counts → ln(T)
      rides the final closure as a scalar;
    - per batch, one row per DISTINCT (word-hash, doc): (wh, doc, tf);
    - exchange on wh: each bucket owns its words entirely, so
      cnt(w) is an in-bucket transform-sum; the bucket emits per-doc
      partials (doc, Σtf, Σ tf·ln(cnt)) — output shrinks to
      O(docs × buckets) before any per-doc work;
    - exchange on doc: sums partials, emits the final nll row.

    The rewrite to ln(T) - S/n means no global scalar is needed inside
    the word buckets. Keys are the shared 64-bit word hashes (the dedup
    family's documented collision stance vs the SQL oracle's exact
    strings). Float S is summed in bucket/arrival order, so nll matches
    the SQL oracle to ~1e-15 relative, not bit-exactly (the driver gate
    compares floats with tolerance)."""
    from ..exchange import hash_group_apply

    def count_partial(tbl: pa.Table) -> pa.Table:
        _, doc_of, _, _, _ = _words_flat(tbl.column(text_col))
        return pa.table({"n": pa.array([len(doc_of)], pa.int64())})

    _cnt = ds.map_batches(count_partial, batch_format="pyarrow",
                          batch_size=65536).to_pandas()
    total = 0 if _cnt.empty else int(_cnt["n"].sum())
    if total == 0:
        return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                             "n_words": pd.Series([], dtype="int64"),
                             "nll": pd.Series([], dtype="float64")})
    ln_total = float(np.log(total))

    tf_schema = pa.schema([("wh", pa.uint64()), (id_col, pa.int64()),
                           ("tf", pa.int64())])

    def tf_rows(tbl: pa.Table) -> pa.Table:
        n_docs, doc_of, _, wh, _ = _words_flat(tbl.column(text_col))
        if not len(wh):
            return tf_schema.empty_table()
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        o, run_id, counts, first = _gram_runs(doc_of, wh)
        return pa.table({"wh": pa.array(wh[o][first], pa.uint64()),
                         id_col: pa.array(ids[doc_of[o][first]], pa.int64()),
                         "tf": pa.array(counts, pa.int64())})

    part_schema = pa.schema([(id_col, pa.int64()), ("n", pa.int64()),
                             ("s", pa.float64())])

    def word_bucket(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df.groupby("wh", sort=False)["tf"].transform("sum")
        contrib = df["tf"].to_numpy(np.float64) * np.log(
            cnt.to_numpy(np.float64))
        g = pd.DataFrame({id_col: df[id_col], "n": df["tf"],
                          "s": contrib}).groupby(id_col, sort=False)
        return g.agg(n=("n", "sum"), s=("s", "sum")).reset_index()

    mid = hash_group_apply(
        ds.map_batches(tf_rows, batch_format="pyarrow", batch_size=65536),
        ["wh"], word_bucket, out_schema=part_schema)

    out_schema = pa.schema([(id_col, pa.int64()), ("n_words", pa.int64()),
                            ("nll", pa.float64())])

    def doc_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(id_col, sort=False).agg(
            n=("n", "sum"), s=("s", "sum")).reset_index()
        return pd.DataFrame({
            id_col: g[id_col], "n_words": g["n"],
            "nll": ln_total - g["s"].to_numpy() / g["n"].to_numpy()})

    return hash_group_apply(mid, [id_col], doc_bucket, out_schema=out_schema)


def bigram_nll(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Corpus-bigram-LM surprisal per document — the conditional analog
    of ``unigram_nll``: with ``cnt(w1,w2)`` the corpus bigram count and
    ``ctx(w1) = Σ_w2 cnt(w1,w2)`` (occurrences of ``w1`` as a left
    context), each doc's mean negative conditional log-likelihood is

        nll2 = -(1/m) Σ ln(cnt(w1,w2)/ctx(w1))
             = (1/m) Σ tf·(ln ctx(w1) - ln cnt(w1,w2))

    over the doc's m bigram occurrences. No smoothing needed — every
    scored bigram has cnt ≥ 1 (and hence ctx ≥ 1) by construction.
    Returns (doc_id, n_bigrams, nll2) for docs with ≥1 bigram.

    Distributed shape: ONE word-keyed exchange suffices (no global
    total, unlike unigram_nll's ln(T) rewrite) because a bigram's rows
    always share its LEFT word hash — keying the exchange on ``w1h``
    co-locates everything needed for both cnt (transform-sum by bigram
    hash) and ctx (transform-sum by w1h). Per batch one row per
    DISTINCT (doc, bigram): (w1h, bh, doc, tf); bucket emits per-doc
    partials (doc, Σtf, Σ tf·(ln ctx - ln cnt)); a doc-keyed exchange
    sums and divides. 64-bit gram-hash collision stance shared with the
    dedup family; float s sums in bucket/arrival order (~1e-15 relative
    vs the SQL oracle, inside the gate tolerance)."""
    from ..exchange import hash_group_apply

    tf_schema = pa.schema([("w1h", pa.uint64()), ("bh", pa.uint64()),
                           (id_col, pa.int64()), ("tf", pa.int64())])

    def tf_rows(tbl: pa.Table) -> pa.Table:
        _, doc_of, _, wh, _ = _words_flat(tbl.column(text_col))
        if len(wh) < 2:
            return tf_schema.empty_table()
        i0 = np.nonzero(doc_of[1:] == doc_of[:-1])[0]
        if not len(i0):
            return tf_schema.empty_table()
        with np.errstate(over="ignore"):
            bh = wh[i0] * _REP_HORNER + wh[i0 + 1]
        o, _, counts, first = _gram_runs(doc_of[i0], bh)
        fi = i0[o][first]
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table({
            "w1h": pa.array(wh[fi], pa.uint64()),
            "bh": pa.array(bh[o][first], pa.uint64()),
            id_col: pa.array(ids[doc_of[fi]], pa.int64()),
            "tf": pa.array(counts, pa.int64())})

    part_schema = pa.schema([(id_col, pa.int64()), ("m", pa.int64()),
                             ("s", pa.float64())])

    def word_bucket(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df.groupby("bh", sort=False)["tf"].transform("sum")
        ctx = df.groupby("w1h", sort=False)["tf"].transform("sum")
        contrib = df["tf"].to_numpy(np.float64) * (
            np.log(ctx.to_numpy(np.float64))
            - np.log(cnt.to_numpy(np.float64)))
        g = pd.DataFrame({id_col: df[id_col], "m": df["tf"],
                          "s": contrib}).groupby(id_col, sort=False)
        return g.agg(m=("m", "sum"), s=("s", "sum")).reset_index()

    mid = hash_group_apply(
        ds.map_batches(tf_rows, batch_format="pyarrow", batch_size=65536),
        ["w1h"], word_bucket, out_schema=part_schema)

    out_schema = pa.schema([(id_col, pa.int64()),
                            ("n_bigrams", pa.int64()),
                            ("nll2", pa.float64())])

    def doc_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(id_col, sort=False).agg(
            m=("m", "sum"), s=("s", "sum")).reset_index()
        return pd.DataFrame({
            id_col: g[id_col], "n_bigrams": g["m"],
            "nll2": g["s"].to_numpy() / g["m"].to_numpy()})

    return hash_group_apply(mid, [id_col], doc_bucket, out_schema=out_schema)


def remove_dup_spans(ds, *, k: int = 5, text_col: str = "text",
                     id_col: str = "doc_id"):
    """The transform `cross_doc_dup` only measures: REMOVE every word
    position covered by a word-``k``-gram that appears in ≥2 distinct
    documents (Lee et al.'s dedup of repeated training spans, word
    level). Returns (doc_id, text_clean, n_removed) for every doc —
    ``text_clean`` is the surviving words re-joined with single spaces.

    Distributed shape: per-batch gram-occurrence rows (gram hash, doc,
    start position — 24 bytes each, never text) meet in a gram-keyed
    exchange that keeps occurrences of cross-doc grams; the surviving
    (doc, start) rows then union with the (doc, text) rows in a
    doc-keyed exchange where each doc rebuilds its text — text crosses
    the wire exactly once, which is inherent to a text-rewriting
    operator. Tokenization is the literal single-space split
    (`_split_flat`), so the SQL oracle replays it with string_split +
    list positions. Gram identity is the 64-bit Horner hash (the
    family's documented collision stance)."""
    from ..exchange import hash_group_apply

    occ_schema = pa.schema([("g", pa.uint64()), (id_col, pa.int64()),
                            ("pos", pa.int64())])

    def gram_occ(tbl: pa.Table) -> pa.Table:
        n_docs, doc_of, wlen, wh, offs = _split_flat(tbl, text_col)
        m = len(wh)
        valid = np.ones(m, dtype=bool)
        for j in range(1, k):
            valid[np.maximum(offs[1:] - j, 0)] = False
        i0 = np.nonzero(valid)[0]
        if not len(i0):
            return occ_schema.empty_table()
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = wh[i0].copy()
            for j in range(1, k):
                h = h * _REP_HORNER + wh[i0 + j]
        d = doc_of[i0]
        return pa.table({"g": pa.array(h, pa.uint64()),
                         id_col: pa.array(ids[d], pa.int64()),
                         "pos": pa.array(i0 - offs[d], pa.int64())})

    def keep_crossdup(df: pd.DataFrame) -> pd.DataFrame:
        nd = df.groupby("g", sort=False)[id_col].transform("nunique")
        return df.loc[nd >= 2, [id_col, "pos"]]

    spans = hash_group_apply(
        ds.map_batches(gram_occ, batch_format="pyarrow", batch_size=65536),
        ["g"], keep_crossdup,
        out_schema=pa.schema([(id_col, pa.int64()), ("pos", pa.int64())]))

    tag_schema = pa.schema([(id_col, pa.int64()), ("pos", pa.int64()),
                            ("text", pa.large_string())])

    def tag_spans(tbl: pa.Table) -> pa.Table:
        return pa.table({id_col: tbl.column(id_col),
                         "pos": tbl.column("pos"),
                         "text": pa.nulls(len(tbl), pa.large_string())})

    def tag_docs(tbl: pa.Table) -> pa.Table:
        return pa.table({id_col: tbl.column(id_col),
                         "pos": pa.array(np.full(len(tbl), -1, np.int64)),
                         "text": tbl.column(text_col).cast(pa.large_string())})

    both = (spans.map_batches(tag_spans, batch_format="pyarrow")
            .union(ds.map_batches(tag_docs, batch_format="pyarrow")))

    out_schema = pa.schema([(id_col, pa.int64()),
                            ("text_clean", pa.large_string()),
                            ("n_removed", pa.int64())])

    def rebuild(df: pd.DataFrame) -> pd.DataFrame:
        texts = df[df["pos"] < 0]
        starts = df[df["pos"] >= 0]
        start_map = {d: g["pos"].to_numpy()
                     for d, g in starts.groupby(id_col, sort=False)}
        out_id, out_t, out_n = [], [], []
        for did, txt in zip(texts[id_col], texts["text"]):
            words = txt.split(" ")
            s = start_map.get(did)
            if s is None:
                out_id.append(did); out_t.append(txt); out_n.append(0)
                continue
            cov = np.zeros(len(words), dtype=bool)
            for j in range(k):            # k vectorized scatter passes
                cov[np.minimum(s + j, len(words) - 1)] = True
            kept = [w for w, c in zip(words, cov) if not c]
            out_id.append(did)
            out_t.append(" ".join(kept))
            out_n.append(int(cov.sum()))
        return pd.DataFrame({id_col: out_id, "text_clean": out_t,
                             "n_removed": out_n})

    return hash_group_apply(both, [id_col], rebuild, out_schema=out_schema)


def collocations(ds, *, min_count: int = 20, text_col: str = "text",
                 id_col: str = "doc_id"):
    """Corpus-wide collocation extraction: adjacent word pairs scored by
    pointwise mutual information,

        pmi = ln( p(x,y) / (p(x)·p(y)) )
            = ln( n_xy · T² / (T_bi · c_x · c_y) )

    with T the unigram total, T_bi the bigram total, over pairs with
    global count ≥ ``min_count``. Returns (w1, w2, n_xy, pmi) — rows
    keyed by the word pair, no ordering/top-k, so the only float is the
    tolerance-compared pmi value itself.

    Distributed composition (nothing new, three existing shapes):
    per-batch DISTINCT-bigram/word partial counts (one hash pass +
    run-length, strings only once per distinct gram per batch) →
    pair-keyed and word-keyed exchanges for the global counts → the
    marginals attach via TWO symmetric hash equi-joins
    (datapipe.joins.hash_join) on w1 then w2 — the unigram table is a
    distilled aggregate, so it is materialized once and fed to both
    joins rather than re-running its exchange. Batch-local hash-run
    grouping shares the dedup family's 64-bit collision stance."""
    import ray.data as rd

    from ..exchange import hash_group_apply
    from .joins import hash_join

    out_schema = pa.schema([("w1", pa.large_string()),
                            ("w2", pa.large_string()),
                            ("n_xy", pa.int64()), ("pmi", pa.float64())])

    def count_partial(tbl: pa.Table) -> pa.Table:
        _, doc_of, _, _, _ = _words_flat(tbl.column(text_col))
        return pa.table({"n": pa.array([len(doc_of)], pa.int64()),
                         "d": pa.array([len(np.unique(doc_of))], pa.int64())})

    parts = ds.map_batches(count_partial, batch_format="pyarrow",
                           batch_size=65536).to_pandas()
    t_uni = 0 if parts.empty else int(parts["n"].sum())
    t_bi = 0 if parts.empty else t_uni - int(parts["d"].sum())
    if t_bi <= 0:
        return rd.from_arrow(out_schema.empty_table())
    tf_, tbf_ = float(t_uni), float(t_bi)

    bi_schema = pa.schema([("w1", pa.large_string()),
                           ("w2", pa.large_string()), ("cnt", pa.int64())])

    def bi_rows(tbl: pa.Table) -> pa.Table:
        _, doc_of, _, wh, words = _words_flat(tbl.column(text_col))
        if len(wh) < 2:
            return bi_schema.empty_table()
        i0 = np.nonzero(doc_of[1:] == doc_of[:-1])[0]
        if not len(i0):
            return bi_schema.empty_table()
        with np.errstate(over="ignore"):
            h = wh[i0] * _REP_HORNER + wh[i0 + 1]
        o, _, counts, first = _gram_runs(np.zeros(len(i0), np.int64), h)
        fi = i0[o][first]
        return pa.table({"w1": pa.array(words[fi], pa.large_string()),
                         "w2": pa.array(words[fi + 1], pa.large_string()),
                         "cnt": pa.array(counts, pa.int64())})

    uni_schema = pa.schema([("w", pa.large_string()), ("cnt", pa.int64())])

    def uni_rows(tbl: pa.Table) -> pa.Table:
        _, doc_of, _, wh, words = _words_flat(tbl.column(text_col))
        if not len(wh):
            return uni_schema.empty_table()
        o, _, counts, first = _gram_runs(np.zeros(len(wh), np.int64), wh)
        return pa.table({"w": pa.array(words[o][first], pa.large_string()),
                         "cnt": pa.array(counts, pa.int64())})

    def sum_pairs(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["w1", "w2"], sort=False)["cnt"].sum()
             .reset_index().rename(columns={"cnt": "n_xy"}))
        return g[g["n_xy"] >= min_count]

    bi = hash_group_apply(
        ds.map_batches(bi_rows, batch_format="pyarrow", batch_size=65536),
        ["w1", "w2"], sum_pairs,
        out_schema=pa.schema([("w1", pa.large_string()),
                              ("w2", pa.large_string()),
                              ("n_xy", pa.int64())]))

    def sum_words(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("w", sort=False)["cnt"].sum()
                .reset_index().rename(columns={"cnt": "c"}))

    uni = hash_group_apply(
        ds.map_batches(uni_rows, batch_format="pyarrow", batch_size=65536),
        ["w"], sum_words,
        out_schema=pa.schema([("w", pa.large_string()),
                              ("c", pa.int64())])).materialize()

    def as_w1(tbl: pa.Table) -> pa.Table:
        return pa.table({"w1": tbl.column("w"), "c": tbl.column("c")})

    def as_w2(tbl: pa.Table) -> pa.Table:
        return pa.table({"w2": tbl.column("w"), "c": tbl.column("c")})

    j1 = hash_join(bi, uni.map_batches(as_w1, batch_format="pyarrow"),
                   on="w1", left_cols=["w2", "n_xy"], right_cols=["c"],
                   right_prefix="x_")
    j2 = hash_join(j1, uni.map_batches(as_w2, batch_format="pyarrow"),
                   on="w2", left_cols=["w1", "n_xy", "x_c"],
                   right_cols=["c"], right_prefix="y_")

    def score(tbl: pa.Table) -> pa.Table:
        n_xy = tbl.column("n_xy").to_numpy(zero_copy_only=False)
        cx = tbl.column("x_c").to_numpy(zero_copy_only=False)
        cy = tbl.column("y_c").to_numpy(zero_copy_only=False)
        pmi = np.log(n_xy * tf_ * tf_ / (tbf_ * cx * cy))
        return pa.table({"w1": tbl.column("w1").cast(pa.large_string()),
                         "w2": tbl.column("w2").cast(pa.large_string()),
                         "n_xy": pa.array(n_xy, pa.int64()),
                         "pmi": pa.array(pmi, pa.float64())})

    return j2.map_batches(score, batch_format="pyarrow")


def _norm_text(t: str) -> str:
    return _WS.sub(" ", _PUNCT.sub("", t.lower())).strip()


_POLY_P = np.uint64(1099511628211)
_POLY_SEED = np.uint64(1469598103934665603)
_POW_MAX = 1 << 16          # cache cap: ~512 KB per worker, never more
_POW_CACHE = np.array([1], dtype=np.uint64)


def _poly_powers(k: int) -> np.ndarray:
    """p^0..p^(k-1) mod 2^64 (uint64 wraparound), grown on demand up to
    the fixed cap (a single huge document must not pin a proportional
    power table in every worker)."""
    global _POW_CACHE
    assert k <= _POW_MAX
    if len(_POW_CACHE) < k:
        n0 = len(_POW_CACHE)
        ext = np.empty(k, np.uint64)
        ext[:n0] = _POW_CACHE
        ext[n0:] = _POW_CACHE[-1] * np.cumprod(
            np.full(k - n0, _POLY_P, np.uint64))
        _POW_CACHE = ext
    return _POW_CACHE[:k]


def _poly_hash(data: bytes) -> int:
    """64-bit polynomial hash h = seed·pᵏ + Σ bᵢ·p^(k-1-i) (mod 2^64) —
    a vectorized dot product over the byte array, chunked so the power
    table stays bounded: h ← h·p^m + Σ chunk·p^(m-1-j) per chunk is the
    same fold."""
    arr = np.frombuffer(data, np.uint8).astype(np.uint64)
    k = len(arr)
    if k == 0:
        return int(_POLY_SEED)
    h = _POLY_SEED
    step = _POW_MAX - 1
    with np.errstate(over="ignore"):    # 2^64 wraparound is the modulus
        for i in range(0, k, step):
            chunk = arr[i:i + step]
            m = len(chunk)
            pw = _poly_powers(m + 1)
            h = h * pw[m] + np.dot(chunk, pw[m - 1::-1])
    return int(np.uint64(h))


def fingerprint(ds, text_col: str = "text", id_col: str = "doc_id"):
    """(id, fp_md5, fp_rolling): md5 of normalized text (replicable in SQL
    as md5(lower + strip punct + squash ws)) and a 64-bit polynomial
    hash of the normalized bytes (vectorized numpy dot per doc)."""

    def f(tbl: pa.Table) -> pa.Table:
        texts = tbl.column(text_col).to_pylist()
        fps, rolls = [], []
        for t in texts:
            b = _norm_text(t).encode("utf-8", "surrogatepass")
            fps.append(hashlib.md5(b).hexdigest())
            rolls.append(_poly_hash(b))
        return pa.table({id_col: tbl.column(id_col),
                         "fp_md5": pa.array(fps, pa.string()),
                         "fp_rolling": pa.array(rolls, pa.uint64())})

    return ds.map_batches(f, batch_format="pyarrow")


def distinctive_terms(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Most-distinctive term per document: the term minimizing
    (document frequency, -term frequency, term) — rarest first, then
    most repeated in-doc, then lexicographic, an integer-only ranking
    (deliberately no float idf: the SQL oracle compares exactly).

    Two exchanges: distinct (term, doc, tf) rows meet term-keyed
    buckets where df = the term's row count (rows are distinct per
    (term, doc), and the exact STRING groups, so hash collisions only
    co-locate); the (doc, term, tf, df) candidates then re-key by doc
    for the per-doc argmin. Docs with zero words yield no row."""
    from ..exchange import hash_group_apply

    def tfrows(tbl: pa.Table) -> pa.Table:
        n_docs, doc_of, wlen, wh, words = _words_flat(tbl.column(text_col))
        ids = (tbl.column(id_col).combine_chunks()
               .to_numpy(zero_copy_only=False).astype(np.int64))
        o, run_id, counts, first = _gram_runs(doc_of, wh)
        return pa.table({
            "h": pa.array(wh[o][first], pa.uint64()),
            "w": pa.array(words[o][first], pa.large_string()),
            id_col: pa.array(ids[doc_of[o][first]], pa.int64()),
            "tf": pa.array(counts, pa.int64()),
        })

    def with_df(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["df"] = df.groupby("w", sort=False)["w"].transform("size")
        return df[[id_col, "w", "tf", "df"]]

    mid_schema = pa.schema([(id_col, pa.int64()), ("w", pa.large_string()),
                            ("tf", pa.int64()), ("df", pa.int64())])
    cand = hash_group_apply(
        ds.map_batches(tfrows, batch_format="pyarrow"), ["h"], with_df,
        out_schema=mid_schema)

    def best(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["df", "tf", "w"],
                            ascending=[True, False, True],
                            kind="mergesort")
        out = df.drop_duplicates(subset=[id_col], keep="first")
        return out.rename(columns={"w": "term"})

    out_schema = pa.schema([(id_col, pa.int64()),
                            ("term", pa.large_string()),
                            ("tf", pa.int64()), ("df", pa.int64())])
    return hash_group_apply(cand, [id_col], best, out_schema=out_schema)


def doc_keywords(ds, *, k: int = 3, text_col: str = "text",
                 id_col: str = "doc_id"):
    """Top-k TF-IDF keywords per document — the per-DOC generalization
    of ``distinctive_terms`` (which is the k=1 integer-key argmin):
    score(w, d) = tf · ln(N / df) with N the corpus doc count and df the
    word's distinct-doc frequency; rank per doc on (round(score, 6)
    DESC, word ASC) — the rounded-ranking-key stance, so the SQL
    oracle's row_number() agrees exactly while the reported float score
    compares under tolerance. Returns (doc_id, rank, term, tf, df,
    tfidf), rank 1..k.

    Shape: a tiny doc-count partial pass (N rides the closure); distinct
    (word, doc, tf) rows meet word-keyed buckets where df = the exact
    STRING's row count (hashes only co-locate); candidates re-key by doc
    for the per-doc top-k. Candidate volume is the distinct (doc, word)
    pair count — no vocabulary broadcast, no all-pairs."""
    from ..exchange import hash_group_apply

    def nrows(tbl: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([tbl.num_rows], pa.int64())})

    _cnt = ds.map_batches(nrows, batch_format="pyarrow",
                          batch_size=65536).to_pandas()
    n_docs = 0 if _cnt.empty else int(_cnt["n"].sum())
    out_cols = {id_col: "int64", "rank": "int64", "term": "object",
                "tf": "int64", "df": "int64", "tfidf": "float64"}
    if n_docs == 0:
        return pd.DataFrame({c: pd.Series([], dtype=t)
                             for c, t in out_cols.items()})
    n_f = float(n_docs)

    def tfrows(tbl: pa.Table) -> pa.Table:
        n, doc_of, wlen, wh, words = _words_flat(tbl.column(text_col))
        ids = (tbl.column(id_col).combine_chunks()
               .to_numpy(zero_copy_only=False).astype(np.int64))
        o, run_id, counts, first = _gram_runs(doc_of, wh)
        return pa.table({
            "h": pa.array(wh[o][first], pa.uint64()),
            "w": pa.array(words[o][first], pa.large_string()),
            id_col: pa.array(ids[doc_of[o][first]], pa.int64()),
            "tf": pa.array(counts, pa.int64()),
        })

    def with_df(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["df"] = df.groupby("w", sort=False)["w"].transform("size")
        return df[[id_col, "w", "tf", "df"]]

    mid_schema = pa.schema([(id_col, pa.int64()), ("w", pa.large_string()),
                            ("tf", pa.int64()), ("df", pa.int64())])
    cand = hash_group_apply(
        ds.map_batches(tfrows, batch_format="pyarrow"), ["h"], with_df,
        out_schema=mid_schema)

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        # operand order matches the SQL spec: tf * ln(N / df), all
        # float64 — the rounded key collapses the ln-kernel 1-ulp gap.
        score = (df["tf"].to_numpy(np.float64)
                 * np.log(n_f / df["df"].to_numpy(np.float64)))
        df = df.assign(tfidf=score, key=np.round(score, 6))
        df = df.sort_values([id_col, "key", "w"],
                            ascending=[True, False, True], kind="mergesort")
        df["rank"] = df.groupby(id_col, sort=False).cumcount() + 1
        out = df[df["rank"] <= k].rename(columns={"w": "term"})
        return out[[id_col, "rank", "term", "tf", "df", "tfidf"]]

    out_schema = pa.schema([(id_col, pa.int64()), ("rank", pa.int64()),
                            ("term", pa.large_string()),
                            ("tf", pa.int64()), ("df", pa.int64()),
                            ("tfidf", pa.float64())])
    return hash_group_apply(cand, [id_col], topk, out_schema=out_schema)


def doc_summary(ds, *, k: int = 2, text_col: str = "text",
                id_col: str = "doc_id"):
    """Extractive summarization for curation: the top-k sentences per
    document by corpus-IDF mass — score(s) = Σ over s's DISTINCT words
    of ln(N / df(w)) — the cheap 'which sentences carry this doc's
    information' signal behind summary-based dedup/selection. Sentences
    are the non-blank trimmed pieces of an RE2 split on ``[.!?]+``
    (sent_idx = 1-based RAW slot, identical in Arrow and DuckDB);
    words are the corpus tokenizer's. Rank per doc on (round(score, 6)
    DESC, sent_idx ASC) — the rounded-ranking-key stance (float
    sum order differs between engines; the reported score compares
    under tolerance). Returns (doc_id, rank, sent_idx, score).

    Shape: one side-tagged union through the word exchange — side A is
    the distinct (doc, word) stream (df = side-A rows per exact word
    STRING; hashes only co-locate), side B the distinct (sentence, word)
    stream, which leaves the bucket as bare (doc, sent, df) triples; a
    doc-keyed exchange then reduceats the scores and ranks. Sentence
    text never ships — output is ids, like adjacent_pairs."""
    from ..exchange import hash_group_apply

    def nrows(tbl: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([tbl.num_rows], pa.int64())})

    _cnt = ds.map_batches(nrows, batch_format="pyarrow",
                          batch_size=65536).to_pandas()
    n_docs = 0 if _cnt.empty else int(_cnt["n"].sum())
    if n_docs == 0:
        return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                             "rank": pd.Series([], dtype="int64"),
                             "sent_idx": pd.Series([], dtype="int64"),
                             "score": pd.Series([], dtype="float64")})
    n_f = float(n_docs)

    union_schema = pa.schema([
        ("h", pa.uint64()), ("w", pa.large_string()),
        ("side", pa.int8()), (id_col, pa.int64()),
        ("sent_idx", pa.int64())])

    def emit(tbl: pa.Table) -> pa.Table:
        ids = (tbl.column(id_col).combine_chunks()
               .to_numpy(zero_copy_only=False).astype(np.int64))
        # side A: distinct (doc, word)
        _n, doc_of, _wl, wh, words = _words_flat(tbl.column(text_col))
        o, _r, _c, first = _gram_runs(doc_of, wh)
        a_h, a_w = wh[o][first], words[o][first]
        a_doc = ids[doc_of[o][first]]
        # side B: distinct (sentence, word)
        col = tbl.column(text_col).cast(pa.large_string())
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        la = pc.split_pattern_regex(col, "[.!?]+")
        if isinstance(la, pa.ChunkedArray):
            la = la.combine_chunks()
        flat = pc.utf8_trim_whitespace(la.values)
        offs = np.asarray(la.offsets, dtype=np.int64)
        counts = np.diff(offs)
        doc_of_s = np.repeat(np.arange(len(col)), counts)
        # 1-based RAW slot index within each doc's split list
        slot = np.arange(len(flat), dtype=np.int64) - np.repeat(
            offs[:-1], counts) + 1
        keep = (pc.utf8_length(flat).to_numpy(zero_copy_only=False)
                .astype(np.int64) > 0)
        kept = flat.filter(pa.array(keep))
        kdoc, kslot = doc_of_s[keep], slot[keep]
        _ns, sent_of, _wl2, wh2, words2 = _words_flat(kept)
        o2, _r2, _c2, first2 = _gram_runs(sent_of, wh2)
        b_h, b_w = wh2[o2][first2], words2[o2][first2]
        b_sent = sent_of[o2][first2]
        b_doc = ids[kdoc[b_sent]]
        b_idx = kslot[b_sent]
        na, nb = len(a_h), len(b_h)
        return pa.table({
            "h": pa.array(np.concatenate([a_h, b_h]), pa.uint64()),
            "w": pa.array(np.concatenate([a_w, b_w]).astype(object),
                          pa.large_string()),
            "side": pa.array(np.concatenate(
                [np.zeros(na, np.int8), np.ones(nb, np.int8)]), pa.int8()),
            id_col: pa.array(np.concatenate([a_doc, b_doc]), pa.int64()),
            "sent_idx": pa.array(np.concatenate(
                [np.full(na, -1, np.int64), b_idx]), pa.int64()),
        }, schema=union_schema)

    def attach_df(df: pd.DataFrame) -> pd.DataFrame:
        side = df["side"].to_numpy()
        dfc = df.loc[side == 0].groupby("w", sort=False)["w"].size()
        b = df.loc[side == 1]
        return pd.DataFrame({
            id_col: b[id_col].to_numpy(np.int64),
            "sent_idx": b["sent_idx"].to_numpy(np.int64),
            "df": b["w"].map(dfc).to_numpy(np.int64),
        })

    mid_schema = pa.schema([(id_col, pa.int64()), ("sent_idx", pa.int64()),
                            ("df", pa.int64())])
    scored = hash_group_apply(
        ds.map_batches(emit, batch_format="pyarrow"), ["h"], attach_df,
        out_schema=mid_schema)

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                                 "rank": pd.Series([], dtype="int64"),
                                 "sent_idx": pd.Series([], dtype="int64"),
                                 "score": pd.Series([], dtype="float64")})
        doc = df[id_col].to_numpy(np.int64)
        sent = df["sent_idx"].to_numpy(np.int64)
        idf = np.log(n_f / df["df"].to_numpy(np.float64))
        o = np.lexsort((sent, doc))
        doc, sent, idf = doc[o], sent[o], idf[o]
        new = np.empty(len(doc), dtype=bool)
        new[0] = True
        new[1:] = (doc[1:] != doc[:-1]) | (sent[1:] != sent[:-1])
        starts = np.flatnonzero(new)
        score = np.add.reduceat(idf, starts)
        g = pd.DataFrame({id_col: doc[starts], "sent_idx": sent[starts],
                          "score": score,
                          "key": np.round(score, 6)})
        g = g.sort_values([id_col, "key", "sent_idx"],
                          ascending=[True, False, True], kind="mergesort")
        g["rank"] = g.groupby(id_col, sort=False).cumcount() + 1
        g = g[g["rank"] <= k]
        return g[[id_col, "rank", "sent_idx", "score"]]

    out_schema = pa.schema([(id_col, pa.int64()), ("rank", pa.int64()),
                            ("sent_idx", pa.int64()),
                            ("score", pa.float64())])
    return hash_group_apply(scored, [id_col], topk, out_schema=out_schema)


def corpus_stats(ds, text_col: str = "text", id_col: str = "doc_id"):
    """One-row corpus profile: (n_docs, n_words, n_vocab) with n_vocab
    the EXACT distinct-word count — per-batch distinct (hash, word)
    rows meet word-keyed buckets that count distinct strings (the
    scalable exact-distinct shape: only one row per distinct word per
    batch crosses the wire; totals ride a tiny per-batch partial).
    Returns a pandas DataFrame with one row."""
    import pandas as pd

    from ..exchange import hash_group_apply

    def parts(tbl: pa.Table) -> pa.Table:
        n_docs, doc_of, wlen, wh, ws = _words_flat(tbl.column(text_col))
        if len(wh):
            o, run_id, counts, first = _gram_runs(
                np.zeros(len(wh), np.int64), wh)
            hs, wss = wh[o][first], ws[o][first]
        else:
            hs = np.array([], np.uint64)
            wss = np.array([], object)
        pad = np.zeros(len(hs), np.int64)
        nd = pad.copy()
        nw = pad.copy()
        if len(hs):
            nd[0] = n_docs
            nw[0] = len(wh)
            return pa.table({"h": pa.array(hs, pa.uint64()),
                             "w": pa.array(wss, pa.large_string()),
                             "n_docs": pa.array(nd),
                             "n_words": pa.array(nw)})
        return pa.table({"h": pa.array([0], pa.uint64()),
                         "w": pa.array([None], pa.large_string()),
                         "n_docs": pa.array([n_docs], pa.int64()),
                         "n_words": pa.array([0], pa.int64())})

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n_vocab": [int(df["w"].dropna().nunique())],
            "n_docs": [int(df["n_docs"].sum())],
            "n_words": [int(df["n_words"].sum())],
        })

    out_schema = pa.schema([("n_vocab", pa.int64()),
                            ("n_docs", pa.int64()),
                            ("n_words", pa.int64())])
    parts_df = hash_group_apply(
        ds.map_batches(parts, batch_format="pyarrow",
                       batch_size=65536),   # distinct-per-batch rows
        ["h"], bucket,                       # scale with batch COUNT
        out_schema=out_schema).to_pandas()
    if len(parts_df) == 0:   # zero-row input: Ray skips the map entirely
        return pd.DataFrame({"n_docs": [0], "n_words": [0],
                             "n_vocab": [0]})
    return pd.DataFrame({
        "n_docs": [int(parts_df["n_docs"].sum())],
        "n_words": [int(parts_df["n_words"].sum())],
        "n_vocab": [int(parts_df["n_vocab"].sum())],
    })


def compression_ratio(ds, *, text_col: str = "text",
                      id_col: str = "doc_id", level: int = 6):
    """Per-doc zlib compression ratio — the Gopher/Dolma-style
    boilerplate signal: highly repetitive or templated text compresses
    far below natural prose, so a low ratio flags machine-generated /
    boilerplate documents and a very high one flags high-entropy noise
    (hex dumps, base64). ratio = deflate_bytes / utf8_bytes (1.0 for
    empty docs — no evidence either way).

    The compressor is stdlib zlib at a FIXED level/strategy, so the
    byte length is a deterministic pure function of the text — the
    golden oracle recomputes it per row sequentially
    (golden.py::write_golden_compress). The per-doc compress call is a
    C loop over the doc's bytes (no vectorized equivalent exists);
    everything around it stays Arrow. Ratios round to 6 decimals so the
    float division can't flake a hash gate."""
    import zlib

    def f(tbl: pa.Table) -> pa.Table:
        texts = tbl.column(text_col).to_pylist()
        n_raw = np.empty(len(texts), np.int64)
        n_cmp = np.empty(len(texts), np.int64)
        for i, t in enumerate(texts):
            b = t.encode("utf-8")
            n_raw[i] = len(b)
            n_cmp[i] = len(zlib.compress(b, level))
        ratio = np.round(
            np.where(n_raw > 0, n_cmp / np.maximum(n_raw, 1), 1.0), 6)
        return pa.table({
            id_col: tbl.column(id_col).cast(pa.int64()),
            "n_bytes": pa.array(n_raw, pa.int64()),
            "n_deflate": pa.array(n_cmp, pa.int64()),
            "ratio": pa.array(ratio, pa.float64()),
        })

    return ds.map_batches(f, batch_format="pyarrow")


def heavy_hitters(ds, m: int, *, k: int = 512, text_col: str = "text",
                  batch_size: int = 8_192):
    """EXACT top-``m`` corpus words by frequency WITHOUT a
    full-vocabulary shuffle: Misra-Gries candidate pruning + an exact
    recount of the survivors (the classic two-pass heavy-hitters
    recipe; MG per Misra & Gries 1982, merge per Agarwal et al. 2013's
    mergeable-summaries result).

    Pass 1 (candidates): each batch counts its words exactly
    (``np.unique``) and prunes to a Misra-Gries summary of at most
    ``k`` entries — subtract the (k+1)-th largest count from every
    count, keep the positive remainder, and emit the subtracted amount
    as that batch's error contribution (a sentinel row with the empty
    word, which ``_words_flat`` can never produce). The driver folds
    the ≤(k+1)-row partials with the same decrement rule, so its
    working set stays O(k) no matter how many batches stream past.
    MG invariant after any fold topology: a word ABSENT from the
    summary has true corpus count ≤ e (the accumulated decrements).

    Pass 2 (exact recount): the ≤k candidate word hashes broadcast
    once (``ray.put``); each batch emits nonzero (candidate_idx, n)
    pairs — ≤k rows per partial, ``batch_size`` PINNED per the r3
    partial-emitting-stage lesson — and the driver sums them into one
    dense length-k vector.

    The top-``m`` of the exact candidate counts is provably the exact
    corpus top-m iff the m-th count clears the absent-word bound
    (strictly, so an absent tie can't displace on the word tiebreak);
    otherwise this RAISES with the k to retry with rather than return
    a silently-approximate answer. e == 0 (vocab never overflowed k)
    is exact by construction. Ordering: (n desc, word asc), matching
    the SQL oracle's ORDER BY n DESC, word LIMIT m.

    Scale shape: text bytes never leave the map side; the driver sees
    only O(k)-row partials. At 100 TB the candidate pass is the same
    envelope as corpus_stats' parts stage; k trades a broader exactness
    guarantee for a k-row broadcast, both tiny."""
    import ray

    if m < 1 or k < m:
        raise ValueError("need 1 <= m <= k")

    def candidates(tbl: pa.Table) -> pa.Table:
        _, _, _, wh, words = _words_flat(tbl.column(text_col))
        if len(words):
            # distinct via the uint64 hash sort, not an object-string
            # sort (with the 8k batch pin: 7.2 s → 3.4 s on the
            # 100k-doc bench line); the 64-bit collision stance matches
            # the recount pass — a colliding pair would conflate there
            order = np.argsort(wh, kind="stable")
            starts = np.concatenate(
                ([True], wh[order][1:] != wh[order][:-1]))
            bounds = np.flatnonzero(np.concatenate((starts, [True])))
            uniq = words[order[bounds[:-1]]]
            cnt = np.diff(bounds)
        else:
            uniq, cnt = np.array([], object), np.array([], np.int64)
        cnt = cnt.astype(np.int64)
        err = 0
        if len(uniq) > k:
            kth = int(np.partition(cnt, len(cnt) - k - 1)[len(cnt) - k - 1])
            cnt = cnt - kth
            keep = cnt > 0
            uniq, cnt = uniq[keep], cnt[keep]
            err = kth
        return pa.table({
            "word": pa.array(np.append(uniq, ""), pa.string()),
            "cnt": pa.array(np.append(cnt, err), pa.int64()),
        })

    parts = ds.map_batches(candidates, batch_format="pyarrow",
                           batch_size=batch_size)
    summary = pd.Series(dtype=np.int64)
    e_total = 0
    for b in parts.iter_batches(batch_format="pyarrow",
                                batch_size=batch_size):
        w = b.column("word").to_numpy(zero_copy_only=False)
        c = b.column("cnt").to_numpy(zero_copy_only=False)
        sent = w == ""
        e_total += int(c[sent].sum())
        inc = pd.Series(c[~sent], index=w[~sent]).groupby(level=0).sum()
        summary = summary.add(inc, fill_value=0).astype(np.int64)
        if len(summary) > k:
            kth = int(np.partition(summary.to_numpy(),
                                   len(summary) - k - 1)[len(summary) - k - 1])
            summary = summary[summary > kth] - kth
            e_total += kth
    cand = np.array(sorted(summary.index), dtype=object)
    if len(cand) == 0:
        return pd.DataFrame({"word": np.array([], object),
                             "n": np.array([], np.int64)})

    ch = _hash_pure(cand).astype(np.uint64)
    order = np.argsort(ch)
    cand, ch = cand[order], ch[order]
    ch_ref = ray.put(ch)

    def recount(tbl: pa.Table) -> pa.Table:
        chv = ray.get(ch_ref)           # zero-copy object-store view
        _, _, _, wh, _ = _words_flat(tbl.column(text_col))
        pos = np.searchsorted(chv, wh)
        pos_c = np.minimum(pos, len(chv) - 1)
        hit = chv[pos_c] == wh
        n = np.bincount(pos_c[hit], minlength=len(chv)).astype(np.int64)
        nz = np.nonzero(n)[0]
        return pa.table({"i": pa.array(nz, pa.int64()),
                         "n": pa.array(n[nz], pa.int64())})

    totals = np.zeros(len(cand), np.int64)
    for b in ds.map_batches(recount, batch_format="pyarrow",
                            batch_size=batch_size
                            ).iter_batches(batch_format="pyarrow",
                                           batch_size=batch_size):
        np.add.at(totals, b.column("i").to_numpy(), b.column("n").to_numpy())

    sel = np.lexsort((cand, -totals))[:m]
    n_sel = totals[sel]
    if e_total > 0 and (len(sel) < m or int(n_sel[-1]) <= e_total):
        raise ValueError(
            f"heavy_hitters(m={m}, k={k}) cannot certify exactness: "
            f"m-th candidate count {int(n_sel[-1]) if len(sel) else 0} "
            f"<= error bound {e_total}; retry with larger k")
    return pd.DataFrame({"word": cand[sel], "n": n_sel})


def _entropy_from_counts(cnt: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits/byte) per row of an (n, 256) byte-count
    matrix, as H = log2(n) - Σ c·log2(c) / n, rounded to 1e-12. THE
    shared float kernel: the distributed stage and the sequential
    golden both call this on independently-derived counts (the
    quality-model ADVICE stance — identical kernel, independent
    inputs), so SIMD-vs-scalar libm drift can't split the gate. The
    reduction is numpy's axis-1 pairwise sum over a fixed length-256
    row — batch-shape independent."""
    c = cnt.astype(np.float64)
    n = c.sum(axis=1)
    clog = np.where(cnt > 0, c * np.log2(np.maximum(c, 1.0)), 0.0)
    nn = np.maximum(n, 1.0)
    h = np.where(n > 0, np.log2(nn) - clog.sum(axis=1) / nn, 0.0)
    return np.round(h, 12)


def byte_entropy(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """Per-document UTF-8 byte-distribution quality signals:
    (id, n_bytes, distinct_bytes, entropy). Low entropy flags
    repetitive boilerplate / padded junk; near-8-bits flags binary or
    compressed noise — the cheap complement to the zlib
    compression-ratio signal (no deflate pass).

    Map-only (no exchange): one ``np.bincount`` over
    ``doc_of·256 + byte`` of the batch's flat utf-8 buffer gives the
    (rows, 256) count matrix; ``batch_size`` pinned so that matrix
    stays ~8 MB. Ints are exact; the one float column comes from the
    shared ``_entropy_from_counts`` kernel."""
    from .dedup import _utf8_flat

    def f(tbl: pa.Table) -> pa.Table:
        data, offs = _utf8_flat(tbl.column(text_col))
        nd = len(offs) - 1
        lens = np.diff(offs).astype(np.int64)
        if len(data):
            doc_of = np.repeat(np.arange(nd), lens)
            cnt = np.bincount(doc_of * 256 + data.astype(np.int64),
                              minlength=nd * 256).reshape(nd, 256)
        else:
            cnt = np.zeros((nd, 256), np.int64)
        return pa.table({
            id_col: tbl.column(id_col),
            "n_bytes": pa.array(lens),
            "distinct_bytes": pa.array((cnt > 0).sum(axis=1)
                                       .astype(np.int64)),
            "entropy": pa.array(_entropy_from_counts(cnt), pa.float64())})

    return ds.map_batches(f, batch_format="pyarrow", batch_size=4096)


def source_overlap(ds, *, k: int = 5, text_col: str = "text",
                   source_col: str = "source"):
    """Source-pair content-overlap matrix: for every unordered source
    pair (sa ≤ sb), the number of DISTINCT word-k-grams that appear in
    BOTH sources (the diagonal (s, s) is the source's own distinct-gram
    count — the normalizer for an overlap coefficient). The
    which-source-copies-from-which analytics behind corpus-mixing and
    contamination audits.

    Distributed shape: per-batch gram hashing (the ``cross_doc_dup``
    split + Horner pass) emits DISTINCT (gram, source) rows — doc ids
    drop out map-side, so the exchange carries ≤ |sources| rows per
    gram; per gram-bucket a self-merge yields pairs (bounded by
    |sources|² per gram, NOT docs²), a second tiny exchange sums.
    Output is ≤ |sources|·(|sources|+1)/2 rows."""
    from ..exchange import hash_group_apply

    occ_schema = pa.schema([("g", pa.uint64()), (source_col, pa.string())])

    def grams(tbl: pa.Table) -> pa.Table:
        n_docs, doc_of, wlen, wh, offs = _split_flat(tbl, text_col)
        valid = np.ones(len(wh), dtype=bool)
        for j in range(1, k):
            valid[np.maximum(offs[1:] - j, 0)] = False
        i0 = np.nonzero(valid)[0]
        if not len(i0):
            return occ_schema.empty_table()
        with np.errstate(over="ignore"):
            h = wh[i0].copy()
            for j in range(1, k):
                h = h * _REP_HORNER + wh[i0 + j]
        src = tbl.column(source_col).to_pandas().to_numpy(dtype=object)
        df = pd.DataFrame({"g": h,
                           source_col: src[doc_of[i0]]}).drop_duplicates()
        return pa.Table.from_pandas(
            df, schema=occ_schema,
            preserve_index=False).replace_schema_metadata(None)

    pair_schema = pa.schema([("sa", pa.string()), ("sb", pa.string()),
                             ("n_shared", pa.int64())])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates()            # across-batch (g, source) dups
        m = df.merge(df, on="g", sort=False)
        sx, sy = source_col + "_x", source_col + "_y"
        m = m[m[sx] <= m[sy]]
        out = (m.groupby([sx, sy], sort=False).size()
               .reset_index(name="n_shared"))
        out.columns = ["sa", "sb", "n_shared"]
        return out

    parts = hash_group_apply(
        ds.map_batches(grams, batch_format="pyarrow"),
        ["g"], bucket, out_schema=pair_schema)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(["sa", "sb"], sort=False)["n_shared"].sum()
                .reset_index())

    return hash_group_apply(parts, ["sa", "sb"], fold,
                            out_schema=pair_schema)


def source_divergence(ds, *, text_col: str = "text",
                      source_col: str = "source"):
    """Pairwise Jensen-Shannon divergence between the sources' unigram
    word distributions — the distribution-level companion to
    ``source_overlap``'s shared-gram matrix (corpus-mixing audits: "how
    different is src_a's language from src_b's"). For each unordered
    source pair (sa < sb), with P_s(w) = cnt_s(w)/T_s,

        jsd = Σ_w ½·P_a(w)·ln(2·P_a/(P_a+P_b))
            + ½·P_b(w)·ln(2·P_b/(P_a+P_b))      (0·ln 0 terms = 0)

    — symmetric, bounded by ln 2, zero iff identical distributions.

    Distributed shape: a cheap column-pruned pass sums per-source word
    totals (|sources| scalars, broadcast in the closure); per batch one
    (wh, source, c) row per distinct (word, source); exchange on wh —
    each bucket owns its words entirely, pivots to a words×sources
    count matrix and emits ONE partial jsd row per pair (the word axis
    reduces in-bucket, so the fold input is |pairs|×buckets rows); a
    tiny pair-keyed exchange sums partials. The per-pair loop is over
    |sources|² (config-sized), never over rows. 64-bit word-hash
    collision stance shared with the dedup family; partial sums combine
    in arrival order (~1e-15 relative vs the SQL oracle)."""
    import ray.data as rd

    from ..exchange import hash_group_apply

    tot_schema = pa.schema([(source_col, pa.string()), ("n", pa.int64())])

    def totals(tbl: pa.Table) -> pa.Table:
        _, doc_of, _, _, _ = _words_flat(tbl.column(text_col))
        src = tbl.column(source_col).to_pandas().to_numpy(dtype=object)
        g = (pd.DataFrame({source_col: src[doc_of]})
             .groupby(source_col, sort=False).size().reset_index(name="n"))
        return pa.Table.from_pandas(
            g, schema=tot_schema,
            preserve_index=False).replace_schema_metadata(None)

    out_schema = pa.schema([("sa", pa.string()), ("sb", pa.string()),
                            ("jsd", pa.float64())])
    tp = ds.map_batches(totals, batch_format="pyarrow",
                        batch_size=65536).to_pandas()
    if tp.empty:
        return rd.from_arrow(out_schema.empty_table())
    t_by_src = tp.groupby(source_col)["n"].sum()
    sources = sorted(t_by_src.index)
    if len(sources) < 2:
        return rd.from_arrow(out_schema.empty_table())
    totals_vec = t_by_src.reindex(sources).to_numpy(np.float64)

    occ_schema = pa.schema([("wh", pa.uint64()),
                            (source_col, pa.string()), ("c", pa.int64())])

    def counts(tbl: pa.Table) -> pa.Table:
        _, doc_of, _, wh, _ = _words_flat(tbl.column(text_col))
        if not len(wh):
            return occ_schema.empty_table()
        src = tbl.column(source_col).to_pandas().to_numpy(dtype=object)
        g = (pd.DataFrame({"wh": wh, source_col: src[doc_of]})
             .groupby(["wh", source_col], sort=False).size()
             .reset_index(name="c"))
        return pa.Table.from_pandas(
            g, schema=occ_schema,
            preserve_index=False).replace_schema_metadata(None)

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["wh", source_col], sort=False)["c"].sum()
             .reset_index())                 # across-batch partial merge
        piv = g.pivot_table(index="wh", columns=source_col, values="c",
                            fill_value=0, aggfunc="sum")
        P = (piv.reindex(columns=sources, fill_value=0)
             .to_numpy(np.float64) / totals_vec)
        sa_l, sb_l, jsd_l = [], [], []
        for i in range(len(sources)):
            for j in range(i + 1, len(sources)):
                p, q = P[:, i], P[:, j]
                m = p + q
                with np.errstate(divide="ignore", invalid="ignore"):
                    term = (np.where(p > 0,
                                     0.5 * p * np.log(2 * p / m), 0.0)
                            + np.where(q > 0,
                                       0.5 * q * np.log(2 * q / m), 0.0))
                sa_l.append(sources[i])
                sb_l.append(sources[j])
                jsd_l.append(float(term.sum()))
        return pd.DataFrame({"sa": sa_l, "sb": sb_l, "jsd": jsd_l})

    parts = hash_group_apply(
        ds.map_batches(counts, batch_format="pyarrow", batch_size=65536),
        ["wh"], bucket, out_schema=out_schema)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(["sa", "sb"], sort=False)["jsd"].sum()
                .reset_index())

    return hash_group_apply(parts, ["sa", "sb"], fold,
                            out_schema=out_schema)


def source_terms(ds, *, k: int = 3, text_col: str = "text",
                 source_col: str = "source"):
    """Top-k most distinctive terms PER SOURCE: rank each source's
    terms by (source frequency asc, in-source tf desc, term asc) — the
    integer-only ranking of ``distinctive_terms`` lifted from docs to
    sources (deliberately no float idf: the SQL oracle compares
    exactly). Returns (source, term, tf, sf, rnk) for rnk ≤ k.

    Shape: per-batch (hash, word, source, tf-partial) runs (a (source,
    word) pair DOES span batches, unlike (doc, word), so the term
    bucket first sums partials per (word, source), then sf = its
    distinct-source row count); a second source-keyed exchange does the
    per-source lexsort top-k. Exact strings group — hash collisions
    only co-locate."""
    import pandas as pd

    from ..exchange import hash_group_apply

    def tfrows(tbl: pa.Table) -> pa.Table:
        n_docs, doc_of, wlen, wh, words = _words_flat(tbl.column(text_col))
        src = tbl.column(source_col).to_pandas().to_numpy(dtype=object)
        src_of, codes = pd.factorize(src[doc_of])
        o, run_id, counts, first = _gram_runs(src_of.astype(np.int64), wh)
        return pa.table({
            "h": pa.array(wh[o][first], pa.uint64()),
            "w": pa.array(words[o][first], pa.large_string()),
            source_col: pa.array(np.asarray(codes, dtype=object)
                                 [src_of[o][first]], pa.string())
            if len(codes) else pa.array([], pa.string()),
            "tf": pa.array(counts, pa.int64()),
        })

    def with_sf(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["w", source_col], sort=False, as_index=False)
             ["tf"].sum())
        g["sf"] = g.groupby("w", sort=False)["w"].transform("size")
        return g[[source_col, "w", "tf", "sf"]]

    mid_schema = pa.schema([(source_col, pa.string()),
                            ("w", pa.large_string()),
                            ("tf", pa.int64()), ("sf", pa.int64())])
    cand = hash_group_apply(
        ds.map_batches(tfrows, batch_format="pyarrow"), ["h"], with_sf,
        out_schema=mid_schema)

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["sf", "tf", "w"],
                            ascending=[True, False, True],
                            kind="mergesort")
        out = []
        for s, sub in df.groupby(source_col, sort=True):
            head = sub.head(k).rename(columns={"w": "term"})
            head = head.assign(rnk=np.arange(1, len(head) + 1,
                                             dtype=np.int64))
            out.append(head)
        return (pd.concat(out)[[source_col, "term", "tf", "sf", "rnk"]]
                if out else
                pd.DataFrame({source_col: pd.Series([], dtype="object"),
                              "term": pd.Series([], dtype="object"),
                              "tf": pd.Series([], dtype="int64"),
                              "sf": pd.Series([], dtype="int64"),
                              "rnk": pd.Series([], dtype="int64")}))

    out_schema = pa.schema([(source_col, pa.string()),
                            ("term", pa.large_string()),
                            ("tf", pa.int64()), ("sf", pa.int64()),
                            ("rnk", pa.int64())])
    return hash_group_apply(cand, [source_col], topk,
                            out_schema=out_schema)


def nll_quality_filter(ds, *, drop_denom: int = 10,
                       text_col: str = "text", id_col: str = "doc_id"):
    """The perplexity-filter ACTION (CCNet): score every doc with the
    corpus-unigram surprisal (``unigram_nll``) and DROP the worst
    ``n // drop_denom`` docs under the TOTAL order
    (round(nll, 6), doc_id) — the rounded-ranking-key stance, so
    identical word-multiset docs tie-break deterministically and the
    SQL window oracle selects the identical set. Returns a Dataset
    (doc_id, n_words, nll) of the KEPT docs.

    Shape: the scored Dataset materializes once (it feeds a histogram
    pass and the filter pass); the cutoff rank resolves via the
    sample_token_budget histogram-cut pattern — integer bucket counts
    (floor(r·2^16)) fold driver-side, only the single budget-crossing
    BUCKET's rows come back for the exact (r, id) tie resolution;
    everything else is a map-side keep/drop."""
    import ray.data as rd

    from ..exchange import hash_group_apply  # noqa: F401 (sibling parity)

    scored = unigram_nll(ds, text_col=text_col, id_col=id_col) \
        .materialize()

    def hist(tbl: pa.Table) -> pa.Table:
        r = np.round(tbl.column("nll").to_numpy(zero_copy_only=False), 6)
        b = np.floor(r * 65536.0).astype(np.int64)
        vals, cnts = np.unique(b, return_counts=True)
        return pa.table({"b": pa.array(vals, pa.int64()),
                         "cnt": pa.array(cnts.astype(np.int64))})

    h = (scored.map_batches(hist, batch_format="pyarrow",
                            batch_size=65536).to_pandas()
         .groupby("b", sort=True)["cnt"].sum().reset_index())
    n = int(h["cnt"].sum())
    if n == 0:
        return scored
    keep_k = n - n // drop_denom
    cum = h["cnt"].cumsum().to_numpy()
    pos = int(np.searchsorted(cum, keep_k, side="left"))
    if pos >= len(h):
        return scored
    cut_b = int(h["b"].iloc[pos])
    below = int(cum[pos - 1]) if pos > 0 else 0
    need = keep_k - below

    def keep_low(tbl: pa.Table) -> pa.Table:
        r = np.round(tbl.column("nll").to_numpy(zero_copy_only=False), 6)
        b = np.floor(r * 65536.0).astype(np.int64)
        return tbl.filter(pa.array(b < cut_b))

    def crossing(tbl: pa.Table) -> pa.Table:
        r = np.round(tbl.column("nll").to_numpy(zero_copy_only=False), 6)
        b = np.floor(r * 65536.0).astype(np.int64)
        return tbl.filter(pa.array(b == cut_b))

    cross = (scored.map_batches(crossing, batch_format="pyarrow",
                                batch_size=65536).to_pandas())
    cross["_r"] = np.round(cross["nll"].to_numpy(), 6)
    cross = (cross.sort_values(["_r", id_col], kind="mergesort")
             .head(need).drop(columns="_r"))
    kept_low = scored.map_batches(keep_low, batch_format="pyarrow",
                                  batch_size=65536)
    if len(cross):
        return kept_low.union(rd.from_pandas(cross))
    return kept_low


def zipf_fit(ds, *, top_n: int = 100, text_col: str = "text"):
    """Zipf-slope diagnostic: OLS fit of ln(count) on ln(rank) over the
    corpus's ``top_n`` most frequent words (rank order = count DESC,
    word ASC — an exact integer+string key, so the top-N cut never sits
    on a float boundary). Natural language sits near slope −1; a heavy
    template/boilerplate corpus flattens, a spam blowup steepens.
    Returns one row (n_top, slope, intercept).

    Shape: per-batch word-run partials through the word-keyed exchange
    (each word lives in exactly ONE bucket, so a bucket-local top-N by
    the same key is a sound global prune); the driver ranks
    ≤ top_n × buckets rows and evaluates the closed-form OLS — the
    same float expression the SQL oracle spells out over identical
    exact-int (rank, count) pairs."""
    from ..exchange import hash_group_apply

    schema = pa.schema([("w", pa.large_string()), ("c", pa.int64())])

    def partial(tbl: pa.Table) -> pa.Table:
        _, doc_of, _, wh, words = _words_flat(tbl.column(text_col))
        if not len(wh):
            return schema.empty_table()
        o, _, counts, first = _gram_runs(np.zeros(len(wh), np.int64), wh)
        return pa.table({"w": pa.array(words[o][first], pa.large_string()),
                         "c": pa.array(counts, pa.int64())})

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby("w", sort=False)["c"].sum().reset_index())
        return (g.sort_values(["c", "w"], ascending=[False, True],
                              kind="mergesort").head(top_n))

    parts = hash_group_apply(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        ["w"], bucket, out_schema=schema).to_pandas()
    if parts.empty:
        return pd.DataFrame({"n_top": pd.Series([0], dtype="int64"),
                             "slope": [float("nan")],
                             "intercept": [float("nan")]})
    top = (parts.sort_values(["c", "w"], ascending=[False, True],
                             kind="mergesort").head(top_n)
           .reset_index(drop=True))
    n = len(top)
    if n < 2:
        return pd.DataFrame({"n_top": pd.Series([n], dtype="int64"),
                             "slope": [float("nan")],
                             "intercept": [float("nan")]})
    x = np.log(np.arange(1, n + 1, dtype=np.float64))
    y = np.log(top["c"].to_numpy(np.float64))
    sx, sy = x.sum(), y.sum()
    sxx, sxy = (x * x).sum(), (x * y).sum()
    den = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / den
    intercept = (sy * sxx - sx * sxy) / den
    return pd.DataFrame({"n_top": pd.Series([n], dtype="int64"),
                         "slope": [slope], "intercept": [intercept]})
