r"""Line-level document cleaning — the C4 paragraph filters (Raffel et
al. 2020 §2.2): keep only lines that look like prose (≥ 3 words,
terminal punctuation, not shouting all-caps), drop the rest, and emit
per-document keep counts plus the cleaned text. Beyond the reference's
scope; verified against a REAL SQL oracle (DuckDB string_split + the
same RE2 predicates per line + ordered string_agg).

Kernel shape: one Arrow split per batch; every per-line predicate runs
vectorized over the FLAT line values (count_substring_regex /
match_substring_regex — RE2 on both sides); kept lines reassemble into
per-row lists via offset arithmetic and ONE ``binary_join`` call.
``binary_join`` has no large-list kernel in pyarrow 16 (CLAUDE.md), so
the operator pins ``batch_size`` and uses 32-bit list offsets.

Words: every metric here (ROUGE-N/L, BLEU, WER, the chrF candidate) and
every DuckDB oracle splits on RE2 ``\s`` = ``[\t\n\f\r ]``. Python's
``str.split()`` also splits on ``\v``, ``\x1c``-``\x1f``, ``\x85``,
``\xa0`` and U+2000-U+3000, so the per-row Python paths (``rouge_l_recall``
and the golden oracles) split with ``_words`` instead.
"""
from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# the three line predicates — each string is an RE2 shared verbatim
# with the SQL oracle
MIN_WORDS = 3
_WORD_RUN = r"\S+"
_ENDS_PUNCT = r"[.!?\"]$"
_HAS_LETTER = r"[A-Za-z]"
_RE2_SPACE = re.compile(r"[\t\n\f\r ]+")


def _words(text: str | None) -> list[str]:
    """Whitespace tokens of ``text`` under RE2 ``\\s`` (the kernels'
    ``split_pattern_regex(…, r"\\s+")`` with empty pieces dropped)."""
    return [w for w in _RE2_SPACE.split(text or "") if w]


def line_filter(ds, *, text_col: str = "text", id_col: str = "doc_id",
                batch_size: int = 4096):
    """(id, n_lines, n_kept, text_clean) per document: a line survives
    iff it has ≥ 3 whitespace-separated words AND ends in . ! ? or a
    double quote AND is not all-caps shouting (equal to its own
    uppercasing while containing a letter). ``text_clean`` re-joins
    the survivors with newlines in original order."""

    def f(tbl: pa.Table) -> pa.Table:
        text = pc.cast(tbl.column(text_col), pa.string())
        lines = pc.split_pattern(text, "\n")
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        flat = lines.values
        offs = np.asarray(lines.offsets, dtype=np.int64)
        n_words = pc.count_substring_regex(flat, _WORD_RUN).to_numpy(
            zero_copy_only=False)
        ends = pc.match_substring_regex(flat, _ENDS_PUNCT).to_numpy(
            zero_copy_only=False)
        upper = pc.equal(flat, pc.utf8_upper(flat)).to_numpy(
            zero_copy_only=False)
        letter = pc.match_substring_regex(flat, _HAS_LETTER).to_numpy(
            zero_copy_only=False)
        keep = (n_words >= MIN_WORDS) & ends & ~(upper & letter)

        n_lines = (offs[1:] - offs[:-1]).astype(np.int64)
        kcum = np.concatenate([[0], np.cumsum(keep)]).astype(np.int64)
        n_kept = kcum[offs[1:]] - kcum[offs[:-1]]
        kept_vals = flat.filter(pa.array(keep))
        kept_offs = kcum[offs].astype(np.int32)       # 32-bit offsets
        kept_list = pa.ListArray.from_arrays(
            pa.array(kept_offs, pa.int32()), kept_vals)
        clean = pc.binary_join(kept_list, "\n")
        return pa.table({id_col: tbl.column(id_col),
                         "n_lines": pa.array(n_lines, pa.int64()),
                         "n_kept": pa.array(n_kept, pa.int64()),
                         "text_clean": clean})

    return ds.map_batches(f, batch_format="pyarrow",
                          batch_size=batch_size)


def synth_multiline_docs(n: int, seed: int = 31) -> pa.Table:
    """Deterministic multiline corpus exercising every predicate arm:
    prose lines (kept), short fragments, unterminated lines, ALL-CAPS
    shouts, punctuation-only lines, and empty lines."""
    rng = np.random.default_rng(seed)
    words = ["data", "scan", "batch", "query", "merge", "stream",
             "filter", "table"]
    docs = []
    for i in range(n):
        lines = []
        for _ in range(int(rng.integers(1, 9))):
            kind = int(rng.integers(0, 6))
            body = " ".join(words[int(rng.integers(0, len(words)))]
                            for _ in range(int(rng.integers(1, 7))))
            if kind == 0:
                lines.append(body + ".")              # prose
            elif kind == 1:
                lines.append(body)                    # unterminated
            elif kind == 2:
                lines.append(body.upper() + "!")      # shouting
            elif kind == 3:
                lines.append("ok.")                   # too short
            elif kind == 4:
                lines.append("...")                   # no letters
            else:
                lines.append("")                      # empty
        docs.append("\n".join(lines))
    return pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                     "text": pa.array(docs, pa.string())})


def rouge_recall(ds, *, ref_col: str, cand_col: str,
                 id_col: str = "doc_id", n_gram: int = 1):
    """ROUGE-N recall per row — Σ_g min(count_cand(g), count_ref(g)) /
    Σ_g count_ref(g) over lowercased whitespace-token ``n_gram``-grams
    (clipped overlap, Lin 2004): the summary/retention eval a pipeline
    runs on its own cleaning and summarization outputs. Emits
    (id, overlap, ref_total, rouge1); rouge1 is one int/int IEEE
    division (0.0 for a gram-less reference), so a SQL oracle replays
    it exactly (n-grams via the dedup shingle CTE style). Per batch:
    ONE split per column, a combined factorize, and bincounts over
    (row, gram) codes — no per-row Python."""
    assert n_gram >= 1

    def f(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows

        def row_word_counts(col):
            la = pc.split_pattern_regex(
                pc.utf8_lower(pc.cast(tbl.column(col), pa.string())),
                r"\s+")
            if isinstance(la, pa.ChunkedArray):
                la = la.combine_chunks()
            flat = la.values
            offs = np.asarray(la.offsets, dtype=np.int64)
            words = flat.to_numpy(zero_copy_only=False)
            rows = np.repeat(np.arange(n), offs[1:] - offs[:-1])
            keep = np.fromiter((len(w) > 0 for w in words), bool,
                               count=len(words))
            rows, words = rows[keep], words[keep]
            if n_gram == 1:
                return rows, words
            # n-grams: join adjacent same-row words with chr(1) (the
            # dedup shingle separator, shared with the SQL)
            m = len(words) - n_gram + 1
            if m <= 0:
                return (np.empty(0, np.int64),
                        np.empty(0, dtype=object))
            same = np.ones(m, dtype=bool)
            for j in range(1, n_gram):
                same &= rows[j:j + m] == rows[:m]
            grams = np.array(
                ["\x01".join(words[i:i + n_gram])
                 for i in np.flatnonzero(same)], dtype=object)
            return rows[:m][same], grams

        r_rows, r_words = row_word_counts(ref_col)
        c_rows, c_words = row_word_counts(cand_col)
        vocab, codes = np.unique(np.concatenate([r_words, c_words]),
                                 return_inverse=True)
        rc = codes[:len(r_words)]
        cc = codes[len(r_words):]
        v = len(vocab)
        # (row, word) count maps via bincount over combined keys
        rk = r_rows * v + rc
        ck = c_rows * v + cc
        ru, rcnt = np.unique(rk, return_counts=True)
        cu, ccnt = np.unique(ck, return_counts=True)
        # align: for each ref key, the cand count (0 if absent)
        pos = np.searchsorted(cu, ru)
        pos[pos >= len(cu)] = 0
        cand_at = np.where(len(cu) and cu[pos] == ru, ccnt[pos], 0) \
            if len(cu) else np.zeros(len(ru), np.int64)
        clipped = np.minimum(rcnt, cand_at)
        overlap = np.bincount(ru // v, weights=clipped,
                              minlength=n).astype(np.int64)
        ref_total = np.bincount(r_rows, minlength=n).astype(np.int64)
        rouge = np.where(ref_total > 0,
                         overlap / np.maximum(ref_total, 1), 0.0)
        return pa.table({id_col: tbl.column(id_col),
                         "overlap": pa.array(overlap, pa.int64()),
                         "ref_total": pa.array(ref_total, pa.int64()),
                         "rouge1": pa.array(rouge, pa.float64())})

    return ds.map_batches(f, batch_format="pyarrow")


def rouge1_recall(ds, *, ref_col: str, cand_col: str,
                  id_col: str = "doc_id"):
    """Unigram special case of ``rouge_recall``."""
    return rouge_recall(ds, ref_col=ref_col, cand_col=cand_col,
                        id_col=id_col, n_gram=1)


def _bleu_from_counts(clip: np.ndarray, tot: np.ndarray,
                      ref_len: np.ndarray, cand_len: np.ndarray,
                      max_n: int = 4) -> np.ndarray:
    """Shared BLEU float kernel (Papineni et al. 2002, smoothing: n=1
    precision unsmoothed, n≥2 add-one — Lin & Och 2004 style):
    bleu = BP · exp(Σ_n ln(p_n)/max_n), BP = exp(1 − ref/cand) when the
    candidate is shorter, and 0.0 outright when the candidate is empty
    or shares no unigram. ``clip``/``tot`` are (rows, max_n) int64.
    BOTH the batched operator and the sequential golden call THIS
    function over their independently-derived integer counts (the
    text_entropy stance — determinism comes from sharing the float
    kernel, not from reimplementing it twice)."""
    n_rows = len(ref_len)
    logs = np.zeros(n_rows, np.float64)
    for j in range(max_n):
        if j == 0:
            p = clip[:, 0] / np.maximum(tot[:, 0], 1)
        else:
            p = (clip[:, j] + 1.0) / (tot[:, j] + 1.0)
        logs = logs + np.log(np.maximum(p, 1e-300)) / max_n
    bp = np.where(cand_len >= ref_len, 1.0,
                  np.exp(1.0 - ref_len / np.maximum(cand_len, 1)))
    bleu = bp * np.exp(logs)
    return np.where((cand_len > 0) & (clip[:, 0] > 0), bleu, 0.0)


def bleu_scores(ds, *, ref_col: str, cand_col: str,
                id_col: str = "doc_id", max_n: int = 4):
    """Per-row BLEU-``max_n`` of ``cand_col`` against ``ref_col`` over
    lowercased whitespace tokens — the generation-eval companion to
    the ROUGE family (precision-oriented: clipped CANDIDATE n-gram
    counts over candidate totals, brevity penalty for short
    candidates). Emits (id, clip1..clipN, tot1..totN, ref_len,
    cand_len, bleu); every count is an exact integer, the float comes
    from ``_bleu_from_counts`` (shared with the golden).

    Batch mechanics: ONE split per column; words factorize once over
    both columns combined; each n-gram level extends the previous
    level's dense gram codes with the next word's code and
    RE-FACTORIZES (np.unique over both columns' combined keys), so
    keys stay < 2^63 at any vocabulary size — no string joins, no
    per-row Python. Clipped overlap per row is the same
    bincount-alignment as ``rouge_recall`` (min of the two (row, gram)
    count maps is symmetric)."""
    assert max_n >= 1

    def f(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows

        def row_words(col):
            la = pc.split_pattern_regex(
                pc.utf8_lower(pc.cast(tbl.column(col), pa.string())),
                r"\s+")
            if isinstance(la, pa.ChunkedArray):
                la = la.combine_chunks()
            flat = la.values
            offs = np.asarray(la.offsets, dtype=np.int64)
            words = flat.to_numpy(zero_copy_only=False)
            rows = np.repeat(np.arange(n), offs[1:] - offs[:-1])
            keep = np.fromiter((len(w) > 0 for w in words), bool,
                               count=len(words))
            return rows[keep], words[keep]

        r_rows, r_words = row_words(ref_col)
        c_rows, c_words = row_words(cand_col)
        _, codes = np.unique(np.concatenate([r_words, c_words]),
                             return_inverse=True)
        r_codes = codes[:len(r_words)].astype(np.int64)
        c_codes = codes[len(r_words):].astype(np.int64)
        ref_len = np.bincount(r_rows, minlength=n).astype(np.int64)
        cand_len = np.bincount(c_rows, minlength=n).astype(np.int64)

        clip = np.zeros((n, max_n), np.int64)
        ctot = np.zeros((n, max_n), np.int64)
        # level state: gram start indices into the word arrays + dense
        # gram codes (shared code space across both columns)
        r_idx = np.arange(len(r_codes))
        c_idx = np.arange(len(c_codes))
        g_r = r_codes
        g_c = c_codes
        v_words = int(codes.max(initial=-1)) + 1
        v_cur = v_words
        for j in range(max_n):
            if j > 0:
                # extend (j)-grams at start i to (j+1)-grams: the next
                # word lives at i+j and must be in the same row; the
                # combined key multiplies by the WORD vocab size (the
                # addend's bound) so it is collision-free regardless
                # of how many distinct grams the previous level had
                def ext(idx, g, rows, word_codes):
                    ok = idx + j < len(word_codes)
                    ii = idx[ok]
                    same = rows[ii + j] == rows[ii]
                    ii, gg = ii[same], g[ok][same]
                    return ii, gg * v_words + word_codes[ii + j]

                r_idx, key_r = ext(r_idx, g_r, r_rows, r_codes)
                c_idx, key_c = ext(c_idx, g_c, c_rows, c_codes)
                uniq, newc = np.unique(np.concatenate([key_r, key_c]),
                                       return_inverse=True)
                g_r = newc[:len(key_r)].astype(np.int64)
                g_c = newc[len(key_r):].astype(np.int64)
                v_cur = len(uniq)
            rr = r_rows[r_idx]
            cr = c_rows[c_idx]
            ctot[:, j] = np.bincount(cr, minlength=n)
            rk = rr * v_cur + g_r
            ck = cr * v_cur + g_c
            ru, rcnt = np.unique(rk, return_counts=True)
            cu, ccnt = np.unique(ck, return_counts=True)
            if len(ru) and len(cu):
                pos = np.searchsorted(cu, ru)
                pos[pos >= len(cu)] = 0
                cand_at = np.where(cu[pos] == ru, ccnt[pos], 0)
                clipped = np.minimum(rcnt, cand_at)
                clip[:, j] = np.bincount(ru // v_cur, weights=clipped,
                                         minlength=n).astype(np.int64)

        bleu = _bleu_from_counts(clip, ctot, ref_len, cand_len, max_n)
        cols = {id_col: tbl.column(id_col)}
        for j in range(max_n):
            cols[f"clip{j + 1}"] = pa.array(clip[:, j], pa.int64())
            cols[f"tot{j + 1}"] = pa.array(ctot[:, j], pa.int64())
        cols["ref_len"] = pa.array(ref_len, pa.int64())
        cols["cand_len"] = pa.array(cand_len, pa.int64())
        cols["bleu"] = pa.array(bleu, pa.float64())
        return pa.table(cols)

    return ds.map_batches(f, batch_format="pyarrow")


def corpus_bleu(ds, *, ref_col: str, cand_col: str,
                id_col: str = "doc_id", max_n: int = 4):
    """Corpus-level BLEU (Papineni et al. 2002 — the micro-average:
    clip/tot counts SUM over the corpus before the ratio, which is NOT
    the mean of per-doc BLEUs): one row with the summed integer
    components and the score. Distributed shape: ``bleu_scores``'s
    per-doc counts collapse to ONE partial row per batch (exact int64
    sums — order-free), the driver folds the tiny partials and calls
    the same ``_bleu_from_counts`` kernel once. The corpus brevity
    penalty uses Σref_len/Σcand_len; with every count an exact
    integer the single kernel call is deterministic under any block
    layout. Returns a 1-row pandas frame."""
    per_doc = bleu_scores(ds, ref_col=ref_col, cand_col=cand_col,
                          id_col=id_col, max_n=max_n)
    cols = ([f"clip{j}" for j in range(1, max_n + 1)]
            + [f"tot{j}" for j in range(1, max_n + 1)]
            + ["ref_len", "cand_len"])

    def partial(tbl: pa.Table) -> pa.Table:
        return pa.table({c: pa.array(
            [int(pc.sum(tbl.column(c)).as_py() or 0)], pa.int64())
            for c in cols})

    import pandas as pd

    parts = per_doc.map_batches(partial,
                                batch_format="pyarrow").to_pandas()
    sums = {c: int(parts[c].sum()) for c in cols}
    clip = np.array([[sums[f"clip{j}"] for j in range(1, max_n + 1)]],
                    np.int64)
    tot = np.array([[sums[f"tot{j}"] for j in range(1, max_n + 1)]],
                   np.int64)
    rl = np.array([sums["ref_len"]], np.int64)
    cl = np.array([sums["cand_len"]], np.int64)
    bleu = _bleu_from_counts(clip, tot, rl, cl, max_n)
    out = {c: [sums[c]] for c in cols}
    out["bleu"] = [float(bleu[0])]
    return pd.DataFrame(out)


def corpus_chrf(ds, *, ref_col: str, cand_col: str,
                id_col: str = "doc_id", max_n: int = 6,
                beta: float = 2.0):
    """Corpus-level chrF (micro-average — clip/ctot/rtot SUM over the
    corpus before the precision/recall ratios, the sacrebleu corpus
    convention): one row with the summed integer components and the
    score from the shared ``_chrf_from_counts`` kernel. Same
    distributed shape as ``corpus_bleu``: per-doc rows collapse to ONE
    int64 partial row per batch, the driver folds the tiny partials
    and calls the kernel once."""
    per_doc = chrf_scores(ds, ref_col=ref_col, cand_col=cand_col,
                          id_col=id_col, max_n=max_n, beta=beta)
    cols = ([f"clip{j}" for j in range(1, max_n + 1)]
            + [f"ctot{j}" for j in range(1, max_n + 1)]
            + [f"rtot{j}" for j in range(1, max_n + 1)])

    def partial(tbl: pa.Table) -> pa.Table:
        return pa.table({c: pa.array(
            [int(pc.sum(tbl.column(c)).as_py() or 0)], pa.int64())
            for c in cols})

    import pandas as pd

    parts = per_doc.map_batches(partial,
                                batch_format="pyarrow").to_pandas()
    sums = {c: int(parts[c].sum()) for c in cols}
    clip = np.array([[sums[f"clip{j}"] for j in range(1, max_n + 1)]],
                    np.int64)
    ctot = np.array([[sums[f"ctot{j}"] for j in range(1, max_n + 1)]],
                    np.int64)
    rtot = np.array([[sums[f"rtot{j}"] for j in range(1, max_n + 1)]],
                    np.int64)
    score = _chrf_from_counts(clip, ctot, rtot, beta)
    out = {c: [sums[c]] for c in cols}
    out["chrf"] = [float(score[0])]
    return pd.DataFrame(out)


def wer_scores(ds, *, ref_col: str, cand_col: str,
               id_col: str = "doc_id"):
    """Per-row Word Error Rate — word-level Levenshtein(cand, ref) /
    |ref| over lowercased whitespace tokens (unit insert/delete/
    substitute; TER without block shifts): the ASR/generation metric
    next to BLEU/ROUGE/chrF. Emits (id, dist, ref_total, wer) — two
    exact integers and one int/int division.

    Batch mechanics: the dedup ``_lev_block`` discipline at the WORD
    level — tokens factorize to int codes (one np.unique over both
    columns), sequences pad into (rows, maxlen) code matrices, and the
    classic DP runs with the ROW axis vectorized (the sequential
    recurrence loops only over maxa×maxb ≈ document lengths). A row
    finishes when the DP reaches its own ref length."""

    def f(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows

        def rows_codes(col):
            la = pc.split_pattern_regex(
                pc.utf8_lower(pc.cast(tbl.column(col), pa.string())),
                r"\s+")
            if isinstance(la, pa.ChunkedArray):
                la = la.combine_chunks()
            flat = la.values
            offs = np.asarray(la.offsets, dtype=np.int64)
            words = flat.to_numpy(zero_copy_only=False)
            rows = np.repeat(np.arange(n), offs[1:] - offs[:-1])
            keep = np.fromiter((len(w) > 0 for w in words), bool,
                               count=len(words))
            return rows[keep], words[keep]

        r_rows, r_words = rows_codes(ref_col)
        c_rows, c_words = rows_codes(cand_col)
        _, codes = np.unique(np.concatenate([r_words, c_words]),
                             return_inverse=True)
        rc = codes[:len(r_words)].astype(np.int64)
        cc = codes[len(r_words):].astype(np.int64)
        la = np.bincount(r_rows, minlength=n).astype(np.int64)
        lb = np.bincount(c_rows, minlength=n).astype(np.int64)
        maxa, maxb = int(la.max(initial=0)), int(lb.max(initial=0))

        def pad(rows, vals, lens, width):
            m = np.full((n, max(width, 1)), -1, np.int64)
            if len(vals):
                col = (np.arange(len(vals))
                       - np.repeat(np.cumsum(lens) - lens, lens))
                m[rows, col] = vals
            return m

        A = pad(r_rows, rc, la, maxa)
        B = pad(c_rows, cc, lb, maxb)

        dist = np.where(la == 0, lb, np.int64(-1))
        prev = np.tile(np.arange(maxb + 1, dtype=np.int64), (n, 1))
        cur = np.empty_like(prev)
        for i in range(1, maxa + 1):
            cur[:, 0] = i
            ai = A[:, i - 1]
            for j in range(1, maxb + 1):
                sub = prev[:, j - 1] + (ai != B[:, j - 1])
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1,
                           out=cur[:, j])
                np.minimum(cur[:, j], sub, out=cur[:, j])
            done = la == i
            if done.any():
                dist[done] = cur[done, lb[done]]
            prev, cur = cur, prev

        wer = np.where(la > 0, dist / np.maximum(la, 1), 0.0)
        return pa.table({id_col: tbl.column(id_col),
                         "dist": pa.array(dist, pa.int64()),
                         "ref_total": pa.array(la, pa.int64()),
                         "wer": pa.array(wer, pa.float64())})

    return ds.map_batches(f, batch_format="pyarrow")


def corpus_wer(ds, *, ref_col: str, cand_col: str,
               id_col: str = "doc_id"):
    """Corpus-level WER (micro-average: Σdist / Σref_len — the ASR
    convention, NOT the mean of per-row rates): per-row ``wer_scores``
    integers collapse to one (dist, ref_total) partial per batch, the
    driver folds and performs the single double division. Returns a
    1-row pandas frame (total_dist, total_ref, wer)."""
    per = wer_scores(ds, ref_col=ref_col, cand_col=cand_col,
                     id_col=id_col)

    def partial(tbl: pa.Table) -> pa.Table:
        return pa.table({
            "d": pa.array([int(pc.sum(tbl.column("dist")).as_py()
                               or 0)], pa.int64()),
            "r": pa.array([int(pc.sum(tbl.column("ref_total")).as_py()
                               or 0)], pa.int64())})

    import pandas as pd

    parts = per.map_batches(partial, batch_format="pyarrow").to_pandas()
    d = int(parts["d"].sum())
    r = int(parts["r"].sum())
    return pd.DataFrame({"total_dist": [d], "total_ref": [r],
                         "wer": [d / r if r else 0.0]})


def _chrf_from_counts(clip: np.ndarray, ctot: np.ndarray,
                      rtot: np.ndarray, beta: float = 2.0
                      ) -> np.ndarray:
    """Shared chrF float kernel (Popović 2015): per included order
    P_n = clip/ctot and R_n = clip/rtot; an order is included iff BOTH
    sides have at least one n-gram; P/R are plain means over included
    orders and chrF = (1+β²)·P·R / (β²·P + R), 0.0 when no order is
    included or P+R = 0. All inputs are (rows, max_n) exact int64;
    both the batched operator and the sequential golden call THIS
    kernel (the _bleu_from_counts stance)."""
    inc = (ctot > 0) & (rtot > 0)
    k = inc.sum(axis=1)
    p = np.where(inc, clip / np.maximum(ctot, 1), 0.0).sum(axis=1) \
        / np.maximum(k, 1)
    r = np.where(inc, clip / np.maximum(rtot, 1), 0.0).sum(axis=1) \
        / np.maximum(k, 1)
    b2 = beta * beta
    denom = b2 * p + r
    score = np.where((k > 0) & (denom > 0),
                     (1.0 + b2) * p * r / np.where(denom > 0, denom,
                                                   1.0), 0.0)
    return score


def chrf_scores(ds, *, ref_col: str, cand_col: str,
                id_col: str = "doc_id", max_n: int = 6,
                beta: float = 2.0):
    """Per-row chrF (character n-gram F-β, byte-level, n = 1..max_n)
    of ``cand_col`` against ``ref_col`` — the third MT/generation
    metric next to ROUGE (recall) and BLEU (precision). Whitespace is
    removed before gram extraction (the chrF convention); operating on
    the raw UTF-8 bytes makes the spec exact and vectorizable (ASCII
    text grams equal character grams; multi-byte text gets byte grams
    — documented deviation).

    Batch mechanics: the column's FLAT utf-8 buffer (zero-copy via
    ``dedup._utf8_flat``) is whitespace-filtered with one mask +
    cumsum; level-n gram codes pack the window's bytes into one int64
    ((g<<8)|next, ≤ 2^48 for n=6 — EXACT, no hashing, and both
    columns share the key space so clipped overlap needs no
    factorize). Emits (id, clip1..N, ctot1..N, rtot1..N, chrf)."""

    def f(tbl: pa.Table) -> pa.Table:
        from .dedup import _utf8_flat

        n = tbl.num_rows
        _WS = np.array([9, 10, 11, 12, 13, 32], np.uint8)

        def despaced(col):
            arr = pc.utf8_lower(pc.cast(tbl.column(col), pa.string()))
            if isinstance(arr, pa.Array):
                arr = pa.chunked_array([arr])
            data, offs = _utf8_flat(arr)
            keep = ~np.isin(data, _WS)
            kcum = np.concatenate(
                [[0], np.cumsum(keep)]).astype(np.int64)
            new_offs = kcum[offs]
            b = data[keep].astype(np.int64)
            rows = np.repeat(np.arange(n), new_offs[1:] - new_offs[:-1])
            return b, rows

        rb, rr = despaced(ref_col)
        cb, cr = despaced(cand_col)

        clip = np.zeros((n, max_n), np.int64)
        ctot = np.zeros((n, max_n), np.int64)
        rtot = np.zeros((n, max_n), np.int64)
        r_idx = np.arange(len(rb))
        c_idx = np.arange(len(cb))
        g_r = rb.copy()
        g_c = cb.copy()
        for j in range(max_n):
            if j > 0:
                def ext(idx, g, b, rows):
                    ok = idx + j < len(b)
                    ii = idx[ok]
                    same = rows[ii + j] == rows[ii]
                    ii = ii[same]
                    return ii, (g[ok][same] << 8) | b[ii + j]

                r_idx, g_r = ext(r_idx, g_r, rb, rr)
                c_idx, g_c = ext(c_idx, g_c, cb, cr)
            rrow = rr[r_idx]
            crow = cr[c_idx]
            rtot[:, j] = np.bincount(rrow, minlength=n)
            ctot[:, j] = np.bincount(crow, minlength=n)
            # shared exact key space: row * 2^(8(j+1)) + gram bytes
            shift = np.int64(1) << (8 * (j + 1))
            rk = rrow * shift + g_r
            ck = crow * shift + g_c
            ru, rcnt = np.unique(rk, return_counts=True)
            cu, ccnt = np.unique(ck, return_counts=True)
            if len(ru) and len(cu):
                pos = np.searchsorted(cu, ru)
                pos[pos >= len(cu)] = 0
                cand_at = np.where(cu[pos] == ru, ccnt[pos], 0)
                clipped = np.minimum(rcnt, cand_at)
                clip[:, j] = np.bincount(ru // shift, weights=clipped,
                                         minlength=n).astype(np.int64)

        chrf = _chrf_from_counts(clip, ctot, rtot, beta)
        cols = {id_col: tbl.column(id_col)}
        for j in range(max_n):
            cols[f"clip{j + 1}"] = pa.array(clip[:, j], pa.int64())
            cols[f"ctot{j + 1}"] = pa.array(ctot[:, j], pa.int64())
            cols[f"rtot{j + 1}"] = pa.array(rtot[:, j], pa.int64())
        cols["chrf"] = pa.array(chrf, pa.float64())
        return pa.table(cols)

    # batch pinned so row * 2^(8·max_n) stays far inside int64
    return ds.map_batches(f, batch_format="pyarrow", batch_size=4096)


def rouge_l_recall(ds, *, ref_col: str, cand_col: str,
                   id_col: str = "doc_id"):
    """ROUGE-L recall per row — LCS(ref, cand) / |ref| over lowercased
    whitespace tokens (longest common subsequence, Lin 2004): rewards
    in-order coverage where ROUGE-N rewards bag overlap. Emits
    (id, lcs, ref_total, rouge_l); all integers plus one int/int
    division. Per row a rolling two-row DP (len(ref) passes of
    numpy-free cell updates) — fine for the summary-sized texts this
    metric exists for; a corpus-scale variant would want the
    bit-parallel LCS. The golden oracle recomputes with the classic
    full 2-D table (different mechanics, same spec)."""

    def lcs(a: list, b: list) -> int:
        if not a or not b:
            return 0
        prev = [0] * (len(b) + 1)
        for x in a:
            curr = [0] * (len(b) + 1)
            for j, y in enumerate(b, 1):
                curr[j] = prev[j - 1] + 1 if y == x else \
                    max(prev[j], curr[j - 1])
            prev = curr
        return prev[-1]

    def f(tbl: pa.Table) -> pa.Table:
        ref = pc.utf8_lower(pc.cast(tbl.column(ref_col),
                                    pa.string())).to_pylist()
        cand = pc.utf8_lower(pc.cast(tbl.column(cand_col),
                                     pa.string())).to_pylist()
        out_l, out_t = [], []
        for r, c in zip(ref, cand):
            ra = _words(r)
            ca = _words(c)
            out_l.append(lcs(ra, ca))
            out_t.append(len(ra))
        lv = np.asarray(out_l, np.int64)
        tv = np.asarray(out_t, np.int64)
        rl = np.where(tv > 0, lv / np.maximum(tv, 1), 0.0)
        return pa.table({id_col: tbl.column(id_col),
                         "lcs": pa.array(lv, pa.int64()),
                         "ref_total": pa.array(tv, pa.int64()),
                         "rouge_l": pa.array(rl, pa.float64())})

    return ds.map_batches(f, batch_format="pyarrow")
