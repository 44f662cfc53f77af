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
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# the three line predicates — each string is an RE2 shared verbatim
# with the SQL oracle
MIN_WORDS = 3
_WORD_RUN = r"\S+"
_ENDS_PUNCT = r"[.!?\"]$"
_HAS_LETTER = r"[A-Za-z]"


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
