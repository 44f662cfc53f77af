"""Golden-parquet oracles for operators whose semantics DuckDB SQL can't
express (hash sketches, fixed-point numeric kernels). Each generator is
an INDEPENDENT naive implementation — per-row spec functions plus
brute-force scans, no banding/exchange/batched kernels — written to a
fixed path that the registered oracle SQL reads with ``read_parquet``.
The driver gate runs the Ray query first and the SQL second for each
name, so the query callable (re)writes its golden before the SQL reads
it; the comparison then checks the whole distributed pipeline
(vectorized kernel + LSH banding + exchange) against the sequential
spec, the same shape as oracle/evaluator.py for the engine.
"""

from __future__ import annotations

import os

import numpy as np

from ..exchange import hash_array_pure as _hash_pure
import pyarrow as pa

GOLDEN_DIR = "/tmp/sagan_ray_golden"


def _write(tbl: pa.Table, name: str) -> str:
    import pyarrow.parquet as pq

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    path = os.path.join(GOLDEN_DIR, f"{name}.parquet")
    tmp = path + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)
    return path


def _splitmix64_int(x: int) -> int:
    """Per-id SplitMix64 in plain Python ints (independent of the
    numpy-vectorized sampler it checks)."""
    m = (1 << 64) - 1
    x = (x + 0x9E3779B97F4A7C15) & m
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & m
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & m
    return x ^ (x >> 31)


def write_golden_bloom(sf_dir: str, probe_words: list[str], *, p: int,
                       k: int) -> str:
    """Expected output of ``corpus_word_bloom``: a sequential Bloom
    filter — per-doc regex word lists, one bit set per (word, hash row)
    in a plain Python bytearray loop (no flat arrays, no np.bitwise_or
    scatter, no batch blobs), popcount via bin().count. Bit-identical to
    the distributed sketch BY CONSTRUCTION: OR is a semilattice (any
    combine topology gives the same bitmap) and the bit-index function
    is the shared spec (datapipe/sketch.py::_bf_bit)."""
    import re

    import pyarrow.parquet as pq

    from ..datapipe.sketch import _bf_bit

    nbits = 1 << p
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    ids = np.asarray(t.column("doc_id").to_pylist(), dtype=np.int64)
    texts = t.column("text").to_pylist()
    order = np.argsort(ids, kind="stable")
    texts = [texts[i] for i in order]
    word_re = re.compile(r"[a-z0-9_]+")

    bits = bytearray(nbits >> 3)
    for x in texts:
        ws = word_re.findall((x or "").lower())
        if not ws:
            continue
        hs = _hash_pure(np.array(ws, dtype=object)).astype(np.uint64)
        for j in range(k):
            for ix in _bf_bit(hs, j, nbits):
                bits[int(ix) >> 3] |= 1 << (int(ix) & 7)
    fill = sum(bin(b).count("1") for b in bits)

    out_w, out_p = [], []
    for w in probe_words:
        h = _hash_pure(
            np.array([w], dtype=object)).astype(np.uint64)
        hit = all((bits[int(_bf_bit(h, j, nbits)[0]) >> 3]
                   >> (int(_bf_bit(h, j, nbits)[0]) & 7)) & 1
                  for j in range(k))
        out_w.append(w)
        out_p.append(int(hit))
    tbl = pa.table({"word": pa.array(out_w, pa.string()),
                    "present": pa.array(out_p, pa.int64()),
                    "fill_bits": pa.array([fill] * len(out_w), pa.int64())})
    return _write(tbl, "corpus_word_bloom")


def write_golden_shuffle(sf_dir: str, *, n_shards: int) -> str:
    """Expected output of ``docs_shuffle``: per-row SplitMix64 in plain
    Python ints, a sequential sort per shard — no exchange, no numpy
    hashing."""
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id"])
    ids = [int(x) for x in t.column("doc_id").to_pylist()]
    rows = [(_splitmix64_int(i % (1 << 64)), i) for i in ids]
    by_shard: dict[int, list] = {}
    for h, i in rows:
        by_shard.setdefault(h % n_shards, []).append((h, i))
    oid, osh, opos = [], [], []
    for sh, members in by_shard.items():
        for pos, (h, i) in enumerate(sorted(members)):
            oid.append(i)
            osh.append(sh)
            opos.append(pos)
    tbl = pa.table({"doc_id": pa.array(oid, pa.int64()),
                    "shard": pa.array(osh, pa.int64()),
                    "pos": pa.array(opos, pa.int64())})
    return _write(tbl, "docs_shuffle")


def write_golden_hll(sf_dir: str, *, p: int) -> str:
    """Expected output of ``corpus_vocab_sketch``: a sequential per-word
    HyperLogLog — Python-int register updates (int.bit_length, no numpy
    vector kernels) and a left-to-right register-sum loop. Shares only
    the word hash primitive (pd.util.hash_array — the whole text family's
    tokenizer/hash spec) with the batched kernel; the register/estimate
    logic is independent (datapipe/sketch.py must match bit-exactly)."""
    import math
    import re

    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["text"])
    m = 1 << p
    reg = [0] * m
    mask64 = (1 << 64) - 1
    word_re = re.compile(r"[a-z0-9_]+")
    for txt in t.column("text").to_pylist():
        words = word_re.findall(txt.lower())
        if not words:
            continue
        hs = _hash_pure(np.array(words, dtype=object))
        for h in hs.tolist():
            idx = h >> (64 - p)
            rest = (h << p) & mask64
            rho = (64 - rest.bit_length() + 1) if rest else (64 - p) + 1
            if rho > reg[idx]:
                reg[idx] = rho
    alpha = 0.7213 / (1.0 + 1.079 / m)
    acc = 0.0
    for r in reg:
        acc += 2.0 ** (-r)
    raw = alpha * m * m / acc
    zeros = sum(1 for r in reg if r == 0)
    if raw <= 2.5 * m and zeros > 0:
        est = m * math.log(m / zeros)
    else:
        est = raw
    tbl = pa.table({"m": pa.array([m], pa.int64()),
                    "n_vocab_est": pa.array([est], pa.float64())})
    return _write(tbl, "corpus_vocab_sketch")


def write_golden_bpe(sf_dir: str, *, n_sample: int, n_merges: int,
                     seed: int) -> str:
    """Expected output of ``text_tokens_bpe``: an independent sequential
    BPE — per-doc regex word lists, Counter-based pair counting, per-word
    encode loops (a word→len memo only; no flat arrays, no unique/scatter,
    no broadcast) — over the same spec as datapipe/bpe.py's module
    docstring. Sample = n_sample docs with smallest SplitMix64(id^seed)."""
    import re
    from collections import Counter

    import pyarrow.parquet as pq

    from ..datapipe.hashing import _splitmix64

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    ids = np.asarray(t.column("doc_id").to_pylist(), dtype=np.int64)
    texts = t.column("text").to_pylist()
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    texts = [texts[i] for i in order]
    word_re = re.compile(r"[a-z0-9_]+")
    doc_words = [word_re.findall((x or "").lower()) for x in texts]

    h = _splitmix64(ids.astype(np.uint64) ^ np.uint64(seed))
    samp = sorted(range(len(ids)), key=lambda i: int(h[i]))[:n_sample]
    freq = Counter()
    for i in samp:
        freq.update(doc_words[i])

    # -- train: naive spec loops
    vocab = {w: list(w) for w in freq if w}

    def merge_once(syms, a, b):
        out, i = [], 0
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                out.append(a + b)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        return out

    merges = []
    for _ in range(n_merges):
        pc_ = Counter()
        for w, syms in vocab.items():
            for i in range(len(syms) - 1):
                pc_[(syms[i], syms[i + 1])] += freq[w]
        if not pc_:
            break
        pair, cnt = min(pc_.items(), key=lambda kv: (-kv[1], kv[0]))
        if cnt < 2:
            break
        merges.append(pair)
        for w in list(vocab):
            vocab[w] = merge_once(vocab[w], pair[0], pair[1])
    rank = {p: r for r, p in enumerate(merges)}

    memo: dict[str, int] = {}

    def enc_len(w: str) -> int:
        # heavy-tail cap: identical SPEC constant as the pipeline
        # (datapipe/bpe.py BPE_MAX_WORD_CHARS) — capped prefix encodes,
        # each excess char is one token
        from ..datapipe.bpe import BPE_MAX_WORD_CHARS

        tail = 0
        if len(w) > BPE_MAX_WORD_CHARS:
            tail = len(w) - BPE_MAX_WORD_CHARS
            w = w[:BPE_MAX_WORD_CHARS]
        v = memo.get(w)
        if v is not None:
            return v + tail
        syms = list(w)
        while len(syms) > 1:
            cand = [(rank[(syms[i], syms[i + 1])], i)
                    for i in range(len(syms) - 1)
                    if (syms[i], syms[i + 1]) in rank]
            if not cand:
                break
            r = min(cand)[0]
            pair = merges[r]
            syms = merge_once(syms, pair[0], pair[1])
        memo[w] = len(syms)
        return len(syms) + tail

    n_words = [len(ws) for ws in doc_words]
    n_bpe = [sum(enc_len(w) for w in ws) for ws in doc_words]
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()),
                    "n_words": pa.array(n_words, pa.int64()),
                    "n_tokens_bpe": pa.array(n_bpe, pa.int64())})
    return _write(tbl, "text_tokens_bpe")


def write_golden_quality_model(sf_dir: str, *, seed: int) -> str:
    """Expected output of ``text_quality_model``: a sequential per-doc
    scorer — regex word lists, per-word hash→bucket lookups, Python-int
    logit accumulation — sharing only the SPEC constants (weight formula,
    W_DIM/W_RANGE, the rounded sigmoid) with the actor-pool pipeline.
    Exact because weights and counts are integers; the sigmoid rounds to
    1e-12 on both sides (datapipe/quality_model.py docstring)."""
    import re

    import pyarrow.parquet as pq

    from ..datapipe.hashing import _splitmix64
    from ..datapipe.quality_model import W_DIM, W_RANGE

    b = np.arange(W_DIM, dtype=np.uint64)
    w = (_splitmix64(b ^ np.uint64(seed))
         % np.uint64(2 * W_RANGE + 1)).astype(np.int64) - W_RANGE

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    ids = np.asarray(t.column("doc_id").to_pylist(), dtype=np.int64)
    texts = t.column("text").to_pylist()
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    texts = [texts[i] for i in order]
    word_re = re.compile(r"[a-z0-9_]+")

    n_words_out, logit_out = [], []
    for x in texts:
        ws = word_re.findall((x or "").lower())
        logit = 0
        if ws:
            # one hash_array per doc (element-wise stable); the logit
            # accumulation stays a Python-int loop
            hs = _hash_pure(
                np.array(ws, dtype=object)).astype(np.uint64)
            bs = _splitmix64(hs) % np.uint64(W_DIM)
            for bb in bs:
                logit += int(w[int(bb)])
        n_words_out.append(len(ws))
        logit_out.append(logit)
    # ONE vectorized np.exp over the collected logit array — the same SIMD
    # array kernel the pipeline uses, so the published rounded score can
    # never flake on a per-scalar-vs-array 1-ulp exp difference (the
    # logits themselves are exact integers derived independently above)
    logit_arr = np.array(logit_out, dtype=np.float64)
    n_arr = np.maximum(np.array(n_words_out, dtype=np.int64), 1)
    score_out = np.round(
        1.0 / (1.0 + np.exp(-logit_arr / (n_arr * float(W_RANGE)))), 12)
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()),
                    "n_words": pa.array(n_words_out, pa.int64()),
                    "logit_q": pa.array(logit_out, pa.int64()),
                    "model_quality": pa.array(score_out, pa.float64())})
    return _write(tbl, "text_quality_model")


def write_golden_cms(sf_dir: str, probe_words: list[str], *, depth: int,
                     width: int) -> str:
    """Expected output of ``corpus_word_cms``: a sequential Count-Min —
    per-doc regex word lists, one counter increment per word occurrence
    per row in a plain Python loop (no flat arrays, no np.add.at, no
    batch blobs). Bit-identical to the distributed sketch BY CONSTRUCTION
    because counters are exact integer sums (any combine topology gives
    the same array) and the row-index function is the shared spec
    (datapipe/sketch.py::_cms_index)."""
    import re

    import pyarrow.parquet as pq

    from ..datapipe.sketch import _cms_index

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    ids = np.asarray(t.column("doc_id").to_pylist(), dtype=np.int64)
    texts = t.column("text").to_pylist()
    order = np.argsort(ids, kind="stable")
    texts = [texts[i] for i in order]
    word_re = re.compile(r"[a-z0-9_]+")

    cms = [[0] * width for _ in range(depth)]
    for x in texts:
        ws = word_re.findall((x or "").lower())
        if not ws:
            continue
        hs = _hash_pure(
            np.array(ws, dtype=object)).astype(np.uint64)
        for j in range(depth):
            # one spec-function call per (doc, row); the counter
            # increments stay a plain Python loop
            for ix in _cms_index(hs, j, width):
                cms[j][int(ix)] += 1

    out_w, out_e = [], []
    for w in probe_words:
        h = _hash_pure(
            np.array([w], dtype=object)).astype(np.uint64)
        est = min(cms[j][int(_cms_index(h, j, width)[0])]
                  for j in range(depth))
        out_w.append(w)
        out_e.append(est)
    tbl = pa.table({"word": pa.array(out_w, pa.string()),
                    "est": pa.array(out_e, pa.int64())})
    return _write(tbl, "corpus_word_cms")


def write_golden_compress(sf_dir: str, *, level: int) -> str:
    """Expected output of ``text_compress_ratio``: a sequential per-row
    loop over the documents table computing len(zlib.compress(utf8)) —
    zlib at a fixed level is the shared deterministic primitive (like
    pd.util.hash_array for the hash family); the batching/rounding
    around it is what the distributed kernel must reproduce."""
    import zlib

    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    ids, nraw, ncmp = [], [], []
    for did, txt in zip(t.column("doc_id").to_pylist(),
                        t.column("text").to_pylist()):
        b = txt.encode("utf-8")
        ids.append(did)
        nraw.append(len(b))
        ncmp.append(len(zlib.compress(b, level)))
    # lengths accumulate sequentially above; the ratio rounding uses the
    # SAME np.round primitive as the kernel (np.round and Python
    # round(x, 6) are not the same decimal rounding — the
    # quality-model/ADVICE lesson: share the elementwise primitive,
    # derive the inputs independently)
    nr = np.array(nraw, np.int64)
    nc = np.array(ncmp, np.int64)
    ratio = np.round(np.where(nr > 0, nc / np.maximum(nr, 1), 1.0), 6)
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()),
                    "n_bytes": pa.array(nr, pa.int64()),
                    "n_deflate": pa.array(nc, pa.int64()),
                    "ratio": pa.array(ratio, pa.float64())})
    return _write(tbl, "text_compress_ratio")


def write_golden_cdc(sf_dir: str, *, bits: int, min_size: int,
                     max_size: int) -> str:
    """Expected output of ``dedup.cdc_chunk_stats``: a per-BYTE
    sequential walk of each document (gear rolling hash h = h*2 +
    GEAR[b] mod 2^64, candidate cut when h's low ``bits`` are zero,
    min/max-size chunk walk, final partial kept), then a brute
    hash→distinct-docs dict marking duplicated chunks. GEAR is the
    SplitMix64 finalizer of (byte+1), computed here with Python ints;
    the only shared elementwise primitive is pd.util.hash_array for
    the chunk-content id (the hash-family stance)."""
    import pyarrow.parquet as pq

    M64 = (1 << 64) - 1

    def _smix(v: int) -> int:
        v = (v + 0x9E3779B97F4A7C15) & M64
        v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & M64
        v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & M64
        return v ^ (v >> 31)

    gear = [_smix(b + 1) for b in range(256)]
    cmask = (1 << bits) - 1

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    per_doc: dict[int, list[tuple[int, int]]] = {}   # doc -> [(hash, len)]
    owners: dict[int, set[int]] = {}                 # chunk hash -> docs
    for did, txt in zip(t.column("doc_id").to_pylist(),
                        t.column("text").to_pylist()):
        data = txt.encode("utf-8")
        chunks: list[bytes] = []
        h = 0
        start = 0
        for j, b in enumerate(data):
            h = (h * 2 + gear[b]) & M64
            clen = j + 1 - start
            if (clen == max_size
                    or ((h & cmask) == 0 and clen >= min_size)):
                chunks.append(data[start:j + 1])
                start = j + 1
        if len(data) > start:
            chunks.append(data[start:])
        hashes = (_hash_pure(np.array(chunks, dtype=object))
                  .astype(np.uint64) if chunks else np.array([], np.uint64))
        rows = []
        for c, g in zip(chunks, hashes):
            rows.append((int(g), len(c)))
            owners.setdefault(int(g), set()).add(did)
        per_doc[did] = rows

    ids = sorted(per_doc)
    nch, nby, dch, dby = [], [], [], []
    for did in ids:
        rows = per_doc[did]
        nch.append(len(rows))
        nby.append(sum(ln for _, ln in rows))
        dup = [(g, ln) for g, ln in rows if len(owners[g]) >= 2]
        dch.append(len(dup))
        dby.append(sum(ln for _, ln in dup))
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()),
                    "n_chunks": pa.array(nch, pa.int64()),
                    "n_bytes": pa.array(nby, pa.int64()),
                    "n_dup_chunks": pa.array(dch, pa.int64()),
                    "n_dup_bytes": pa.array(dby, pa.int64())})
    return _write(tbl, "dedup_cdc")


def write_golden_entropy(sf_dir: str) -> str:
    """Expected output of ``textstats.byte_entropy``: byte counts from
    a sequential per-doc Python loop (collections.Counter over the
    utf-8 bytes), then the SAME ``_entropy_from_counts`` float kernel
    over the independently-derived count matrix — identical kernel,
    independent inputs (the quality-model stance)."""
    from collections import Counter

    import pyarrow.parquet as pq

    from ..datapipe.textstats import _entropy_from_counts

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    ids, nby, dby = [], [], []
    rows = []
    for did, txt in zip(t.column("doc_id").to_pylist(),
                        t.column("text").to_pylist()):
        b = txt.encode("utf-8")
        c = Counter(b)
        row = np.zeros(256, np.int64)
        for byte, k in c.items():
            row[byte] = k
        ids.append(did)
        nby.append(len(b))
        dby.append(len(c))
        rows.append(row)
    cnt = (np.stack(rows) if rows else np.zeros((0, 256), np.int64))
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()),
                    "n_bytes": pa.array(nby, pa.int64()),
                    "distinct_bytes": pa.array(dby, pa.int64()),
                    "entropy": pa.array(_entropy_from_counts(cnt),
                                        pa.float64())})
    return _write(tbl, "text_entropy")


def write_golden_cdc_coverage(sf_dir: str, *, split_id: int, bits: int,
                              min_size: int, max_size: int) -> str:
    """Expected output of ``dedup.cdc_coverage_vs_prior`` with the
    prior corpus = docs with doc_id < split_id and the new corpus = the
    rest: the same per-byte sequential gear walk as
    ``write_golden_cdc``, a plain Python set of prior chunk hashes, and
    per-new-doc covered chunk/byte sums."""
    import pyarrow.parquet as pq

    M64 = (1 << 64) - 1

    def _smix(v: int) -> int:
        v = (v + 0x9E3779B97F4A7C15) & M64
        v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & M64
        v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & M64
        return v ^ (v >> 31)

    gear = [_smix(b + 1) for b in range(256)]
    cmask = (1 << bits) - 1

    def walk(txt: str) -> list[tuple[int, int]]:
        data = txt.encode("utf-8")
        chunks: list[bytes] = []
        h = 0
        start = 0
        for j, b in enumerate(data):
            h = (h * 2 + gear[b]) & M64
            clen = j + 1 - start
            if (clen == max_size
                    or ((h & cmask) == 0 and clen >= min_size)):
                chunks.append(data[start:j + 1])
                start = j + 1
        if len(data) > start:
            chunks.append(data[start:])
        hashes = (_hash_pure(np.array(chunks, dtype=object))
                  .astype(np.uint64) if chunks else [])
        return [(int(g), len(c)) for c, g in zip(chunks, hashes)]

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    prior: set[int] = set()
    new_rows: dict[int, list[tuple[int, int]]] = {}
    for did, txt in zip(t.column("doc_id").to_pylist(),
                        t.column("text").to_pylist()):
        rows = walk(txt)
        if did < split_id:
            prior.update(g for g, _ in rows)
        else:
            new_rows[did] = rows
    ids = sorted(new_rows)
    nch, nby, cch, cby = [], [], [], []
    for did in ids:
        rows = new_rows[did]
        cov = [(g, ln) for g, ln in rows if g in prior]
        nch.append(len(rows))
        nby.append(sum(ln for _, ln in rows))
        cch.append(len(cov))
        cby.append(sum(ln for _, ln in cov))
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()),
                    "n_chunks": pa.array(nch, pa.int64()),
                    "n_bytes": pa.array(nby, pa.int64()),
                    "cov_chunks": pa.array(cch, pa.int64()),
                    "cov_bytes": pa.array(cby, pa.int64())})
    return _write(tbl, "dedup_cdc_incremental")


def write_golden_pack_bfd(sf_dir: str, *, capacity: int,
                          n_shards: int = 16) -> str:
    """Expected output of ``doc_pack_bfd``: per-shard best-fit-
    decreasing replayed NAIVELY — for each doc a linear scan over all
    open bins picking the largest fill that fits (ties → largest bin
    id), no sorted containers. Shares only the documented rule with
    datapipe/pack.py::pack_bins_bfd (which uses a bisect-sorted fill
    list); the two mechanisms agreeing on every row is the check."""
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "n_chars"])
    ids = np.asarray(t.column("doc_id").to_pylist(), dtype=np.int64)
    cnt = np.asarray(t.column("n_chars").to_pylist(), dtype=np.int64)
    rows = []
    for sh in range(n_shards):
        m = ((ids.astype(np.uint64) * np.uint64(2654435761))
             % (np.uint64(1) << np.uint64(32))) \
            % np.uint64(n_shards) == np.uint64(sh)
        sid, sc = ids[m], cnt[m]
        order = sorted(range(len(sid)), key=lambda i: (-sc[i], sid[i]))
        fills: list[int] = []
        for i in order:
            ci = int(sc[i])
            best = -1
            if ci <= capacity:
                for b in range(len(fills)):
                    if fills[b] + ci <= capacity and \
                            (best < 0 or fills[b] >= fills[best]):
                        best = b
            if best < 0:
                best = len(fills)
                fills.append(0)
            rows.append((int(sid[i]), sh, best, fills[best]))
            fills[best] += ci
    rows.sort()
    tbl = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "shard": pa.array([r[1] for r in rows], pa.int64()),
        "bin": pa.array([r[2] for r in rows], pa.int64()),
        "fill": pa.array([r[3] for r in rows], pa.int64())})
    return _write(tbl, "doc_pack_bfd")


def write_golden_minhash_calibration(sf_dir: str, *, k: int, n_perm: int,
                                     bands: int, seed: int) -> str:
    """Expected (a, b, matches) for ``dedup_minhash_calibration``: a
    sequential replay — per-row shingles + ``_signature`` (the spec
    function, as in every minhash golden), per-row band keys via the
    shared key kernel on a 1-row matrix (elementwise uint64, identical
    to the batched call), an explicit dict-of-buckets candidate scan,
    and a per-pair Python count of agreeing permutations. The exact
    Jaccard column is left to the REAL SQL side (the dedup_minhash
    shingle CTE recomputes it from the same parquet)."""
    import pyarrow.parquet as pq

    from ..datapipe.dedup import (_band_keys_from_sigs, _minhash_params,
                                  _shingle_hashes, _signature)

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    ids = t.column("doc_id").to_pylist()
    texts = t.column("text").to_pylist()
    a_p, b_p = _minhash_params(n_perm, seed)

    sigs = {}
    buckets: dict[tuple, list[int]] = {}
    for i, did in enumerate(ids):
        sig = _signature(_shingle_hashes(texts[i] or "", k), a_p, b_p)
        sigs[did] = sig
        keys = _band_keys_from_sigs(sig[None, :], bands)[0]
        for band in range(bands):
            buckets.setdefault((band, int(keys[band])), []).append(did)

    pairs = set()
    for members in buckets.values():
        ms = sorted(members)
        for x in range(len(ms)):
            for y in range(x + 1, len(ms)):
                pairs.add((ms[x], ms[y]))

    rows = []
    for a, b in sorted(pairs):
        m = sum(1 for p in range(n_perm) if sigs[a][p] == sigs[b][p])
        rows.append((a, b, m))
    tbl = pa.table({"a": pa.array([r[0] for r in rows], pa.int64()),
                    "b": pa.array([r[1] for r in rows], pa.int64()),
                    "matches": pa.array([r[2] for r in rows], pa.int64())})
    return _write(tbl, "minhash_calibration")
