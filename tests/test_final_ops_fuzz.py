"""Seeded randomized parity sweeps for the final-session operators:
each test replays the operator's spec with an independent brute-force /
sequential implementation on random inputs (several seeds, varied
params) and requires exact equality — the same oracle-parity stance as
the engine fuzz suite, at datapipe granularity."""

import numpy as np
import pandas as pd
import pytest

M64 = (1 << 64) - 1


def _rand_docs(seed: int, n: int, *, empty_frac: float = 0.1,
               dup_frac: float = 0.2) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(40)] + ["héllo", "wörld", "日本"]
    texts = []
    for _ in range(n):
        if rng.random() < empty_frac:
            texts.append("")
        else:
            texts.append(" ".join(rng.choice(vocab,
                                             rng.integers(1, 60))))
    for _ in range(int(n * dup_frac)):          # planted dups / near-dups
        a, b = rng.integers(0, n, 2)
        texts[a] = texts[b] if rng.random() < 0.5 else "x " + texts[b]
    return pd.DataFrame({"doc_id": pd.array(range(n), dtype="int64"),
                         "text": texts})


def _smix(v: int) -> int:
    v = (v + 0x9E3779B97F4A7C15) & M64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & M64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & M64
    return v ^ (v >> 31)


@pytest.mark.parametrize("seed,bits,mn,mx",
                         [(1, 4, 4, 48), (2, 6, 32, 256), (3, 3, 1, 17)])
def test_cdc_fuzz_matches_sequential_walk(seed, bits, mn, mx):
    import ray.data as rd

    from sagan_ray.datapipe.dedup import cdc_chunk_stats

    docs = _rand_docs(seed, 80)
    got = (cdc_chunk_stats(rd.from_pandas(docs).repartition(5),
                           bits=bits, min_size=mn, max_size=mx)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    gear = [_smix(b + 1) for b in range(256)]
    cmask = (1 << bits) - 1
    per, owners = {}, {}
    for did, txt in zip(docs.doc_id, docs.text):
        data = txt.encode("utf-8")
        chunks, h, start = [], 0, 0
        for j, b in enumerate(data):
            h = (h * 2 + gear[b]) & M64
            clen = j + 1 - start
            if clen == mx or ((h & cmask) == 0 and clen >= mn):
                chunks.append(data[start:j + 1])
                start = j + 1
        if len(data) > start:
            chunks.append(data[start:])
        hs = (pd.util.hash_array(np.array(chunks, dtype=object), categorize=False)
              .astype(np.uint64) if chunks else [])
        per[did] = [(int(g), len(c)) for c, g in zip(chunks, hs)]
        for g, _ in per[did]:
            owners.setdefault(g, set()).add(did)
    exp = []
    for did in sorted(per):
        rows = per[did]
        dup = [(g, ln) for g, ln in rows if len(owners[g]) >= 2]
        exp.append((did, len(rows), sum(ln for _, ln in rows),
                    len(dup), sum(ln for _, ln in dup)))
    exp = pd.DataFrame(exp, columns=list(got.columns))
    pd.testing.assert_frame_equal(got.astype("int64"), exp.astype("int64"))


@pytest.mark.parametrize("seed", [6, 7])
def test_rank_normalize_fuzz_matches_window_spec(seed):
    import duckdb
    import ray.data as rd

    from sagan_ray.datapipe.stats import rank_normalize

    rng = np.random.default_rng(seed)
    n = 300
    df = pd.DataFrame({
        "doc_id": pd.array(range(n), dtype="int64"),
        "source": rng.choice([f"s{i}" for i in range(6)], n),
        "n_chars": pd.array(rng.integers(0, 40, n), dtype="int64")})
    got = (rank_normalize(rd.from_pandas(df).repartition(5),
                          group_col="source", col="n_chars")
           .to_pandas().sort_values("doc_id").reset_index(drop=True)
           [["doc_id", "source", "n_chars", "pct_rank", "cume_dist"]])
    exp = duckdb.sql("""
SELECT doc_id, source, n_chars,
       percent_rank() OVER (PARTITION BY source ORDER BY n_chars)
           AS pct_rank,
       cume_dist() OVER (PARTITION BY source ORDER BY n_chars)
           AS cume_dist
FROM df ORDER BY doc_id""").df()
    pd.testing.assert_frame_equal(
        got.astype({"doc_id": "int64", "n_chars": "int64"}),
        exp.astype({"doc_id": "int64", "n_chars": "int64"}))


@pytest.mark.parametrize("seed", [12, 13])
def test_source_overlap_fuzz_matches_bruteforce(seed):
    import ray.data as rd

    from sagan_ray.datapipe.textstats import _split_flat, source_overlap
    import pyarrow as pa

    docs = _rand_docs(seed, 60)
    rng = np.random.default_rng(seed + 100)
    docs["source"] = rng.choice(["s1", "s2", "s3", "s4"], len(docs))
    got = (source_overlap(rd.from_pandas(docs).repartition(4), k=5)
           .to_pandas().sort_values(["sa", "sb"]).reset_index(drop=True))
    # brute: distinct (source, gram-hash) via the same split + Horner
    tbl = pa.table({"text": pa.array(list(docs.text)),
                    "source": pa.array(list(docs.source))})
    n_docs, doc_of, wlen, wh, offs = _split_flat(tbl, "text")
    HORNER = np.uint64(1099511628211)
    per_src: dict[str, set] = {}
    src = list(docs.source)
    for d in range(n_docs):
        ws = wh[offs[d]:offs[d + 1]]
        for i in range(len(ws) - 4):
            h = ws[i]
            for j in range(1, 5):
                h = np.uint64((int(h) * int(HORNER) + int(ws[i + j]))
                              & M64)
            per_src.setdefault(src[d], set()).add(int(h))
    rows = []
    for sa in sorted(per_src):
        for sb in sorted(per_src):
            if sa <= sb:
                nsh = len(per_src[sa] & per_src[sb])
                if nsh:
                    rows.append((sa, sb, nsh))
    exp = pd.DataFrame(rows, columns=["sa", "sb", "n_shared"])
    pd.testing.assert_frame_equal(got.astype({"n_shared": "int64"}),
                                  exp.astype({"n_shared": "int64"}))


@pytest.mark.parametrize("seed", [14, 15])
def test_byte_entropy_fuzz_matches_spec(seed):
    import ray.data as rd

    from sagan_ray.datapipe.textstats import (_entropy_from_counts,
                                              byte_entropy)

    docs = _rand_docs(seed, 120)
    got = (byte_entropy(rd.from_pandas(docs).repartition(5))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    rows, nby, dby = [], [], []
    for txt in docs.text:
        b = txt.encode("utf-8")
        row = np.zeros(256, np.int64)
        for x in b:
            row[x] += 1
        rows.append(row)
        nby.append(len(b))
        dby.append(int((row > 0).sum()))
    ent = _entropy_from_counts(np.stack(rows))
    assert list(got["n_bytes"]) == nby
    assert list(got["distinct_bytes"]) == dby
    assert np.array_equal(got["entropy"].to_numpy(), ent)


@pytest.mark.parametrize("seed", [16, 17])
def test_cdc_coverage_fuzz_matches_sequential(seed):
    """cdc_coverage_vs_prior == the sequential walk + a Python prior
    set, on random corpora with planted re-crawls."""
    import ray.data as rd

    from sagan_ray.datapipe.dedup import (cdc_chunk_hashes,
                                          cdc_coverage_vs_prior)

    docs = _rand_docs(seed, 70, dup_frac=0.3)
    old = docs.iloc[:35].reset_index(drop=True)
    new = docs.iloc[35:].reset_index(drop=True)
    prior = cdc_chunk_hashes(rd.from_pandas(old), bits=4, min_size=8,
                             max_size=64)
    got = (cdc_coverage_vs_prior(rd.from_pandas(new).repartition(3),
                                 prior, bits=4, min_size=8, max_size=64)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    gear = [_smix(b + 1) for b in range(256)]
    cmask = (1 << 4) - 1

    def walk(txt):
        data = txt.encode("utf-8")
        chunks, h, start = [], 0, 0
        for j, b in enumerate(data):
            h = (h * 2 + gear[b]) & M64
            clen = j + 1 - start
            if clen == 64 or ((h & cmask) == 0 and clen >= 8):
                chunks.append(data[start:j + 1])
                start = j + 1
        if len(data) > start:
            chunks.append(data[start:])
        hs = (pd.util.hash_array(np.array(chunks, dtype=object), categorize=False)
              .astype(np.uint64) if chunks else [])
        return [(int(g), len(c)) for c, g in zip(chunks, hs)]

    prior_set = set()
    for txt in old.text:
        prior_set.update(g for g, _ in walk(txt))
    exp = []
    for did, txt in zip(new.doc_id, new.text):
        rows = walk(txt)
        cov = [(g, ln) for g, ln in rows if g in prior_set]
        exp.append((did, len(rows), sum(ln for _, ln in rows),
                    len(cov), sum(ln for _, ln in cov)))
    exp = pd.DataFrame(exp, columns=list(got.columns))
    pd.testing.assert_frame_equal(got.astype("int64"), exp.astype("int64"))
