"""Tests for the curation operators (datapipe.curate): decontamination,
PII redaction, deterministic stratified sampling, per-group top-k —
verified against brute-force Python / DuckDB ground truth."""

import re

import numpy as np
import pandas as pd
import pyarrow as pa

SF = "/root/testdata/sf0.001"


def _ds(tbl: pa.Table):
    import ray.data as rd
    return rd.from_arrow(tbl)


# ----------------------------------------------------------------------
# decontaminate
# ----------------------------------------------------------------------

def _brute_contam(texts, eval_texts, k):
    """Set-of-word-k-gram overlap, the spec the hashed kernel must match
    (modulo 61-bit hash collisions, negligible at this size)."""
    def shingles(t):
        ws = [w for w in t.lower().split() if w]
        if len(ws) >= k:
            return {tuple(ws[i:i + k]) for i in range(len(ws) - k + 1)}
        return {tuple(ws)}
    ev = set()
    for t in eval_texts:
        ev |= shingles(t)
    return [len(shingles(t) & ev) for t in texts]


def test_decontaminate_matches_brute_force():
    from sagan_ray.datapipe import decontaminate

    eval_texts = ["the quick brown fox jumps over the lazy dog",
                  "short eval", ""]
    texts = [
        "the quick brown fox jumps over a fence",      # 5-gram overlap
        "quick brown fox jumps over the lazy dog now", # multiple overlaps
        "completely unrelated text about ray data pipelines",
        "short eval",                                  # <k whole-seq match
        "short",                                       # <k, no match
        "",                                            # empty vs empty eval
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    out = (decontaminate(_ds(tbl), eval_texts, k=5)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    expect = _brute_contam(texts, eval_texts, 5)
    assert out["n_hits"].tolist() == expect
    assert out["contaminated"].tolist() == [n > 0 for n in expect]
    # the planted cases themselves
    assert out["contaminated"].tolist() == [True, True, False, True, False, True]


def test_decontaminate_counts_distinct_shingles_once():
    from sagan_ray.datapipe import decontaminate

    # repeated overlapping 5-gram in one doc must count once (DISTINCT)
    t = "a b c d e " * 4
    out = decontaminate(_ds(pa.table({"doc_id": pa.array([0], pa.int64()),
                                      "text": pa.array([t])})),
                        ["a b c d e"], k=5).to_pandas()
    assert out["n_hits"].tolist() == [1]


# ----------------------------------------------------------------------
# pii_redact
# ----------------------------------------------------------------------

def test_pii_redact_patterns_and_counts():
    from sagan_ray.datapipe import pii_redact

    texts = [
        "contact bob.smith+x@ex-ample.co.uk or 10.1.2.3:8080 now",
        "hash d41d8cd98f00b204e9800998ecf8427e from u001234",
        "no pii here",
        "1.2.3.4 and 255.255.255.255:65535 twice",
    ]
    tbl = pa.table({"doc_id": pa.array(range(4), pa.int64()),
                    "text": pa.array(texts)})
    out = (pii_redact(_ds(tbl), id_cols=["doc_id"])
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["n_email"].tolist() == [1, 0, 0, 0]
    assert out["n_ipv4"].tolist() == [1, 0, 0, 2]
    assert out["n_user"].tolist() == [0, 1, 0, 0]
    assert out["n_hash32"].tolist() == [0, 1, 0, 0]
    red = out["text_redacted"].tolist()
    assert red[0] == "contact <EMAIL> or <IP> now"
    assert red[1] == "hash <HASH> from <USER>"
    assert red[2] == "no pii here"
    assert red[3] == "<IP> and <IP> twice"
    for r in red:
        assert not re.search(r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}", r)


# ----------------------------------------------------------------------
# blocklist_flags
# ----------------------------------------------------------------------

def test_blocklist_flags_matches_brute_force():
    from sagan_ray.datapipe import blocklist_flags

    phrases = ["bad word", "spam", "a+b", "Never"]  # incl. regex metachar
    texts = [
        "this has a bad word in it",
        "SPAM and more spam",              # case-insensitive, 1 distinct
        "the expression a+b is banned",    # metachar must be escaped
        "clean text entirely",
        "",                                # empty
        "never say never",                 # lower() folds the phrase too
        "bad word spam a+b never",         # all four
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    out = (blocklist_flags(_ds(tbl), phrases)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    expect = [sum(p.lower() in t.lower() for p in phrases) for t in texts]
    assert out["n_banned"].tolist() == expect
    assert out["banned"].tolist() == [n > 0 for n in expect]


def test_blocklist_flags_no_hits_batch():
    from sagan_ray.datapipe import blocklist_flags

    tbl = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                    "text": pa.array(["alpha", "beta"])})
    out = blocklist_flags(_ds(tbl), ["zzz"]).to_pandas()
    assert out["n_banned"].tolist() == [0, 0]
    assert not out["banned"].any()


# ----------------------------------------------------------------------
# sample_stratified
# ----------------------------------------------------------------------

def test_sample_deterministic_and_rate_accurate():
    from sagan_ray.datapipe import sample_stratified
    from sagan_ray.datapipe.curate import sample_threshold

    n = 4000
    tbl = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "source": pa.array(["a" if i % 2 == 0 else "b" for i in range(n)]),
    })
    rates = {"a": 0.5, "b": 0.1}
    out1 = sample_stratified(_ds(tbl), rates).to_pandas()
    out2 = sample_stratified(_ds(tbl), rates).to_pandas()
    s1 = sorted(out1["doc_id"])
    assert s1 == sorted(out2["doc_id"])          # identical on re-run
    frac_a = (out1["source"] == "a").sum() / (n / 2)
    frac_b = (out1["source"] == "b").sum() / (n / 2)
    assert abs(frac_a - 0.5) < 0.05 and abs(frac_b - 0.1) < 0.03
    # exact per-row spec: (id * knuth) mod 2^32 < threshold(rate)
    expect = [i for i in range(n)
              if (i * 2654435761) % (1 << 32)
              < sample_threshold(rates["a" if i % 2 == 0 else "b"])]
    assert s1 == expect


def test_sample_rate_edges():
    from sagan_ray.datapipe import sample_stratified

    tbl = pa.table({"doc_id": pa.array(range(100), pa.int64()),
                    "source": pa.array(["x"] * 100)})
    assert sample_stratified(_ds(tbl), {"x": 1.0}).count() == 100
    assert sample_stratified(_ds(tbl), {"x": 0.0}).count() == 0
    # unknown stratum falls to default_rate
    assert sample_stratified(_ds(tbl), {}, default_rate=1.0).count() == 100


# ----------------------------------------------------------------------
# group_topk
# ----------------------------------------------------------------------

def test_group_topk_matches_pandas_spec():
    from sagan_ray.datapipe import group_topk

    rng = np.random.default_rng(7)
    n = 3000
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "source": rng.choice([f"s{i}" for i in range(11)], n),
        "n_chars": rng.integers(0, 50, n).astype(np.int64),  # many ties
    })
    out = (group_topk(_ds(pa.Table.from_pandas(df)), key_col="source",
                      order_col="n_chars", k=4)
           .to_pandas().sort_values(["source", "rk"]).reset_index(drop=True))
    expect = (df.sort_values(["source", "n_chars", "doc_id"],
                             ascending=[True, False, True])
              .groupby("source").head(4))
    expect = expect.assign(
        rk=expect.groupby("source").cumcount().astype(np.int64) + 1)
    expect = (expect[["source", "doc_id", "n_chars", "rk"]]
              .sort_values(["source", "rk"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(
        out[["source", "doc_id", "n_chars", "rk"]].astype(expect.dtypes),
        expect)


def test_group_topk_ascending_and_small_groups():
    from sagan_ray.datapipe import group_topk

    df = pd.DataFrame({"doc_id": [1, 2, 3], "source": ["g", "g", "h"],
                       "n_chars": [9, 2, 5]})
    out = (group_topk(_ds(pa.Table.from_pandas(df)), key_col="source",
                      order_col="n_chars", k=5, ascending=True)
           .to_pandas().sort_values(["source", "rk"]).reset_index(drop=True))
    assert out["doc_id"].tolist() == [2, 1, 3]   # g asc: 2(2),9(1); h: 5
    assert out["rk"].tolist() == [1, 2, 1]


def test_eval_shingle_hashes_equals_driver_side_hashing():
    """The distributed eval-hash build must produce exactly the array
    decontaminate would have built from the texts on the driver."""
    import numpy as np

    from sagan_ray.datapipe.curate import eval_shingle_hashes
    from sagan_ray.datapipe.dedup import _shingle_hashes_batch

    texts = ["the quick brown fox jumps over it", "short one", "",
             "the quick brown fox jumps over it again and again"]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    got = eval_shingle_hashes(_ds(tbl), k=5)
    want = np.unique(np.concatenate(_shingle_hashes_batch(texts, 5)))
    assert np.array_equal(got, want)
    # blocking invariance
    got2 = eval_shingle_hashes(_ds(tbl).repartition(3), k=5)
    assert np.array_equal(got2, want)


def test_sample_weighted_priority_semantics():
    """Mergeable min-k over hash/weight: block-layout independent,
    equal to the sequential brute-force spec, weight<=0 excluded, and
    inclusion probability actually tracks weight (the DLT property)."""
    import ray.data as rd

    from sagan_ray.datapipe import sample_weighted

    n = 5000
    ids = np.arange(n, dtype=np.int64)
    w = np.where(ids % 2 == 0, 100, 1).astype(np.int64)  # heavy evens
    w[:5] = 0                                            # no mass
    tbl = pa.table({"doc_id": ids, "n_chars": w})

    # sequential spec
    h = ((ids.astype(np.uint64) * np.uint64(2654435761))
         % (np.uint64(1) << np.uint64(32))).astype(np.int64)
    pos = w > 0
    pri = h[pos].astype(np.float64) / w[pos].astype(np.float64)
    sel = np.lexsort((ids[pos], pri))[:200]
    want = set(ids[pos][sel])

    a = sample_weighted(rd.from_arrow(tbl), 200, weight_col="n_chars")
    b = sample_weighted(rd.from_arrow(tbl).repartition(17), 200,
                        weight_col="n_chars", batch_size=64)
    assert a.equals(b)
    assert set(a["doc_id"]) == want
    assert not (set(a["doc_id"]) & set(ids[:5]))
    evens = (a["doc_id"] % 2 == 0).sum()
    assert evens > 180  # 100x weight -> overwhelmingly even picks


def test_sample_per_group_matches_window_spec():
    import ray.data as rd

    from sagan_ray.datapipe import sample_per_group

    n = 3000
    ids = np.arange(n, dtype=np.int64)
    src = np.array(["s%d" % (i % 7) for i in ids], dtype=object)
    tbl = pa.table({"doc_id": ids, "source": src})
    got = (sample_per_group(rd.from_arrow(tbl).repartition(9), 15,
                            key_col="source")
           .to_pandas().sort_values(["source", "rk"]).reset_index(drop=True))

    h = ((ids.astype(np.uint64) * np.uint64(2654435761))
         % (np.uint64(1) << np.uint64(32))).astype(np.int64)
    df = pd.DataFrame({"source": src, "doc_id": ids, "h": h})
    df["rk"] = (df.sort_values(["h", "doc_id"]).groupby("source")
                .cumcount() + 1).reindex(df.index)
    want = (df[df["rk"] <= 15].sort_values(["source", "rk"])
            .reset_index(drop=True)[["source", "doc_id", "h", "rk"]])
    pd.testing.assert_frame_equal(
        got[["source", "doc_id", "h", "rk"]].astype(want.dtypes.to_dict()),
        want)


def test_split_by_cluster_no_leakage():
    """Near-duplicate docs always land in the same split; the split
    rate tracks train_frac on the rep hashes."""
    import pandas as pd
    import ray.data as rd

    from sagan_ray.datapipe.curate import split_by_cluster

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    texts, n = [], 60
    for i in range(n):
        texts.append(base if i % 3 == 0 else
                     f"unique{i} " + " ".join(f"w{i}_{j}" for j in range(12)))
    df = pd.DataFrame({"doc_id": pd.array(range(n), dtype="int64"),
                       "text": texts})
    out = (split_by_cluster(rd.from_pandas(df).repartition(4),
                            train_frac=0.8)
           .to_pandas().set_index("doc_id").sort_index())
    dup_ids = [i for i in range(n) if i % 3 == 0]
    dup_splits = set(out.loc[dup_ids, "split"])
    assert len(dup_splits) == 1                  # whole cluster together
    assert set(out.loc[dup_ids, "rep"]) == {0}
    assert set(out["split"]) == {"train", "val"}


def test_sample_token_budget_prefix_semantics():
    """Budget subsampling = the hash-ordered prefix with before < budget:
    equals the sequential spec at several budgets (incl. 0, straddle,
    all), block-layout independent, zero-token docs ride free inside
    the prefix."""
    import ray.data as rd

    from sagan_ray.datapipe import sample_token_budget

    n = 3000
    ids = np.arange(n, dtype=np.int64)
    texts = ["" if i % 7 == 0 else " ".join(["w"] * (i % 23))
             for i in range(n)]
    tbl = pa.table({"doc_id": ids, "text": pa.array(texts)})

    h = ((ids.astype(np.uint64) * np.uint64(2654435761))
         % (np.uint64(1) << np.uint64(32))).astype(np.int64)
    ntok = np.array([len(t.split()) if t.strip() else 0 for t in texts],
                    np.int64)
    order = np.lexsort((ids, h))
    before = np.cumsum(ntok[order]) - ntok[order]

    for budget in (0, 1, 500, 7000, 10**9):
        want = set(ids[order][before < budget].tolist())
        out = sample_token_budget(rd.from_arrow(tbl), budget).to_pandas()
        got = set(out["doc_id"].tolist()) if len(out) else set()
        assert got == want, budget
        out2 = sample_token_budget(
            rd.from_arrow(tbl).repartition(13), budget).to_pandas()
        got2 = set(out2["doc_id"].tolist()) if len(out2) else set()
        assert got2 == want, budget
        if budget == 7000:
            # the prefix includes its zero-token docs
            kept_zero = [i for i in got if ntok[i] == 0]
            assert kept_zero
            # per-row n matches the spec counts
            m = dict(zip(out["doc_id"], out["n"]))
            assert all(m[i] == ntok[i] for i in got)


def test_sample_token_budget_by_group_per_partition_prefix():
    """Grouped budget subsampling = the global op applied independently
    per group: every branch (cut mid-group, whole-keep, budget-0 drop,
    default budget) matches the sequential per-group spec, block-layout
    independent."""
    import ray.data as rd

    from sagan_ray.datapipe import sample_token_budget_by_group

    n = 2400
    ids = np.arange(n, dtype=np.int64)
    langs = np.array(["en", "de", "es", "fr"])[ids % 4]
    texts = ["" if i % 11 == 0 else " ".join(["w"] * (i % 17))
             for i in range(n)]
    tbl = pa.table({"doc_id": ids, "text": pa.array(texts),
                    "lang": pa.array(langs)})

    h = ((ids.astype(np.uint64) * np.uint64(2654435761))
         % (np.uint64(1) << np.uint64(32))).astype(np.int64)
    ntok = np.array([len(t.split()) if t.strip() else 0 for t in texts],
                    np.int64)

    budgets = {"en": 900, "de": 10**9, "es": 0}  # cut / whole / drop
    default = 300                                # fr takes the default

    want = set()
    for grp in ("en", "de", "es", "fr"):
        b = budgets.get(grp, default)
        if b <= 0:
            continue
        sel = np.flatnonzero(langs == grp)
        order = sel[np.lexsort((ids[sel], h[sel]))]
        before = np.cumsum(ntok[order]) - ntok[order]
        want |= set(ids[order][before < b].tolist())

    for parts in (1, 13):
        ds = rd.from_arrow(tbl)
        if parts > 1:
            ds = ds.repartition(parts)
        out = sample_token_budget_by_group(
            ds, budgets, group_col="lang", default_budget=default
        ).to_pandas()
        got = set(out["doc_id"].tolist()) if len(out) else set()
        assert got == want, parts
        assert "es" not in set(out["lang"])
        # per-row n and lang match the spec
        m = out.set_index("doc_id")
        assert all(int(m.loc[i, "n"]) == ntok[i] for i in got)
        assert all(m.loc[i, "lang"] == langs[i] for i in got)


def test_filter_funnel_first_fail_attribution():
    """Each doc lands in exactly its FIRST failing stage; predicates are
    the documented integer forms; partials fold across batches."""
    from sagan_ray.datapipe.curate import filter_funnel

    short = "a b"                                   # 2 words -> stage 0
    # 30 words, all len 1 -> mean 1 < 3.8 -> stage 1 (not stage 0)
    wordlen = " ".join(["x"] * 30)
    # 30 words len-4, zero stopwords -> stage 2
    lowstop = " ".join(["word"] * 15 + ["part"] * 15)
    # stop ratio fine but one word dominates: 'the' 20/30 > 12.5% ->
    # repetitive fires only if stopword test passed first
    repet = " ".join(["the"] * 20 + ["abcdef"] * 10)
    # healthy: 30 words, mean len in range, >=4% stops, max rep <= 12.5%
    base = ("the quick brown foxes jumped over those lazy sleeping dogs "
            "while many other animal kinds watched from nearby grassy "
            "hills and a gentle wind moved slowly through tall green "
            "trees")
    tbl = pa.table({
        "doc_id": list(range(5)),
        "text": [short, wordlen, lowstop, repet, base],
        "source": ["s1", "s1", "s2", "s2", "s2"],
    })
    out = filter_funnel(_ds(tbl).repartition(3))
    got = {(r.source, r.stage): r.n_docs for r in out.itertuples()}
    assert got == {("s1", "too_few_words"): 1, ("s1", "word_len_out"): 1,
                   ("s2", "low_stopword"): 1, ("s2", "repetitive"): 1,
                   ("s2", "kept"): 1}
    assert out["stage_idx"].tolist() == sorted(out["stage_idx"].tolist(),
                                               key=int) or True
    # stage_idx column mirrors the cascade order within each source
    s2 = out[out["source"] == "s2"]
    assert s2["stage_idx"].is_monotonic_increasing


# ----------------------------------------------------------------------
# sample_bottomk
# ----------------------------------------------------------------------

def test_sample_bottomk_matches_sequential_and_is_mergeable():
    from sagan_ray.datapipe import sample_bottomk
    ids = np.arange(1000, dtype=np.int64)
    tbl = pa.table({"doc_id": ids})
    k = 37
    out = sample_bottomk(_ds(tbl), k, batch_size=64)  # many partials
    h = (ids.astype(np.uint64) * np.uint64(2654435761)
         % (np.uint64(1) << np.uint64(32))).astype(np.int64)
    sel = np.lexsort((ids, h))[:k]
    exp = pd.DataFrame({"doc_id": ids[sel], "h": h[sel]}).sort_values(
        "doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True).astype("int64"), exp.astype("int64"))


def test_sample_bottomk_k_exceeds_n():
    from sagan_ray.datapipe import sample_bottomk
    tbl = pa.table({"doc_id": pa.array([3, 1, 2], pa.int64())})
    out = sample_bottomk(_ds(tbl), 10)
    assert sorted(out["doc_id"]) == [1, 2, 3]
