"""Tests for the training-data ops: dedup family, text stats, curation
— verified against brute-force / DuckDB ground truth
on the sf0.001 driver tables."""

import itertools

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs():
    import ray.data as rd
    return rd.read_parquet(f"{SF}/documents.parquet")


@pytest.fixture(scope="module")
def docs_tbl():
    import pyarrow.parquet as pq
    return pq.read_table(f"{SF}/documents.parquet")


def test_exact_dedup_matches_duckdb(docs, docs_tbl):
    import duckdb

    from sagan_ray.datapipe import exact_dedup

    got = sorted(exact_dedup(docs).to_pandas()["doc_id"].astype(int))
    want = sorted(
        r[0] for r in duckdb.sql(
            f"select min(doc_id) d from read_parquet('{SF}/documents.parquet') group by text"
        ).fetchall())
    assert got == want


def test_minhash_candidates_catch_true_dups(docs, docs_tbl):
    from sagan_ray.datapipe import minhash_lsh_dedup
    from sagan_ray.datapipe.dedup import _jaccard

    texts = dict(zip(docs_tbl["doc_id"].to_pylist(), docs_tbl["text"].to_pylist()))
    # ground truth: all pairs with jaccard >= 0.9 (exact duplicates exist
    # in the synthetic corpus); cap the brute force to stay fast
    ids = sorted(texts)[:200]
    truth = {(a, b) for a, b in itertools.combinations(ids, 2)
             if texts[a] == texts[b] or _jaccard(texts[a], texts[b]) >= 0.9}
    got_df = minhash_lsh_dedup(docs, threshold=0.9).to_pandas()
    idset = set(ids)
    got = {(int(a), int(b)) for a, b in zip(got_df["a"], got_df["b"])
           if a in idset and b in idset}
    # LSH with 16 bands / 4 rows has >99.9% recall at j>=0.9
    assert truth <= got
    # and verified pairs are genuinely similar
    for a, b in got:
        assert _jaccard(texts[a], texts[b]) >= 0.9


def test_simhash_identical_docs_pair(docs, docs_tbl):
    from sagan_ray.datapipe import simhash_dedup

    texts = dict(zip(docs_tbl["doc_id"].to_pylist(), docs_tbl["text"].to_pylist()))
    dup_pairs = {(a, b) for a, b in itertools.combinations(sorted(texts), 2)
                 if texts[a] == texts[b]}
    got_df = simhash_dedup(docs).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(got_df["a"], got_df["b"])}
    assert dup_pairs <= got    # hamming 0 pairs always found


def test_connected_components_chain_and_clusters():
    """Min-label propagation must converge on the worst case for it — a
    long CHAIN (label travels one hop per round) — and on disjoint
    clusters, matching a brute-force union-find."""
    import ray.data as rd

    from sagan_ray.datapipe import connected_components

    # chain 100-101-...-140, triangle {7,8,9}, isolated pair {500,501}
    chain = [(i, i + 1) for i in range(100, 140)]
    pairs = chain + [(7, 8), (8, 9), (7, 9), (500, 501)]
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {n: find(n) for n in parent}

    ds = rd.from_arrow(pa.table({
        "a": pa.array([p[0] for p in pairs], pa.int64()),
        "b": pa.array([p[1] for p in pairs], pa.int64())}))
    got_df = connected_components(ds).to_pandas()
    got = dict(zip(got_df["node"].astype(int), got_df["label"].astype(int)))
    assert got == want


def test_simhash_batch_kernel_matches_per_row_spec(docs_tbl):
    from sagan_ray.datapipe.dedup import _simhash64, _simhash64_batch

    texts = docs_tbl["text"].to_pylist()[:100] + [
        "", " ", "one", "two  spaced   words", "UPPER lower MiXeD",
        "repeat repeat repeat repeat", "tab\tand\nnewline separated",
        "punct! (x) [y] {z} #tag", "a " * 500]
    got = _simhash64_batch(texts)
    want = np.array([_simhash64(t) for t in texts], dtype=np.uint64)
    assert np.array_equal(got, want)


def test_ngram_jaccard_exact(docs, docs_tbl):
    from sagan_ray.datapipe import ngram_jaccard_pairs
    from sagan_ray.datapipe.dedup import _jaccard

    texts = dict(zip(docs_tbl["doc_id"].to_pylist(), docs_tbl["text"].to_pylist()))
    got = ngram_jaccard_pairs(docs, threshold=0.8).to_pandas()
    got_pairs = {(int(a), int(b)): j for a, b, j in
                 zip(got["a"], got["b"], got["jaccard"])}
    truth = {(a, b): _jaccard(texts[a], texts[b])
             for a, b in itertools.combinations(sorted(texts), 2)
             if _jaccard(texts[a], texts[b]) >= 0.8}
    assert set(got_pairs) == set(truth)
    for k in truth:
        assert abs(got_pairs[k] - truth[k]) < 1e-9


def test_ngram_stop_shingle_cap(docs_tbl):
    """A shingle shared by every doc (stop-shingle) must not explode into
    O(n²) candidate pairs: with max_posting below corpus size the posting
    list is dropped, while planted near-dup pairs (which share rare
    shingles) are still found with their exact Jaccard."""
    import pyarrow as pa
    import ray.data as rd

    from sagan_ray.datapipe import ngram_jaccard_pairs
    from sagan_ray.datapipe.dedup import _jaccard

    common = "the quick brown fox"          # shared 3-shingles everywhere
    texts = [f"{common} doc {i} unique tail {i * 7} content {i * 13}"
             for i in range(120)]
    # plant two near-dup pairs that share rare shingles
    texts[100] = "alpha beta gamma delta epsilon zeta eta theta"
    texts[101] = "alpha beta gamma delta epsilon zeta eta iota"
    texts[110] = texts[111] = "exact duplicate body with many words here"
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(120), pa.int64()),
        "text": pa.array(texts, pa.large_string())}))
    got = ngram_jaccard_pairs(ds, threshold=0.6, max_posting=50).to_pandas()
    pairs = {(int(a), int(b)): j for a, b, j in
             zip(got["a"], got["b"], got["jaccard"])}
    assert (110, 111) in pairs and abs(pairs[(110, 111)] - 1.0) < 1e-9
    assert (100, 101) in pairs
    assert abs(pairs[(100, 101)] - _jaccard(texts[100], texts[101])) < 1e-9
    # the stop-shingle postings were dropped, so no all-pairs blowup from
    # the 120-doc common prefix (those pairs' true jaccard is < 0.6 anyway)
    assert len(pairs) < 50


def test_token_counts_match_duckdb(docs):
    import duckdb

    from sagan_ray.datapipe import token_counts

    got = token_counts(docs).to_pandas().sort_values("doc_id")
    want = duckdb.sql(
        f"""select doc_id, case when trim(text)='' then 0
            else len(regexp_split_to_array(trim(text), '\\s+')) end n
            from read_parquet('{SF}/documents.parquet') order by doc_id"""
    ).df()
    assert list(got["n_tokens"]) == list(want["n"].astype(int))


def test_quality_and_langid_shapes(docs):
    from sagan_ray.datapipe import langid, quality

    q = quality(docs).to_pandas()
    assert ((q["quality"] >= 0) & (q["quality"] <= 1)).all()
    assert (q["n_words"] > 0).any()
    lid = langid(docs).to_pandas()
    assert set(lid.columns) == {"doc_id", "lang_pred", "lang_conf"}
    assert len(lid) == len(q)


def test_fingerprint_deterministic_and_normalizing(docs):
    from sagan_ray.datapipe import fingerprint
    import ray.data as rd
    import pyarrow as pa

    t = pa.table({"doc_id": [1, 2, 3],
                  "text": ["Hello, World!", "hello  world", "different"]})
    fp = fingerprint(rd.from_arrow(t)).to_pandas().sort_values("doc_id")
    assert fp["fp_md5"].iloc[0] == fp["fp_md5"].iloc[1]
    assert fp["fp_md5"].iloc[0] != fp["fp_md5"].iloc[2]


def test_ngram_prefix_boundary_threshold():
    """Regression (self-review round 2): math.ceil on binary floats
    (0.55*100 = 55.000000000000006) shortened the PPJoin prefix below the
    safe bound; a planted boundary pair (J exactly = t) must be found."""
    import pyarrow as pa
    import ray.data as rd

    from sagan_ray.datapipe import ngram_jaccard_pairs
    from sagan_ray.datapipe.dedup import _jaccard

    # doc A: 102 words → 100 shingles; doc B shares a 57-shingle suffix
    words = [f"w{i}" for i in range(102)]
    a = " ".join(words)
    b = " ".join(words[43:] + [f"z{i}" for i in range(2)])
    j = _jaccard(a, b)
    assert 0.5 < j < 0.6
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([a, b], pa.large_string())}))
    got = ngram_jaccard_pairs(ds, threshold=j).to_pandas()
    assert len(got) == 1 and abs(got["jaccard"].iloc[0] - j) < 1e-12


def _brute_repetition(texts):
    """Sequential spec for the Gopher repetition signals (independent of
    the vectorized kernel): single-space split, empty tokens kept."""
    out = []
    for t in texts:
        ws = t.split(" ")
        total = sum(len(w) for w in ws)
        from collections import Counter
        c2 = Counter(zip(ws, ws[1:]))
        top2 = max((n * (len(a) + len(b)) for (a, b), n in c2.items()),
                   default=0)
        c3 = Counter(zip(ws, ws[1:], ws[2:]))
        covered = set()
        for i in range(len(ws) - 2):
            if c3[(ws[i], ws[i + 1], ws[i + 2])] >= 2:
                covered.update((i, i + 1, i + 2))
        dup3 = sum(len(ws[i]) for i in covered)
        out.append((total, top2, dup3))
    return out


def test_repetition_edge_cases():
    import ray.data as rd

    from sagan_ray.datapipe import repetition

    texts = [
        "",                                   # split -> ['']
        "a  b a  b",                          # consecutive spaces keep ''
        "the cat sat on the cat sat on the mat",
        "x " * 50 + "x",                      # one gram repeated massively
        "unique words only here now",
        "a b c a b c a b c",                  # dup 3-grams tile the doc
    ]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.large_string())}))
    got = (repetition(ds).to_pandas().sort_values("doc_id")
           .reset_index(drop=True))
    want = _brute_repetition(texts)
    for i, (total, top2, dup3) in enumerate(want):
        assert got["total_chars"][i] == total, i
        assert got["top2_chars"][i] == top2, i
        assert got["dup3_chars"][i] == dup3, i


def test_repetition_matches_spec_on_corpus(docs, docs_tbl):
    from sagan_ray.datapipe import repetition

    got = (repetition(docs).to_pandas().sort_values("doc_id")
           .reset_index(drop=True))
    texts = docs_tbl.sort_by("doc_id").column("text").to_pylist()
    want = _brute_repetition(texts)
    assert list(got["total_chars"]) == [w[0] for w in want]
    assert list(got["top2_chars"]) == [w[1] for w in want]
    assert list(got["dup3_chars"]) == [w[2] for w in want]


def test_cross_doc_dup_planted():
    """Docs sharing an exact 5-word span count it; shorter overlap or
    in-doc-only repeats don't. The shared span must survive the exchange
    even when the two docs land in different batches (override_num_blocks
    forces that)."""
    import ray.data as rd

    from sagan_ray.datapipe import cross_doc_dup

    shared = "alpha beta gamma delta epsilon"
    texts = [
        f"intro {shared} outro one",        # doc 0: 8 words, 4 grams
        f"other {shared} tail two three",   # doc 1: shares the 5-gram
        "alpha beta gamma delta zeta pad",  # doc 2: only 4-word overlap
        "tiny doc",                          # doc 3: < 5 words, 0 grams
        "rep rep rep rep rep rep",           # doc 4: in-doc repeats only
    ]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.large_string()),
    })).repartition(5)
    got = (cross_doc_dup(ds, k=5).to_pandas().sort_values("doc_id")
           .reset_index(drop=True))
    assert list(got["n_grams"]) == [4, 5, 2, 0, 2]
    # docs 0/1 each have exactly one start position carrying the shared
    # 5-gram; nothing else crosses docs
    assert list(got["n_dup"]) == [1, 1, 0, 0, 0]


def test_percentiles_nearest_rank():
    import ray.data as rd

    from sagan_ray.datapipe import percentiles

    vals = [5, 1, 9, 1, 7, 3, 3, 3, 100, 2]          # n=10
    ds = rd.from_arrow(pa.table({"x": pa.array(vals, pa.int64())}))
    got = percentiles(ds.repartition(3), "x", [0.0, 0.1, 0.5, 0.9, 1.0])
    srt = sorted(vals)
    import math
    from fractions import Fraction
    # ranks are EXACT RATIONALS: ceil(0.9 * 10) is 9, not the float
    # artifact ceil(9.000000000000002) = 10 — matching the SQL oracle's
    # ceil(DECIMAL * BIGINT). q=0.9 at n=10 is precisely the boundary
    # where the float form picks the WRONG (next) element.
    want = [srt[max(1, math.ceil(Fraction(str(q)) * 10)) - 1]
            for q in [0.0, 0.1, 0.5, 0.9, 1.0]]
    assert got["value"].tolist() == want
    assert got["value"].tolist()[3] == 9      # the q=0.9 boundary case


def test_hash_join_duplicates_and_left():
    import pandas as pd
    import ray.data as rd

    from sagan_ray.datapipe import hash_join

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 2, 3], pa.int64()),
        "lv": pa.array([10, 11, 20, 30], pa.int64())})).repartition(2)
    right = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 2, 4], pa.int64()),
        "rv": pa.array([100, 101, 200, 400], pa.int64())})).repartition(3)

    inner = hash_join(left, right, on="k", left_cols=["lv"],
                      right_cols=["rv"]).to_pandas()
    got = sorted(zip(inner["k"], inner["lv"], inner["r_rv"]))
    want = sorted([(1, 10, 100), (1, 10, 101), (1, 11, 100),
                   (1, 11, 101), (2, 20, 200)])
    assert got == want

    lj = hash_join(left, right, on="k", left_cols=["lv"],
                   right_cols=["rv"], how="left").to_pandas()
    assert len(lj) == 6          # 5 matches + unmatched k=3
    row3 = lj[lj["k"] == 3]
    assert len(row3) == 1 and pd.isna(row3["r_rv"].iloc[0])


def test_dedup_against_prior_planted():
    import ray.data as rd

    from sagan_ray.datapipe import dedup_against_prior

    prior = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["alpha", "beta", "gamma"])})).repartition(2)
    new = rd.from_arrow(pa.table({
        "doc_id": pa.array([10, 11, 12, 13], pa.int64()),
        "text": pa.array(["beta", "delta", "ALPHA", "gamma"]),
    })).repartition(3)
    got = sorted(dedup_against_prior(new, prior).to_pandas()["doc_id"])
    # exact-content semantics: 'beta'/'gamma' dropped, 'ALPHA' (case
    # differs) and 'delta' survive
    assert got == [11, 12]


def test_pack_sequences_boundaries_and_contract():
    import pytest as _pytest
    import ray.data as rd

    from sagan_ray.datapipe import pack_sequences

    # capacity 10: doc sizes 4,0,8,10,5 -> before = 0,4,4,12,22
    t = pa.table({"doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
                  "n": pa.array([4, 0, 8, 10, 5], pa.int64())})
    got = (pack_sequences(rd.from_arrow(t).repartition(3), capacity=10,
                          count_col="n").to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert got["seq_id"].tolist() == [0, 0, 0, 1, 2]
    assert got["seq_offset"].tolist() == [0, 4, 4, 2, 2]

    # overlapping id ranges across blocks must raise, not mis-pack
    a = pa.table({"doc_id": pa.array([0, 2], pa.int64()),
                  "n": pa.array([1, 1], pa.int64())})
    b = pa.table({"doc_id": pa.array([1, 3], pa.int64()),
                  "n": pa.array([1, 1], pa.int64())})
    bad = rd.from_arrow(a).union(rd.from_arrow(b))
    with _pytest.raises(ValueError, match="not disjoint"):
        pack_sequences(bad, capacity=10, count_col="n")


def test_shuffle_shards_deterministic_and_complete(docs):
    from sagan_ray.datapipe import shuffle_shards

    ds = docs.select_columns(["doc_id"])
    a = (shuffle_shards(ds, n_shards=4).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    b = (shuffle_shards(ds.repartition(7), n_shards=4).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    # block-layout independent, every doc present exactly once
    assert a.equals(b)
    assert len(a) == ds.count() and a["doc_id"].is_unique
    # positions within each shard are 0..len-1 (a real permutation)
    for sh, g in a.groupby("shard"):
        assert sorted(g["pos"]) == list(range(len(g)))


def test_empty_input_edge_cases():
    """Operators must return empty (typed) results, not crash, on an
    empty input Dataset."""
    import ray.data as rd

    from sagan_ray.datapipe import (
        hash_join, percentiles, repetition, token_counts)

    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.large_string())}))
    assert len(percentiles(token_counts(empty), "n_tokens", [0.5])) == 0
    assert repetition(empty).count() == 0
    ek = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                 "v": pa.array([], pa.int64())}))
    assert hash_join(ek, ek, on="k", left_cols=["v"],
                     right_cols=["v"]).count() == 0
    from sagan_ray.datapipe import corpus_stats
    cs = corpus_stats(empty)
    assert cs["n_docs"].iloc[0] == 0 and cs["n_vocab"].iloc[0] == 0


def test_hll_vocab_accuracy_and_layout_invariance(docs, docs_tbl):
    import duckdb
    import ray.data as rd

    from sagan_ray.datapipe import hll_vocab

    exact = duckdb.sql(f"""
        SELECT count(DISTINCT w) FROM (
          SELECT unnest(list_filter(regexp_split_to_array(lower(text),
                                                          '[^a-z0-9_]+'),
                        x -> x <> '')) AS w
          FROM read_parquet('{SF}/documents.parquet'))""").fetchone()[0]
    est = hll_vocab(docs, p=12)["n_vocab_est"].iloc[0]
    assert abs(est - exact) / exact < 0.05          # ~1.6% expected at p=12

    # register fold is a semilattice: any block layout → same estimate
    est2 = hll_vocab(docs.repartition(7), p=12)["n_vocab_est"].iloc[0]
    assert est2 == est

    empty = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                    "text": pa.array([], pa.string())}))
    out = hll_vocab(empty, p=12)
    assert out["n_vocab_est"].iloc[0] == 0.0


def test_unigram_nll_tiny_hand_check():
    import math

    import ray.data as rd

    from sagan_ray.datapipe import unigram_nll

    # corpus: a a a b | b c  → T=6, cnt a=3 b=2 c=1
    ds = rd.from_arrow(pa.table({"doc_id": [1, 2, 3],
                                 "text": ["a a a b", "b c", ""]}))
    out = (unigram_nll(ds).to_pandas().sort_values("doc_id")
           .reset_index(drop=True))
    # doc 3 has no words → excluded
    assert list(out["doc_id"]) == [1, 2]
    assert list(out["n_words"]) == [4, 2]
    t = math.log(6)
    nll1 = t - (3 * math.log(3) + 1 * math.log(2)) / 4
    nll2 = t - (math.log(2) + math.log(1)) / 2
    assert abs(out["nll"][0] - nll1) < 1e-12
    assert abs(out["nll"][1] - nll2) < 1e-12


def test_bigram_nll_tiny_hand_check():
    import math

    import ray.data as rd

    from sagan_ray.datapipe import bigram_nll

    # corpus bigrams: doc1 "a b a b" → (a,b)×2 (b,a)×1; doc2 "a b c" →
    # (a,b) (b,c); doc3 "x" → none. cnt(a,b)=3 cnt(b,a)=1 cnt(b,c)=1;
    # ctx(a)=3 ctx(b)=2.
    ds = rd.from_arrow(pa.table({"doc_id": [1, 2, 3],
                                 "text": ["a b a b", "a b c", "x"]}))
    out = (bigram_nll(ds).to_pandas().sort_values("doc_id")
           .reset_index(drop=True))
    assert list(out["doc_id"]) == [1, 2]
    assert list(out["n_bigrams"]) == [3, 2]
    nll1 = (2 * (math.log(3) - math.log(3))
            + 1 * (math.log(2) - math.log(1))) / 3
    nll2 = ((math.log(3) - math.log(3))
            + (math.log(2) - math.log(1))) / 2
    assert abs(out["nll2"][0] - nll1) < 1e-12
    assert abs(out["nll2"][1] - nll2) < 1e-12


def test_source_divergence_tiny_hand_check():
    import math

    import ray.data as rd

    from sagan_ray.datapipe import source_divergence

    # s1: a a b (Pa = {a:2/3, b:1/3}); s2: a c (Pb = {a:1/2, c:1/2})
    ds = rd.from_arrow(pa.table({
        "doc_id": [1, 2], "text": ["a a b", "a c"],
        "source": ["s1", "s2"]}))
    out = source_divergence(ds).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["sa"], r["sb"]) == ("s1", "s2")
    pa_, pb_ = 2 / 3, 1 / 2
    want = (0.5 * pa_ * math.log(2 * pa_ / (pa_ + pb_))
            + 0.5 * pb_ * math.log(2 * pb_ / (pa_ + pb_))
            + 0.5 * (1 / 3) * math.log(2.0)
            + 0.5 * (1 / 2) * math.log(2.0))
    assert abs(r["jsd"] - want) < 1e-12


def test_source_divergence_identical_sources_zero():
    import ray.data as rd

    from sagan_ray.datapipe import source_divergence

    ds = rd.from_arrow(pa.table({
        "doc_id": [1, 2], "text": ["x y z", "x y z"],
        "source": ["s1", "s2"]}))
    out = source_divergence(ds).to_pandas()
    assert len(out) == 1
    assert abs(out.iloc[0]["jsd"]) < 1e-15


def test_collocations_tiny_hand_check():
    import math

    import ray.data as rd

    from sagan_ray.datapipe import collocations

    # 4 docs of "x y" + one "y z" → bigrams: (x,y)*4, (y,z)*1; T=10, Tb=5
    ds = rd.from_arrow(pa.table({
        "doc_id": [1, 2, 3, 4, 5],
        "text": ["x y", "x y", "x y", "x y", "y z"]}))
    out = collocations(ds, min_count=2).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["w1"], r["w2"], r["n_xy"]) == ("x", "y", 4)
    # c_x=4, c_y=5 → pmi = ln(4*100/(5*4*5))
    assert abs(r["pmi"] - math.log(4 * 10.0 * 10.0 / (5.0 * 4 * 5))) < 1e-12

    empty = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                    "text": pa.array([], pa.string())}))
    out = collocations(empty, min_count=2).to_pandas()
    assert len(out) == 0


def test_readability_hand_counts_and_doc_boundaries():
    """Vowel-run syllables: per-word maximal [aeiou] runs; a doc whose
    text STARTS with a vowel immediately after a vowel-ending doc in
    the same buffer must still open a new run (the prev-boundary
    reset); empty text yields 0/0 with ratio 0."""
    import pyarrow as pa
    import ray.data as rd

    from sagan_ray.datapipe.textstats import readability

    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["hello queue", "idea", "", "rhythm audio"],
                         pa.string()),
    })
    out = (readability(rd.from_arrow(docs)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    # hello: e,o → 2; queue: ueue → 1  | idea: i,ea → 2 (starts with a
    # vowel right after "queue" ends with one) | rhythm: 0 (y is not a
    # vowel in this spec); audio: au,io → 2
    assert out["n_words"].tolist() == [2, 1, 0, 2]
    assert out["n_syll"].tolist() == [3, 2, 0, 2]
    assert out["syll_per_word"].tolist() == [1.5, 2.0, 0.0, 1.0]


def test_type_token_ratio_hand_counts():
    """Distinct-word types per doc: repeats collapse, case folds,
    punctuation splits; empty doc is 0/0 with ratio 0."""
    import pyarrow as pa
    import ray.data as rd

    from sagan_ray.datapipe.textstats import type_token_ratio

    docs = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["the The THE cat", "a-b a_b a b", ""],
                         pa.string()),
    })
    out = (type_token_ratio(rd.from_arrow(docs)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    # doc0: words [the,the,the,cat] → 2 types; doc1: a-b splits into
    # a,b but a_b stays one word → words [a,b,a_b,a,b] → 3 types
    assert out["n_words"].tolist() == [4, 5, 0]
    assert out["n_types"].tolist() == [2, 3, 0]
    assert out["ttr"].tolist() == [0.5, 0.6, 0.0]


def test_remove_dup_spans_tiny_hand_check():
    import ray.data as rd

    from sagan_ray.datapipe import remove_dup_spans

    shared = "q w e r t"                      # 5-gram shared by docs 1,2
    ds = rd.from_arrow(pa.table({
        "doc_id": [1, 2, 3],
        "text": [f"a b {shared} c", f"{shared} x y z k", "a b c d"]}))
    out = (remove_dup_spans(ds, k=5).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert list(out["doc_id"]) == [1, 2, 3]
    # doc 1: positions 2-6 covered → "a b c" survives
    assert out["text_clean"][0] == "a b c"
    assert out["n_removed"][0] == 5
    # doc 2: positions 0-4 covered → "x y z k"
    assert out["text_clean"][1] == "x y z k"
    assert out["n_removed"][1] == 5
    # doc 3: too short for any shared 5-gram → untouched
    assert out["text_clean"][2] == "a b c d"
    assert out["n_removed"][2] == 0

    # consistency with the measuring op: n_removed ≥ docs' n_dup > 0 docs
    from sagan_ray.datapipe import cross_doc_dup
    sig = (cross_doc_dup(ds, k=5).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert (sig["n_dup"] > 0).tolist() == (out["n_removed"] > 0).tolist()


def test_group_percentiles_hand_check_and_empty():
    import ray.data as rd

    from sagan_ray.datapipe import group_percentiles

    ds = rd.from_arrow(pa.table({
        "source": ["a"] * 4 + ["b"] * 2,
        "n_chars": [10, 20, 30, 40, 5, 7]}))
    out = (group_percentiles(ds, group_col="source", col="n_chars",
                             qs=[0.5, 1.0]).to_pandas()
           .sort_values(["source", "q"]).reset_index(drop=True))
    # a: ranks ceil(0.5*4)=2 → 20, ceil(1*4)=4 → 40; b: rank 1 → 5, 2 → 7
    assert out.values.tolist() == [["a", 0.5, 20], ["a", 1.0, 40],
                                   ["b", 0.5, 5], ["b", 1.0, 7]]

    empty = rd.from_arrow(pa.table({"source": pa.array([], pa.string()),
                                    "n_chars": pa.array([], pa.int64())}))
    out = group_percentiles(empty, group_col="source", col="n_chars",
                            qs=[0.5]).to_pandas()
    assert len(out) == 0


def test_cms_overestimates_bounded_and_blocking_invariant():
    """Count-Min estimates are >= exact counts, equal for clearly-hot
    words at this width, and identical under any block layout (exact
    integer sums — the semilattice stance)."""
    import collections
    import re

    import pyarrow as pa
    import ray.data as rd

    from sagan_ray.datapipe.sketch import cms_word_counts

    texts = ["the cat sat on the mat " * 3, "dog dog dog cat", "", "mat the"] * 12
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    exact = collections.Counter(
        w for t in texts for w in re.findall(r"[a-z0-9_]+", t.lower()))
    probes = ["the", "cat", "dog", "mat", "zebra"]
    est = cms_word_counts(rd.from_arrow(tbl), probes).set_index("word")["est"]
    for w in probes:
        assert est[w] >= exact[w], (w, est[w], exact[w])
    # width 2^14 >> 5 distinct words: collisions are possible but the
    # min-over-4-rows makes an overestimate here astronomically unlikely
    assert est["the"] == exact["the"]
    assert est["zebra"] == 0

    est2 = cms_word_counts(rd.from_arrow(tbl).repartition(7),
                           probes).set_index("word")["est"]
    assert (est2 == est).all()


def test_bloom_no_false_negatives_and_blocking_invariant():
    """Bloom membership: EVERY word actually in the corpus probes
    present (no false negatives — the defining guarantee), a clearly
    absent token probes 0 at this fill ratio, and the bitmap (via
    fill_bits and all probe answers) is identical under any block
    layout (bitwise-OR semilattice)."""
    import re

    import pyarrow as pa
    import ray.data as rd

    from sagan_ray.datapipe.sketch import bloom_membership

    texts = ["the cat sat on the mat " * 3, "dog dog dog cat", "",
             "parquet shuffle actor"] * 9
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    vocab = sorted({w for t in texts
                    for w in re.findall(r"[a-z0-9_]+", t.lower())})
    probes = vocab + ["zzqx_absent_token"]
    out = bloom_membership(rd.from_arrow(tbl), probes).set_index("word")
    for w in vocab:
        assert out.loc[w, "present"] == 1, w
    # ~10 distinct words x 5 bits in 2^20: false positive ~ (5e-5)^5
    assert out.loc["zzqx_absent_token", "present"] == 0
    out2 = bloom_membership(rd.from_arrow(tbl).repartition(7),
                            probes).set_index("word")
    assert (out2["present"] == out["present"]).all()
    assert (out2["fill_bits"] == out["fill_bits"]).all()


def test_sketch_combine_level_topology_invariant():
    """With >64 partial blobs the task-side combine level engages; the
    folded sketch must be bit-identical to a
    low-block-count run — exact-integer folds are topology-free."""
    import pyarrow as pa
    import ray.data as rd

    from sagan_ray.datapipe.sketch import cms_word_counts, hll_vocab

    texts = [f"alpha beta w{i % 97} gamma" for i in range(2600)]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    few = rd.from_arrow(tbl)
    # 130 single-batch blocks of 20 rows: >64 partials → combine stage
    many = rd.from_arrow(tbl).repartition(130)

    probes = ["alpha", "w3", "w96", "nosuch"]
    a = cms_word_counts(few, probes).set_index("word")["est"]
    b = cms_word_counts(many, probes).set_index("word")["est"]
    assert (a == b).all()
    assert a["alpha"] == 2600 and a["nosuch"] == 0

    ha = hll_vocab(few)["n_vocab_est"][0]
    hb = hll_vocab(many)["n_vocab_est"][0]
    assert ha == hb


def test_blob_combine_stage_many_partials():
    """Drive _blob_combine_stage directly with 200 one-row blob blocks
    (forcing the >64-per-task fold path) for both the max (HLL) and
    int64-add (CMS) folds; result must equal the direct driver fold."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from sagan_ray.datapipe.sketch import _blob_combine_stage

    rng = np.random.RandomState(3)
    blobs_u8 = [rng.randint(0, 250, size=64).astype(np.uint8)
                for _ in range(200)]
    ds = rd.from_arrow(pa.table(
        {"reg": pa.array([b.tobytes() for b in blobs_u8], pa.binary(64))}))
    got = _blob_combine_stage(ds, 64, np.maximum)
    assert np.array_equal(got, np.maximum.reduce(blobs_u8))

    blobs_i64 = [rng.randint(0, 1000, size=8).astype(np.int64)
                 for _ in range(200)]
    ds2 = rd.from_arrow(pa.table(
        {"cms": pa.array([b.tobytes() for b in blobs_i64], pa.binary(64))}))

    def fold_add64(a, b):
        return (a.view(np.int64) + b.view(np.int64)).view(np.uint8)

    got2 = _blob_combine_stage(ds2, 64, fold_add64)
    assert np.array_equal(got2.view(np.int64),
                          np.sum(blobs_i64, axis=0, dtype=np.int64))

    # empty input → None
    empty = rd.from_arrow(pa.table({"reg": pa.array([], pa.binary(64))}))
    assert _blob_combine_stage(empty, 64, np.maximum) is None


def test_conv_documents_and_role_transitions_edges():
    """Single-turn conversations (no transitions), interleaved turn
    arrival order, and empty text — against a pandas reference."""
    import pyarrow as pa
    import ray.data as rd

    from sagan_ray.pipelines.aggregates import conv_documents, role_transitions

    rows = [
        ("a", 1, "assistant", "world"),
        ("a", 0, "user", "hello"),
        ("b", 0, "user", ""),                 # single turn, empty text
        ("a", 2, "tool", "x"),
        ("c", 1, "assistant", "two"),
        ("c", 0, "user", "one"),
    ]
    tbl = pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows]),
        "text": pa.array([r[3] for r in rows], pa.large_string()),
    })
    docs = (conv_documents(rd.from_arrow(tbl)).to_pandas()
            .sort_values("conv_id").reset_index(drop=True))
    assert list(docs["conv_id"]) == ["a", "b", "c"]
    assert docs.loc[0, "doc_text"] == "user: hello\nassistant: world\ntool: x"
    assert docs.loc[1, "doc_text"] == "user: "
    assert list(docs["n_turns"]) == [3, 1, 2]

    tr = (role_transitions(rd.from_arrow(tbl)).to_pandas()
          .sort_values(["conv_id", "from_role", "to_role"])
          .reset_index(drop=True))
    got = set(map(tuple, tr[["conv_id", "from_role", "to_role", "n"]]
                  .itertuples(index=False)))
    assert got == {("a", "user", "assistant", 1),
                   ("a", "assistant", "tool", 1),
                   ("c", "user", "assistant", 1)}   # b: no transitions


def test_heavy_hitters_exact_under_forced_pruning():
    """Adversarial zipf vocab with k far below the distinct count: every
    batch AND the driver fold must prune (e > 0), yet the certified
    result equals brute force; a k too small to certify must raise, not
    return an approximation."""
    import collections

    import ray.data as rd

    from sagan_ray.datapipe import heavy_hitters

    rng = np.random.RandomState(7)
    vocab = np.array([f"w{i:04d}" for i in range(2000)], dtype=object)
    probs = 1.0 / np.arange(1, len(vocab) + 1) ** 1.2
    probs /= probs.sum()
    texts = [" ".join(vocab[rng.choice(len(vocab), size=60, p=probs)])
             for _ in range(400)]
    truth = collections.Counter(w for t in texts for w in t.split())
    want = sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))[:10]

    ds = rd.from_arrow(pa.table({"text": texts})).repartition(8)
    got = heavy_hitters(ds, 10, k=400, batch_size=16)
    assert list(zip(got["word"], got["n"])) == want

    # near-uniform frequencies: the absent-word bound necessarily
    # swamps the m-th count at tiny k, so the operator must refuse
    flat = [" ".join(vocab[rng.choice(len(vocab), size=60)])
            for _ in range(400)]
    flat_ds = rd.from_arrow(pa.table({"text": flat})).repartition(8)
    with pytest.raises(ValueError, match="cannot certify"):
        heavy_hitters(flat_ds, 10, k=12, batch_size=16)


def test_heavy_hitters_block_layout_independent(docs, docs_tbl):
    """Same result under any partitioning, and equal to brute force on
    the sf0.001 corpus (small vocab -> e == 0, exact by construction)."""
    import collections

    from sagan_ray.datapipe import heavy_hitters

    texts = docs_tbl.column("text").to_pylist()
    truth = collections.Counter(
        w for t in texts
        for w in __import__("re").findall(r"[a-z0-9_]+", t.lower()))
    want = sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))[:25]

    a = heavy_hitters(docs, 25, k=512)
    b = heavy_hitters(docs.repartition(13), 25, k=512, batch_size=64)
    assert list(zip(a["word"], a["n"])) == want
    assert a.equals(b)


def test_chunk_documents_window_arithmetic():
    """Boundary semantics vs a sequential spec: n == size, n == size+1
    (one extra chunk reaching the end), n < size, overlap=0, and the
    whitespace/empty-doc edge."""
    import ray.data as rd

    from sagan_ray.datapipe import chunk_documents

    def spec(tokens, size, overlap):
        n, stride = len(tokens), size - overlap
        if n == 0:
            return []
        k = 1 if n <= size else 1 + -((n - size) // -stride)
        return [(i, " ".join(tokens[i * stride:i * stride + size]))
                for i in range(k)]

    docs = {1: "t " * 32, 2: "t " * 33, 3: "t short", 4: "", 5: " \t "}
    tbl = pa.table({"doc_id": pa.array(list(docs), pa.int64()),
                    "text": [v.strip() and v for v in docs.values()]})
    for size, overlap in [(32, 8), (32, 0), (4, 3)]:
        got = (chunk_documents(rd.from_arrow(tbl), size=size,
                               overlap=overlap)
               .to_pandas().sort_values(["doc_id", "chunk_idx"]))
        want = [(d, i, txt) for d, raw in docs.items()
                for i, txt in spec(raw.split(), size, overlap)]
        assert (list(zip(got["doc_id"], got["chunk_idx"],
                         got["chunk_text"])) == want)
        assert (got["n_tokens"] == got["chunk_text"].str.split().str.len()
                ).all()

    with pytest.raises(ValueError):
        chunk_documents(rd.from_arrow(tbl), size=4, overlap=4)


def test_cdc_chunk_stats_matches_golden(docs, tmp_path):
    """Distributed CDC chunk-dup stats == the sequential per-byte golden
    walk on the sf0.001 corpus (block-layout independence comes free:
    the read is multi-file)."""
    import pandas as pd
    import pyarrow.parquet as pq

    from sagan_ray.datapipe import cdc_chunk_stats
    from sagan_ray.oracle.golden import write_golden_cdc

    path = write_golden_cdc(SF, bits=5, min_size=16, max_size=128)
    want = pq.read_table(path).to_pandas()
    got = (cdc_chunk_stats(docs, bits=5, min_size=16, max_size=128)
           .to_pandas().sort_values("doc_id").reset_index(drop=True)
           [list(want.columns)].astype("int64"))
    pd.testing.assert_frame_equal(got, want.astype("int64"))
    # the corpus has planted near-dups: some doc must be mostly duplicated
    ratio = got["n_dup_bytes"] / got["n_bytes"].clip(lower=1)
    assert ratio.max() >= 0.9 and got["n_dup_chunks"].sum() > 0


def test_cdc_insertion_shift_robustness():
    """An insertion near the head of a doc must NOT re-chunk the tail:
    most duplicated bytes survive (the property fixed-size blocks lack),
    and edge shapes (empty doc, doc shorter than min_size) stay sane."""
    import pandas as pd
    import ray.data as rd

    from sagan_ray.datapipe import cdc_chunk_stats

    base = ("the quick brown fox jumps over the lazy dog. " * 40)
    df = pd.DataFrame({
        "doc_id": pd.array([1, 2, 3, 4], dtype="int64"),
        "text": [base, "INSERTED-PREFIX " + base, "", "tiny"],
    })
    out = (cdc_chunk_stats(rd.from_pandas(df).repartition(3),
                           bits=5, min_size=16, max_size=128)
           .to_pandas().set_index("doc_id").sort_index())
    assert out.loc[3, "n_bytes"] == 0 and out.loc[3, "n_chunks"] == 0
    assert out.loc[4, "n_chunks"] == 1 and out.loc[4, "n_dup_chunks"] == 0
    # tail realigns: >=60% of the shifted doc's bytes still dedup
    assert out.loc[2, "n_dup_bytes"] >= 0.6 * out.loc[2, "n_bytes"]
    assert out.loc[1, "n_dup_bytes"] > 0


def test_rank_normalize_ties_and_singletons():
    """percent_rank ties share the block-min rank; a 1-row group gets
    pct_rank 0 (the SQL percent_rank convention); cume_dist includes
    the ties block."""
    import pandas as pd
    import ray.data as rd

    from sagan_ray.datapipe.stats import rank_normalize

    df = pd.DataFrame({
        "doc_id": pd.array(range(6), dtype="int64"),
        "source": ["a", "a", "a", "a", "b", "c"],
        "n_chars": pd.array([10, 20, 20, 30, 7, 7], dtype="int64")})
    out = (rank_normalize(rd.from_pandas(df).repartition(3),
                          group_col="source", col="n_chars")
           .to_pandas().set_index("doc_id").sort_index())
    assert list(out["pct_rank"]) == [0.0, 1 / 3, 1 / 3, 1.0, 0.0, 0.0]
    assert list(out["cume_dist"]) == [0.25, 0.75, 0.75, 1.0, 1.0, 1.0]


def test_containment_catches_quotation_jaccard_misses():
    """A short doc quoted verbatim inside a much longer one: directed
    containment ≈ 1 while Jaccard is far below any dedup threshold —
    the asymmetric case the operator exists for."""
    import pandas as pd
    import ray.data as rd

    from sagan_ray.datapipe.dedup import (_jaccard, ngram_containment_pairs)

    quote = "to be or not to be that is the question"
    filler = " ".join(f"word{i} token{i * 7 % 93} thing{i * 3}"
                      for i in range(60))
    host = filler + " " + quote + " " + " ".join(
        f"tail{i} extra{i * 11 % 71}" for i in range(60))
    df = pd.DataFrame({
        "doc_id": pd.array([0, 1, 2], dtype="int64"),
        "text": [quote, host, "completely unrelated third text entirely"]})
    out = (ngram_containment_pairs(rd.from_pandas(df).repartition(2),
                                   threshold=0.9)
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    assert _jaccard(quote, host) < 0.2          # jaccard would miss it
    pairs = set(zip(out["a"].astype(int), out["b"].astype(int)))
    assert (0, 1) in pairs                       # directed: 0 inside 1
    assert (1, 0) not in pairs                   # host not inside quote
    assert out.loc[(out.a == 0) & (out.b == 1),
                   "containment"].iloc[0] == 1.0
    assert not {(0, 2), (2, 0), (1, 2), (2, 1)} & pairs


def test_byte_entropy_edges():
    """Known-entropy edges: empty (0), uniform single byte (0), two
    equiprobable bytes (1 bit), and a non-ASCII doc counted in UTF-8
    BYTES (n_bytes > n_chars)."""
    import pandas as pd
    import ray.data as rd

    from sagan_ray.datapipe.textstats import byte_entropy

    df = pd.DataFrame({
        "doc_id": pd.array([0, 1, 2, 3], dtype="int64"),
        "text": ["", "aaaaaaaa", "abababab", "héllo"]})
    out = (byte_entropy(rd.from_pandas(df).repartition(2))
           .to_pandas().set_index("doc_id").sort_index())
    assert out.loc[0, "entropy"] == 0.0 and out.loc[0, "n_bytes"] == 0
    assert out.loc[1, "entropy"] == 0.0 and out.loc[1, "distinct_bytes"] == 1
    assert out.loc[2, "entropy"] == 1.0
    assert out.loc[3, "n_bytes"] == 6 and out.loc[3, "distinct_bytes"] == 5


def test_compression_ratio_signals():
    import ray.data as rd

    from sagan_ray.datapipe.textstats import compression_ratio
    boiler = "spam ham " * 500
    prose = ("the quick brown fox jumps over one lazy dog while seven "
             "wizards brew unique potions under a crimson sky tonight ")
    noise = "".join(np.random.RandomState(3).choice(
        list("0123456789abcdef"), 4000))
    tbl = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                    "text": pa.array([boiler, prose * 30, noise, ""],
                                     pa.string())})
    out = (compression_ratio(rd.from_arrow(tbl)).to_pandas()
           .set_index("doc_id"))
    assert out.loc[0, "ratio"] < 0.05          # boilerplate crushes
    assert out.loc[2, "ratio"] > out.loc[1, "ratio"]   # noise resists
    assert out.loc[3, "ratio"] == 1.0 and out.loc[3, "n_bytes"] == 0


def test_source_overlap_planted():
    """Two sources sharing one exact doc share all its grams; a third
    disjoint source overlaps nobody; diagonals count each source's own
    distinct grams."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    from sagan_ray.datapipe.textstats import source_overlap

    shared = "alpha beta gamma delta epsilon zeta eta theta"
    df = pd.DataFrame({
        "source": ["s1", "s1", "s2", "s3"],
        "text": [shared, "one two three four five six seven",
                 shared + " iota kappa", "aa bb cc dd ee ff gg hh"]})
    out = (source_overlap(rd.from_pandas(df).repartition(2), k=5)
           .to_pandas().sort_values(["sa", "sb"]).reset_index(drop=True))
    want = duckdb.sql("""
WITH t AS (SELECT source, string_split(text, ' ') AS ws FROM df),
g AS (SELECT source, array_to_string(ws[i:i+4], ' ') AS gram
      FROM (SELECT source, ws, unnest(range(1, len(ws) - 3)) AS i FROM t)),
sg AS (SELECT DISTINCT source, gram FROM g)
SELECT a.source AS sa, b.source AS sb, count(*)::BIGINT AS n_shared
FROM sg a JOIN sg b ON a.gram = b.gram AND a.source <= b.source
GROUP BY 1, 2 ORDER BY 1, 2
""").df()
    pd.testing.assert_frame_equal(
        out.astype({"n_shared": "int64"}), want.astype({"n_shared": "int64"}))
    m = out.set_index(["sa", "sb"])["n_shared"]
    assert m[("s1", "s2")] == 4        # the 8-word shared doc: 4 grams
    assert ("s1", "s3") not in m.index and ("s2", "s3") not in m.index


def test_cdc_coverage_vs_prior_planted():
    """A re-crawled doc (one new sentence appended) shows mostly-covered
    bytes; a brand-new doc shows zero coverage; an exact re-crawl is
    100% covered."""
    import pandas as pd
    import ray.data as rd

    from sagan_ray.datapipe import cdc_chunk_hashes, cdc_coverage_vs_prior

    base = ("the quick brown fox jumps over the lazy dog again " * 30)
    old = pd.DataFrame({
        "doc_id": pd.array([0, 1], dtype="int64"),
        "text": [base, "some other prior page entirely " * 20]})
    new = pd.DataFrame({
        "doc_id": pd.array([10, 11, 12], dtype="int64"),
        "text": [base,                                   # exact re-crawl
                 base + " one brand new closing sentence appended",
                 "completely fresh never seen page " * 25]})
    prior = cdc_chunk_hashes(rd.from_pandas(old), bits=5, min_size=16,
                             max_size=128)
    out = (cdc_coverage_vs_prior(rd.from_pandas(new).repartition(2),
                                 prior, bits=5, min_size=16, max_size=128)
           .to_pandas().set_index("doc_id").sort_index())
    assert out.loc[10, "cov_bytes"] == out.loc[10, "n_bytes"]
    assert out.loc[11, "cov_bytes"] >= 0.8 * out.loc[11, "n_bytes"]
    assert out.loc[11, "cov_bytes"] < out.loc[11, "n_bytes"]
    assert out.loc[12, "cov_bytes"] == 0 and out.loc[12, "cov_chunks"] == 0


def test_minhash_join_cross_side_only():
    """Within-side near-dups never surface; cross-side exact and
    shifted near-dups do, with exact jaccard."""
    import pandas as pd
    import ray.data as rd

    from sagan_ray.datapipe.dedup import minhash_join

    t1 = "the quick brown fox jumps over the lazy dog again and again"
    t2 = "completely different second text about other things entirely ok"
    a = pd.DataFrame({"doc_id": pd.array([0, 1, 2], dtype="int64"),
                      "text": [t1, t1, t2]})        # 0,1 dup WITHIN a
    b = pd.DataFrame({"doc_id": pd.array([10, 11], dtype="int64"),
                      "text": [t1, "unrelated filler words here nine"]})
    out = (minhash_join(rd.from_pandas(a).repartition(2),
                        rd.from_pandas(b), threshold=0.9)
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    pairs = set(zip(out["a"].astype(int), out["b"].astype(int)))
    assert pairs == {(0, 10), (1, 10)}       # cross-side only, directed
    assert (out["jaccard"] == 1.0).all()


def test_exact_dedup_normalized_variants():
    """Case / whitespace / unicode-composition variants collapse to the
    smallest id; genuinely different texts survive; the known utf8proc
    U+0130 lowercase divergence from DuckDB is pinned here so a corpus
    containing it fails loudly instead of flaking the gate."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from sagan_ray.datapipe.dedup import exact_dedup_normalized

    df = pd.DataFrame({
        "doc_id": pd.array(range(5), dtype="int64"),
        "text": ["Hello   World", "hello world", "hello\tWORLD",
                 "café bar",          # composed é
                 "café bar"]})       # decomposed e + U+0301
    out = (exact_dedup_normalized(rd.from_pandas(df).repartition(3))
           .to_pandas())
    assert sorted(out["doc_id"].astype(int)) == [0, 3]
    # pin the divergence: utf8proc lower(U+0130) keeps the combining dot
    low = pc.utf8_lower(pc.utf8_normalize(
        pa.array(["İ"], pa.large_string()), form="NFC")).to_pylist()
    assert low == ["i̇"]              # DuckDB lower() gives bare "i"


def test_fuzzy_dedup_against_prior_partition(docs):
    """Survivors must be exactly the new ids minus the verified-pair b
    side — cross-checked against minhash_join on the same split."""
    import pyarrow.compute as pac

    from sagan_ray.datapipe import fuzzy_dedup_against_prior
    from sagan_ray.datapipe.dedup import minhash_join

    prior = docs.map_batches(
        lambda t: t.filter(pac.less(t.column("doc_id"), 250)),
        batch_format="pyarrow")
    new = docs.map_batches(
        lambda t: t.filter(pac.greater_equal(t.column("doc_id"), 250)),
        batch_format="pyarrow")
    surv = set(fuzzy_dedup_against_prior(new, prior, threshold=0.9)
               .to_pandas()["doc_id"].astype(int))
    dropped = set(minhash_join(prior, new, threshold=0.9).to_pandas()
                  ["b"].astype(int))
    new_ids = set(new.to_pandas()["doc_id"].astype(int))
    assert surv == new_ids - dropped
    assert dropped <= new_ids


def test_pack_bins_bfd_hand_check():
    """BFD order is (count desc, id asc); best fit = fullest open bin
    that fits; an over-capacity doc gets its own bin; fill is the doc's
    in-bin offset. n_shards=1 makes the greedy global."""
    import pyarrow as pa
    import ray.data as rd

    from sagan_ray.datapipe.pack import pack_bins_bfd

    ids = [1, 2, 3, 4, 5, 6]
    cnt = [6, 5, 4, 3, 2, 15]      # capacity 10; 15 is oversized
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()),
                    "n_chars": pa.array(cnt, pa.int64())})
    out = (pack_bins_bfd(rd.from_arrow(tbl), capacity=10, n_shards=1)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # order: 15(id6), 6(id1), 5(id2), 4(id3), 3(id4), 2(id5)
    # 15 -> bin0 alone; 6 -> bin1; 5 -> no fit in b1(6) -> bin2;
    # 4 -> fullest fitting = b1(6) -> b1 at off 6; 3 -> b2(5) off 5;
    # 2 -> b2 now 8, fullest fitting (b1=10 full? 10+2>10) -> b2 off 8
    got = {int(r.doc_id): (int(r.bin), int(r.fill))
           for r in out.itertuples()}
    assert got == {6: (0, 0), 1: (1, 0), 2: (2, 0), 3: (1, 6),
                   4: (2, 5), 5: (2, 8)}
    # per-bin totals never exceed capacity except the oversized solo bin
    fills = {}
    for i, c in zip(ids, cnt):
        fills[got[i][0]] = fills.get(got[i][0], 0) + c
    assert fills == {0: 15, 1: 10, 2: 10}


def test_dedup_cluster_best_keeps_longest():
    """Quality-aware ACTION: within a dup cluster the LONGEST doc wins
    (ties → lowest id), singletons keep themselves, and an explicit
    quality_col overrides the length default."""
    import ray.data as rd

    from sagan_ray.datapipe import dedup_cluster_best

    base = "the quick brown fox jumps over the lazy dog again and again"
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        # 1,2,3 near-identical; 2 is longest; 4,5 singletons
        "text": pa.array([base, base + " tail", base,
                          "completely different text one",
                          "another unrelated document two"]),
        "prio": pa.array([9, 1, 1, 1, 1], pa.int64()),
    })
    ds = rd.from_arrow(tbl)
    out = (dedup_cluster_best(ds, threshold=0.8).to_pandas()
           .sort_values("doc_id"))
    assert out["doc_id"].tolist() == [2, 4, 5]
    assert int(out["quality"].iloc[0]) == len(base + " tail")
    # explicit quality column: doc 1 wins its cluster instead
    out2 = (dedup_cluster_best(ds, threshold=0.8, quality_col="prio")
            .to_pandas().sort_values("doc_id"))
    assert out2["doc_id"].tolist() == [1, 4, 5]


def test_length_batches_matches_row_number_spec():
    """batch_id == (row_number over (ORDER BY count, id) - 1) // B:
    block-layout independent, heavy ties split deterministically by id,
    B=1 gives pure rank, giant B gives one batch."""
    import ray.data as rd

    from sagan_ray.datapipe.pack import length_batches

    n = 2000
    ids = np.arange(n, dtype=np.int64)
    c = (ids * 7919 % 13).astype(np.int64)        # 13 distinct lengths
    t = pa.table({"doc_id": ids, "n_tokens": c})

    order = np.lexsort((ids, c))
    for B in (1, 9, 64, 10**6):
        want = np.empty(n, np.int64)
        want[order] = np.arange(n) // B
        out = (length_batches(rd.from_arrow(t).repartition(7),
                              batch_size=B)
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        assert np.array_equal(out["batch_id"].to_numpy(), want)
        assert np.array_equal(out["c"].to_numpy(), c)
    # padding actually collapses: within every batch, max-min length
    # spread is bounded by the number of ties straddling a boundary
    out = (length_batches(rd.from_arrow(t), batch_size=64).to_pandas())
    spread = out.groupby("batch_id")["c"].agg(lambda s: s.max() - s.min())
    assert (spread <= 1).all()


def test_vocab_edit_pairs_matches_bruteforce():
    """Distributed edit-distance vocab join matches a sequential
    brute-force Levenshtein over the distinct vocabulary — including
    words past the max_word long-word path (length-bucket keys) and
    duplicate corpus occurrences; block-layout independent."""
    import ray.data as rd

    from sagan_ray.datapipe.dedup import vocab_edit_pairs

    def ref_lev(a, b):
        prev = list(range(len(b) + 1))
        for i in range(1, len(a) + 1):
            cur = [i] + [0] * len(b)
            for j in range(1, len(b) + 1):
                cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                             prev[j - 1] + (a[i - 1] != b[j - 1]))
            prev = cur
        return prev[len(b)]

    rng = np.random.RandomState(5)
    alpha = list("abc0_")
    vocab = sorted({"".join(rng.choice(alpha, rng.randint(1, 8)))
                    for _ in range(120)}
                   | {"x" * 20, "x" * 21, "x" * 19 + "y", "z" * 20})
    # docs repeat words (vocab distinctness is the operator's job) and
    # mix cases/punct (tokenizer's job)
    texts = [" ".join(rng.choice(vocab, 15)).upper() + "!,"
             for _ in range(40)]
    tbl = pa.table({"doc_id": pa.array(range(40), pa.int64()),
                    "text": pa.array(texts, pa.large_string())})
    present = sorted({w.strip("!,") for t in texts
                      for w in t.lower().split()})
    k = 2
    want = sorted((a, b, ref_lev(a, b))
                  for i, a in enumerate(present)
                  for b in present[i + 1:]
                  if ref_lev(a, b) <= k)
    assert want, "fixture must produce pairs"
    assert any(len(a) > 18 for a, b, _ in want), "long-word pair present"

    for parts in (1, 6):
        ds = rd.from_arrow(tbl)
        if parts > 1:
            ds = ds.repartition(parts)
        out = (vocab_edit_pairs(ds, k=k, max_word=16).to_pandas()
               .sort_values(["w1", "w2"]).reset_index(drop=True))
        got = list(zip(out["w1"], out["w2"], out["dist"]))
        assert got == want, parts


def test_doc_keywords_ranking_and_ties():
    """Rank is (round(tfidf,6) DESC, word ASC): a doc-unique word (df=1)
    outranks shared words; equal-(tf,df) words tie on the rounded score
    and break lexicographically; df=N words score exactly 0 and can
    still fill trailing ranks."""
    import ray.data as rd
    from sagan_ray.datapipe.textstats import doc_keywords

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "zeta common common bb aa",   # zeta df=1; aa/bb tf=1 df=1 tie
            "common other",
            "common other",
        ], pa.large_string()),
    })
    out = (doc_keywords(rd.from_arrow(tbl), k=3).to_pandas()
           .sort_values(["doc_id", "rank"]).reset_index(drop=True))
    d1 = out[out["doc_id"] == 1]
    # df=1 words (tf 1) all score ln(3) ~ 1.0986; zeta/aa/bb tie -> word asc
    assert list(d1["term"]) == ["aa", "bb", "zeta"]
    assert list(d1["rank"]) == [1, 2, 3]
    assert (d1["df"] == 1).all()
    d2 = out[out["doc_id"] == 2]
    # other df=2 > common df=3 (score 0); both rows present
    assert list(d2["term"]) == ["other", "common"]
    assert d2["tfidf"].tolist()[1] == 0.0


def test_dup_growth_hand_check():
    """Duplicates only count after their first occurrence's id; edge
    histogram is cumulative; ids_ds path agrees with the default."""
    import ray.data as rd

    from sagan_ray.datapipe.dedup import dup_growth

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "text": pa.array(["a", "b", "a", "c", "b", "a"], pa.string()),
    })
    # edges 2, 4, 6: prefix {1,2} no dups; {1..4} one dup (id3=a);
    # {1..6} three dups (3, 5, 6)
    out = dup_growth(rd.from_arrow(tbl), [2, 4, 6])
    assert list(out["n_docs"]) == [2, 4, 6]
    assert list(out["n_unique"]) == [2, 3, 3]
    assert list(out["n_dups"]) == [0, 1, 3]
    out2 = dup_growth(rd.from_arrow(tbl), [2, 4, 6],
                      ids_ds=rd.from_arrow(tbl.select(["doc_id"])))
    assert out.equals(out2)


def test_zipf_fit_exact_small_corpus():
    """Known counts -> hand-computable OLS; ties at the cut break by
    word asc; tiny corpora (n_top < 2) return NaN, not a crash."""
    import ray.data as rd

    from sagan_ray.datapipe.textstats import zipf_fit

    docs = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["aa aa aa aa bb bb", "aa aa bb cc"], pa.string()),
    })
    out = zipf_fit(rd.from_arrow(docs), top_n=3)
    # counts: aa=6, bb=3, cc=1 -> x=ln(1..3), y=ln([6,3,1])
    x = np.log(np.arange(1, 4, dtype=np.float64))
    y = np.log(np.array([6.0, 3.0, 1.0]))
    n, sx, sy = 3, x.sum(), y.sum()
    den = n * (x * x).sum() - sx * sx
    slope = (n * (x * y).sum() - sx * sy) / den
    assert out["n_top"].iloc[0] == 3
    assert abs(out["slope"].iloc[0] - slope) < 1e-12

    one = pa.table({"doc_id": pa.array([1], pa.int64()),
                    "text": pa.array(["solo solo"], pa.string())})
    out1 = zipf_fit(rd.from_arrow(one))
    assert out1["n_top"].iloc[0] == 1 and np.isnan(out1["slope"].iloc[0])


def test_doc_summary_hand_case_and_ties():
    """IDF mass picks the sentence with the rare words; sent_idx is the
    1-based RAW split slot (blank slots skipped but numbered); equal
    scores tie-break by sent_idx asc; k caps per doc."""
    import math

    import ray.data as rd

    from sagan_ray.datapipe.textstats import doc_summary

    texts = [
        # doc 0: s1 = common words, s2 = rare words, s3 blank slot after
        # the trailing '!': slots are 1,2,(3 blank)
        "the cat sat. zyzzyva qwerty!",
        "the cat sat on the mat.",          # doc 1: one sentence
        "the cat. the cat.",                # doc 2: two IDENTICAL -> tie
    ]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(texts, pa.string())}))
    out = doc_summary(ds, k=2)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    out = (out.astype({"doc_id": "int64", "rank": "int64",
                       "sent_idx": "int64"})
           .sort_values(["doc_id", "rank"]).reset_index(drop=True))
    # doc 0: rare sentence (slot 2) must outrank the common one (slot 1)
    d0 = out[out.doc_id == 0]
    assert d0[["rank", "sent_idx"]].values.tolist() == [[1, 2], [2, 1]]
    # doc 1: single sentence, rank 1 only
    d1 = out[out.doc_id == 1]
    assert d1[["rank", "sent_idx"]].values.tolist() == [[1, 1]]
    # doc 2: identical sentences -> exact tie -> sent_idx asc
    d2 = out[out.doc_id == 2]
    assert d2[["rank", "sent_idx"]].values.tolist() == [[1, 1], [2, 2]]
    assert d2["score"].iloc[0] == d2["score"].iloc[1]
    # spot-check one score: doc 0 slot 2 = ln(3/1)*2 (zyzzyva, qwerty
    # each appear in 1 doc)
    want = 2 * math.log(3.0 / 1.0)
    assert abs(d0["score"].iloc[0] - want) < 1e-12


def test_pii_pseudonymize_consistency():
    """Same value -> same token across docs and batches; tokens never
    re-match a pattern."""
    import ray.data as rd

    from sagan_ray.datapipe.curate import pii_pseudonymize

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": ["mail a@b.com then 10.0.0.1:80 and a@b.com again",
                 "other c@d.org and a@b.com; user u123456",
                 "clean"]})
    ds = rd.from_arrow(tbl).repartition(3)
    m = pii_pseudonymize(ds).to_pandas()
    tok = dict(zip(m["value"], m["pseudonym"]))
    # a@b.com appears 3x across 2 docs -> one token
    ab = m[m["value"] == "a@b.com"]
    assert len(ab) == 3 and ab["pseudonym"].nunique() == 1
    assert all(p.startswith(k + "_") and len(p) == len(k) + 9
               for k, p in zip(m["kind"], m["pseudonym"]))
    # a pseudonymize pass over text made of tokens finds nothing
    clean = pii_pseudonymize(
        rd.from_arrow(pa.table({"doc_id": pa.array([1], pa.int64()),
                                "text": [" ".join(tok.values())]}))
    ).to_pandas()
    assert len(clean) == 0


def test_manifest_diff_statuses():
    """snapshot_manifest + manifest_diff on tiny dirs: added / removed /
    changed / same, order-free content hash (row order inside a file
    does not change it), empty diff when nothing changed."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from sagan_ray.io.compact import manifest_diff, snapshot_manifest

    base = "/tmp/sagan_ray_manifest_test"
    shutil.rmtree(base, ignore_errors=True)
    a = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": ["x", "y"]})
    a_rev = pa.table({"doc_id": pa.array([2, 1], pa.int64()),
                      "text": ["y", "x"]})
    b = pa.table({"doc_id": pa.array([3], pa.int64()), "text": ["z"]})
    b2 = pa.table({"doc_id": pa.array([3], pa.int64()), "text": ["Z"]})
    os.makedirs(f"{base}/v1")
    os.makedirs(f"{base}/v2")
    pq.write_table(a, f"{base}/v1/a.parquet")
    pq.write_table(b, f"{base}/v1/b.parquet")
    pq.write_table(a_rev, f"{base}/v2/a.parquet")   # reordered -> same
    pq.write_table(b2, f"{base}/v2/b.parquet")      # changed
    pq.write_table(a, f"{base}/v2/c.parquet")       # added
    cols = ["doc_id", "text"]
    d = manifest_diff(snapshot_manifest(f"{base}/v1", cols),
                      snapshot_manifest(f"{base}/v2", cols))
    assert list(zip(d["file"], d["status"])) == [("b.parquet", "changed"),
                                                 ("c.parquet", "added")]
    assert list(d["n_rows_old"]) == [1, -1]
    d0 = manifest_diff(snapshot_manifest(f"{base}/v1", cols),
                       snapshot_manifest(f"{base}/v1", cols))
    assert len(d0) == 0


def test_sample_balanced_equalizes_classes():
    """Every class ends at exactly min-class size; selection is a pure
    function of ids (block-layout invariant)."""
    import ray.data as rd

    from sagan_ray.datapipe.curate import sample_balanced

    tbl = pa.table({"vec_id": pa.array(range(100), pa.int64()),
                    "label": pa.array([0] * 50 + [1] * 30 + [2] * 20,
                                      pa.int64())})

    def run(ds, dsc):
        out = sample_balanced(ds, label_col="label", id_col="vec_id",
                              ds_counts=dsc)
        if hasattr(out, "to_pandas"):
            out = out.to_pandas()
        return out.sort_values(["label", "rk"]).reset_index(drop=True)

    a = run(rd.from_arrow(tbl), rd.from_arrow(tbl))
    b = run(rd.from_arrow(tbl).repartition(7),
            rd.from_arrow(tbl).repartition(3))
    assert a.equals(b)
    assert a.groupby("label").size().tolist() == [20, 20, 20]
    # smallest class is kept whole
    assert set(a[a["label"] == 2]["vec_id"]) == set(range(80, 100))


def test_line_filter_predicates():
    """Each predicate arm against a hand-built doc; cleaned text keeps
    original order; all-dropped doc yields empty string."""
    import ray.data as rd

    from sagan_ray.datapipe.lines import line_filter

    doc = "\n".join([
        "good line stays here.",        # kept
        "too short.",                   # < 3 words
        "no terminal punctuation here", # no punct
        "THIS IS SHOUTING LOUDLY!",     # all-caps
        "1 2 3 4!",                     # no letters -> caps rule off, kept
        "",                             # empty
        'quoted ending works fine."',   # kept
    ])
    tbl = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                    "text": [doc, "DROP ME NOW!"]})
    out = (line_filter(rd.from_arrow(tbl)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out.loc[0, "n_lines"] == 7 and out.loc[0, "n_kept"] == 3
    assert out.loc[0, "text_clean"] == (
        "good line stays here.\n1 2 3 4!\nquoted ending works fine.\"")
    assert out.loc[1, "n_kept"] == 0 and out.loc[1, "text_clean"] == ""


def test_minhash_calibration_semantics():
    """Identical docs calibrate at matches=64 / jaccard=1.0; the report
    is block-layout invariant; estimates correlate with exact overlap."""
    import ray.data as rd

    from sagan_ray.datapipe.dedup import minhash_calibration

    base = ["alpha beta gamma delta epsilon zeta eta theta " * 3,
            "one two three four five six seven eight nine ten " * 2]
    texts = [base[0], base[0],                       # exact dup
             base[1], base[1][:-6] + "CHANGED",      # near dup
             "totally different words here apart from nothing"]
    tbl = pa.table({"doc_id": pa.array(range(5), pa.int64()),
                    "text": texts})

    def run(parts):
        return minhash_calibration(
            lambda: rd.from_arrow(tbl).repartition(parts))

    a, b = run(1), run(4)
    assert a.equals(b)
    exact = a[(a["a"] == 0) & (a["b"] == 1)]
    assert len(exact) == 1
    assert exact["matches"].iloc[0] == 64
    assert exact["jaccard"].iloc[0] == 1.0
    near = a[(a["a"] == 2) & (a["b"] == 3)]
    if len(near):                    # banded candidates: recall, not cert
        assert 0 < near["jaccard"].iloc[0] < 1
        assert near["matches"].iloc[0] < 64


def test_concat_chunk_spans_invariants():
    """Every interior sequence sums to exactly capacity; per-doc token
    totals are preserved; boundary-crossing docs split correctly; the
    unsorted-blocks guard raises."""
    import pytest
    import ray.data as rd

    from sagan_ray.datapipe.pack import concat_chunk_spans

    counts = [3, 5, 9, 2, 0, 7]             # doc 4 empty -> no rows
    tbl = pa.table({"doc_id": pa.array(range(6), pa.int64()),
                    "n_tokens": pa.array(counts, pa.int64())})
    out = (concat_chunk_spans(rd.from_arrow(tbl), capacity=8,
                              count_col="n_tokens").to_pandas()
           .sort_values(["seq_id", "doc_id"]).reset_index(drop=True))
    # stream: 3+5 | 9 -> crosses two boundaries? cum: doc2 spans 8..17
    per_doc = out.groupby("doc_id")["n_tokens"].sum().to_dict()
    assert per_doc == {0: 3, 1: 5, 2: 9, 3: 2, 5: 7}
    per_seq = out.groupby("seq_id")["n_tokens"].sum()
    total = sum(counts)
    assert per_seq.iloc[:-1].eq(8).all()
    assert per_seq.sum() == total
    # doc 2 (9 tokens starting at offset 8) spans seqs 1 and 2
    d2 = out[out["doc_id"] == 2]
    assert list(zip(d2["seq_id"], d2["n_tokens"])) == [(1, 8), (2, 1)]
    # overlapping id ranges across blocks must be refused
    shuffled = pa.table({"doc_id": pa.array([0, 2, 1, 3], pa.int64()),
                         "n_tokens": pa.array([1, 1, 1, 1], pa.int64())})
    with pytest.raises(ValueError):
        concat_chunk_spans(rd.from_arrow(shuffled).repartition(2),
                           capacity=2, count_col="n_tokens").to_pandas()


def test_rouge1_recall_clipping():
    """Clipped-count semantics against hand values: repeats in the
    candidate clip at the reference count; identical text scores 1.0;
    disjoint scores 0.0; empty reference scores 0.0."""
    import ray.data as rd

    from sagan_ray.datapipe.lines import rouge1_recall

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "ref": ["a a b c", "x y z", "q r", ""],
        "cand": ["a a a b", "x y z", "s t", "anything"]})
    out = (rouge1_recall(rd.from_arrow(tbl).repartition(2),
                         ref_col="ref", cand_col="cand")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # doc 1: ref counts a:2 b:1 c:1; cand a:3 b:1 -> min sums 2+1=3 of 4
    assert list(zip(out["overlap"], out["ref_total"])) == [
        (3, 4), (3, 3), (0, 2), (0, 0)]
    assert out["rouge1"].tolist() == [0.75, 1.0, 0.0, 0.0]


def test_rouge2_gram_semantics():
    """Bigram clipping vs hand values; n-grams never span rows; a
    one-word reference has no bigrams."""
    import ray.data as rd

    from sagan_ray.datapipe.lines import rouge_recall

    tbl = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "ref": ["a b a b c", "solo"],
        "cand": ["a b a b", "solo solo"]})
    out = (rouge_recall(rd.from_arrow(tbl).repartition(2), ref_col="ref",
                        cand_col="cand", n_gram=2)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # ref bigrams: ab, ba, ab, bc (ab:2 ba:1 bc:1); cand: ab:2 ba:1
    assert list(zip(out["overlap"], out["ref_total"])) == [(3, 4),
                                                           (0, 0)]
    assert out["rouge1"].tolist() == [0.75, 0.0]


def test_rouge_l_order_sensitivity():
    """LCS distinguishes order where bag overlap cannot: reversed
    candidate drops ROUGE-L but not ROUGE-1; identical text = 1.0."""
    import ray.data as rd

    from sagan_ray.datapipe.lines import rouge_l_recall, rouge_recall

    tbl = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "ref": ["a b c d e", "a b c"],
        "cand": ["e d c b a", "a b c"]})
    ds = rd.from_arrow(tbl)
    l = (rouge_l_recall(ds, ref_col="ref", cand_col="cand").to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    r1 = (rouge_recall(rd.from_arrow(tbl), ref_col="ref",
                       cand_col="cand").to_pandas()
          .sort_values("doc_id").reset_index(drop=True))
    assert r1.loc[0, "rouge1"] == 1.0       # bag overlap is blind
    assert l.loc[0, "lcs"] == 1             # LCS of x vs reversed x
    assert l.loc[0, "rouge_l"] == 0.2
    assert l.loc[1, "rouge_l"] == 1.0


def test_text_metrics_split_words_on_re2_space(tmp_path):
    """The text metrics share one word definition, RE2 ``\\s`` =
    [\\t\\n\\f\\r ]: \\xa0, \\v, U+2003 and \\x1c stay inside a word,
    though Python's ``str.split()`` splits on them. ROUGE-L counts the
    same reference words as ROUGE-N, ROUGE-1 equals the DuckDB oracle
    on the shared gate candidate, and the BLEU golden's spec equals
    ``bleu_scores`` on such rows."""
    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from sagan_ray.datapipe.lines import (bleu_scores, rouge_l_recall,
                                          rouge_recall)
    from sagan_ray.oracle.golden import write_golden_bleu
    from sagan_ray.pipelines.queries import (SQL_TEXT_ROUGE,
                                             _first10_doubled_cand)

    texts = ["alpha\xa0beta gamma delta alpha\xa0beta",
             "one\vtwo three\tfour five one\vtwo",
             "x\u2003y z x\u2003y z w",
             "p\x1cq r s\nt u v w x y z end p\x1cq",
             "\xa0lead\xa0 mid\u2003 tail\v"]
    docs = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                     "text": texts})
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    ds = rd.from_arrow(_first10_doubled_cand(docs))

    def by_id(d):
        return (d.to_pandas().sort_values("doc_id")
                .reset_index(drop=True))

    rl = by_id(rouge_l_recall(ds, ref_col="text", cand_col="cand"))
    r1 = by_id(rouge_recall(ds, ref_col="text", cand_col="cand"))
    assert rl["ref_total"].tolist() == r1["ref_total"].tolist()
    assert r1["ref_total"].tolist() == [4, 5, 5, 12, 3]
    # the candidate keeps the metrics' words: "\xa0lead\xa0" stays whole,
    # so row 5 overlaps on all 3 reference words
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM read_parquet("
                f"'{tmp_path / 'documents.parquet'}')")
    sql = con.execute(SQL_TEXT_ROUGE).df()
    cols = ["doc_id", "overlap", "ref_total", "rouge1"]
    pd.testing.assert_frame_equal(r1[cols], sql[cols], check_dtype=False,
                                  check_exact=True)
    assert r1["overlap"].tolist()[4] == 3

    got = by_id(bleu_scores(ds, ref_col="text", cand_col="cand"))
    want = (pq.read_table(write_golden_bleu(str(tmp_path))).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[list(want.columns)], want,
                                  check_exact=True)


def test_bleu_hand_values():
    """BLEU-4 component counts vs hand values: identical text has all
    precisions 1 and bleu 1.0; a clipped repeat candidate matches the
    hand-computed smoothed geometric mean; disjoint text scores 0.0;
    an empty candidate scores 0.0 with zero totals."""
    import math

    import ray.data as rd

    from sagan_ray.datapipe.lines import bleu_scores

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "ref": ["a b c d", "a b c d e f", "x y", "a b"],
        "cand": ["a b c d", "a b a b", "q r s", ""]})
    out = (bleu_scores(rd.from_arrow(tbl).repartition(2), ref_col="ref",
                       cand_col="cand")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # doc 1: every n-gram matches, cand_len == ref_len -> bleu 1.0
    assert out.loc[0, "bleu"] == 1.0
    assert list(out.loc[0, ["clip1", "tot1", "clip4", "tot4"]]) == \
        [4, 4, 1, 1]
    # doc 2: cand a b a b vs ref a b c d e f
    # clip1: a,b each clipped at 1 -> 2 of 4; clip2: 'a b' x2 clipped
    # at ref count 1 -> 1 of 3; 'b a' miss; clip3/clip4: 0
    assert list(out.loc[1, ["clip1", "tot1", "clip2", "tot2",
                            "clip3", "tot3", "clip4", "tot4"]]) == \
        [2, 4, 1, 3, 0, 2, 0, 1]
    p = [2 / 4, (1 + 1) / (3 + 1), (0 + 1) / (2 + 1), (0 + 1) / (1 + 1)]
    bp = math.exp(1.0 - 6 / 4)
    want = bp * math.exp(sum(math.log(x) for x in p) / 4)
    assert abs(out.loc[1, "bleu"] - want) < 1e-12
    # doc 3: no unigram overlap -> hard 0
    assert out.loc[2, "bleu"] == 0.0 and out.loc[2, "clip1"] == 0
    # doc 4: empty candidate -> 0, zero totals
    assert out.loc[3, "bleu"] == 0.0
    assert list(out.loc[3, ["tot1", "cand_len"]]) == [0, 0]


def test_bleu_matches_golden_kernel_multibatch():
    """The incremental-factorize batch path equals a sequential
    Counter replay through the shared kernel, across multiple batches
    with a vocabulary large enough to stress the re-factorize step."""
    from collections import Counter

    import ray.data as rd

    from sagan_ray.datapipe.lines import _bleu_from_counts, bleu_scores

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(200)]
    refs, cands = [], []
    for i in range(60):
        n = int(rng.integers(0, 30))
        ref = [vocab[int(rng.integers(0, len(vocab)))]
               for _ in range(n)]
        m = int(rng.integers(0, 20))
        cand = (ref[:m // 2]
                + [vocab[int(rng.integers(0, len(vocab)))]
                   for _ in range(m - m // 2)])
        refs.append(" ".join(ref))
        cands.append(" ".join(cand))
    tbl = pa.table({"doc_id": pa.array(np.arange(60, dtype=np.int64)),
                    "ref": refs, "cand": cands})
    out = (bleu_scores(rd.from_arrow(tbl).repartition(5), ref_col="ref",
                       cand_col="cand")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))

    clip = np.zeros((60, 4), np.int64)
    tot = np.zeros((60, 4), np.int64)
    rl = np.zeros(60, np.int64)
    cl = np.zeros(60, np.int64)
    for i, (r, c) in enumerate(zip(refs, cands)):
        ra, ca = r.split(), c.split()
        rl[i], cl[i] = len(ra), len(ca)
        for ng in range(1, 5):
            rc = Counter(tuple(ra[j:j + ng])
                         for j in range(len(ra) - ng + 1))
            cc = Counter(tuple(ca[j:j + ng])
                         for j in range(len(ca) - ng + 1))
            clip[i, ng - 1] = sum(min(v, rc.get(g, 0))
                                  for g, v in cc.items())
            tot[i, ng - 1] = max(len(ca) - ng + 1, 0)
    want = _bleu_from_counts(clip, tot, rl, cl)
    for j in range(4):
        assert out[f"clip{j + 1}"].to_numpy().tolist() == \
            clip[:, j].tolist()
        assert out[f"tot{j + 1}"].to_numpy().tolist() == \
            tot[:, j].tolist()
    assert out["bleu"].to_numpy().tolist() == want.tolist()


def test_chrf_hand_values():
    """chrF components vs hand values on tiny strings: identical text
    scores 1.0; whitespace removal makes grams cross word boundaries;
    disjoint text scores 0.0; empty candidate scores 0.0."""
    import ray.data as rd

    from sagan_ray.datapipe.lines import chrf_scores

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "ref": ["a b", "xy", "ab"],
        "cand": ["ab", "qq", ""]})
    out = (chrf_scores(rd.from_arrow(tbl).repartition(2), ref_col="ref",
                       cand_col="cand")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # doc 1: ref de-spaced == cand ("ab") -> perfect up to n=2,
    # orders 3..6 excluded (no grams on either side) -> chrf 1.0
    assert out.loc[0, "chrf"] == 1.0
    assert list(out.loc[0, ["clip1", "ctot1", "rtot1",
                            "clip2", "ctot2", "rtot2"]]) == \
        [2, 2, 2, 1, 1, 1]
    assert out.loc[1, "chrf"] == 0.0          # disjoint chars
    assert out.loc[2, "chrf"] == 0.0          # empty candidate
    assert out.loc[2, "ctot1"] == 0


def test_chrf_matches_sequential_counts():
    """Packed-byte gram codes equal per-row substring Counters through
    the shared kernel across multiple batches (incl. repeats and
    longer-than-6-char rows)."""
    from collections import Counter

    import ray.data as rd

    from sagan_ray.datapipe.lines import _chrf_from_counts, chrf_scores

    rng = np.random.default_rng(11)
    alpha = "abcdef "
    refs = ["".join(alpha[int(rng.integers(0, len(alpha)))]
                    for _ in range(int(rng.integers(0, 25))))
            for _ in range(40)]
    cands = [r[: int(rng.integers(0, len(r) + 1))] + "xx"
             for r in refs]
    # non-ASCII rows: the documented BYTE-level deviation — multi-byte
    # chars count as byte grams on BOTH sides (operator and reference)
    refs[7] = "caf\u00e9 r\u00e9sum\u00e9"
    cands[7] = "caf\u00e9 menu"
    tbl = pa.table({"doc_id": pa.array(np.arange(40, dtype=np.int64)),
                    "ref": refs, "cand": cands})
    out = (chrf_scores(rd.from_arrow(tbl).repartition(4), ref_col="ref",
                       cand_col="cand")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    clip = np.zeros((40, 6), np.int64)
    ctot = np.zeros((40, 6), np.int64)
    rtot = np.zeros((40, 6), np.int64)
    ws = frozenset(b"\t\n\x0b\x0c\r ")
    for i, (r, c) in enumerate(zip(refs, cands)):
        rs = bytes(x for x in r.lower().encode() if x not in ws)
        cs = bytes(x for x in c.lower().encode() if x not in ws)
        for ng in range(1, 7):
            rc = Counter(rs[j:j + ng] for j in range(len(rs) - ng + 1))
            cc = Counter(cs[j:j + ng] for j in range(len(cs) - ng + 1))
            clip[i, ng - 1] = sum(min(v, rc.get(g, 0))
                                  for g, v in cc.items())
            ctot[i, ng - 1] = max(len(cs) - ng + 1, 0)
            rtot[i, ng - 1] = max(len(rs) - ng + 1, 0)
    want = _chrf_from_counts(clip, ctot, rtot)
    for j in range(6):
        assert out[f"clip{j + 1}"].tolist() == clip[:, j].tolist()
        assert out[f"ctot{j + 1}"].tolist() == ctot[:, j].tolist()
        assert out[f"rtot{j + 1}"].tolist() == rtot[:, j].tolist()
    assert out["chrf"].tolist() == want.tolist()


def test_corpus_bleu_micro_not_macro():
    """Corpus BLEU sums integer components before the ratio — on a
    corpus where one doc matches perfectly and one not at all, the
    micro score differs from the mean of per-doc scores; components
    equal the summed per-doc components across blocks."""
    import ray.data as rd

    from sagan_ray.datapipe.lines import bleu_scores, corpus_bleu

    tbl = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "ref": ["a b c d e", "x y z w"],
        "cand": ["a b c d e", "q r"]})
    ds = rd.from_arrow(tbl).repartition(2)
    per = (bleu_scores(ds, ref_col="ref", cand_col="cand").to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    corp = corpus_bleu(rd.from_arrow(tbl).repartition(2),
                       ref_col="ref", cand_col="cand")
    assert len(corp) == 1
    for j in range(1, 5):
        assert corp.loc[0, f"clip{j}"] == per[f"clip{j}"].sum()
        assert corp.loc[0, f"tot{j}"] == per[f"tot{j}"].sum()
    assert corp.loc[0, "ref_len"] == 9
    assert corp.loc[0, "cand_len"] == 7
    macro = per["bleu"].mean()
    assert corp.loc[0, "bleu"] != macro
    assert 0.0 < corp.loc[0, "bleu"] < 1.0


def test_wer_hand_values():
    """Word-level Levenshtein vs hand values: identity 0; one
    substitution; pure insertion/deletion; reversed order costs
    (classic WER > 0 where bag metrics say perfect); empty sides."""
    import ray.data as rd

    from sagan_ray.datapipe.lines import wer_scores

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "ref": ["a b c", "a b c", "a b", "a b c d", "", "a b c"],
        "cand": ["a b c", "a x c", "a b c d", "a b", "x y", ""]})
    out = (wer_scores(rd.from_arrow(tbl).repartition(3), ref_col="ref",
                      cand_col="cand")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["dist"].tolist() == [0, 1, 2, 2, 2, 3]
    assert out["ref_total"].tolist() == [3, 3, 2, 4, 0, 3]
    assert out.loc[0, "wer"] == 0.0
    assert out.loc[1, "wer"] == 1 / 3
    assert out.loc[4, "wer"] == 0.0          # empty ref convention
    assert out.loc[5, "wer"] == 1.0


def test_wer_matches_python_dp_multibatch():
    """Row-axis-vectorized DP equals a classic per-row 2-D table over
    random token sequences across blocks (variable lengths, repeats,
    empty rows)."""
    import ray.data as rd

    from sagan_ray.datapipe.lines import wer_scores

    rng = np.random.default_rng(5)
    vocab = [f"t{i}" for i in range(12)]
    refs, cands = [], []
    for _ in range(50):
        refs.append(" ".join(vocab[int(rng.integers(0, 12))]
                             for _ in range(int(rng.integers(0, 15)))))
        cands.append(" ".join(vocab[int(rng.integers(0, 12))]
                              for _ in range(int(rng.integers(0, 12)))))
    tbl = pa.table({"doc_id": pa.array(np.arange(50, dtype=np.int64)),
                    "ref": refs, "cand": cands})
    out = (wer_scores(rd.from_arrow(tbl).repartition(5), ref_col="ref",
                      cand_col="cand")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))

    def lev(a, b):
        dp = list(range(len(b) + 1))
        for i, x in enumerate(a, 1):
            nd = [i] + [0] * len(b)
            for j, y in enumerate(b, 1):
                nd[j] = min(dp[j] + 1, nd[j - 1] + 1,
                            dp[j - 1] + (x != y))
            dp = nd
        return dp[-1]

    for i, (r, c) in enumerate(zip(refs, cands)):
        assert out.loc[i, "dist"] == lev(r.split(), c.split()), i


def test_splitmix64_matches_int_reference():
    """The vectorized SplitMix64 (``hashing._splitmix64``, behind bpe,
    curate, sketch, quality_model and the CDC gear table) equals the
    golden's plain-int replay on edge ids: 0, 1, 2^63, 2^64-1, the
    ids around the wrap of the ``+ 0x9E3779B97F4A7C15`` step, and a
    seeded random sample."""
    from sagan_ray.datapipe.hashing import _splitmix64
    from sagan_ray.oracle.golden import _splitmix64_int

    gamma = 0x9E3779B97F4A7C15
    wrap = (1 << 64) - gamma           # first id whose step wraps to 0
    edge = [0, 1, 1 << 63, (1 << 64) - 1, wrap - 1, wrap, wrap + 1]
    rng = np.random.RandomState(64)
    sample = rng.randint(0, 1 << 32, size=(1000, 2)).astype(np.uint64)
    ids = edge + [int(hi) << 32 | int(lo) for hi, lo in sample]
    got = _splitmix64(np.array(ids, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert [int(v) for v in got] == [_splitmix64_int(i) for i in ids]
