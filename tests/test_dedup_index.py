"""Tests for the persistent MinHash-LSH dedup index
(datapipe.dedup_index): search must find exactly the in-line LSH path's
verified pairs (same band-key kernels by construction), append must be
bit-equal to a full rebuild, and degenerate inputs (empty corpus hit
set, empty/short query text, self-match) must behave. The sf0.01 hash
gate (dedup_minhash_index) covers corpus-scale parity against the SQL
exact-Jaccard oracle including the build→append→search chain."""

import pandas as pd
import pyarrow as pa


def _ds(texts, ids=None):
    import ray.data as rd
    ids = list(range(len(texts))) if ids is None else ids
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string())}))


CORPUS = [
    "alpha beta gamma delta epsilon zeta eta theta",          # 0
    "alpha beta gamma delta epsilon zeta eta theta",          # 1 dup of 0
    "completely different words about ray data pipelines",    # 2
    "alpha beta gamma delta epsilon zeta eta iota",           # 3 near 0
    "short",                                                  # 4
    "",                                                       # 5
]


def _search_df(idx, qids, qtexts, threshold=0.5):
    from sagan_ray.datapipe.dedup_index import search_minhash_index
    out = search_minhash_index(idx, qids, qtexts,
                               threshold=threshold).to_pandas()
    if len(out) == 0:
        return pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                             "doc_id": pd.Series(dtype="int64"),
                             "jaccard": pd.Series(dtype="float64")})
    return (out.astype({"query_id": "int64", "doc_id": "int64",
                        "jaccard": "float64"})
            .sort_values(["query_id", "doc_id"]).reset_index(drop=True))


def test_search_finds_dups_and_exact_jaccard(tmp_path):
    from sagan_ray.datapipe.dedup import _jaccard
    from sagan_ray.datapipe.dedup_index import build_minhash_index

    idx = str(tmp_path / "mh")
    assert build_minhash_index(_ds(CORPUS), idx) == len(CORPUS)
    got = _search_df(idx, [0], [CORPUS[0]], threshold=0.5)
    # doc 1 is an exact dup (J=1.0), doc 0 is the self-match, doc 3 is
    # a near-dup whose EXACT jaccard must be reported
    assert set(got["doc_id"]) >= {0, 1}
    for r in got.itertuples(index=False):
        assert abs(r.jaccard - _jaccard(CORPUS[0], CORPUS[r.doc_id])) == 0
    assert got[got.doc_id == 0]["jaccard"].iloc[0] == 1.0
    assert got[got.doc_id == 1]["jaccard"].iloc[0] == 1.0
    # nothing below threshold sneaks in
    assert (got["jaccard"] >= 0.5).all()


def test_append_bit_equal_to_rebuild(tmp_path):
    from sagan_ray.datapipe.dedup_index import (build_minhash_index,
                                                update_minhash_index)

    full = str(tmp_path / "full")
    build_minhash_index(_ds(CORPUS), full)
    split = str(tmp_path / "split")
    build_minhash_index(_ds(CORPUS[:3], ids=[0, 1, 2]), split)
    n = update_minhash_index(split, _ds(CORPUS[3:], ids=[3, 4, 5]))
    assert n == len(CORPUS)
    qids = list(range(len(CORPUS)))
    a = _search_df(full, qids, CORPUS, threshold=0.3)
    b = _search_df(split, qids, CORPUS, threshold=0.3)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > len(CORPUS)      # more than just self-matches


def test_degenerate_queries_and_misses(tmp_path):
    from sagan_ray.datapipe.dedup_index import build_minhash_index

    idx = str(tmp_path / "mh")
    build_minhash_index(_ds(CORPUS), idx)
    # empty query text: matches the indexed empty doc exactly (the
    # empty-sequence shingle is a real shingle identity)
    got = _search_df(idx, [99], [""], threshold=0.9)
    assert got["doc_id"].tolist() == [5]
    assert got["jaccard"].tolist() == [1.0]
    # a query unlike anything indexed returns nothing
    none = _search_df(idx, [7], ["xyzzy plugh quux foobar"], threshold=0.5)
    assert len(none) == 0
    # no queries at all
    empty = _search_df(idx, [], [], threshold=0.5)
    assert len(empty) == 0


def test_compact_preserves_search_bit_equal(tmp_path):
    """After build + update, compaction rewrites both partition trees;
    search results are bit-equal and the file count does not grow."""
    import os

    from sagan_ray.datapipe.dedup_index import (build_minhash_index,
                                                compact_minhash_index,
                                                update_minhash_index)

    idx = str(tmp_path / "idx")
    build_minhash_index(_ds(CORPUS[:3], ids=[0, 1, 2]), idx)
    update_minhash_index(idx, _ds(CORPUS[3:], ids=[3, 4, 5]))

    def count_files():
        n = 0
        for sub in ("shingles", "bands"):
            for _r, _d, files in os.walk(os.path.join(idx, sub)):
                n += sum(1 for f in files if f.endswith(".parquet"))
        return n

    before_files = count_files()
    qids = list(range(len(CORPUS)))
    before = _search_df(idx, qids, CORPUS, threshold=0.3)
    after_files = compact_minhash_index(idx)
    assert after_files <= before_files
    after = _search_df(idx, qids, CORPUS, threshold=0.3)
    pd.testing.assert_frame_equal(before, after)
