"""The transcript aggregates (pipelines.aggregates) — hand-computed
cases: pair adjacency, boilerplate turns, context windows."""

import pyarrow as pa


def _ds(tbl: pa.Table):
    import ray.data as rd
    return rd.from_arrow(tbl)


def test_adjacent_pairs_hand_check():
    """Pair = row adjacency in turn order within one conv: roles must
    match exactly, conv boundaries break pairs, lengths exact."""
    from sagan_ray.pipelines.aggregates import adjacent_pairs

    tbl = pa.table({
        "conv_id": ["c1", "c1", "c1", "c1", "c2", "c2"],
        "turn_idx": pa.array([0, 1, 2, 3, 0, 1], pa.int32()),
        "role": ["user", "assistant", "assistant", "user",
                 "assistant", "user"],
        "text": ["hi", "hello!", "more", "bye", "orphan", "x"],
    })
    out = (adjacent_pairs(_ds(tbl), prev_role="user",
                          next_role="assistant").to_pandas()
           .sort_values(["conv_id", "turn_idx"]))
    # only c1 turn 1 qualifies (turn 2 follows assistant; c2 turn 0 has
    # no predecessor — conv boundary from c1 must not leak)
    assert out["conv_id"].tolist() == ["c1"]
    assert out["turn_idx"].tolist() == [1]
    assert out["prompt_n"].tolist() == [2]
    assert out["response_n"].tolist() == [6]


def test_boilerplate_turns_hand_check():
    """A turn text in >= min_convs distinct convs is dropped everywhere
    (even on repeats within one conv); distinctness is per conv, not per
    occurrence; an all-boilerplate conv keeps its row with doc_text ''."""
    from sagan_ray.pipelines.aggregates import boilerplate_turns

    tbl = pa.table({
        "conv_id": ["c1", "c1", "c1", "c2", "c2", "c3", "c3", "c3"],
        "turn_idx": pa.array([0, 1, 2, 0, 1, 0, 1, 2], pa.int32()),
        "role": ["sys", "user", "sys", "sys", "user", "sys", "sys",
                 "user"],
        "text": ["BANNER", "hi", "BANNER", "BANNER", "yo", "BANNER",
                 "BANNER", "hm"],
    })
    out = (boilerplate_turns(_ds(tbl), min_convs=3).to_pandas()
           .sort_values("conv_id").reset_index(drop=True))
    # BANNER appears in 3 distinct convs -> boiler; repeats inside c1/c3
    # are each counted in n_boiler
    assert out["conv_id"].tolist() == ["c1", "c2", "c3"]
    assert out["n_boiler"].tolist() == [2, 1, 2]
    assert out["n_kept"].tolist() == [1, 1, 1]
    assert out["doc_text"].tolist() == ["user: hi", "user: yo",
                                        "user: hm"]
    # raise the bar: nothing qualifies, docs = full conv_documents form
    out2 = (boilerplate_turns(_ds(tbl), min_convs=4).to_pandas()
            .sort_values("conv_id").reset_index(drop=True))
    assert out2["n_boiler"].tolist() == [0, 0, 0]
    assert out2["doc_text"].tolist()[0] == "sys: BANNER\nuser: hi\nsys: BANNER"


def test_boilerplate_turns_all_boiler_conv():
    from sagan_ray.pipelines.aggregates import boilerplate_turns

    tbl = pa.table({
        "conv_id": ["a", "b", "c", "a"],
        "turn_idx": pa.array([0, 0, 0, 1], pa.int32()),
        "role": ["sys", "sys", "sys", "user"],
        "text": ["T", "T", "T", "q"],
    })
    out = (boilerplate_turns(_ds(tbl), min_convs=2).to_pandas()
           .sort_values("conv_id").reset_index(drop=True))
    assert out["doc_text"].tolist() == ["user: q", "", ""]
    assert out["n_kept"].tolist() == [1, 0, 0]


def test_context_windows_frames_and_conv_boundaries():
    """Window frames never cross a conversation; a turn with fewer than
    window-1 predecessors gets the shorter prefix; window=1 is the
    identity; order inside the frame is turn order."""
    from sagan_ray.pipelines.aggregates import context_windows

    tbl = pa.table({
        "conv_id": pa.array(["c1", "c1", "c1", "c1", "c2"], pa.string()),
        "turn_idx": pa.array([0, 1, 2, 3, 0], pa.int64()),
        "text": pa.array(["a", "b", "c", "d", "x"], pa.string()),
    })
    out = (context_windows(_ds(tbl), window=3).to_pandas()
           .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    assert out["context"].tolist() == [
        "a", "a | b", "a | b | c", "b | c | d", "x"]
    one = (context_windows(_ds(tbl), window=1).to_pandas()
           .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    assert one["context"].tolist() == ["a", "b", "c", "d", "x"]
