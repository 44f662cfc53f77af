"""PageRank over a link-graph edge table — the web-centrality operator a
100-TB crawl-curation pipeline runs before sampling (rank-weighted
keep/drop). Beyond the reference's scope (it has no graph stage); sits
next to the other iterative distributed operators (cluster.py k-means,
dedup.py connected components).

Exact-integer spec (the ``datapipe/cluster.py`` fixed-point discipline,
so the distributed run is bit-identical to the sequential golden under
any block layout):

- ranks are int64 on a per-node 2^30 grid:  r0[v] = 2^30 for all v
  (total mass  S = n·2^30  exactly);
- per iteration, with d = d_num/d_den (default 85/100):
    contrib[u] = r[u] // outdeg[u]          (floor division, spec)
    in[v]      = Σ contrib[u] over edges u→v   (multi-edges count)
    dangling   = Σ r[u] over outdeg[u] == 0
    r'[v]      = (d_den - d_num)·(S // n) // d_den
                 + d_num·(in[v] + dangling // n) // d_den
  Every term is an exact int64 sum of int64 values (|r| ≤ S ≤ 2^53 for
  n ≤ 2^23 nodes at this grid; the per-node caps are asserted), so the
  order the edge blocks are reduced in cannot change a single bit.
  Floor divisions leak O(n + outdeg) grid units of mass per iteration —
  deliberate: exactness is worth a ~2^-30 relative mass drift.

Distribution shape (the 100-TB story): edges are read once, hashed by
src is NOT needed — the per-block map pass computes a dense int64
partial in-vector with ``np.add.at`` against the BROADCAST rank/outdeg
arrays (``ray.put`` once per iteration, |V|·8 bytes), and only those
(node, partial) rows — bounded by |V| per block — return to the
combiner. Nodes must fit one machine (true for any real web graph's
node table vs its edge table); edges never re-shuffle and the Dataset
is materialized once so iterations replay blocks, not the read.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

PR_GRID = 1 << 30          # per-node fixed-point rank scale (spec)


def _outdeg(edges_mat, n_nodes: int) -> np.ndarray:
    """int64 out-degree vector via per-block bincount partials."""

    def part(tbl: pa.Table) -> pa.Table:
        src = tbl.column("src").to_numpy(zero_copy_only=False)
        cnt = np.bincount(src, minlength=n_nodes).astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pa.table({"node": pa.array(nz, pa.int64()),
                         "c": pa.array(cnt[nz], pa.int64())})

    deg = np.zeros(n_nodes, dtype=np.int64)
    for b in edges_mat.map_batches(part, batch_format="pyarrow",
                                   batch_size=None).iter_batches(
                                       batch_format="pyarrow"):
        np.add.at(deg, b.column("node").to_numpy(zero_copy_only=False),
                  b.column("c").to_numpy(zero_copy_only=False))
    return deg


def pagerank(edges, n_nodes: int, *, n_iters: int = 10,
             d_num: int = 85, d_den: int = 100):
    """(node, rank) int64 table for nodes 0..n_nodes-1 from an edge
    Dataset with int64 columns (src, dst). See module docstring for the
    exact-integer spec and the broadcast/partial distribution shape."""
    import ray
    import ray.data as rd

    assert n_nodes <= (1 << 23), "rank grid overflows int64 past 2^23 nodes"
    edges = edges.materialize()     # iterations replay blocks, not reads
    deg = _outdeg(edges, n_nodes)
    r = np.full(n_nodes, PR_GRID, dtype=np.int64)
    s_total = n_nodes * PR_GRID
    base = (d_den - d_num) * (s_total // n_nodes) // d_den

    for _ in range(n_iters):
        contrib = np.zeros(n_nodes, dtype=np.int64)
        nz = deg > 0
        contrib[nz] = r[nz] // deg[nz]
        dangling = int(r[~nz].sum())
        ref = ray.put(contrib)

        def part(tbl: pa.Table, *, _ref=ref) -> pa.Table:
            c = ray.get(_ref)
            dst = tbl.column("dst").to_numpy(zero_copy_only=False)
            src = tbl.column("src").to_numpy(zero_copy_only=False)
            acc = np.zeros(len(c), dtype=np.int64)
            np.add.at(acc, dst, c[src])
            nzp = np.flatnonzero(acc)
            return pa.table({"node": pa.array(nzp, pa.int64()),
                             "s": pa.array(acc[nzp], pa.int64())})

        in_v = np.zeros(n_nodes, dtype=np.int64)
        for b in edges.map_batches(part, batch_format="pyarrow",
                                   batch_size=None).iter_batches(
                                       batch_format="pyarrow"):
            np.add.at(in_v, b.column("node").to_numpy(zero_copy_only=False),
                      b.column("s").to_numpy(zero_copy_only=False))
        r = base + d_num * (in_v + dangling // n_nodes) // d_den

    return rd.from_arrow(pa.table({"node": pa.array(np.arange(n_nodes),
                                                    pa.int64()),
                                   "rank": pa.array(r, pa.int64())}))


def dedup_undirected(edges):
    """Materialized Dataset of unique canonical (a, b) = (min, max)
    undirected edges from a (src, dst) edge Dataset — direction,
    multiplicity and self-loops dropped through one (a,b)-keyed
    exchange. Shared front end of the simple-graph operators
    (triangle_counts, k_core, degree_histogram)."""
    from .exchange import hash_group_apply

    canon_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])

    def canon(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        a = np.minimum(s, d)
        b = np.maximum(s, d)
        keep = a != b
        return pa.table({"a": pa.array(a[keep], pa.int64()),
                         "b": pa.array(b[keep], pa.int64())})

    def uniq(df):
        return df.drop_duplicates(["a", "b"])

    return hash_group_apply(
        edges.map_batches(canon, batch_format="pyarrow", batch_size=None),
        ["a", "b"], uniq, out_schema=canon_schema).materialize()


def undirected_degrees(ded, n_nodes: int) -> np.ndarray:
    """int64 degree vector of a `dedup_undirected` Dataset via
    per-block bincount partials (≤ |V| rows cross per block)."""

    def degpart(tbl: pa.Table) -> pa.Table:
        a = tbl.column("a").to_numpy(zero_copy_only=False)
        b = tbl.column("b").to_numpy(zero_copy_only=False)
        cnt = (np.bincount(a, minlength=n_nodes)
               + np.bincount(b, minlength=n_nodes)).astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pa.table({"node": pa.array(nz, pa.int64()),
                         "c": pa.array(cnt[nz], pa.int64())})

    deg = np.zeros(n_nodes, dtype=np.int64)
    for t in ded.map_batches(degpart, batch_format="pyarrow",
                             batch_size=None).iter_batches(
                                 batch_format="pyarrow"):
        np.add.at(deg, t.column("node").to_numpy(zero_copy_only=False),
                  t.column("c").to_numpy(zero_copy_only=False))
    return deg


def triangle_counts(edges, n_nodes: int):
    """(node, n_tri) — EXACT per-node triangle counts over the
    undirected simple graph induced by a (src, dst) edge Dataset
    (direction, multiplicity and self-loops ignored). The clustering /
    community signal a crawl-curation pipeline ranks domains by, next to
    ``pagerank``.

    Distribution shape (the 100-TB story) — three bounded exchanges, no
    all-pairs and no uncapped quadratic bucket:

    1. canonical ``(a,b) = (min,max)`` rows dedup through an
       (a,b)-keyed exchange; the unique edge set is materialized once
       (degree pass + two downstream consumers replay blocks, not the
       read).
    2. each unique edge is oriented toward its lower-DEGREE-RANK
       endpoint ``u`` (rank = lexsort by (degree, id), broadcast once
       via ``ray.put``); a u-keyed exchange emits wedge candidates
       ``(v, w, u)`` for every pair of higher-rank neighbors of ``u``.
       This ordering IS the skew guard: every vertex has ≤ √(2m)
       higher-rank neighbors, so wedges are O(m^1.5) worst case and
       near-linear on power-law graphs (hubs rank last and emit
       nothing) — exactness survives where a posting cap would not.
    3. wedges union the edge set (side-tagged ``u = -1``) through a
       second (a,b)-keyed exchange; a wedge closes iff its bucket group
       contains the edge row. Each bucket emits (node, c) bincount
       partials over the 3 corners (≤ 3·|V| rows), folded driver-side
       into the |V|-vector (nodes fit one machine — the pagerank
       stance; edges never do and never come back).

    Every count is an exact integer; any block layout gives identical
    output, so the DuckDB 3-way self-join over the same edge parquet is
    a REAL SQL oracle (pipelines/queries.py::SQL_GRAPH_TRIANGLES)."""
    import ray
    import ray.data as rd

    from .dedup import _group_pairs_idx
    from .exchange import hash_group_apply

    assert n_nodes <= (1 << 23)
    ded = dedup_undirected(edges)
    deg = undirected_degrees(ded, n_nodes)

    rank = np.empty(n_nodes, dtype=np.int64)
    order = np.lexsort((np.arange(n_nodes), deg))
    rank[order] = np.arange(n_nodes)
    rank_ref = ray.put(rank)

    def orient(tbl: pa.Table, *, _ref=rank_ref) -> pa.Table:
        r = ray.get(_ref)
        a = tbl.column("a").to_numpy(zero_copy_only=False)
        b = tbl.column("b").to_numpy(zero_copy_only=False)
        swap = r[a] > r[b]
        return pa.table({"u": pa.array(np.where(swap, b, a), pa.int64()),
                         "w": pa.array(np.where(swap, a, b), pa.int64())})

    wedge_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                              ("u", pa.int64())])

    def wedges(df):
        u = df["u"].to_numpy()
        w = df["w"].to_numpy()
        o = np.argsort(u, kind="stable")
        u, w = u[o], w[o]
        _, counts = np.unique(u, return_counts=True)
        ai, bi = _group_pairs_idx(counts)
        v1, v2 = w[ai], w[bi]
        return pd.DataFrame({"a": np.minimum(v1, v2),
                             "b": np.maximum(v1, v2), "u": u[ai]})

    wed = hash_group_apply(
        ded.map_batches(orient, batch_format="pyarrow", batch_size=None),
        ["u"], wedges, out_schema=wedge_schema)

    def tag_edges(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "u", pa.array(np.full(len(tbl), -1, np.int64)))

    both = wed.union(ded.map_batches(tag_edges, batch_format="pyarrow",
                                     batch_size=None))
    part_schema = pa.schema([("node", pa.int64()), ("c", pa.int64())])

    def close(df):
        a = df["a"].to_numpy()
        b = df["b"].to_numpy()
        u = df["u"].to_numpy()
        o = np.lexsort((b, a))
        a, b, u = a[o], b[o], u[o]
        is_edge = u < 0
        new = np.empty(len(a), dtype=bool)
        new[0] = True
        new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        gid = np.cumsum(new) - 1
        has_edge = np.zeros(gid[-1] + 1, dtype=bool)
        has_edge[gid[is_edge]] = True
        tri = ~is_edge & has_edge[gid]
        corners = np.concatenate([a[tri], b[tri], u[tri]])
        node, c = np.unique(corners, return_counts=True)
        return pd.DataFrame({"node": node, "c": c.astype(np.int64)})

    n_tri = np.zeros(n_nodes, dtype=np.int64)
    for t in hash_group_apply(both, ["a", "b"], close,
                              out_schema=part_schema).iter_batches(
                                  batch_format="pyarrow"):
        np.add.at(n_tri, t.column("node").to_numpy(zero_copy_only=False),
                  t.column("c").to_numpy(zero_copy_only=False))
    nz = np.flatnonzero(n_tri)
    return rd.from_arrow(pa.table({"node": pa.array(nz, pa.int64()),
                                   "n_tri": pa.array(n_tri[nz],
                                                     pa.int64())}))


def edge_common_neighbors(edges, n_nodes: int):
    """(a, b, cn, jaccard) per unique undirected edge: cn = the EXACT
    common-neighbor count |N(a) ∩ N(b)| (= the edge's triangle support,
    the truss/link-prediction signal) and jaccard = cn / (deg(a) +
    deg(b) − cn) — one int/int IEEE division, bit-equal to the SQL.

    Same skeleton as ``triangle_counts`` (dedup exchange → degree-rank
    oriented wedge exchange with the √(2m) fan-out bound → closure
    exchange), but the closure buckets emit per-EDGE support partials —
    one (x, y, 1-ish) row per (triangle edge × bucket) — which flow
    through a second (a,b)-keyed exchange UNIONED with the presence-
    tagged edge set, so zero-support edges keep a row and the per-edge
    totals stay exact without anything edge-cardinality-sized touching
    the driver (edges come back only as the RESULT Dataset). Degrees
    broadcast once (|V| int64 — the pagerank node-table stance)."""
    import ray

    from .dedup import _group_pairs_idx
    from .exchange import hash_group_apply

    assert n_nodes <= (1 << 23)
    ded = dedup_undirected(edges)
    deg = undirected_degrees(ded, n_nodes)

    rank = np.empty(n_nodes, dtype=np.int64)
    order = np.lexsort((np.arange(n_nodes), deg))
    rank[order] = np.arange(n_nodes)
    rank_ref = ray.put(rank)

    def orient(tbl: pa.Table, *, _ref=rank_ref) -> pa.Table:
        r = ray.get(_ref)
        a = tbl.column("a").to_numpy(zero_copy_only=False)
        b = tbl.column("b").to_numpy(zero_copy_only=False)
        swap = r[a] > r[b]
        return pa.table({"u": pa.array(np.where(swap, b, a), pa.int64()),
                         "w": pa.array(np.where(swap, a, b), pa.int64())})

    wedge_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                              ("u", pa.int64())])

    def wedges(df):
        u = df["u"].to_numpy()
        w = df["w"].to_numpy()
        o = np.argsort(u, kind="stable")
        u, w = u[o], w[o]
        _, counts = np.unique(u, return_counts=True)
        ai, bi = _group_pairs_idx(counts)
        v1, v2 = w[ai], w[bi]
        return pd.DataFrame({"a": np.minimum(v1, v2),
                             "b": np.maximum(v1, v2), "u": u[ai]})

    wed = hash_group_apply(
        ded.map_batches(orient, batch_format="pyarrow", batch_size=None),
        ["u"], wedges, out_schema=wedge_schema)

    def tag_edges(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "u", pa.array(np.full(len(tbl), -1, np.int64)))

    both = wed.union(ded.map_batches(tag_edges, batch_format="pyarrow",
                                     batch_size=None))
    part_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                             ("c", pa.int64())])

    def close(df):
        """Per closed wedge (triangle {u,a,b}) emit +1 support for its
        THREE edges; per present edge emit a c=-1 presence marker so
        zero-support edges survive to the combine."""
        a = df["a"].to_numpy()
        b = df["b"].to_numpy()
        u = df["u"].to_numpy()
        o = np.lexsort((b, a))
        a, b, u = a[o], b[o], u[o]
        is_edge = u < 0
        new = np.empty(len(a), dtype=bool)
        new[0] = True
        new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        gid = np.cumsum(new) - 1
        has_edge = np.zeros(gid[-1] + 1, dtype=bool)
        has_edge[gid[is_edge]] = True
        tri = ~is_edge & has_edge[gid]
        ta, tb, tu = a[tri], b[tri], u[tri]
        ex = np.concatenate([ta, np.minimum(tu, ta), np.minimum(tu, tb),
                             a[is_edge]])
        ey = np.concatenate([tb, np.maximum(tu, ta), np.maximum(tu, tb),
                             b[is_edge]])
        ec = np.concatenate([np.ones(3 * len(ta), np.int64),
                             np.full(is_edge.sum(), -1, np.int64)])
        # collapse duplicate support rows inside the bucket
        o2 = np.lexsort((ec, ey, ex))
        ex, ey, ec = ex[o2], ey[o2], ec[o2]
        new2 = np.empty(len(ex), dtype=bool)
        if len(ex):
            new2[0] = True
            new2[1:] = (ex[1:] != ex[:-1]) | (ey[1:] != ey[:-1]) \
                | (ec[1:] != ec[:-1])
        g2 = np.cumsum(new2) - 1 if len(ex) else np.empty(0, np.int64)
        csum = np.zeros(int(g2[-1]) + 1 if len(ex) else 0, np.int64)
        np.add.at(csum, g2, ec)
        # presence markers stay -1 (one per bucket suffices)
        keep = np.flatnonzero(new2)
        val = np.where(ec[keep] < 0, -1, csum)
        return pd.DataFrame({"a": ex[keep], "b": ey[keep],
                             "c": val.astype(np.int64)})

    deg_ref = ray.put(deg)

    out_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                            ("cn", pa.int64()), ("jaccard", pa.float64())])

    def combine(df):
        dg = ray.get(deg_ref)
        a = df["a"].to_numpy().astype(np.int64)
        b = df["b"].to_numpy().astype(np.int64)
        c = df["c"].to_numpy().astype(np.int64)
        o = np.lexsort((b, a))
        a, b, c = a[o], b[o], c[o]
        new = np.empty(len(a), dtype=bool)
        if len(a):
            new[0] = True
            new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        gid = np.cumsum(new) - 1 if len(a) else np.empty(0, np.int64)
        ng = int(gid[-1]) + 1 if len(a) else 0
        present = np.zeros(ng, dtype=bool)
        present[gid[c < 0]] = True
        cn = np.zeros(ng, np.int64)
        np.add.at(cn, gid[c > 0], c[c > 0])
        first = np.flatnonzero(new)
        ga, gb = a[first], b[first]
        keep = present
        ga, gb, cn = ga[keep], gb[keep], cn[keep]
        jac = cn.astype(np.float64) / (dg[ga] + dg[gb] - cn).astype(
            np.float64)
        return pd.DataFrame({"a": ga, "b": gb, "cn": cn, "jaccard": jac})

    parts = hash_group_apply(
        hash_group_apply(both, ["a", "b"], close,
                         out_schema=part_schema),
        ["a", "b"], combine, out_schema=out_schema)
    return parts


def degree_histogram(edges, n_nodes: int):
    """(deg, n_nodes) distribution over ALL nodes 0..n_nodes-1
    (isolated nodes count at deg 0) of the undirected simple graph —
    the first thing anyone plots about a crawl graph. One dedup
    exchange + bincount partials; the histogram itself is |degrees|
    rows on the driver."""
    import ray.data as rd

    deg = undirected_degrees(dedup_undirected(edges), n_nodes)
    vals, cnt = np.unique(deg, return_counts=True)
    return rd.from_arrow(pa.table({
        "deg": pa.array(vals, pa.int64()),
        "n_nodes": pa.array(cnt.astype(np.int64), pa.int64())}))


def k_core(edges, n_nodes: int, k: int, *, max_rounds: int = 100000):
    """(node, deg) rows of the k-core — the maximal subgraph in which
    every node has degree ≥ k (deg = the node's degree WITHIN the
    core). The classic crawl-graph density filter.

    Distribution shape (the pagerank pattern): the unique edge set
    materializes once; each peel round broadcasts the |V| alive mask
    (``ray.put``) and one pass over edge blocks returns
    alive-subgraph-degree bincount partials (≤ |V| rows/block); every
    alive node with degree < k dies, fixpoint when none does. The
    k-core is CONFLUENT (unique maximal subgraph — deleting any
    below-k node is always safe), so batch deletion here and one-at-a-
    time sequential peeling (the independent golden,
    oracle/golden.py::write_golden_kcore) reach the identical set, and
    integer degrees make the match exact. Rounds ≤ peel depth
    (typically tens on power-law graphs); edges never re-shuffle."""
    import ray
    import ray.data as rd

    ded = dedup_undirected(edges)
    alive = np.ones(n_nodes, dtype=bool)
    deg = np.zeros(n_nodes, dtype=np.int64)
    for _ in range(max_rounds):
        ref = ray.put(alive)

        def part(tbl: pa.Table, *, _ref=ref) -> pa.Table:
            al = ray.get(_ref)
            a = tbl.column("a").to_numpy(zero_copy_only=False)
            b = tbl.column("b").to_numpy(zero_copy_only=False)
            m = al[a] & al[b]
            cnt = (np.bincount(a[m], minlength=len(al))
                   + np.bincount(b[m], minlength=len(al))).astype(np.int64)
            nz = np.flatnonzero(cnt)
            return pa.table({"node": pa.array(nz, pa.int64()),
                             "c": pa.array(cnt[nz], pa.int64())})

        deg = np.zeros(n_nodes, dtype=np.int64)
        for t in ded.map_batches(part, batch_format="pyarrow",
                                 batch_size=None).iter_batches(
                                     batch_format="pyarrow"):
            np.add.at(deg,
                      t.column("node").to_numpy(zero_copy_only=False),
                      t.column("c").to_numpy(zero_copy_only=False))
        dead = alive & (deg < k)
        if not dead.any():
            break
        alive &= ~dead
    nz = np.flatnonzero(alive)
    return rd.from_arrow(pa.table({"node": pa.array(nz, pa.int64()),
                                   "deg": pa.array(deg[nz], pa.int64())}))


# ----------------------------------------------------------------------
# deterministic synthetic link graph
# ----------------------------------------------------------------------

def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
         ) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
         ) & np.uint64(0xFFFFFFFFFFFFFFFF)
    return x ^ (x >> np.uint64(31))


def synth_link_graph(n_nodes: int = 2048, seed: int = 17) -> pa.Table:
    """Deterministic hub-skewed (src, dst) edge table. ``n_nodes`` must
    be a power of two: dst = (t² >> (64 - log2 n)) for a 32-bit hash t
    gives a √x CDF — low node ids are hubs, the web-graph shape that
    makes PageRank non-trivial. outdeg[u] = h(u) % 12 (zeros exercise
    the dangling-mass path); self-loops dropped."""
    lg = int(n_nodes).bit_length() - 1
    assert n_nodes == 1 << lg
    hu = _splitmix64(np.arange(n_nodes, dtype=np.uint64)
                     + np.uint64(seed) * np.uint64(0x1000000))
    outdeg = (hu % np.uint64(12)).astype(np.int64)
    src = np.repeat(np.arange(n_nodes, dtype=np.int64), outdeg)
    j = (np.arange(len(src), dtype=np.int64)
         - np.repeat(np.cumsum(outdeg) - outdeg, outdeg))
    he = _splitmix64(src.astype(np.uint64) * np.uint64(0x10001)
                     + j.astype(np.uint64) + np.uint64(seed))
    t = (he >> np.uint64(32)) & np.uint64(0xFFFFFFFF)
    dst = ((t * t) >> np.uint64(64 - lg)).astype(np.int64)
    keep = src != dst
    return pa.table({"src": pa.array(src[keep], pa.int64()),
                     "dst": pa.array(dst[keep], pa.int64())})


def bfs_distances(edges, n_nodes: int, seeds, *, max_rounds: int = 10000):
    """Multi-source BFS over the undirected simple graph: (node, dist)
    with dist = exact minimum hop count from ANY seed; unreachable
    nodes emit no row. The crawl-frontier / influence-radius primitive
    (seed set = trusted hosts, dist = link distance for quality decay).

    Distribution shape (the k_core pattern): the unique edge set
    materializes once; each level broadcasts the |V|-bit frontier mask
    (``ray.put``) and one pass over edge blocks returns the ≤|V|-row
    set of frontier-adjacent nodes; the driver keeps the unvisited
    ones as the next frontier. Rounds = eccentricity of the seed set,
    driver state two |V| arrays — edges never re-shuffle, and hop
    counts are exact ints so a recursive-CTE SQL oracle matches
    bit-for-bit."""
    import ray
    import ray.data as rd

    ded = dedup_undirected(edges)
    dist = np.full(n_nodes, -1, dtype=np.int64)
    frontier = np.zeros(n_nodes, dtype=bool)
    seeds = np.asarray(list(seeds), dtype=np.int64)
    frontier[seeds] = True
    dist[seeds] = 0
    visited = frontier.copy()
    for d in range(1, max_rounds + 1):
        if not frontier.any():
            break
        ref = ray.put(frontier)

        def part(tbl: pa.Table, *, _ref=ref) -> pa.Table:
            fr = ray.get(_ref)
            a = tbl.column("a").to_numpy(zero_copy_only=False)
            b = tbl.column("b").to_numpy(zero_copy_only=False)
            nxt = np.union1d(b[fr[a]], a[fr[b]])
            return pa.table({"node": pa.array(nxt, pa.int64())})

        reached = np.zeros(n_nodes, dtype=bool)
        for t in ded.map_batches(part, batch_format="pyarrow",
                                 batch_size=None).iter_batches(
                                     batch_format="pyarrow"):
            reached[t.column("node").to_numpy(zero_copy_only=False)] = True
        frontier = reached & ~visited
        dist[frontier] = d
        visited |= frontier
    nz = np.flatnonzero(visited)
    return rd.from_arrow(pa.table({"node": pa.array(nz, pa.int64()),
                                   "dist": pa.array(dist[nz], pa.int64())}))


def label_propagation(edges, n_nodes: int, labels: np.ndarray,
                      *, n_iters: int = 5):
    """Semi-supervised label propagation over an undirected edge list —
    the pseudo-labeling step that spreads a small seed-labeled set
    (e.g. human-audited documents) across a kNN/link graph. ``labels``
    is an (n_nodes,) int array, −1 = unlabeled; seed labels (≥ 0 on
    input) are IMMUTABLE. Synchronous rounds: each node's next label is
    the argmax neighbor-label vote count with ties → LOWEST label id;
    a node with no labeled neighbor keeps its current label. Fixed
    ``n_iters`` synchronous rounds make the result a pure function of
    (edges, labels, n_iters) — vote counts are exact ints, so a
    sequential per-edge golden matches bit-for-bit.

    Shape (the pagerank pattern): per round, broadcast the label
    vector (``ray.put``), one pass over edge blocks emits sparse
    (node, label, count) vote partials (bounded by 2·edges per block,
    collapsed by np.unique map-side), dense-folded on the driver
    (|V|·|labels| ints — the same driver-state class as the rank
    vector). Edges never re-shuffle. Returns (node, label) for all
    nodes."""
    import ray
    import ray.data as rd

    ded = dedup_undirected(edges)
    lab = np.asarray(labels, dtype=np.int64).copy()
    if len(lab) != n_nodes:
        raise ValueError("labels must have n_nodes entries")
    seed_mask = lab >= 0
    n_labels = int(lab.max()) + 1 if seed_mask.any() else 0
    if n_labels == 0:
        nz = np.arange(n_nodes, dtype=np.int64)
        return rd.from_arrow(pa.table({
            "node": pa.array(nz, pa.int64()),
            "label": pa.array(lab, pa.int64())}))

    for _ in range(n_iters):
        ref = ray.put(lab)

        def part(tbl: pa.Table, *, _ref=ref) -> pa.Table:
            lb = ray.get(_ref)
            a = tbl.column("a").to_numpy(zero_copy_only=False)
            b = tbl.column("b").to_numpy(zero_copy_only=False)
            tgt = np.concatenate([a[lb[b] >= 0], b[lb[a] >= 0]])
            src_lab = np.concatenate([lb[b][lb[b] >= 0],
                                      lb[a][lb[a] >= 0]])
            key, cnt = np.unique(tgt * np.int64(n_labels) + src_lab,
                                 return_counts=True)
            return pa.table({"key": pa.array(key, pa.int64()),
                             "c": pa.array(cnt.astype(np.int64),
                                           pa.int64())})

        votes = np.zeros((n_nodes, n_labels), dtype=np.int64)
        for t in ded.map_batches(part, batch_format="pyarrow",
                                 batch_size=None).iter_batches(
                                     batch_format="pyarrow"):
            key = t.column("key").to_numpy(zero_copy_only=False)
            c = t.column("c").to_numpy(zero_copy_only=False)
            np.add.at(votes.reshape(-1), key, c)
        has = votes.sum(axis=1) > 0
        new = np.where(has, votes.argmax(axis=1), lab)
        lab = np.where(seed_mask, lab, new).astype(np.int64)

    nz = np.arange(n_nodes, dtype=np.int64)
    return rd.from_arrow(pa.table({"node": pa.array(nz, pa.int64()),
                                   "label": pa.array(lab, pa.int64())}))


def weighted_edges(edges):
    """Unique canonical (a, b, w) undirected weighted edges from a
    (src, dst) Dataset, with the DETERMINISTIC integer weight
    w = (a·73856093 XOR b·19349663) mod 997 + 1 (a pure function of
    the canonical pair, so multiplicity collapses trivially). The
    shared fixture front end of ``minimum_spanning_forest`` and its
    golden."""
    ded = dedup_undirected(edges)

    def add_w(tbl: pa.Table) -> pa.Table:
        a = tbl.column("a").to_numpy(zero_copy_only=False)
        b = tbl.column("b").to_numpy(zero_copy_only=False)
        w = (((a * 73856093) ^ (b * 19349663)) % 997 + 1).astype(
            np.int64)
        return pa.table({"a": tbl.column("a"), "b": tbl.column("b"),
                         "w": pa.array(w, pa.int64())})

    return ded.map_batches(add_w, batch_format="pyarrow",
                           batch_size=None)


def minimum_spanning_forest(edges_w, n_nodes: int, *,
                            max_rounds: int = 64):
    """Distributed Borůvka minimum spanning forest over a unique
    canonical (a, b, w) edge Dataset — the single-linkage clustering
    backbone (cut the forest's heaviest edges to get clusters).

    Distribution shape (the k_core pattern): edges never shuffle; each
    round broadcasts the |V| component-label array (``ray.put``) and
    one pass over edge blocks emits per-component MIN-outgoing-edge
    partials (≤ |components| rows per block), the driver folds them
    with ``np.minimum.at`` and contracts (union-find with path
    compression over ≤ |components| chosen edges). Rounds ≤ log₂|V|
    (component count at least halves per round).

    Determinism: the per-component minimum uses the packed int64
    pseudo-weight (w << 44) | (a << 22) | b — a strict total order on
    edges, under which "all weights distinct" holds and the MSF is
    UNIQUE, so sequential Kruskal under the same order (the golden,
    oracle/golden.py::write_golden_mst) produces the identical edge
    set. Requires n_nodes < 2^22 and w < 2^19 (asserted). Returns
    (mst Dataset of (a, b, w), total_weight int)."""
    import ray
    import ray.data as rd

    assert n_nodes < (1 << 22)
    ded = edges_w.materialize()
    comp = np.arange(n_nodes, dtype=np.int64)
    chosen_a: list[int] = []
    chosen_b: list[int] = []
    chosen_w: list[int] = []
    sentinel = np.int64(2**63 - 1)

    for _ in range(max_rounds):
        ref = ray.put(comp)

        def part(tbl: pa.Table, *, _ref=ref) -> pa.Table:
            c = ray.get(_ref)
            a = tbl.column("a").to_numpy(zero_copy_only=False)
            b = tbl.column("b").to_numpy(zero_copy_only=False)
            w = tbl.column("w").to_numpy(zero_copy_only=False)
            assert w.max(initial=0) < (1 << 19)
            ca, cb = c[a], c[b]
            m = ca != cb
            if not m.any():
                return pa.table({"comp": pa.array([], pa.int64()),
                                 "key": pa.array([], pa.int64())})
            key = (w[m] << 44) | (a[m] << 22) | b[m]
            comps = np.concatenate([ca[m], cb[m]])
            keys = np.concatenate([key, key])
            best = np.full(len(c), sentinel, np.int64)
            np.minimum.at(best, comps, keys)
            nz = np.flatnonzero(best < sentinel)
            return pa.table({"comp": pa.array(nz, pa.int64()),
                             "key": pa.array(best[nz], pa.int64())})

        best = np.full(n_nodes, sentinel, np.int64)
        for t in ded.map_batches(part, batch_format="pyarrow",
                                 batch_size=None).iter_batches(
                                     batch_format="pyarrow"):
            np.minimum.at(best,
                          t.column("comp").to_numpy(zero_copy_only=False),
                          t.column("key").to_numpy(zero_copy_only=False))
        live = np.flatnonzero(best < sentinel)
        if len(live) == 0:
            break
        # dedupe edges chosen by both endpoint components
        uniq = np.unique(best[live])
        ua = ((uniq >> 22) & ((1 << 22) - 1)).astype(np.int64)
        ub = (uniq & ((1 << 22) - 1)).astype(np.int64)
        uw = (uniq >> 44).astype(np.int64)

        # union-find over component labels (comp[x] is already the
        # current label; link label roots, then relabel all nodes)
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            r = x
            while parent.get(r, r) != r:
                r = parent[r]
            while parent.get(x, x) != x:
                parent[x], x = r, parent[x]
            return r

        # with strictly-distinct pseudo-weights the round's min edges
        # can never close a cycle (classic Borůvka invariant); the
        # root check below is a cheap safety net, not a filter that
        # should ever fire
        keep_rows = []
        for i, (x, y) in enumerate(zip(comp[ua], comp[ub])):
            rx, ry = find(int(x)), find(int(y))
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
                keep_rows.append(i)
        ki = np.asarray(keep_rows, np.int64)
        chosen_a.extend(ua[ki].tolist())
        chosen_b.extend(ub[ki].tolist())
        chosen_w.extend(uw[ki].tolist())
        # relabel every node to its component's new root
        roots = {c0: find(c0) for c0 in np.unique(comp).tolist()}
        comp = np.array([roots[int(c0)] for c0 in comp], np.int64)
        if len(ki) == 0:
            break

    order = np.lexsort((np.asarray(chosen_b, np.int64),
                        np.asarray(chosen_a, np.int64)))
    tbl = pa.table({
        "a": pa.array(np.asarray(chosen_a, np.int64)[order], pa.int64()),
        "b": pa.array(np.asarray(chosen_b, np.int64)[order], pa.int64()),
        "w": pa.array(np.asarray(chosen_w, np.int64)[order], pa.int64())})
    total = int(np.asarray(chosen_w, np.int64).sum()) if chosen_w else 0
    return rd.from_arrow(tbl), total


def mst_cut_clusters(mst_tbl: pa.Table, n_nodes: int,
                     threshold: int) -> pa.Table:
    """SINGLE-LINKAGE clustering from a spanning forest: drop MST
    edges with w > ``threshold`` and label every node with the MIN
    node id of its remaining component (union-by-min, so the root IS
    the minimum). By the minimax-path property, the result equals the
    connected components of the FULL graph thresholded at w ≤ t —
    which is exactly what the independent SQL oracle computes
    (transitive closure over the thresholded edge table; it never
    sees the MST). The forest has < |V| edges, so this step is a
    trivial driver pass; the distributed work happened in Borůvka."""
    a = mst_tbl.column("a").to_pylist()
    b = mst_tbl.column("b").to_pylist()
    w = mst_tbl.column("w").to_pylist()
    parent = list(range(n_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y, ww in zip(a, b, w):
        if ww <= threshold:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    lab = np.array([find(i) for i in range(n_nodes)], np.int64)
    return pa.table({"node": pa.array(np.arange(n_nodes, dtype=np.int64),
                                      pa.int64()),
                     "cluster": pa.array(lab, pa.int64())})


def betweenness_from_sources(edges_ds, n_nodes: int, sources,
                             *, max_rounds: int = 10000):
    """Brandes betweenness centrality accumulated from a FIXED pivot
    set (Brandes 2001; the sampled-pivot estimator of Brandes &
    Pich 2007 with deterministic pivots) over the undirected simple
    graph — the centrality signal between `pagerank` (eigenvector
    family) and `k_core` (density family).

    Per source: forward BFS levels with shortest-path COUNTS σ as
    exact int64 (order-free bincount partials per edge block against
    the broadcast (dist, σ) arrays — the k_core pattern, edges never
    shuffle), then the backward dependency sweep
    δ[v] += σ[v]/σ[w]·(1+δ[w]) level by level.

    Determinism: σ is exact integer; δ is float, so the SUM ORDER
    matters — each level's (v, w, contrib) rows (computed elementwise
    map-side) are lexsorted by (v, w) on the driver and folded with
    ONE ``np.add.at`` (which applies strictly in element order), and
    the sequential golden iterates the same level's DAG edges in the
    same (v, w) order with plain float adds — bit-identical results.
    Driver holds per-level DAG edge rows (≤ |E|) and the |V| state
    arrays (the pagerank node-table bound). σ is asserted < 2^62.
    Returns a pandas (node, betweenness) frame over all nodes."""
    import ray
    import ray.data as rd

    ded = dedup_undirected(edges_ds)
    bc = np.zeros(n_nodes, np.float64)

    for s in sources:
        dist = np.full(n_nodes, -1, np.int64)
        sigma = np.zeros(n_nodes, np.int64)
        dist[s] = 0
        sigma[s] = 1
        lvl = 0
        for _ in range(max_rounds):
            ref = ray.put((dist, sigma, lvl))

            def fwd(tbl: pa.Table, *, _ref=ref) -> pa.Table:
                d, sg, L = ray.get(_ref)
                a = tbl.column("a").to_numpy(zero_copy_only=False)
                b = tbl.column("b").to_numpy(zero_copy_only=False)
                acc = np.zeros(len(d), np.int64)
                m1 = (d[a] == L) & (d[b] == -1)
                np.add.at(acc, b[m1], sg[a[m1]])
                m2 = (d[b] == L) & (d[a] == -1)
                np.add.at(acc, a[m2], sg[b[m2]])
                nz = np.flatnonzero(acc)
                return pa.table({"node": pa.array(nz, pa.int64()),
                                 "s": pa.array(acc[nz], pa.int64())})

            acc = np.zeros(n_nodes, np.int64)
            for t in ded.map_batches(fwd, batch_format="pyarrow",
                                     batch_size=None).iter_batches(
                                         batch_format="pyarrow"):
                np.add.at(acc,
                          t.column("node").to_numpy(
                              zero_copy_only=False),
                          t.column("s").to_numpy(zero_copy_only=False))
            newly = np.flatnonzero(acc)
            if len(newly) == 0:
                break
            assert acc[newly].max(initial=0) < (1 << 62)
            dist[newly] = lvl + 1
            sigma[newly] = acc[newly]
            lvl += 1

        # backward sweep: levels lvl..1
        delta = np.zeros(n_nodes, np.float64)
        for L in range(lvl, 0, -1):
            ref = ray.put((dist, sigma, delta, L))

            def back(tbl: pa.Table, *, _ref=ref) -> pa.Table:
                d, sg, dl, LL = ray.get(_ref)
                a = tbl.column("a").to_numpy(zero_copy_only=False)
                b = tbl.column("b").to_numpy(zero_copy_only=False)
                # DAG edges v(level L-1) -> w(level L), both orients
                va = np.concatenate([a, b])
                wb = np.concatenate([b, a])
                m = (d[va] == LL - 1) & (d[wb] == LL)
                v, w = va[m], wb[m]
                contrib = (sg[v] / sg[w]) * (1.0 + dl[w])
                return pa.table({"v": pa.array(v, pa.int64()),
                                 "w": pa.array(w, pa.int64()),
                                 "c": pa.array(contrib, pa.float64())})

            vs, ws, cs = [], [], []
            for t in ded.map_batches(back, batch_format="pyarrow",
                                     batch_size=None).iter_batches(
                                         batch_format="pyarrow"):
                vs.append(t.column("v").to_numpy(zero_copy_only=False))
                ws.append(t.column("w").to_numpy(zero_copy_only=False))
                cs.append(t.column("c").to_numpy(zero_copy_only=False))
            if not vs:
                continue
            v = np.concatenate(vs)
            w = np.concatenate(ws)
            c = np.concatenate(cs)
            order = np.lexsort((w, v))
            np.add.at(delta, v[order], c[order])
        delta[s] = 0.0
        bc += delta

    return pd.DataFrame({"node": np.arange(n_nodes, dtype=np.int64),
                         "betweenness": bc})


def closeness_from_pivots(edges, n_nodes: int, pivots):
    """Pivot-sampled closeness centrality (Eppstein & Wang 2004 shape
    with DETERMINISTIC pivots): for every node reachable from ALL
    pivots, closeness = k / Σ_p dist(p, node) — one ``bfs_distances``
    run per pivot (the broadcast-frontier edge-pass primitive; edges
    materialize once and never shuffle), distance sums folded in two
    |V| int64 driver arrays. Exact integer distances + ONE double
    division per node, so the recursive-CTE SQL oracle (per-seed BFS,
    the graph_bfs pattern with a seed column) matches bit-for-bit.
    Returns pandas (node, total_dist, closeness)."""
    import ray.data as rd  # noqa: F401  (bfs_distances owns the work)

    total = np.zeros(n_nodes, np.int64)
    seen = np.zeros(n_nodes, np.int64)
    for p in pivots:
        out = bfs_distances(edges, n_nodes, [p]).to_pandas()
        nodes = out["node"].to_numpy(np.int64)
        total[nodes] += out["dist"].to_numpy(np.int64)
        seen[nodes] += 1
    k = len(list(pivots))
    ok = (seen == k) & (total > 0)
    nz = np.flatnonzero(ok)
    return pd.DataFrame({
        "node": nz.astype(np.int64),
        "total_dist": total[nz],
        "closeness": float(k) / total[nz].astype(np.float64)})
