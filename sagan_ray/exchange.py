"""The repo's one bucketed hash exchange — the custom wide-operator primitive.

It is part of the engine core: the engine (``pipelines.engine``) keys its
correlation on ``conv_id`` through it, the way Sagan keys its correlation
state on the source IP. The corpus tier (``sagan_ray.datapipe``) is a
client that imports it from here; nothing here imports the corpus tier.

Every keyed repartition runs through ``shuffle`` below. It has two
clients: ``hash_group_apply`` (the transcript aggregates, client_stats,
the dedup operators, ...) and every engine run; a ruleset with no
stateful rule runs it with zero buckets, the map side alone. The shared
core owns the key hash, the map-side split, the salting refine, ref
coalescing and the salting policy; each client brings only its reduce
task. One repartition operator serving every client, split into a map
and a reduce side, is the shape argued for by Hyper Dimension Shuffle
(VLDB 2019).

Why not ``ds.groupby(...).map_groups``: measured on this workload family
(2M turns / 1.4M matches, 32 CPUs), Ray Data's sort-based groupby costs
10-70 s of shuffle/convert overhead where the grouped work itself is
<1 s — per-key ordered stateful scanning is the one operator the Dataset
API can't express efficiently (SURVEY.md §4.2). This exchange is two
stages of plain Ray tasks with streaming map-side submission: a
Dataset's block refs (``block_refs``) are submitted as its executor
yields them, so the map side overlaps whatever produced the Dataset; the
engine can instead hand it one input file per map task, which then reads
its own input and no Ray Data executor runs at all.

Scale behavior: map-side split tasks report per-bucket byte sizes (tiny
arrays); before launching a reduce the driver re-splits any bucket whose
total exceeds ``max_bucket_bytes`` by a FINER key hash into
``min(64, ceil(bytes / max_bucket_bytes))`` sub-buckets (the salting
path — keys stay whole, so per-key reduce contracts hold). Reduce-task
memory is therefore bounded by max_bucket_bytes regardless of input size
or key skew; only a single key whose rows alone exceed the bound still
lands in one sub-task (inherent to key locality — SURVEY §4 hard part
#4). A caller that needs a fixed bucket layout (the engine's per-bucket
state snapshots) passes ``max_bucket_bytes=None`` to turn salting off.

Failure story (documented stance): split and reduce tasks are
deterministic ``@ray.remote`` tasks, so a worker crash retries
transparently (``task_retries``, Ray's default 3) and a lost task OUTPUT
is lineage-reconstructed while its inputs remain addressable. A map task
fed a file re-reads that file on retry. What is NOT recoverable is a
lost INPUT block of a ``Dataset`` input (streaming-executor output — no
lineage once its bundle is consumed). On that loss the run fails and
re-runs — and the engine's ``state_dir`` makes that re-run incremental
at BUCKET granularity (each reduce snapshots its correlation state +
per-conv watermarks), the same recovery unit the reference gets from
mmap files surviving a crash (src/ipc.c:458-733).

Driver memory: EVERY per-block ref family — bucket parts, size arrays
and a client's side outputs — funnels through a ``Coalescer`` (a remote
concat or sum every ``COALESCE_PARTS`` refs), so the driver holds
O(n_buckets × COALESCE_PARTS) object refs rather than O(blocks ×
n_buckets); a 100 TB input is ~1.6 M blocks, and per-block refs at ~9 KB
of RSS each would be ~14 GB. What remains per block is Ray task lineage:
~30 KB of driver memory per block at the default ``task_retries`` (task
specs pinned while the coalesced outputs live). ``task_retries=0`` makes
driver memory flat (~8 KB/block incl. all fixed costs), and with the
engine's ``state_dir`` a mid-run loss then degrades to a bucket-granular
incremental re-run instead of a task retry (tools/stress_exchange.py;
numbers in BASELINE.md). The map side keeps at most 2 × CPUs map tasks
in flight: a file list or an already materialized Dataset would
otherwise queue every task at once, and a queued task's spec costs the
driver ~25 KB (``--engine 2000 64 0``: 30 KB/block of RssAnon left
behind unbounded, 7.7 KB/block bounded)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray


def hash_array_pure(vals):
    """Value-pure 64-bit hashes: pd.util.hash_array(categorize=False).

    ``pd.util.hash_array`` with its DEFAULT ``categorize=True`` is NOT a
    pure function of the element value: the categorize path factorizes
    through a khash table whose string equality is C-strlen based, so a
    string containing a NUL byte is conflated with whichever
    equal-up-to-the-NUL string entered the table first — the hash of
    '\\x000' depends on what ELSE is in the array (found by the
    batch-vs-single hypothesis property test). That breaks both the "hash is
    a pure function of the word" spec every dedup/text operator relies on
    and, worse, conv-id bucket routing in the engine exchange (the same
    conv_id could land in different buckets in different blocks, splitting
    correlation state). ``categorize=False`` hashes each element directly
    (full-length bytes) and is value-pure; on NUL-free input the two paths
    return IDENTICAL values, so switching changes no existing gate output.
    Cost: the hash pass is ~2x slower on heavy-repeat word arrays (0.58 ->
    1.14 s per 4M Zipf words, measured) — a fraction of any operator's
    total. Every pipeline AND golden call site routes through this wrapper
    so both sides of the gate share one spec.
    """
    return pd.util.hash_array(vals, categorize=False)


DEFAULT_MAX_BUCKET_BYTES = 256 << 20
COALESCE_PARTS = 32


def default_n_buckets() -> int:
    """One reduce task per ~2 cores, and at least 4: fewer buckets =
    fewer tiny object transfers; raise for bigger clusters/inputs. The
    engine sizes its exchange with ``engine_n_buckets``."""
    return max(4, int(ray.cluster_resources().get("CPU", 8)) // 2)


def engine_n_buckets() -> int:
    """The engine's bucket count: 1 on a session with fewer than 2 CPUs,
    else ``default_n_buckets()``. On 1 vCPU, one bucket instead of 4 cut
    a ``correlate_heavy`` op's p50 by about a quarter (5 of 6 alternating
    pairs), most of it the per-bucket objects and tasks rather than the
    per-bucket replay. Whether fewer than 4 buckets also pays on 2-7 CPUs
    was not measured, so those sessions keep 4. Coalescing small buckets
    into grouped reduces on multi-CPU clusters (the inverse of salting)
    is still open."""
    if ray.cluster_resources().get("CPU", 8) < 2:
        return 1
    return default_n_buckets()


def key_hash(tbl: pa.Table, cols: list[str]) -> np.ndarray:
    """Value-pure uint64 hash of each row's key: ``hash_array_pure`` per
    column, combined as ``h * 1000003 ^ h_col`` for multi-column keys.
    Integer and boolean columns with nulls are null-filled first so a
    column converts to one numpy dtype in every block (a null-free block
    would otherwise hash 3 as int64 and a null-bearing one as 3.0)."""
    if len(tbl) == 0:           # also column-less empty blocks
        return np.zeros(0, np.uint64)
    h = None
    for c in cols:
        col = tbl.column(c)
        if col.null_count and pa.types.is_integer(col.type):
            col = col.fill_null(0)
        elif col.null_count and pa.types.is_boolean(col.type):
            col = col.fill_null(False)
        x = hash_array_pure(col.to_numpy(zero_copy_only=False))
        h = x if h is None else h * np.uint64(1000003) ^ x
    return h


def bucket_takes(tbl: pa.Table, assign: np.ndarray, k: int) -> list:
    """One COMPACT table per bucket via per-bucket ``take`` — never
    ``slice`` of a sorted take: a sliced Arrow table pickles its FULL
    backing buffers (measured: a 200-row bucket slice of a 515 KB table
    serialized 519 KB — ×k redundant bytes per block). Total copy work
    equals the single big take."""
    order = np.argsort(assign, kind="stable")
    bounds = np.searchsorted(assign[order], np.arange(k + 1))
    return [tbl.take(pa.array(order[bounds[i]:bounds[i + 1]]))
            for i in range(k)]


@ray.remote
def split_block(tbl: pa.Table, key_cols: list[str], nb: int, k: int = 0,
                side=None, block: int = 0):
    """Map side: one table per ``h % nb`` bucket plus a per-bucket byte
    size array for the driver's salting check. With ``k`` > 0 it is the
    refine task instead: one oversized bucket's part splits ``k`` ways by
    the finer ``(h // nb) % k``, independent of the coarse assignment.

    ``side(tbl, block)`` (a module-level function, or a partial of one)
    may peel extra per-block outputs off first: it returns the table to
    split and a tuple of outputs, which lead the returns. With a
    ``side``, ``tbl`` is whatever ``side`` takes: the engine's side
    reads and classifies the task's input. With one bucket (and no
    refine) the bucket is the table itself: no key hash, no take."""
    extra = ()
    if side is not None:
        tbl, extra = side(tbl, block)
    if nb == 1 and not k:
        parts = [tbl]
    else:
        h = key_hash(tbl, key_cols)
        assign = ((h // nb) % k if k else h % nb).astype(np.int64)
        parts = bucket_takes(tbl, assign, k or nb)
    return (*extra, np.array([p.nbytes for p in parts], dtype=np.int64),
            *parts)


@ray.remote
def _coalesce(*tables):
    """Concat small per-block tables (empty ones keep the schema alive)."""
    parts = [t for t in tables if len(t)] or [tables[0]]
    return pa.concat_tables(parts)


@ray.remote
def _sum_sizes(*arrays):
    return sum(arrays[1:], arrays[0].copy())


class Coalescer:
    """Two-level ref coalescer: every COALESCE_PARTS fresh refs collapse
    into one chunk (remote concat), every COALESCE_PARTS chunks into one
    super-chunk — so a bucket's driver-held refs stay ≤ ~2·COALESCE_PARTS
    + blocks/COALESCE_PARTS² instead of O(blocks), and no table is ever
    re-concatenated more than twice."""

    def __init__(self, combine_remote):
        self._combine = combine_remote
        self.fresh: list = []
        self.chunks: list = []
        self.supers: list = []

    def add(self, ref) -> None:
        self.fresh.append(ref)
        if len(self.fresh) >= COALESCE_PARTS:
            self.chunks.append(self._combine.remote(*self.fresh))
            self.fresh = []
            if len(self.chunks) >= COALESCE_PARTS:
                self.supers.append(self._combine.remote(*self.chunks))
                self.chunks = []

    def parts(self) -> list:
        return self.supers + self.chunks + self.fresh


def block_refs(ds):
    """``ds``'s block refs, streamed as its executor yields them."""
    for bundle in ds.iter_internal_ref_bundles():
        yield from bundle.block_refs


def shuffle(inputs, key_cols: list[str], n_buckets: int, *, side=None,
            n_side: int = 0,
            max_bucket_bytes: int | None = DEFAULT_MAX_BUCKET_BYTES,
            task_retries: int = 3):
    """Map side and salting of the exchange; the caller launches the
    reduces. ``inputs``: the map tasks' first arguments, one task each,
    submitted in order as the iterable yields them — block refs
    (``block_refs``), or whatever ``side`` turns into a table.
    ``side``/``n_side``: see ``split_block``. ``n_buckets`` may be 0
    when ``side`` peels every row: the map side then yields only the
    side outputs, and there is no reduce to launch.

    Returns ``(sides, buckets)``: one Coalescer per side output, and one
    ``(bucket, label, parts, nbytes)`` per reduce to launch in bucket
    order — ``label`` is ``b<bucket>`` or, for a salted sub-bucket,
    ``b<bucket>.<sub>``."""
    coalesce = _coalesce.options(max_retries=task_retries)
    sides = [Coalescer(coalesce) for _ in range(n_side)]
    sizes = Coalescer(_sum_sizes.options(max_retries=task_retries))
    buckets = [Coalescer(coalesce) for _ in range(n_buckets)]
    split = split_block.options(num_returns=n_side + 1 + n_buckets,
                                max_retries=task_retries)
    # unfinished map tasks: every CPU busy with one more queued, and no
    # more (see "Driver memory" above)
    max_inflight = 2 * int(ray.cluster_resources().get("CPU", 1))
    inflight = []
    for block, inp in enumerate(inputs):
        outs = split.remote(inp, key_cols, n_buckets, 0, side, block)
        for c, out in zip(sides + [sizes] + buckets, outs):
            c.add(out)
        inflight.append(outs[n_side])
        if len(inflight) > max_inflight:
            _, inflight = ray.wait(inflight, fetch_local=False,
                                   num_returns=len(inflight) - max_inflight)
    bucket_bytes = sum(ray.get(sizes.parts()), np.zeros(n_buckets, np.int64))

    refined = {}
    for b, nbytes in enumerate(bucket_bytes):
        k = 1 if max_bucket_bytes is None else int(
            min(64, -(-int(nbytes) // max(1, max_bucket_bytes))))
        if k >= 2:
            refine = split_block.options(num_returns=k + 1,
                                         max_retries=task_retries)
            refined[b] = [refine.remote(p, key_cols, n_buckets, k)
                          for p in buckets[b].parts()]
    out = []
    for b, nbytes in enumerate(bucket_bytes):
        if b not in refined:
            out.append((b, f"b{b:04d}", buckets[b].parts(), int(nbytes)))
            continue
        outs = refined[b]
        sub_bytes = sum(ray.get([o[0] for o in outs]))
        out.extend((b, f"b{b:04d}.{j}", [o[j + 1] for o in outs], int(n))
                   for j, n in enumerate(sub_bytes))
    return sides, out


@ray.remote
def _apply_pandas(fn, *tables):
    """hash_group_apply's reduce: ``fn`` is ``(bucket_fn, out_schema)``."""
    bucket_fn, out_schema = fn
    df = pa.concat_tables([t for t in tables if len(t)]).to_pandas()
    out = pa.Table.from_pandas(bucket_fn(df), preserve_index=False)
    if out_schema is not None:
        out = out.select(out_schema.names).cast(out_schema)
    return out


def hash_group_apply(ds, key_cols: list[str], bucket_fn,
                     n_buckets: int | None = None,
                     out_schema: pa.Schema | None = None,
                     max_bucket_bytes: int = DEFAULT_MAX_BUCKET_BYTES):
    """Hash-partition ``ds``'s rows by key into N buckets (all rows of a
    key land in exactly one bucket) and return a Dataset of
    ``bucket_fn`` outputs, one per non-empty bucket. ``out_schema``
    (optional) casts/normalizes each output so empties keep their schema.

    Contract for ``bucket_fn(df: pandas.DataFrame) -> pandas.DataFrame``:
    receives every row of its bucket (all rows sharing a key together,
    unsorted); must handle the empty frame; does its own within-bucket
    grouping (vectorized — sort + boundaries — not pandas
    groupby.apply)."""
    import ray.data as rd

    _, buckets = shuffle(block_refs(ds), key_cols,
                         n_buckets or default_n_buckets(),
                         max_bucket_bytes=max_bucket_bytes)
    # the driver holds every bucket's byte size, so empty buckets launch
    # no reduce and no output is ever pulled to the driver
    fn = ray.put((bucket_fn, out_schema))
    refs = [_apply_pandas.remote(fn, *parts)
            for _, _, parts, nbytes in buckets if nbytes]
    if refs:
        return rd.from_arrow_refs(refs)
    if out_schema is not None:
        return rd.from_arrow(out_schema.empty_table())
    return rd.from_items([])
