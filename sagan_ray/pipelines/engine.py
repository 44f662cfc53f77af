"""The end-to-end engine pipeline: parse/classify → correlate → route.

Shape (SURVEY.md §3.4):

    src = read_transcripts(dir)                # the file list, no Dataset
    shuffle(per-file inputs, conv_id)          # the repo's ONE hash
        map task (_classify_split): read one   # exchange (sagan_ray/
        file → classify → peel the stateless   # exchange.py); per-worker
        rows → split the stateful rows         # compiled ruleset
        → _corr_bucket                         # per-bucket ordered replay
                                               # of the stateful tail
    routed  = matches.filter(emit) × sinks     # fan-out + parity counts
                                               # (from inline partials)

A Dataset input feeds its block refs to the same map task instead of
files. Either way no Ray Data stage runs inside ``run_engine``: its
executor costs a fixed ~0.1 s per run. Every ruleset takes this one
path. Only matched rows cross the exchange
(stateful ones carry state); a ruleset with no stateful rule runs it
with zero buckets, so its whole match stream leaves the map side with
its count partials and no reduce launches. The ruleset and lookup
tables are broadcast once via ``ray.put`` and compiled once per worker.
This module keeps only the exchange's correlation client: the
``_classify_split`` side function of its map task, the ``_corr_bucket``
reduce task and, in ``run_engine``, the driver loop between them.
"""

from __future__ import annotations

import functools
import hashlib
import pickle

import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..config import EngineConfig, Lookups
from ..exchange import block_refs, engine_n_buckets, shuffle
from ..rules.model import RuleSet
from ..sources.transcripts import TranscriptFiles
from ..stages.classify import (
    LIST_MATCH_SCHEMA,
    RuleClassifier,
    explode_match_lists,
)
from ..stages.correlate import make_list_correlator


# per-worker cache of compiled classifiers and correlators, keyed on
# (kind, ``compile_key``) — equal inputs hit across runs. Only
# ``_worker_cached`` touches it: workers import that plain function by
# reference, whereas a dict named directly in a task or a closure is
# pickled by value, a fresh empty copy on every run.
_WORKER_COMPILED: dict = {}
_WORKER_CACHE_SIZE = 8


def compile_key(ruleset: RuleSet, lookups: Lookups,
                config: EngineConfig) -> str:
    """Digest of everything a compiled classifier or correlator depends
    on. Computed once per run on the driver; equal inputs give the same
    key across runs, so workers keep their compiled objects."""
    return hashlib.sha256(pickle.dumps(
        (ruleset, lookups, config), protocol=5)).hexdigest()


def _worker_cached(kind: str, key: str, build):
    obj = _WORKER_COMPILED.get((kind, key))
    if obj is None:
        if len(_WORKER_COMPILED) >= _WORKER_CACHE_SIZE:
            _WORKER_COMPILED.clear()
        obj = _WORKER_COMPILED[(kind, key)] = build()
    return obj


class EngineResult:
    """Lazy handles over the match stream. ``matches`` rows are the
    saganfound analog (one row per routed rule match, pre-suppression);
    ``routed()`` filters to post-suppression alerts. The per-sink fan-out
    is ``io.sinks.write_sinks`` (rows) and ``routed_counts()`` (counts).

    ``count_refs``: per-task partial (sid, hits, emits, part) table refs
    produced inline by the exchange — counts come from these tiny tables,
    never from a pass over the match stream.
    ``list_refs``: the exchange's LIST_MATCH_SCHEMA output blocks; when
    given, ``matches`` is built from them on first access, so the counts
    never wait on Dataset metadata."""

    def __init__(self, matches=None, ruleset: RuleSet | None = None,
                 config: EngineConfig | None = None,
                 count_refs: list | None = None, *,
                 list_refs: list | None = None):
        self._matches = matches
        self.ruleset = ruleset
        self.config = config
        self.count_refs = count_refs
        self._list_refs = list_refs

    @property
    def matches(self) -> "ray.data.Dataset":
        if self._matches is None and self._list_refs is not None:
            import ray.data as rd

            # the public match stream is the exploded MATCH_SCHEMA — a lazy
            # vectorized explode over the list-form refs (batch_size=None:
            # whole blocks, zero re-slicing)
            self._matches = rd.from_arrow_refs(self._list_refs).map_batches(
                explode_match_lists, batch_format="pyarrow", batch_size=None)
        return self._matches

    def routed(self):
        return self.matches.map_batches(
            lambda t: t.filter(t.column("emit").combine_chunks()),
            batch_format="pyarrow")

    # ---- aggregates (parity gates) -----------------------------------
    def _count_tables(self) -> list[pa.Table]:
        """(sid, hits, emits, part) count tables, produced inline by the
        exchange's tasks (zero extra passes)."""
        return ray.get(list(self.count_refs))

    def _sid_counts(self, emitted_only: bool) -> dict[int, int]:
        col = "emits" if emitted_only else "hits"
        out: dict[int, int] = {}
        for t in self._count_tables():
            for sid, n in zip(t.column("sid").to_pylist(),
                              t.column(col).to_pylist()):
                if n:
                    out[sid] = out.get(sid, 0) + int(n)
        return out

    def hit_counts(self) -> dict[int, int]:
        return self._sid_counts(emitted_only=False)

    def metrics(self) -> pa.Table:
        """Per-partition lineage/metrics table (SURVEY.md §4.2): one row
        per exchange partial — map-side partials (``p<block>``) carry the
        stateless matches of one classify output block, reduce-side
        partials (``b<bucket>[.<sub>]``) one correlation bucket — with
        per-sid hit/emit counts; a stateless ruleset has map-side
        partials only. The operational answer to 'which partition produced
        what'."""
        empty = _count_partial(pa.table({}), "")   # the schema, no rows
        return pa.concat_tables(
            [empty] + [t.select(empty.schema.names) for t in self._count_tables()])

    def routed_counts(self) -> dict[tuple[str, int], int]:
        """Per-(sink, sid) alert counts. The sink fan-out is resolved
        driver-side from the ruleset (sinks per sid are static), so no
        exploded rows ever shuffle."""
        per_sid = self._sid_counts(emitted_only=True)
        out: dict[tuple[str, int], int] = {}
        by_sid = {}
        for r in self.ruleset:
            by_sid.setdefault(r.sid, r)
        fanout = self.config.sink_fanout(self.ruleset)
        for sid, n in per_sid.items():
            idx = by_sid[sid].idx
            for s, idxset in fanout:
                if idx in idxset:
                    out[(s, sid)] = out.get((s, sid), 0) + n
        return out


def run_engine(source, ruleset: RuleSet, lookups: Lookups | None = None,
               config: EngineConfig | None = None, *,
               batch_size: int = 16384,
               state_dir: str | None = None,
               max_bucket_bytes: int = 256 << 20,
               task_retries: int = 3,
               shared_bits: str | None = None) -> EngineResult:
    """Run the engine over ``source``: a ``TranscriptFiles``
    (``read_transcripts``; one map task per file, which reads it) or any
    transcript Dataset (one map task per block). Returns once the
    exchange is complete; the public match Dataset is built lazily.

    ``shared_bits``: name of a cluster-wide shared xbit store (a named
    detached actor, created on first use) — the xbit-redis analog
    (reference src/xbit-redis.c): CONCURRENT engine runs naming the same
    store observe each other's xbits at replay-batch granularity; the
    store is authoritative for xbits while set (see state/shared.py for
    the exact semantics and their relation to state_dir snapshots).

    ``state_dir``: when given, correlation state (xbits/flexbits/after/
    threshold) is loaded per bucket before the replay and snapshotted back
    after it — incremental runs over later input continue each
    conversation's state (requires later runs to carry strictly later
    turn_idx per conv; see sagan_ray.state.snapshot).

    ``task_retries``: max_retries for the exchange's raw Ray tasks; 0
    with a ``state_dir`` is the flat-driver-memory recipe for 1 M+-block
    inputs (sagan_ray/exchange.py documents the trade)."""
    config = config or EngineConfig()
    lookups = lookups or Lookups()
    ruleset_ref = ray.put(ruleset)
    lookups_ref = ray.put(lookups)

    # Stateless tasks + per-worker classifier cache instead of an actor
    # pool: the compiled ruleset is cheap to build (ms) but an actor pool
    # pays seconds of spin-up per execution; plain tasks reuse Ray's warm
    # worker processes and schedule elastically. The cache keys on a
    # digest of the compile inputs (not on the per-run broadcast refs), so
    # repeated runs over the same ruleset reuse the compiled classifier,
    # while any change to the ruleset, lookups or config invalidates it.
    #
    # Classify emits LIST form (one row per matched turn × class,
    # LIST_MATCH_SCHEMA) so the wide legs — classify output blocks,
    # bucket slices, correlated output — never duplicate a turn's text
    # per matching rule.
    key = compile_key(ruleset, lookups, config)
    classify = functools.partial(
        _classify_split, (key, [ruleset_ref, lookups_ref], config, batch_size))

    # the replay breaks a (conv_id, turn_idx) tie by arrival order, which
    # must be input order, so a turn whose rows sit in two files or
    # blocks replays as the oracle evaluates it: map tasks are submitted
    # in input order, and a Dataset's executor must yield its blocks in
    # order too
    if isinstance(source, TranscriptFiles):
        inputs = source.per_file()
    else:
        source.context.execution_options.preserve_order = True
        inputs = block_refs(source)

    # a stateless ruleset needs no reduce: zero buckets, and it neither
    # reads nor writes state_dir nor touches the shared xbit store; a
    # stateful one gets one bucket on a 1-CPU session
    n_buckets = engine_n_buckets() if ruleset.has_stateful else 0
    if n_buckets and state_dir is not None:
        from ..state.snapshot import read_state_meta, write_state_meta

        # the first run fixes the bucket layout for the state dir;
        # later incremental runs ADOPT it regardless of session size
        # (the conv→bucket mapping must match the stored snapshots —
        # the layout-compatibility rule the reference enforces on its
        # mmap files, ipc.c:504-517)
        stored = read_state_meta(state_dir)
        if stored is not None:
            n_buckets = stored
        else:
            write_state_meta(state_dir, n_buckets)
    if n_buckets and shared_bits is not None:
        # eager get-or-create so the detached store exists before
        # bucket tasks race to resolve the name
        from ..state.shared import shared_bit_store

        shared_bit_store(shared_bits)

    # The correlation stage is a client of the shared hash exchange
    # (sagan_ray/exchange.py documents its rationale, failure story and
    # driver-memory bound). Map side: each task classifies its input
    # (LIST form — a matched turn's text crosses each wire at most once
    # per class, not once per matching rule), sheds the stateless slice
    # and its count partial, and splits the stateful rows by
    # hash(conv_id), so every conversation lands wholly in one bucket.
    # Reduce side: one ordered replay per bucket. With zero buckets the
    # side outputs are the whole result. state_dir runs keep the 1:1
    # bucket↔snapshot-file layout, so they never salt.
    (stateless, counts), buckets = shuffle(
        inputs, ["conv_id"], n_buckets, side=classify, n_side=2,
        max_bucket_bytes=None if state_dir is not None else max_bucket_bytes,
        task_retries=task_retries)
    run = (key, [ruleset_ref], state_dir, shared_bits)
    corr = _corr_bucket.options(max_retries=task_retries)
    reduced = []
    for b, label, parts, _ in buckets:
        tbl_ref, cnt_ref = corr.remote(run, b, label, *parts)
        reduced.append(tbl_ref)
        counts.add(cnt_ref)
    list_refs, count_refs = stateless.parts() + reduced, counts.parts()
    # completion barrier: every exchange task has finished (state_dir
    # snapshots and shared-bit publishes are complete) and a failed task
    # raises here; count tables are tiny, the match blocks stay remote
    refs = list_refs + count_refs
    ray.wait(refs, num_returns=len(refs), fetch_local=False)
    ray.get(count_refs)
    return EngineResult(ruleset=ruleset, config=config,
                        count_refs=count_refs, list_refs=list_refs)


def run_engine_dynamic(source, ruleset: RuleSet, lookups: Lookups | None = None,
                       config: EngineConfig | None = None, *,
                       batch_size: int = 16384):
    """Two-pass dynamic_load analog (reference
    src/processors/dynamic-rules.c:61-185, parse rules.c:1755-1778).

    Pass 1 evaluates the base ruleset; every ``dynamic_load`` rule that
    fired anywhere marks its ruleset file for loading (each file loads at
    most once, as the reference's rules_loaded registry ensures). Pass 2
    re-runs the whole input with the expanded ruleset.

    Documented deviation: the reference expands the ruleset mid-stream at
    the first fire, so which records see the new rules depends on arrival
    order and thread timing; the batch analog applies the expanded
    ruleset to the WHOLE input, which is deterministic and a superset.
    Returns (EngineResult, loaded_paths). ``source`` is read once per
    pass — pass a re-readable one (``read_transcripts``, a
    ``read_parquet`` Dataset, a materialized one)."""
    import copy

    from ..rules.parser import parse_rules_file

    first = run_engine(source, ruleset, lookups, config, batch_size=batch_size)
    dynamic_rules = [r for r in ruleset if r.dynamic_ruleset]
    if not dynamic_rules:
        return first, []
    hits = first.hit_counts()
    loaded: list[str] = []
    for r in dynamic_rules:
        if hits.get(r.sid, 0) > 0 and r.dynamic_ruleset not in loaded:
            loaded.append(r.dynamic_ruleset)
    if not loaded:
        return first, []
    extra = []
    for path in loaded:
        extra.extend(copy.copy(r) for r in parse_rules_file(path))
    expanded = RuleSet(rules=[copy.copy(r) for r in ruleset] + extra,
                       variables=dict(ruleset.variables))
    return (run_engine(source, expanded, lookups, config,
                       batch_size=batch_size), loaded)


def _count_partial(tbl: pa.Table, label: str) -> pa.Table:
    """(sid, hits, emits, part) partial for one list-form match table —
    flattens the tiny sid/emit lists; text is never touched. ``label`` is
    the ``part`` metrics() reports (``p<block>`` map side,
    ``b<bucket>[.<sub>]`` reduce side)."""
    if len(tbl) == 0:
        g = pa.table({"sid": pa.array([], pa.int64()),
                      "hits": pa.array([], pa.int64()),
                      "emits": pa.array([], pa.int64())})
    else:
        t = pa.table({
            "sid": pc.list_flatten(tbl.column("sid").combine_chunks()),
            "emit": pc.cast(pc.list_flatten(tbl.column("emit").combine_chunks()),
                            pa.int64())})
        g = pa.TableGroupBy(t, "sid").aggregate(
            [([], "count_all"), ("emit", "sum")]
        ).rename_columns(["sid", "hits", "emits"])
    return g.append_column("part", pa.array([label] * len(g), pa.string()))


def _classify_split(run, src, block: int):
    """``split_block`` side function, the map task's own work: classify
    ``src`` in ``batch_size`` slices, then peel the stateless slice
    (verdicts already final) and its count partial off before the
    conv_id split of the stateful rows. ``src`` is one file's
    ``TranscriptFiles``, read here (so a retried task reads it again),
    or one Dataset block.

    ``run`` is ``(compile_key, [ruleset_ref, lookups_ref], config,
    batch_size)``; the refs ride in a list so Ray does not resolve them
    per task — the worker builds its classifier once per key."""
    key, (ruleset_ref, lookups_ref), config, batch_size = run
    cls = _worker_cached("classifier", key, lambda: RuleClassifier(
        ray.get(ruleset_ref), ray.get(lookups_ref), config))
    if isinstance(src, TranscriptFiles):
        batches = src.batches(batch_size)
    else:
        if not isinstance(src, pa.Table):
            from ray.data.block import BlockAccessor

            src = BlockAccessor.for_block(src).to_arrow()
        batches = (src.slice(i, batch_size)
                   for i in range(0, len(src), batch_size))
    outs = [cls(b) for b in batches]
    tbl = pa.concat_tables(outs) if outs else LIST_MATCH_SCHEMA.empty_table()
    sf = tbl.column("stateful").combine_chunks()
    stateless = tbl.filter(pc.invert(sf))
    return (tbl.filter(sf),
            (stateless, _count_partial(stateless, f"p{block:05d}")))


@ray.remote(num_returns=2)
def _corr_bucket(run, bucket_id, label, *tables):
    """Reduce side: ordered replay of one bucket + its count partial;
    optionally resumes from / snapshots to the bucket's state file,
    and/or syncs xbits through the shared store (xbit-redis analog:
    fetch-authoritative before the replay, publish the delta after —
    state/shared.py documents the exact semantics).

    ``run`` is ``(compile_key, [ruleset_ref], state_dir, shared_bits)``;
    the ref rides in a list so Ray does not resolve it per task — the
    worker builds its correlator once per key."""
    key, (ruleset_ref,), state_dir, shared_bits = run
    correlate_lists = _worker_cached(
        "correlator", key, lambda: make_list_correlator(ray.get(ruleset_ref)))
    init_states = out_states = None
    if state_dir is not None:
        from ..state.snapshot import load_bucket_state, save_bucket_state

        init_states = load_bucket_state(state_dir, bucket_id)
        out_states = dict(init_states)
    parts = [t for t in tables if len(t)]
    if not parts:
        if state_dir is not None:
            save_bucket_state(state_dir, bucket_id, out_states)
        e = LIST_MATCH_SCHEMA.empty_table()
        return e, _count_partial(e, label)
    tbl = pa.concat_tables(parts)
    pre = store = convs = None
    if shared_bits is not None:
        from ..state.shared import (bit_delta_ops, merge_shared_bits,
                                    shared_bit_store)

        if init_states is None:
            init_states, out_states = {}, {}
        store = shared_bit_store(shared_bits)
        convs = set(tbl.column("conv_id").to_pylist())
        pre = merge_shared_bits(init_states, convs,
                                ray.get(store.fetch.remote()))
    out = correlate_lists(tbl, init_states=init_states, out_states=out_states)
    if store is not None:
        ops = bit_delta_ops(pre, out_states, convs)
        if ops:
            ray.get(store.apply.remote(ops))
    if state_dir is not None:
        # per-conversation watermarks (max ts seen per conv in this run) —
        # a bucket-global max could prune live bits of convs whose stream
        # lags the bucket's fastest conv
        wm_tbl = pa.TableGroupBy(
            tbl.select(["conv_id", "ts_epoch"]), "conv_id"
        ).aggregate([("ts_epoch", "max")])
        watermarks = dict(zip(
            wm_tbl.column("conv_id").to_pylist(),
            (int(v) for v in wm_tbl.column("ts_epoch_max").to_pylist())))
        save_bucket_state(state_dir, bucket_id, out_states,
                          watermarks=watermarks)
    return out, _count_partial(out, label)


def input_counters(ds, config: EngineConfig | None = None) -> dict[str, int]:
    """One-pass input-side counters (the Statistics analog,
    reference src/stats.c:54-381): received / null_message / ignored /
    processed."""
    config = config or EngineConfig()

    def flags(tbl: pa.Table) -> pa.Table:
        text = tbl.column("text")
        nullm = pc.or_kleene(
            pc.is_null(text),
            pc.equal(pc.utf8_trim_whitespace(pc.fill_null(text, "")), ""))
        nullm = pc.fill_null(nullm, True)
        ign = pa.array([False] * len(tbl))
        for s in config.ignore_list:
            ign = pc.or_(ign, pc.fill_null(pc.match_substring(text, s), False))
        ign = pc.and_(pc.invert(nullm), ign)
        n = len(tbl)
        return pa.table({
            "received": pa.array([n], pa.int64()),
            "null_message": pa.array([int(pc.sum(nullm).as_py() or 0)], pa.int64()),
            "ignored": pa.array([int(pc.sum(ign).as_py() or 0)], pa.int64()),
        })

    import ray.data  # noqa: F401
    agg = ds.map_batches(flags, batch_format="pyarrow").to_pandas().sum()
    received = int(agg["received"])
    nullm = int(agg["null_message"])
    ignored = int(agg["ignored"])
    return {
        "events_received": received,
        "null_message": nullm,
        "ignored": ignored,
        "events_processed": received - nullm - ignored,
    }
