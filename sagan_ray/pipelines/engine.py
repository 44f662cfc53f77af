"""The end-to-end engine pipeline: parse/classify → correlate → route.

Ray-Data-first shape (SURVEY.md §3.4):

    ds = ray.data.read_parquet(transcripts)
    matches = ds.map_batches(classify_batch)   # fused parse+classify (tasks,
                                               # per-worker compiled ruleset)
    matches → _correlate_exchange              # ONE hash exchange on
                                               # hash(conv_id): per-bucket
                                               # ordered replay of the
                                               # stateful tail; stateless
                                               # verdicts pass through
    routed  = matches.filter(emit) × sinks     # fan-out + parity counts
                                               # (from inline partials)

Only matched rows cross the exchange (stateful ones carry state); the
ruleset and lookup tables are broadcast once via ``ray.put`` and compiled
once per worker. See _correlate_exchange for why the exchange is raw Ray
tasks rather than ``groupby().map_groups``.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..config import SINK_EMAIL, SINK_EXTERNAL, EngineConfig, Lookups
from ..rules.model import RuleSet
from ..stages.classify import (
    LIST_MATCH_SCHEMA,
    RuleClassifier,
    explode_match_lists,
)
from ..stages.correlate import make_list_correlator


# per-worker cache of compiled classifiers and correlators, keyed on
# (kind, ``compile_key``) — equal inputs hit across runs. Only
# ``_worker_cached`` touches it: workers import that plain function by
# reference, whereas a dict named directly in a task or a Ray Data
# closure is pickled by value, a fresh empty copy on every run.
_WORKER_COMPILED: dict = {}
_WORKER_CACHE_SIZE = 8


def compile_key(ruleset: RuleSet, lookups: Lookups, config: EngineConfig,
                list_form: bool) -> str:
    """Digest of everything a compiled classifier or correlator depends
    on. Computed once per run on the driver; equal inputs give the same
    key across runs, so workers keep their compiled objects."""
    return hashlib.sha256(pickle.dumps(
        (ruleset, lookups, config, list_form), protocol=5)).hexdigest()


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
    ``routed()`` filters to post-suppression alerts; ``routed_exploded()``
    fans out per sink.

    ``count_refs``: per-task partial (sid, hits, emits) table refs produced
    inline by the correlation exchange — counts come from these tiny
    tables instead of a second pass over the match stream.
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

    @matches.setter
    def matches(self, ds) -> None:
        self._matches = ds

    def routed(self):
        return self.matches.map_batches(
            lambda t: t.filter(t.column("emit").combine_chunks()),
            batch_format="pyarrow")

    def routed_exploded(self):
        """One row per (alert × sink) — the Output() fan-out analog
        (reference src/output.c:63-149)."""
        sinks = tuple(self.config.sinks)
        email_rules = {r.idx for r in self.ruleset if r.email}
        external_rules = {r.idx for r in self.ruleset if r.external}

        def explode(tbl: pa.Table) -> pa.Table:
            tbl = tbl.filter(pc.equal(tbl.column("emit"), True))
            if len(tbl) == 0:
                out = tbl.append_column("sink", pa.array([], pa.string()))
                return out
            parts = []
            for s in sinks:
                parts.append(tbl.append_column("sink", pa.array([s] * len(tbl))))
            for s, idxset in ((SINK_EMAIL, email_rules), (SINK_EXTERNAL, external_rules)):
                if idxset:
                    m = pc.is_in(tbl.column("rule_idx"),
                                 value_set=pa.array(sorted(idxset), pa.int32()))
                    sub = tbl.filter(m)
                    if len(sub):
                        parts.append(sub.append_column("sink", pa.array([s] * len(sub))))
            return pa.concat_tables(parts)

        return self.matches.map_batches(explode, batch_format="pyarrow")

    # ---- aggregates (parity gates) -----------------------------------
    def _sid_counts(self, emitted_only: bool) -> dict[int, int]:
        """Per-sid counts. When the correlation exchange ran, the partial
        count tables were produced inline by its tasks (zero extra
        passes); otherwise one pre-aggregated pass over the match stream
        (one partial row per sid per batch crosses the exchange)."""
        import ray

        col = "emits" if emitted_only else "hits"
        if self.count_refs is not None:
            out: dict[int, int] = {}
            for t in ray.get(list(self.count_refs)):
                for sid, n in zip(t.column("sid").to_pylist(),
                                  t.column(col).to_pylist()):
                    if n:
                        out[sid] = out.get(sid, 0) + int(n)
            return out

        def partial(tbl: pa.Table) -> pa.Table:
            if emitted_only:
                tbl = tbl.filter(tbl.column("emit").combine_chunks())
            g = pa.TableGroupBy(tbl.select(["sid"]), "sid").aggregate([([], "count_all")])
            return g.rename_columns(["sid", "n"])

        from ray.data.aggregate import Sum

        df = (self.matches.map_batches(partial, batch_format="pyarrow")
              .groupby("sid").aggregate(Sum("n", alias_name="n")).to_pandas())
        if df.empty:        # zero matches: the empty frame has no columns
            return {}
        return dict(zip(df["sid"].astype(int), df["n"].astype(int)))

    def hit_counts(self) -> dict[int, int]:
        return self._sid_counts(emitted_only=False)

    def metrics(self) -> pa.Table:
        """Per-partition lineage/metrics table (SURVEY.md §4.2): one row
        per exchange partial — map-side partials carry the stateless
        matches of one classify output block, reduce-side partials one
        correlation bucket — with per-sid hit/emit counts. The operational
        answer to 'which partition produced what'."""
        empty = pa.table({"sid": pa.array([], pa.int64()),
                          "hits": pa.array([], pa.int64()),
                          "emits": pa.array([], pa.int64()),
                          "part": pa.array([], pa.string())})
        if self.count_refs is None:
            # stateless ruleset: no exchange ran, so aggregate one
            # partial pass over the match stream (consumes it once;
            # partition granularity is not available without refs)
            from ray.data.aggregate import Sum

            def partial(tbl: pa.Table) -> pa.Table:
                if len(tbl) == 0:
                    return pa.table({"sid": pa.array([], pa.int64()),
                                     "hits": pa.array([], pa.int64()),
                                     "emits": pa.array([], pa.int64())})
                t = pa.table({"sid": tbl.column("sid").combine_chunks(),
                              "emit": pc.cast(tbl.column("emit").combine_chunks(),
                                              pa.int64())})
                g = pa.TableGroupBy(t, "sid").aggregate(
                    [([], "count_all"), ("emit", "sum")])
                return g.rename_columns(["sid", "hits", "emits"])

            df = (self.matches.map_batches(partial, batch_format="pyarrow")
                  .groupby("sid").aggregate(Sum("hits", alias_name="hits"),
                                            Sum("emits", alias_name="emits"))
                  .to_pandas())
            if df.empty:
                return empty
            return pa.table({
                "sid": pa.array(df["sid"].astype("int64")),
                "hits": pa.array(df["hits"].astype("int64")),
                "emits": pa.array(df["emits"].astype("int64")),
                "part": pa.array(["all"] * len(df), pa.string()),
            })
        # combined partial tables already carry their partition labels
        # (map-side blocks as p<block>, reduce buckets as b<bucket>[.sub])
        parts = [empty]
        for t in ray.get(list(self.count_refs)):
            parts.append(t.select(["sid", "hits", "emits", "part"]))
        return pa.concat_tables(parts)

    def routed_counts(self) -> dict[tuple[str, int], int]:
        """Per-(sink, sid) alert counts. The sink fan-out is resolved
        driver-side from the ruleset (sinks per sid are static), so no
        exploded rows ever shuffle."""
        per_sid = self._sid_counts(emitted_only=True)
        out: dict[tuple[str, int], int] = {}
        by_sid = {}
        for r in self.ruleset:
            by_sid.setdefault(r.sid, r)
        for sid, n in per_sid.items():
            r = by_sid[sid]
            sinks = list(self.config.sinks)
            if r.email:
                sinks.append(SINK_EMAIL)
            if r.external:
                sinks.append(SINK_EXTERNAL)
            for s in sinks:
                out[(s, sid)] = out.get((s, sid), 0) + n
        return out


def run_engine(ds, ruleset: RuleSet, lookups: Lookups | None = None,
               config: EngineConfig | None = None, *,
               concurrency=None, batch_size: int = 16384,
               state_dir: str | None = None,
               max_bucket_bytes: int = 256 << 20,
               task_retries: int = 3,
               shared_bits: str | None = None) -> EngineResult:
    """Build the lazy match pipeline over a transcript Dataset.

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

    ``task_retries``: max_retries for the exchange's raw Ray tasks.
    The default (Ray's 3) keeps worker-crash retries and lineage
    reconstruction, at a measured ~30 KB of driver memory per classify
    block of retained lineage (task specs pinned while the coalesced
    outputs live). For 1 M+-block inputs (100 TB tier), run
    ``task_retries=0`` with a ``state_dir``: driver memory goes flat
    (~8 KB/block incl. all fixed costs, stress_exchange --engine) and a
    mid-run loss degrades to a bucket-granular incremental re-run via the
    snapshots instead of a task retry."""
    config = config or EngineConfig()
    lookups = lookups or Lookups()
    ruleset_ref = ray.put(ruleset)
    lookups_ref = ray.put(lookups)

    # ``concurrency`` is accepted for API compatibility but unused: the
    # classify stage runs as stateless tasks that scale with the session.
    del concurrency

    # Stateless tasks + per-worker classifier cache instead of an actor
    # pool: the compiled ruleset is cheap to build (ms) but an actor pool
    # pays seconds of spin-up per execution; plain tasks reuse Ray's warm
    # worker processes and schedule elastically. The cache keys on a
    # digest of the compile inputs (not on the per-run broadcast refs), so
    # repeated runs over the same ruleset reuse the compiled classifier —
    # and its learned content-group state — while any change to the
    # ruleset, lookups or config invalidates it.
    #
    # The exchange path classifies in LIST form (one row per matched
    # turn × class, LIST_MATCH_SCHEMA) so the wide legs — classify output
    # blocks, bucket slices, correlated output — never duplicate a turn's
    # text per matching rule; stateless rulesets skip the exchange and
    # emit the exploded MATCH_SCHEMA directly.
    list_form = ruleset.has_stateful
    key = compile_key(ruleset, lookups, config, list_form)

    def classify_batch(tbl: pa.Table) -> pa.Table:
        cls = _worker_cached("classifier", key, lambda: RuleClassifier(
            ray.get(ruleset_ref), ray.get(lookups_ref), config,
            list_form=list_form))
        return cls(tbl)

    matches = ds.map_batches(
        classify_batch,
        batch_format="pyarrow",
        batch_size=batch_size,
        num_cpus=1,
    )

    if not ruleset.has_stateful:
        return EngineResult(matches=matches, ruleset=ruleset, config=config)

    # one reduce task per ~2 cores: fewer buckets = fewer tiny object
    # transfers in the exchange; raise for bigger clusters/inputs
    n_buckets = max(4, int(ray.cluster_resources().get("CPU", 8)) // 2)
    if state_dir is not None:
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
    if shared_bits is not None:
        # eager get-or-create so the detached store exists before
        # bucket tasks race to resolve the name
        from ..state.shared import shared_bit_store

        shared_bit_store(shared_bits)
    list_refs, count_refs = _correlate_exchange(
        matches, (key, [ruleset_ref], state_dir, shared_bits), n_buckets,
        max_bucket_bytes=max_bucket_bytes, task_retries=task_retries)
    # completion barrier: every exchange task has finished (state_dir
    # snapshots and shared-bit publishes are complete) and a failed task
    # raises here; count tables are tiny, the match blocks stay remote
    refs = list_refs + count_refs
    ray.wait(refs, num_returns=len(refs), fetch_local=False)
    ray.get(count_refs)
    return EngineResult(ruleset=ruleset, config=config,
                        count_refs=count_refs, list_refs=list_refs)


def run_engine_dynamic(ds, ruleset: RuleSet, lookups: Lookups | None = None,
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
    Returns (EngineResult, loaded_paths). ``ds`` is consumed once per
    pass — pass a re-readable source (read_parquet / materialized)."""
    import copy

    from ..rules.parser import parse_rules_file

    first = run_engine(ds, ruleset, lookups, config, batch_size=batch_size)
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
    return (run_engine(ds, expanded, lookups, config,
                       batch_size=batch_size), loaded)


def _count_partial(tbl: pa.Table) -> pa.Table:
    """(sid, hits, emits) partial for one match table — accepts both the
    list-form stream (flattens the tiny sid/emit lists; text never
    touched) and exploded tables."""
    if len(tbl) == 0:
        return pa.table({"sid": pa.array([], pa.int64()),
                         "hits": pa.array([], pa.int64()),
                         "emits": pa.array([], pa.int64())})
    sid_col = tbl.column("sid").combine_chunks()
    emit_col = tbl.column("emit").combine_chunks()
    if pa.types.is_list(sid_col.type):
        sid_col = pc.list_flatten(sid_col)
        emit_col = pc.list_flatten(emit_col)
    t = pa.table({"sid": sid_col,
                  "emit": pc.cast(emit_col, pa.int64())})
    g = pa.TableGroupBy(t, "sid").aggregate([([], "count_all"), ("emit", "sum")])
    return g.rename_columns(["sid", "hits", "emits"])


def _bucket_takes(tbl: pa.Table, assign: np.ndarray, k: int) -> list:
    """One COMPACT table per bucket via per-bucket ``take`` — never
    ``slice`` of a sorted take: a sliced Arrow table pickles its FULL
    backing buffers (measured: a 200-row bucket slice of a 515 KB
    stateful table serialized 519 KB — ×n_buckets redundant bytes per
    block, the same buffer-sharing trap that sank the r4 dictionary
    variant). Total copy work equals the single big take."""
    order = np.argsort(assign, kind="stable")
    bounds = np.searchsorted(assign[order], np.arange(k + 1))
    return [tbl.take(pa.array(order[bounds[i]:bounds[i + 1]]))
            for i in range(k)]


def _conv_hash(tbl: pa.Table) -> np.ndarray:
    # categorize=False: value-PURE hash (datapipe/hashing.py) — the
    # default factorize path conflates NUL-containing conv_ids with their
    # strlen-truncated twins DEPENDING ON BLOCK CONTENT, which would split
    # one conversation's state across buckets
    conv = tbl.column("conv_id").to_numpy(zero_copy_only=False)
    return pd.util.hash_array(conv.astype(object), categorize=False)


# The exchange's tasks live at module level: they are exported to the
# workers once per session, not pickled again on every engine run.

@ray.remote
def _split_block(tbl: pa.Table, nb: int):
    """Map side: stateless slice + per-bucket stateful tables (with a tiny
    per-bucket byte-size array for the driver's skew check) + the
    stateless count partial."""
    sf = tbl.column("stateful").combine_chunks()
    stateless = tbl.filter(pc.invert(sf))
    state = tbl.filter(sf)
    b = (_conv_hash(state) % nb).astype(np.int64)
    parts = _bucket_takes(state, b, nb)
    sizes = np.array([s.nbytes for s in parts], dtype=np.int64)
    return (stateless, _count_partial(stateless), sizes, *parts)


@ray.remote
def _refine_block(tbl: pa.Table, nb: int, k: int):
    """Salting path for oversized buckets: finer conv-hash split
    ((h // nb) % k) — conversations stay whole, so the per-conv ordered
    replay is unaffected (SURVEY §4 hard part #4; a single conversation
    bigger than the bound still lands in one task)."""
    if len(tbl) == 0:
        return tuple(tbl.slice(0, 0) for _ in range(k))
    b = ((_conv_hash(tbl) // nb) % k).astype(np.int64)
    return tuple(_bucket_takes(tbl, b, k))


@ray.remote(num_returns=2)
def _corr_bucket(run, bucket_id, *tables):
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
        return e, _count_partial(e)
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
    return out, _count_partial(out)


@ray.remote
def _coalesce(*tables):
    """Concat small per-block bucket slices (empty slices keep the schema
    alive) — bounds driver-held refs per bucket."""
    parts = [t for t in tables if len(t)] or [tables[0]]
    return pa.concat_tables(parts)


@ray.remote
def _combine_counts(labels, *tables):
    """Tree-combine of (sid, hits, emits) partials: label each with its
    partition id and concat, so the driver holds one ref per
    ~COALESCE_PARTS partials instead of one per classify block."""
    parts = []
    for lbl, t in zip(labels, tables):
        parts.append(t.append_column(
            "part", pa.array([lbl] * len(t), pa.string())))
    return pa.concat_tables(parts)


@ray.remote
def _sum_sizes(*arrays):
    out = arrays[0].copy()
    for a in arrays[1:]:
        out += a
    return out


def _correlate_exchange(matches_ds, run: tuple, n_buckets: int,
                        max_bucket_bytes: int = 256 << 20,
                        task_retries: int = 3):
    """Two-stage hash exchange + per-bucket ordered replay for the
    stateful tail — raw Ray core, not ``groupby().map_groups``.

    Rationale (measured at 2M turns / 1.4M matches, 32 CPUs): the
    correlation state machine itself is ~1 s single-threaded, but Ray
    Data's sort-based ``groupby('bucket').map_groups`` costs 12-70 s of
    shuffle/convert overhead — per-key ordered stateful scanning is the
    one operator the Dataset API can't express efficiently (SURVEY.md
    §4.2), so per the custom-operator guidance it drops to Ray tasks:

      stage 1 (map): each classify output block (LIST form — one row per
        matched turn × class, per-match list columns) splits into a
        stateless slice (verdicts already final) + one slice per
        hash(conv_id) bucket;
      stage 2 (reduce): one task per bucket concatenates its slices and
        replays the state machine over the flattened SMALL columns
        (make_list_correlator — text never explodes), regrouping
        survivors into list rows.

    The whole exchange moves LIST-form rows: a matched turn's text
    crosses every wire exactly once per class (≤2×) instead of once per
    matching rule — the round-4 measured 1.6-2× byte amplification of
    the widest stream in the system.

    Every conversation lands wholly in one bucket task (the partitioning
    assumption correlation needs); n_buckets bounds reduce-task memory at
    scale — raise it for bigger inputs, salt only if one conversation's
    *matches* outgrow a worker (SURVEY.md §4 hard part #4).

    Failure story (documented stance): split/refine/corr tasks are
    deterministic ``@ray.remote`` tasks, so a worker crash retries
    transparently (Ray default max_retries) and a lost task OUTPUT is
    lineage-reconstructed while its inputs remain addressable; what is
    NOT recoverable is a lost CLASSIFY block (streaming-executor output —
    no lineage once its bundle is consumed). On that loss the run fails
    and re-runs — and with ``state_dir`` set the re-run is incremental at
    BUCKET granularity (each reduce snapshots its correlation state +
    per-conv watermarks), the same recovery unit the reference gets from
    mmap files surviving a crash (src/ipc.c:458-733). Driver footprint
    is O(COALESCE_PARTS + n_buckets) held refs: every per-block ref
    family (stateless slice, count partial, size array) funnels through
    a Coalescer (`tools/stress_exchange.py --engine` measures RSS flat
    in block count).

    ``run`` is the ``_corr_bucket`` run tuple. Returns the
    LIST_MATCH_SCHEMA output refs (stateless slices, then buckets) and the
    coalesced count-partial refs.
    """
    # driver-side only: workers that import this module for its tasks
    # never load the datapipe package
    from ..datapipe.exchange import COALESCE_PARTS, Coalescer

    state_dir = run[2]
    # stream classify output blocks into split tasks as they finish, so
    # the map side of the exchange overlaps the classify stage. EVERY
    # per-block ref family funnels through a Coalescer, so driver-held
    # refs stay O(COALESCE_PARTS + n_buckets) regardless of block count
    # (a 100 TB input is ~1.6 M blocks — per-block refs at ~9 KB RSS each
    # would be ~14 GB of driver memory):
    #   stateless slices → remote concat (also merges many tiny blocks
    #     into fewer, larger downstream blocks),
    #   count partials  → labeled concat (labels survive; metrics() reads
    #     the `part` column, not ref identity),
    #   size arrays     → remote elementwise sum.
    _co = _coalesce.options(max_retries=task_retries)
    stateless_parts = Coalescer(_co)
    count_parts = Coalescer(_co)
    size_parts = Coalescer(_sum_sizes.options(max_retries=task_retries))
    pending_counts: list = []
    pending_labels: list = []

    def push_count(ref, label: str, flush: bool = False) -> None:
        pending_counts.append(ref)
        pending_labels.append(label)
        if flush or len(pending_counts) >= COALESCE_PARTS:
            count_parts.add(_combine_counts.options(
                max_retries=task_retries).remote(
                list(pending_labels), *pending_counts))
            pending_counts.clear()
            pending_labels.clear()

    bucket_parts = [Coalescer(_co) for _ in range(n_buckets)]
    n_blocks = 0
    for bundle in matches_ds.iter_internal_ref_bundles():
        for block_ref in bundle.block_refs:
            outs = _split_block.options(num_returns=n_buckets + 3,
                                        max_retries=task_retries).remote(
                block_ref, n_buckets)
            stateless_parts.add(outs[0])
            push_count(outs[1], f"p{n_blocks:05d}")
            size_parts.add(outs[2])
            for k in range(n_buckets):
                bucket_parts[k].add(outs[k + 3])
            n_blocks += 1

    bucket_bytes = np.zeros(n_buckets, dtype=np.int64)
    for s in ray.get(size_parts.parts()):
        bucket_bytes += s

    reduced_refs: list = []
    for k in range(n_buckets):
        sub = int(min(64, -(-int(bucket_bytes[k]) // max(1, max_bucket_bytes))))
        if sub >= 2 and state_dir is None:
            # skewed bucket: salt by finer conv hash into `sub` tasks so
            # reduce memory stays bounded at scale (state_dir runs keep
            # the 1:1 bucket↔snapshot-file layout and skip refinement)
            subs: list[list] = [[] for _ in range(sub)]
            for part in bucket_parts[k].parts():
                sub_outs = _refine_block.options(num_returns=sub,
                                                 max_retries=task_retries).remote(
                    part, n_buckets, sub)
                for j in range(sub):
                    subs[j].append(sub_outs[j])
            for j in range(sub):
                tbl_ref, cnt_ref = _corr_bucket.options(
                    max_retries=task_retries).remote(run, k, *subs[j])
                reduced_refs.append(tbl_ref)
                push_count(cnt_ref, f"b{k:04d}.{j}")
        else:
            tbl_ref, cnt_ref = _corr_bucket.options(
                max_retries=task_retries).remote(run, k, *bucket_parts[k].parts())
            reduced_refs.append(tbl_ref)
            push_count(cnt_ref, f"b{k:04d}")
    if pending_counts:
        push_count(pending_counts.pop(), pending_labels.pop(), flush=True)
    return stateless_parts.parts() + reduced_refs, count_parts.parts()


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
