"""Per-layer trace of one workload (``run.py --trace 1``).

Spans wrap calls into the engine's public layer functions from the
outside; nothing inside ``sagan_ray`` changes. The trace has two parts:

1. a single-process replay, without Ray, of the op's input blocks through
   the layers: ``pyarrow`` read (sources) → ``RuleClassifier`` with
   ``match_stateless`` timed as the residual (stages.classify) → the
   stateful split the exchange ships (pipelines.engine) →
   ``make_list_correlator`` (stages.correlate) → ``explode_match_lists``;
2. Ray ops, alternately plain and with spans around ``run_engine`` and
   ``routed_counts``. ``pipelines.engine.overhead_s`` is the median traced
   op wall minus the replay's summed layer busy times. One more op yields
   the bucket skew from ``EngineResult.metrics()``, the sink write on its
   materialized result, and the state snapshots it left.

Spans stay in memory and are written once, at the end, to
``<work-dir>/traces/<workload>-s<seed>.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from contextlib import contextmanager

# single-process replays per traced run; per-layer times are their medians
REPLAYS = 3
MB = 1e6


class Tracer:
    """In-memory spans: id, name, start, end and the id of the parent span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def busy(self, name: str, parent: int) -> float:
        """Summed duration of the ``name`` spans directly under ``parent``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["parent"] == parent)

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.spans, f)


@contextmanager
def residual_probe():
    """Count and time every ``match_stateless`` call the classifier makes
    (its per-row Python residual), by wrapping the name it calls."""
    import sagan_ray.stages.classify as classify

    inner = classify.match_stateless
    stats = {"calls": 0, "hits": 0, "s": 0.0}

    def timed(rule, rc, lookups):
        t0 = time.perf_counter()
        fields = inner(rule, rc, lookups)
        stats["s"] += time.perf_counter() - t0
        stats["calls"] += 1
        stats["hits"] += fields is not None
        return fields

    classify.match_stateless = timed
    try:
        yield stats
    finally:
        classify.match_stateless = inner


def replay(op, tracer: Tracer, batch_size: int = 16384) -> dict:
    """One single-process pass of the op's input through the layers; the
    layer counts (busy times are read from the tracer's spans)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from sagan_ray.sources.transcripts import COLUMNS
    from sagan_ray.stages.classify import RuleClassifier, explode_match_lists
    from sagan_ray.stages.correlate import make_list_correlator

    list_form = op.ruleset.has_stateful
    # compiled once per worker in the engine: set-up, not classify time
    classifier = RuleClassifier(op.ruleset, op.lookups, op.config,
                                list_form=list_form)
    correlate = make_list_correlator(op.ruleset) if list_form else None
    files = sorted(f for f in os.listdir(op.input_dir) if f.endswith(".parquet"))
    c = {"rows": 0, "in_bytes": 0, "out_rows": 0, "out_bytes": 0,
         "exchange_rows": 0, "exchange_bytes": 0, "corr_in": 0, "corr_out": 0}
    with tracer.span("replay") as root:
        blocks = []
        for f in files:
            with tracer.span("sources.read"):
                blocks.append(pq.read_table(os.path.join(op.input_dir, f),
                                            columns=COLUMNS))
        c["rows"] = sum(len(b) for b in blocks)
        c["in_bytes"] = sum(b.nbytes for b in blocks)

        outs = []
        with residual_probe() as residual:
            for b in blocks:
                for off in range(0, len(b), batch_size):
                    with tracer.span("stages.classify"):
                        outs.append(classifier(b.slice(off, batch_size)))
        c.update(residual_s=residual["s"], residual_calls=residual["calls"],
                 residual_hits=residual["hits"])
        c["out_rows"] = sum(len(t) for t in outs)
        c["out_bytes"] = sum(t.nbytes for t in outs)

        # the exchange ships only the stateful rows; correlation state is
        # per conversation, so one replay call over all of them routes
        # exactly as the engine's per-bucket calls do
        if list_form:
            stateful = [t.filter(t.column("stateful")) for t in outs]
            stateless = [t.filter(pc.invert(t.column("stateful"))) for t in outs]
            shipped = pa.concat_tables(stateful)
            c["exchange_rows"] = len(shipped)
            c["exchange_bytes"] = shipped.nbytes
            with tracer.span("stages.correlate"):
                corr = correlate(shipped, init_states={}, out_states={})
            c["corr_in"], c["corr_out"] = len(shipped), len(corr)
            with tracer.span("stages.classify.explode"):
                for t in stateless + [corr]:
                    explode_match_lists(t)
    c["root"] = root["id"]
    return c


def bucket_skew(result) -> float:
    """Max over mean of per-bucket hits from ``EngineResult.metrics()``
    (reduce partials are labelled ``b<bucket>[.<sub>]``)."""
    m = result.metrics()
    per_bucket: dict[str, int] = {}
    for part, hits in zip(m.column("part").to_pylist(),
                          m.column("hits").to_pylist()):
        if part.startswith("b"):
            key = part.split(".")[0]
            per_bucket[key] = per_bucket.get(key, 0) + int(hits)
    if not per_bucket or not sum(per_bucket.values()):
        return 0.0
    return max(per_bucket.values()) / statistics.mean(per_bucket.values())


def dir_size(path: str) -> tuple[int, int]:
    """(files, bytes) under ``path``."""
    files = size = 0
    for d, _, names in os.walk(path):
        for n in names:
            files += 1
            size += os.path.getsize(os.path.join(d, n))
    return files, size


def inspect_op(op, tracer: Tracer, out: dict) -> float:
    """One more op, for what the timed op does not show: the bucket skew,
    then ``write_sinks(thin=True)`` on its materialized result into a
    fresh dir, and the per-bucket state snapshots it left in a fresh
    ``state_dir``. The sink rows are checked against the oracle's per-sink
    sums. Fills ``out``; returns the op's wall seconds without the write."""
    from sagan_ray.io.sinks import write_sinks
    from sagan_ray.pipelines.engine import EngineResult
    from sagan_ray.state.snapshot import load_bucket_state, read_state_meta

    state_dir = os.path.join(op.scratch_dir, "state")
    sink_dir = os.path.join(op.scratch_dir, "sinks")
    try:
        t0 = time.perf_counter()
        res = op.run_engine(state_dir)
        counts = res.routed_counts()
        wall = time.perf_counter() - t0
        out["bucket_skew"] = bucket_skew(res) if res.count_refs is not None else 0.0
        mat = EngineResult(matches=res.matches.materialize(),
                           ruleset=res.ruleset, config=res.config,
                           count_refs=res.count_refs)
        with tracer.span("io.sinks.write") as s:
            per_sink = write_sinks(mat, sink_dir, thin=True)
        out["sinks_write_s"] = s["end"] - s["start"]
        out["sinks_rows"] = sum(per_sink.values())
        out["sinks_bytes"] = dir_size(sink_dir)[1]
        out["snap_files"], out["snap_bytes"] = dir_size(state_dir)
        with tracer.span("state.snapshot.load") as s:
            for b in range(read_state_meta(state_dir) or 0):
                load_bucket_state(state_dir, b)
        out["snap_load_s"] = s["end"] - s["start"]
        op.check(counts, per_sink, wall)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
        shutil.rmtree(sink_dir, ignore_errors=True)
    return wall


def traced_run(op, log, seconds: float, n_turns: int, repo_root: str,
               work_dir: str, seed: int) -> tuple[dict, dict] | None:
    from ops import metric as m
    from ops import start_ray

    tracer = Tracer()
    start_ray(work_dir, repo_root)
    log.attempt(op)                       # set-up: worker spin-up, compile

    counts = [replay(op, tracer) for _ in range(REPLAYS)]
    c = counts[-1]

    def layer(name: str) -> float:
        return statistics.median(tracer.busy(name, r["root"]) for r in counts)

    read_s, classify_s = layer("sources.read"), layer("stages.classify")
    correlate_s = layer("stages.correlate")

    # alternate plain and traced ops; the traced ones give the overhead
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        for span, walls in ((tracer.span, traced), (None, plain)):
            wall = log.attempt(op, span=span)
            if wall is not None:
                walls.append(wall)
        if time.perf_counter() >= deadline:
            break
    extra: dict = {}
    inspected = log.attempt(inspect_op, op=op, tracer=tracer, out=extra)
    tracer.dump(os.path.join(work_dir, "traces", f"{op.workload.name}-s{seed}.json"))
    if not traced or not plain or inspected is None:
        return None

    op_s = statistics.median(traced)
    busy = read_s + classify_s + correlate_s
    calls = statistics.median(r["residual_calls"] for r in counts)
    hits = statistics.median(r["residual_hits"] for r in counts)

    metrics = {
        "sources.read_s": m(read_s, "s"),
        "sources.rows": m(c["rows"], "count"),
        "sources.mb": m(c["in_bytes"] / MB, "MB"),
        "stages.classify.busy_s": m(classify_s, "s"),
        "stages.classify.rows_per_s": m(c["rows"] / classify_s, "1/s"),
        "stages.classify.residual_s":
            m(statistics.median(r["residual_s"] for r in counts), "s"),
        "stages.classify.residual_calls": m(calls, "count"),
        "stages.classify.residual_hits": m(hits, "count"),
        "stages.classify.residual_hit_ratio": m(hits / calls if calls else 0.0,
                                                "ratio"),
        "stages.classify.out_rows": m(c["out_rows"], "count"),
        "stages.classify.out_mb": m(c["out_bytes"] / MB, "MB"),
        "stages.classify.explode_s": m(layer("stages.classify.explode"), "s"),
        "pipelines.engine.exchange_rows": m(c["exchange_rows"], "count"),
        "pipelines.engine.exchange_mb": m(c["exchange_bytes"] / MB, "MB"),
        "pipelines.engine.bucket_skew": m(extra["bucket_skew"], "ratio"),
        "pipelines.engine.overhead_s": m(op_s - busy, "s"),
        "stages.correlate.busy_s": m(correlate_s, "s"),
        "stages.correlate.rows_in": m(c["corr_in"], "count"),
        "stages.correlate.rows_out": m(c["corr_out"], "count"),
        "io.sinks.write_s": m(extra["sinks_write_s"], "s"),
        "io.sinks.rows": m(extra["sinks_rows"], "count"),
        "io.sinks.mb": m(extra["sinks_bytes"] / MB, "MB"),
        "state.snapshot.mb": m(extra["snap_bytes"] / MB, "MB"),
        "state.snapshot.files": m(extra["snap_files"], "count"),
        "state.snapshot.load_s": m(extra["snap_load_s"], "s"),
        "trace.turns_per_s_delta":
            m(statistics.median(n_turns / w for w in plain)
              - statistics.median(n_turns / w for w in traced), "1/s"),
    }
    shares = {k: round(v / op_s, 3) for k, v in (
        ("sources", read_s), ("stages.classify", classify_s),
        ("stages.correlate", correlate_s),
        ("pipelines.engine.overhead", op_s - busy),
        ("io.sinks.write_vs_op", extra["sinks_write_s"]))}
    detail = {"traced_op_s_p50": op_s, "traced_ops": len(traced),
              "plain_ops": len(plain), "replays": REPLAYS, "shares": shares}
    return metrics, detail
