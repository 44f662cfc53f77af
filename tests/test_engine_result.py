"""``run_engine`` returns only once the exchange is complete, but builds
the public match Dataset lazily; its consumers never read the input
again; a file source is read by the exchange's map tasks, one per file,
with no Ray Data read; and the per-worker compile cache keys on the
compile inputs, not on per-run object refs."""

import collections
import json
import os
import re

import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from sagan_ray import exchange
from sagan_ray.config import EngineConfig, Lookups
from sagan_ray.io.sinks import write_sinks
from sagan_ray.oracle import ReferenceEvaluator
from sagan_ray.pipelines import engine
from sagan_ray.pipelines.engine import compile_key, run_engine
from sagan_ray.rules import parse_rules
from sagan_ray.sources.transcripts import TranscriptFiles, read_transcripts
from sagan_ray.state.snapshot import read_state_meta
from sagan_ray.synth import build_lookups, gen_transcripts

from .helpers import run_both
from .test_correlation import mk
from .test_replay import RULES

ROWS = [
    ("a", 0, "login failed", 0),
    ("a", 1, "login success", 10),
    ("a", 2, "EV", 20),
    ("a", 3, "EV", 30),
    ("b", 0, "mark", 0),
    ("b", 1, "probe", 5),
    ("c", 0, "TV", 0),
    ("c", 1, "TV", 1),
]


def test_counts_and_snapshots_without_building_the_dataset(tmp_path, monkeypatch):
    ruleset = parse_rules(RULES)
    lookups = build_lookups()
    tbl = mk(ROWS)
    ds = ray.data.from_arrow(tbl)
    state_dir = str(tmp_path / "state")

    def no_dataset(*args, **kwargs):
        raise AssertionError("from_arrow_refs called before matches was read")

    monkeypatch.setattr(ray.data, "from_arrow_refs", no_dataset)
    eng = run_engine(ds, ruleset, lookups, EngineConfig(), batch_size=4,
                     state_dir=state_dir)
    # every bucket's snapshot is on disk when run_engine returns
    n_buckets = read_state_meta(state_dir)
    assert n_buckets and all(
        os.path.exists(os.path.join(state_dir, f"bucket={b}", "state.parquet"))
        for b in range(n_buckets))
    oracle = ReferenceEvaluator(ruleset, lookups).evaluate(tbl.to_pylist())
    assert eng.routed_counts() == oracle.routed_counts()
    monkeypatch.undo()

    matches = eng.matches.to_pandas()
    assert collections.Counter(matches["sid"].astype(int)) == oracle.hit_counts()
    assert eng.hit_counts() == oracle.hit_counts()


def test_compile_key_tracks_compile_inputs():
    ruleset = parse_rules(RULES)
    lookups = build_lookups()
    config = EngineConfig()
    key = compile_key(ruleset, lookups, config)
    assert compile_key(ruleset, lookups, config) == key
    # rebuilt from the same sources: same key
    assert compile_key(parse_rules(RULES), build_lookups(),
                       EngineConfig()) == key
    others = {
        compile_key(parse_rules(RULES.replace("600", "601")), lookups,
                    config),
        compile_key(ruleset, Lookups(), config),
        compile_key(ruleset, lookups, EngineConfig(ignore_list=("noise",))),
    }
    assert key not in others and len(others) == 3


STATELESS_RULES = """
alert any any any -> any any (msg:"lf"; content:"login"; sid:1;)
alert any any any -> any any (msg:"tv"; content:"TV"; sid:2;)
pass any any any -> any any (msg:"quiet"; content:"success"; sid:3;)
"""


def test_stateless_metrics_agree_with_counts():
    """A stateless ruleset runs the exchange's map side with zero
    buckets: metrics() holds map-side partials only, and it agrees with
    hit_counts() and routed_counts()."""
    ruleset = parse_rules(STATELESS_RULES)
    assert not ruleset.has_stateful
    eng = run_engine(ray.data.from_arrow(mk(ROWS)), ruleset, build_lookups(),
                     EngineConfig(), batch_size=4)
    m = eng.metrics()
    assert m.schema.names == ["sid", "hits", "emits", "part"]
    parts = set(m.column("part").to_pylist())
    assert parts and all(re.fullmatch(r"p\d{5}", p) for p in parts)
    hits, emits = collections.Counter(), collections.Counter()
    for sid, h, e in zip(m.column("sid").to_pylist(),
                         m.column("hits").to_pylist(),
                         m.column("emits").to_pylist()):
        hits[sid] += h
        emits[sid] += e
    assert dict(hits) == eng.hit_counts() and hits
    assert eng.routed_counts() == {(s, sid): n for sid, n in emits.items()
                                   if n for s in EngineConfig().sinks}
    assert sum(hits.values()) > sum(emits.values())     # the pass rule


def test_one_cpu_run_replays_in_one_bucket(tmp_path, monkeypatch):
    """The engine replays a 1-CPU session in one bucket: it writes a
    1-bucket state layout, and metrics() labels its one reduce partial
    ``b0000``."""
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    ruleset = parse_rules(RULES)
    state_dir = str(tmp_path / "state")
    eng = run_engine(ray.data.from_arrow(mk(ROWS)), ruleset, build_lookups(),
                     EngineConfig(), batch_size=4, state_dir=state_dir)
    monkeypatch.undo()
    with open(os.path.join(state_dir, "_STATE.json")) as f:
        assert json.load(f) == {"n_buckets": 1, "v": 1}
    assert sorted(os.listdir(state_dir)) == ["_STATE.json", "bucket=0"]
    parts = set(eng.metrics().column("part").to_pylist())
    assert "b0000" in parts and not any(
        p.startswith("b") and p != "b0000" for p in parts)
    oracle = ReferenceEvaluator(ruleset, build_lookups()).evaluate(
        mk(ROWS).to_pylist())
    assert eng.routed_counts() == oracle.routed_counts()


@pytest.mark.parametrize("rules", [STATELESS_RULES, RULES],
                         ids=["stateless", "stateful"])
def test_a_run_reads_its_input_once(tmp_path, rules):
    """run_engine, routed_counts(), metrics() and write_sinks(thin=True)
    together read each input batch once: every consumer reads the
    exchange's output, none classifies the input again."""
    log = str(tmp_path / "batches.log")

    def record(tbl):
        with open(log, "a") as f:
            f.write(f"{len(tbl)}\n")
        return tbl

    tbl = mk(ROWS)
    blocks = [tbl.slice(0, 3), tbl.slice(3, 3), tbl.slice(6)]
    ds = ray.data.from_arrow(blocks).map_batches(
        record, batch_format="pyarrow", batch_size=None)
    ruleset = parse_rules(rules)
    lookups = build_lookups()
    eng = run_engine(ds, ruleset, lookups, EngineConfig(), batch_size=4)
    oracle = ReferenceEvaluator(ruleset, lookups).evaluate(tbl.to_pylist())
    assert eng.routed_counts() == oracle.routed_counts()
    assert eng.metrics().num_rows
    per_sink = write_sinks(eng, str(tmp_path / "sinks"), thin=True)
    assert sum(per_sink.values()) == sum(oracle.routed_counts().values())
    with open(log) as f:
        batches = sorted(int(n) for n in f.read().split())
    assert batches == sorted(len(b) for b in blocks)


@pytest.mark.parametrize("rules", [STATELESS_RULES, RULES],
                         ids=["stateless", "stateful"])
def test_a_file_source_run_reads_its_input_once(tmp_path, monkeypatch, rules):
    """The file-source case: one map task per file reads it, and no
    consumer of the result reads the files again — they are gone by the
    time routed_counts(), metrics() and write_sinks(thin=True) run."""
    tbl = mk(ROWS)
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for i, (off, n) in enumerate([(0, 3), (3, 3), (6, 2)]):
        pq.write_table(tbl.slice(off, n), str(in_dir / f"part-{i}.parquet"))
    source = read_transcripts(str(in_dir))
    calls = []
    monkeypatch.setattr(exchange, "split_block",
                        _TaskRecorder(exchange.split_block, calls))
    ruleset = parse_rules(rules)
    lookups = build_lookups()
    eng = run_engine(source, ruleset, lookups, EngineConfig(), batch_size=2)
    read = [a[0].paths for a in calls if isinstance(a[0], TranscriptFiles)]
    assert read == [(p,) for p in source.paths] and len(read) == 3
    for p in source.paths:
        os.remove(p)
    oracle = ReferenceEvaluator(ruleset, lookups).evaluate(tbl.to_pylist())
    assert eng.routed_counts() == oracle.routed_counts()
    assert eng.metrics().num_rows
    per_sink = write_sinks(eng, str(tmp_path / "sinks"), thin=True)
    assert sum(per_sink.values()) == sum(oracle.routed_counts().values())


def test_file_source_needs_no_ray_data_read(tmp_path, monkeypatch):
    """A file-source run over several files, each read in several
    ``batch_size`` slices, matches the oracle with Ray Data's
    ``read_parquet`` made to raise."""
    def no_read(*args, **kwargs):
        raise AssertionError("read_parquet called for a file source")

    monkeypatch.setattr(ray.data, "read_parquet", no_read)
    tbl = gen_transcripts(900, seed=3)
    blocks = [tbl.slice(off, 300) for off in range(0, len(tbl), 300)]
    run_both("correlate.rules", blocks, batch_size=128,
             files_dir=str(tmp_path / "in"))


@pytest.mark.parametrize("rules", [STATELESS_RULES, RULES],
                         ids=["stateless", "stateful"])
def test_empty_input(rules):
    """An empty input block passes the classify map in the input's
    schema; the exchange's map side still takes it."""
    eng = run_engine(ray.data.from_arrow(mk([])), parse_rules(rules),
                     build_lookups(), EngineConfig())
    assert eng.hit_counts() == {} and eng.routed_counts() == {}
    assert eng.metrics().num_rows == 0
    assert eng.matches.count() == 0


def test_pandas_blocks():
    """A Dataset of pandas blocks feeds the map task as Arrow tables."""
    ruleset = parse_rules(RULES)
    lookups = build_lookups()
    tbl = mk(ROWS)
    eng = run_engine(ray.data.from_pandas(tbl.to_pandas()), ruleset, lookups,
                     EngineConfig(), batch_size=4)
    oracle = ReferenceEvaluator(ruleset, lookups).evaluate(tbl.to_pylist())
    assert eng.routed_counts() == oracle.routed_counts()


class _TaskRecorder:
    """Remote-function stand-in that records the arguments of each task
    it submits."""

    def __init__(self, task, calls):
        self.task, self.calls = task, calls

    def options(self, **kwargs):
        return _TaskRecorder(self.task.options(**kwargs), self.calls)

    def remote(self, *args):
        self.calls.append(args)
        return self.task.remote(*args)


def _cache_keys(monkeypatch, rules: str) -> list:
    """Run the engine once over ROWS, then replay its map task's classify
    (the side function of the first split task) and one bucket's
    correlate task in this process and return the (kind, key) pairs they
    hand to the per-worker compile cache."""
    tbl = mk(ROWS)
    corr, splits, runs = engine._corr_bucket, [], []
    with monkeypatch.context() as m:
        m.setattr(exchange, "split_block",
                  _TaskRecorder(exchange.split_block, splits))
        m.setattr(engine, "_corr_bucket", _TaskRecorder(corr, runs))
        run_engine(ray.data.from_arrow(tbl), parse_rules(rules),
                   build_lookups(), EngineConfig(), batch_size=4)
    seen = []
    with monkeypatch.context() as m:
        m.setattr(engine, "_worker_cached",
                  lambda kind, key, build: seen.append((kind, key)) or build())
        classify = splits[0][4]
        classify(tbl, 0)
        corr._function(runs[0][0], 0, "b0")
    return seen


def test_compile_cache_key_is_stable_across_runs(monkeypatch):
    """Two runs with equal inputs hand the classifier and the correlator
    the same cache keys, so warm workers reuse what they compiled; a
    changed ruleset gets new keys."""
    first = _cache_keys(monkeypatch, RULES)
    assert [kind for kind, _ in first] == ["classifier", "correlator"]
    assert _cache_keys(monkeypatch, RULES) == first
    other = _cache_keys(monkeypatch, RULES.replace("600", "601"))
    assert all(a != b for (_, a), (_, b) in zip(first, other))
