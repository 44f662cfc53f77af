"""``run_engine`` returns only once the exchange is complete, but builds
the public match Dataset lazily; and the per-worker compile cache keys
on the compile inputs, not on per-run object refs."""

import collections
import os

import ray.data

from sagan_ray.config import EngineConfig, Lookups
from sagan_ray.oracle import ReferenceEvaluator
from sagan_ray.pipelines.engine import compile_key, run_engine
from sagan_ray.rules import parse_rules
from sagan_ray.state.snapshot import read_state_meta
from sagan_ray.synth import build_lookups

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
    key = compile_key(ruleset, lookups, config, True)
    assert compile_key(ruleset, lookups, config, True) == key
    # rebuilt from the same sources: same key
    assert compile_key(parse_rules(RULES), build_lookups(), EngineConfig(),
                       True) == key
    others = {
        compile_key(ruleset, lookups, config, False),
        compile_key(parse_rules(RULES.replace("600", "601")), lookups,
                    config, True),
        compile_key(ruleset, Lookups(), config, True),
        compile_key(ruleset, lookups, EngineConfig(ignore_list=("noise",)),
                    True),
    }
    assert key not in others and len(others) == 4
