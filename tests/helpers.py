"""Shared test harness: run the oracle evaluator and the Ray pipeline on
the same table + ruleset and compare hit counts, routed row-sets, and
byte-exact text of routed rows (FIXTURES.md §4 artifacts)."""

from __future__ import annotations

import collections
import os

import pyarrow as pa

from sagan_ray.config import EngineConfig
from sagan_ray.oracle import ReferenceEvaluator
from sagan_ray.pipelines.engine import run_engine
from sagan_ray.rules import parse_rules, parse_rules_file
from sagan_ray.synth import build_lookups

RULESET_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "rulesets")


def load_ruleset(name_or_text: str):
    if name_or_text.endswith(".rules"):
        return parse_rules_file(os.path.join(RULESET_DIR, name_or_text))
    return parse_rules(name_or_text)


def run_both(ruleset, tbl, config: EngineConfig | None = None,
             lookups=None, expect_hits: bool = True, batch_size: int = 512):
    """``tbl``: one table, or a list of tables that become the input's
    blocks in that order (the oracle reads their rows in that order)."""
    import ray.data as rd

    blocks = tbl if isinstance(tbl, list) else [tbl]
    tbl = pa.concat_tables(blocks)
    if isinstance(ruleset, str):
        ruleset = load_ruleset(ruleset)
    config = config or EngineConfig()
    lookups = lookups if lookups is not None else build_lookups()

    oracle = ReferenceEvaluator(ruleset, lookups, config).evaluate(tbl.to_pylist())
    engine = run_engine(rd.from_arrow(blocks), ruleset, lookups, config,
                        batch_size=batch_size)

    matches = engine.matches.to_pandas()
    routed = engine.routed_exploded().to_pandas()
    # empty Ray results lose their schema — reindex to the expected columns
    from sagan_ray.stages.classify import MATCH_SCHEMA

    matches = matches.reindex(columns=[f.name for f in MATCH_SCHEMA])
    routed = routed.reindex(columns=list(matches.columns) + ["sink"])

    # (a) rule-hit counts per sid
    ray_hits = collections.Counter(matches["sid"].dropna().astype(int))
    assert dict(ray_hits) == oracle.hit_counts(), (
        f"hit counts diverge: ray={dict(sorted(ray_hits.items()))} "
        f"oracle={dict(sorted(oracle.hit_counts().items()))}")

    # (b) routed-row multiset per sink
    ray_routed = collections.Counter(
        zip(routed["sink"], routed["sid"].astype(int),
            routed["conv_id"], routed["turn_idx"].astype(int)))
    oracle_routed = collections.Counter(oracle.routed)
    assert ray_routed == oracle_routed, (
        f"routed sets diverge: only-ray={ray_routed - oracle_routed} "
        f"only-oracle={oracle_routed - ray_routed}")

    # (c) byte-exact text of routed rows under (conv_id, turn_idx)
    texts = {(c, int(t)): x for c, t, x in zip(
        tbl.column("conv_id").to_pylist(),
        tbl.column("turn_idx").to_pylist(),
        tbl.column("text").to_pylist())}
    for c, t, x in zip(routed["conv_id"], routed["turn_idx"].astype(int),
                       routed["text"]):
        assert texts[(c, t)] == x, f"text mismatch at ({c},{t})"

    if expect_hits:
        assert len(matches) > 0, "fixture produced zero hits — test is vacuous"
    return oracle, engine
