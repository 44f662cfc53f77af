"""Shared test harness: run the oracle evaluator and the Ray pipeline on
the same table + ruleset and compare hit counts, the routed row-sets
that ``write_sinks`` ships, and byte-exact text of routed rows
(FIXTURES.md §4 artifacts)."""

from __future__ import annotations

import collections
import os
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq

from sagan_ray.config import EngineConfig
from sagan_ray.io.sinks import write_sinks
from sagan_ray.oracle import ReferenceEvaluator
from sagan_ray.pipelines.engine import run_engine
from sagan_ray.rules import parse_rules, parse_rules_file
from sagan_ray.stages.classify import MATCH_SCHEMA
from sagan_ray.synth import build_lookups

RULESET_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "rulesets")


def load_ruleset(name_or_text: str):
    if name_or_text.endswith(".rules"):
        return parse_rules_file(os.path.join(RULESET_DIR, name_or_text))
    return parse_rules(name_or_text)


def shipped_rows(engine):
    """The routed rows ``write_sinks`` ships in its full layout, read
    back as one frame: one row per (alert × sink), the MATCH_SCHEMA
    columns plus ``sink`` (from the dir name)."""
    parts = [MATCH_SCHEMA.append(pa.field("sink", pa.string())).empty_table()]
    with tempfile.TemporaryDirectory() as out:
        write_sinks(engine, out)
        for entry in sorted(os.listdir(out)):
            if not entry.startswith("sink="):
                continue
            for f in sorted(os.listdir(os.path.join(out, entry))):
                t = pq.read_table(os.path.join(out, entry, f))
                parts.append(t.append_column(
                    "sink", pa.array([entry[len("sink="):]] * len(t), pa.string())))
    return pa.concat_tables(parts).to_pandas()


def run_both(ruleset, tbl, config: EngineConfig | None = None,
             lookups=None, expect_hits: bool = True, batch_size: int = 512,
             files_dir: str | None = None):
    """``tbl``: one table, or a list of tables that become the input's
    blocks in that order (the oracle reads their rows in that order).
    With ``files_dir``, each block is written there as its own Parquet
    file instead, named so that the file order is the block order, and
    the engine runs on ``read_transcripts(files_dir)``."""
    import ray.data as rd

    from sagan_ray.sources.transcripts import read_transcripts

    blocks = tbl if isinstance(tbl, list) else [tbl]
    tbl = pa.concat_tables(blocks)
    if isinstance(ruleset, str):
        ruleset = load_ruleset(ruleset)
    config = config or EngineConfig()
    lookups = lookups if lookups is not None else build_lookups()

    oracle = ReferenceEvaluator(ruleset, lookups, config).evaluate(tbl.to_pylist())
    if files_dir is None:
        source = rd.from_arrow(blocks)
    else:
        os.makedirs(files_dir)
        for i, b in enumerate(blocks):
            pq.write_table(b, os.path.join(files_dir, f"part-{i:05d}.parquet"))
        source = read_transcripts(files_dir)
    engine = run_engine(source, ruleset, lookups, config,
                        batch_size=batch_size)

    matches = engine.matches.to_pandas()
    routed = shipped_rows(engine)
    # empty Ray results lose their schema — reindex to the expected columns
    matches = matches.reindex(columns=[f.name for f in MATCH_SCHEMA])

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

    # (c) byte-exact text of routed rows: each is one of the input texts
    # of its (conv_id, turn_idx) — a turn can span several rows
    texts = collections.defaultdict(set)
    for c, t, x in zip(tbl.column("conv_id").to_pylist(),
                       tbl.column("turn_idx").to_pylist(),
                       tbl.column("text").to_pylist()):
        texts[(c, int(t))].add(x)
    for c, t, x in zip(routed["conv_id"], routed["turn_idx"].astype(int),
                       routed["text"]):
        assert x in texts[(c, t)], f"text mismatch at ({c},{t})"

    if expect_hits:
        assert len(matches) > 0, "fixture produced zero hits — test is vacuous"
    return oracle, engine
