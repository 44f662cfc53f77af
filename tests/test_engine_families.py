"""Oracle-vs-Ray parity across every rule-option family (FIXTURES.md §2),
over the deterministic synthetic transcript table."""

import pytest

from sagan_ray.config import EngineConfig
from sagan_ray.synth import gen_transcripts

from .helpers import run_both

FAMILIES = [
    "content.rules",
    "meta.rules",
    "pcre.rules",
    "prematch.rules",
    "eventid.rules",
    "json.rules",
    "extract.rules",
    "enrich.rules",
    "correlate.rules",
    "routing.rules",
]


@pytest.fixture(scope="module")
def tbl():
    return gen_transcripts(4000, seed=7)


@pytest.mark.parametrize("family", FAMILIES)
def test_family_parity(family, tbl):
    run_both(family, tbl)


def test_all_families_combined(tbl):
    """The whole fixture corpus as one ruleset — cross-family interactions
    (shared state names, pass ordering across files)."""
    import os

    from .helpers import RULESET_DIR
    text = "\n".join(open(os.path.join(RULESET_DIR, f)).read() for f in FAMILIES)
    run_both(text, tbl)


def test_ignore_list_and_counters(tbl):
    from sagan_ray.pipelines.engine import input_counters
    import ray.data as rd

    cfg = EngineConfig(ignore_list=("DEBUG heartbeat", "noise seq"))
    oracle, _ = run_both("content.rules", tbl, config=cfg)
    got = input_counters(rd.from_arrow(tbl), cfg)
    for k in ("events_received", "events_processed", "null_message", "ignored"):
        assert got[k] == oracle.counters[k], (k, got, oracle.counters)


def test_second_seed_parity():
    tbl2 = gen_transcripts(3000, seed=99)
    run_both("correlate.rules", tbl2)
    run_both("routing.rules", tbl2)


def test_bench_ruleset_parity():
    """The production-sized bench ruleset (107 rules: content/meta/pcre/
    json/enrich/correlation mix) against the oracle on synthetic
    transcripts — the most realistic rule mix gets the same parity gate
    as the per-family fixtures."""
    import os
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if root not in sys.path:        # repo root (for the documented
        sys.path.insert(0, root)    # `python -m pytest tests/` it already is)
    from bench import BENCH_RULES

    tbl = gen_transcripts(6000, seed=1234)
    run_both(BENCH_RULES, tbl,
             config=EngineConfig(ignore_list=("DEBUG heartbeat",)))
