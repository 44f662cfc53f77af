"""Skewed-conv_id soak — evidence for the north rule's "explicit
handling of skewed conv_ids": run the full engine over two same-size
transcript inputs, one with the normal Zipf-1.5 conversation sizes and
one with EXTREME skew (few conversations, the hottest holding a double-
digit percent of all turns), and report wall time + the hot-conv mass.

What bounds the damage (pipelines/engine.py, exchange.py):
- classify is conv-agnostic (pure map) — skew-immune;
- the correlation exchange moves only matched STATEFUL rows; map-side
  split tasks report per-bucket sizes and any oversized bucket is
  re-split by a FINER key hash into sub-tasks (keys stay whole), so
  reduce memory stays ≤ max_bucket_bytes;
- the irreducible serial unit is one conversation's ordered replay (a
  conversation cannot be split without breaking after/threshold/xbit
  semantics — SURVEY §4 hard part #4); the replay is the vectorized
  state machine at ~1 s / M matched rows.

Usage: python tools/skew_soak.py [n_turns]; prints one JSON line —
numbers recorded in BASELINE.md.
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings

warnings.filterwarnings("ignore")
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def build(n_turns: int, n_convs: int | None, out: str) -> float:
    """Write a transcript dir; returns the hottest conv's turn share."""
    import pyarrow.parquet as pq

    from sagan_ray.synth import gen_transcripts

    os.makedirs(out, exist_ok=True)
    done = os.path.join(out, "_DONE")
    tbl = None
    if not os.path.exists(done):
        tbl = gen_transcripts(n_turns, seed=7, n_convs=n_convs)
        rows_per_file = 62_500
        for i in range(0, len(tbl), rows_per_file):
            pq.write_table(tbl.slice(i, rows_per_file),
                           os.path.join(out, f"part-{i:010d}.parquet"),
                           row_group_size=32_768)
        open(done, "w").close()
    if tbl is None:
        tbl = pq.read_table(out.rstrip("/"))
    import pyarrow.compute as pc
    counts = pc.value_counts(tbl.column("conv_id"))
    top = max(c["counts"] for c in counts.to_pylist())
    return top / len(tbl)


def run_once(tdir: str) -> tuple[float, int]:
    from bench import BENCH_RULES
    from sagan_ray.config import EngineConfig
    from sagan_ray.pipelines.engine import run_engine
    from sagan_ray.rules import parse_rules
    from sagan_ray.sources.transcripts import read_transcripts
    from sagan_ray.synth import build_lookups

    ruleset = parse_rules(BENCH_RULES)
    cfg = EngineConfig(ignore_list=("DEBUG heartbeat",))
    lookups = build_lookups()
    _ = read_transcripts(tdir).dataset().count()   # page-cache warm
    best, routed = float("inf"), 0
    for _ in range(2):
        t0 = time.time()
        eng = run_engine(read_transcripts(tdir), ruleset, lookups, cfg,
                         batch_size=32768)
        counts = eng.routed_counts()
        best = min(best, time.time() - t0)
        routed = int(sum(counts.values()))
    return best, routed


def main():
    import ray

    n_turns = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000_000
    ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    base = "/tmp/sagan_ray_bench"
    normal = os.path.join(base, f"skew_normal_{n_turns}")
    extreme = os.path.join(base, f"skew_extreme_{n_turns}")
    share_n = build(n_turns, None, normal)       # Zipf over n/25 convs
    share_e = build(n_turns, 48, extreme)        # 48 convs total

    t_n, routed_n = run_once(normal)
    t_e, routed_e = run_once(extreme)
    print(json.dumps({
        "n_turns": n_turns,
        "normal": {"hot_conv_share": round(share_n, 4), "sec": round(t_n, 3),
                   "routed": routed_n},
        "extreme": {"hot_conv_share": round(share_e, 4), "sec": round(t_e, 3),
                    "routed": routed_e},
        "slowdown": round(t_e / t_n, 3),
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
