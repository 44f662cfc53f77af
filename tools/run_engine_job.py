"""Engine job entry point (driven by `ray job submit` on a cluster, or
directly in local mode — see tools/submit_job.sh).

Reads transcript Parquet, runs the full rule engine, writes per-sink
Parquet with a resume manifest, and dumps the stats snapshot + the
per-partition metrics table.

Usage:
    python tools/run_engine_job.py --input DIR --rules FILE_OR_DIR \
        --output DIR [--ignore STR ...] [--batch-size N] [--state-dir DIR]

``--state-dir`` carries correlation state across runs: each run resumes
from the snapshots the last one left there (``run_engine``'s
``state_dir``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True, help="transcript parquet dir")
    ap.add_argument("--rules", required=True, help="rules file or dir of *.rules")
    ap.add_argument("--output", required=True, help="output dir (sinks + metrics)")
    ap.add_argument("--ignore", action="append", default=[],
                    help="droplist substring (repeatable)")
    ap.add_argument("--batch-size", type=int, default=32768)
    ap.add_argument("--state-dir", default=None,
                    help="correlation state snapshots to resume from and "
                         "write back (per-bucket state.parquet)")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import pyarrow.parquet as pq

    from sagan_ray.config import EngineConfig
    from sagan_ray.io.sinks import write_sinks
    from sagan_ray.pipelines.aggregates import stats_snapshot
    from sagan_ray.pipelines.engine import input_counters, run_engine
    from sagan_ray.rules import parse_rules, parse_rules_file
    from sagan_ray.sources.transcripts import read_transcripts
    from sagan_ray.synth import build_lookups

    if os.path.isdir(args.rules):
        text = "\n".join(open(os.path.join(args.rules, f)).read()
                         for f in sorted(os.listdir(args.rules))
                         if f.endswith(".rules"))
        ruleset = parse_rules(text)
    else:
        ruleset = parse_rules_file(args.rules)

    cfg = EngineConfig(ignore_list=tuple(args.ignore))
    src = read_transcripts(args.input)
    eng = run_engine(src, ruleset, build_lookups(),
                     cfg, batch_size=args.batch_size,
                     state_dir=args.state_dir)

    os.makedirs(args.output, exist_ok=True)
    per_sink = write_sinks(eng, os.path.join(args.output, "sinks"))
    pq.write_table(eng.metrics(), os.path.join(args.output, "metrics.parquet"))
    snap = stats_snapshot(input_counters(src.dataset(), cfg), eng)
    with open(os.path.join(args.output, "stats.json"), "w") as f:
        json.dump(snap, f, indent=2)
    print(json.dumps({"sinks": per_sink, "stats": snap}))


if __name__ == "__main__":
    main()
