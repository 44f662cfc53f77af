"""Many-block exchange stress: drive hash_group_apply and the engine's
correlation exchange with thousands of tiny input blocks and report
driver RSS + held object-ref counts, demonstrating the coalescer keeps
driver memory flat (O(buckets), not O(blocks × buckets)).

Usage: python tools/stress_exchange.py [n_blocks] [rows_per_block]
       python tools/stress_exchange.py --engine [n_blocks] [rows_per_block] [task_retries]

``--engine`` drives the FULL correlation exchange (run_engine with a
stateful ruleset) over n_blocks tiny transcript blocks and reports driver
RSS growth + the count of driver-held stateless/count refs — the
r4-verdict finding was ~9 KB of driver RSS per classify block from
per-block refs; post-coalescing both should be flat in n_blocks.
Prints one JSON line; numbers are recorded in BASELINE.md.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import warnings

warnings.filterwarnings("ignore")
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def anon_mb() -> float:
    """Private (anonymous) resident memory — the driver's actual Python
    heap. ru_maxrss/VmRSS also counts /dev/shm plasma pages the driver
    maps when it creates or gets objects (single-node: the object store
    is shared memory), which scales with DATA size and says nothing
    about per-block ref bookkeeping."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) / 1024.0
    return rss_mb()


def engine_main(args: list[str]):
    """run_engine's correlation exchange over n_blocks tiny transcript
    blocks; report RSS growth and driver-held ref counts."""
    n_blocks = int(args[0]) if args else 2000
    rows = int(args[1]) if len(args) > 1 else 64
    retries = int(args[2]) if len(args) > 2 else 3

    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data as rd

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from sagan_ray.pipelines.engine import run_engine
    from sagan_ray.rules import parse_rules

    # small mixed stateless+stateful ruleset — enough to exercise the
    # full split/coalesce/reduce path per block
    ruleset = parse_rules("""
alert any any any -> any any (msg:"u"; content:"login failed"; sid:1;)
alert any any any -> any any (msg:"a"; content:"AUTH FAILURE"; \
after: track by_src, count 3, seconds 300; sid:2;)
alert any any any -> any any (msg:"t"; content:"via ssh"; \
threshold: type limit, track by_src, count 2, seconds 600; sid:3;)
""")

    rng = np.random.default_rng(7)

    def make_block(i: int) -> pa.Table:
        conv = [f"c{rng.integers(0, 5000):05d}" for _ in range(rows)]
        # a mix that hits both stateless and stateful bench rules
        texts = [("login failed for user u%06d via ssh" % rng.integers(1e6))
                 if j % 3 else "AUTH FAILURE from 10.1.2.3 port 22"
                 for j in range(rows)]
        return pa.table({
            "conv_id": pa.array(conv),
            "turn_idx": pa.array((np.arange(rows) + i * rows).astype(np.int32)),
            "ts": pa.array((1_700_000_000_000_000 +
                            (np.arange(rows) + i * rows) * 1_000_000
                            ).astype("int64")).cast(pa.timestamp("us")),
            "role": pa.array(["user"] * rows),
            "tool": pa.array(["shell"] * rows),
            "text": pa.array(texts),
        })

    blocks = [make_block(i) for i in range(n_blocks)]
    ds = rd.from_arrow(blocks)
    anon_before = anon_mb()
    eng = run_engine(ds, ruleset, batch_size=rows, task_retries=retries)
    counts = eng.hit_counts()
    anon_after = anon_mb()
    print(json.dumps({
        "metric": "engine correlation-exchange driver private RSS over tiny blocks",
        "n_blocks": n_blocks,
        "rows_per_block": rows,
        "task_retries": retries,
        "n_hits": int(sum(counts.values())),
        "count_refs_held": len(eng.count_refs or []),
        "anon_before_mb": round(anon_before, 1),
        "anon_after_mb": round(anon_after, 1),
        "anon_growth_mb": round(anon_after - anon_before, 1),
        "anon_kb_per_block": round((anon_after - anon_before) * 1024 / n_blocks, 2),
    }))
    ray.shutdown()


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--engine":
        engine_main(sys.argv[2:])
        return
    n_blocks = int(sys.argv[1]) if len(sys.argv) > 1 else 5000
    rows = int(sys.argv[2]) if len(sys.argv) > 2 else 200

    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data as rd

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from sagan_ray.exchange import hash_group_apply

    rng = np.random.default_rng(11)

    def make_block(i: int) -> pa.Table:
        return pa.table({
            "k": pa.array(rng.integers(0, 50_000, rows), pa.int64()),
            "v": pa.array(rng.random(rows), pa.float64()),
        })

    # one input block per item — from_arrow of n_blocks tables
    blocks = [make_block(i) for i in range(n_blocks)]
    ds = rd.from_arrow(blocks)
    rss_before = rss_mb()

    def agg(df):
        return df.groupby("k", sort=False)["v"].sum().reset_index()

    out = hash_group_apply(ds, ["k"], agg,
                           out_schema=pa.schema([("k", pa.int64()),
                                                 ("v", pa.float64())]))
    n_out = out.count()
    rss_after = rss_mb()

    print(json.dumps({
        "metric": "exchange driver RSS over many tiny blocks",
        "n_blocks": n_blocks,
        "rows_per_block": rows,
        "distinct_keys_out": int(n_out),
        "rss_before_mb": round(rss_before, 1),
        "rss_after_mb": round(rss_after, 1),
        "rss_growth_mb": round(rss_after - rss_before, 1),
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
