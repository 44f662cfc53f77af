"""Generated transcript input and oracle-expected counts, cached per seed.

The input is ``sagan_ray.synth.gen_transcripts(turns, seed)`` written as
Parquet; the expected per-(sink, sid) routed counts come from
``oracle.evaluator.ReferenceEvaluator`` over the same rows. Both are cached
under the work dir and neither is ever timed. ``run.py`` calls this file as
a child process, so the oracle's memory never shows in the benchmark
process's RSS:

    python3 perfbench/inputs.py --workload rules_mixed --seed 1 --turns 20000 --work-dir .bench_run
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

# input files per generated dataset (the read stage sees one block each)
N_FILES = 2


def input_dir(work_dir: str, seed: int, turns: int) -> str:
    return os.path.join(work_dir, "inputs", f"t{turns}-s{seed}")


def expected_path(work_dir: str, workload: str, seed: int, turns: int) -> str:
    return input_dir(work_dir, seed, turns) + f".expected-{workload}.json"


def ensure_input(work_dir: str, seed: int, turns: int) -> str:
    import pyarrow.parquet as pq

    from sagan_ray.synth import gen_transcripts

    d = input_dir(work_dir, seed, turns)
    if os.path.exists(os.path.join(d, "_DONE")):
        return d
    tmp = d + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    tbl = gen_transcripts(turns, seed=seed)
    step = -(-len(tbl) // N_FILES)
    for i in range(N_FILES):
        pq.write_table(tbl.slice(i * step, step),
                       os.path.join(tmp, f"part-{i}.parquet"))
    open(os.path.join(tmp, "_DONE"), "w").close()
    shutil.rmtree(d, ignore_errors=True)
    os.rename(tmp, d)
    return d


def ensure_expected(work_dir: str, workload: str, seed: int, turns: int) -> str:
    import pyarrow.parquet as pq

    from sagan_ray.oracle import ReferenceEvaluator
    from workloads import WORKLOADS, build

    path = expected_path(work_dir, workload, seed, turns)
    if os.path.exists(path):
        return path
    d = ensure_input(work_dir, seed, turns)
    ruleset, lookups, config = build(WORKLOADS[workload])
    rows = pq.read_table(d).to_pylist()
    counts = ReferenceEvaluator(ruleset, lookups, config).evaluate(rows).routed_counts()
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(sorted([s, sid, n] for (s, sid), n in counts.items()), f)
    os.replace(tmp, path)
    return path


def load_expected(path: str) -> dict[tuple[str, int], int]:
    with open(path) as f:
        return {(s, int(sid)): int(n) for s, sid, n in json.load(f)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--turns", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    a = ap.parse_args(argv)
    ensure_expected(a.work_dir, a.workload, a.seed, a.turns)
    return 0


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.dirname(here), here]
    sys.exit(main())
