"""Classify-output digests: the byte-equality proof for a classify change.

For each benchmark workload (its ``perfbench/rules`` ruleset, lookups and
config) and each seed, runs ``RuleClassifier`` in process over
``gen_transcripts(turns, seed)``, split into the benchmark's two input
files and classified in engine-sized batches, writes the concatenated
output to Parquet and prints the file's sha256:

    python tools/classify_digest.py --hashes base.json          # parent tree
    python tools/classify_digest.py --against base.json         # changed tree

``--against`` prints ``DIFF`` for each (workload, seed) whose digest
differs and exits 1 if any does. ``--reps N`` also prints the minimum
in-process classify seconds of N runs per (workload, seed).

``--replay`` also digests the per-bucket replay (``correlate_lists``) over
each output's stateful rows, the rows the exchange ships, as one bucket:
``<workload>:<seed>:replay`` is its output as a batch run gets it (no
``out_states``), ``...:replay_states`` its output when the states are
kept, together with every conv's final state in insertion order. A
reduce-side change gets the same proof as a classify change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "perfbench")]

N_FILES = 2
BATCH = 16384


def classify_table(classifier, tbl):
    """The classifier's output over ``tbl``, split into ``N_FILES`` inputs
    and ``BATCH``-row batches the way the engine reads them."""
    import pyarrow as pa

    step = -(-len(tbl) // N_FILES)
    outs = []
    for i in range(N_FILES):
        part = tbl.slice(i * step, step)
        for off in range(0, len(part), BATCH):
            outs.append(classifier(part.slice(off, BATCH)))
    return pa.concat_tables(outs)


def digest(tbl) -> str:
    import pyarrow.parquet as pq

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "out.parquet")
        pq.write_table(tbl, path)
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()


def replay_digests(ruleset, out) -> dict[str, str]:
    """The ``--replay`` digests of the replay over ``out``'s stateful
    rows."""
    from sagan_ray.stages.correlate import make_list_correlator

    shipped = out.filter(out.column("stateful"))
    correlate = make_list_correlator(ruleset)
    states: dict = {}
    kept = correlate(shipped, init_states={}, out_states=states)
    canon = repr([(c, list(st.xbits.items()), st.flexbits,
                   list(st.after.items()), list(st.threshold.items()))
                  for c, st in states.items()])
    return {"replay": digest(correlate(shipped)),
            "replay_states": hashlib.sha256(
                (digest(kept) + canon).encode()).hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--turns", type=int, default=20000)
    ap.add_argument("--workloads", nargs="+", default=None)
    ap.add_argument("--reps", type=int, default=0)
    ap.add_argument("--replay", action="store_true",
                    help="also digest the replay of the stateful rows")
    ap.add_argument("--hashes", help="write the digests to this JSON file")
    ap.add_argument("--against", help="compare with a --hashes JSON file")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS, build

    from sagan_ray.stages.classify import RuleClassifier
    from sagan_ray.synth import gen_transcripts

    names = args.workloads or list(WORKLOADS)
    got = {}
    for seed in args.seeds:
        tbl = gen_transcripts(args.turns, seed=seed)
        for name in names:
            ruleset, lookups, config = build(WORKLOADS[name])
            classifier = RuleClassifier(ruleset, lookups, config)
            key = f"{name}:{seed}"
            out = classify_table(classifier, tbl)
            got[key] = digest(out)
            line = f"{key} {got[key]}"
            if args.reps:
                times = []
                for _ in range(args.reps):
                    t0 = time.perf_counter()
                    classify_table(classifier, tbl)
                    times.append(time.perf_counter() - t0)
                line += f" min_s={min(times):.4f}"
            print(line, flush=True)
            if args.replay:
                for part, sha in replay_digests(ruleset, out).items():
                    got[f"{key}:{part}"] = sha
                    print(f"{key}:{part} {sha}", flush=True)
    if args.hashes:
        with open(args.hashes, "w") as f:
            json.dump(got, f, indent=1, sort_keys=True)
    if args.against:
        with open(args.against) as f:
            base = json.load(f)
        diff = [k for k in got if base.get(k) != got[k]]
        for k in diff:
            print(f"DIFF {k}")
        return 1 if diff else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
