"""Streaming ingest analog — the FIFO input re-expressed for batch Ray.

The reference blocks on a named pipe and processes lines as they arrive
(/root/reference/src/input-plugins/fifo.c:62-271). The bounded-batch
analog is a *follow loop* over a directory that upstream producers drop
Parquet files into: each poll picks up files not yet recorded in the
processed manifest, runs the engine over ONLY those files with the
correlation-state snapshots carried across runs
(sagan_ray.state.snapshot — the mmap-persistence analog), appends routed
alerts to the sink directory, and marks the files done. The alerts are
written in one pass of raw Ray tasks, one per match block
(``io.sinks.write_routed``), with no Ray Data stage. The manifest is
written after the alert write, so a poll that fails before it replays
its files on the next poll. That replay is NOT exact: a poll that fails
after ``run_engine`` returns (in the alert write, say) has already
saved its buckets' advanced correlation state, and the replay runs its
files again on top of that state, so alert counts can differ from an
uninterrupted run (seen: 8 sids change, 968 → 878 alerts, on
``rulesets/correlate.rules`` over ``gen_transcripts(4000, seed=3)``
split at ``turn_idx`` 8). State, alerts and manifest do not yet commit
together (ROADMAP item 2).

Ordering contract (same as the snapshot module): later-arriving files
must carry per-conversation turns that are ≥ all previously processed
turns for that conversation — true for append-style log shipping.
"""

from __future__ import annotations

import json
import os
import time
import uuid

from ..config import EngineConfig, Lookups
from ..rules.model import RuleSet

MANIFEST = "_PROCESSED.json"


def _load_manifest(out_dir: str) -> set[str]:
    p = os.path.join(out_dir, MANIFEST)
    if not os.path.exists(p):
        return set()
    with open(p) as f:
        return set(json.load(f))


def _save_manifest(out_dir: str, done: set[str]) -> None:
    tmp = os.path.join(out_dir, f".{MANIFEST}.tmp")
    with open(tmp, "w") as f:
        json.dump(sorted(done), f)
    os.replace(tmp, os.path.join(out_dir, MANIFEST))


def poll_once(input_dir: str, out_dir: str, ruleset: RuleSet,
              lookups: Lookups | None = None,
              config: EngineConfig | None = None, *,
              batch_size: int = 16384,
              shared_bits: str | None = None) -> dict:
    """One follow-loop iteration: process new parquet files (if any)
    against the carried correlation state; returns
    {"files": [...], "routed": N}."""
    from ..io.sinks import write_routed
    from ..pipelines.engine import run_engine
    from .transcripts import is_transcript_file, read_transcripts

    os.makedirs(out_dir, exist_ok=True)
    done = _load_manifest(out_dir)
    # the files ``read_transcripts(dir)`` reads at the top level: hidden
    # and ``_`` names are a producer's in-progress writes
    new = sorted(
        os.path.join(input_dir, f) for f in os.listdir(input_dir)
        if is_transcript_file(f) and f not in done)
    if not new:
        return {"files": [], "routed": 0}

    state_dir = os.path.join(out_dir, "state")
    eng = run_engine(read_transcripts(new), ruleset, lookups, config,
                     batch_size=batch_size, state_dir=state_dir,
                     shared_bits=shared_bits)
    alert_dir = os.path.join(out_dir, "alerts")
    os.makedirs(alert_dir, exist_ok=True)
    # the flat alert dir gathers every poll's files: this poll's names
    # start with a tag of their own
    (n,) = write_routed(eng, [(alert_dir, None, None)],
                        prefix=f"{uuid.uuid4().hex}-")
    done.update(os.path.basename(f) for f in new)
    _save_manifest(out_dir, done)
    return {"files": [os.path.basename(f) for f in new], "routed": n}


def follow(input_dir: str, out_dir: str, ruleset: RuleSet | None = None,
           lookups: Lookups | None = None,
           config: EngineConfig | None = None, *,
           poll_seconds: float = 1.0, max_polls: int | None = None,
           idle_polls_to_stop: int | None = None,
           rules_path: str | None = None,
           rule_variables: dict[str, str] | None = None,
           classifications: dict[str, int] | None = None,
           shared_bits: str | None = None,
           lookups_paths: list[str] | None = None,
           lookups_loader=None):
    """Follow loop: yields each non-empty poll result. ``max_polls`` /
    ``idle_polls_to_stop`` bound the loop for tests and batch drains
    (None = run forever, the FIFO blocking-read analog).

    ``rules_path`` is the SIGHUP ruleset-reload analog (the reference
    re-reads its rule files on SIGHUP between events —
    reference/src/sagan.c:729-740, signal-handler.c): when set, the file
    is re-parsed before any poll whose mtime changed, and the new
    ruleset applies from that poll on, with correlation state carried
    (snapshots are keyed by conv bucket, not by ruleset). A parse error
    is FATAL, as in the reference (rules.c aborts on bad rules) — the
    manifest makes the crashed poll replayable.

    ``shared_bits``: name of the cluster-wide shared xbit store — the
    xbit-redis analog (reference src/xbit-redis.c): several CONCURRENT
    follow loops, each with its OWN out_dir/state_dir, observe each
    other's xbits through the named store at poll granularity (see
    state/shared.py).

    ``lookups_paths`` + ``lookups_loader``: the enrichment-reload
    analog — the reference re-reads its processor data files
    (blacklist, zeek intel, GeoIP) alongside the rules on SIGHUP
    (reference src/sagan.c:729-799 reload block). When any listed
    path's mtime changes between polls, ``lookups_loader()`` is called
    to rebuild the Lookups and the new tables broadcast from that poll
    on. A loader error is FATAL, matching the rules stance."""
    from ..rules.parser import parse_rules_file
    from ..state.snapshot import acquire_state_lock

    if (lookups_paths is None) != (lookups_loader is None):
        raise ValueError("follow: lookups_paths and lookups_loader "
                         "go together")

    def _lk_mtimes():
        return tuple(os.stat(p).st_mtime_ns for p in lookups_paths)

    lk_mtime = None
    if lookups_loader is not None:
        lookups = lookups_loader()
        lk_mtime = _lk_mtimes()

    mtime: int | None = None
    if rules_path is not None:
        ruleset = parse_rules_file(rules_path, rule_variables,
                                   classifications)
        mtime = os.stat(rules_path).st_mtime_ns
    elif ruleset is None:
        raise ValueError("follow: need a ruleset or a rules_path")
    # a second live follow loop on the same out_dir would interleave
    # bucket snapshots — fail loudly up front (xbit-redis analog stance,
    # state/snapshot.py)
    lock = acquire_state_lock(os.path.join(out_dir, "state"))
    try:
        polls = 0
        idle = 0
        while True:
            if rules_path is not None:
                m = os.stat(rules_path).st_mtime_ns
                if m != mtime:
                    ruleset = parse_rules_file(rules_path, rule_variables,
                                               classifications)
                    mtime = m
            if lookups_loader is not None:
                lm = _lk_mtimes()
                if lm != lk_mtime:
                    lookups = lookups_loader()
                    lk_mtime = lm
            res = poll_once(input_dir, out_dir, ruleset, lookups, config,
                            shared_bits=shared_bits)
            polls += 1
            if res["files"]:
                idle = 0
                yield res
            else:
                idle += 1
            if max_polls is not None and polls >= max_polls:
                return
            if idle_polls_to_stop is not None and idle >= idle_polls_to_stop:
                return
            time.sleep(poll_seconds)
    finally:
        lock.close()
