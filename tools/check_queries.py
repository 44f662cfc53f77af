"""Local replica of the driver's correctness gate: run every queries()
entry and its oracle SQL side-by-side, compare row count, schema (column
names) and order-insensitive values. Usage:

    python tools/check_queries.py sf_dir [name ...]
        [--hashes OUT.json] [--against BASE.json]

``--hashes`` writes name → [rows, sha256 of the normalized output] for
every entry run (and ``entry()`` on a full run). ``--against`` compares
this run with such a file, prints only the entries whose rows or hash
differ (``DIFF``; an entry the file lacks counts too) and, on a full
run, every entry of the file that did not run (``GONE``), and exits
non-zero if any — a refactor's bit-equality proof is then one command
per tree:

    python tools/check_queries.py DIR --hashes base.json     # parent tree
    python tools/check_queries.py DIR --against base.json    # changed tree
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import warnings

warnings.filterwarnings("ignore")
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def normalize(df):
    import pandas as pd

    if not isinstance(df, pd.DataFrame):
        try:
            df = df.to_pandas()
        except AttributeError:
            df = pd.DataFrame(df)
    df = df.reindex(sorted(df.columns), axis=1)
    # canonical row order for comparison; float columns sort on rounded
    # values so sub-tolerance noise cannot mis-pair rows between the ray
    # and sql sides
    keys = {}
    for c in df.columns:
        keys[c] = (df[c].round(6) if pd.api.types.is_float_dtype(df[c])
                   else df[c])
    order = pd.DataFrame(keys).sort_values(by=list(df.columns)).index
    return df.loc[order].reset_index(drop=True)


def frame_hash(df) -> str:
    """sha256 over a normalized frame's column names, dtypes and
    per-row value hashes (``hash_pandas_object`` uses a fixed key, so the
    digest is stable across processes)."""
    import pandas as pd

    h = hashlib.sha256(repr([(c, str(df[c].dtype))
                             for c in df.columns]).encode())
    h.update(pd.util.hash_pandas_object(df, index=False).to_numpy().tobytes())
    return h.hexdigest()


def hash_diffs(base: dict, now: dict, full: bool) -> list[str]:
    """One line per mismatch between two ``--hashes`` maps: ``DIFF`` for
    an entry of ``now`` whose [rows, sha256] differs from (or is missing
    in) ``base``; on a ``full`` run also ``GONE`` for each ``base`` entry
    that did not run, so a deleted entry is spelled out, not skipped."""
    out = [f"DIFF {name}: base={base.get(name)} now={got}"
           for name, got in now.items() if base.get(name) != got]
    if full:
        out += [f"GONE {name}" for name in base if name not in now]
    return out


def compare(name, ray_df, sql_df) -> list[str]:
    problems = []
    if list(ray_df.columns) != list(sql_df.columns):
        problems.append(f"schema: ray={list(ray_df.columns)} sql={list(sql_df.columns)}")
        return problems
    if len(ray_df) != len(sql_df):
        problems.append(f"rows: ray={len(ray_df)} sql={len(sql_df)}")
    if problems:
        return problems
    import pandas as pd

    for c in ray_df.columns:
        a, b = ray_df[c], sql_df[c]
        try:
            if pd.api.types.is_float_dtype(a) or pd.api.types.is_float_dtype(b):
                # absolute OR relative tolerance: large aggregates differ
                # by summation order at ~1e-16 relative
                tol = 1e-9 + 1e-9 * b.abs()
                ok = ((a.isna() & b.isna()) | ((a - b).abs() <= tol)).all()
            else:
                ok = (a.astype(str) == b.astype(str)).all()
        except Exception as e:
            ok = False
            problems.append(f"col {c}: compare error {e}")
            continue
        if not ok:
            bad = (a.astype(str) != b.astype(str))
            i = bad[bad].index[0] if bad.any() else 0
            problems.append(f"col {c}: first diff at row {i}: "
                            f"ray={a.iloc[i]!r} sql={b.iloc[i]!r}")
    return problems


def main():
    import duckdb
    import ray

    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("sf_dir", help="fixture dir (events.parquet, ...)")
    ap.add_argument("names", nargs="*", help="run only these entries")
    ap.add_argument("--hashes", metavar="OUT.json",
                    help="write name -> [rows, sha256] of each output")
    ap.add_argument("--against", metavar="BASE.json",
                    help="print entries whose rows/sha256 differ from this "
                         "file; exit non-zero if any do")
    args = ap.parse_args()
    sf_dir, only = args.sf_dir, set(args.names)

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry_mod

    qs = entry_mod.queries()
    oracles = entry_mod.oracle_sql()
    unknown = only - set(qs)
    if unknown:
        print(f"unknown query name(s): {sorted(unknown)}; "
              f"valid: {sorted(qs)}")
        sys.exit(2)

    con = duckdb.connect()
    for t in "events documents embeddings orders supplier".split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    failures = 0
    hashes = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = normalize(fn(sf_dir))
        except Exception as e:
            import traceback
            traceback.print_exc()
            print(f"FAIL {name}: ray query raised: {e}")
            failures += 1
            continue
        hashes[name] = [len(ray_df), frame_hash(ray_df)]
        if name in oracles:
            try:
                sql_df = normalize(con.execute(oracles[name]).df())
            except Exception as e:
                print(f"FAIL {name}: oracle sql raised: {e}")
                failures += 1
                continue
            problems = compare(name, ray_df, sql_df)
            if problems:
                failures += 1
                print(f"FAIL {name} ({time.time()-t0:.1f}s): " + "; ".join(problems))
            else:
                print(f"ok   {name} ({time.time()-t0:.1f}s) rows={len(ray_df)}")
        else:
            print(f"ok   {name} ({time.time()-t0:.1f}s) rows={len(ray_df)} [rows-only]")

    if not only:        # skip the flagship run when filtering to names
        try:
            df = normalize(entry_mod.entry())
            hashes["entry()"] = [len(df), frame_hash(df)]
            print("entry():", len(df), "rows")
        except Exception as e:
            import traceback
            traceback.print_exc()
            print(f"FAIL entry(): {e}")
            failures += 1
    ray.shutdown()
    if args.hashes:
        with open(args.hashes, "w") as f:
            json.dump(hashes, f, indent=1, sort_keys=True)
    if args.against:
        with open(args.against) as f:
            base = json.load(f)
        diffs = hash_diffs(base, hashes, full=not only)
        for line in diffs:
            print(line)
        n_equal = sum(base.get(name) == got for name, got in hashes.items())
        print(f"{n_equal}/{len(hashes)} entries equal to {args.against}")
        failures += len(diffs)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
