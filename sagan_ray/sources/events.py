"""Deterministic events→transcripts adapter.

Renders the driver's ``events`` table (event_id, ts, user_id, event_type,
value, props) into the transcript shape the engine consumes — the
SyslogInput_Pipe analog (reference src/input-pipe.c:41-339: a fixed wire
format parsed into the canonical record). The rendering is pure arithmetic
over (user_id, event_type, props) so a DuckDB oracle can reproduce every
derived string exactly (see EVENT_TEXT_SQL):

- conv_id  = printf('u%06d', user_id)          (per-user correlation key)
- turn_idx = row_number() over user ordered by (ts, event_id) - 1
- role     = event_type
- text     = per-type template with a windows-style event-id head, an
             embedded deterministic IPv4:port, and the raw props JSON
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..synth import SCHEMA

# SQL fragment computing the same text column over an `events` view —
# keep strictly in sync with _render_text below.
EVENT_TEXT_SQL = (
    "CASE event_type "
    "WHEN 'error' THEN printf('4625: auth failure for u%06d from 10.%d.%d.%d:%d via ssh', "
    "user_id, user_id % 128, (user_id * 7) % 256, (user_id % 254) + 1, 1000 + user_id) "
    "WHEN 'signup' THEN printf('201: signup user u%06d %s', user_id, props) "
    "WHEN 'purchase' THEN printf('200: purchase user u%06d %s', user_id, props) "
    "WHEN 'click' THEN props "
    "ELSE printf('100: %s user u%06d', event_type, user_id) END"
)

EVENT_CONV_SQL = "printf('u%06d', user_id)"

# full transcript view over events (turn_idx via window function)
EVENTS_AS_TRANSCRIPTS_SQL = (
    "SELECT " + EVENT_CONV_SQL + " AS conv_id, "
    "CAST(row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) - 1 AS INTEGER) AS turn_idx, "
    "event_type AS role, " + EVENT_TEXT_SQL + " AS text, '' AS tool, ts "
    "FROM events"
)


def _render_text(user_id: np.ndarray, event_type: np.ndarray,
                 props: np.ndarray) -> list[str]:
    out = []
    for u, e, p in zip(user_id, event_type, props):
        u = int(u)
        if e == "error":
            out.append(f"4625: auth failure for u{u:06d} from "
                       f"10.{u % 128}.{(u * 7) % 256}.{(u % 254) + 1}:{1000 + u} via ssh")
        elif e == "signup":
            out.append(f"201: signup user u{u:06d} {p}")
        elif e == "purchase":
            out.append(f"200: purchase user u{u:06d} {p}")
        elif e == "click":
            out.append(p)
        else:
            out.append(f"100: {e} user u{u:06d}")
    return out


def events_to_transcripts(tbl: pa.Table) -> pa.Table:
    """Arrow batch transform: events → transcript rows (turn_idx must be
    assigned by the caller or via the sorted whole-table path below)."""
    uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
    etype = tbl.column("event_type").to_numpy(zero_copy_only=False)
    props = tbl.column("props").to_numpy(zero_copy_only=False)
    conv = pa.array([f"u{int(u):06d}" for u in uid], pa.string())
    text = pa.array(_render_text(uid, etype, props), pa.large_string())
    if "turn_idx" not in tbl.column_names:
        raise ValueError(
            "events_to_transcripts requires a turn_idx column — run the "
            "per-user numbering exchange first (read_events_as_transcripts);"
            " fabricating zeros would corrupt per-conv correlation order")
    return pa.Table.from_arrays([
        conv,
        tbl.column("turn_idx").combine_chunks(),
        pc.cast(tbl.column("event_type").combine_chunks(), pa.string()),
        text,
        pa.array([""] * len(tbl), pa.string()),
        pc.cast(tbl.column("ts").combine_chunks(), pa.timestamp("us")),
    ], schema=SCHEMA)


def read_events_as_transcripts(sf_dir: str):
    """Dataset of transcript rows derived from ``events.parquet``.

    turn_idx is a per-user running index in (ts, event_id) order. The
    per-user numbering runs through the bucketed hash exchange
    (``hash_group_apply``) rather than Ray Data's sort-based
    ``groupby().map_groups`` — measured at 10-70 s of shuffle overhead
    for <1 s of work (CLAUDE.md perf notes), and this adapter sits on
    the input path of every engine query. Within a bucket the numbering
    is one vectorized lexsort + per-user cumcount, not a pandas
    groupby.apply."""
    import pandas as pd
    import ray.data as rd

    from ..exchange import hash_group_apply

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id", "event_type", "props"])

    def number_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        df["turn_idx"] = df.groupby("user_id", sort=False).cumcount().astype(np.int32)
        return df

    numbered = hash_group_apply(ds, ["user_id"], number_bucket)
    return numbered.map_batches(events_to_transcripts, batch_format="pyarrow")
