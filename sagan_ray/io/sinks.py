"""Output sinks: per-sink Parquet directories + EVE-JSON shaping.

Sink analogs (SURVEY.md §2.1): alert (src/output-plugins/alert.c), fast
(fast.c), eve (eve.c + src/json-handler.c:54-232 Format_JSON_Alert_EVE),
syslog (syslog-handler.c), email (esmtp.c), external (external.c).

Resumable layout: each sink writes into ``out_dir/sink=<name>/`` through
``state.checkpoint.partitioned_write`` — staged dirs swap in atomically
and ``_manifest.json`` records finished sinks + row counts, so a rerun
filters done sinks out of the explode pass and rewrites only the rest
(the batch analog of the reference's mmap-persisted restart state,
src/ipc.c:458-733; input position is *not* checkpointed there either).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa


_B64_ALPHABET = np.frombuffer(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    dtype=np.uint8)


def b64_column(col) -> "pa.Array":
    """Vectorized base64 of an Arrow binary/string column (no nulls):
    one numpy pass over the flattened value buffer — rows scatter into a
    3-byte-aligned padded buffer, the 4×6-bit expansion runs over the
    whole batch at once, and '=' padding is patched per row by index
    arithmetic. Byte-equal to per-row ``base64.b64encode`` (pytest)."""
    import pyarrow.compute as pc

    col = pc.cast(col, pa.large_binary())
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return pa.array([], pa.large_string())
    off = np.frombuffer(col.buffers()[1], np.int64)[
        col.offset: col.offset + n + 1]
    data = np.frombuffer(col.buffers()[2], np.uint8)
    lens = off[1:] - off[:-1]
    padded_lens = ((lens + 2) // 3) * 3
    dst_starts = np.concatenate([[0], np.cumsum(padded_lens)])
    padded = np.zeros(int(dst_starts[-1]), np.uint8)
    positions = np.arange(off[0], off[-1], dtype=np.int64)
    shift = np.repeat(dst_starts[:-1] - off[:-1], lens)
    padded[positions + shift] = data[positions]
    g = padded.reshape(-1, 3).astype(np.uint16)
    idx = np.empty((len(g), 4), np.uint8)
    idx[:, 0] = g[:, 0] >> 2
    idx[:, 1] = ((g[:, 0] & 0x03) << 4) | (g[:, 1] >> 4)
    idx[:, 2] = ((g[:, 1] & 0x0F) << 2) | (g[:, 2] >> 6)
    idx[:, 3] = g[:, 2] & 0x3F
    out = _B64_ALPHABET[idx].reshape(-1)
    out_lens = (padded_lens // 3) * 4
    out_off = np.concatenate([[0], np.cumsum(out_lens)])
    rem = lens % 3
    ends = out_off[1:]
    pad1 = ends[rem > 0] - 1          # L%3 in (1,2): last char '='
    pad2 = ends[rem == 1] - 2         # L%3 == 1: second-to-last too
    out[pad1] = ord("=")
    out[pad2] = ord("=")
    return pa.Array.from_buffers(
        pa.large_string(), n, [None, pa.py_buffer(out_off.tobytes()),
                               pa.py_buffer(out.tobytes())])


def eve_format_batch(tbl: pa.Table, *, payload_base64: bool = False) -> pa.Table:
    """Shape routed rows as Suricata-EVE-style JSON strings (the
    Format_JSON_Alert_EVE analog, src/json-handler.c:54-232: timestamp,
    flow/correlation id, signature block, payload). Assembled with one
    Arrow ``binary_join_element_wise`` pass over escaped columns — this
    formats EVERY routed alert, so no per-row json.dumps.
    ``payload_base64`` is the 'alerts-base64' config analog
    (etc/sagan.yaml:440; src/json-handler.c:102,155): the payload field
    carries the base64 of the raw text (batched numpy encode, needs no
    JSON escaping)."""
    import pyarrow.compute as pc

    big = pa.large_string()

    def s(name):
        # fill numeric nulls with 0 — one null operand would otherwise
        # null out the ENTIRE joined JSON line (binary_join_element_wise
        # default null handling)
        return pc.cast(pc.fill_null(pc.cast(tbl.column(name), pa.string()),
                                    "0"), big)

    def esc(name):
        return _json_escape(pc.cast(pc.fill_null(tbl.column(name), ""), big))

    payload = (b64_column(pc.fill_null(tbl.column("text"), ""))
               if payload_base64 else esc("text"))
    out = pc.binary_join_element_wise(
        pa.scalar('{"timestamp":', big), s("ts_epoch"),
        pa.scalar(',"event_type":"alert","conv_id":"', big), esc("conv_id"),
        pa.scalar('","turn_idx":', big), s("turn_idx"),
        pa.scalar(',"src_ip":"', big), esc("src_ip"),
        pa.scalar('","src_port":', big), s("src_port"),
        pa.scalar(',"dest_ip":"', big), esc("dst_ip"),
        pa.scalar('","dest_port":', big), s("dst_port"),
        pa.scalar(',"alert":{"signature_id":', big), s("sid"),
        pa.scalar(',"rev":1},"role":"', big), esc("role"),
        pa.scalar('","tool":"', big), esc("tool"),
        pa.scalar('","payload":"', big), payload,
        pa.scalar('"}', big),
        pa.scalar("", big))
    return tbl.append_column("eve", out)


def _json_escape(col, out_type=None) -> "pa.Array":
    """Vectorized JSON string-escape of an Arrow string column: the
    common escapes run as Arrow kernels; rows still containing other C0
    control characters (rare — wire-ingested payloads can carry them)
    get a python \\u00XX fallback so the output is always valid RFC 8259."""
    import re as _re

    import pyarrow.compute as pc

    col = pc.replace_substring(col, "\\", "\\\\")
    col = pc.replace_substring(col, '"', '\\"')
    col = pc.replace_substring(col, "\n", "\\n")
    col = pc.replace_substring(col, "\r", "\\r")
    col = pc.replace_substring(col, "\t", "\\t")
    dirty = pc.match_substring_regex(col, r"[\x00-\x1f]")
    if pc.any(pc.fill_null(dirty, False)).as_py():
        vals = col.to_numpy(zero_copy_only=False)
        mask = pc.fill_null(dirty, False).to_numpy(zero_copy_only=False)
        ctrl = _re.compile(r"[\x00-\x1f]")

        def fix(s):
            return ctrl.sub(lambda m: f"\\u{ord(m.group(0)):04x}", s)

        col = pa.array([fix(v) if m else v for v, m in zip(vals, mask)],
                       pa.large_string())
    return col


def eve_log_all(ds):
    """Log_JSON analog (reference src/output-plugins/eve.c:69-93 +
    json-handler.c:292): EVE-shape EVERY record, not just alerts — an
    all-rows stage, so the JSON lines are assembled with one Arrow
    ``binary_join_element_wise`` pass over escaped columns, never a
    per-row ``json.dumps`` loop."""
    import pyarrow.compute as pc

    def f(tbl: pa.Table) -> pa.Table:
        big = pa.large_string()
        # fill numeric/timestamp nulls — one null operand would null the
        # whole joined line (same hazard eve_format_batch guards)
        ts = pc.fill_null(pc.cast(pc.cast(tbl.column("ts"), pa.string()), big), "")
        conv = _json_escape(pc.cast(pc.fill_null(tbl.column("conv_id"), ""), big))
        turn = pc.fill_null(
            pc.cast(pc.cast(tbl.column("turn_idx"), pa.string()), big), "0")
        role = _json_escape(pc.cast(pc.fill_null(tbl.column("role"), ""), big))
        tool = _json_escape(pc.cast(pc.fill_null(tbl.column("tool"), ""), big))
        text = _json_escape(pc.cast(pc.fill_null(tbl.column("text"), ""), big))
        out = pc.binary_join_element_wise(
            pa.scalar('{"timestamp":"', big), ts,
            pa.scalar('","event_type":"log","conv_id":"', big), conv,
            pa.scalar('","turn_idx":', big), turn,
            pa.scalar(',"role":"', big), role,
            pa.scalar('","tool":"', big), tool,
            pa.scalar('","payload":"', big), text,
            pa.scalar('"}', big),
            pa.scalar("", big))
        return pa.table({"eve": out})

    return ds.map_batches(f, batch_format="pyarrow")


# fast.c-shaped alert fields (reference src/output-plugins/fast.c:62-123:
# timestamp [**] gid:sid:rev msg [**] proto src:port -> dst:port) — all
# the per-alert metadata, none of the payload text
THIN_ALERT_COLS = ["conv_id", "turn_idx", "rule_idx", "sid", "ts_epoch",
                   "src_ip", "dst_ip", "src_port", "dst_port", "username"]


def write_sinks(engine_result, out_dir: str, *, overwrite: bool = False,
                thin: bool = False) -> dict:
    """Fan routed alerts out to one Parquet directory per sink and return
    {sink: rows} — every CONFIGURED sink appears (0 when it routed
    nothing). Delegates to ``state.checkpoint.partitioned_write``, so the
    resume genuinely is per sink: finished sinks are filtered out of the
    explode pass, staged dirs swap in atomically, and a crashed run
    rewrites only what its manifest doesn't mark done.

    ``thin=True`` is the at-scale layout: each ``sink=<name>/`` dir gets
    only the fast.c-shaped THIN_ALERT_COLS rows, and the payload
    (text/role/tool, one row per routed alert) is written ONCE into a
    shared ``part=payload/`` dir — n_sinks × metadata + 1 × text instead
    of n_sinks × full rows (text dominates alert bytes; readers re-join
    on (conv_id, turn_idx, rule_idx)). Both legs resume through the same
    manifest."""
    import shutil

    from ..state.checkpoint import RunManifest, partitioned_write

    os.makedirs(out_dir, exist_ok=True)
    if overwrite:
        for entry in os.listdir(out_dir):
            p = os.path.join(out_dir, entry)
            if (entry.startswith("sink=") or entry.startswith("part=")
                    or entry == "_manifest.json"):
                shutil.rmtree(p) if os.path.isdir(p) else os.remove(p)

    if thin:
        def tag_payload(tbl: pa.Table) -> pa.Table:
            return tbl.append_column(
                "part", pa.array(["payload"] * len(tbl), pa.string()))

        def thin_rows(tbl: pa.Table) -> pa.Table:
            return tbl.select(THIN_ALERT_COLS + ["sink"])

        partitioned_write(engine_result.routed().map_batches(
            tag_payload, batch_format="pyarrow"), out_dir, "part")
        exploded = engine_result.routed_exploded().map_batches(
            thin_rows, batch_format="pyarrow")
        partitioned_write(exploded, out_dir, "sink")
    else:
        exploded = engine_result.routed_exploded()
        partitioned_write(exploded, out_dir, "sink")

    manifest = RunManifest(out_dir)
    per_sink = {p.split("=", 1)[1]: info.get("rows", 0)
                for p, info in manifest.partitions().items()
                if info.get("done") and p.startswith("sink=")}
    # a sink that routed zero rows writes no partition dir — record 0
    # so consumers can distinguish 'ran, empty' from 'unknown sink'
    for s, _ in engine_result.config.sink_fanout(engine_result.ruleset):
        per_sink.setdefault(s, 0)
    return per_sink
