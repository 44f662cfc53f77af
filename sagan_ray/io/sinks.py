"""Output sinks: per-sink Parquet directories + EVE-JSON shaping.

Sink analogs (SURVEY.md §2.1): alert (src/output-plugins/alert.c), fast
(fast.c), eve (eve.c + src/json-handler.c:54-232 Format_JSON_Alert_EVE),
syslog (syslog-handler.c), email (esmtp.c), external (external.c).

One pass, no Ray Data stage: ``write_routed`` launches one raw Ray task
per match block, which explodes the block, keeps its routed rows and
writes them into every target dir with ``pq.write_table`` — the batch
analog of Sagan fanning each alert out to its output plugins inline
(src/output.c:63-149). ``write_sinks`` and the follow loop's alert write
(``sources.stream.poll_once``) share it.

Resumable layout: ``write_sinks`` stages each ``sink=<name>/`` (and
``part=payload/``) dir under a ``_stage_*`` dir and swaps it into
``out_dir`` once every task is done; ``_manifest.json`` records the
committed dirs + row counts, and a rerun leaves the done dirs out of
every task's targets, so it rewrites only the rest (the batch analog of
the reference's mmap-persisted restart state, src/ipc.c:458-733; input
position is *not* checkpointed there either).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..exchange import block_refs
from ..stages.classify import explode_match_lists


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


class RunManifest:
    """``out_dir/_manifest.json``: {dir name: {"rows": n, "done": bool}}
    for the dirs ``write_sinks`` committed there."""

    def __init__(self, out_dir: str):
        self.path = os.path.join(out_dir, "_manifest.json")
        self._data: dict = {}
        if os.path.exists(self.path):
            try:
                with open(self.path) as f:
                    self._data = json.load(f)
            except (ValueError, OSError):
                self._data = {}

    def done(self, partition: str) -> bool:
        return bool(self._data.get(partition, {}).get("done"))

    def rows(self, partition: str) -> int:
        return self._data.get(partition, {}).get("rows", 0)

    def mark(self, partition: str, rows: int) -> None:
        self._data[partition] = {"rows": rows, "done": True}
        self._flush()

    def unmark(self, partition: str) -> None:
        """Clear done BEFORE overwriting an existing dir, so a crash
        mid-swap leaves it flagged for rewrite, never silently skipped
        while its data is gone."""
        if partition in self._data:
            self._data[partition]["done"] = False
            self._flush()

    def _flush(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self._data, f, indent=0, sort_keys=True)
        os.replace(tmp, self.path)


@ray.remote
def _write_block(block, explode: bool, name: str, targets) -> list[int]:
    """One match block's routed rows into each target ``(dir, rule_idx,
    cols)``: the rows of the rules in ``rule_idx`` (None: every rule),
    cut to ``cols`` (None: every MATCH_SCHEMA column), as ``dir/name``;
    a target with no rows gets no file. ``explode``: the block is
    LIST_MATCH_SCHEMA. Returns each target's row count."""
    if len(block) == 0:
        return [0] * len(targets)
    tbl = explode_match_lists(block) if explode else block
    tbl = tbl.filter(tbl.column("emit"))
    counts = []
    for path, rule_idx, cols in targets:
        sub = tbl if rule_idx is None else tbl.filter(pc.is_in(
            tbl.column("rule_idx"), value_set=pa.array(rule_idx, pa.int32())))
        if cols is not None:
            sub = sub.select(cols)
        if len(sub):
            pq.write_table(sub, os.path.join(path, name))
        counts.append(len(sub))
    return counts


def write_routed(engine_result, targets: list, prefix: str = "") -> list[int]:
    """Write ``engine_result``'s routed rows in one pass: one raw Ray task
    per match block, which writes ``<prefix>m<block>.parquet`` into each
    of ``targets`` (see ``_write_block``), so a retried task rewrites
    only its own files. Returns each target's row count. The blocks are
    the exchange's own (a ``run_engine`` result), or those of a result's
    ``matches`` Dataset, streamed as its executor yields them."""
    if engine_result._list_refs is not None:
        refs, explode = engine_result._list_refs, True
    else:
        refs, explode = block_refs(engine_result.matches), False
    counts = ray.get([
        _write_block.remote(ref, explode, f"{prefix}m{i:05d}.parquet", targets)
        for i, ref in enumerate(refs)])
    return [sum(c[j] for c in counts) for j in range(len(targets))]


def _check_sink_name(name: str) -> None:
    """A sink name is a dir name as it is: one plain path component."""
    if name in ("", ".", "..") or any(c in name for c in "/=\0"):
        raise ValueError(f"sink name {name!r} is not one plain path component")


def write_sinks(engine_result, out_dir: str, *, thin: bool = False) -> dict:
    """Fan routed alerts out to one Parquet directory per sink and return
    {sink: rows} — every CONFIGURED sink appears (0 when it routed
    nothing). One pass (``write_routed``): each match block's task writes
    its routed rows into a staged dir per sink, then the driver swaps the
    staged dirs in. The resume is per dir: a dir the manifest marks done
    is left out of every task's targets (a call where every dir is done
    launches no task), so a crashed run rewrites only what its manifest
    doesn't mark done.

    ``thin=False``: each ``sink=<name>/`` dir gets the full routed rows
    (every MATCH_SCHEMA column). ``thin=True`` is the at-scale layout:
    each sink dir gets only the fast.c-shaped THIN_ALERT_COLS, and the
    full routed rows (text included, one row per routed alert) are
    written ONCE into a shared ``part=payload/`` dir — n_sinks × metadata
    + 1 × text instead of n_sinks × full rows (text dominates alert
    bytes; readers re-join on (conv_id, turn_idx, rule_idx)). No file
    holds a ``sink`` or ``part`` column: the dir names carry them. A sink
    name becomes a dir name as it is, so a name that is not one plain
    path component raises ValueError before anything is written."""
    fanout = engine_result.config.sink_fanout(engine_result.ruleset)
    for s, _ in fanout:
        _check_sink_name(s)
    every = frozenset(r.idx for r in engine_result.ruleset)
    cols = THIN_ALERT_COLS if thin else None
    wanted = [(f"sink={s}", None if idx == every else sorted(idx), cols)
              for s, idx in fanout]
    if thin:
        wanted.insert(0, ("part=payload", None, None))

    os.makedirs(out_dir, exist_ok=True)
    # sweep staging dirs stranded by crashed prior runs (their dirs are
    # not marked done, so they get rewritten below)
    for entry in os.listdir(out_dir):
        if entry.startswith("_stage_"):
            shutil.rmtree(os.path.join(out_dir, entry), ignore_errors=True)
    manifest = RunManifest(out_dir)
    todo = [t for t in wanted if not manifest.done(t[0])]
    if todo:
        stage = tempfile.mkdtemp(prefix="_stage_", dir=out_dir)
        for part, _, _ in todo:
            os.mkdir(os.path.join(stage, part))
        rows = write_routed(engine_result, [
            (os.path.join(stage, part), idx, c) for part, idx, c in todo])
        for (part, _, _), n in zip(todo, rows):
            src, dst = os.path.join(stage, part), os.path.join(out_dir, part)
            if os.path.exists(dst):
                # unmark → swap aside → swap in: a crash anywhere in here
                # leaves done=False, so the rerun rewrites instead of
                # skipping a deleted dir
                manifest.unmark(part)
                old = dst + ".old"
                shutil.rmtree(old, ignore_errors=True)
                os.replace(dst, old)
                os.replace(src, dst)
                shutil.rmtree(old, ignore_errors=True)
            else:
                os.replace(src, dst)
            manifest.mark(part, n)
        shutil.rmtree(stage, ignore_errors=True)
    return {s: manifest.rows(f"sink={s}") for s, _ in fanout}
