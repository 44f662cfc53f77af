"""Wire-format line parsers: the SyslogInput_Pipe / SyslogInput_JSON
analogs (reference src/input-pipe.c:41-339, src/input-json.c:47-547).

These turn a Dataset of raw text lines (``ray.data.read_text`` — the
File_Input/FIFO analog) into the canonical transcript record:

- pipe format: ``conv_id|turn_idx|role|tool|ts|text`` (the reference's
  ``host|facility|priority|level|tag|date|time|program|message``
  re-shaped to the transcript schema). Malformed fields get sentinel
  values and are counted, per input-pipe.c:164-338.
- JSON lines: one JSON object per line, with a field-alias map applied
  (the json-input.map analog, input-json.c:103-244): map keys are
  transcript columns, values are dotted JSON paths; ``%JSON%`` as the
  text alias keeps the whole raw line as the message.
"""

from __future__ import annotations

import json
from datetime import datetime

import numpy as np
import pyarrow as pa

from ..synth import SCHEMA

PIPE_FIELDS = 6
_SENTINEL_TS = datetime(1970, 1, 1)
_I32 = np.iinfo(np.int32)

DEFAULT_JSON_MAP = {
    "conv_id": ".conv_id",
    "turn_idx": ".turn_idx",
    "role": ".role",
    "tool": ".tool",
    "ts": ".ts",
    "text": ".text",
}

PARSED_SCHEMA = pa.schema(list(SCHEMA) + [pa.field("malformed", pa.bool_())])


def _parse_ts(s: str) -> datetime | None:
    for fmt in ("%Y-%m-%dT%H:%M:%S.%f", "%Y-%m-%dT%H:%M:%S",
                "%Y-%m-%d %H:%M:%S.%f", "%Y-%m-%d %H:%M:%S"):
        try:
            return datetime.strptime(s, fmt)
        except ValueError:
            continue
    try:
        return datetime.utcfromtimestamp(float(s))
    except (ValueError, OSError, OverflowError):
        return None


_TS_FORMATS = ("%Y-%m-%dT%H:%M:%S.%f", "%Y-%m-%dT%H:%M:%S",
               "%Y-%m-%d %H:%M:%S.%f", "%Y-%m-%d %H:%M:%S")


def _parse_ts_vec(values: "pd.Series") -> "pd.Series":
    """Vectorized multi-format timestamp parse: one C-speed pass per
    format (rows usually share one format), numeric-epoch fallback."""
    import pandas as pd

    out = pd.Series(pd.NaT, index=values.index, dtype="datetime64[ns]")
    todo = values.notna()
    for fmt in _TS_FORMATS:
        if not todo.any():
            break
        parsed = pd.to_datetime(values[todo], format=fmt, errors="coerce")
        out.loc[parsed.index[parsed.notna()]] = parsed[parsed.notna()]
        todo = out.isna() & values.notna()
    if todo.any():
        num = pd.to_numeric(values[todo], errors="coerce")
        epoch = pd.to_datetime(num, unit="s", errors="coerce")
        out.loc[epoch.index[epoch.notna()]] = epoch[epoch.notna()]
    return out


def parse_pipe_batch(tbl: pa.Table, text_col: str = "text") -> pa.Table:
    """Pipe-format parse with per-field sentinels + a ``malformed`` flag
    column (the malformed_* counter analog, input-pipe.c:164-338).

    Fully vectorized: one Arrow ``split_pattern`` pass, field extraction
    by offset arithmetic on the flattened list values (no per-row python
    on this 100%-of-input stage), per-format C timestamp passes."""
    import pandas as pd
    import pyarrow.compute as pc

    n = len(tbl)
    if n == 0:
        return PARSED_SCHEMA.empty_table()
    col = pc.fill_null(
        pc.cast(tbl.column(text_col).combine_chunks(), pa.large_string()), "")
    parts = pc.split_pattern(col, "|", max_splits=PIPE_FIELDS - 1)
    parts = parts.combine_chunks() if isinstance(parts, pa.ChunkedArray) else parts
    nfields = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
    ok = nfields == PIPE_FIELDS
    flat = parts.values              # flattened field strings
    base = np.asarray(parts.offsets)[:-1].astype(np.int64)

    def field(j: int) -> pa.Array:
        # null index → null element for malformed rows (index value
        # clamped to 0 so even null slots stay in bounds)
        idx = pa.array(np.where(ok, base + j, 0), pa.int64(), mask=~ok)
        return flat.take(idx)

    f = [field(j) for j in range(PIPE_FIELDS)]
    bad = ~ok

    # turn must be a plain (ASCII) integer literal in int32 range — the
    # spec this parser defines; python's int() extras ('1_000', unicode
    # digits) are intentionally malformed here
    turn_ok = pc.fill_null(pc.match_substring_regex(
        f[1], r"^[+-]?\d+$"), False).to_numpy(zero_copy_only=False)
    turn_num = pd.to_numeric(f[1].to_pandas(), errors="coerce")
    # two-sided compare, not abs(): int64-min's abs() overflows silently
    lo, hi = _I32.min, _I32.max
    in_range = ((turn_num >= lo) & (turn_num <= hi)).fillna(False)
    turn_ok &= in_range.to_numpy()
    bad |= ok & ~turn_ok
    turn = turn_num.where(pd.Series(turn_ok), 0).fillna(0).astype(
        np.int64).astype(np.int32).to_numpy()

    ts_parsed = _parse_ts_vec(f[4].to_pandas())
    bad |= ok & ts_parsed.isna().to_numpy()
    ts = ts_parsed.fillna(_SENTINEL_TS)

    fill = pa.scalar("", pa.large_string())
    # malformed rows keep the whole raw line as text (pipe parser parity)
    text = pc.if_else(pa.array(ok), pc.fill_null(f[5], ""), col)
    return pa.Table.from_arrays([
        pc.cast(pc.fill_null(f[0], ""), pa.string()),
        pa.array(turn, pa.int32()),
        pc.cast(pc.fill_null(f[2], ""), pa.string()),
        pc.cast(text, pa.large_string()),
        pc.cast(pc.fill_null(f[3], ""), pa.string()),
        pa.Array.from_pandas(ts).cast(pa.timestamp("us")),
        pa.array(bad, pa.bool_()),
    ], schema=PARSED_SCHEMA)


def _dig(obj, dotted: str):
    cur = obj
    for part in dotted.lstrip(".").split("."):
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur


def _dig_alternatives(obj, spec: str, raw_line: str):
    """Resolve a map value: ``|``-separated dotted paths, first present
    wins (the OR-alternative lists Load_Input_JSON_Map builds,
    input-json-map.c:105-140); ``%JSON%`` yields the raw line."""
    for path in spec.split("|"):
        path = path.strip()
        if path == "%JSON%":
            return raw_line
        v = _dig(obj, path)
        if v is not None:
            return v
    return None


def load_json_map(path: str, software: str) -> dict[str, str]:
    """Load a field map from a JSON-lines mapping file — the
    Load_Input_JSON_Map analog (reference src/input-json-map.c:47-850).
    Each non-comment line is a JSON object carrying a ``software`` name
    plus transcript-field → dotted-path entries (values may be
    ``|``-separated alternatives); the entry matching ``software`` wins.
    Unknown keys are ignored; missing fields fall back to the default
    map's path."""
    fmap = dict(DEFAULT_JSON_MAP)
    found = False
    with open(path) as fh:
        for line in fh:
            s = line.strip()
            if not s or s[0] in "#;":
                continue
            try:
                obj = json.loads(s)
            except ValueError:
                continue
            if not isinstance(obj, dict) or obj.get("software") != software:
                continue
            found = True
            for field in SCHEMA.names:
                if field in obj and isinstance(obj[field], str):
                    fmap[field] = obj[field]
            break
    if not found:
        raise ValueError(f"no mapping for software {software!r} in {path}")
    return fmap


_FAST_JSON_TYPES = {"conv_id": pa.string(), "turn_idx": pa.int64(),
                    "role": pa.string(), "tool": pa.string(),
                    "ts": pa.string(), "text": pa.string()}


def _fast_map_ok(fmap: dict[str, str]) -> bool:
    """The batched pyarrow.json path handles maps whose every value is a
    single TOP-LEVEL key — no ``|`` alternatives, no ``%JSON%``, no
    nested dotted paths — and whose fields are all transcript columns."""
    if set(fmap) - set(_FAST_JSON_TYPES):
        return False
    seen = set()
    for path in fmap.values():
        p = path.strip()
        if "|" in p or p == "%JSON%":
            return False
        p = p.lstrip(".")
        if not p or "." in p or p in seen:
            return False
        seen.add(p)
    return True


def _parse_json_fast(col: pa.Array, fmap: dict[str, str]) -> pa.Table | None:
    """Batched JSON-lines parse: ONE C++ ``pyarrow.json.read_json`` pass
    with an explicit schema over the joined batch (valid JSON never
    contains a raw newline, so join-by-\\n is lossless). Returns None —
    fall back to the per-row loop — whenever the batch doesn't fit the
    canonical shape: any malformed line, a type mismatch against the
    explicit schema (e.g. turn_idx as a string), or a row-count mismatch.
    The fallback reproduces per-row semantics exactly, so the fast path
    only ever changes throughput, never results."""
    import io as _io

    import pyarrow.compute as pc
    from pyarrow import json as pj

    n = len(col)
    keys = {f: p.strip().lstrip(".") for f, p in fmap.items()}
    schema = pa.schema([pa.field(keys[f], _FAST_JSON_TYPES[f])
                        for f in fmap])
    lines = col.to_pylist()
    data = "\n".join(lines).encode("utf-8", "surrogatepass")
    try:
        t = pj.read_json(
            _io.BytesIO(data),
            read_options=pj.ReadOptions(block_size=len(data) + 16),
            parse_options=pj.ParseOptions(
                explicit_schema=schema, unexpected_field_behavior="ignore"))
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        return None
    if len(t) != n:                     # blank lines get skipped, not parsed
        return None

    def gc(field: str) -> pa.Array:
        k = keys.get(field)
        if k is None:
            return pa.nulls(n, _FAST_JSON_TYPES[field])
        return t.column(k).combine_chunks()

    def nullmask(arr: pa.Array) -> np.ndarray:
        return pc.is_null(arr).to_numpy(zero_copy_only=False)

    conv, text = gc("conv_id"), gc("text")
    bad = np.zeros(n, dtype=bool)
    # only fields PRESENT in the map participate in malformed-marking
    # (per-row loop iterates fmap.items() only)
    if "conv_id" in fmap:
        bad |= nullmask(conv)
    if "text" in fmap:
        bad |= nullmask(text)
    try:
        turn = pc.cast(pc.fill_null(gc("turn_idx"), 0), pa.int32())
    except pa.ArrowInvalid:             # out-of-int32 turn — per-row path
        return None
    ts_series = gc("ts").to_pandas()
    ts_parsed = _parse_ts_vec(ts_series)
    if "ts" in fmap:
        bad |= (ts_series.notna() & ts_parsed.isna()).to_numpy()
    ts = ts_parsed.fillna(_SENTINEL_TS)
    return pa.Table.from_arrays([
        pc.fill_null(conv, ""),
        turn,
        pc.fill_null(gc("role"), ""),
        pc.cast(pc.fill_null(text, ""), pa.large_string()),
        pc.fill_null(gc("tool"), ""),
        pa.Array.from_pandas(ts).cast(pa.timestamp("us")),
        pa.array(bad, pa.bool_()),
    ], schema=PARSED_SCHEMA)


def parse_json_batch(tbl: pa.Table, text_col: str = "text",
                     field_map: dict[str, str] | None = None) -> pa.Table:
    """JSON-lines parse with alias map (json-input.map analog). A map
    value of ``%JSON%`` keeps the whole raw line (input-json.c '%JSON%'
    handling). Canonical-shaped batches (single top-level keys, no
    alternatives) take the batched ``pyarrow.json`` fast path; anything
    else — including any batch with one malformed line — falls back to
    the per-row loop below, which is the semantics spec."""
    fmap = field_map or DEFAULT_JSON_MAP
    col = tbl.column(text_col).combine_chunks()
    if len(col) and col.null_count == 0 and _fast_map_ok(fmap):
        out = _parse_json_fast(col, fmap)
        if out is not None:
            return out
    lines = col.to_pylist()
    n = len(lines)
    cols = {"conv_id": [""] * n, "role": [""] * n, "tool": [""] * n,
            "text": [""] * n}
    turn = np.zeros(n, dtype=np.int32)
    ts = [_SENTINEL_TS] * n
    bad = np.zeros(n, dtype=bool)
    for i, line in enumerate(lines):
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError
        except (ValueError, RecursionError):
            bad[i] = True
            cols["text"][i] = line or ""
            continue
        for field, path in fmap.items():
            v = _dig_alternatives(obj, path, line)
            if v is None:
                if field in ("conv_id", "text"):
                    bad[i] = True
                continue
            if field == "turn_idx":
                try:
                    t = int(v)          # OverflowError: int(Infinity)
                except (TypeError, ValueError, OverflowError):
                    t = None
                # outside int32 is malformed for the wire schema, as in
                # the pipe parser; the slot keeps 0
                if t is None or not _I32.min <= t <= _I32.max:
                    bad[i] = True
                else:
                    turn[i] = t
            elif field == "ts":
                t = _parse_ts(str(v))
                if t is None:
                    bad[i] = True
                else:
                    ts[i] = t
            else:
                cols[field][i] = str(v)
    return pa.Table.from_arrays([
        pa.array(cols["conv_id"], pa.string()),
        pa.array(turn, pa.int32()),
        pa.array(cols["role"], pa.string()),
        pa.array(cols["text"], pa.large_string()),
        pa.array(cols["tool"], pa.string()),
        pa.array(ts, pa.timestamp("us")),
        pa.array(bad, pa.bool_()),
    ], schema=PARSED_SCHEMA)


def read_pipe_lines(path: str):
    """File_Input analog over raw lines → parsed transcript records.
    Returns (records_ds); filter ``malformed`` downstream or count it."""
    import ray.data as rd

    ds = rd.read_text(path)
    return ds.map_batches(lambda t: parse_pipe_batch(t, "text"),
                          batch_format="pyarrow")
