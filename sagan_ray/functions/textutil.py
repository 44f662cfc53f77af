"""Text-level extractors: hashes, event ids, JSON flatten, proto inference,
program wildcard → regex.

Semantics re-implemented from the reference parsers:
- Parse_Hash (/root/reference/src/parsers/hash.c:41-153): first hex token
  of exactly 32/40/64 chars → md5/sha1/sha256.
- event-id (/root/reference/src/event-id.c:61-125): windows-style
  ``NNNN:`` id inside the first 10 chars of the message.
- Parse_JSON (/root/reference/src/parsers/json.c:40-134): recursive
  flatten to dotted key paths (``.alert.signature_id`` style), max 256
  keys (src/sagan-defs.h:66 JSON_MAX_OBJECTS).
- Parse_Proto / Parse_Proto_Program (/root/reference/src/parsers/proto.c):
  keyword → tcp/udp/icmp.
- Wildcard (/root/reference/src/util.c:970-990): ``*``/``?`` glob for the
  ``program`` pre-match field.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

JSON_MAX_OBJECTS = 256

_HASH_RES = {
    "md5": re.compile(r"(?<![0-9A-Fa-f])([0-9A-Fa-f]{32})(?![0-9A-Fa-f])"),
    "sha1": re.compile(r"(?<![0-9A-Fa-f])([0-9A-Fa-f]{40})(?![0-9A-Fa-f])"),
    "sha256": re.compile(r"(?<![0-9A-Fa-f])([0-9A-Fa-f]{64})(?![0-9A-Fa-f])"),
}

# the same first hashes for RE2, which has no lookaround: the boundary
# characters are consumed instead, so the leftmost match still starts at
# (or just before) the leftmost hex run of exactly that length
_HASH_ARROW = {
    kind: r"(?:^|[^0-9A-Fa-f])(?P<h>[0-9A-Fa-f]{%d})(?:$|[^0-9A-Fa-f])" % k
    for kind, k in (("md5", 32), ("sha1", 40), ("sha256", 64))}

# id followed by ': ' at start or after a space, within the head window
_EVENT_ID_RE = re.compile(r"(?:^|\s)(\d{1,10}):")
EVENT_ID_HEAD = 10  # reference event-id.c head-window size


def extract_hashes(text: str) -> dict[str, str]:
    """First md5/sha1/sha256 in the message ('' if absent). A sha256 also
    contains runs of 32/40 hex chars but the boundary guards keep the
    shorter patterns from matching inside it, as the reference's exact
    length validation does (hash.c:41-153)."""
    out = {}
    for kind, rx in _HASH_RES.items():
        m = rx.search(text)
        out[kind] = m.group(1).lower() if m else ""
    return out


def hash_columns(text: pa.Array) -> dict[str, np.ndarray]:
    """``extract_hashes`` over a column: kind → object array of each row's
    first hash, lowercased ("" if absent). One RE2 extract per kind, exact
    on every row, since all the classes involved are ASCII."""
    return {kind: pc.fill_null(pc.ascii_lower(pc.struct_field(
                pc.extract_regex(text, rx), "h")), "").to_numpy(zero_copy_only=False)
            for kind, rx in _HASH_ARROW.items()}


def extract_event_id(text: str) -> str:
    """Windows-style event id in the first 10 chars ('' if absent).

    Documented deviation from event-id.c:61-125: the reference substring-
    searches ``" <id>: "`` (leading AND trailing space) within the first
    9 chars, because syslog message bodies start with a space after the
    header. Transcript texts carry no syslog header, so ids naturally sit
    at position 0 — this extractor therefore also anchors at start and
    does not require the trailing space. Both the oracle and the
    vectorized path implement THIS spec."""
    m = _EVENT_ID_RE.search(text[: EVENT_ID_HEAD + 2])
    if m and m.start(1) <= EVENT_ID_HEAD:
        return m.group(1)
    return ""


def _flatten(obj, prefix: str, out: dict[str, str]) -> None:
    if len(out) >= JSON_MAX_OBJECTS:
        return
    if isinstance(obj, dict):
        for k, v in obj.items():
            if type(v) is str:      # the common leaf, without a call
                if len(out) >= JSON_MAX_OBJECTS:
                    return
                out[f"{prefix}.{k}"] = v
            else:
                _flatten(v, f"{prefix}.{k}", out)
    elif isinstance(obj, bool):
        out[prefix] = "true" if obj else "false"
    elif obj is None:
        out[prefix] = "null"
    elif isinstance(obj, float):
        out[prefix] = repr(obj) if obj != int(obj) else str(int(obj))
    elif isinstance(obj, (int, str)):
        out[prefix] = str(obj)
    else:  # arrays and anything else → compact JSON string
        out[prefix] = json.dumps(obj, separators=(",", ":"))


def flatten_json(obj) -> dict[str, str]:
    """Flatten a parsed JSON object to {'.a.b': 'value'} string pairs
    (nested objects re-enter the scan, json.c:64-67; key concat
    json.c:85)."""
    out: dict[str, str] = {}
    _flatten(obj, "", out)
    return out


def _reject_constant(val):
    # json-c (the reference's parser) rejects NaN/Infinity; python's
    # json.loads accepts them by default AND _flatten's int(obj) would
    # then raise — treat such messages as non-JSON instead
    raise ValueError(f"non-standard JSON constant {val!r}")


# one decoder for every message: json.loads(s, parse_constant=...) would
# build a new decoder (and scanner) per call
_JSON_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def try_parse_json_text(text: str) -> dict[str, str] | None:
    """If the message *is* a JSON object (json input mode analog,
    src/input-json.c:47-547), return its flattened k/v map, else None.
    A number out of float range (``1e400``) parses to ``inf``, which
    ``_flatten`` cannot render as an integer: such a message is non-JSON
    too, as NaN/Infinity are (``_reject_constant``), and so is one nested
    too deep to flatten."""
    s = text.lstrip()
    if not s.startswith("{"):
        return None
    try:
        obj = _JSON_DECODER.decode(s)
    except (ValueError, RecursionError):
        return None
    if not isinstance(obj, dict):
        return None
    try:
        return flatten_json(obj)
    except (OverflowError, RecursionError):
        return None


def json_atom_match(ja, val) -> bool:
    """Evaluate one JsonAtom against a (possibly missing) flattened JSON
    value — the single shared implementation used by both the oracle
    evaluator and the vectorized classifier residual. Returns the raw
    predicate result BEFORE negation (caller applies ``== ja.negated``).

    Missing key ⇒ False (reference src/json-content.c:80-90). kind
    'content' is full-string equality unless ``contains``
    (json-content.c Search_Case/Search_Nocase); ``decode_base64``
    decodes the value first (json-content.c json_decode_base64).
    """
    if val is None:
        return False
    if ja.decode_base64:
        import base64 as _b64

        try:
            val = _b64.b64decode(val, validate=False).decode("utf-8", "replace")
        except (ValueError, TypeError):
            return False
    if ja.kind == "content":
        v, p = val, ja.values[0]
        if ja.nocase:
            v, p = v.lower(), p.lower()
        return (p in v) if ja.contains else (v == p)
    if ja.kind == "pcre":
        return ja.compiled().search(val) is not None
    # meta: OR-list
    v = val.lower() if ja.nocase else val
    pats = [x.lower() for x in ja.values] if ja.nocase else ja.values
    return any((p in v) if ja.contains else (v == p) for p in pats)


_PROTO_KEYWORDS = [
    # (keyword, proto) — a minimal protocol.map analog
    # (reference src/protocol-map.c + etc/protocol.map)
    ("tcp", "tcp"), ("udp", "udp"), ("icmp", "icmp"),
    ("ssh", "tcp"), ("http", "tcp"), ("https", "tcp"), ("smtp", "tcp"),
    ("ftp", "tcp"), ("telnet", "tcp"), ("dns", "udp"), ("ntp", "udp"),
    ("snmp", "udp"), ("syslog", "udp"), ("ping", "icmp"),
]


def infer_proto(text: str) -> str:
    low = text.lower()
    for kw, proto in _PROTO_KEYWORDS:
        if kw in low:
            return proto
    return ""


def prematch_regex(spec: str, wildcards: bool = True) -> re.Pattern:
    """Compile a prematch spec ('|'-alternation) into one anchored regex.
    ``wildcards=True`` is the ``program:`` behavior ('*'/'?' globs via
    util.c:970-990 Wildcard, engine.c:502-511); facility/level/tag/
    priority use ``wildcards=False`` — the reference compares those with
    plain strcmp per '|' token (engine.c:512-581), so '*'/'?' there are
    literal characters. A literal '!' matches itself in every field (the
    reference has no prematch negation)."""
    alts = []
    for alt in spec.split("|"):
        alt = alt.strip()
        if not alt:
            # the reference tokenizes with strtok, which discards empty
            # tokens (engine.c:502) — 'sshd|' must not match empty roles
            continue
        esc = re.escape(alt)
        if wildcards:
            esc = esc.replace(r"\*", ".*").replace(r"\?", ".")
        alts.append(esc)
    if not alts:
        return re.compile(r"(?!)")      # matches nothing
    return re.compile(r"^(?:%s)$" % "|".join(alts))
