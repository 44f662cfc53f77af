"""Single-threaded reference evaluator — the executable spec.

A direct row-at-a-time transcription of the reference engine's predicate
cascade (/root/reference/src/processors/engine.c:92-1558, order documented
in doc/source/high-performance.rst:78-93):

    pre-match (program/facility/tag) → content → meta_content → pcre →
    event_id → json_* → field extraction → flow / geoip / blacklist /
    zeekintel gates → xbit/flexbit conditions → alert_time → routing
    conjunction (src/routing.c:43-158) → after (src/after.c:51-229) →
    threshold (src/threshold.c:54-234) → xbit/flexbit set
    (src/xbit-mmap.c:60-175, flexbit-mmap.c:925-1639) → emit → pass break
    (engine.c:1450-1453).

Transcript mapping: program≙role, facility/tag≙tool, message≙text; all
correlation state is scoped per ``conv_id`` and rows are processed in
``(conv_id, turn_idx)`` order — the deterministic analog of the
reference's global arrival-order shared-mmap state (SURVEY.md §4.3).
Event-time (the ``ts`` column) replaces wall-clock throughout.

The Ray Data pipeline (sagan_ray.pipelines.engine) must produce identical
hits / routed sets / counters; pytest enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

from ..config import (
    SINK_EMAIL,
    SINK_EXTERNAL,
    EngineConfig,
    Lookups,
)
from ..functions.ip import extract_ips, net_group_contains
from ..functions.textutil import (
    extract_event_id,
    extract_hashes,
    infer_proto,
    json_atom_match,
    prematch_regex,
    try_parse_json_text,
)
from ..rules.model import Rule, RuleSet

_EPOCH = datetime(1970, 1, 1)


def _to_port(v) -> int:
    try:
        p = int(v)
        return p if 0 < p <= 65535 else 0
    except (TypeError, ValueError):
        return 0


def ts_epoch(ts) -> int:
    """Event-time epoch seconds from a (tz-naive, UTC) timestamp."""
    if isinstance(ts, (int, float)):
        return int(ts)
    return int((ts - _EPOCH).total_seconds())


@dataclass
class EvalResult:
    # saganfound analog: routed matches before after/threshold suppression
    hits: list[tuple[str, int, int]] = field(default_factory=list)       # (conv_id, turn_idx, sid)
    # post-suppression alerts fanned out per sink
    routed: list[tuple[str, int, str, int]] = field(default_factory=list)  # (sink, sid, conv_id, turn_idx)
    counters: dict[str, int] = field(default_factory=dict)

    def hit_counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for _, _, sid in self.hits:
            out[sid] = out.get(sid, 0) + 1
        return out

    def routed_counts(self) -> dict[tuple[str, int], int]:
        out: dict[tuple[str, int], int] = {}
        for sink, sid, _, _ in self.routed:
            out[(sink, sid)] = out.get((sink, sid), 0) + 1
        return out


class _ConvState:
    """Per-conversation correlation state (the mmap-file analog,
    reference src/ipc.c:458-733)."""

    __slots__ = ("xbits", "flexbits", "after", "threshold")

    def __init__(self):
        # (name, trackkey) → expire_epoch (0 = unset; xbit-mmap.c:168)
        self.xbits: dict[tuple[str, str], int] = {}
        # entries: [name, src, dst, sport, dport, username, expire_epoch]
        self.flexbits: list[list] = []
        # (sid, trackkey) → [count, utime]
        self.after: dict[tuple[int, str], list[int]] = {}
        self.threshold: dict[tuple[int, str], list[int]] = {}


_PREMATCH_CACHE: dict[str, object] = {}


def _prematch(spec: str, value: str, wildcards: bool = True) -> bool:
    key = (spec, wildcards)
    rx = _PREMATCH_CACHE.get(key)
    if rx is None:
        if len(_PREMATCH_CACHE) > 10_000:
            _PREMATCH_CACHE.clear()
        rx = prematch_regex(spec, wildcards)
        _PREMATCH_CACHE[key] = rx
    return rx.match(value or "") is not None


class RowCache:
    """Per-record lazy derivations shared across rules — the analog of the
    reference's per-record Parse_IP / Parse_JSON caches (engine.c:800-843).
    Built once per row; ``match_stateless`` consults it for every rule that
    does NOT remap the message (remapped rules recompute on the remapped
    text, as the reference does after engine.c:321-488)."""

    __slots__ = ("text", "role", "tool", "now", "_ips", "_hashes", "_eid",
                 "_proto", "_json", "_json_done", "_norm")

    def __init__(self, text: str, role: str, tool: str, now: int):
        self.text = text
        self.role = role
        self.tool = tool
        self.now = now
        self._ips = None
        self._hashes = None
        self._eid = None
        self._proto = None
        self._json = None
        self._json_done = False
        self._norm = None

    def ips(self):
        if self._ips is None:
            self._ips = extract_ips(self.text)
        return self._ips

    def hashes(self):
        if self._hashes is None:
            self._hashes = extract_hashes(self.text)
        return self._hashes

    def json(self):
        if not self._json_done:
            self._json = try_parse_json_text(self.text)
            self._json_done = True
        return self._json

    def event_id(self) -> str:
        if self._eid is None:
            eid = extract_event_id(self.text)
            if not eid and (j := self.json()) is not None:
                eid = j.get(".event_id", "")
            self._eid = eid
        return self._eid

    def proto_inferred(self) -> str:
        if self._proto is None:
            self._proto = infer_proto(self.text)
        return self._proto

    def norm(self, table) -> dict:
        if self._norm is None:
            self._norm = table.apply(self.text)
        return self._norm


def match_stateless(rule: Rule, rc: RowCache, lookups: Lookups):
    """THE stateless predicate chain — the single shared implementation
    consulted by both the reference evaluator and the vectorized
    classifier's residual path (which prefilters candidates with
    vectorized masks and re-checks here). One rule against one record:
    returns None on no-match, else the extracted field dict
    (src_ip, dst_ip, src_port, dst_port, username).

    Order mirrors engine.c:92-1360: json_map remap (321-488, restored
    per-rule as 1514-1529 does) → pre-match (492-581) → content → meta →
    pcre → event_id → json_* → normalize/extraction (739-921) → flow
    (926-940) → geoip (1031-1126) → blacklist (1147-1174) → zeekintel
    (1297-1360) → alert_time (aetas.c:48-144)."""
    # ---- json_map field overrides, incl. message/program remap --------
    jm: dict[str, str] = {}
    if rule.json_maps:
        j = rc.json()
        if j:
            for fld, key in rule.json_maps:
                v = j.get(key)
                if v is not None:
                    jm[fld] = v
    remapped = "message" in jm
    eff_text = jm.get("message", rc.text)
    eff_role = jm.get("program", rc.role)

    # ---- pre-match ----------------------------------------------------
    if rule.program is not None and not _prematch(rule.program, eff_role):
        return None
    # facility/level/tag/priority: exact strcmp per '|' token — only
    # program gets the Wildcard glob (engine.c:502-581)
    if rule.facility is not None and not _prematch(rule.facility, rc.tool,
                                                   wildcards=False):
        return None
    if rule.tag is not None and not _prematch(rule.tag, rc.tool,
                                              wildcards=False):
        return None
    for lv in rule.levels:
        if not _prematch(lv, rc.tool, wildcards=False):
            return None

    # ---- offload predicate (local UDF analog of src/offload.c:47-167;
    # engine.c:777 runs it before the content checks; any failure —
    # unknown name, raising predicate — is the curl-failure → false path)
    if rule.offload is not None:
        fn = lookups.offload.get(rule.offload)
        if fn is None:
            return None
        try:
            resp = fn(eff_text, eff_role, rc.tool, rc.now)
        except Exception:
            return None
        ok = ("true" in resp.lower()) if isinstance(resp, str) else bool(resp)
        if not ok:
            return None

    # append_program: engine.c:595-627
    msg = f"{eff_text} | {eff_role}" if rule.append_program else eff_text

    # ---- content chain ------------------------------------------------
    prev_depth = 0
    for atom in rule.contents:
        start, stop = atom.window(prev_depth)
        win = msg[start:stop]
        if atom.nocase:
            found = atom.pattern.lower() in win.lower()
        else:
            found = atom.pattern in win
        if found == atom.negated:
            return None
        prev_depth = atom.depth

    # ---- meta_content (OR-list, src/meta-content.c:159-224; window
    # slices mirror the content quirks, meta-content.c:74-130) ----------
    meta_prev_depth = 0
    for mc in rule.meta_contents:
        start, stop = mc.window(meta_prev_depth)
        win = msg[start:stop]
        if mc.nocase:
            low = win.lower()
            found = any(p.lower() in low for p in mc.patterns)
        else:
            found = any(p in win for p in mc.patterns)
        if found == mc.negated:
            return None
        meta_prev_depth = mc.depth

    # ---- pcre (AND, src/pcre-s.c:39-68) -------------------------------
    for patom in rule.pcres:
        found = patom.compiled().search(msg) is not None
        if found == patom.negated:
            return None

    # ---- event_id (src/event-id.c:61-125 + flattened-JSON fallback) ---
    if rule.event_ids:
        if remapped:
            event_id = extract_event_id(eff_text)
            if not event_id and (j := rc.json()) is not None:
                event_id = j.get(".event_id", "")
        else:
            event_id = rc.event_id()
        if jm.get("event_id", event_id) not in rule.event_ids:
            return None

    # ---- json_* (over the ORIGINAL message's flattened JSON) ----------
    if rule.json_atoms:
        j = rc.json()
        if j is None:
            return None  # no JSON ⇒ missing key ⇒ no match
        for ja in rule.json_atoms:
            if json_atom_match(ja, j.get(ja.key)) == ja.negated:
                return None

    # ---- normalize base values (liblognormalize.c:105-264) ------------
    base = jm
    if rule.normalize and lookups.normalize is not None:
        nm = (lookups.normalize.apply(eff_text) if remapped
              else rc.norm(lookups.normalize))
        if nm:
            base = {**nm, **jm}

    # ---- field extraction (engine.c:791-921; base values overwritten
    # only when extraction finds something) ------------------------------
    src_ip = base.get("src_ip", "")
    dst_ip = base.get("dst_ip", "")
    src_port = _to_port(base.get("src_port"))
    dst_port = _to_port(base.get("dst_port"))
    ips = None
    if rule.needs_ips():
        ips = extract_ips(eff_text) if remapped else rc.ips()
        if rule.parse_src_ip and rule.parse_src_ip <= len(ips):
            src_ip, p = ips[rule.parse_src_ip - 1]
            if rule.parse_port and p:
                src_port = p
        if rule.parse_dst_ip and rule.parse_dst_ip <= len(ips):
            dst_ip, p = ips[rule.parse_dst_ip - 1]
            if rule.parse_port and p:
                dst_port = p
    if src_port == 0:
        src_port = rule.default_src_port
    if dst_port == 0:
        dst_port = rule.default_dst_port

    proto = base.get("proto", "")
    if rule.parse_proto and not proto:
        proto = infer_proto(eff_text) if remapped else rc.proto_inferred()
    if rule.parse_proto_program and not proto:
        # keyword inference over the program/role value
        # (proto.c Parse_Proto_Program)
        proto = infer_proto(eff_role)
    if not proto:
        proto = rule.default_proto

    username = base.get("username", "")
    if not username:
        j = rc.json()
        if j is not None:
            username = j.get(".username", "")

    # ---- flow gate (src/flow.c, engine.c:926-940) ---------------------
    if rule.proto not in ("any", "syslog") and proto != rule.proto:
        return None
    if rule.src_nets is not None and not (
            src_ip and net_group_contains(rule.src_nets, src_ip)):
        return None
    if rule.dst_nets is not None and not (
            dst_ip and net_group_contains(rule.dst_nets, dst_ip)):
        return None
    if rule.src_port_eq is not None and src_port != rule.src_port_eq:
        return None
    if rule.dst_port_eq is not None and dst_port != rule.dst_port_eq:
        return None

    # ---- geoip gate (engine.c:1031-1126; NOT_FOUND → SKIP → fail) -----
    if rule.geoip_track:
        ip = src_ip if rule.geoip_track == "by_src" else dst_ip
        if not ip:
            return None
        cc = lookups.geo.lookup(ip) if lookups.geo else None
        if cc is None:
            return None
        if rule.geoip_isnot == (cc in rule.geoip_codes):
            return None

    # ---- blacklist gate (engine.c:1147-1174) --------------------------
    if rule.blacklist:
        bl = lookups.blacklist
        if bl is None:
            return None
        mode = rule.blacklist
        if mode == "by_src":
            hit = bool(src_ip) and src_ip in bl
        elif mode == "by_dst":
            hit = bool(dst_ip) and dst_ip in bl
        elif mode == "both":
            hit = bool(src_ip) and bool(dst_ip) and src_ip in bl and dst_ip in bl
        else:  # all — any parsed IP (engine.c:1160-1170)
            if ips is None:
                ips = extract_ips(eff_text) if remapped else rc.ips()
            hit = any(ip in bl for ip, _ in ips)
        if not hit:
            return None

    # ---- bluedot gate (offline snapshot analog of bluedot.c:736-1648;
    # category of the looked-up value must be in the rule's list, the
    # Sagan_Bluedot_Cat_Compare semantics; engine.c checks it between
    # blacklist and zeekintel) ------------------------------------------
    if rule.bluedot_kind:
        bd = lookups.bluedot
        cats = rule.bluedot_cats
        kind = rule.bluedot_kind
        if kind == "ip_reputation":
            tbl = bd.get("ip", {})
            tr = rule.bluedot_track
            if tr == "by_src":
                ok = bool(src_ip) and tbl.get(src_ip) in cats
            elif tr == "by_dst":
                ok = bool(dst_ip) and tbl.get(dst_ip) in cats
            elif tr == "both":
                ok = (bool(src_ip) and bool(dst_ip)
                      and tbl.get(src_ip) in cats and tbl.get(dst_ip) in cats)
            else:  # all — any parsed IP (bluedot_ipaddr_type 4)
                if ips is None:
                    ips = extract_ips(eff_text) if remapped else rc.ips()
                ok = any(tbl.get(ip) in cats for ip, _ in ips)
        elif kind == "file_hash":
            tbl = bd.get("hash", {})
            # json_map'd md5/sha1/sha256 override extraction per field
            # (engine.c:427-437 feed the mapped values into the hash
            # fields the file_hash gates consume)
            hashes = {**(extract_hashes(eff_text) if remapped else rc.hashes()),
                      **{k: base[k] for k in ("md5", "sha1", "sha256")
                         if k in base}}
            ok = any(h and tbl.get(h) in cats for h in hashes.values())
        elif kind == "ja3":
            # JA3 arrives as a field of the structured record — the
            # flattened-JSON `.ja3` key in the transcript mapping
            j = rc.json()
            v = j.get(".ja3", "") if j else ""
            ok = bool(v) and bd.get("ja3", {}).get(v) in cats
        elif kind == "url":
            ok = any(c in cats and u in eff_text
                     for u, c in bd.get("url", {}).items())
        else:  # filename
            ok = any(c in cats and fn in eff_text
                     for fn, c in bd.get("filename", {}).items())
        if not ok:
            return None

    # ---- zeekintel gate (engine.c:1297-1360) --------------------------
    # (the IP list is read only by the `all` kind, the hashes only by
    # `file_hash`: the other kinds extract neither)
    if rule.zeekintel:
        if ips is None and "all" in rule.zeekintel:
            ips = extract_ips(eff_text) if remapped else rc.ips()
        hashes = None
        if "file_hash" in rule.zeekintel:
            hashes = {**(extract_hashes(eff_text) if remapped else rc.hashes()),
                      **{k: base[k] for k in ("md5", "sha1", "sha256")
                         if k in base}}
        if not _zeekintel(rule, lookups, eff_text, src_ip, dst_ip,
                          ips, hashes, username):
            return None

    # ---- alert_time (src/aetas.c:48-144; event ts, 0=Sunday) ----------
    if rule.alert_days is not None or rule.alert_hours is not None:
        dow = ((rc.now // 86400) + 4) % 7
        if rule.alert_days is not None and dow not in rule.alert_days:
            return None
        if rule.alert_hours is not None:
            sec = rc.now % 86400
            hhmm = (sec // 3600) * 100 + (sec % 3600) // 60
            a, b = rule.alert_hours
            in_win = (a <= hhmm <= b) if a <= b else (hhmm >= a or hhmm <= b)
            if not in_win:
                return None

    return {"src_ip": src_ip, "dst_ip": dst_ip, "src_port": src_port,
            "dst_port": dst_port, "username": username}


def _zeekintel(rule: Rule, lk: Lookups, text: str, src_ip: str, dst_ip: str,
               ips, hashes, username: str) -> bool:
    """All listed intel lookups must hit (engine.c:1297-1360). Non-IP
    kinds are substring scans of the message (zeek-intel.c:507-778)."""
    ipset = lk.intel_set("ip")
    for kind in rule.zeekintel:
        if kind == "src_ipaddr":
            ok = src_ip in ipset
        elif kind == "dst_ipaddr":
            ok = dst_ip in ipset
        elif kind == "both":
            ok = src_ip in ipset and dst_ip in ipset
        elif kind == "all":
            ok = any(ip in ipset for ip, _ in ips)
        elif kind == "file_hash":
            hs = lk.intel_set("hash")
            ok = any(h and h in hs for h in hashes.values())
        elif kind == "domain":
            ok = any(v in text for v in lk.intel_set("domain"))
        elif kind == "url":
            ok = any(v in text for v in lk.intel_set("url"))
        elif kind == "software":
            ok = any(v in text for v in lk.intel_set("software"))
        elif kind == "user_name":
            ok = username in lk.intel_set("username") if username else False
        elif kind == "file_name":
            ok = any(v in text for v in lk.intel_set("filename"))
        else:
            ok = False
        if not ok:
            return False
    return True


class ReferenceEvaluator:
    def __init__(self, ruleset: RuleSet, lookups: Lookups | None = None,
                 config: EngineConfig | None = None):
        self.ruleset = ruleset
        self.lookups = lookups or Lookups()
        self.config = config or EngineConfig()

    # ------------------------------------------------------------------
    def evaluate(self, rows: list[dict]) -> EvalResult:
        """rows: dicts with conv_id, turn_idx, role, text, tool, ts.
        Processing order is (conv_id, turn_idx) — the spec's ordering
        contract (SURVEY.md §4.3)."""
        res = EvalResult()
        c = res.counters
        for k in ("events_received", "events_processed", "null_message", "ignored",
                  "saganfound", "after_total", "threshold_total", "alert_total"):
            c[k] = 0

        states: dict[str, _ConvState] = {}
        for row in sorted(rows, key=lambda r: (r["conv_id"], r["turn_idx"])):
            c["events_received"] += 1
            text = row["text"]
            if text is None or text.strip() == "":
                # ValidateMessage analog (src/util.c:1383)
                c["null_message"] += 1
                continue
            if any(s in text for s in self.config.ignore_list):
                # droplist pre-filter (src/ignore.c:40-56)
                c["ignored"] += 1
                continue
            c["events_processed"] += 1
            st = states.setdefault(row["conv_id"], _ConvState())
            self._eval_row(row, st, res)
        return res

    # ------------------------------------------------------------------
    def _eval_row(self, row: dict, st: _ConvState, res: EvalResult) -> None:
        now = ts_epoch(row["ts"])
        rc = RowCache(row["text"], row.get("role") or "",
                      row.get("tool") or "", now)

        for rule in self.ruleset:
            # ---- stateless chain (shared spec: match_stateless) ------
            f = match_stateless(rule, rc, self.lookups)
            if f is None:
                continue
            src_ip = f["src_ip"]
            dst_ip = f["dst_ip"]
            src_port = f["src_port"]
            dst_port = f["dst_port"]
            username = f["username"]

            # ---- xbit conditions (xbit-mmap.c:181-408) ---------------
            xbit_ok = True
            has_xbit_setunset = any(x.op in ("set", "unset") for x in rule.xbits)
            if rule.xbits and not has_xbit_setunset:
                # routing.c:73-86 — conditions only gate when the rule has
                # no set/unset ops
                xbit_ok = self._xbit_condition(rule, st, src_ip, dst_ip, now)
            if not xbit_ok:
                continue

            # ---- flexbit conditions (routing.c:55-70; set-only rules
            # have no conds/counts and fall straight through) -----------
            if rule.flexbits:
                conds = [f for f in rule.flexbits if f.op in ("isset", "isnotset")]
                counts = [f for f in rule.flexbits if f.op == "count"]
                if conds and not self._flexbit_condition(
                        conds, st, src_ip, dst_ip,
                        src_port, dst_port, username, now):
                    continue
                if counts and not all(
                        self._flexbit_count(f, st, src_ip, dst_ip, now) for f in counts):
                    continue

            # =========== ROUTED (saganfound, engine.c:1398) ===========
            res.counters["saganfound"] += 1
            res.hits.append((row["conv_id"], row["turn_idx"], rule.sid))

            # ---- after (engine.c:1374-1381) --------------------------
            after_flag = False
            if rule.after is not None:
                after_flag = self._after(rule, st, src_ip, dst_ip,
                                         src_port, dst_port, username, now, res)

            # ---- threshold: only if after didn't suppress
            # (engine.c:1385-1389) -------------------------------------
            thresh_flag = False
            if rule.threshold is not None and not after_flag:
                thresh_flag = self._threshold(rule, st, src_ip, dst_ip,
                                              src_port, dst_port, username, now, res)

            if after_flag or thresh_flag:
                continue

            # ---- xbit/flexbit set (engine.c:1417-1427) ---------------
            if has_xbit_setunset:
                self._xbit_set(rule, st, src_ip, dst_ip, now)
            for f in rule.flexbits:
                if f.op == "set":
                    self._flexbit_set(f, st, src_ip, dst_ip, src_port,
                                      dst_port, username, now)
                elif f.op == "unset":
                    self._flexbit_unset(f, st, src_ip, dst_ip, src_port,
                                        dst_port, username)

            # ---- emit / pass break (engine.c:1436-1453) --------------
            if rule.action == "pass":
                # bypass rule: stop all further rule processing for this
                # record; no alert (etc/sagan.yaml:493-500 semantics — we
                # deviate from engine.c:1442 which also emits)
                break

            noalert = rule.flexbits and rule.flexbit_noalert
            if rule.action == "alert" and not noalert:
                res.counters["alert_total"] += 1
                sinks = list(self.config.sinks)
                if rule.email:
                    sinks.append(SINK_EMAIL)
                if rule.external:
                    sinks.append(SINK_EXTERNAL)
                for sink in sinks:
                    res.routed.append((sink, rule.sid, row["conv_id"], row["turn_idx"]))
            # drop: counted in hits, routed nowhere

    # ---- xbits -------------------------------------------------------
    @staticmethod
    def _xbit_key(track: str, src_ip: str, dst_ip: str) -> str:
        # Xbit_Return_Tracking_Hash (src/xbit.c): 1=src, 2=dst, 3=pair
        if track == "ip_src":
            return src_ip
        if track == "ip_dst":
            return dst_ip
        return f"{src_ip}:{dst_ip}"

    def _xbit_condition(self, rule: Rule, st: _ConvState,
                        src_ip: str, dst_ip: str, now: int) -> bool:
        """All isset/isnotset atoms must hold (xbit-mmap.c:264-270: counts
        must equal)."""
        for x in rule.xbits:
            key = (x.name, self._xbit_key(x.track, src_ip, dst_ip))
            expire = st.xbits.get(key, 0)
            live = expire != 0 and now < expire
            if x.op == "isset" and not live:
                return False
            if x.op == "isnotset" and live:
                return False
        return True

    def _xbit_set(self, rule: Rule, st: _ConvState,
                  src_ip: str, dst_ip: str, now: int) -> None:
        for x in rule.xbits:
            key = (x.name, self._xbit_key(x.track, src_ip, dst_ip))
            if x.op == "set":
                st.xbits[key] = now + x.expire      # xbit-mmap.c:100-140
            elif x.op == "unset":
                if key in st.xbits:
                    st.xbits[key] = 0               # xbit-mmap.c:168

    # ---- flexbits ----------------------------------------------------
    @staticmethod
    def _flex_match(f, e, src_ip, dst_ip, src_port, dst_port, username) -> bool:
        """Direction comparisons (flexbit-mmap.c:120-320 condition table;
        ``*_p`` variants additionally compare ports, flexbit-mmap.c:240+;
        direction ids per src/flexbit.c:63-140)."""
        d = f.direction
        if d == "none":
            return True
        if d == "by_src":
            return e[1] == src_ip
        if d == "by_dst":
            return e[2] == dst_ip
        if d == "both":
            return e[1] == src_ip and e[2] == dst_ip
        if d == "reverse":
            return e[1] == dst_ip and e[2] == src_ip
        if d == "src_xbitdst":
            return e[2] == src_ip
        if d == "dst_xbitsrc":
            return e[1] == dst_ip
        if d == "username":
            return e[5] == username
        if d == "both_p":
            return (e[1] == src_ip and e[2] == dst_ip
                    and e[3] == src_port and e[4] == dst_port)
        if d == "by_src_p":
            return e[1] == src_ip and e[3] == src_port
        if d == "by_dst_p":
            return e[2] == dst_ip and e[4] == dst_port
        if d == "reverse_p":
            return (e[1] == dst_ip and e[2] == src_ip
                    and e[3] == dst_port and e[4] == src_port)
        return False

    def _flexbit_condition(self, conds, st: _ConvState, src_ip, dst_ip,
                           src_port, dst_port, username, now: int) -> bool:
        for f in conds:
            hit = any(
                e[0] == f.name and e[6] > now
                and self._flex_match(f, e, src_ip, dst_ip, src_port, dst_port, username)
                for e in st.flexbits
            )
            if f.op == "isset" and not hit:
                return False
            if f.op == "isnotset" and hit:
                return False
        return True

    def _flexbit_count(self, f, st: _ConvState, src_ip, dst_ip, now: int) -> bool:
        n = sum(
            1 for e in st.flexbits
            if e[0] == f.name and e[6] > now
            and self._flex_match(f, e, src_ip, dst_ip, 0, 0, "")
        )
        return n > f.count_val if f.count_op == ">" else n < f.count_val

    def _flexbit_set(self, f, st: _ConvState, src_ip, dst_ip,
                     src_port, dst_port, username, now: int) -> None:
        # update an existing same-endpoints entry, else append
        # (flexbit-mmap.c:925-1639)
        for e in st.flexbits:
            if (e[0] == f.name and e[1] == src_ip and e[2] == dst_ip
                    and e[3] == src_port and e[4] == dst_port and e[5] == username):
                e[6] = now + f.expire
                return
        st.flexbits.append([f.name, src_ip, dst_ip, src_port, dst_port,
                            username, now + f.expire])

    def _flexbit_unset(self, f, st: _ConvState, src_ip, dst_ip,
                       src_port, dst_port, username) -> None:
        for e in st.flexbits:
            if e[0] == f.name and self._flex_match(f, e, src_ip, dst_ip,
                                                   src_port, dst_port, username):
                e[6] = 0

    # ---- after / threshold ------------------------------------------
    @staticmethod
    def _track_key(spec, src_ip, dst_ip, src_port, dst_port, username) -> str:
        # after.c:108-110 / threshold.c:111-113 hash "src|sport|dst|dport|user"
        s = src_ip if spec.by_src else ""
        d = dst_ip if spec.by_dst else ""
        u = username if spec.by_username else ""
        sp = src_port if spec.by_srcport else 0
        dp = dst_port if spec.by_dstport else 0
        return f"{s}|{sp}|{d}|{dp}|{u}"

    def _after(self, rule: Rule, st: _ConvState, src_ip, dst_ip,
               src_port, dst_port, username, now: int, res: EvalResult) -> bool:
        """True ⇒ suppress. Transcription of After2 (src/after.c:51-229):
        a new key returns True unconditionally (after.c:193-229); an
        existing key increments, resets when the anchored window expired
        (strictly >, after.c:132-137), and only alerts once count exceeds
        the target (after.c:140-179, which also slides utime)."""
        spec = rule.after
        key = (rule.sid, self._track_key(spec, src_ip, dst_ip, src_port, dst_port, username))
        ent = st.after.get(key)
        if ent is None:
            st.after[key] = [1, now]
            return True
        ent[0] += 1
        flag = True
        if now - ent[1] > spec.seconds:
            ent[0] = 1
            ent[1] = now
            flag = True
        if spec.count < ent[0]:
            ent[1] = now
            flag = False
            res.counters["after_total"] += 1
        return flag

    def _threshold(self, rule: Rule, st: _ConvState, src_ip, dst_ip,
                   src_port, dst_port, username, now: int, res: EvalResult) -> bool:
        """True ⇒ suppress. Transcription of Threshold2
        (src/threshold.c:54-234): 'suppress' slides utime on every event
        (threshold.c:126-131), 'limit' keeps the window anchored
        (threshold.c:133-137); new keys alert (return False)."""
        spec = rule.threshold
        key = (rule.sid, self._track_key(spec, src_ip, dst_ip, src_port, dst_port, username))
        ent = st.threshold.get(key)
        if ent is None:
            st.threshold[key] = [1, now]
            return False
        ent[0] += 1
        if spec.ttype == "suppress":
            old = now - ent[1]
            ent[1] = now
        else:  # limit
            old = now - ent[1]
        flag = False
        if old > spec.seconds:
            ent[0] = 1
            ent[1] = now
            flag = False
        if spec.count < ent[0]:
            flag = True
            res.counters["threshold_total"] += 1
        return flag
