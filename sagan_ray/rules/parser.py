"""Rule-file parser: Snort-style text → :class:`RuleSet`.

Syntax mirrors the reference (parsed there in /root/reference/src/rules.c,
4,125 LoC): ``action proto src sport -> dst dport ( option:value; ... )``.
Content/meta/json modifier options bind to the most recent atom of their
family, as in the reference (rules.c:2798-3006 for content modifiers).

Supported header: action ``alert|drop|pass`` (rules.c:394-412), proto
``any|tcp|udp|icmp|syslog`` (rules.c:427-466), src/dst as ``any``, a CIDR,
``$VAR``, or a ``[a,b,!c]`` group; ports as ``any`` or an integer.

``var NAME value`` lines define variables (``$NAME`` substitution), as in
Snort/Sagan rule files. ``#`` comments and blank lines are skipped; rules
may wrap lines ending in ``\\``.
"""

from __future__ import annotations

import ipaddress
import re

from .model import (
    AfterSpec,
    ContentAtom,
    FlexbitSpec,
    JsonAtom,
    MetaContent,
    PcreAtom,
    Rule,
    RuleSet,
    ThresholdSpec,
    XbitSpec,
)

_HEX_ESC = re.compile(r"\|([0-9A-Fa-f\s]+)\|")

_PCRE_FLAG_MAP = {"i": re.IGNORECASE, "s": re.DOTALL, "m": re.MULTILINE, "x": re.VERBOSE}


class RuleParseError(ValueError):
    pass


def _decode_hex_escapes(s: str) -> str:
    """``a|3a 3b|b`` → ``a:;b`` (reference content pipe-escapes,
    rules.c content parsing)."""

    def sub(m: re.Match) -> str:
        hexes = m.group(1).split()
        return "".join(chr(int(h, 16)) for h in hexes)

    return _HEX_ESC.sub(sub, s)


def _split_options(body: str) -> list[str]:
    """Split the ``(...)`` body on ``;`` outside quotes; honors ``\\``
    escapes inside quoted strings."""
    out, cur, in_q, esc = [], [], False, False
    for ch in body:
        if esc:
            cur.append(ch)
            esc = False
            continue
        if ch == "\\":
            cur.append(ch)
            esc = True
            continue
        if ch == '"':
            in_q = not in_q
            cur.append(ch)
            continue
        if ch == ";" and not in_q:
            tok = "".join(cur).strip()
            if tok:
                out.append(tok)
            cur = []
            continue
        cur.append(ch)
    tok = "".join(cur).strip()
    if tok:
        out.append(tok)
    return out


def _unquote(s: str) -> str:
    """Strip surrounding quotes and unescape \" / \\; (the characters the
    option tokenizer itself escapes). Backslashes are otherwise passed
    through VERBATIM — the reference hands the quoted bytes to
    pcre_compile unmodified, so collapsing '\\\\' would turn the pcre
    'literal backslash + d' into the digit class \\d."""
    s = s.strip()
    if len(s) >= 2 and s[0] == '"' and s[-1] == '"':
        s = s[1:-1]
    return s.replace('\\"', '"').replace("\\;", ";")


def _expand_var(s: str, variables: dict[str, str], what: str) -> str:
    """$VAR substitution with a cycle bound (a circular 'var A $B' +
    'var B $A' must raise, not hang)."""
    for _ in range(16):
        if not s.startswith("$"):
            return s
        s = variables.get(s[1:], s[1:]).strip()
    raise RuleParseError(f"circular $VAR reference expanding {what!r}")


def _split_commas_outside_quotes(s: str) -> list[str]:
    out, cur, in_q, esc = [], [], False, False
    for ch in s:
        if esc:
            cur.append(ch)
            esc = False
            continue
        if ch == "\\":
            cur.append(ch)
            esc = True
            continue
        if ch == '"':
            in_q = not in_q
            cur.append(ch)
            continue
        if ch == "," and not in_q:
            out.append("".join(cur).strip())
            cur = []
            continue
        cur.append(ch)
    out.append("".join(cur).strip())
    return out


def _net_to_range(net: str) -> tuple[int, int]:
    n = ipaddress.ip_network(net, strict=False)
    if n.version == 4:
        base = int(ipaddress.IPv6Address("::ffff:0:0"))
        return base + int(n.network_address), base + int(n.broadcast_address)
    return int(n.network_address), int(n.broadcast_address)


def _parse_net_group(spec: str, variables: dict[str, str]) -> list[tuple[int, int, bool]] | None:
    """``any`` → None; ``[a,b,!c]`` / single CIDR / $VAR → range list."""
    spec = spec.strip()
    for _ in range(16):
        if not spec.startswith("$"):
            break
        name = spec[1:]
        if name not in variables:
            raise RuleParseError(f"undefined variable ${name}")
        spec = variables[name].strip()
    else:
        raise RuleParseError(f"circular $VAR reference in net group {spec!r}")
    if spec.lower() == "any":
        return None
    if spec.startswith("[") and spec.endswith("]"):
        parts = [p.strip() for p in spec[1:-1].split(",") if p.strip()]
    else:
        parts = [spec]
    out: list[tuple[int, int, bool]] = []
    for p in parts:
        neg = p.startswith("!")
        if neg:
            p = p[1:]
        p = _expand_var(p, variables, "net group element")
        lo, hi = _net_to_range(p)
        out.append((lo, hi, neg))
    return out


def _parse_port(spec: str) -> int | None:
    spec = spec.strip()
    if spec.lower() == "any":
        return None
    return int(spec)


_HEADER_RE = re.compile(
    r"^(alert|drop|pass)\s+(any|tcp|udp|icmp|syslog)\s+(\S+)\s+(\S+)\s*->\s*(\S+)\s+(\S+)\s*$"
)


def parse_classifications(text: str) -> dict[str, int]:
    """``config classification: shortname,description,priority`` lines →
    {shortname: priority} (the Load_Classifications analog, reference
    src/classifications.c:50-140; '#'/';'/blank lines skipped)."""
    out: dict[str, int] = {}
    for i, raw in enumerate(text.splitlines(), 1):
        s = raw.strip()
        if not s or s[0] in "#;":
            continue
        # only 'config classification:' directives count; other config
        # lines in a combined conf are skipped, as the reference's
        # directive check does (classifications.c:50-140)
        head, _, rest = s.partition(":")
        if head.split() != ["config", "classification"]:
            continue
        try:
            short, _desc, pri = (p.strip() for p in rest.split(",", 2))
            out[short] = int(pri)
        except ValueError as e:
            raise RuleParseError(
                f"classification line {i} malformed: {raw!r}") from e
    return out


def load_classifications(path: str) -> dict[str, int]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_classifications(f.read())


def parse_rules(text: str, variables: dict[str, str] | None = None,
                classifications: dict[str, int] | None = None) -> RuleSet:
    variables = dict(variables or {})
    rules: list[Rule] = []

    # join continued lines, drop comments. The comment check runs on the
    # RAW line BEFORE joining, so a '#' line inside a \\-wrapped rule is
    # skipped instead of being glued into the pending rule text.
    logical_lines: list[str] = []
    pending = ""
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        line = (pending + " " + stripped) if pending else stripped
        pending = ""
        if line.endswith("\\"):
            pending = line[:-1]
            continue
        logical_lines.append(line)
    if pending:
        logical_lines.append(pending.strip())

    for line in logical_lines:
        if line.startswith("var "):
            try:
                _, name, val = line.split(None, 2)
            except ValueError as e:
                raise RuleParseError(
                    f"malformed var line (need 'var NAME value'): "
                    f"{line!r}") from e
            variables[name] = val.strip()
            continue
        try:
            rule = _parse_one(line, variables, classifications)
        except RuleParseError:
            raise
        except Exception as e:  # pragma: no cover - defensive
            raise RuleParseError(f"failed to parse rule: {line[:120]}...: {e}") from e
        rules.append(rule)

    # reference aborts on missing sid/rev/msg (rules.c:370-389)
    for r in rules:
        if not r.sid:
            raise RuleParseError(f"rule missing sid: {r.msg!r}")

    return RuleSet(rules=rules, variables=variables)


def parse_rules_file(path: str, variables: dict[str, str] | None = None,
                     classifications: dict[str, int] | None = None) -> RuleSet:
    with open(path, "r", encoding="utf-8") as f:
        return parse_rules(f.read(), variables, classifications)


def _parse_one(line: str, variables: dict[str, str],
               classifications: dict[str, int] | None = None) -> Rule:
    lp = line.find("(")
    rp = line.rfind(")")
    if lp < 0 or rp < 0 or rp < lp:
        raise RuleParseError(f"no option body: {line[:80]}")
    header, body = line[:lp].strip(), line[lp + 1 : rp]

    m = _HEADER_RE.match(header)
    if not m:
        raise RuleParseError(f"bad header: {header!r}")
    action, proto, src, sport, dst, dport = m.groups()

    rule = Rule(action=action, proto=proto)
    rule.src_nets = _parse_net_group(src, variables)
    rule.dst_nets = _parse_net_group(dst, variables)
    rule.src_port_eq = _parse_port(sport)
    rule.dst_port_eq = _parse_port(dport)

    last_content: ContentAtom | None = None
    last_meta: MetaContent | None = None
    # per-kind trackers: modifiers bind to the latest atom of THEIR kind
    # (the reference keeps separate counts per family, rules.c)
    last_jc: JsonAtom | None = None      # json_content
    last_jp: JsonAtom | None = None      # json_pcre
    last_jm_atom: JsonAtom | None = None  # json_meta_content

    for opt in _split_options(body):
        if ":" in opt:
            name, val = opt.split(":", 1)
        else:
            name, val = opt, ""
        name = name.strip().lower()
        val = val.strip()

        if name == "msg":
            rule.msg = _unquote(val)
        elif name == "sid":
            rule.sid = int(val)
        elif name == "rev":
            rule.rev = int(val)
        elif name == "classtype":
            # a loaded classifications table assigns the rule's priority
            # (rules.c:2570-2596; a later explicit `priority:` overrides,
            # same order-dependence as the reference); without a table
            # the classtype is annotation-only
            rule.classtype = _unquote(val)
            if classifications is not None:
                if rule.classtype not in classifications:
                    raise RuleParseError(
                        f"classtype {rule.classtype!r} not in the loaded "
                        "classification table (rules.c:2589 aborts too)")
                rule.priority = classifications[rule.classtype]
        elif name in ("priority", "pri"):   # rules.c accepts both
            rule.priority = int(val)
        elif name == "reference":
            rule.reference.append(_unquote(val))
        elif name == "metadata":
            rule.metadata = _unquote(val)
        elif name == "program":
            rule.program = _unquote(val)
        elif name in ("facility", "syslog_facility"):
            if rule.facility is None:
                rule.facility = _unquote(val)
            else:               # repeated constraint still ANDs
                rule.levels.append(_unquote(val))
        elif name in ("syslog_level", "syslog_priority"):
            # level/priority prematch fields share the tool mapping
            # (SURVEY §1.3) but stay INDEPENDENT AND constraints, as the
            # reference checks each field separately (engine.c:492-581)
            rule.levels.append(_unquote(val))
        elif name in ("tag", "syslog_tag"):
            rule.tag = _unquote(val)
        elif name == "append_program":
            rule.append_program = True

        # ---- content family ------------------------------------------
        elif name == "content":
            negated = val.startswith("!")
            pat = _decode_hex_escapes(_unquote(val[1:] if negated else val))
            last_content = ContentAtom(pattern=pat, negated=negated)
            rule.contents.append(last_content)
        elif name == "nocase":
            if last_content is not None:
                last_content.nocase = True
        elif name == "offset":
            if last_content is None:
                raise RuleParseError("offset without content")
            last_content.offset = int(val)
        elif name == "depth":
            if last_content is None:
                raise RuleParseError("depth without content")
            last_content.depth = int(val)
        elif name == "distance":
            if last_content is None:
                raise RuleParseError("distance without content")
            last_content.distance = int(val)
        elif name == "within":
            if last_content is None:
                raise RuleParseError("within without content")
            last_content.within = int(val)

        # ---- meta_content --------------------------------------------
        elif name == "meta_content":
            parts = _split_commas_outside_quotes(val)
            negated = parts[0].startswith("!")
            tmpl = _decode_hex_escapes(_unquote(parts[0][1:] if negated else parts[0]))
            items = []
            for p in parts[1:]:
                # expand $VAR FIRST, then split on commas — a comma-list
                # variable contributes one OR pattern per element, as the
                # reference's Var_To_Value-then-strtok does
                # (rules.c:1953-1980)
                p = _expand_var(_unquote(p), variables, "meta_content value")
                for piece in p.split(","):
                    piece = piece.strip()
                    if piece:
                        items.append(tmpl.replace("%sagan%", piece)
                                     if "%sagan%" in tmpl else piece)
            last_meta = MetaContent(patterns=items, negated=negated)
            rule.meta_contents.append(last_meta)
        elif name == "meta_nocase":
            if last_meta is not None:
                last_meta.nocase = True
        elif name in ("meta_offset", "meta_depth", "meta_distance",
                      "meta_within"):
            if last_meta is None:
                raise RuleParseError(f"{name} without meta_content")
            setattr(last_meta, name[len("meta_"):], int(val))

        # ---- pcre ----------------------------------------------------
        elif name == "pcre":
            negated = val.startswith("!")
            body_s = _unquote(val[1:] if negated else val)
            pat, flags = _parse_pcre(body_s)
            rule.pcres.append(PcreAtom(pattern=pat, flags=flags, negated=negated))

        elif name == "event_id":
            rule.event_ids = [v.strip().strip('"') for v in val.split(",") if v.strip()]

        # ---- json family ---------------------------------------------
        elif name == "json_content":
            parts = _split_commas_outside_quotes(val)
            negated = parts[0].startswith("!")
            key = _unquote(parts[0][1:] if negated else parts[0])
            last_jc = JsonAtom(kind="content", key=key,
                               values=[_decode_hex_escapes(_unquote(parts[1]))],
                               negated=negated)
            rule.json_atoms.append(last_jc)
        elif name == "json_nocase":
            if last_jc is not None:
                last_jc.nocase = True
        elif name == "json_contains":
            if last_jc is not None:
                last_jc.contains = True
        elif name == "json_decode_base64":
            # decode the JSON value from base64 before matching
            # (src/json-content.c json_decode_base64); per-kind variants
            # below bind to their own family's latest atom
            if last_jc is not None:
                last_jc.decode_base64 = True
        elif name == "json_decode_base64_pcre":
            if last_jp is not None:
                last_jp.decode_base64 = True
        elif name == "json_decode_base64_meta":
            if last_jm_atom is not None:
                last_jm_atom.decode_base64 = True
        elif name == "json_pcre":
            parts = _split_commas_outside_quotes(val)
            key = _unquote(parts[0])
            pat, flags = _parse_pcre(_unquote(parts[1]))
            last_jp = JsonAtom(kind="pcre", key=key, values=[pat], flags=flags)
            rule.json_atoms.append(last_jp)
        elif name == "json_map":
            # json_map: "src_ip", ".key"  (rules.c:2014-2146)
            parts = _split_commas_outside_quotes(val)
            fieldname = _unquote(parts[0]).lower()
            if fieldname == "dest_ip":
                fieldname = "dst_ip"
            allowed = {"event_id", "src_ip", "dst_ip",
                       "src_port", "dst_port", "proto", "username",
                       "md5", "sha1", "sha256",
                       # message/program remap + per-rule restore
                       # (engine.c:321-488, 1514-1529)
                       "message", "program"}
            if fieldname not in allowed:
                raise RuleParseError(f"bad json_map field {fieldname!r}")
            rule.json_maps.append((fieldname, _unquote(parts[1])))
        elif name == "json_meta_content":
            parts = _split_commas_outside_quotes(val)
            negated = parts[0].startswith("!")
            key = _unquote(parts[0][1:] if negated else parts[0])
            vals = [_unquote(p) for p in parts[1:]]
            last_jm_atom = JsonAtom(kind="meta", key=key, values=vals,
                                    negated=negated)
            rule.json_atoms.append(last_jm_atom)
        elif name == "json_meta_nocase":
            if last_jm_atom is not None:
                last_jm_atom.nocase = True
        elif name == "json_meta_contains":
            if last_jm_atom is not None:
                last_jm_atom.contains = True

        elif name == "offload":
            # "offload: location <name>" (rules.c:3709-3725) or bare name
            v = val.strip()
            if v.lower().startswith("location"):
                v = v[len("location"):].strip()
            if not v:
                raise RuleParseError("offload needs a predicate name")
            rule.offload = v
        elif name == "dynamic_load":
            # ruleset path, $VAR substituted (rules.c:1755-1778)
            p = val.strip()
            for vn, vv in (variables or {}).items():
                p = p.replace(f"${vn}", vv)
            rule.dynamic_ruleset = p

        # ---- extraction ----------------------------------------------
        elif name == "normalize":
            # liblognorm analog (rules.c:2764-2766; the old "normalize:
            # type" form is deprecated there too)
            rule.normalize = True
        elif name == "parse_src_ip":
            rule.parse_src_ip = int(val)
        elif name == "parse_dst_ip":
            rule.parse_dst_ip = int(val)
        elif name == "parse_port":
            rule.parse_port = True
        elif name == "parse_proto":
            rule.parse_proto = True
        elif name == "parse_proto_program":
            rule.parse_proto_program = True
        elif name == "parse_hash":
            rule.parse_hash = val.strip().lower()
        elif name == "default_proto":
            rule.default_proto = val.strip().lower()
        elif name == "default_src_port":
            rule.default_src_port = int(val)
        elif name == "default_dst_port":
            rule.default_dst_port = int(val)

        # ---- enrichment gates ----------------------------------------
        elif name == "country_code":
            # "track by_src, isnot US,CA" (rules.c:1784-1869)
            mm = re.match(r"track\s+(by_src|by_dst)\s*,\s*(is|isnot)\s+(.+)$", val)
            if not mm:
                raise RuleParseError(f"bad country_code: {val!r}")
            rule.geoip_track = mm.group(1)
            rule.geoip_isnot = mm.group(2) == "isnot"
            rule.geoip_codes = [c.strip().upper() for c in mm.group(3).split(",") if c.strip()]
        elif name == "blacklist":
            rule.blacklist = val.strip().lower()
        elif name == "zeekintel" or name == "bro_intel":
            rule.zeekintel = [v.strip().lower() for v in val.split(",") if v.strip()]
        elif name == "bluedot":
            # "type ip_reputation, track by_src, none, MAL,TOR" or
            # "type file_hash, MAL" (rules.c:3742-3993). The effective-
            # period token is accepted and ignored (offline snapshot).
            parts = [p.strip() for p in val.split(",")]
            mm = re.match(r"type\s+(\w+)$", parts[0])
            if not mm:
                raise RuleParseError(f"bluedot needs 'type <kind>': {val!r}")
            kind = mm.group(1).lower()
            if kind not in ("ip_reputation", "file_hash", "url",
                            "filename", "ja3"):
                raise RuleParseError(f"bad bluedot type {kind!r}")
            idx = 1
            if kind == "ip_reputation":
                tm = re.match(r"track\s+(by_src|by_dst|both|all)$",
                              parts[idx] if idx < len(parts) else "")
                if not tm:
                    raise RuleParseError(
                        f"bluedot ip_reputation needs 'track by_src|by_dst|"
                        f"both|all': {val!r}")
                rule.bluedot_track = tm.group(1)
                idx += 1
                if idx < len(parts) and (
                        parts[idx].lower() == "none"
                        or "effective_period" in parts[idx].lower()):
                    idx += 1
            rule.bluedot_kind = kind
            rule.bluedot_cats = [c.strip().upper()
                                 for c in parts[idx:] if c.strip()]
            if not rule.bluedot_cats:
                raise RuleParseError(f"bluedot needs categories: {val!r}")

        elif name == "alert_time":
            # "days 0123456, hours 0800-1800" (rules.c:3146-3254)
            for piece in val.split(","):
                piece = piece.strip()
                if piece.startswith("days"):
                    rule.alert_days = {int(c) for c in piece.split(None, 1)[1].strip()}
                elif piece.startswith("hours"):
                    h = piece.split(None, 1)[1].strip()
                    a, b = h.split("-")
                    rule.alert_hours = (int(a), int(b))

        # ---- stateful ------------------------------------------------
        elif name == "xbits":
            rule.xbits.append(_parse_xbit(val))
        elif name == "flexbits":
            rule.flexbits.append(_parse_flexbit(val))
        elif name == "flexbit_noalert":
            rule.flexbit_noalert = True
        elif name == "after":
            rule.after = _parse_after(val)
        elif name == "threshold":
            rule.threshold = _parse_threshold(val)

        elif name == "email":
            rule.email = _unquote(val)
        elif name == "external":
            rule.external = _unquote(val)
        elif name in ("xbits_pause", "xbits_upause", "flexbits_pause",
                      "flexbits_upause", "event_type"):
            # accepted but inert: timing pauses are sleep-based hacks,
            # meaningless in deterministic batch execution (SURVEY.md
            # §2.3 #25); event_type is an EVE annotation only.
            pass
        else:
            raise RuleParseError(f"unknown rule option {name!r}")

    return rule


def _parse_pcre(body: str) -> tuple[str, int]:
    """``/re/flags`` → (pattern, python re flags)."""
    if not body.startswith("/"):
        raise RuleParseError(f"bad pcre {body!r}")
    end = body.rfind("/")
    if end <= 0:
        raise RuleParseError(f"bad pcre {body!r}")
    pat = body[1:end]
    flags = 0
    for ch in body[end + 1 :]:
        flags |= _PCRE_FLAG_MAP.get(ch, 0)
    return pat, flags


def _parse_xbit(val: str) -> XbitSpec:
    """``set,name,track ip_pair[,expire 300]`` / ``isset,name,track ip_src``
    (reference parse rules.c:1173-1381, track rules.c:1305-1324)."""
    parts = [p.strip() for p in val.split(",")]
    op = parts[0].lower()
    if op not in ("set", "unset", "isset", "isnotset"):
        raise RuleParseError(f"bad xbit op {op!r}")
    name = parts[1]
    track = "ip_pair"
    expire = 300
    for p in parts[2:]:
        if p.startswith("track"):
            track = p.split(None, 1)[1].strip()
        elif p.startswith("expire"):
            expire = int(p.split(None, 1)[1])
    if track not in ("ip_src", "ip_dst", "ip_pair"):
        raise RuleParseError(f"bad xbit track {track!r}")
    return XbitSpec(op=op, name=name, track=track, expire=expire)


def _parse_flexbit(val: str) -> FlexbitSpec:
    """``set,name,expire`` / ``unset|isset|isnotset,direction,name`` /
    ``count,direction,>N,name`` (reference rules.c:1382-1754,
    direction table src/flexbit.c:63-140)."""
    parts = [p.strip() for p in val.split(",")]
    op = parts[0].lower()
    if op == "set":
        name = parts[1]
        expire = int(parts[2]) if len(parts) > 2 else 300
        return FlexbitSpec(op="set", name=name, expire=expire)
    if op == "unset":
        return FlexbitSpec(op="unset", direction=parts[1].lower(), name=parts[2])
    if op in ("isset", "isnotset"):
        return FlexbitSpec(op=op, direction=parts[1].lower(), name=parts[2])
    if op == "count":
        mm = re.match(r"([<>])\s*(\d+)$", parts[2])
        if not mm:
            raise RuleParseError(f"bad flexbit count {parts[2]!r}")
        return FlexbitSpec(op="count", direction=parts[1].lower(), name=parts[3],
                           count_op=mm.group(1), count_val=int(mm.group(2)))
    raise RuleParseError(f"bad flexbit op {op!r}")


_TRACK_FLAGS = {
    "by_src": "by_src",
    "by_dst": "by_dst",
    "by_username": "by_username",
    "by_srcport": "by_srcport",
    "by_dstport": "by_dstport",
}


def _parse_track(spec: str) -> dict[str, bool]:
    flags = {}
    for piece in spec.split("&"):
        piece = piece.strip()
        if piece not in _TRACK_FLAGS:
            raise RuleParseError(f"bad track field {piece!r}")
        flags[piece] = True
    return flags


def _parse_after(val: str) -> AfterSpec:
    """``track by_src&by_username, count 5, seconds 300``
    (rules.c:3382-3514)."""
    track: dict[str, bool] = {}
    count = seconds = None
    for piece in val.split(","):
        piece = piece.strip()
        if piece.startswith("track"):
            track = _parse_track(piece.split(None, 1)[1])
        elif piece.startswith("count"):
            count = int(piece.split(None, 1)[1])
        elif piece.startswith("seconds"):
            seconds = int(piece.split(None, 1)[1])
    if count is None or seconds is None:
        raise RuleParseError(f"after missing count/seconds: {val!r}")
    return AfterSpec(count=count, seconds=seconds, **track)


def _parse_threshold(val: str) -> ThresholdSpec:
    """``type limit, track by_src, count 10, seconds 60``
    (rules.c:3255-3381)."""
    ttype = None
    track: dict[str, bool] = {}
    count = seconds = None
    for piece in val.split(","):
        piece = piece.strip()
        if piece.startswith("type"):
            ttype = piece.split(None, 1)[1].strip().lower()
        elif piece.startswith("track"):
            track = _parse_track(piece.split(None, 1)[1])
        elif piece.startswith("count"):
            count = int(piece.split(None, 1)[1])
        elif piece.startswith("seconds"):
            seconds = int(piece.split(None, 1)[1])
    if ttype not in ("limit", "suppress"):
        raise RuleParseError(f"bad threshold type {ttype!r}")
    if count is None or seconds is None:
        raise RuleParseError(f"threshold missing count/seconds: {val!r}")
    return ThresholdSpec(ttype=ttype, count=count, seconds=seconds, **track)
