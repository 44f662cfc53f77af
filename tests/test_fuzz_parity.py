"""Seeded randomized parity fuzz: generate random rulesets over random
transcript tables and require oracle ≡ Ray on every one. Catches
interaction bugs the hand-written fixtures miss (random window bounds,
random stateful parameters, random orderings). Fully deterministic —
failures reproduce by seed."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from sagan_ray.rules import parse_rules
from sagan_ray.synth import gen_transcripts

from .helpers import run_both

WORDS = ["login", "failed", "success", "ERROR", "timeout", "beacon",
         "connection", "malware", "user", "alice", "heartbeat", "résumé"]
# nocase hazards: U+212A KELVIN SIGN lowercases to "k"; RE2 folds "s" to
# U+017F LONG S and str.lower does not; U+0130 lowercases to "i" + U+0307;
# ß folds to no ASCII letter; short and non-ASCII words skip the
# multi-pattern literal pass
FOLD_WORDS = WORDS + ["kelvin", "KELVIN", "secret", "istanbul", "stanbul",
                      "strasse", "STRAßE", "RÉSUMÉ", "ss", "ß", "on"]
FOLD_PHRASES = ["\u212aELVIN sign", "\u017fecret login", "\u0130stanbul timeout",
                "\u0131stanbul", "stra\u00dfe STRASSE", "R\u00c9SUM\u00c9 malware",
                "KELVIN \u212a", "SECRET \u017f\u017f", "\u1e9e beacon"]


def _rand_rule(rng: np.random.Generator, sid: int, words=WORDS,
               nocase_rng: np.random.Generator | None = None,
               pcre: bool = True) -> str:
    opts = []
    action = rng.choice(["alert"] * 6 + ["drop", "pass"])
    # 1-3 content atoms with random windows
    for _ in range(int(rng.integers(1, 4))):
        w = words[int(rng.integers(0, len(words)))]
        neg = "!" if rng.integers(0, 5) == 0 else ""
        opts.append(f'content:{neg}"{w}"')
        if nocase_rng is not None and nocase_rng.integers(0, 2) == 0:
            opts.append("nocase")
        if rng.integers(0, 3) == 0:
            opts.append(f"offset:{int(rng.integers(0, 30))}")
        if rng.integers(0, 3) == 0:
            opts.append(f"depth:{int(rng.integers(1, 40))}")
        if rng.integers(0, 4) == 0:
            opts.append(f"distance:{int(rng.integers(1, 10))}")
            if rng.integers(0, 2) == 0:
                opts.append(f"within:{int(rng.integers(1, 30))}")
    if rng.integers(0, 3) == 0:
        w1, w2 = rng.choice(words, 2, replace=False)
        opts.append(f'meta_content:"%sagan%",{w1},{w2}')
        if rng.integers(0, 2) == 0:
            opts.append("meta_nocase")
        if rng.integers(0, 3) == 0:
            opts.append(f"meta_offset:{int(rng.integers(0, 25))}")
        if rng.integers(0, 3) == 0:
            opts.append(f"meta_depth:{int(rng.integers(1, 40))}")
        if rng.integers(0, 4) == 0:
            opts.append(f"meta_distance:{int(rng.integers(1, 10))}")
            if rng.integers(0, 2) == 0:
                opts.append(f"meta_within:{int(rng.integers(1, 30))}")
    if pcre and rng.integers(0, 3) == 0:
        w = words[int(rng.integers(0, len(words)))]
        opts.append(f'pcre:"/{w} \\w+/"')
    if rng.integers(0, 4) == 0:
        opts.append(f'program:"{rng.choice(["user", "assistant", "sys*", "to?l"])}"')
    if rng.integers(0, 6) == 0:
        opts.append("append_program")
    if rng.integers(0, 5) == 0:
        sev = rng.choice(["low", "critical", "HIGH"])
        kind = rng.integers(0, 3)
        if kind == 0:
            opts.append(f'json_content:".severity","{sev}"')
            if rng.integers(0, 2) == 0:
                opts.append("json_nocase")
        elif kind == 1:
            opts.append('json_pcre:".event","/^(sort|merge)/"')
        else:
            opts.append('json_meta_content:".severity",low,high')
    if rng.integers(0, 6) == 0:
        opts.append('json_map:"username",".username"')
    if rng.integers(0, 8) == 0:
        opts.append('json_map:"message",".event"')
    if rng.integers(0, 10) == 0:
        opts.append('json_map:"program",".severity"')
    if rng.integers(0, 6) == 0:
        opts.append("normalize")
    if rng.integers(0, 10) == 0:
        kind = rng.choice(["ip_reputation", "file_hash", "filename"])
        cats = rng.choice(["MALICIOUS", "MALICIOUS,TOR", "RANSOMWARE"])
        if kind == "ip_reputation":
            tr = rng.choice(["by_src", "all"])
            opts.append("parse_src_ip:1")
            opts.append(f"bluedot: type ip_reputation, track {tr}, none, {cats}")
        else:
            opts.append(f"bluedot: type {kind}, {cats}")
    if rng.integers(0, 6) == 0:
        days = "".join(sorted(set(str(d) for d in rng.integers(0, 7, size=4))))
        a, b = int(rng.integers(0, 2400)), int(rng.integers(0, 2400))
        opts.append(f"alert_time: days {days}, hours {a:04d}-{b:04d}")
    if rng.integers(0, 6) == 0:
        opts.append("parse_src_ip:1")
        g = rng.integers(0, 3)
        if g == 0:
            opts.append(f'country_code: track by_src, '
                        f'{rng.choice(["is", "isnot"])} RU,US')
        elif g == 1:
            opts.append(f'blacklist: {rng.choice(["by_src", "all"])}')
    # stateful options
    kind = rng.integers(0, 8)
    if kind == 0:
        opts.append(f"after: track by_src, count {int(rng.integers(1, 4))}, "
                    f"seconds {int(rng.integers(30, 900))}")
    elif kind == 1:
        t = rng.choice(["limit", "suppress"])
        opts.append(f"threshold: type {t}, track by_src, "
                    f"count {int(rng.integers(1, 4))}, seconds {int(rng.integers(30, 900))}")
    elif kind == 2:
        op = rng.choice(["set", "isset", "isnotset", "unset"])
        name = rng.choice(["b1", "b2"])
        track = rng.choice(["ip_src", "ip_pair"])
        opts.append(f"xbits: {op},{name},track {track},expire {int(rng.integers(60, 600))}")
    elif kind == 3:
        op = rng.choice(["set", "isset", "isnotset"])
        if op == "set":
            opts.append(f"flexbits: set,f1,{int(rng.integers(60, 600))}")
        else:
            opts.append(f"flexbits: {op},none,f1")
    # header flow gates (proto / port-eq) — with NO parse_* options some
    # of the time, so the bare-flow-gate residual path is exercised
    # (regression: slow_gates once omitted proto/port-eq)
    proto = "any"
    sport = dport = "any"
    if rng.integers(0, 3) == 0:
        proto = str(rng.choice(["tcp", "udp", "icmp"]))
        if rng.integers(0, 2) == 0:
            opts.append("parse_proto")
        if rng.integers(0, 3) == 0:
            opts.append(f"default_proto:{rng.choice(['tcp', 'udp'])}")
    if rng.integers(0, 5) == 0:
        dport = str(int(rng.integers(1, 100)))
        if rng.integers(0, 2) == 0:
            opts.append(f"default_dst_port:{dport}")
    opts.append(f"msg:\"fuzz {sid}\"")
    opts.append(f"sid:{sid}")
    return f"{action} {proto} any {sport} -> any {dport} ({'; '.join(opts)};)"


@pytest.mark.parametrize("seed", [101, 202, 303, 404, 505,
                                  606, 707, 808, 909, 1111,
                                  1212, 1313, 1414, 1515, 1616])
def test_fuzz_ruleset_parity(seed):
    rng = np.random.default_rng(seed)
    text = "\n".join(_rand_rule(rng, 5000 + i) for i in range(int(rng.integers(4, 10))))
    ruleset = parse_rules(text)
    tbl = gen_transcripts(int(rng.integers(800, 2500)), seed=seed)
    run_both(ruleset, tbl, expect_hits=False)


def _with_fold_phrases(tbl: pa.Table, rng: np.random.Generator) -> pa.Table:
    """Put a case-fold hazard phrase before or after about a third of the
    texts."""
    texts = tbl.column("text").to_pylist()
    for i in np.flatnonzero(rng.integers(0, 3, size=len(texts)) == 0):
        ph = FOLD_PHRASES[int(rng.integers(0, len(FOLD_PHRASES)))]
        texts[i] = f"{ph} {texts[i]}" if rng.integers(0, 2) else f"{texts[i]} {ph}"
    i = tbl.schema.get_field_index("text")
    return tbl.set_column(i, "text", pa.array(texts, pa.large_string()))


@pytest.mark.parametrize("seed", [2101, 2202, 2303, 2404, 2505, 2606])
def test_fuzz_nocase_parity(seed):
    """Content atoms with ``nocase`` over case-fold hazard words and
    texts: the multi-pattern literal pass, the per-literal kernel and
    meta_nocase must all decide as ``match_stateless`` does. No pcre
    atoms here: RE2's ``\\w`` is ASCII-only and Python's is not, a
    separate known divergence that these texts would reach."""
    rng = np.random.default_rng(seed)
    nocase_rng = np.random.default_rng(seed + 1)
    text = "\n".join(_rand_rule(rng, 5000 + i, FOLD_WORDS, nocase_rng,
                                pcre=False)
                     for i in range(int(rng.integers(4, 10))))
    ruleset = parse_rules(text)
    tbl = _with_fold_phrases(gen_transcripts(int(rng.integers(800, 2500)),
                                             seed=seed), rng)
    run_both(ruleset, tbl, expect_hits=False)


# IP hazards spliced into texts: the blacklist/intel addresses bare, with
# every port style and glued to their neighbours, leading-zero and >255
# octets, v6 in brackets and v4-mapped, non-ASCII digits, port words
# after \x1c, and the bad hashes (one upper-case)
IP_HAZARDS = ["10.13.7.7", "10.66.1.2:8080", "203.0.113.99#53",
              "10.7.7.7 port 22", "10.7.7.7\x1cport 23", "[2001:db8::5]:443",
              "::ffff:10.13.0.9", "010.13.7.7", "10.13.7.7.1", "a:10.66.1.2",
              "10.66.1.2:99999", "10.300.1.1", "١٠.١٣.٧.٧", "10.13.7.7:",
              "x 10.5.5.5 y 10.66.9.9 z 10.13.1.1",
              hashlib.md5(b"bad0").hexdigest(),
              hashlib.sha256(b"bad1").hexdigest().upper()]
_NETS = ["any", "$HOME_NET", "[10.0.0.0/8,!10.13.0.0/16]", "!10.66.0.0/16",
         "[!10.0.0.0/8]", "[10.13.0.0/16,10.66.0.0/16]"]


def _rand_ip_rule(rng: np.random.Generator, sid: int) -> str:
    """A rule whose slow gates are the IP and hash ones: net groups in the
    header, parse_src_ip/parse_dst_ip/parse_port, geoip, blacklist and the
    zeekintel IP, hash and domain kinds, sometimes stateful on the IPs."""
    opts = []
    if rng.integers(0, 2) == 0:
        w = ["connection", "from", "beacon", "login", "authentication",
             "malware", "to"][int(rng.integers(0, 7))]
        opts.append(f'content:"{w}"')
    if rng.integers(0, 3):
        opts.append(f"parse_src_ip:{int(rng.integers(1, 3))}")
    if rng.integers(0, 2) == 0:
        opts.append(f"parse_dst_ip:{int(rng.integers(1, 4))}")
    if rng.integers(0, 2) == 0:
        opts.append("parse_port")
    if rng.integers(0, 4) == 0:
        opts.append(f"default_src_port:{int(rng.integers(1, 100))}")
    gate = int(rng.integers(0, 4))
    if gate == 0:
        opts.append(f"blacklist: {rng.choice(['by_src', 'by_dst', 'both', 'all'])}")
    elif gate == 1:
        kinds = rng.choice(["src_ipaddr", "dst_ipaddr", "both", "all",
                            "file_hash", "domain", "all,file_hash"])
        opts.append(f"zeekintel: {kinds}")
    elif gate == 2:
        opts.append(f"country_code: track {rng.choice(['by_src', 'by_dst'])}, "
                    f"{rng.choice(['is', 'isnot'])} RU,US")
    if rng.integers(0, 4) == 0:
        opts.append(f"xbits: set,ipx,track {rng.choice(['ip_src', 'ip_pair'])},"
                    f"expire 300")
    elif rng.integers(0, 4) == 0:
        opts.append("after: track by_src&by_dst&by_srcport, count 1, seconds 600")
    action = rng.choice(["alert"] * 6 + ["drop", "pass"])
    src = _NETS[int(rng.integers(0, len(_NETS)))]
    dst = _NETS[int(rng.integers(0, len(_NETS)))] if rng.integers(0, 3) == 0 else "any"
    opts += [f'msg:"ip fuzz {sid}"', f"sid:{sid}"]
    return f"{action} any {src} any -> {dst} any ({'; '.join(opts)};)"


def _with_ip_hazards(tbl: pa.Table, rng: np.random.Generator) -> pa.Table:
    """Splice an IP hazard into about half of the texts, at a word
    boundary or at any character."""
    texts = tbl.column("text").to_pylist()
    for i in np.flatnonzero(rng.integers(0, 2, size=len(texts)) == 0):
        hz = IP_HAZARDS[int(rng.integers(0, len(IP_HAZARDS)))]
        t = texts[i]
        at = int(rng.integers(0, len(t) + 1))
        if rng.integers(0, 2):
            texts[i] = f"{t[:at]}{hz}{t[at:]}"
        else:
            texts[i] = f"{t} {hz}" if rng.integers(0, 2) else f"{hz} {t}"
    i = tbl.schema.get_field_index("text")
    return tbl.set_column(i, "text", pa.array(texts, pa.large_string()))


@pytest.mark.parametrize("seed", [3101, 3202, 3303, 3404, 3505, 3606])
def test_fuzz_ip_parity(seed):
    """Rules gated on IPs and hashes, which the classifier decides from
    its IP and hash columns on regular rows and through ``match_stateless``
    on the rest, over texts with IP hazards: oracle ≡ Ray."""
    rng = np.random.default_rng(seed)
    text = "var HOME_NET [10.0.0.0/8]\n" + "\n".join(
        _rand_ip_rule(rng, 6000 + i) for i in range(int(rng.integers(4, 10))))
    ruleset = parse_rules(text)
    tbl = _with_ip_hazards(gen_transcripts(int(rng.integers(800, 2500)),
                                           seed=seed), rng)
    run_both(ruleset, tbl)
