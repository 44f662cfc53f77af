"""Unit tests: rule parser details and the shared extractor functions."""

import ipaddress

import numpy as np
import pytest

from sagan_ray.functions.ip import (
    CidrTable,
    extract_ips,
    net_group_contains,
    net_group_contains_v4,
)
from sagan_ray.functions.textutil import (
    JSON_MAX_DEPTH,
    extract_event_id,
    extract_hashes,
    flatten_json,
    prematch_regex,
    try_parse_json_text,
)
from sagan_ray.rules import parse_rules
from sagan_ray.rules.parser import RuleParseError


def test_parse_header_and_meta():
    rs = parse_rules('alert tcp [10.0.0.0/8,!10.13.0.0/16] 22 -> any any '
                     '(msg:"m"; content:"x"; sid:5; rev:3; classtype:"ct"; priority:2;)')
    r = rs.rules[0]
    assert r.action == "alert" and r.proto == "tcp"
    assert r.src_port_eq == 22 and r.dst_port_eq is None
    assert len(r.src_nets) == 2 and r.src_nets[1][2] is True
    assert (r.sid, r.rev, r.classtype, r.priority) == (5, 3, "ct", 2)


def test_parse_content_modifiers_bind_to_last():
    rs = parse_rules('alert any any any -> any any (content:"a"; nocase; '
                     'content:!"b"; offset:5; depth:10; content:"c"; distance:2; within:7; sid:1;)')
    a, b, c = rs.rules[0].contents
    assert a.nocase and not b.nocase
    assert b.negated and b.offset == 5 and b.depth == 10
    assert c.distance == 2 and c.within == 7
    # window math (content.c quirks): depth keeps D+1, within keeps W
    assert a.window(0) == (0, None)
    assert b.window(0) == (5, 16)
    assert c.window(10) == (13, 20)


def test_parse_hex_escapes():
    rs = parse_rules('alert any any any -> any any (content:"a|3a 20|b"; sid:1;)')
    assert rs.rules[0].contents[0].pattern == "a: b"


def test_parse_semicolon_inside_quotes():
    rs = parse_rules(r'alert any any any -> any any (msg:"a\;b"; content:"x;y"; sid:1;)')
    assert rs.rules[0].msg == "a;b"
    assert rs.rules[0].contents[0].pattern == "x;y"


def test_parse_missing_sid_raises():
    with pytest.raises(RuleParseError):
        parse_rules('alert any any any -> any any (msg:"m"; content:"x";)')


def test_parse_unknown_option_raises():
    with pytest.raises(RuleParseError):
        parse_rules('alert any any any -> any any (bogus_option:"x"; sid:1;)')


def test_parse_stateful_specs():
    rs = parse_rules(
        'alert any any any -> any any (xbits: set,n1,track ip_pair,expire 42; '
        'flexbits: count,by_src,>3,fb; '
        'after: track by_src&by_username, count 5, seconds 300; '
        'threshold: type suppress, track by_dst, count 9, seconds 60; sid:1;)')
    r = rs.rules[0]
    assert r.xbits[0].expire == 42 and r.xbits[0].track == "ip_pair"
    assert r.flexbits[0].count_op == ">" and r.flexbits[0].count_val == 3
    assert r.after.by_username and r.after.count == 5
    assert r.threshold.ttype == "suppress" and r.threshold.by_dst
    assert r.is_stateful


def test_extract_ips_positional_and_ports():
    ips = extract_ips("from 1.2.3.4:22 to 5.6.7.8#443 then [fe80::1]:80 and 9.9.9.9 port 53")
    assert ips == [("1.2.3.4", 22), ("5.6.7.8", 443), ("fe80::1", 80), ("9.9.9.9", 53)]


def test_extract_ips_rejects_invalid():
    assert extract_ips("999.1.2.3 and 1.2.3 and ::") == []
    assert extract_ips("ver 1.2.3.4.5 ok") == []       # part of longer dotted run


def test_extract_hashes():
    md5 = "d" * 32
    sha256 = "e" * 64
    h = extract_hashes(f"x {md5} y {sha256} z")
    assert h["md5"] == md5 and h["sha256"] == sha256 and h["sha1"] == ""


def test_hash_not_inside_longer_hex():
    h = extract_hashes("a" * 64)
    assert h["md5"] == "" and h["sha1"] == "" and h["sha256"] == "a" * 64


def test_event_id_head_window():
    assert extract_event_id("4625: login failed") == "4625"
    assert extract_event_id("prefix 4625: x") == "4625"
    assert extract_event_id("aaaaaaaaaaaaaaa 4625: too far") == ""


def test_json_flatten_nested():
    j = try_parse_json_text('{"a": {"b": 1, "c": true}, "d": "x", "e": [1,2]}')
    assert j == {".a.b": "1", ".a.c": "true", ".d": "x", ".e": "[1,2]"}
    assert try_parse_json_text("not json") is None
    assert try_parse_json_text("[1,2]") is None


def _at_depth(frames: int, fn, *args):
    """``fn(*args)``, called ``frames`` stack frames deeper."""
    return fn(*args) if frames == 0 else _at_depth(frames - 1, fn, *args)


def test_json_nesting_is_decided_by_the_text_not_the_stack():
    """A Ray worker parses from a far deeper stack than the oracle: a
    message nested too deep is non-JSON from any depth, one at the cap
    parses from any depth, and brackets inside strings do not nest."""
    def deep(k):
        return '{"a":' * k + "1" + "}" * k

    quoted = '{"s": "' + "{" * 900 + '", "t": "\\\"[["}'
    texts = [deep(700), deep(985), deep(JSON_MAX_DEPTH),
             deep(JSON_MAX_DEPTH + 1),
             '{"a": ' + "[" * 600 + "]" * 600 + "}", quoted]
    for text in texts:
        assert (_at_depth(0, try_parse_json_text, text)
                == _at_depth(300, try_parse_json_text, text))
    assert try_parse_json_text(deep(985)) is None
    assert try_parse_json_text(deep(JSON_MAX_DEPTH + 1)) is None
    assert try_parse_json_text(deep(JSON_MAX_DEPTH)) == {
        ".a" * JSON_MAX_DEPTH: "1"}
    assert try_parse_json_text(quoted) == {".s": "{" * 900, ".t": '"[['}


def test_flatten_max_objects():
    big = {str(i): i for i in range(400)}
    assert len(flatten_json(big)) == 256


def test_cidr_table():
    t = CidrTable([("10.0.0.0/16", "US"), ("10.1.0.0/16", "DE"), ("2001:db8::/48", "JP")])
    assert t.lookup("10.0.5.5") == "US"
    assert t.lookup("10.1.255.255") == "DE"
    assert t.lookup("10.2.0.1") is None
    assert t.lookup("2001:db8::42") == "JP"
    assert "10.0.0.1" in t and "11.0.0.1" not in t


def test_cidr_find_v4_on_v6_ranges_over_the_v4_window():
    """``find_v4`` answers as ``lookup`` for v4 addresses when v6 ranges
    cover the v4-mapped window (all of it, part of it, or ranges that end
    below or start above it), and on a table whose ranges overlap."""
    addrs = ["0.0.0.0", "0.0.0.1", "10.0.0.1", "10.255.255.255", "11.0.0.0",
             "203.0.113.99", "255.255.255.255"]
    v4 = np.array([int(ipaddress.ip_address(a)) for a in addrs] + [-1])
    tables = [
        [("::/0", "ALL")],
        [("::ffff:0:0/96", "V4"), ("2001:db8::/48", "JP")],
        [("::ffff:a00:0/104", "TEN"), ("fe80::/64", "LL")],   # = 10.0.0.0/8
        [("::/8", "LOW"), ("2001:db8::/48", "JP")],           # ends below
        [("::/80", "LOW"), ("10.0.0.0/8", "TEN"), ("::1:0:0:0/80", "HIGH")],
        [("::/0", "ALL"), ("::1/128", "ONE")],                # overlapping
        [("::/0", "ALL"), ("10.0.0.0/8", "TEN")],
        [],
    ]
    for entries in tables:
        t = CidrTable(entries)
        got = [t.values[j] if j >= 0 else None for j in t.find_v4(v4)]
        assert got == [t.lookup(a) for a in addrs] + [None], entries
        grid = t.find_v4(np.stack([v4, v4]))
        assert grid.shape == (2, len(v4)) and (grid[0] == grid[1]).all()


def _longest_prefix(entries, addr):
    """Reference lookup: the value of the most specific range holding
    ``addr`` (v4 ranges as their v4-mapped v6 form); the later entry of
    two equal ranges."""
    a = ipaddress.ip_address(addr)
    if a.version == 4:
        a = ipaddress.IPv6Address(f"::ffff:{addr}")
    best, best_len = None, -1
    for cidr, value in entries:
        n = ipaddress.ip_network(cidr, strict=False)
        if n.version == 4:
            n = ipaddress.ip_network(
                f"::ffff:{n.network_address}/{96 + n.prefixlen}")
        if a in n and n.prefixlen >= best_len:
            best, best_len = value, n.prefixlen
    return best


def test_cidr_nested_ranges_take_the_longest_prefix():
    """Nested ranges (v4, v6, and v6 ranges over the v4-mapped window):
    ``lookup`` and ``find_v4`` both give the most specific range's value,
    also for addresses of an outer range that lie after an inner one."""
    fixed = [
        [("10.0.0.0/8", "1"), ("10.1.0.0/16", "1")],
        [("10.0.0.0/8", "US"), ("10.1.0.0/16", "CA")],
        [("::/0", "ALL"), ("::1/128", "ONE")],
        [("::/0", "ALL"), ("10.0.0.0/8", "TEN"), ("10.0.0.0/24", "T24"),
         ("10.0.0.128/25", "T25"), ("10.200.0.0/16", "T16")],
        [("2001:db8::/32", "A"), ("2001:db8:1::/48", "B"),
         ("2001:db8:1::/64", "C"), ("10.0.0.0/8", "X"), ("10.0.0.0/8", "Y")],
    ]
    rng = np.random.RandomState(7)
    drawn = []
    for _ in range(40):
        entries = []
        for _ in range(rng.randint(1, 9)):
            if rng.rand() < 0.7:
                # within 10.0.0.0/8, few distinct bases: ranges nest
                base = (0x0A000000 | int(rng.randint(0, 4)) << 16
                        | int(rng.randint(0, 4)) << 8)
                n = ipaddress.ip_network(
                    (ipaddress.IPv4Address(base), int(rng.randint(8, 33))),
                    strict=False)
            else:
                n = ipaddress.ip_network(
                    (ipaddress.IPv6Address("::ffff:a00:0"),
                     int(rng.choice([0, 8, 96, 100, 104]))), strict=False)
            entries.append((str(n), str(rng.randint(0, 4))))
        drawn.append(entries)
    for entries in fixed + drawn:
        v4_addrs = ["0.0.0.0", "1.2.3.4", "9.255.255.255", "255.255.255.255"]
        v6_addrs = ["::", "::1", "::2", "2001:db8::5", "2001:db8:1::9",
                    "2001:db8:1:1::9", "2001:db9::"]
        for cidr, _ in entries:
            n = ipaddress.ip_network(cidr, strict=False)
            for v in (int(n.network_address) - 1, int(n.network_address),
                      int(n.broadcast_address),
                      int(n.broadcast_address) + 1):
                if n.version == 4 and 0 <= v <= 0xFFFFFFFF:
                    v4_addrs.append(str(ipaddress.IPv4Address(v)))
                elif n.version == 6 and 0 <= v < 1 << 128:
                    v6_addrs.append(str(ipaddress.IPv6Address(v)))
        v4_addrs += [str(ipaddress.IPv4Address(0x0A000000 | int(x)))
                     for x in rng.randint(0, 1 << 24, 20)]
        t = CidrTable(entries)
        want = [_longest_prefix(entries, a) for a in v4_addrs + v6_addrs]
        assert [t.lookup(a) for a in v4_addrs + v6_addrs] == want, entries
        v4 = np.array([int(ipaddress.ip_address(a)) for a in v4_addrs])
        got = [t.values[j] if j >= 0 else None for j in t.find_v4(v4)]
        assert got == want[:len(v4_addrs)], entries


def test_net_group_negation():
    from sagan_ray.rules.parser import _parse_net_group
    g = _parse_net_group("[10.0.0.0/8,!10.13.0.0/16]", {})
    assert net_group_contains(g, "10.5.0.1")
    assert not net_group_contains(g, "10.13.0.1")
    only_neg = _parse_net_group("[!10.0.0.0/8]", {})
    assert net_group_contains(only_neg, "11.0.0.1")
    assert not net_group_contains(only_neg, "10.0.0.1")
    addrs = ["10.5.0.1", "10.13.0.1", "11.0.0.1", "0.0.0.0", "255.255.255.255"]
    v4 = np.array([int(ipaddress.ip_address(a)) for a in addrs])
    for spec in ("[10.0.0.0/8,!10.13.0.0/16]", "[!10.0.0.0/8]", "!10.13.0.0/16",
                 "[::/0,!10.13.0.0/16]", "[]"):
        grp = _parse_net_group(spec, {})
        assert net_group_contains_v4(grp, v4).tolist() == [
            net_group_contains(grp, a) for a in addrs], spec


def test_prematch_wildcards():
    rx = prematch_regex("ass*|use?")
    assert rx.match("assistant") and rx.match("user")
    assert not rx.match("tool") and not rx.match("users")


def test_classification_config_assigns_priority():
    """classification.config (classifications.c:50-140): classtype looks
    up the rule priority; explicit priority after classtype overrides;
    unknown classtype aborts when a table is loaded."""
    import os

    import pytest

    from sagan_ray.rules import parse_rules
    from sagan_ray.rules.parser import RuleParseError, load_classifications

    cls = load_classifications(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "rulesets", "classification.config"))
    assert cls["suspicious-login"] == 2

    rs = parse_rules("""
alert any any any -> any any (msg:"a"; content:"x"; classtype:suspicious-login; sid:1;)
alert any any any -> any any (msg:"b"; content:"x"; classtype:not-suspicious; priority:9; sid:2;)
alert any any any -> any any (msg:"c"; content:"x"; sid:3;)
""", classifications=cls)
    assert rs.rules[0].priority == 2
    assert rs.rules[1].priority == 9      # explicit override after classtype
    assert rs.rules[2].priority == 0

    with pytest.raises(RuleParseError):
        parse_rules('alert any any any -> any any (msg:"d"; '
                    'classtype:nope; sid:4;)', classifications=cls)
    # without a table: annotation-only, no abort
    rs2 = parse_rules('alert any any any -> any any (msg:"d"; '
                      'content:"x"; classtype:nope; sid:4;)')
    assert rs2.rules[0].classtype == "nope"


def test_parser_fifth_review_regressions():
    """Regressions from the full-parser review: meta $VAR comma lists,
    circular vars, backslash preservation, comments inside wrapped rules,
    malformed var lines, exact facility/tag matching."""
    import pytest

    from sagan_ray.rules import parse_rules
    from sagan_ray.rules.parser import RuleParseError

    # $VAR expanding to a comma list → one OR pattern per element
    rs = parse_rules('var USERS alice,bob\n'
                     'alert any any any -> any any (msg:"m"; '
                     'meta_content:"user %sagan%",$USERS; sid:1;)')
    assert rs.rules[0].meta_contents[0].patterns == ["user alice", "user bob"]

    # circular $VAR raises instead of hanging
    with pytest.raises(RuleParseError):
        parse_rules('var A $B\nvar B $A\n'
                    'alert any $A any -> any any (content:"x"; sid:2;)')

    # pcre literal backslash survives parsing: /a\\d/ = backslash + 'd'
    rs = parse_rules(r'alert any any any -> any any (pcre:"/a\\d/"; sid:3;)')
    assert rs.rules[0].pcres[0].pattern == r"a\\d"
    assert rs.rules[0].pcres[0].compiled().search("xa\\dy")
    assert not rs.rules[0].pcres[0].compiled().search("a7")

    # a comment line inside a \-wrapped rule is skipped, not glued
    rs = parse_rules('alert any any any -> any any (msg:"w"; \\\n'
                     '# interleaved comment\n'
                     'content:"x"; sid:4;)')
    assert rs.rules[0].sid == 4

    with pytest.raises(RuleParseError):
        parse_rules("var X\n")

    # facility/tag are exact per '|' token — no globs (engine.c:512-581)
    from sagan_ray.oracle.evaluator import _prematch

    assert _prematch("brow*", "brow*", wildcards=False)
    assert not _prematch("brow*", "browser", wildcards=False)
    assert _prematch("brow*", "browser", wildcards=True)   # program only


def test_query_registry_consistent():
    """QUERIES and ORACLES stay key-synchronized (the driver joins them
    by name), every entry is callable, every oracle is a non-empty SQL
    string, and registry order still leads with the engine family (the
    gate-window budget contract)."""
    from sagan_ray.pipelines.queries import ORACLES, QUERIES

    assert list(QUERIES) and list(ORACLES)
    assert set(QUERIES) == set(ORACLES)
    assert all(callable(v) for v in QUERIES.values())
    assert all(isinstance(v, str) and v.strip() for v in ORACLES.values())
    names = list(QUERIES)
    assert names[0].startswith("engine_")        # warmup + identity block
    # no duplicate result-column aliases drifting: spot that every SQL
    # has an ORDER BY (the compare sorts, but deterministic oracles are
    # part of the contract) except golden reads that end with one anyway
    single_row = {"corpus_stats", "corpus_vocab_sketch"}  # 1-row aggs
    assert single_row <= set(ORACLES)       # no stale exemptions
    missing = [k for k, v in ORACLES.items()
               if "ORDER BY" not in v.upper() and k not in single_row]
    assert not missing, missing
