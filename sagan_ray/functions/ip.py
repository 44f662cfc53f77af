"""IP extraction and CIDR lookup helpers.

Re-implements the *semantics* of the reference extractors — Parse_IP
(/root/reference/src/parsers/ip.c:88-971: scan the message, find the Nth
IPv4/IPv6 plus an adjacent port) and IP2Bit/is_inrange
(/root/reference/src/util.c:307,560) — with a single compiled-regex pass
per message instead of the reference's char-strip + tokenize loop.

Port attachment styles recognized (ip.c:37-60 shapes): ``1.2.3.4:22``,
``1.2.3.4#22``, ``[fe80::1]:80``, ``1.2.3.4 port 1234``.

``extract_ips`` is the per-message spec. ``ip_columns`` is its column
form over an Arrow batch: Arrow kernels plus numpy, for the *regular*
rows on which it provably gives the same list, and nothing for the rest
(whose callers keep ``extract_ips``). ``CidrTable.find_v4`` is the
matching array lookup, on v4 values.
"""

from __future__ import annotations

import bisect
import ipaddress
import re
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MAX_PARSE_IP = 30  # reference src/sagan-defs.h MAX_PARSE_IP

_V4MAPPED_BASE = int(ipaddress.IPv6Address("::ffff:0:0"))
_V4_TOP = (1 << 32) - 1

# candidate tokens; validity is checked with the ipaddress module
_IP_CAND = re.compile(
    r"""
    \[(?P<v6b>[0-9A-Fa-f:.]{2,45})\](?::(?P<v6bport>\d{1,5}))?  # [v6]:port
  | (?<![\w.:])(?P<v4>(?:\d{1,3}\.){3}\d{1,3})(?![\w.])          # bare v4
    # bare v6, optionally with an embedded dotted-quad tail
    # (::ffff:1.2.3.4, 64:ff9b::192.0.2.33 — parsers/ip.c handles these
    # via inet_pton(AF_INET6))
  | (?<![\w.:])(?P<v6>[0-9A-Fa-f]{0,4}(?::[0-9A-Fa-f]{0,4}){2,7}
                (?:(?:\.\d{1,3}){3})?)(?![\w:.])
    """,
    re.VERBOSE,
)

_PORT_AFTER = re.compile(r"(?:[:#](\d{1,5})|\s+port\s+(\d{1,5}))")


def is_valid_ip(s: str) -> bool:
    try:
        ipaddress.ip_address(s)
        return True
    except ValueError:
        return False


def ip_to_int(ip: str) -> int:
    """IPv6-width integer form (reference IP2Bit 16-byte binary,
    util.c:307). IPv4 is v4-mapped into v6 space so one ordering covers
    both families."""
    a = ipaddress.ip_address(ip)
    if a.version == 4:
        return _V4MAPPED_BASE + int(a)
    return int(a)


def extract_ips(text: str, max_ips: int = MAX_PARSE_IP) -> list[tuple[str, int]]:
    """Return up to ``max_ips`` (ip, port) pairs in order of appearance.
    Port 0 = none found. Mirrors the positional cache the reference engine
    consumes via ``parse_src_ip: N`` (engine.c:800-843)."""
    out: list[tuple[str, int]] = []
    for m in _IP_CAND.finditer(text):
        if len(out) >= max_ips:
            break
        port = 0
        if m.group("v6b"):
            cand = m.group("v6b")
            if not is_valid_ip(cand):
                continue
            if m.group("v6bport"):
                port = int(m.group("v6bport"))
        elif m.group("v4"):
            cand = m.group("v4")
            # fast octet validation (the regex already guarantees shape);
            # leading-zero octets are rejected like inet_pton/ipaddress
            # do — '10.0.0.01' must not be emitted as an IP that
            # ip_to_int then cannot parse
            if any(int(o) > 255 or (len(o) > 1 and o[0] == "0")
                   for o in cand.split(".")):
                continue
            pm = _PORT_AFTER.match(text, m.end())
            if pm:
                port = int(pm.group(1) or pm.group(2))
        else:
            cand = m.group("v6")
            # require ≥2 colons and at least one hex digit ("::", the
            # unspecified address, is not a parseable endpoint — the
            # reference's zero-IP invalidity, util.c is_notlocalhost)
            if (cand.count(":") < 2 or not any(c in "0123456789abcdefABCDEF" for c in cand)
                    or not is_valid_ip(cand)):
                continue
            pm = _PORT_AFTER.match(text, m.end())
            # bare v6 followed by ':port' is ambiguous; accept '#' and 'port N'
            if pm and (pm.group(2) or text[m.end()] == "#"):
                port = int(pm.group(1) or pm.group(2))
        if port > 65535:
            port = 0
        out.append((cand, port))
    return out


# A row is irregular when ``_IP_CAND`` could see more in it than bare v4
# addresses with an optional ``:port``: a ``[`` (bracketed v6), a ``#`` or
# ``port`` (the other port styles), or ``:`` hex{0,4} ``:`` (every bare v6
# candidate holds one). Rows with a non-ASCII character are irregular too,
# since ``\d`` and ``\w`` are Unicode in ``re`` and ASCII in RE2.
_IRREGULAR = r"[\[#]|port|:[0-9A-Fa-f]{0,4}:"
# On a regular row every candidate is a v4 whose lookbehind puts it at the
# start of a maximal run of [\w.:] and whose lookahead lets that run end
# there or go on with ':', so it is such a run (a token of this split)
# that begins with a dotted quad followed by its end or by ':'. The
# digits after the ':' are its port, as ``_PORT_AFTER`` reads them.
_TOKEN_SPLIT = r"[^\w.:]+"
_V4_TOKEN = (r"^(?P<ip>(?P<a>\d{1,3})\.(?P<b>\d{1,3})\.(?P<c>\d{1,3})\.(?P<d>\d{1,3}))"
             r"(?::(?P<port>\d{0,5})|$)")


class IpColumns(NamedTuple):
    """``extract_ips`` of every regular row of a column, as arrays."""

    regular: np.ndarray  # bool[n]; the other fields are empty on other rows
    count: np.ndarray    # int64[n]: len(extract_ips(text))
    ips: np.ndarray      # object[n, width]: the first width IPs, "" past count
    ports: np.ndarray    # int32[n, width]: their ports (0 = none)
    v4: np.ndarray       # int64[n, width]: their int values, -1 past count


def ip_columns(text: pa.Array, width: int = MAX_PARSE_IP) -> IpColumns:
    """The column form of ``extract_ips`` over ``text``: one Arrow split and
    one regex extract over the regular rows' tokens, with the octet checks
    (≤255, no leading zero) and the port>65535→0 rule in numpy. The first
    ``width`` (at most ``MAX_PARSE_IP``) IPs of each row are kept."""
    n = len(text)
    width = min(width, MAX_PARSE_IP)
    ips = np.full((n, width), "", dtype=object)
    ports = np.zeros((n, width), dtype=np.int32)
    v4 = np.full((n, width), -1, dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)
    if n == 0:
        return IpColumns(np.zeros(0, dtype=bool), count, ips, ports, v4)
    irregular = pc.or_kleene(pc.invert(pc.string_is_ascii(text)),
                             pc.match_substring_regex(text, _IRREGULAR))
    regular = ~_bool(pc.fill_null(irregular, True))
    # only rows holding a dotted quad are split, only quad tokens extracted
    rows = np.flatnonzero(regular & _bool(pc.fill_null(
        pc.match_substring_regex(text, r"\d\.\d{1,3}\.\d{1,3}\.\d"), False)))
    toks = pc.split_pattern_regex(text.take(pa.array(rows, pa.int64())),
                                  _TOKEN_SPLIT)
    parent = np.repeat(rows, pc.list_value_length(toks).to_numpy())
    toks = pc.list_flatten(toks)
    hit = _bool(pc.match_substring_regex(toks, _V4_TOKEN))
    m = pc.extract_regex(toks.filter(pa.array(hit)), _V4_TOKEN)
    parent = parent[hit]
    ok = np.ones(len(m), dtype=bool)
    val = np.zeros(len(m), dtype=np.int64)
    for name in "abcd":
        octet = pc.struct_field(m, name)
        x = pc.cast(octet, pa.int64()).to_numpy()
        ok &= (x <= 255) & ~(_bool(pc.starts_with(octet, "0"))
                             & (pc.utf8_length(octet).to_numpy() > 1))
        val = (val << 8) | x
    port_s = pc.struct_field(m, "port")
    port = pc.cast(pc.if_else(pc.equal(port_s, ""), "0", port_s),
                   pa.int64()).to_numpy()
    port = np.where(port > 65535, 0, port)
    parent = parent[ok]
    # rank of each valid IP within its row (parents are non-decreasing)
    rank = np.arange(len(parent)) - np.searchsorted(parent, parent)
    keep = rank < MAX_PARSE_IP
    count += np.bincount(parent[keep], minlength=n)
    keep &= rank < width
    at = (parent[keep], rank[keep])
    sel = np.flatnonzero(ok)[keep]
    ips[at] = pc.struct_field(m, "ip").take(pa.array(sel, pa.int64())).to_numpy(
        zero_copy_only=False)
    ports[at] = port[sel]
    v4[at] = val[sel]
    return IpColumns(regular, count, ips, ports, v4)


def _bool(arr) -> np.ndarray:
    return arr.to_numpy(zero_copy_only=False).astype(bool, copy=False)


class CidrTable:
    """CIDR ranges → value, with bisect lookup.

    The broadcast analog of the reference's GeoIP mmdb / blacklist array
    (src/geoip.c:58-86, src/processors/blacklist.c:70-229): built once on
    the driver, shipped to workers via ``ray.put``, looked up per unique IP
    per batch with memoization. Ranges may nest: an address takes the
    value of the most specific range that holds it (mmdb longest-prefix
    semantics; for a membership table, the union of its ranges).
    """

    def __init__(self, entries: list[tuple[str, str]]):
        """entries: [(cidr, value)]; of two equal ranges the later wins."""
        ranges = {}
        for cidr, value in entries:
            n = ipaddress.ip_network(cidr, strict=False)
            if n.version == 4:
                lo = _V4MAPPED_BASE + int(n.network_address)
                hi = _V4MAPPED_BASE + int(n.broadcast_address)
            else:
                lo, hi = int(n.network_address), int(n.broadcast_address)
            ranges[lo, hi] = value
        rows = _flatten_nested(ranges)
        self._los = [r[0] for r in rows]
        self._his = [r[1] for r in rows]
        self._vals = [r[2] for r in rows]
        # the bounds in v4 coordinates, so one searchsorted over a batch's
        # v4 values finds what bisect does per address (the trailing -1
        # is the bound find_v4 reads for a miss)
        self._v4_los = np.array([_v4_bound(b) for b in self._los], dtype=np.int64)
        self._v4_his = np.array([_v4_bound(b) for b in self._his] + [-1],
                                dtype=np.int64)

    def lookup(self, ip: str) -> str | None:
        try:
            v = ip_to_int(ip)
        except ValueError:
            return None
        i = bisect.bisect_right(self._los, v) - 1
        if i >= 0 and v <= self._his[i]:
            return self._vals[i]
        return None

    def find_v4(self, v4: np.ndarray) -> np.ndarray:
        """Per v4 int value (as ``ip_columns`` gives it; < 0 = no address),
        the index into ``values`` of what ``lookup`` returns for that
        address, or -1 where it returns None."""
        i = np.searchsorted(self._v4_los, v4, side="right") - 1
        i = np.where((v4 >= 0) & (i >= 0), i, -1)
        return np.where(v4 <= self._v4_his[i], i, -1)

    @property
    def values(self) -> list:
        return self._vals

    def __contains__(self, ip: str) -> bool:
        return self.lookup(ip) is not None

    def __len__(self) -> int:
        return len(self._los)


def _flatten_nested(ranges: dict[tuple[int, int], str]) -> list:
    """Nested-or-disjoint ranges (CIDR ranges never partly overlap) as
    sorted disjoint (lo, hi, value) rows, each point keeping the value
    of the innermost range that holds it. One sweep in (lo, -hi) order
    with a stack of the ranges open at the cursor."""
    rows, open_, at = [], [], 0
    for lo, hi in sorted(ranges, key=lambda r: (r[0], -r[1])):
        while open_ and open_[-1][0] < lo:       # ranges that end before lo
            end, value = open_.pop()
            if at <= end:
                rows.append((at, end, value))
            at = end + 1
        if open_ and at < lo:                     # the enclosing range's
            rows.append((at, lo - 1, open_[-1][1]))   # part before lo
        open_.append((hi, ranges[lo, hi]))
        at = lo
    while open_:
        end, value = open_.pop()
        if at <= end:
            rows.append((at, end, value))
        at = end + 1
    return rows


def _v4_bound(b: int) -> int:
    """A CIDR bound in v4 coordinates (int - ::ffff:0:0), clipped to
    [-1, 2**32]: against any v4 value v, ``b <= v`` and ``v <= b`` read
    the same as on the full v6-width ints."""
    return min(max(b - _V4MAPPED_BASE, -1), _V4_TOP + 1)


def net_group_contains(nets: list[tuple[int, int, bool]], ip: str) -> bool:
    """Snort-style group membership with negation (reference
    src/flow.c:48-504): an IP matches the group if it is inside any
    non-negated range and outside every negated range; a group of only
    negated ranges matches when the IP avoids them all."""
    try:
        v = ip_to_int(ip)
    except ValueError:
        return False
    any_positive = False
    pos_hit = False
    for lo, hi, neg in nets:
        inside = lo <= v <= hi
        if neg:
            if inside:
                return False
        else:
            any_positive = True
            if inside:
                pos_hit = True
    return pos_hit if any_positive else True


def net_group_contains_v4(nets: list[tuple[int, int, bool]],
                          v4: np.ndarray) -> np.ndarray:
    """``net_group_contains`` per v4 int value of an array (every value
    must be an address, v4 >= 0)."""
    pos_hit = np.zeros(len(v4), dtype=bool)
    neg_hit = np.zeros(len(v4), dtype=bool)
    any_positive = False
    for lo, hi, neg in nets:
        inside = (_v4_bound(lo) <= v4) & (v4 <= _v4_bound(hi))
        if neg:
            neg_hit |= inside
        else:
            any_positive = True
            pos_hit |= inside
    return ~neg_hit & (pos_hit if any_positive else True)
