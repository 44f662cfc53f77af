"""Vectorized stateless rule classification — the Ray Data analog of the
reference's per-record rule loop (/root/reference/src/processors/engine.c:
92-1558), restructured batch-first: every predicate family is evaluated as
a vectorized mask over the whole Arrow batch, per rule, with early exit
when a rule's mask empties. Expensive residual gates run only on the
rows that survived the cheap text predicates — the batch equivalent of
the reference's cheapness-ordered short-circuit
(doc/source/high-performance.rst:78-93).

IP and hash gates are decided as arrays, the batch analog of the
reference's per-record Parse_IP cache (engine.c:800-843): the batch
context extracts each candidate row's IPs, ports and v4 values
(``functions.ip.ip_columns``) and its first md5/sha1/sha256
(``functions.textutil.hash_columns``) once, memoized by row. A rule
whose slow gates are all IP and hash ones (``parse_*_ip``/``parse_port``,
net groups, geoip, blacklist, the zeekintel IP, hash and text kinds) and
whose other predicates are exact masks is decided from those columns on
every *regular* row, where they provably equal ``extract_ips`` (ASCII,
no ``[``, ``#``, ``port`` or ``:`` hex{0,4} ``:``). Its irregular rows,
v6 addresses among them, and every other slow-gated rule (remaps,
normalize, pcre, bluedot, offload, proto/port-eq) go through the
per-row ``match_stateless`` residual, which stays the spec.

JSON is decoded once per row per batch (``_BatchCtx.json_rows``), and
every JSON reader reads that decode: the ``event_id`` fallback, the
``.username`` fallback and ``match_stateless`` (through the batch's row
caches). A rule that reaches the residual only for its JSON atoms
(``json_decided``) is decided by ``json_atom_match`` over the decode.

Content literals are matched the way Suricata's multi-pattern matcher
does it: one ``LiteralSet`` per classifier holds every content literal,
every meta_content pattern of an atom whose patterns all qualify, every
required literal run of a pcre, and the zeekintel text tables' values,
when ASCII and at least 3 bytes long, and each batch runs one
overlapping Aho-Corasick pass over the text for the case-sensitive ones
and one ASCII-case-insensitive pass for the ``nocase`` ones (polars
``str.extract_many``). The pass yields every literal's hits at once. It
is exact for unwindowed case-sensitive atoms; windowed atoms run the
Arrow kernel on its candidate rows only; a meta atom is the OR of its
patterns' masks, an intel table's mask the rows any of its values hit.
``nocase`` atoms take the pass on every row but those holding U+0130,
U+017F or U+212A, the only characters where an ASCII fold, RE2's
Unicode fold and ``str.lower`` can disagree for an ASCII pattern; those
rows are decided by ``match_stateless``'s own ``str.lower`` test.
Shorter literals (1-byte ones hit almost every row and would flood the
pass) and ``append_program`` atoms keep one Arrow kernel pass each.

A pcre runs through RE2 when RE2 can compile it. If the pattern has a
token RE2 reads differently from ``re`` (ASCII-only ``\\w \\d \\s \\b``,
``$`` before a trailing newline, a case fold), its candidate rows with
a non-ASCII char, ``\\v``, ``\\x1c``–``\\x1f`` or a trailing newline are
decided by the rule's compiled ``re`` pattern, the one
``match_stateless`` runs.

Used from plain Ray tasks: the exchange's map task in
``pipelines.engine.run_engine`` classifies its input in batches through
a ``RuleClassifier`` that each worker process builds once per
``compile_key`` and caches — rule compilation (regexes, window plans,
lookup tables) happens once per worker in ``__init__``, never per batch.

Output is the *list-form match table* (LIST_MATCH_SCHEMA): one row per
matched turn × class, with one list entry per matched rule. The class is
``stateful`` when a match touches correlation state and therefore still
needs the per-conv ordered pass (sagan_ray.stages.correlate).
``explode_match_lists`` turns it into the exploded MATCH_SCHEMA, one row
per (input row × matched rule); ``list_form=False`` returns that view.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import EngineConfig, Lookups
from ..functions.ip import (
    MAX_PARSE_IP,
    IpColumns,
    ip_columns,
    net_group_contains_v4,
)
from ..functions.textutil import (
    EVENT_ID_HEAD,
    extract_event_id,
    hash_columns,
    json_atom_match,
    prematch_regex,
    try_parse_json_text,
)
from ..oracle.evaluator import RowCache, match_stateless
from ..rules.model import Rule, RuleSet

MATCH_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("rule_idx", pa.int32()),
    ("sid", pa.int64()),
    ("stateful", pa.bool_()),
    # emit: verdict for stateless rules (action==alert ⇒ route); for
    # stateful rules decided later by the correlation stage
    ("emit", pa.bool_()),
    # pass_conditional: this row hit a *stateful* pass rule, so every one
    # of its matches must be re-decided in rule order by the correlator
    ("pass_conditional", pa.bool_()),
    ("ts_epoch", pa.int64()),
    ("src_ip", pa.string()),
    ("dst_ip", pa.string()),
    ("src_port", pa.int32()),
    ("dst_port", pa.int32()),
    ("username", pa.string()),
    ("text", pa.large_string()),
    ("role", pa.string()),
    ("tool", pa.string()),
])

# List-form match stream: ONE row per (matched turn × statefulness class)
# with per-match list columns, instead of one row per (turn × rule). The
# turn's text/role/tool cross the wire once per class (≤2×, almost always
# 1×) rather than once per matching rule (1.6-2× extra bytes measured on
# the bench ruleset — the r4 bandwidth ceiling). ``stateful`` and
# ``pass_conditional`` are turn×class-level scalars: a turn that hit a
# stateful pass rule routes ALL its matches through the correlator, so
# every match in a row shares the class flag by construction.
# ``explode_match_lists`` recovers MATCH_SCHEMA rows exactly.
LIST_MATCH_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("stateful", pa.bool_()),
    ("pass_conditional", pa.bool_()),
    ("ts_epoch", pa.int64()),
    ("rule_idx", pa.list_(pa.int32())),
    ("sid", pa.list_(pa.int64())),
    ("emit", pa.list_(pa.bool_())),
    ("src_ip", pa.list_(pa.string())),
    ("dst_ip", pa.list_(pa.string())),
    ("src_port", pa.list_(pa.int32())),
    ("dst_port", pa.list_(pa.int32())),
    ("username", pa.list_(pa.string())),
    ("text", pa.large_string()),
    ("role", pa.string()),
    ("tool", pa.string()),
])


def explode_match_lists(tbl: pa.Table) -> pa.Table:
    """LIST_MATCH_SCHEMA → MATCH_SCHEMA: flatten the per-match list
    columns, repeat the per-turn scalars (vectorized: one list_flatten per
    list column + one take per scalar column). Within a row the matches
    keep their stored order (rule_idx ascending — the classify emit
    order), so exploding reproduces the pre-list stream exactly."""
    if len(tbl) == 0:
        return MATCH_SCHEMA.empty_table()
    cols = {n: tbl.column(n).combine_chunks() for n in tbl.column_names}
    lens = pc.list_value_length(cols["rule_idx"]).to_numpy().astype(np.int64)
    take = pa.array(np.repeat(np.arange(len(tbl), dtype=np.int64), lens))

    def flat(name):
        return pc.list_flatten(cols[name])

    def rep(name):
        return cols[name].take(take)

    return pa.Table.from_arrays([
        rep("conv_id"), rep("turn_idx"), flat("rule_idx"), flat("sid"),
        rep("stateful"), flat("emit"), rep("pass_conditional"),
        rep("ts_epoch"), flat("src_ip"), flat("dst_ip"), flat("src_port"),
        flat("dst_port"), flat("username"), rep("text"), rep("role"),
        rep("tool"),
    ], schema=MATCH_SCHEMA)


def _re2_ok(pattern: str) -> bool:
    """Can Arrow's RE2 handle this pattern? (pcre fallback decision)"""
    try:
        pc.match_substring_regex(pa.array([""]), pattern)
        return True
    except pa.lib.ArrowInvalid:
        return False


# pcre syntax RE2 and re parse apart, so they differ on plain ASCII
# too: a POSIX bracket class (a class to RE2; to re a set, then literal
# text) and an open-lower {,n} repeat (literal text to RE2). Such a pcre
# takes the re path. Conservative: an escaped look-alike also matches.
_RE2_PARSES_APART = re.compile(r"\[:\^?[A-Za-z]+:\]|\{,\d*\}")
# pcre tokens RE2 decides differently from re on some rows (ASCII-only
# \w \d \s \b, $ before a trailing newline) and scoped (?i) folds
_RE2_DIVERGES = re.compile(r"\\[wWdDsSbB]|\$|\(\?[a-zA-Z]*i")
# rows where those tokens can diverge: a non-ASCII char, \v or
# \x1c-\x1f (whitespace to re, not to RE2), or a trailing newline
_RE2_HAZARD_RX = "[\x0b\x1c-\x1f]|\n\\z"
# the non-ASCII code points an ASCII pattern's case folds reach:
# U+0130 (str.lower → i + U+0307), U+017F (RE2 s), U+212A (k in both)
_FOLD_HAZARD_RX = "[\u0130\u017f\u212a]"


def _required_literals(rx: str) -> tuple[tuple[str, ...], bool] | None:
    """The literal runs of at least 4 chars that every match of ``rx``
    must contain, and whether they match case-insensitively, or None.
    Used to prefilter full-column RE2 scans with (much cheaper, and
    batch-memoized) substring scans: a row must contain every run, so
    the rows holding all of them are the candidates. All runs, not the
    longest: ``/ERROR: query \\w+ with timeout after \\d+s/`` has the
    rare ``ERROR: query `` and the common `` with timeout after ``.
    Conservative: bails on alternation, groups and counted repeats; a
    literal char followed by a quantifier is dropped from its run."""
    body = rx
    nocase = False
    while body[:2] == "(?" and len(body) >= 4 and body[3] == ")":
        if body[2] == "i":
            nocase = True
        body = body[4:]
    # bail on anything whose contents could masquerade as a literal run:
    # alternation, groups, counted repeats, character classes
    if any(c in body for c in "|({["):
        return None
    runs: list[str] = []
    cur = ""
    i = 0
    n = len(body)
    meta = set(".^$*+?()[]{}\\")
    while i < n:
        c = body[i]
        if c in "*+?":
            if cur:
                cur = cur[:-1]      # quantified char is optional/repeated
            runs.append(cur)
            cur = ""
            i += 1
        elif c == "\\":
            nxt = body[i + 1] if i + 1 < n else ""
            if not nxt.isalnum() and nxt:
                cur += nxt          # escaped punctuation (\. \/ …)
                i += 2
            elif nxt in "dDwWsSbB":  # class/anchor escapes break the run
                runs.append(cur)
                cur = ""
                i += 2
            elif nxt == "x" and i + 3 < n:
                # \xNN consumes two hex digits — they are NOT literal text
                runs.append(cur)
                cur = ""
                i += 4
            elif nxt in "aAfnrtvz":  # escape literals; don't add to run
                runs.append(cur)
                cur = ""
                i += 2
            else:
                # octal escapes, backreferences, \p{...}, unknown — the
                # following chars could masquerade as literals; bail
                return None
        elif c in meta:
            runs.append(cur)
            cur = ""
            i += 1
        else:
            cur += c
            i += 1
    runs.append(cur)
    runs = tuple(dict.fromkeys(r for r in runs if len(r) >= 4))
    return (runs, nocase) if runs else None


def _pass_literal(p: str) -> bool:
    """Can the multi-pattern literal pass answer for ``p``?"""
    return len(p) >= 3 and p.isascii()


class _RulePlan:
    """Per-rule compiled evaluation plan (built once per classifier)."""

    __slots__ = ("rule", "prematch_role", "prematch_tool", "meta_atoms",
                 "pcre_re2", "pcre_py", "needs_ips", "needs_json",
                 "slow_gates", "jm_fields", "remaps_text",
                 "col_decided", "reads_ips", "json_decided")

    def __init__(self, rule: Rule):
        self.rule = rule
        self.prematch_role = prematch_regex(rule.program).pattern if rule.program else None
        # facility/tag/level: exact-match alternations (no globs —
        # engine.c:512-581 strcmp; only program gets Wildcard)
        tools = []
        if rule.facility:
            tools.append(prematch_regex(rule.facility, wildcards=False).pattern)
        if rule.tag:
            tools.append(prematch_regex(rule.tag, wildcards=False).pattern)
        for lv in rule.levels:
            tools.append(prematch_regex(lv, wildcards=False).pattern)
        self.prematch_tool = tools

        # meta_content → (RE2 alternation, atom), or (None, atom) when
        # every pattern is read from the batch's literal pass
        self.meta_atoms = []
        for mc in rule.meta_contents:
            rx = None
            if rule.append_program or not mc.patterns or not all(
                    map(_pass_literal, mc.patterns)):
                alt = "|".join(re.escape(p) for p in mc.patterns)
                rx = ("(?i)" if mc.nocase else "") + "(?:" + alt + ")"
            self.meta_atoms.append((rx, mc))

        # (pattern_with_flags, negated, literals|None, exact re|None):
        # the compiled re pattern re-decides the hazard rows of a pcre
        # that RE2 can decide differently (_BatchCtx.regex_mask)
        self.pcre_re2 = []
        self.pcre_py = []        # (compiled, negated)
        for patom in rule.pcres:
            rx = patom.pattern
            if patom.flags & re.IGNORECASE:
                rx = "(?i)" + rx
            if patom.flags & re.DOTALL:
                rx = "(?s)" + rx
            if patom.flags & re.MULTILINE:
                rx = "(?m)" + rx
            if _re2_ok(rx) and not _RE2_PARSES_APART.search(patom.pattern):
                exact = patom.compiled()
                if not (exact.flags & re.IGNORECASE
                        or _RE2_DIVERGES.search(patom.pattern)):
                    exact = None
                self.pcre_re2.append((rx, patom.negated,
                                      _required_literals(rx), exact))
            else:
                self.pcre_py.append((patom.compiled(), patom.negated))

        self.needs_ips = rule.needs_ips()
        self.needs_json = bool(rule.json_atoms)
        self.jm_fields = {f for f, _ in rule.json_maps}
        # message/program remap (engine.c:321-488): every text predicate
        # must re-evaluate per row against the remapped message, so the
        # vectorized masks only serve as a prefilter (∪ JSON candidates)
        self.remaps_text = bool({"message", "program"} & self.jm_fields)
        # gates that require per-row python on the candidate subset.
        # The header flow gate (proto / src_port_eq / dst_port_eq,
        # evaluator.py:289-299) lives in _residual too, so any rule that
        # carries one must route through it even with no parse_* options —
        # e.g. `alert tcp any any -> any 22 (content:"x";)`.
        self.slow_gates = bool(
            self.needs_ips or rule.geoip_track or rule.blacklist
            or rule.zeekintel or rule.parse_hash or self.pcre_py
            or rule.json_maps or rule.normalize or rule.bluedot_kind
            or rule.offload is not None
            or rule.proto not in ("any", "syslog")
            or rule.src_port_eq is not None or rule.dst_port_eq is not None
        )
        # every slow gate of the rule is one the IP and hash columns decide
        # (RuleClassifier._col_verdicts), and all its other predicates
        # are exact vector masks: no pcre or event_id (exact too, but not
        # yet admitted here), no JSON, remap, normalize, bluedot, offload
        # or proto/port gate
        self.col_decided = self.slow_gates and not (
            rule.pcres or rule.event_ids or self.needs_json or rule.json_maps
            or rule.normalize or rule.bluedot_kind or rule.offload is not None
            or rule.proto not in ("any", "syslog")
            or rule.src_port_eq is not None or rule.dst_port_eq is not None
            or not set(rule.zeekintel) <= _COL_INTEL_KINDS)
        # does its verdict or its emit read the row's IP list?
        self.reads_ips = bool(rule.parse_src_ip or rule.parse_dst_ip
                              or rule.blacklist == "all"
                              or "all" in rule.zeekintel)
        # its JSON atoms are all the residual would decide: every other
        # predicate is an exact vector mask, so json_atom_match over the
        # batch's JSON decode decides it (RuleClassifier._json_verdicts)
        self.json_decided = self.needs_json and not (
            self.pcre_py or self.slow_gates or self.remaps_text)


# zeekintel kinds the columns decide (user_name reads the JSON username)
_COL_INTEL_KINDS = frozenset((
    "src_ipaddr", "dst_ipaddr", "both", "all", "file_hash",
    "domain", "url", "software", "file_name"))
_INTEL_TEXT_KINDS = (("domain", "domain"), ("url", "url"),
                     ("software", "software"), ("file_name", "filename"))


class LiteralSet:
    """Every literal one Aho-Corasick pass per batch can answer for: the
    content atoms (positive and negated, any window), the patterns of
    every meta_content atom whose patterns all qualify, and every pcre
    required literal run, of rules without ``append_program``, when the
    pattern is ASCII and at least 3 bytes long; and the values of each
    zeekintel text table a rule reads (``intel``: table → values) that
    qualify, as one pass *group* per table. Shorter literals hit most
    rows (``" "``, ``"e"``) and would flood the overlapping pass with
    matches; non-ASCII and ``append_program`` literals keep the
    per-literal Arrow kernel, and a table's other values one RE2
    alternation (``intel_rx``). ``nocase`` literals go to a second,
    ASCII-case-insensitive pass, keyed by their lowercase form."""

    __slots__ = ("cs", "ci", "ids", "groups", "intel_rx", "_values")

    def __init__(self, plans: list[_RulePlan],
                 intel: dict[str, set[str]] | None = None):
        cs: set[str] = set()
        ci: set[str] = set()
        for plan in plans:
            if plan.rule.append_program:
                continue
            lits = [(a.pattern, a.nocase) for a in plan.rule.contents]
            for rx, mc in plan.meta_atoms:
                if rx is None:
                    lits += [(p, mc.nocase) for p in mc.patterns]
            for _, _, req, _ in plan.pcre_re2:
                if req is not None:
                    lits += [(run, req[1]) for run in req[0]]
            for p, nocase in lits:
                if _pass_literal(p):
                    if nocase:
                        ci.add(p.lower())
                    else:
                        cs.add(p)
        self.intel_rx: dict[str, str | None] = {}
        grouped = {}
        for table, vals in (intel or {}).items():
            grouped[table] = [v for v in vals if _pass_literal(v)]
            cs.update(grouped[table])
            rest = sorted(v for v in vals if not _pass_literal(v))
            self.intel_rx[table] = (
                "|".join(re.escape(v) for v in rest) if rest else None)
        self.cs = tuple(sorted(cs))
        self.ci = tuple(sorted(ci))
        # per pass: pattern → its index in cs / ci
        self.ids = tuple({p: k for k, p in enumerate(pats)}
                         for pats in (self.cs, self.ci))
        # table → which cs patterns are its values
        self.groups: dict[str, np.ndarray] = {}
        for table, vals in grouped.items():
            member = np.zeros(len(self.cs), dtype=bool)
            member[[self.ids[0][v] for v in vals]] = True
            self.groups[table] = member
        self._values = tuple(pa.array(pats, pa.large_string())
                             for pats in (self.cs, self.ci))
        if cs or ci:
            # loaded with the compiled ruleset, once per worker: only the
            # processes that classify import polars, never the Ray driver
            import polars  # noqa: F401

    def scan(self, text: pa.Array, nocase: bool) -> tuple[np.ndarray, np.ndarray]:
        """(pattern index, row) of every occurrence in ``text`` of every
        pattern, from one overlapping pass (so a literal that is a prefix
        of another is still seen). Exact for case-sensitive patterns.
        The ``nocase`` pass folds ASCII only: exact on ASCII rows, and on
        other rows it can miss what ``str.lower`` or RE2 fold (U+212A
        KELVIN SIGN → ``k``). Hits, not a patterns × rows matrix: a large
        intel feed has far more patterns than hits."""
        pats = self.ci if nocase else self.cs
        if not pats:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        import polars as pl

        found = pl.Series(text).str.extract_many(
            list(pats), overlapping=True,
            ascii_case_insensitive=nocase).to_arrow()
        lens = pc.fill_null(pc.list_value_length(found), 0).to_numpy()
        flat = pc.cast(pc.list_flatten(found), pa.large_string())
        if nocase:
            flat = pc.ascii_lower(flat)
        pid = pc.index_in(flat, value_set=self._values[nocase]).to_numpy()
        return pid, np.repeat(np.arange(len(text)), lens)


class RuleClassifier:
    """Batch classifier. ``__init__`` once per worker (compiles the
    ruleset, loads broadcast lookups); ``__call__`` per Arrow batch."""

    def __init__(self, ruleset, lookups=None, config: EngineConfig | None = None,
                 list_form: bool = True):
        import ray

        if isinstance(ruleset, ray.ObjectRef):
            ruleset = ray.get(ruleset)
        if lookups is not None and isinstance(lookups, ray.ObjectRef):
            lookups = ray.get(lookups)
        # list_form=False returns the exploded view of the one emit
        self.list_form = bool(list_form)
        self.ruleset: RuleSet = ruleset
        self.lookups: Lookups = lookups or Lookups()
        self.config = config or EngineConfig()
        self.plans = [_RulePlan(r) for r in ruleset]
        self.needs_username = any(
            (r.after and r.after.by_username) or
            (r.threshold and r.threshold.by_username) or
            any(f.direction == "username" for f in r.flexbits) or
            "user_name" in r.zeekintel or
            any(f == "username" for f, _ in r.json_maps)
            for r in ruleset)
        self.any_json = any(p.needs_json for p in self.plans) or self.needs_username
        # per-rule field-fill plan for _emit: (fills ip/port fields?,
        # needs its match_stateless field dict per match?, default
        # src_port, default dst_port). Rules whose username can only be the
        # .username JSON fallback (no json_map/normalize source) never need
        # the per-match field dict for it.
        self._field_plans = []
        for r, pl in zip(ruleset, self.plans):
            dynamic = bool(r.parse_src_ip or r.parse_dst_ip or r.json_maps
                           or r.normalize)
            uname_simple = not (r.normalize or "username" in pl.jm_fields)
            self._field_plans.append((
                dynamic or bool(r.default_src_port or r.default_dst_port),
                dynamic or (self.needs_username and not uname_simple),
                r.default_src_port, r.default_dst_port))
        self.any_extract = any(fp[0] for fp in self._field_plans)
        # stateless pass rules truncate later hits with certainty
        self.stateless_pass_set = frozenset(
            r.idx for r in ruleset if r.action == "pass" and not r.is_stateful)
        self.stateful_pass_set = frozenset(
            r.idx for r in ruleset if r.action == "pass" and r.is_stateful)
        # the literals each batch's multi-pattern pass scans for, with the
        # values of the intel text tables the rules read (a group per
        # table: one pass for the whole feed, where one RE2 alternation
        # of a 100k-value feed fails to compile) — fixed at compile
        # time; batches never change the classifier
        self.literals = LiteralSet(self.plans, {
            table: self.lookups.intel_set(table)
            for kind, table in _INTEL_TEXT_KINDS
            if any(kind in r.zeekintel for r in ruleset)})
        # IP columns a batch needs: up to the largest position a
        # col_decided rule reads, or every IP for an `all` gate
        self.ip_width = min(MAX_PARSE_IP, max(
            [MAX_PARSE_IP if r.blacklist == "all" or "all" in r.zeekintel
             else max(r.parse_src_ip or 0, r.parse_dst_ip or 0)
             for r, pl in zip(ruleset, self.plans) if pl.col_decided],
            default=0))
        self._intel_values = {
            k: pa.array(sorted(self.lookups.intel_set(k)), pa.string())
            for k in ("ip", "hash")}
        # geoip rule → per geo-table index, does that country pass it?
        # (a trailing False for the misses, find_v4's -1)
        self._geo_pass: dict[int, np.ndarray] = {}
        geo = self.lookups.geo
        for r, pl in zip(ruleset, self.plans):
            if pl.col_decided and r.geoip_track and geo is not None:
                codes = set(r.geoip_codes)
                self._geo_pass[r.idx] = np.array(
                    [(cc in codes) != r.geoip_isnot for cc in geo.values]
                    + [False], dtype=bool)

    # ------------------------------------------------------------------
    def __call__(self, tbl: pa.Table) -> pa.Table:
        out = self._classify(tbl)
        return out if self.list_form else explode_match_lists(out)

    def _classify(self, tbl: pa.Table) -> pa.Table:
        tbl = _drop_invalid(tbl, self.config)
        n = len(tbl)
        if n == 0:
            return LIST_MATCH_SCHEMA.empty_table()

        text_col = pc.cast(tbl.column("text").combine_chunks(), pa.large_string())
        role_np = pc.fill_null(tbl.column("role"), "").to_numpy(zero_copy_only=False)
        tool_np = pc.fill_null(tbl.column("tool"), "").to_numpy(zero_copy_only=False)
        ts_epoch = (tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
                    // 1_000_000)

        ctx = _BatchCtx(text_col, role_np, tool_np, ts_epoch, self.literals,
                        self.ip_width)

        hit_rows: list[np.ndarray] = []
        hit_rules: list[int] = []
        for plan in self.plans:
            idx = self._eval_rule(plan, ctx, n)
            if idx is not None and len(idx):
                hit_rows.append(idx)
                hit_rules.append(plan.rule.idx)
        if not hit_rows:
            return LIST_MATCH_SCHEMA.empty_table()

        return self._emit(tbl, ctx, hit_rows, hit_rules)

    # ------------------------------------------------------------------
    def _eval_rule(self, plan: _RulePlan, ctx: "_BatchCtx", n: int):
        if plan.remaps_text:
            # remapped-message rules: a non-JSON row evaluates against its
            # original text (no remap possible), so the vectorized mask is
            # exact for it; any JSON row may remap — union them and let
            # match_stateless re-decide per candidate
            mask = self._vector_mask(plan, ctx, n) | ctx.json_candidates()
            return self._residual(plan, ctx, np.flatnonzero(mask))
        mask = self._vector_mask(plan, ctx, n)
        if not mask.any():
            return None
        cand = np.flatnonzero(mask)
        if plan.col_decided:
            return self._col_verdicts(plan, ctx, cand)
        if plan.json_decided:
            return self._json_verdicts(plan, ctx, cand)
        if plan.pcre_py or plan.needs_json or plan.slow_gates:
            cand = self._residual(plan, ctx, cand)
        return cand

    def _vector_mask(self, plan: _RulePlan, ctx: "_BatchCtx", n: int) -> np.ndarray:
        rule = plan.rule
        mask: np.ndarray | None = None  # None = all-true so far

        # ---- pre-match (engine.c:492-581) ----------------------------
        if plan.prematch_role is not None:
            mask = _and(mask, ctx.factor_mask("role", plan.prematch_role))
            if not mask.any():
                return mask
        for rx in plan.prematch_tool:
            mask = _and(mask, ctx.factor_mask("tool", rx))
            if not mask.any():
                return mask

        # ---- content chain (src/content.c) ---------------------------
        # masks are memoized per (window, pattern) in the batch ctx and
        # read from the batch's one multi-pattern literal pass
        prev_depth = 0
        for atom in rule.contents:
            start, stop = atom.window(prev_depth)
            m = ctx.content_mask(rule.append_program, start, stop,
                                 atom.pattern, atom.nocase)
            if atom.negated:
                m = ~m
            mask = _and(mask, m)
            if not mask.any():
                return mask
            prev_depth = atom.depth

        # ---- meta_content (src/meta-content.c; content-style windows) -
        # (an atom of pass literals is the OR of their content masks)
        meta_prev_depth = 0
        for rx, mc in plan.meta_atoms:
            start, stop = mc.window(meta_prev_depth)
            if rx is None:
                m = np.logical_or.reduce([
                    ctx.content_mask(False, start, stop, p, mc.nocase)
                    for p in mc.patterns])
            else:
                m = ctx.regex_mask(rule.append_program, rx, start=start,
                                   stop=stop)
                if mc.nocase:
                    m = ctx.refold(m, rule.append_program, start, stop,
                                   mc.patterns)
            if mc.negated:
                m = ~m
            mask = _and(mask, m)
            if not mask.any():
                return mask
            meta_prev_depth = mc.depth

        # ---- pcre via RE2 (src/pcre-s.c); required literals (if any)
        # turn the full-column regex scan into substring scans + a subset
        # regex over the few rows that hold all of them ----------------
        for rx, negated, lits, exact in plan.pcre_re2:
            m = ctx.regex_mask(rule.append_program, rx, literals=lits,
                               exact=exact)
            if negated:
                m = ~m
            mask = _and(mask, m)
            if not mask.any():
                return mask

        # ---- event_id (src/event-id.c) -------------------------------
        # (deferred to the residual when json_map remaps event_id)
        if rule.event_ids and "event_id" not in plan.jm_fields:
            eids = ctx.event_ids()
            m = np.isin(eids, np.array(rule.event_ids, dtype=object))
            mask = _and(mask, m)
            if not mask.any():
                return mask

        # ---- alert_time (src/aetas.c) --------------------------------
        if rule.alert_days is not None or rule.alert_hours is not None:
            m = np.ones(n, dtype=bool)
            if rule.alert_days is not None:
                m &= np.isin(ctx.dow(), list(rule.alert_days))
            if rule.alert_hours is not None:
                a, b = rule.alert_hours
                hh = ctx.hhmm()
                m &= ((a <= hh) & (hh <= b)) if a <= b else ((hh >= a) | (hh <= b))
            mask = _and(mask, m)
            if not mask.any():
                return mask

        # json rules only ever match messages that ARE a JSON object —
        # vectorized prefilter before the per-row residual parse
        if plan.needs_json:
            mask = _and(mask, ctx.json_candidates())
            if not mask.any():
                return mask

        # zeekintel text kinds (domain/url/software/file_name) are exact
        # substring scans of the plain message against the intel tables,
        # read from the literal pass — fully vectorized, and they
        # prefilter the residual for the other kinds; a rule gated on
        # file_hash can only match rows that contain a 32+-char hex run
        if rule.zeekintel:
            for kind, table in _INTEL_TEXT_KINDS:
                if kind in rule.zeekintel:
                    mask = _and(mask, ctx.intel_mask(table))
                    if not mask.any():
                        return mask
            if "file_hash" in rule.zeekintel:
                m = ctx.regex_mask(rule.append_program, r"[0-9a-fA-F]{32}")
                mask = _and(mask, m)
                if not mask.any():
                    return mask

        if mask is None:
            mask = np.ones(n, dtype=bool)
        return mask

    # ------------------------------------------------------------------
    def _col_verdicts(self, plan: _RulePlan, ctx: "_BatchCtx",
                      cand: np.ndarray) -> np.ndarray:
        """The hits among ``cand`` of a ``col_decided`` rule: its slow gates
        decided as arrays over the batch's IP and hash columns, in
        ``match_stateless``'s terms, on every candidate the IP columns
        cover; the rest (irregular rows of a rule that reads IPs) take the
        residual. The fields of the column hits are kept for ``_emit``."""
        rule = plan.rule
        rows, rest, ipc = cand, cand[:0], None
        if plan.reads_ips:
            ipc = ctx.ip_cols(cand)
            rows, rest = cand[ipc.regular], cand[~ipc.regular]
            ipc = IpColumns(*(a[ipc.regular] for a in ipc))
        m = len(rows)
        ok = np.ones(m, dtype=bool)

        def endpoint(pos, default_port):
            """(ip, v4, port) of the rows' pos-th IP: ``parse_*_ip`` and
            ``parse_port``, then the rule's default port."""
            if pos and pos <= ipc.ips.shape[1]:
                ip, v4, port = ipc.ips[:, pos - 1], ipc.v4[:, pos - 1], ipc.ports[:, pos - 1]
                if not rule.parse_port:
                    port = np.zeros(m, dtype=np.int32)
            else:
                ip, v4 = np.full(m, "", dtype=object), np.full(m, -1, dtype=np.int64)
                port = np.zeros(m, dtype=np.int32)
            return ip, v4, np.where(port == 0, default_port, port)

        src, src_v4, src_port = endpoint(rule.parse_src_ip, rule.default_src_port)
        dst, dst_v4, dst_port = endpoint(rule.parse_dst_ip, rule.default_dst_port)
        if rule.src_nets is not None:
            ok &= (src_v4 >= 0) & net_group_contains_v4(rule.src_nets, src_v4)
        if rule.dst_nets is not None:
            ok &= (dst_v4 >= 0) & net_group_contains_v4(rule.dst_nets, dst_v4)
        if rule.geoip_track:
            geo = self.lookups.geo
            if geo is None:
                ok[:] = False
            else:
                v4 = src_v4 if rule.geoip_track == "by_src" else dst_v4
                ok &= self._geo_pass[rule.idx][geo.find_v4(v4)]
        if rule.blacklist:
            bl = self.lookups.blacklist
            if bl is None:
                ok[:] = False
            elif rule.blacklist == "all":
                ok &= (bl.find_v4(ipc.v4) >= 0).any(axis=1)
            else:
                if rule.blacklist in ("by_src", "both"):
                    ok &= bl.find_v4(src_v4) >= 0
                if rule.blacklist in ("by_dst", "both"):
                    ok &= bl.find_v4(dst_v4) >= 0
        if rule.zeekintel:
            ok &= self._intel_gate(rule, ctx, rows, src, dst, ipc)
        hits = rows[ok]
        if self._field_plans[rule.idx][1] and len(hits):
            ctx.col_fields[rule.idx] = (hits, src[ok], dst[ok],
                                        src_port[ok], dst_port[ok])
        if len(rest):
            hits = np.sort(np.concatenate(
                [hits, self._residual(plan, ctx, rest)]))
        return hits

    def _intel_gate(self, rule: Rule, ctx: "_BatchCtx", rows: np.ndarray,
                    src: np.ndarray, dst: np.ndarray, ipc) -> np.ndarray:
        """``_zeekintel`` over ``rows``: every listed lookup must hit. The
        text kinds are the same intel masks ``_vector_mask`` uses, over
        the plain text (``match_stateless`` never appends the program to
        it)."""
        ok = np.ones(len(rows), dtype=bool)
        kinds = rule.zeekintel

        def in_intel(kind, vals):
            flat = pa.array(vals.ravel(), pa.string())
            return _bool(pc.is_in(flat, value_set=self._intel_values[kind])
                         ).reshape(vals.shape)

        if {"src_ipaddr", "both"} & set(kinds):
            ok &= in_intel("ip", src)
        if {"dst_ipaddr", "both"} & set(kinds):
            ok &= in_intel("ip", dst)
        if "all" in kinds:
            ok &= (in_intel("ip", ipc.ips) & (ipc.v4 >= 0)).any(axis=1)
        if "file_hash" in kinds:
            hashes = np.stack(ctx.hash_cols(rows), axis=1)
            ok &= (in_intel("hash", hashes) & (hashes != "")).any(axis=1)
        for kind, table in _INTEL_TEXT_KINDS:
            if kind in kinds:
                ok &= ctx.intel_mask(table)[rows]
        return ok

    def _json_verdicts(self, plan: _RulePlan, ctx: "_BatchCtx",
                       cand: np.ndarray) -> np.ndarray:
        """The hits among ``cand`` of a ``json_decided`` rule: the rows
        whose decoded JSON passes every JSON atom, the test
        ``match_stateless`` makes."""
        atoms = plan.rule.json_atoms
        keep = [j is not None and all(
                    json_atom_match(ja, j.get(ja.key)) != ja.negated
                    for ja in atoms)
                for j in ctx.json_rows(cand)]
        return cand[np.asarray(keep, dtype=bool)]

    # ------------------------------------------------------------------
    def _residual(self, plan: _RulePlan, ctx: "_BatchCtx", cand: np.ndarray) -> np.ndarray:
        """Per-candidate re-check through ``match_stateless`` — the SAME
        code path the oracle evaluator runs, so residual semantics can
        never drift from the spec. The vectorized masks only prefilter;
        the field dicts are memoized for ``_emit``."""
        rule = plan.rule
        lk = self.lookups
        keep = []
        fields = ctx.match_fields
        for i in cand:
            f = match_stateless(rule, ctx.row_cache(int(i)), lk)
            if f is not None:
                fields[(rule.idx, int(i))] = f
                keep.append(i)
        return np.asarray(keep, dtype=np.int64)

    # ------------------------------------------------------------------
    def _emit(self, tbl: pa.Table, ctx: "_BatchCtx",
              hit_rows: list[np.ndarray], hit_rules: list[int]) -> pa.Table:
        rules = self.ruleset.rules
        row_idx = np.concatenate(hit_rows)
        rule_idx = np.concatenate([
            np.full(len(rows), r, dtype=np.int32)
            for rows, r in zip(hit_rows, hit_rules)])

        # pass truncation: for each row, the smallest stateless-pass rule
        # idx that hit; matches with rule_idx beyond it are dead
        # (engine.c:1450-1453 first-match-wins)
        n = len(tbl)
        pass_cut = np.full(n, np.iinfo(np.int32).max, dtype=np.int64)
        for rows, r in zip(hit_rows, hit_rules):
            if r in self.stateless_pass_set:
                np.minimum.at(pass_cut, rows, r)
        alive = rule_idx <= pass_cut[row_idx]
        row_idx, rule_idx = row_idx[alive], rule_idx[alive]

        # rows that hit a *stateful* pass rule → every later match of the
        # row is conditional; route the whole row through the correlator
        pass_cond = np.zeros(n, dtype=bool)
        for rows, r in zip(hit_rows, hit_rules):
            if r in self.stateful_pass_set:
                pass_cond[rows] = True
        pc_flag = pass_cond[row_idx]

        order = np.lexsort((rule_idx, row_idx))
        row_idx, rule_idx, pc_flag = row_idx[order], rule_idx[order], pc_flag[order]

        sids = np.array([r.sid for r in rules], dtype=np.int64)[rule_idx]
        stateful = np.array([r.is_stateful for r in rules], dtype=bool)[rule_idx] | pc_flag
        emits = np.array([r.action == "alert" and not (r.flexbits and r.flexbit_noalert)
                          for r in rules], dtype=bool)[rule_idx]
        emits = emits & ~stateful  # stateful verdicts decided by correlator

        # per-hit extracted fields, filled rule by rule: constant-field
        # rules (no parse_*/json_map/normalize source) fill their matches
        # with one numpy assignment; only dynamic-field rules loop, each
        # over its own matches, reading the field dicts ``_residual``
        # memoized
        m = len(row_idx)
        src_ips = np.full(m, "", dtype=object)
        dst_ips = np.full(m, "", dtype=object)
        src_ports = np.zeros(m, dtype=np.int32)
        dst_ports = np.zeros(m, dtype=np.int32)
        usernames = np.full(m, "", dtype=object)
        needs_username = self.needs_username
        if m and (needs_username or self.any_extract):
            fields = ctx.match_fields
            by_rule = np.argsort(rule_idx, kind="stable")
            runs = np.split(by_rule, np.flatnonzero(np.diff(rule_idx[by_rule])) + 1)
            uname_fallback = None
            for ks in runs:
                ri = int(rule_idx[ks[0]])
                extract, per_match, sp_default, dp_default = self._field_plans[ri]
                rows = row_idx[ks]
                # matches that read the .username fallback
                uks, urows = ks, rows
                if per_match:
                    # matches decided from the columns take their fields
                    # from there, the rest from their field dicts; rows
                    # with neither fall back below
                    on_col = np.zeros(len(ks), dtype=bool)
                    col = ctx.col_fields.get(ri)
                    if col is not None:
                        at = np.minimum(np.searchsorted(col[0], rows), len(col[0]) - 1)
                        on_col = col[0][at] == rows
                        k, at = ks[on_col], at[on_col]
                        src_ips[k], dst_ips[k] = col[1][at], col[2][at]
                        src_ports[k], dst_ports[k] = col[3][at], col[4][at]
                    missed = on_col.copy()
                    for j, (k, i) in enumerate(zip(ks.tolist(), rows.tolist())):
                        if on_col[j]:
                            continue
                        f = fields.get((ri, i))
                        if f is None:
                            f = match_stateless(rules[ri], ctx.row_cache(i),
                                                self.lookups)
                        if f is None:
                            missed[j] = True
                            continue
                        if extract:
                            src_ips[k], dst_ips[k] = f["src_ip"], f["dst_ip"]
                            src_ports[k], dst_ports[k] = f["src_port"], f["dst_port"]
                        if needs_username:
                            usernames[k] = f["username"]
                    uks, urows = ks[missed], rows[missed]
                    ks, rows = ks[missed & ~on_col], rows[missed & ~on_col]
                if extract:
                    # default-port-only rule: constant fields
                    src_ports[ks] = sp_default
                    dst_ports[ks] = dp_default
                if needs_username and len(uks):
                    if uname_fallback is None:
                        uname_fallback = ctx.username_fallback(row_idx)
                    usernames[uks] = uname_fallback[urows]

        # ---- one row per (matched turn × class) ----------------------
        # per-match value arrays built once, then sliced per class with a
        # take — the turn's text is gathered once per class row, never
        # once per rule
        rule_full = pa.array(rule_idx, pa.int32())
        sid_full = pa.array(sids, pa.int64())
        emit_full = pa.array(emits, pa.bool_())
        src_full = pa.array(src_ips, pa.string())
        dst_full = pa.array(dst_ips, pa.string())
        sp_full = pa.array(src_ports, pa.int32())
        dp_full = pa.array(dst_ports, pa.int32())
        un_full = pa.array(usernames, pa.string())

        parts = []
        for cls_val in (False, True):
            sub = np.flatnonzero(stateful == cls_val)
            if len(sub) == 0:
                continue
            rows = row_idx[sub]              # non-decreasing (stable subset
            #                                  of the (row, rule) sort)
            starts = np.flatnonzero(
                np.concatenate(([True], rows[1:] != rows[:-1])))
            offsets = pa.array(
                np.concatenate((starts, [len(rows)])).astype(np.int32))
            parents = rows[starts]
            take_rows = pa.array(parents, pa.int64())
            take_sub = pa.array(sub, pa.int64())

            def lst(full):
                return pa.ListArray.from_arrays(offsets, full.take(take_sub))

            parts.append(pa.Table.from_arrays([
                tbl.column("conv_id").take(take_rows).combine_chunks(),
                tbl.column("turn_idx").take(take_rows).combine_chunks(),
                pa.array(np.full(len(parents), cls_val, dtype=bool)),
                pa.array(pass_cond[parents]),
                pa.array(ctx.ts_epoch[parents], pa.int64()),
                lst(rule_full), lst(sid_full), lst(emit_full),
                lst(src_full), lst(dst_full), lst(sp_full), lst(dp_full),
                lst(un_full),
                pc.cast(tbl.column("text").take(take_rows).combine_chunks(),
                        pa.large_string()),
                tbl.column("role").take(take_rows).combine_chunks(),
                tbl.column("tool").take(take_rows).combine_chunks(),
            ], schema=LIST_MATCH_SCHEMA))
        if not parts:
            return LIST_MATCH_SCHEMA.empty_table()
        return parts[0] if len(parts) == 1 else pa.concat_tables(parts)


# ----------------------------------------------------------------------
# batch context: shared lazily-computed derivations (the batch analog of
# the reference's per-record Parse_IP cache, engine.c:800-843)
# ----------------------------------------------------------------------

class _BatchCtx:
    def __init__(self, text_col: pa.Array, role_np, tool_np, ts_epoch,
                 literals: LiteralSet, ip_width: int = 0):
        self._text = text_col
        self.role_np = role_np
        self.tool_np = tool_np
        self.ts_epoch = ts_epoch
        self._literals = literals
        # nocase → the batch's multi-pattern pass: (pattern index, row) of
        # each hit, and the rows again grouped by pattern with their
        # offsets
        self._passes: dict = {}
        # append_program → rows with a non-ASCII byte
        self._non_ascii: dict = {}
        # append_program → rows holding a fold hazard (see fold_hazards)
        self._fold_hazards: dict = {}
        # (append_program, start, stop, every row?) → (fold rows, their
        # lowercased windows)
        self._lowered: dict = {}
        self._texts_np = None
        self._append = None
        self._slices: dict = {}
        self._factor: dict = {}
        self._eids = None
        self._dow = None
        self._hhmm = None
        self._rc: dict = {}
        # (rule_idx, row) → extracted-field dict, memoized by _residual
        # for reuse in _emit
        self.match_fields: dict = {}
        # rule_idx → (rows, src_ip, dst_ip, src_port, dst_port) arrays of
        # the hits _col_verdicts decided, for _emit
        self.col_fields: dict = {}
        # "ip"/"hash" → (batch-wide ip_columns / hash_columns arrays,
        # rows filled so far), see _by_row
        self._ip_width = ip_width
        self._row_memos: dict = {}
        # (kind, window, pattern) → full-column bool mask — rules sharing
        # a content atom / regex share one kernel pass per batch
        self._masks: dict = {}

    def text(self, append_program: bool):
        if not append_program:
            return self._text
        if self._append is None:
            role = pa.array(self.role_np, pa.large_string())
            self._append = pc.binary_join_element_wise(
                self._text, role, pa.scalar(" | ", pa.large_string()))
        return self._append

    def texts_np(self):
        if self._texts_np is None:
            self._texts_np = self._text.to_numpy(zero_copy_only=False)
        return self._texts_np

    def append_text_row(self, i: int) -> str:
        return f"{self.texts_np()[i]} | {self.role_np[i]}"

    def sliced(self, append_program: bool, start: int, stop):
        key = (append_program, start, stop)
        col = self._slices.get(key)
        if col is None:
            base = self.text(append_program)
            if start == 0 and stop is None:
                col = base
            elif stop is None:
                col = pc.utf8_slice_codeunits(base, start=start)
            else:
                col = pc.utf8_slice_codeunits(base, start=start, stop=stop)
            self._slices[key] = col
        return col

    def factor_mask(self, which: str, regex: str) -> np.ndarray:
        """Anchored-regex mask over a low-cardinality column, computed on
        the unique values only."""
        key = (which, regex)
        m = self._factor.get(key)
        if m is None:
            arr = self.role_np if which == "role" else self.tool_np
            uniq, codes = np.unique(arr.astype(str), return_inverse=True)
            rx = re.compile(regex)
            um = np.array([rx.match(u) is not None for u in uniq], dtype=bool)
            m = um[codes]
            self._factor[key] = m
        return m

    def event_ids(self) -> np.ndarray:
        if self._eids is None:
            # vectorized head-window id extract (event-id.c:61-125):
            # RE2 over the first 12 chars, then enforce the 10-char window
            head = pc.utf8_slice_codeunits(self._text, start=0, stop=12)
            ext = pc.extract_regex(head, r"(?P<pre>^|.*?\s)(?P<eid>\d{1,10}):")
            eid_arr = pc.struct_field(ext, "eid")
            valid = pc.and_kleene(
                pc.is_valid(eid_arr),
                pc.less_equal(pc.utf8_length(pc.struct_field(ext, "pre")),
                              EVENT_ID_HEAD))
            out = pc.if_else(pc.fill_null(valid, False), eid_arr,
                             "").to_numpy(zero_copy_only=False)
            # hazard rows, where RE2's ASCII \s and \d differ from re's
            # (a non-ASCII char, \v or \x1c-\x1f in the head), are
            # decided by extract_event_id itself, as refold does for nocase
            hazard = ~_bool(pc.string_is_ascii(head)) | _bool(
                pc.match_substring_regex(head, "[\x0b\x1c-\x1f]"))
            rows = np.flatnonzero(hazard)
            for i, t in zip(rows.tolist(), self._text.take(rows).to_pylist()):
                out[i] = extract_event_id(t)
            # oracle fallback (RowCache.event_id): when head extraction
            # fails and the message is a JSON object, use its flattened
            # `.event_id` key, from the batch's JSON decode
            rows = np.flatnonzero(self.json_candidates() & (out == ""))
            for i, j in zip(rows.tolist(), self.json_rows(rows)):
                if j is not None:
                    out[i] = j.get(".event_id", "")
            self._eids = out
        return self._eids

    def json_candidates(self) -> np.ndarray:
        m = getattr(self, "_json_cand", None)
        if m is None:
            m = pc.starts_with(pc.utf8_ltrim_whitespace(self._text), "{").to_numpy(
                zero_copy_only=False).astype(bool, copy=False)
            self._json_cand = m
        return m

    def dow(self) -> np.ndarray:
        if self._dow is None:
            # 1970-01-01 was a Thursday; reference aetas uses 0=Sunday
            self._dow = ((self.ts_epoch // 86400) + 4) % 7
        return self._dow

    def hhmm(self) -> np.ndarray:
        if self._hhmm is None:
            sec = self.ts_epoch % 86400
            self._hhmm = (sec // 3600) * 100 + (sec % 3600) // 60
        return self._hhmm

    def literal_hits(self, append: bool, start: int, stop, pattern: str,
                     nocase: bool) -> np.ndarray:
        """Rows whose (start, stop) window contains ``pattern``. Exact,
        but under ``nocase`` only outside ``fold_hazards(append)`` for an
        ASCII pattern, and nowhere for a non-ASCII one (``refold``
        re-decides every row of it). A literal of the batch's
        ``LiteralSet`` is read from the multi-pattern pass: as is when
        unwindowed (the pass is exact there), else as the candidate rows
        of the Arrow kernel over the sliced column (a window is a
        substring of the text, so the full-text hits are a superset).
        Other literals take one Arrow kernel pass each. Memoized."""
        key = ("lit", append, start, stop, pattern, nocase)
        m = self._masks.get(key)
        if m is not None:
            return m
        col = self.sliced(append, start, stop)
        k = self._literals.ids[nocase].get(pattern.lower() if nocase else pattern)
        hits = None
        if not append and k is not None:
            hits = self.pass_mask(nocase, k)
        if hits is None:
            m = _bool(pc.match_substring(col, pattern, ignore_case=nocase))
        elif start == 0 and stop is None:
            m = hits
        else:
            m = _on_rows(col, np.flatnonzero(hits), lambda sub: pc.match_substring(
                sub, pattern, ignore_case=nocase))
        self._masks[key] = m
        return m

    def content_mask(self, append: bool, start: int, stop, pattern: str,
                     nocase: bool) -> np.ndarray:
        """Exact per-row truth of one content atom: ``pattern in win``, or
        ``pattern.lower() in win.lower()`` under ``nocase`` — the test
        ``match_stateless`` makes. ``literal_hits`` (the batch's
        multi-pattern pass for ASCII literals of ≥3 bytes, else one Arrow
        kernel) decides every row it is exact on. Under ``nocase``,
        ``refold`` re-decides the others by that same ``str.lower`` test,
        because both the ASCII-only pass and RE2's ``ignore_case`` fold
        differently from it there (RE2 folds ``s`` ↔ U+017F LONG S,
        ``str.lower`` does not; ``str.lower`` maps U+0130 to ``i`` +
        U+0307, RE2 does not). Memoized."""
        key = ("ct", append, start, stop, pattern, nocase)
        m = self._masks.get(key)
        if m is None:
            m = self.literal_hits(append, start, stop, pattern, nocase)
            if nocase:
                m = self.refold(m, append, start, stop, (pattern,))
            self._masks[key] = m
        return m

    def literal_pass(self, nocase: bool):
        p = self._passes.get(nocase)
        if p is None:
            pid, row = self._literals.scan(self._text, nocase)
            order = np.argsort(pid, kind="stable")
            npats = len(self._literals.ids[nocase])
            p = self._passes[nocase] = (pid, row, row[order], np.searchsorted(
                pid[order], np.arange(npats + 1)))
        return p

    def pass_mask(self, nocase: bool, k: int) -> np.ndarray:
        """Rows the batch's literal pass found pattern ``k`` in."""
        _, _, rows, off = self.literal_pass(nocase)
        m = np.zeros(len(self.ts_epoch), dtype=bool)
        m[rows[off[k]:off[k + 1]]] = True
        return m

    def intel_mask(self, table: str) -> np.ndarray:
        """Rows whose plain text holds a value of intel ``table``:
        ``_zeekintel``'s ``any(v in text for v in table)``, from the
        table's group of the case-sensitive literal pass and one RE2
        alternation of its other values. Memoized."""
        key = ("intel", table)
        m = self._masks.get(key)
        if m is None:
            m = np.zeros(len(self.ts_epoch), dtype=bool)
            member = self._literals.groups.get(table)
            if member is not None and member.any():
                pid, row, _, _ = self.literal_pass(False)
                m[row[member[pid]]] = True
            rx = self._literals.intel_rx.get(table)
            if rx is not None:
                m |= self.regex_mask(False, rx)
            self._masks[key] = m
        return m

    def non_ascii(self, append: bool) -> np.ndarray:
        m = self._non_ascii.get(append)
        if m is None:
            m = self._non_ascii[append] = ~_bool(
                pc.string_is_ascii(self.text(append)))
        return m

    def fold_rows(self, append: bool, pattern: str) -> np.ndarray:
        """Rows where case-insensitive matching of ``pattern`` can differ
        between ``re``'s ``IGNORECASE`` (which also folds U+0131 ↔ ``i``),
        RE2's Unicode folding and an ASCII fold: the rows with a
        non-ASCII character, or every row when the pattern itself is
        non-ASCII."""
        if not pattern.isascii():
            return np.ones(len(self.ts_epoch), dtype=bool)
        return self.non_ascii(append)

    def fold_hazards(self, append: bool) -> np.ndarray:
        """Indices of the rows holding U+0130, U+017F or U+212A: the only
        rows where an ASCII pattern's ``str.lower`` containment, RE2's
        ``ignore_case`` and an ASCII fold can disagree. No other
        non-ASCII code point lowercases to anything holding ASCII, and no
        other RE2 simple case-fold orbit has an ASCII member
        (``tests/test_classify.py`` checks every code point)."""
        rows = self._fold_hazards.get(append)
        if rows is None:
            na = np.flatnonzero(self.non_ascii(append))
            sub = self.text(append).take(pa.array(na, pa.int64()))
            rows = self._fold_hazards[append] = na[_bool(
                pc.match_substring_regex(sub, _FOLD_HAZARD_RX))]
        return rows

    def refold(self, m: np.ndarray, append: bool, start: int, stop,
               patterns) -> np.ndarray:
        """``m`` with the rows where folds can differ re-decided by
        ``match_stateless``'s nocase test, ``any(p.lower() in win.lower()
        for p in patterns)``: the ``fold_hazards`` rows for ASCII
        patterns, every row otherwise."""
        every = not all(p.isascii() for p in patterns)
        key = (append, start, stop, every)
        folded = self._lowered.get(key)
        if folded is None:
            rows = (np.arange(len(m)) if every
                    else self.fold_hazards(append))
            texts = self.texts_np()
            wins = [(self.append_text_row(i) if append else texts[i])[start:stop].lower()
                    for i in rows.tolist()]
            folded = self._lowered[key] = (rows, wins)
        rows, wins = folded
        if not len(rows):
            return m
        hit = np.zeros(len(rows), dtype=bool)
        for p in patterns:
            p = p.lower()
            hit |= [p in w for w in wins]
        out = m.copy()
        out[rows] = hit
        return out

    def regex_mask(self, append: bool, rx: str,
                   literals: tuple[tuple[str, ...], bool] | None = None,
                   start: int = 0, stop=None, exact=None) -> np.ndarray:
        """Full-column regex mask over the (start, stop) window, memoized.
        When the regex has required literals, its ``regex_candidates``
        are the only rows the regex can match: the regex runs on that
        subset only, so the result is still the exact full-column truth
        (and safely memoizable). ``exact``, a pcre's compiled ``re``
        pattern over the whole message, re-decides the candidates among
        ``hazard_rows``, where RE2 can differ from ``re`` (as ``refold``
        does for ``nocase``)."""
        key = ("rx", append, rx, start, stop, exact is not None)
        m = self._masks.get(key)
        if m is not None:
            return m
        col = self.sliced(append, start, stop)
        m = None
        if literals is not None:
            lm = self.regex_candidates(append, start, stop, literals)
            idx = np.flatnonzero(lm)
            if len(idx) * 8 < len(lm):
                m = _on_rows(col, idx, lambda sub: pc.match_substring_regex(sub, rx))
        if m is None:
            m = _bool(pc.match_substring_regex(col, rx))
        if exact is not None:
            rows = self.hazard_rows(append, literals, bool(
                exact.flags & re.IGNORECASE) and not exact.pattern.isascii())
            if len(rows):
                texts = self.text(append).take(pa.array(rows, pa.int64()))
                m = m.copy()
                m[rows] = [exact.search(t) is not None for t in texts.to_pylist()]
        self._masks[key] = m
        return m

    def regex_candidates(self, append: bool, start: int, stop,
                         literals: tuple[tuple[str, ...], bool]) -> np.ndarray:
        """Rows a regex with these required literals can match: the rows
        that hold every one of them. A ``nocase`` literal counts its
        hits plus its fold rows, where RE2 may fold more than the pass
        does. Each literal's rows are a superset of the regex's matches,
        so their intersection is too."""
        runs, nocase = literals
        m = None
        for lit in runs:
            lm = self.literal_hits(append, start, stop, lit, nocase)
            if nocase:
                lm = lm | self.fold_rows(append, lit)
            m = lm if m is None else m & lm
        return m

    def hazard_rows(self, append: bool,
                    literals: tuple[tuple[str, ...], bool] | None,
                    every: bool) -> np.ndarray:
        """Indices of a whole-message regex's candidate rows (those of its
        required ``literals``, or all rows without any) where RE2 and
        ``re`` can decide ``\\w \\d \\s \\b $`` or a case fold differently:
        a non-ASCII char, ``\\v`` or ``\\x1c``–``\\x1f``, or a trailing
        newline. With ``every`` (a case-insensitive non-ASCII pattern,
        which can fold onto ASCII text) every candidate row. Memoized."""
        key = ("hz", append, literals, every)
        rows = self._masks.get(key)
        if rows is None:
            col = self.text(append)
            if literals is None:
                rows = np.arange(len(col))
            else:
                rows = np.flatnonzero(
                    self.regex_candidates(append, 0, None, literals))
            if not every:
                if literals is not None:
                    col = col.take(pa.array(rows, pa.int64()))
                rows = rows[~_bool(pc.string_is_ascii(col)) | _bool(
                    pc.match_substring_regex(col, _RE2_HAZARD_RX))]
            self._masks[key] = rows
        return rows

    def ip_cols(self, rows: np.ndarray) -> IpColumns:
        """``ip_columns`` of ``rows``, computed once per row per batch and
        only for the rows some rule asks for."""
        w = self._ip_width
        return IpColumns(*self._by_row(
            "ip", rows, lambda text: ip_columns(text, w),
            lambda n: (np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64),
                       np.full((n, w), "", dtype=object),
                       np.zeros((n, w), dtype=np.int32),
                       np.full((n, w), -1, dtype=np.int64))))

    def hash_cols(self, rows: np.ndarray) -> list[np.ndarray]:
        """The md5, sha1 and sha256 ``hash_columns`` of ``rows``, computed
        once per row per batch."""
        return self._by_row(
            "hash", rows, lambda text: hash_columns(text).values(),
            lambda n: [np.full(n, "", dtype=object) for _ in range(3)])

    def _memo(self, key: str, blank) -> tuple:
        """(batch-wide arrays from ``blank(n)``, row filled?) of ``key``."""
        memo = self._row_memos.get(key)
        if memo is None:
            n = len(self.ts_epoch)
            memo = self._row_memos[key] = (blank(n), np.zeros(n, dtype=bool))
        return memo

    def _by_row(self, key: str, rows: np.ndarray, compute, blank) -> list:
        """``compute`` (text → arrays with one row per text row) of
        ``rows``, memoized by row: batch-wide arrays from ``blank(n)``,
        filled for the rows asked for so far."""
        cols, done = self._memo(key, blank)
        todo = rows[~done[rows]]
        if len(todo):
            got = compute(self._text.take(pa.array(todo, pa.int64())))
            for full, part in zip(cols, got):
                full[todo] = part
            done[todo] = True
        return [a[rows] for a in cols]

    def json_rows(self, rows: np.ndarray) -> np.ndarray:
        """``try_parse_json_text`` of each of ``rows`` (JSON candidates),
        decoded once per row per batch: the rows not decoded yet in one
        ``take(...).to_pylist()``. Every JSON reader of the batch reads
        it: the ``event_id`` fallback, ``json_decided`` rules, the
        username fallback and, row by row through ``row_cache`` and
        ``json_row``, ``match_stateless``."""
        return self._by_row("json", rows, _decode_json, _no_json)[0]

    def json_row(self, i: int):
        """``json_rows`` of row ``i`` alone: ``match_stateless`` asks row
        by row, where a take costs more than the parse."""
        if not self.json_candidates()[i]:
            return None     # no '{' after leading whitespace: not JSON
        (dec,), done = self._memo("json", _no_json)
        if not done[i]:
            dec[i] = try_parse_json_text(self._text[i].as_py())
            done[i] = True
        return dec[i]

    def row_cache(self, i: int) -> RowCache:
        """Per-row RowCache for match_stateless (shared across rules),
        reading its JSON from the batch's decode."""
        rc = self._rc.get(i)
        if rc is None:
            rc = _BatchRowCache(self, i)
            self._rc[i] = rc
        return rc

    def username_fallback(self, rows: np.ndarray) -> np.ndarray:
        """Per-row ``.username`` JSON fallback (length-n object array) of
        the distinct JSON-candidate rows among ``rows``; the rest read
        ""."""
        out = np.full(len(self.ts_epoch), "", dtype=object)
        uniq = np.unique(rows)
        uniq = uniq[self.json_candidates()[uniq]]
        for i, j in zip(uniq.tolist(), self.json_rows(uniq)):
            if j is not None:
                out[i] = j.get(".username", "")
        return out


class _BatchRowCache(RowCache):
    """A ``RowCache`` whose JSON is the batch context's decode of its row,
    so ``match_stateless`` never parses a row the batch has decoded, nor
    one twice."""

    __slots__ = ("_ctx", "_i")

    def __init__(self, ctx: _BatchCtx, i: int):
        super().__init__(ctx.texts_np()[i], ctx.role_np[i], ctx.tool_np[i],
                         int(ctx.ts_epoch[i]))
        self._ctx = ctx
        self._i = i

    def json(self):
        if not self._json_done:
            self._json = self._ctx.json_row(self._i)
            self._json_done = True
        return self._json


# ----------------------------------------------------------------------

def _and(mask, m):
    return m if mask is None else (mask & m)


def _bool(arr) -> np.ndarray:
    return arr.to_numpy(zero_copy_only=False).astype(bool, copy=False)


def _on_rows(col, idx: np.ndarray, kernel) -> np.ndarray:
    """``kernel``'s row mask over ``col``, evaluated on rows ``idx`` only
    (False on every other row)."""
    m = np.zeros(len(col), dtype=bool)
    if len(idx):
        m[idx] = _bool(kernel(col.take(pa.array(idx, pa.int64()))))
    return m


def _no_json(n: int) -> list[np.ndarray]:
    return [np.full(n, None, dtype=object)]


def _decode_json(text: pa.Array) -> list[np.ndarray]:
    out = np.empty(len(text), dtype=object)
    out[:] = [try_parse_json_text(t) for t in text.to_pylist()]
    return [out]


def _drop_invalid(tbl: pa.Table, config: EngineConfig) -> pa.Table:
    """ValidateMessage + ignore-list pre-filter (src/util.c:1383,
    src/ignore.c:40-56) — cheap short-circuit before rule evaluation."""
    text = tbl.column("text")
    ok = pc.and_kleene(
        pc.is_valid(text),
        pc.not_equal(pc.utf8_trim_whitespace(text), ""))
    ok = pc.fill_null(ok, False)
    for s in config.ignore_list:
        ok = pc.and_(ok, pc.invert(pc.fill_null(pc.match_substring(text, s), False)))
    return tbl.filter(ok)


