"""Vectorized stateless rule classification — the Ray Data analog of the
reference's per-record rule loop (/root/reference/src/processors/engine.c:
92-1558), restructured batch-first: every predicate family is evaluated as
a vectorized mask over the whole Arrow batch, per rule, with early exit
when a rule's mask empties. Expensive residual gates (IP extraction,
CIDR/intel lookups, JSON) run only on the rows that survived the cheap
text predicates — the batch equivalent of the reference's
cheapness-ordered short-circuit (doc/source/high-performance.rst:78-93).

Used from plain Ray Data tasks: ``pipelines.engine.run_engine`` maps
batches through a ``RuleClassifier`` that each worker process builds once
per ``compile_key`` and caches — rule compilation (regexes, window plans,
lookup tables) happens once per worker in ``__init__``, never per batch.

Output is the *exploded match table* (MATCH_SCHEMA): one row per (input
row × stateless-matched rule), tagged ``stateful`` when the rule touches
correlation state and therefore still needs the per-conv ordered pass
(sagan_ray.stages.correlate) — or, with ``list_form=True``, the same
matches as LIST_MATCH_SCHEMA rows, one per matched turn × class.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import EngineConfig, Lookups
from ..functions.textutil import (
    EVENT_ID_HEAD,
    prematch_regex,
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

_LIST_COLS = [f.name for f in LIST_MATCH_SCHEMA]


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


def _required_literal(rx: str) -> tuple[str, bool] | None:
    """A literal substring every match of ``rx`` must contain, or None.
    Used to prefilter full-column RE2 scans with a (much cheaper, and
    batch-memoized) substring scan. Conservative: bails on alternation,
    groups and counted repeats; a literal char followed by a quantifier
    is dropped from its run."""
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
    lit = max(runs, key=len)
    return (lit, nocase) if len(lit) >= 4 else None


class _RulePlan:
    """Per-rule compiled evaluation plan (built once per classifier)."""

    __slots__ = ("rule", "prematch_role", "prematch_tool", "meta_regexes",
                 "pcre_re2", "pcre_py", "needs_ips", "needs_json",
                 "needs_hashes", "slow_gates", "jm_fields", "remaps_text")

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

        # meta_content → one RE2 alternation per atom (with its window)
        self.meta_regexes = []
        for mc in rule.meta_contents:
            alt = "|".join(__import__("re").escape(p) for p in mc.patterns)
            rx = ("(?i)" if mc.nocase else "") + "(?:" + alt + ")"
            self.meta_regexes.append((rx, mc))

        self.pcre_re2 = []       # (pattern_with_flags, negated, literal|None)
        self.pcre_py = []        # (compiled, negated)
        for patom in rule.pcres:
            import re as _re
            rx = patom.pattern
            if patom.flags & _re.IGNORECASE:
                rx = "(?i)" + rx
            if patom.flags & _re.DOTALL:
                rx = "(?s)" + rx
            if patom.flags & _re.MULTILINE:
                rx = "(?m)" + rx
            if _re2_ok(rx):
                self.pcre_re2.append((rx, patom.negated, _required_literal(rx)))
            else:
                self.pcre_py.append((patom.compiled(), patom.negated))

        self.needs_ips = rule.needs_ips()
        self.needs_json = bool(rule.json_atoms)
        self.needs_hashes = bool(rule.parse_hash) or "file_hash" in rule.zeekintel
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


class RuleClassifier:
    """Batch classifier. ``__init__`` once per worker (compiles the
    ruleset, loads broadcast lookups); ``__call__`` per Arrow batch."""

    def __init__(self, ruleset, lookups=None, config: EngineConfig | None = None,
                 list_form: bool = False):
        import ray

        if isinstance(ruleset, ray.ObjectRef):
            ruleset = ray.get(ruleset)
        if lookups is not None and isinstance(lookups, ray.ObjectRef):
            lookups = ray.get(lookups)
        # list_form=True emits LIST_MATCH_SCHEMA (one row per matched
        # turn × class) — the engine's exchange path; False emits the
        # exploded MATCH_SCHEMA directly
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
        # per-rule field-fill plan for _explode: (fills ip/port fields?,
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
        self.stateless_pass_idx = [r.idx for r in ruleset
                                   if r.action == "pass" and not r.is_stateful]
        self.stateful_pass_idx = [r.idx for r in ruleset
                                  if r.action == "pass" and r.is_stateful]
        # one RE2 alternation per intel table (compiled once per worker,
        # one kernel pass per kind — not one pass per intel value, which
        # is O(|feed|) kernel launches with a real 100k-entry feed)
        import re as _re

        self._intel_rx: dict[str, str | None] = {}
        for table in ("domain", "url", "software", "filename"):
            vals = sorted(self.lookups.intel_set(table))
            self._intel_rx[table] = (
                "|".join(_re.escape(v) for v in vals) if vals else None)

        # content-atom union groups: all positive atoms sharing a
        # (window, nocase) get ONE union-alternation prescan per batch;
        # per-pattern substring scans then run only on the union-match
        # subset (a row outside the union can't match any member, so the
        # per-pattern result is still exact full-column truth). With
        # many rare-hit signatures this collapses N full scans into one
        # scan + N tiny ones.
        from collections import defaultdict

        grp: dict = defaultdict(set)
        for plan in self.plans:
            prev = 0
            for atom in plan.rule.contents:
                start, stop = atom.window(prev)
                if not atom.negated:
                    grp[(plan.rule.append_program, start, stop,
                         atom.nocase)].add(atom.pattern)
                prev = atom.depth
        # key → (union_regex, member_pattern_set); the subset trick is
        # only valid for member patterns (a negated atom's pattern may
        # share the window without being in the union)
        self.content_groups = {
            key: (("(?i)" if key[3] else "") + "(?:" + "|".join(
                _re.escape(p) for p in sorted(pats)) + ")", frozenset(pats))
            for key, pats in grp.items() if len(pats) >= 3}

    # ------------------------------------------------------------------
    def __call__(self, tbl: pa.Table) -> pa.Table:
        empty = (LIST_MATCH_SCHEMA if self.list_form else MATCH_SCHEMA)
        tbl = _drop_invalid(tbl, self.config)
        n = len(tbl)
        if n == 0:
            return empty.empty_table()

        text_col = pc.cast(tbl.column("text").combine_chunks(), pa.large_string())
        role_np = pc.fill_null(tbl.column("role"), "").to_numpy(zero_copy_only=False)
        tool_np = pc.fill_null(tbl.column("tool"), "").to_numpy(zero_copy_only=False)
        ts_epoch = (tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
                    // 1_000_000)

        ctx = _BatchCtx(text_col, role_np, tool_np, ts_epoch,
                        content_groups=self.content_groups)

        hit_rows: list[np.ndarray] = []
        hit_rules: list[int] = []
        for plan in self.plans:
            idx = self._eval_rule(plan, ctx, n)
            if idx is not None and len(idx):
                hit_rows.append(idx)
                hit_rules.append(plan.rule.idx)
        if not hit_rows:
            return empty.empty_table()

        return self._explode(tbl, ctx, hit_rows, hit_rules)

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
        # masks are memoized per (window, pattern) in the batch ctx, so
        # rules sharing an atom share one kernel pass
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
        meta_prev_depth = 0
        for rx, mc in plan.meta_regexes:
            start, stop = mc.window(meta_prev_depth)
            m = ctx.regex_mask(rule.append_program, rx, start=start, stop=stop)
            if mc.negated:
                m = ~m
            mask = _and(mask, m)
            if not mask.any():
                return mask
            meta_prev_depth = mc.depth

        # ---- pcre via RE2 (src/pcre-s.c); a required literal (if one
        # exists) turns the full-column regex scan into a substring scan
        # + a subset regex over the few literal-matching rows -----------
        for rx, negated, lit in plan.pcre_re2:
            m = ctx.regex_mask(rule.append_program, rx, literal=lit)
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
        # substring scans of the message against small tables — fully
        # vectorizable, and they prefilter the residual for the other
        # kinds; a rule gated on file_hash can only match rows that
        # contain a 32+-char hex run
        if rule.zeekintel:
            for kind, table in (("domain", "domain"), ("url", "url"),
                                ("software", "software"), ("file_name", "filename")):
                if kind in rule.zeekintel:
                    rx = self._intel_rx[table]
                    if rx is None:
                        m = np.zeros(n, dtype=bool)
                    else:
                        m = ctx.regex_mask(rule.append_program, rx)
                    mask = _and(mask, m)
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
    def _residual(self, plan: _RulePlan, ctx: "_BatchCtx", cand: np.ndarray) -> np.ndarray:
        """Per-candidate re-check through ``match_stateless`` — the SAME
        code path the oracle evaluator runs, so residual semantics can
        never drift from the spec. The vectorized masks only prefilter;
        the field dicts are memoized for ``_explode``."""
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
    def _explode(self, tbl: pa.Table, ctx: "_BatchCtx",
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
                if per_match:
                    # rows whose field dict is missing fall back below
                    missed = np.zeros(len(ks), dtype=bool)
                    for j, (k, i) in enumerate(zip(ks.tolist(), rows.tolist())):
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
                    ks, rows = ks[missed], rows[missed]
                if extract:
                    # default-port-only rule: constant fields
                    src_ports[ks] = sp_default
                    dst_ports[ks] = dp_default
                if needs_username and len(ks):
                    if uname_fallback is None:
                        uname_fallback = ctx.username_fallback(row_idx)
                    usernames[ks] = uname_fallback[rows]

        if not self.list_form:
            take = pa.array(row_idx, pa.int64())
            return pa.Table.from_arrays([
                tbl.column("conv_id").take(take).combine_chunks(),
                tbl.column("turn_idx").take(take).combine_chunks(),
                pa.array(rule_idx, pa.int32()),
                pa.array(sids, pa.int64()),
                pa.array(stateful, pa.bool_()),
                pa.array(emits, pa.bool_()),
                pa.array(pc_flag, pa.bool_()),
                pa.array(ctx.ts_epoch[row_idx], pa.int64()),
                pa.array(src_ips, pa.string()),
                pa.array(dst_ips, pa.string()),
                pa.array(src_ports, pa.int32()),
                pa.array(dst_ports, pa.int32()),
                pa.array(usernames, pa.string()),
                pc.cast(tbl.column("text").take(take).combine_chunks(), pa.large_string()),
                tbl.column("role").take(take).combine_chunks(),
                tbl.column("tool").take(take).combine_chunks(),
            ], schema=MATCH_SCHEMA)

        # ---- list-form emit: one row per (matched turn × class) --------
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

    @property
    def stateless_pass_set(self):
        s = getattr(self, "_slp", None)
        if s is None:
            s = self._slp = set(self.stateless_pass_idx)
        return s

    @property
    def stateful_pass_set(self):
        s = getattr(self, "_sfp", None)
        if s is None:
            s = self._sfp = set(self.stateful_pass_idx)
        return s


# ----------------------------------------------------------------------
# batch context: shared lazily-computed derivations (the batch analog of
# the reference's per-record Parse_IP cache, engine.c:800-843)
# ----------------------------------------------------------------------

class _BatchCtx:
    def __init__(self, text_col: pa.ChunkedArray, role_np, tool_np, ts_epoch,
                 content_groups: dict | None = None):
        self._text = text_col
        self.role_np = role_np
        self.tool_np = tool_np
        self.ts_epoch = ts_epoch
        self._content_groups = content_groups or {}
        self._texts_np = None
        self._append = None
        self._slices: dict = {}
        self._factor: dict = {}
        self._eids = None
        self._dow = None
        self._hhmm = None
        self._rc: dict = {}
        # (rule_idx, row) → extracted-field dict, memoized by _residual
        # for reuse in _explode
        self.match_fields: dict = {}
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
            import re as _re

            arr = self.role_np if which == "role" else self.tool_np
            uniq, codes = np.unique(arr.astype(str), return_inverse=True)
            rx = _re.compile(regex)
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
            # oracle fallback (evaluator.py:226-228): when head extraction
            # fails and the message is a JSON object, use its flattened
            # `.event_id` key. Only JSON-candidate rows pay the parse —
            # try_parse_json_text rejects non-'{' texts anyway.
            for i in np.flatnonzero(self.json_candidates()):
                if not out[i]:
                    j = self.json_row(i)
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

    def content_mask(self, append: bool, start: int, stop, pattern: str,
                     nocase: bool) -> np.ndarray:
        key = ("ct", append, start, stop, pattern, nocase)
        m = self._masks.get(key)
        if m is not None:
            return m
        col = self.sliced(append, start, stop)
        gkey = (append, start, stop, nocase)
        grp = self._content_groups.get(gkey)
        if grp is not None and pattern in grp[1]:
            grp_rx = grp[0]
            # union prescan: one pass for the whole (window, nocase)
            # group, then this pattern only on the union-match subset
            gm = self._masks.get(("grp", gkey))
            if gm is None:
                gm = pc.match_substring_regex(col, grp_rx).to_numpy(
                    zero_copy_only=False).astype(bool, copy=False)
                self._masks[("grp", gkey)] = gm
                if gm.mean() > 0.25:
                    # hot union: subsetting can't pay for itself — stop
                    # paying the prescan on future batches (the dict is
                    # shared with the worker-held classifier)
                    self._content_groups.pop(gkey, None)
            idx = np.flatnonzero(gm)
            if len(idx) * 4 < len(gm):
                m = np.zeros(len(gm), dtype=bool)
                if len(idx):
                    sub = col.take(pa.array(idx, pa.int64()))
                    m[idx] = pc.match_substring(
                        sub, pattern, ignore_case=nocase).to_numpy(
                        zero_copy_only=False).astype(bool, copy=False)
                self._masks[key] = m
                return m
        m = pc.match_substring(col, pattern, ignore_case=nocase
                               ).to_numpy(zero_copy_only=False
                                          ).astype(bool, copy=False)
        self._masks[key] = m
        return m

    def regex_mask(self, append: bool, rx: str,
                   literal: tuple[str, bool] | None = None,
                   start: int = 0, stop=None) -> np.ndarray:
        """Full-column regex mask over the (start, stop) window, memoized.
        When the regex has a required literal, scan for the literal first
        (substring kernel, also memoized) and run the regex only on the
        matching subset — rows without the literal cannot match, so the
        result is still the exact full-column truth (and safely
        memoizable)."""
        key = ("rx", append, rx, start, stop)
        m = self._masks.get(key)
        if m is not None:
            return m
        col = self.sliced(append, start, stop)
        if literal is not None:
            lit, lit_nocase = literal
            lm = self.content_mask(append, start, stop, lit, lit_nocase)
            idx = np.flatnonzero(lm)
            if len(idx) * 8 < len(lm):
                m = np.zeros(len(lm), dtype=bool)
                if len(idx):
                    sub = col.take(pa.array(idx, pa.int64()))
                    m[idx] = pc.match_substring_regex(sub, rx).to_numpy(
                        zero_copy_only=False).astype(bool, copy=False)
                self._masks[key] = m
                return m
        m = pc.match_substring_regex(col, rx).to_numpy(
            zero_copy_only=False).astype(bool, copy=False)
        self._masks[key] = m
        return m

    def json_row(self, i: int):
        return self.row_cache(i).json()

    def row_cache(self, i: int) -> RowCache:
        """Per-row RowCache for match_stateless (shared across rules)."""
        rc = self._rc.get(i)
        if rc is None:
            rc = RowCache(self.texts_np()[i], self.role_np[i],
                          self.tool_np[i], int(self.ts_epoch[i]))
            self._rc[i] = rc
        return rc

    def username_row(self, i: int) -> str:
        j = self.json_row(i)
        return j.get(".username", "") if j else ""

    def username_fallback(self, rows: np.ndarray) -> np.ndarray:
        """Per-row ``.username`` JSON fallback (length-n object array),
        parsed once per distinct row of ``rows`` that contains a ``{`` —
        an exact superset of the rows ``try_parse_json_text`` accepts; the
        rest read ""."""
        out = np.full(len(self.ts_epoch), "", dtype=object)
        brace = pc.match_substring(self._text, "{").to_numpy(
            zero_copy_only=False).astype(bool, copy=False)
        uniq = np.unique(rows)
        for i in uniq[brace[uniq]].tolist():
            out[i] = self.username_row(i)
        return out


# ----------------------------------------------------------------------

def _and(mask, m):
    return m if mask is None else (mask & m)


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


