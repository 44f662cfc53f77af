"""Per-conversation ordered correlation — the stateful tail of the rule
cascade: xbit/flexbit conditions & sets, ``after``, ``threshold``, and the
pass short-circuit when it depends on state.

Reference semantics: src/xbit-mmap.c (set 60-175, condition 181-408),
src/flexbit-mmap.c (condition 66-843, count 851-918, set 925-1639),
src/after.c:51-229, src/threshold.c:54-234, applied in engine order
engine.c:1370-1453. The reference shares this state across all threads via
mmap; here state is scoped per ``conv_id`` (SURVEY.md §4.3 — the track
fields ≙ conv_id) and rows are replayed in ``(conv_id, turn_idx, row,
rule_idx)`` order inside one reduce task per bucket of the repo's one
hash exchange (sagan_ray/exchange.py; the engine's ``_corr_bucket``
reduce), which makes the verdicts exact and deterministic instead of
arrival-order-approximate.

Only *matched* rows of *stateful* rules flow through this stage (the
classify stage already decided every stateless predicate), so the exchange
moves a small fraction of the input. Skew note: a conversation's stateful
matches all land in one bucket; the classify-side reduction bounds bucket
size, and pathological convs degrade to one sequential task without
blocking other buckets.

Three deciders share the replay order. The per-match loop (``replay``)
is the spec and decides every match it is given. A rule is
*column-eligible* when its only state is one ``after`` or one
``threshold`` window: no xbits, no flexbits, not a ``pass`` rule, and no
other rule keeping a window of the same kind under its sid. Such a window
(conv, sid, track key) is read and written by that rule alone, so
``_window_verdicts`` decides all of its matches at once as arrays:
``threshold suppress`` windows are gap-delimited runs, ``threshold
limit`` and ``after`` windows advance every group's anchor per round with
``searchsorted``. A group falls back to the loop when its ``ts``
decreases in replay order (or precedes its resumed ``utime``), when an
earlier ``pass`` match of one of its turns could set ``skip_row`` over it
(a stateful pass rule, or a stateless one in a turn duplicated across
rows), or when it needs more than ``_MAX_ROUNDS`` windows.

The third decider, ``_xbit_verdicts``, takes the rules whose only state
is xbit atoms (no flexbits, after or threshold; not a ``pass`` rule), on
the bit names that no other rule touches (``_xbit_rules``). Such a rule
is a *writer* (any ``set``/``unset``: it always fires, and the loop
ignores its ``isset`` atoms, routing.c:73-86) or a *reader* (only
``isset``/``isnotset``). So every write is known before any verdict: a
reader's atom reads the latest write to its (conv, name, ``_xbit_key``)
at an earlier replay position (``ts + expire`` for a set, 0 for an
unset), else the resumed value, else 0, and is live when that value is
non-zero and above its ``ts``. A conv whose xbit matches an earlier
``pass`` match could skip, or with a ``|ts|`` of ``_LIM`` or more, keeps
all of them in the loop. A ``shared_bits`` run merges the store's view
into the resumed xbits before the replay (state/shared.py), so the
column path reads it as any resumed value.

Final window and xbit states are written back in the loop's dict
insertion order (resumed keys first, then first insertion in replay
order: first occurrence for a window, first ``set`` for an xbit), so
state snapshots are the same bytes whichever decider ran. They are
written back only when the caller keeps the states (``out_states``: the
``state_dir`` and ``shared_bits`` runs). A batch run passes none, so
the column deciders build no writes and read their group keys only for
a resumed lookup; no verdict changes, since the loop never reads a key
the column paths decide.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..rules.model import RuleSet
from ..oracle.evaluator import ReferenceEvaluator, _ConvState
from .classify import LIST_MATCH_SCHEMA

# column-decided window kinds (``_col_kind``; -1 = loop only)
_AFTER, _LIMIT, _SUPPRESS = 0, 1, 2
# track-key fields in ``_track_key``'s "src|sport|dst|dport|user" order
_KEY_FIELDS = ("src_ip", "src_port", "dst_ip", "dst_port", "username")
# window rounds per bucket before the groups still open go to the loop
_MAX_ROUNDS = 64
# |ts|, |utime|, count, seconds and xbit expire stay below this, so no
# int64 sum of two of them overflows (the loop's Python ints never do)
_LIM = 1 << 61
# xbit atom ops and tracks (``_xbit_key``), coded by their index here
_XBIT_OPS = ("set", "unset", "isset", "isnotset")
_SET, _UNSET, _ISSET = 0, 1, 2
_XBIT_TRACKS = ("ip_src", "ip_dst", "ip_pair")


class _Counters:
    """Counter sink for the oracle's after/threshold helpers."""

    def __init__(self):
        self.counters = {"after_total": 0, "threshold_total": 0}


def _col_kind(rule, sid_windows: Counter) -> int:
    """The window kind a rule's matches are decided by as arrays, or -1
    when they stay in the per-match loop (module docstring)."""
    if ((rule.after is None) == (rule.threshold is None) or rule.xbits
            or rule.flexbits or rule.action == "pass"):
        return -1
    spec = rule.after if rule.after is not None else rule.threshold
    if (sid_windows[(rule.after is not None, rule.sid)] > 1
            or not (0 <= spec.count < _LIM and 0 <= spec.seconds < _LIM)):
        return -1
    if rule.after is not None:
        return _AFTER
    return _LIMIT if spec.ttype == "limit" else _SUPPRESS


def _window_verdicts(ts, starts, kind, count, seconds, has0, count0, utime0):
    """Decide column-eligible window groups as arrays.

    ``ts``: event times of the groups' matches, group after group, each
    group in replay order and non-decreasing; ``starts``: each group's
    first index. Per group: window ``kind``, rule ``count``/``seconds``,
    and whether it resumes a stored ``[count0, utime0]``. A resumed group
    gets a virtual leading event at ``utime0`` carrying ``count0``, so
    every group's state starts at a window anchor.

    Returns (suppressed per match, final count and utime per group,
    groups left open after ``_MAX_ROUNDS`` rounds)."""
    m, ng = len(ts), len(starts)
    sizes = np.diff(np.append(starts, m))
    shift = np.cumsum(has0)
    lead = shift - has0                       # virtual events before group
    n = m + int(shift[-1])
    real = np.arange(m) + np.repeat(shift, sizes)
    gs = starts + lead                        # group bounds, with virtuals
    ge = np.append(gs[1:], n)
    gid = np.repeat(np.arange(ng), ge - gs)
    t = np.empty(n, dtype=np.int64)
    t[real] = ts
    t[gs[has0]] = utime0[has0]
    c_first = np.where(has0, count0, 1)       # count at the group start

    # a gap wider than ``seconds`` since the previous event (group starts
    # count as one): resets a suppress window, ends an alerting after run
    gap = np.ones(n, dtype=bool)
    gap[1:] = (t[1:] - t[:-1]) > seconds[gid[1:]]
    gap[gs] = True
    gap_at = np.append(np.flatnonzero(gap), n)

    # window anchors: (index, count there, first alerting index)
    sup = np.flatnonzero(gap & (kind[gid] == _SUPPRESS))
    wins = [(sup, np.where(sup == gs[gid[sup]], c_first[gid[sup]], 1),
             np.full(len(sup), n))]

    # limit / after: every open group's anchor advances once per round;
    # the first event past ``anchor + seconds`` opens the next window,
    # found by one searchsorted over (group, ts rank) keys
    g = np.flatnonzero(kind != _SUPPRESS)
    vals = np.unique(t)
    width = len(vals) + 1
    key = gid * width + np.searchsorted(vals, t)
    a, c, end = gs[g], c_first[g], ge[g]
    capped = np.zeros(ng, dtype=bool)
    for _ in range(_MAX_ROUNDS):
        if not len(g):
            break
        reset = np.searchsorted(
            key, g * width + np.searchsorted(vals, t[a] + seconds[g], "right"))
        # after: the count passes ``count`` at ``alert``; once there, each
        # event alerts and slides utime until a gap resets the window
        alert = np.where(kind[g] == _AFTER,
                         np.minimum(a + np.maximum(0, count[g] - c + 1), end),
                         end)
        nxt = reset
        on = reset > alert
        nxt[on] = gap_at[np.searchsorted(gap_at, alert[on] + 1)]
        wins.append((a, c, alert))
        open_ = nxt < end
        g, a, end = g[open_], nxt[open_], end[open_]
        c = np.ones(len(g), dtype=np.int64)
    capped[g] = True

    wa, wc, walert = (np.concatenate(x) for x in zip(*wins))
    by_a = np.argsort(wa, kind="stable")
    wa, wc, walert = wa[by_a], wc[by_a], walert[by_a]
    idx = np.arange(n)
    w = np.searchsorted(wa, idx, "right") - 1
    cnt = wc[w] + (idx - wa[w])
    suppressed = np.where(kind[gid] == _AFTER, idx < walert[w], cnt > count[gid])
    # a new key's first event: after suppresses it, threshold alerts it
    first = gs[~has0]
    suppressed[first] = kind[~has0] == _AFTER

    last = ge - 1
    wl = w[last]
    slides = (kind == _SUPPRESS) | ((kind == _AFTER) & (walert[wl] <= last))
    utime = np.where(slides, t[last], t[wa[wl]])
    return suppressed[real], cnt[last], utime, capped


def _xbit_qualifies(rule) -> bool:
    """Whether a rule's only state is xbit atoms that the column path can
    decide: no flexbits, after or threshold, not a ``pass`` rule, and
    expiries with int64 headroom (module docstring)."""
    return (bool(rule.xbits) and not rule.flexbits and rule.after is None
            and rule.threshold is None and rule.action != "pass"
            and all(abs(x.expire) < _LIM for x in rule.xbits))


def _xbit_rules(rules) -> np.ndarray:
    """Per rule: its matches are decided by ``_xbit_verdicts``. A bit
    name is column-decided only if every rule that touches it qualifies,
    and a qualifying rule that touches a loop name keeps all its names in
    the loop."""
    loop = {x.name for r in rules if not _xbit_qualifies(r) for x in r.xbits}
    while True:
        more = {x.name for r in rules if any(y.name in loop for y in r.xbits)
                for x in r.xbits}
        if more <= loop:
            break
        loop |= more
    return np.array([_xbit_qualifies(r) and not any(x.name in loop
                                                    for x in r.xbits)
                     for r in rules], dtype=bool)


def _xbit_verdicts(starts, write, wval, ts, v0):
    """Decide xbit atoms as arrays. The atoms of the matches come grouped
    by (conv, name, track key), each group in replay order; ``starts``:
    each group's first index. A ``write`` atom stores ``wval``; any
    other reads the group's latest earlier write, or the group's resumed
    value ``v0`` (0 when none), and sees it live when it is non-zero and
    above the atom's ``ts``.

    Returns (live per atom, each group's last write index or -1)."""
    n = len(ts)
    gid = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, n)))
    last = np.maximum.accumulate(np.where(write, np.arange(n), -1))
    seen = last >= starts[gid]
    val = np.where(seen, wval[last], v0[gid])
    ends = np.append(starts[1:], n) - 1
    return (val != 0) & (ts < val), np.where(seen[ends], last[ends], -1)


def _store(conv_states, conv_idx, writes, inserted):
    """Write column windows and xbits into their conv states in the
    loop's insertion order: resumed keys keep their place; new keys
    go by first insertion in replay order, merged with the keys the
    loop inserted (``inserted``: per state dict, their positions)."""
    writes.sort(key=itemgetter(0))         # stable: keeps atom order
    for attr, loop_new in inserted.items():
        loop_at: dict[int, list[int]] = {}
        for c, p in zip(conv_idx[np.asarray(loop_new, np.int64)].tolist(),
                        loop_new):
            loop_at.setdefault(c, []).append(p)
        pending: dict[int, list] = {}
        for first, c, kind, key, val, resumed in writes:
            if kind != attr:
                continue
            if resumed or c not in loop_at:
                getattr(conv_states[c], attr)[key] = val
            else:
                pending.setdefault(c, []).append((first, key, val))
        for c, new in pending.items():
            d = getattr(conv_states[c], attr)
            lp = loop_at[c]
            tail = list(d.items())[len(d) - len(lp):]
            for key, _ in tail:
                del d[key]
            for _, key, val in sorted(
                    new + [(p, k, v) for p, (k, v) in zip(lp, tail)],
                    key=itemgetter(0)):
                d[key] = val


def make_list_correlator(ruleset: RuleSet):
    """Build the reduce-side replay over ``stages.classify.LIST_MATCH_SCHEMA``
    tables (one row per matched turn × class, per-match list columns).

    Only the SMALL columns are flattened, to Python lists; the (large)
    ``text`` column is never exploded — survivors regroup into list rows
    keyed by their input row, so each surviving turn's text crosses the
    object store once regardless of how many of its rules survive."""

    # Reuse the oracle's state-machine primitives so the correlation
    # semantics have exactly one implementation to diverge from (the
    # stateless half is what the vectorized classifier re-implements).
    helper = ReferenceEvaluator(ruleset)

    # per-rule plan, built once — never re-derived in the per-match loop:
    # (rule, xbit condition?, flexbit isset/isnotset atoms, flexbit count
    #  atoms, after?, threshold?, xbit set/unset?, flexbit (is_set, atom)
    #  writes in rule order, pass?, alerts when it survives?)
    plans = []
    for r in ruleset.rules:
        setunset = any(x.op in ("set", "unset") for x in r.xbits)
        plans.append((
            r,
            bool(r.xbits) and not setunset,
            [f for f in r.flexbits if f.op in ("isset", "isnotset")],
            [f for f in r.flexbits if f.op == "count"],
            r.after is not None,
            r.threshold is not None,
            setunset,
            [(f.op == "set", f) for f in r.flexbits if f.op in ("set", "unset")],
            r.action == "pass",
            r.action == "alert" and not (bool(r.flexbits) and r.flexbit_noalert),
        ))

    # per-rule arrays of the column deciders (module docstring)
    rules = ruleset.rules
    sid_windows = Counter(
        (is_after, r.sid) for r in rules
        for is_after, spec in ((True, r.after), (False, r.threshold))
        if spec is not None)
    col_kind = np.array(
        [_col_kind(r, sid_windows) for r in rules],
        dtype=np.int8)
    specs = [(r.after if r.after is not None else r.threshold) if k >= 0
             else None for r, k in zip(rules, col_kind)]

    def per_rule(attr, dtype):
        return np.array([0 if s is None else getattr(s, attr) for s in specs],
                        dtype)

    col_count = per_rule("count", np.int64)
    col_seconds = per_rule("seconds", np.int64)
    tracked = {f: per_rule(flag, bool) for f, flag in zip(_KEY_FIELDS, (
        "by_src", "by_srcport", "by_dst", "by_dstport", "by_username"))}
    sids = [r.sid for r in rules]
    is_pass = np.array([r.action == "pass" for r in rules], dtype=bool)
    alerts = np.array([p[-1] for p in plans], dtype=bool)

    # the xbit decider's atoms, rule by rule: a writer's set/unset atoms
    # (the loop ignores its isset atoms), a reader's isset/isnotset atoms
    xbit_col = _xbit_rules(rules)
    atoms = [(i, x) for i, (r, p) in enumerate(zip(rules, plans))
             if xbit_col[i] for x in r.xbits
             if (x.op in ("set", "unset")) == p[6]]     # p[6]: a writer
    n_atoms = np.bincount(np.array([i for i, _ in atoms], np.int64),
                          minlength=len(rules))
    atom_at = np.cumsum(n_atoms) - n_atoms
    x_names = sorted({x.name for _, x in atoms})
    a_name = np.array([x_names.index(x.name) for _, x in atoms], np.int64)
    a_track = np.array([_XBIT_TRACKS.index(x.track) for _, x in atoms],
                       np.int8)
    a_op = np.array([_XBIT_OPS.index(x.op) for _, x in atoms], np.int8)
    a_expire = np.array([x.expire for _, x in atoms], np.int64)

    def replay(matches, states):
        """The state machine — the spec every column verdict is checked
        against — over (pos, conv, row, stateful, ts, rule_idx, emit,
        src_ip, dst_ip, src_port, dst_port, username) match tuples sorted
        by (conv, turn, row, rule); ``states`` holds every conv's state.
        Returns (positions that route, their emit verdicts, and per
        state dict the positions that inserted a new key, in order,
        which ``_store`` merges the column keys with)."""
        keep: list[int] = []
        keep_emit: list[bool] = []
        new_after: list[int] = []
        new_thresh: list[int] = []
        new_xbits: list[int] = []
        res = _Counters()
        cur_conv = None
        skip_row = -1  # pass short-circuit: skip remaining matches of row
        for k, c, r, sf, now, ri, e, s_ip, d_ip, sp, dp, u in matches:
            if c != cur_conv:
                cur_conv = c
                st = states[c]
            if not sf:
                # stateless verdict is already final (classify stage);
                # pass-through — such rows never touch state, and any row
                # whose fate depends on a stateful pass rule was flagged
                # stateful wholesale by the classifier
                keep.append(k)
                keep_emit.append(bool(e))
                continue
            if r == skip_row:
                continue
            (rule, xcond, conds, counts, has_after, has_thresh, setunset,
             flex_writes, is_pass, alerts) = plans[ri]

            # ---- state conditions (routing gates) --------------------
            if xcond and not helper._xbit_condition(rule, st, s_ip, d_ip, now):
                continue
            if conds and not helper._flexbit_condition(
                    conds, st, s_ip, d_ip, sp, dp, u, now):
                continue
            if counts and not all(
                    helper._flexbit_count(f, st, s_ip, d_ip, now)
                    for f in counts):
                continue

            keep.append(k)  # saganfound analog

            # ---- after / threshold ----------------------------------
            suppressed = False
            if has_after:
                n = len(st.after)
                suppressed = helper._after(
                    rule, st, s_ip, d_ip, sp, dp, u, now, res)
                if len(st.after) != n:
                    new_after.append(k)
            if not suppressed and has_thresh:
                n = len(st.threshold)
                suppressed = helper._threshold(
                    rule, st, s_ip, d_ip, sp, dp, u, now, res)
                if len(st.threshold) != n:
                    new_thresh.append(k)
            if suppressed:
                keep_emit.append(False)
                continue

            # ---- sets ------------------------------------------------
            if setunset:
                n = len(st.xbits)
                helper._xbit_set(rule, st, s_ip, d_ip, now)
                new_xbits += [k] * (len(st.xbits) - n)
            for is_set, f in flex_writes:
                if is_set:
                    helper._flexbit_set(f, st, s_ip, d_ip, sp, dp, u, now)
                else:
                    helper._flexbit_unset(f, st, s_ip, d_ip, sp, dp, u)

            if is_pass:
                keep_emit.append(False)
                skip_row = r
                continue
            keep_emit.append(alerts)
        return keep, keep_emit, {"after": new_after,
                                 "threshold": new_thresh,
                                 "xbits": new_xbits}

    def decide_columns(cand, skipped, ri, ts, conv_idx, fi, flat, conv_states,
                       resumed, writes):
        """Column verdicts for the candidate positions ``cand`` (replay
        order); ``skipped`` marks positions an earlier pass match of their
        turn may skip. Returns (decided positions, the routed ones (all
        of them), their emit verdicts), and appends the window writes
        ``(first position, conv idx, state dict name, (sid, key), [count,
        utime], resumed?)`` to ``writes`` unless it is None."""
        rc = ri[cand]
        take = pa.array(fi[cand])
        # exactly ``_track_key``'s f"{s}|{sp}|{d}|{dp}|{u}"; a field no
        # candidate tracks is a constant, folded into the separator
        # (each joined part costs a pass over the candidates)
        keys, sep = None, ""
        for i, f in enumerate(_KEY_FIELDS):
            on = tracked[f][rc]
            off = "0" if f.endswith("port") else ""
            sep += "|" * (i > 0)
            if not on.any():
                sep += off
                continue
            col = flat[f].take(take)
            if off:
                col = pc.cast(col, pa.string())
            if not on.all():
                col = pc.if_else(pa.array(on), col, off)
            keys = col if keys is None and not sep else \
                pc.binary_join_element_wise("" if keys is None else keys, col, sep)
            sep = ""
        if keys is None:                        # no field tracked at all
            keys = pa.array([sep] * len(cand), pa.string())
        elif sep:
            keys = pc.binary_join_element_wise(keys, "", sep)
        kcode = pc.dictionary_encode(keys).indices.to_numpy()

        # groups = (conv, rule, key); lexsort is stable, so each group
        # keeps replay order
        rk = rc.astype(np.int64) * (int(kcode.max()) + 1) + kcode
        by_g = np.lexsort((rk, conv_idx[cand]))
        pos, rc, rk = cand[by_g], rc[by_g], rk[by_g]
        ci, t = conv_idx[pos], ts[pos]
        new = np.ones(len(pos), dtype=bool)
        new[1:] = (ci[1:] != ci[:-1]) | (rk[1:] != rk[:-1])
        starts = np.flatnonzero(new)
        gid = np.cumsum(new) - 1
        g_rule, g_conv, g_first = rc[starts], ci[starts], pos[starts]
        g_after = col_kind[g_rule] == _AFTER
        if resumed or writes is not None:
            g_key = keys.take(pa.array(by_g[starts])).to_pylist()

        ng = len(starts)
        has0 = np.zeros(ng, dtype=bool)
        count0 = np.zeros(ng, dtype=np.int64)
        utime0 = np.zeros(ng, dtype=np.int64)
        bad = np.zeros(ng, dtype=bool)
        if resumed:
            for j, (c, r, k, aft) in enumerate(zip(
                    g_conv.tolist(), g_rule.tolist(), g_key, g_after.tolist())):
                st = conv_states[c]
                ent = (st.after if aft else st.threshold).get((sids[r], k))
                if ent is None:
                    continue
                if not (-_LIM < ent[0] < _LIM and -_LIM < ent[1] < _LIM):
                    bad[j] = True
                    continue
                has0[j] = True
                count0[j], utime0[j] = ent
        # the loop keeps groups whose ts decreases (or precedes the
        # resumed utime) or leaves int64 headroom, and groups a pass
        # match may cut short
        step = np.flatnonzero(t[1:] < t[:-1]) + 1
        bad[gid[step[~new[step]]]] = True
        bad[gid[np.abs(t) >= _LIM]] = True
        bad |= has0 & (t[starts] < utime0)
        if skipped is not None:
            bad[gid[skipped[pos]]] = True

        ok = ~bad[gid]
        g = np.flatnonzero(~bad)
        if not len(g):
            return np.empty(0, np.int64), np.empty(0, np.int64), \
                np.empty(0, bool)
        pos, rc, t = pos[ok], rc[ok], t[ok]
        starts = np.flatnonzero(new[ok])
        gr = g_rule[g]
        suppressed, cnt, utime, capped = _window_verdicts(
            t, starts, col_kind[gr].astype(np.int64), col_count[gr],
            col_seconds[gr], has0[g], count0[g], utime0[g])
        keep = ~np.repeat(capped, np.diff(np.append(starts, len(t))))
        if writes is not None:
            g = g[~capped]
            writes += zip(
                g_first[g].tolist(), g_conv[g].tolist(),
                ["after" if a else "threshold" for a in g_after[g].tolist()],
                [(sids[r], g_key[j])
                 for r, j in zip(g_rule[g].tolist(), g.tolist())],
                [[x, y] for x, y in zip(cnt[~capped].tolist(),
                                        utime[~capped].tolist())],
                has0[g].tolist())
        return pos[keep], pos[keep], alerts[rc[keep]] & ~suppressed[keep]

    def decide_xbits(cand, skipped, ri, ts, conv_idx, fi, flat, conv_states,
                     resumed, writes):
        """Column verdicts for the xbit candidate positions ``cand``
        (replay order), in ``decide_columns``' form; every candidate of
        a conv that a pass match could cut short, or with a ``|ts|`` out
        of range, stays in the loop, and so do all of them when a resumed
        value is."""
        empty = (np.empty(0, np.int64), np.empty(0, np.int64),
                 np.empty(0, bool))
        bad = np.zeros(len(conv_states), dtype=bool)
        bad[conv_idx[cand[np.abs(ts[cand]) >= _LIM]]] = True
        if skipped is not None:
            bad[conv_idx[cand[skipped[cand]]]] = True
        cand = cand[~bad[conv_idx[cand]]]
        if not len(cand):
            return empty

        # one event per atom, match by match in replay order
        rc = ri[cand]
        na = n_atoms[rc]
        at = np.cumsum(na) - na
        m = np.repeat(np.arange(len(cand)), na)
        a = np.arange(len(m)) - at[m] + atom_at[rc][m]
        take = pa.array(fi[cand[m]])
        src, dst = flat["src_ip"].take(take), flat["dst_ip"].take(take)
        track = a_track[a]
        # exactly ``_xbit_key``'s src, dst or f"{src}:{dst}"
        keys = pc.if_else(pa.array(track == 0), src, pc.if_else(
            pa.array(track == 1), dst, pc.binary_join_element_wise(
                src, dst, ":")))
        kcode = pc.dictionary_encode(keys).indices.to_numpy()

        # groups = (conv, name, key); lexsort is stable, so each group
        # keeps replay order
        ci, nm = conv_idx[cand[m]], a_name[a]
        by = np.lexsort((kcode, nm, ci))
        ci, nm, kc = ci[by], nm[by], kcode[by]
        new = np.ones(len(by), dtype=bool)
        new[1:] = (ci[1:] != ci[:-1]) | (nm[1:] != nm[:-1]) | (kc[1:] != kc[:-1])
        starts = np.flatnonzero(new)
        op, t = a_op[a][by], ts[cand[m]][by]
        if resumed or writes is not None:
            g_conv = ci[starts].tolist()
            g_key = list(zip([x_names[j] for j in nm[starts].tolist()],
                             keys.take(pa.array(by[starts])).to_pylist()))
        v0 = np.zeros(len(starts), dtype=np.int64)
        had = np.zeros(len(starts), dtype=bool)
        if resumed:
            for j, (c, key) in enumerate(zip(g_conv, g_key)):
                v = conv_states[c].xbits.get(key)
                if v is None:
                    continue
                if not -_LIM < v < _LIM:
                    return empty
                had[j] = True
                v0[j] = v
        write = op <= _UNSET
        wval = np.where(op == _SET, t + a_expire[a][by], 0)
        live, last = _xbit_verdicts(starts, write, wval, t, v0)
        ok = np.empty(len(m), dtype=bool)
        ok[by] = write | (live == (op == _ISSET))   # isnotset: not live
        fires = np.logical_and.reduceat(ok, at)
        if writes is None:
            return cand, cand[fires], alerts[rc[fires]]

        # final values: a resumed key keeps its place (its position is
        # not used); a new key is inserted by its first set (an unset of
        # an absent key inserts nothing), in (position, atom) order
        sets = np.flatnonzero(op == _SET)
        g_set, first_set = np.unique(np.cumsum(new)[sets] - 1,
                                     return_index=True)
        first = np.full(len(starts), -1, dtype=np.int64)
        first[g_set] = by[sets[first_set]]
        g = np.flatnonzero((last >= 0) & (had | (first >= 0)))
        g = g[np.argsort(first[g], kind="stable")]
        writes += zip(
            cand[m[np.maximum(first[g], 0)]].tolist(), [g_conv[j] for j in g],
            ["xbits"] * len(g), [g_key[j] for j in g],
            wval[last[g]].tolist(), had[g].tolist())
        return cand, cand[fires], alerts[rc[fires]]

    def correlate_lists(tbl: pa.Table, init_states=None,
                        out_states=None) -> pa.Table:
        """Replay one bucket that may hold MANY conversations: per-conv
        state resets at each conv boundary — one Python call per bucket
        instead of one per conversation. Column-eligible windows and
        xbits are decided as arrays first; the loop decides the rest
        (including what the column paths leave to it), the column states
        are then written into ``out_states`` in the loop's insertion
        order, and all verdict sets merge back in exploded order (module
        docstring). The loop updates the ``init_states`` entries in
        place; without ``out_states`` no column state is written into
        them, so they are no state to resume from."""
        if len(tbl) == 0:
            return tbl
        cols = {n: tbl.column(n).combine_chunks() for n in tbl.column_names}
        lens = pc.list_value_length(cols["rule_idx"]).to_numpy().astype(np.int64)
        parent = np.repeat(np.arange(len(tbl), dtype=np.int64), lens)
        flat = {n: pc.list_flatten(cols[n]) for n in (
            "rule_idx", "sid", "emit", "src_ip", "dst_ip", "src_port",
            "dst_port", "username")}

        # (conv, turn, row, rule) order over the exploded matches: a turn
        # duplicated across rows replays row by row, as the oracle
        # evaluates each row as its own record; rows arrive in input
        # order (run_engine keeps block order), also across blocks. Classify emits each row's
        # matches in rule order, so unless two rows share a (conv, turn)
        # the row order, exploded, is that order
        by_ct = [("c", "ascending"), ("t", "ascending")]
        by_row = pc.sort_indices(pa.table(
            {"c": cols["conv_id"], "t": cols["turn_idx"]}), sort_keys=by_ct)
        c_row = cols["conv_id"].take(by_row)
        t_row = cols["turn_idx"].take(by_row)
        shared = pc.and_(pc.equal(c_row[1:], c_row[:-1]),
                         pc.equal(t_row[1:], t_row[:-1]))
        ri = flat["rule_idx"].to_numpy()
        ends = np.cumsum(lens)
        rising = np.diff(ri) > 0
        b = ends[:-1]
        rising[b[(b > 0) & (b < len(ri))] - 1] = True   # row boundaries
        if rising.all() and not pc.any(shared.fill_null(True)).as_py():
            by_row = by_row.to_numpy()
            n_of = lens[by_row]
            order = (np.repeat(ends[by_row] - np.cumsum(n_of), n_of)
                     + np.arange(len(parent)))
        else:
            take_parent = pa.array(parent)
            order = pc.sort_indices(pa.table({
                "c": cols["conv_id"].take(take_parent),
                "t": cols["turn_idx"].take(take_parent),
                "p": take_parent,
                "r": flat["rule_idx"]}),
                sort_keys=by_ct + [("p", "ascending"),
                                   ("r", "ascending")]).to_numpy()
        row = parent[order]

        # every conv of the bucket, in replay order (resumed or new state)
        conv_code = pc.dictionary_encode(cols["conv_id"]).indices.fill_null(
            -1).to_numpy()[row]
        conv_new = np.ones(len(order), dtype=bool)
        conv_new[1:] = conv_code[1:] != conv_code[:-1]
        conv_idx = np.cumsum(conv_new) - 1
        conv_names = cols["conv_id"].take(pa.array(row[conv_new])).to_numpy(
            zero_copy_only=False).tolist()
        init = init_states or {}
        states = {c: init.get(c) or _ConvState() for c in conv_names}
        conv_states = list(states.values())     # by conv_idx

        ri = ri[order]
        sf = cols["stateful"].to_numpy(zero_copy_only=False)[row]
        cand = np.flatnonzero((col_kind[ri] >= 0) & sf)
        xcand = np.flatnonzero(xbit_col[ri] & sf)
        decided = []        # per column decider: (positions, kept, emit)
        # the column states, only when the caller keeps the states
        writes = None if out_states is None else []
        if (len(cand) or len(xcand)) and not any(x.null_count for x in (
                cols["ts_epoch"], cols["turn_idx"],
                *(flat[f] for f in _KEY_FIELDS))):
            # an earlier pass match of the same row may set ``skip_row``
            # over a candidate; checked per turn, which covers every row
            # of a duplicated turn
            skipped = None
            passed = is_pass[ri] & sf
            if passed.any():
                t = cols["turn_idx"].to_numpy()[row]
                seg = np.flatnonzero(conv_new | np.concatenate(
                    ([True], t[1:] != t[:-1])))
                before = np.cumsum(passed) - passed
                seg_of = np.searchsorted(seg, np.arange(len(order)), "right") - 1
                skipped = before > before[seg[seg_of]]
            ts = cols["ts_epoch"].to_numpy()[row]
            for c, decide in ((cand, decide_columns), (xcand, decide_xbits)):
                if len(c):
                    decided.append(decide(c, skipped, ri, ts, conv_idx, order,
                                          flat, conv_states, bool(init),
                                          writes))
        rest = np.arange(len(order))
        if decided:
            loop_mask = np.ones(len(order), dtype=bool)
            for done, _, _ in decided:
                loop_mask[done] = False
            rest = np.flatnonzero(loop_mask)
        # the loop's columns, as Python values of its matches only
        rrow = row[rest]
        take_row, take_fi = pa.array(rrow), pa.array(order[rest])

        def per_row(name):
            return cols[name].take(take_row).to_numpy(
                zero_copy_only=False).tolist()

        def per_match(name):
            return flat[name].take(take_fi).to_numpy(
                zero_copy_only=False).tolist()

        keep, keep_emit, inserted = replay(zip(
            rest.tolist(), per_row("conv_id"), rrow.tolist(),
            per_row("stateful"), per_row("ts_epoch"), per_match("rule_idx"),
            per_match("emit"), per_match("src_ip"), per_match("dst_ip"),
            per_match("src_port"), per_match("dst_port"),
            per_match("username")), states)
        if writes:
            _store(conv_states, conv_idx, writes, inserted)
        if out_states is not None:
            out_states.update(states)
        keep = np.concatenate([np.asarray(keep, dtype=np.int64)]
                              + [k for _, k, _ in decided])
        if not len(keep):
            return LIST_MATCH_SCHEMA.empty_table()
        emit = np.concatenate([np.asarray(keep_emit, dtype=bool)]
                              + [e for _, _, e in decided])

        # survivors back in exploded (parent-major) order
        kept = np.zeros(len(order), dtype=bool)
        kept[order[keep]] = True
        emit_at = np.zeros(len(order), dtype=bool)
        emit_at[order[keep]] = emit
        keep = np.flatnonzero(kept)
        emit_sorted = emit_at[keep]

        # regroup survivors by parent row (parent is globally
        # non-decreasing, so sorted ``keep`` keeps runs contiguous and
        # preserves within-turn rule order)
        p = parent[keep]
        starts = np.flatnonzero(np.concatenate(([True], p[1:] != p[:-1])))
        offsets = pa.array(
            np.concatenate((starts, [len(p)])).astype(np.int32))
        take_rows = pa.array(p[starts], pa.int64())
        keep_arr = pa.array(keep, pa.int64())

        def lst(name):
            return pa.ListArray.from_arrays(offsets, flat[name].take(keep_arr))

        return pa.Table.from_arrays([
            cols["conv_id"].take(take_rows),
            cols["turn_idx"].take(take_rows),
            cols["stateful"].take(take_rows),
            cols["pass_conditional"].take(take_rows),
            cols["ts_epoch"].take(take_rows),
            lst("rule_idx"), lst("sid"),
            pa.ListArray.from_arrays(offsets, pa.array(emit_sorted, pa.bool_())),
            lst("src_ip"), lst("dst_ip"), lst("src_port"), lst("dst_port"),
            lst("username"),
            cols["text"].take(take_rows),
            cols["role"].take(take_rows),
            cols["tool"].take(take_rows),
        ], schema=LIST_MATCH_SCHEMA)

    return correlate_lists
