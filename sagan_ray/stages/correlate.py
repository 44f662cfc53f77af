"""Per-conversation ordered correlation — the stateful tail of the rule
cascade: xbit/flexbit conditions & sets, ``after``, ``threshold``, and the
pass short-circuit when it depends on state.

Reference semantics: src/xbit-mmap.c (set 60-175, condition 181-408),
src/flexbit-mmap.c (condition 66-843, count 851-918, set 925-1639),
src/after.c:51-229, src/threshold.c:54-234, applied in engine order
engine.c:1370-1453. The reference shares this state across all threads via
mmap; here state is scoped per ``conv_id`` (SURVEY.md §4.3 — the track
fields ≙ conv_id) and rows are replayed in ``(conv_id, turn_idx,
rule_idx)`` order inside one reduce task per bucket of the repo's one
hash exchange (datapipe/exchange.py; the engine's ``_corr_bucket``
reduce), which makes the verdicts exact and deterministic instead of
arrival-order-approximate.

Only *matched* rows of *stateful* rules flow through this stage (the
classify stage already decided every stateless predicate), so the exchange
moves a small fraction of the input. Skew note: a conversation's stateful
matches all land in one bucket; the classify-side reduction bounds bucket
size, and pathological convs degrade to one sequential task without
blocking other buckets.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..rules.model import RuleSet
from ..oracle.evaluator import ReferenceEvaluator, _ConvState
from .classify import LIST_MATCH_SCHEMA


class _Counters:
    """Counter sink for the oracle's after/threshold helpers."""

    def __init__(self):
        self.counters = {"after_total": 0, "threshold_total": 0}


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

    def replay(matches, init_states, out_states):
        """The state machine over (conv, turn, stateful, ts, rule_idx, emit,
        src_ip, dst_ip, src_port, dst_port, username) match tuples sorted
        by (conv, turn, rule). Returns (positions that route, their emit
        verdicts)."""
        keep: list[int] = []
        keep_emit: list[bool] = []
        res = _Counters()
        init = init_states or {}
        st = _ConvState()
        cur_conv = None
        skip_turn = -1  # pass short-circuit: skip remaining matches of turn
        for k, (c, t, sf, now, ri, e, s_ip, d_ip, sp, dp, u) in enumerate(
                matches):
            if c != cur_conv:
                if out_states is not None and cur_conv is not None:
                    out_states[cur_conv] = st
                cur_conv = c
                # checkpoint resume: continue a conversation's state from a
                # prior incremental run (the mmap-persistence analog,
                # reference src/ipc.c:458-733); requires later runs to
                # carry strictly later turn_idx for the conv
                st = init.get(c) or _ConvState()
                skip_turn = -1
            if not sf:
                # stateless verdict is already final (classify stage);
                # pass-through — such rows never touch state, and any row
                # whose fate depends on a stateful pass rule was flagged
                # stateful wholesale by the classifier
                keep.append(k)
                keep_emit.append(bool(e))
                continue
            if t == skip_turn:
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
            suppressed = has_after and helper._after(
                rule, st, s_ip, d_ip, sp, dp, u, now, res)
            if not suppressed and has_thresh:
                suppressed = helper._threshold(
                    rule, st, s_ip, d_ip, sp, dp, u, now, res)
            if suppressed:
                keep_emit.append(False)
                continue

            # ---- sets ------------------------------------------------
            if setunset:
                helper._xbit_set(rule, st, s_ip, d_ip, now)
            for is_set, f in flex_writes:
                if is_set:
                    helper._flexbit_set(f, st, s_ip, d_ip, sp, dp, u, now)
                else:
                    helper._flexbit_unset(f, st, s_ip, d_ip, sp, dp, u)

            if is_pass:
                keep_emit.append(False)
                skip_turn = t
                continue
            keep_emit.append(alerts)

        if out_states is not None and cur_conv is not None:
            out_states[cur_conv] = st
        return keep, keep_emit

    def correlate_lists(tbl: pa.Table, init_states=None, out_states=None) -> pa.Table:
        """Replay one bucket that may hold MANY conversations: per-conv
        state resets at each conv boundary — one Python call per bucket
        instead of one per conversation."""
        if len(tbl) == 0:
            return tbl
        cols = {n: tbl.column(n).combine_chunks() for n in tbl.column_names}
        lens = pc.list_value_length(cols["rule_idx"]).to_numpy().astype(np.int64)
        parent = np.repeat(np.arange(len(tbl), dtype=np.int64), lens)
        flat = {n: pc.list_flatten(cols[n]) for n in (
            "rule_idx", "sid", "emit", "src_ip", "dst_ip", "src_port",
            "dst_port", "username")}

        # (conv, turn, rule) order over the exploded matches; stable, so
        # ties keep the classify emit order
        take_parent = pa.array(parent)
        order = pc.sort_indices(
            pa.table({"c": cols["conv_id"].take(take_parent),
                      "t": cols["turn_idx"].take(take_parent),
                      "r": flat["rule_idx"]}),
            sort_keys=[("c", "ascending"), ("t", "ascending"),
                       ("r", "ascending")]).to_numpy()
        row = parent[order]

        def per_row(name):
            return cols[name].to_numpy(zero_copy_only=False)[row].tolist()

        def per_match(name):
            return flat[name].to_numpy(zero_copy_only=False)[order].tolist()

        keep, keep_emit = replay(zip(
            per_row("conv_id"), per_row("turn_idx"), per_row("stateful"),
            per_row("ts_epoch"), per_match("rule_idx"), per_match("emit"),
            per_match("src_ip"), per_match("dst_ip"), per_match("src_port"),
            per_match("dst_port"), per_match("username")),
            init_states, out_states)
        if not keep:
            return LIST_MATCH_SCHEMA.empty_table()

        # survivors back in exploded (parent-major) order
        pos = order[np.asarray(keep, dtype=np.int64)]
        by_pos = np.argsort(pos, kind="stable")
        keep = pos[by_pos]
        emit_sorted = np.asarray(keep_emit, dtype=bool)[by_pos]

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
