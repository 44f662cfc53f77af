"""Unit tests of the per-bucket replay (``stages.correlate``): one call
replays every conversation of a bucket, so conversation boundaries and
checkpoint resume must be exact at that level, not only end to end."""

import copy
import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sagan_ray.config import EngineConfig
from sagan_ray.oracle import ReferenceEvaluator
from sagan_ray.rules import parse_rules
from sagan_ray.stages import correlate as correlate_mod
from sagan_ray.stages.classify import RuleClassifier, explode_match_lists
from sagan_ray.stages.correlate import make_list_correlator
from sagan_ray.state.shared import bit_delta_ops, merge_shared_bits
from sagan_ray.state.snapshot import states_to_table
from sagan_ray.synth import gen_transcripts

from .helpers import run_both
from .test_correlation import mk

RULES = """
alert any any any -> any any (msg:"set"; content:"login failed"; xbits: set,brute,track ip_src,expire 600; sid:1;)
alert any any any -> any any (msg:"isset"; content:"login success"; xbits: isset,brute,track ip_src; sid:2;)
alert any any any -> any any (msg:"after1"; content:"EV"; after: track by_src, count 1, seconds 900; sid:3;)
alert any any any -> any any (msg:"lim1"; content:"TV"; threshold: type limit, track by_src, count 1, seconds 900; sid:4;)
alert any any any -> any any (msg:"fset"; content:"mark"; flexbits: set,fb,800; flexbit_noalert; sid:5;)
alert any any any -> any any (msg:"fisset"; content:"probe"; flexbits: isset,none,fb; sid:6;)
"""

# broad rules on common tokens of the generated mix: most turns carry
# state, across many conversations per bucket
BROAD = """
alert any any any -> any any (msg:"broad after"; content:" "; after: track by_src, count 4, seconds 300; sid:7701;)
alert any any any -> any any (msg:"broad threshold"; pcre:"/[a-z]{4}/"; threshold: type limit, track by_src, count 3, seconds 120; sid:7702;)
alert any any any -> any any (msg:"broad xbit set"; content:"e"; xbits: set,seen,track ip_pair,expire 300; sid:7703;)
alert any any any -> any any (msg:"broad xbit isset"; content:"a"; xbits: isset,seen,track ip_pair; sid:7704;)
alert any any any -> any any (msg:"broad flexbit set"; content:"from"; parse_src_ip:1; flexbits: set,fb,600; sid:7705;)
alert any any any -> any any (msg:"broad flexbit count"; content:"user"; parse_src_ip:1; flexbits: count,by_src,>0,fb; sid:7706;)
"""


def _bucket(ruleset, tbl: pa.Table) -> pa.Table:
    """The stateful list rows the exchange would ship for ``tbl``."""
    out = RuleClassifier(ruleset, None, EngineConfig())(tbl)
    return out.filter(out.column("stateful"))


def _routed(tbl: pa.Table) -> list:
    e = explode_match_lists(tbl)
    return sorted(zip(*(e.column(c).to_pylist()
                        for c in ("conv_id", "turn_idx", "sid", "emit"))))


def _canon(states: dict) -> list:
    """Every conv's state with dict insertion order, which the snapshot
    rows follow."""
    return [(c, list(st.xbits.items()), st.flexbits, list(st.after.items()),
             list(st.threshold.items())) for c, st in states.items()]


def _snapshot_sha(states: dict) -> str:
    """sha256 of the state snapshot table written as Arrow IPC."""
    tbl = states_to_table(states)
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, tbl.schema) as w:
        w.write_table(tbl)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


# the snapshot of ``test_resumed_replay_equals_uninterrupted``'s states,
# as the per-match loop alone writes it
RESUMED_SNAPSHOT_SHA = (
    "ccf9ba34111987c5caeac3b035d3a0fa35b0fcf77509314ae56d79d64f0511ba")


def test_nul_conv_ids_replay_as_separate_conversations():
    # "a" sorts right before "a\x00b": a replay that conflated the two
    # (a C-string view of the key) would carry the xbit, the after count
    # and the flexbit across the boundary
    rows = [
        ("a\x00b", 0, "login failed", 0),
        ("a\x00b", 1, "EV", 10),
        ("a\x00b", 2, "mark", 20),
        ("a", 0, "login success", 30),   # no set in "a": isset stays off
        ("a", 1, "EV", 40),              # first EV of "a": suppressed
        ("a", 2, "probe", 50),           # no flexbit in "a"
    ]
    ruleset = parse_rules(RULES)
    out_states: dict = {}
    got = make_list_correlator(ruleset)(_bucket(ruleset, mk(rows)),
                                        init_states={}, out_states=out_states)
    assert _routed(got) == [("a", 1, 3, False),
                            ("a\x00b", 0, 1, True),
                            ("a\x00b", 1, 3, False),
                            ("a\x00b", 2, 5, False)]
    assert set(out_states) == {"a", "a\x00b"}
    assert out_states["a"].xbits == {} and out_states["a"].flexbits == []
    assert ("brute", "") in out_states["a\x00b"].xbits
    # and end to end, through the engine's conv-hash buckets
    oracle, _ = run_both(ruleset, mk(rows))
    assert sorted(oracle.hits) == sorted((c, t, s) for c, t, s, _ in _routed(got))


def test_resumed_replay_equals_uninterrupted():
    ruleset = parse_rules(RULES + BROAD)
    shipped = _bucket(ruleset, gen_transcripts(1500, seed=17))
    assert len(shipped) > 500
    correlate = make_list_correlator(ruleset)

    whole_states: dict = {}
    whole = correlate(shipped, init_states={}, out_states=whole_states)

    # run 1 sees each conversation's first turns, run 2 the rest
    # (resume requires strictly later turns per conversation)
    early = pc.less(shipped.column("turn_idx"), 6)
    first_states: dict = {}
    first = correlate(shipped.filter(early), init_states={},
                      out_states=first_states)
    resumed_states = dict(first_states)
    second = correlate(shipped.filter(pc.invert(early)),
                       init_states=first_states, out_states=resumed_states)

    assert len(first) and len(second)
    assert sorted(_routed(first) + _routed(second)) == _routed(whole)
    assert _canon(resumed_states) == _canon(whole_states)
    assert _snapshot_sha(whole_states) == RESUMED_SNAPSHOT_SHA
    assert _snapshot_sha(resumed_states) == RESUMED_SNAPSHOT_SHA


def test_replay_matches_oracle_verdicts():
    ruleset = parse_rules(RULES + BROAD)
    tbl = gen_transcripts(800, seed=23)
    got = make_list_correlator(ruleset)(_bucket(ruleset, tbl))
    oracle = ReferenceEvaluator(ruleset).evaluate(tbl.to_pylist())
    stateful_sids = {r.sid for r in ruleset if r.is_stateful}
    assert sorted((c, t, s) for c, t, s, _ in _routed(got)) == sorted(
        h for h in oracle.hits if h[2] in stateful_sids)


# one window per kind on its own token; rules that keep nothing but this
# window are decided column-wise (stages/correlate.py module docstring)
WINDOWS = """
alert any any any -> any any (msg:"after"; content:"after-ev"; after: track by_src, count 2, seconds 60; sid:11;)
alert any any any -> any any (msg:"limit"; content:"limit-ev"; threshold: type limit, track by_src, count 1, seconds 60; sid:12;)
alert any any any -> any any (msg:"suppress"; content:"supp-ev"; threshold: type suppress, track by_src, count 1, seconds 60; sid:13;)
"""


def _spy_columns(monkeypatch) -> list:
    """Records how many matches each in-process replay hands to the
    column deciders (the rest go through the per-match loop)."""
    seen = []
    real = correlate_mod._window_verdicts

    def spy(ts, *args):
        seen.append(len(ts))
        return real(ts, *args)

    monkeypatch.setattr(correlate_mod, "_window_verdicts", spy)
    return seen


def _column_matches(ruleset, tbl, monkeypatch) -> int:
    seen = _spy_columns(monkeypatch)
    make_list_correlator(ruleset)(_bucket(ruleset, tbl))
    return sum(seen)


def test_column_path_writes_the_loops_state(monkeypatch):
    """Column and loop windows in the same conversations, whole and
    resumed: the verdicts, every conv's state in insertion order and the
    snapshot bytes equal those of the per-match loop alone."""
    # sids 41 and 42 keep windows the loop decides; their keys interleave
    # with the column keys of sids 3, 4, 7701 and 7702
    ruleset = parse_rules(RULES + BROAD + """
alert any any any -> any any (msg:"after isset"; content:"o"; xbits: isset,seen,track ip_pair; after: track by_src, count 2, seconds 120; sid:41;)
alert any any any -> any any (msg:"after limit"; content:"user"; after: track by_src, count 1, seconds 60; threshold: type limit, track by_src, count 2, seconds 60; sid:42;)
""")
    shipped = _bucket(ruleset, gen_transcripts(1500, seed=29))
    early = pc.less(shipped.column("turn_idx"), 6)

    def run(correlate):
        whole: dict = {}
        out = correlate(shipped, init_states={}, out_states=whole)
        first: dict = {}
        parts = [correlate(shipped.filter(early), init_states={},
                           out_states=first)]
        resumed = dict(first)
        parts.append(correlate(shipped.filter(pc.invert(early)),
                               init_states=first, out_states=resumed))
        return ([_routed(t) for t in [out] + parts],
                _canon(whole), _canon(resumed),
                _snapshot_sha(whole), _snapshot_sha(resumed))

    seen = _spy_columns(monkeypatch)
    got = run(make_list_correlator(ruleset))
    assert sum(seen) > 1000
    monkeypatch.setattr(correlate_mod, "_col_kind", lambda *_: -1)
    assert got == run(make_list_correlator(ruleset))


def test_backwards_ts_takes_the_loop(monkeypatch):
    rows = [("a", 0, "after-ev", 100), ("a", 1, "after-ev", 50),
            ("a", 2, "after-ev", 60), ("a", 3, "after-ev", 70),
            ("a", 4, "after-ev", 300),
            ("b", 0, "after-ev", 0), ("b", 1, "after-ev", 10),
            ("b", 2, "after-ev", 20)]
    run_both(WINDOWS, mk(rows))
    # "b" is decided as a column; "a", whose ts steps back, by the loop
    assert _column_matches(parse_rules(WINDOWS), mk(rows), monkeypatch) == 3


def test_resume_mid_window_in_after_alerting_phase(monkeypatch):
    run1 = [("a", 0, "after-ev", 0), ("a", 1, "after-ev", 10),
            ("a", 2, "after-ev limit-ev supp-ev", 20)]  # after alerts at 20
    run2 = [("a", 3, "after-ev limit-ev supp-ev", 70),  # 50 s on: alerts
            ("a", 4, "after-ev supp-ev", 140),           # 70 s gap: resets
            ("a", 5, "after-ev", 150),
            ("a", 6, "after-ev", 160)]                   # count 3: alerts
    ruleset = parse_rules(WINDOWS)
    correlate = make_list_correlator(ruleset)
    states: dict = {}
    first = correlate(_bucket(ruleset, mk(run1)), init_states={},
                      out_states=states)
    count, utime = states["a"].after[(11, "|0||0|")]
    assert count == 3 and utime - states["a"].threshold[(12, "|0||0|")][1] == 0
    resumed = dict(states)
    seen = _spy_columns(monkeypatch)
    second = correlate(_bucket(ruleset, mk(run2)), init_states=states,
                       out_states=resumed)
    assert sum(seen) == 7   # every resumed window decided as a column

    oracle, _ = run_both(ruleset, mk(run1 + run2))
    assert sorted((c, t, s) for c, t, s, e in _routed(first) + _routed(second)
                  if e) == sorted((c, t, s) for sink, s, c, t in oracle.routed
                                  if sink == "alert")
    assert (("a", 3, 11, True) in _routed(second)
            and ("a", 4, 11, False) in _routed(second))


def test_window_resets_only_past_seconds():
    # 60 s apart stays in the window (the reset test is strictly >), 61 s
    # apart resets it
    rules = WINDOWS.replace("count 2", "count 1")
    rows = [("a", i, "after-ev limit-ev supp-ev", ts)
            for i, ts in enumerate([0, 60, 120, 180, 241, 301, 362])]
    oracle, _ = run_both(rules, mk(rows))
    routed = {s: sorted(t for sink, s2, _, t in oracle.routed
                        if sink == "alert" and s2 == s) for s in (11, 12, 13)}
    assert routed == {11: [1, 2, 3, 5],   # after: a 61 s gap resets
                      12: [0, 2, 4, 6],   # limit: anchor + 60 s stays in
                      13: [0, 4, 6]}      # suppress: a 61 s gap resets


def test_after_with_threshold_stays_in_the_loop(monkeypatch):
    both = """
alert any any any -> any any (msg:"both"; content:"after-ev"; after: track by_src, count 1, seconds 60; threshold: type limit, track by_src, count 1, seconds 60; sid:21;)
"""
    rows = [("a", i, "after-ev", 10 * i) for i in range(6)]
    run_both(both, mk(rows))
    assert _column_matches(parse_rules(both), mk(rows), monkeypatch) == 0


def test_window_after_a_stateful_pass_stays_in_the_loop(monkeypatch):
    rules = """
alert any any any -> any any (msg:"before"; content:"limit-ev"; threshold: type limit, track by_src, count 1, seconds 60; sid:31;)
alert any any any -> any any (msg:"set"; content:"login failed"; xbits: set,brute,track ip_src,expire 600; sid:32;)
pass any any any -> any any (msg:"pass"; content:"login success"; xbits: isset,brute,track ip_src; sid:33;)
alert any any any -> any any (msg:"after"; content:"after-ev"; after: track by_src, count 1, seconds 60; sid:34;)
"""
    rows = [("a", 0, "login failed", 0),
            ("a", 1, "login success after-ev limit-ev", 10),  # pass skips 34
            ("a", 2, "after-ev limit-ev", 20),
            ("a", 3, "after-ev limit-ev", 30)]
    run_both(rules, mk(rows))
    # sid 34's group has a turn the pass rule may cut short, so only sid
    # 31's matches are decided as a column
    assert _column_matches(parse_rules(rules), mk(rows), monkeypatch) == 3


def test_pass_match_in_a_duplicated_turn_takes_the_loop(monkeypatch):
    """Two rows share a (conv, turn): one keeps only a stateless pass
    match (its row also hit a stateful pass rule, so it replays), the
    other an eligible window's match. The pass ends its own row only, so
    the window's match in the other row still alerts; the column path
    leaves that group to the loop."""
    rules = parse_rules("""
pass any any any -> any any (msg:"quiet"; content:"quiet"; sid:51;)
alert any any any -> any any (msg:"after"; content:"after-ev"; after: track by_src, count 0, seconds 60; sid:52;)
pass any any any -> any any (msg:"quiet unless"; content:"quiet"; xbits: isnotset,x,track ip_src; sid:53;)
""")
    rows = [("a", 0, "after-ev", 0), ("a", 1, "quiet", 10),
            ("a", 1, "after-ev", 10), ("a", 2, "after-ev", 20),
            ("b", 0, "after-ev", 0), ("b", 1, "after-ev", 10)]
    shipped = _bucket(rules, mk(rows))
    seen = _spy_columns(monkeypatch)
    got = _routed(make_list_correlator(rules)(shipped))
    assert sum(seen) == 2                # only "b" is decided as a column
    assert ("a", 1, 52, True) in got
    monkeypatch.setattr(correlate_mod, "_col_kind", lambda *_: -1)
    assert got == _routed(make_list_correlator(rules)(shipped))


# xbit rules of each column kind. "seen": two writers with different
# expiries, an isset, an isnotset and an unset; "brute": a set, a
# two-name reader and an unset that often finds no key; "multi": set
# under two keys by a rule that also unsets "seen" and carries an isset
# the loop ignores. "mixed" is also read by an after rule, so it, its
# writer and "chain", which that writer also sets, stay in the loop. The
# stateful pass rule comes first, so it can cut the rest of its row
# short.
XBITS = """
pass any any any -> any any (msg:"pass"; content:"ERROR: block"; threshold: type limit, track by_src, count 1, seconds 30; sid:60;)
alert any any any -> any any (msg:"set seen"; content:"e"; xbits: set,seen,track ip_pair,expire 300; sid:61;)
alert any any any -> any any (msg:"set seen short"; content:"connection from"; parse_src_ip:1; parse_dst_ip:2; xbits: set,seen,track ip_pair,expire 120; sid:62;)
alert any any any -> any any (msg:"isset seen"; content:"a"; xbits: isset,seen,track ip_pair; sid:63;)
alert any any any -> any any (msg:"isnotset seen"; content:"o"; xbits: isnotset,seen,track ip_pair; sid:64;)
alert any any any -> any any (msg:"unset seen"; content:"logout"; xbits: unset,seen,track ip_pair; sid:65;)
alert any any any -> any any (msg:"set brute"; content:"login failed"; xbits: set,brute,track ip_src,expire 600; sid:66;)
alert any any any -> any any (msg:"brute not seen"; content:"login success"; xbits: isset,brute,track ip_src; xbits: isnotset,seen,track ip_dst; sid:67;)
drop any any any -> any any (msg:"unset brute"; content:"user"; xbits: unset,brute,track ip_src; sid:68;)
alert any any any -> any any (msg:"multi"; content:"from"; parse_src_ip:1; xbits: set,multi,track ip_src,expire 50; xbits: unset,seen,track ip_pair; xbits: isset,brute,track ip_src; xbits: set,multi,track ip_dst,expire 70; sid:69;)
alert any any any -> any any (msg:"isset multi"; content:"i"; parse_src_ip:1; xbits: isset,multi,track ip_src; sid:70;)
alert any any any -> any any (msg:"set mixed"; content:"t"; xbits: set,mixed,track ip_dst,expire 200; xbits: set,chain,track ip_src,expire 90; sid:71;)
alert any any any -> any any (msg:"mixed after"; content:"s"; xbits: isset,mixed,track ip_dst; after: track by_src, count 1, seconds 60; sid:72;)
alert any any any -> any any (msg:"isset chain"; content:"n"; xbits: isset,chain,track ip_src; sid:73;)
"""

# hand-made convs: "x" reads brute at exactly its expiry (not live), one
# second before it and, resumed, later; "y" unsets absent keys, sets and
# reads brute in one turn, then leaves it unset (expire 0) for the resumed
# run to read
XBIT_ROWS = [
    ("x", 0, "login failed", 0), ("x", 1, "login success", 600),
    ("x", 2, "login success", 599), ("x", 7, "login success", 100),
    ("y", 0, "user logout", 5), ("y", 1, "login failed login success", 6),
    ("y", 2, "login failed", 10), ("y", 3, "user", 20),
    ("y", 8, "login success", 30),
]


def test_xbit_column_path_writes_the_loops_state(monkeypatch):
    """The xbit column path against the per-match loop alone, whole,
    resumed and resumed from a shared store's view: equal verdicts,
    every conv's state in insertion order, the same snapshot bytes and
    the same shared-store delta."""
    ruleset = parse_rules(XBITS)
    assert [r.sid for r, on in zip(
        ruleset.rules, correlate_mod._xbit_rules(ruleset.rules)) if on] == [
            61, 62, 63, 64, 65, 66, 67, 68, 69, 70]
    # an expiry without int64 headroom keeps its rule in the loop
    assert not correlate_mod._xbit_qualifies(parse_rules(XBITS.replace(
        "expire 300", f"expire {1 << 62}")).rules[1])
    gen = gen_transcripts(1500, seed=31)
    # every 9th turn again, as a second row with the next row's text
    idx = pa.array(range(0, len(gen) - 1, 9))
    dup = gen.take(idx).set_column(
        gen.schema.get_field_index("text"), "text",
        gen.column("text").take(pc.add(idx, 1)))
    tbl = pa.concat_tables([gen, dup, mk(XBIT_ROWS)])
    shipped = _bucket(ruleset, tbl)
    early = pc.less(shipped.column("turn_idx"), 6)

    later = shipped.filter(pc.invert(early))
    convs = set(later.column("conv_id").to_pylist())

    def run(correlate):
        whole: dict = {}
        out = correlate(shipped, init_states={}, out_states=whole)
        first: dict = {}
        parts = [correlate(shipped.filter(early), init_states={},
                           out_states=first)]
        assert first["y"].xbits[("brute", "")] == 0
        # a shared_bits run: the store's view (here the first part's
        # xbits in reverse order) replaces the xbits before the replay
        shared = copy.deepcopy(first)
        pre = merge_shared_bits(shared, convs, [
            (c, n, k, e) for c, st in reversed(list(first.items()))
            for (n, k), e in reversed(list(st.xbits.items()))])
        shared_out = dict(shared)
        resumed = dict(first)
        parts.append(correlate(later, init_states=first, out_states=resumed))
        parts.append(correlate(later, init_states=shared,
                               out_states=shared_out))
        return ([_routed(t) for t in [out] + parts],
                _canon(whole), _canon(resumed), _canon(shared_out),
                _snapshot_sha(whole), _snapshot_sha(resumed),
                _snapshot_sha(shared_out),
                bit_delta_ops(pre, shared_out, convs))

    seen = []
    real = correlate_mod._xbit_verdicts

    def spy(starts, write, *args):
        seen.append(len(write))
        return real(starts, write, *args)

    monkeypatch.setattr(correlate_mod, "_xbit_verdicts", spy)
    got = run(make_list_correlator(ruleset))
    assert sum(seen) > 3000
    routed = set(got[0][0])
    assert ("x", 1, 67, True) not in routed and ("x", 2, 67, True) in routed
    assert ("y", 1, 67, True) in routed and ("y", 8, 67, True) not in routed
    monkeypatch.setattr(correlate_mod, "_xbit_qualifies", lambda rule: False)
    assert got == run(make_list_correlator(ruleset))
    oracle = ReferenceEvaluator(ruleset).evaluate(tbl.to_pylist())
    assert sorted((c, t, s) for c, t, s, _ in got[0][0]) == sorted(oracle.hits)


def _window_mix(seed: int) -> pa.Table:
    """Generated conversations whose texts are WINDOWS' tokens."""
    gen = gen_transcripts(1500, seed=seed)
    tokens = ["after-ev", "limit-ev", "supp-ev", "after-ev limit-ev supp-ev",
              "noise"]
    pick = np.random.default_rng(seed).integers(0, len(tokens), len(gen))
    return gen.set_column(gen.schema.get_field_index("text"), "text",
                          pa.array([tokens[i] for i in pick], pa.large_string()))


def test_discarded_state_changes_no_verdict(monkeypatch):
    """A batch run keeps no state (no ``out_states``): the column deciders
    write nothing back, ``_store`` never runs, and the output equals a
    state-keeping run's, whole and resumed, on each ruleset of the
    column paths."""
    stored = []
    real = correlate_mod._store

    def spy(*args):
        stored.append(len(args[2]))
        return real(*args)

    monkeypatch.setattr(correlate_mod, "_store", spy)
    seen = _spy_columns(monkeypatch)
    for rules, tbl in ((RULES + BROAD, gen_transcripts(1500, seed=17)),
                       (XBITS, gen_transcripts(1500, seed=31)),
                       (WINDOWS, _window_mix(37))):
        ruleset = parse_rules(rules)
        shipped = _bucket(ruleset, tbl)
        early = pc.less(shipped.column("turn_idx"), 6)
        correlate = make_list_correlator(ruleset)
        first: dict = {}
        parts = [shipped, shipped.filter(pc.invert(early))]
        inits = [{}, first]
        correlate(shipped.filter(early), init_states={}, out_states=first)
        for part, init in zip(parts, inits):
            stored.clear()
            kept = correlate(part, init_states=copy.deepcopy(init),
                             out_states={})
            assert stored
            stored.clear()
            assert correlate(part, init_states=copy.deepcopy(init)).equals(kept)
            assert stored == []
    assert sum(seen) > 1000
