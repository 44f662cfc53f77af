"""Unit tests of the per-bucket replay (``stages.correlate``): one call
replays every conversation of a bucket, so conversation boundaries and
checkpoint resume must be exact at that level, not only end to end."""

import pyarrow as pa
import pyarrow.compute as pc

from sagan_ray.config import EngineConfig
from sagan_ray.oracle import ReferenceEvaluator
from sagan_ray.rules import parse_rules
from sagan_ray.stages.classify import RuleClassifier, explode_match_lists
from sagan_ray.stages.correlate import make_list_correlator
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


def _canon(states: dict) -> dict:
    return {c: (st.xbits, st.flexbits, st.after, st.threshold)
            for c, st in states.items()}


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


def test_replay_matches_oracle_verdicts():
    ruleset = parse_rules(RULES + BROAD)
    tbl = gen_transcripts(800, seed=23)
    got = make_list_correlator(ruleset)(_bucket(ruleset, tbl))
    oracle = ReferenceEvaluator(ruleset).evaluate(tbl.to_pylist())
    stateful_sids = {r.sid for r in ruleset if r.is_stateful}
    assert sorted((c, t, s) for c, t, s, _ in _routed(got)) == sorted(
        h for h in oracle.hits if h[2] in stateful_sids)
