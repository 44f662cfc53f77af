"""RuleClassifier contracts: batches leave the compiled classifier
untouched, a pcre's RE2 scan runs only on the rows that hold all its
required literals, each JSON-candidate row is decoded once per batch,
the fold hazards ``refold`` re-decides are the only ones, a large intel
feed classifies as the oracle does, and the Ray driver never loads the
multi-pattern matcher's dependency."""

import collections
import json
import os
import pickle
import string
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sagan_ray.config import EngineConfig, Lookups
from sagan_ray.oracle.evaluator import RowCache, match_stateless
from sagan_ray.rules import parse_rules
from sagan_ray.stages import classify
from sagan_ray.stages.classify import RuleClassifier, _required_literals
from sagan_ray.synth import build_lookups, gen_transcripts

from .helpers import run_both

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RULES = """
alert any any any -> any any (msg:"a"; content:"alpha"; sid:1;)
alert any any any -> any any (msg:"b"; content:"beta"; sid:2;)
alert any any any -> any any (msg:"g"; content:"gamma"; sid:3;)
alert any any any -> any any (msg:"d"; content:"DELTA"; nocase; sid:4;)
pass  any any any -> any any (msg:"p"; content:"omega"; sid:5;)
alert any any any -> any any (msg:"x"; content:"alpha"; content:!"beta"; sid:6;)
"""


def _with_texts(tbl: pa.Table, texts: list[str]) -> pa.Table:
    i = tbl.schema.get_field_index("text")
    return tbl.set_column(i, "text", pa.array(texts, pa.large_string()))


def _table(texts: list[str]) -> pa.Table:
    n = len(texts)
    return pa.table({
        "conv_id": [f"c{i % 3}" for i in range(n)],
        "turn_idx": pa.array(range(n), pa.int32()),
        "role": ["user"] * n, "text": pa.array(texts, pa.large_string()),
        "tool": [""] * n, "ts": pa.array([0] * n, pa.timestamp("us"))})


def _state(cls: RuleClassifier) -> dict:
    return {k: pickle.dumps(v) for k, v in vars(cls).items()}


def test_batches_leave_the_classifier_unchanged():
    """A batch where one literal hits most rows, then a second batch: the
    classifier's plans and literal set are as compiled, and the second
    batch classifies exactly as on a fresh classifier."""
    rules = parse_rules(RULES)
    base = gen_transcripts(400, seed=5)
    n = len(base)
    hot = _with_texts(base, [f"alpha run {i}" if i % 10 else f"beta {i}"
                             for i in range(n)])
    words = ["alpha", "beta", "gamma", "delta", "omega", "noise"]
    cold = _with_texts(base, [f"{words[i % 6]} {words[(i * 7) % 6].upper()} {i}"
                              for i in range(n)])

    cls = RuleClassifier(rules, None, EngineConfig())
    plans, literals, before = list(cls.plans), cls.literals, _state(cls)
    assert cls(hot).num_rows > n // 2
    out = cls(cold)
    assert cls.plans == plans and cls.literals is literals
    assert (cls.literals.cs, cls.literals.ci) == (
        ("alpha", "beta", "gamma", "omega"), ("delta",))
    assert _state(cls) == before
    fresh = RuleClassifier(rules, None, EngineConfig())(cold)
    assert out.num_rows > 0 and out.equals(fresh)


def test_pcre_scans_only_rows_holding_every_required_literal(monkeypatch):
    """Both literal runs of ``/ERROR: query \\w+ with timeout after \\d+s/``
    join the literal pass, and RE2 runs on the two rows holding both,
    not on the nine holding the common `` with timeout after ``; the
    verdicts are ``match_stateless``'s."""
    pat = r"ERROR: query \w+ with timeout after \d+s"
    runs = ("ERROR: query ", " with timeout after ")
    assert _required_literals(pat) == (runs, False)
    rules = parse_rules(
        f'alert any any any -> any any (msg:"p"; pcre:"/{pat}/"; sid:1;)')
    texts = (["ERROR: query q1 with timeout after 3s"]
             + [f"WARN: scan {i} with timeout after 3s" for i in range(6)]
             + ["ERROR: query q2 with timeout after xs", "ERROR: query q3",
                "ERROR: sort q4 with timeout after 9s"]
             + [f"idle {i}" for i in range(8)])
    tbl = _table(texts)
    cls = RuleClassifier(rules, None, EngineConfig())
    assert set(runs) <= set(cls.literals.cs)
    scanned = []
    on_rows = classify._on_rows
    monkeypatch.setattr(classify, "_on_rows", lambda col, idx, kernel: (
        scanned.append(idx.tolist()) or on_rows(col, idx, kernel)))
    got = cls(tbl).column("turn_idx").to_pylist()
    assert scanned == [[0, 7]]
    assert got == [i for i, t in enumerate(texts) if match_stateless(
        rules.rules[0], RowCache(t, "user", "", 0), Lookups()) is not None]
    assert got == [0]


def test_json_candidate_rows_are_decoded_once(monkeypatch):
    """A JSON rule that takes ``match_stateless`` (first, so it decodes
    its candidate rows one by one before the batch decodes the rest),
    the ``event_id`` fallback, a JSON-only rule and an ``after
    by_username`` rule all read one decode of the batch:
    ``try_parse_json_text`` runs exactly once per JSON-candidate row and
    on no other row, and the verdicts are ``match_stateless``'s."""
    rules = parse_rules("""
alert any any any -> any any (msg:"json ip"; content:"high"; json_content:".severity","high"; parse_src_ip:1; sid:3;)
alert any any any -> any any (msg:"eid"; event_id: 4625; sid:1;)
alert any any any -> any any (msg:"json"; json_content:".severity","high"; sid:2;)
alert any any any -> any any (msg:"user"; content:"login"; after: track by_username, count 1, seconds 60; sid:4;)
""")
    docs = [{"event_id": "4625", "severity": "high", "username": "alice",
             "msg": "login from 10.0.0.1"},
            {"event_id": 4624, "severity": "low", "username": "bob",
             "msg": "login"},
            {"severity": "high", "src": "10.1.2.3", "i": 7},
            {"username": "carol", "note": "login ok"}]
    texts = ([json.dumps(d) for d in docs]
             + [" \t" + json.dumps({"severity": "high", "k": i, "msg": "login"})
                for i in range(3)]
             + ['{"broken": login', "login {not json} from 10.0.0.2",
                "4625: login failure", "plain text"])
    cand = [t for t in texts if t.lstrip().startswith("{")]
    calls = []
    parse = classify.try_parse_json_text
    monkeypatch.setattr(classify, "try_parse_json_text",
                        lambda t: calls.append(t) or parse(t))
    cls = RuleClassifier(rules, None, EngineConfig(), list_form=False)
    out = cls(_table(texts))
    assert collections.Counter(calls) == collections.Counter(cand)
    got = sorted(zip(out.column("turn_idx").to_pylist(),
                     out.column("sid").to_pylist()))
    assert got == sorted(
        (i, r.sid) for i, t in enumerate(texts) for r in rules
        if match_stateless(r, RowCache(t, "user", "", 0), Lookups()) is not None)
    assert {sid for _, sid in got} == {1, 2, 3, 4}


def test_fold_hazards_are_the_only_folds_onto_ascii():
    """Outside U+0130, U+017F and U+212A no code point at or above 0x80
    lowercases to anything holding an ASCII letter, and Arrow's
    ``ignore_case`` match (RE2's fold) folds none onto an ASCII letter,
    so ``refold`` need only re-decide the rows holding those three for
    an ASCII pattern. Exhaustive: new Unicode tables fail here first."""
    hazards = {0x130, 0x17F, 0x212A}
    chars = [chr(c) for c in range(0x80, sys.maxunicode + 1)
             if not 0xD800 <= c <= 0xDFFF and c not in hazards]
    lowered = "\x00".join(c.lower() for c in chars)
    arr = pa.array(chars, pa.string())
    for letter in string.ascii_letters:
        assert letter not in lowered, letter
        hit = pc.match_substring(arr, letter, ignore_case=True)
        assert not pc.any(hit).as_py(), (letter, [
            hex(ord(chars[i])) for i in np.flatnonzero(
                hit.to_numpy(zero_copy_only=False))])
    # the hazards themselves do fold onto ASCII, each in some fold
    assert "i" in "\u0130".lower() and "k" in "\u212a".lower()
    assert pc.match_substring(pa.array(["\u017f", "\u212a"]), "s",
                              ignore_case=True).to_pylist() == [True, False]


def test_nocase_decides_fold_hazard_rows_as_match_stateless():
    """``nocase`` content and meta_content atoms, read from the literal
    pass, the Arrow kernel and RE2 alternations, windowed or not, decide
    rows holding U+0130, U+017F or U+212A by ``str.lower`` and every
    other row, non-ASCII ones included, from the pass or the kernel."""
    rules = parse_rules("""
alert any any any -> any any (msg:"a"; content:"kelvin"; nocase; sid:1;)
alert any any any -> any any (msg:"b"; content:"secret"; nocase; offset:1; sid:2;)
alert any any any -> any any (msg:"c"; content:"i"; nocase; sid:3;)
alert any any any -> any any (msg:"d"; content:"s"; nocase; depth:4; sid:4;)
alert any any any -> any any (msg:"e"; meta_content:"%sagan% sign",kelvin,secret; meta_nocase; sid:5;)
alert any any any -> any any (msg:"f"; meta_content:"%sagan%",k,ss; meta_nocase; sid:6;)
alert any any any -> any any (msg:"g"; meta_content:"%sagan%",kelvin,r\u00e9sum\u00e9; meta_nocase; sid:7;)
alert any any any -> any any (msg:"h"; content:"istanbul"; nocase; sid:8;)
""")
    texts = ["\u212aELVIN sign", "x \u017fecret login", "\u0130stanbul",
             "\u0130", "\u017f", "\u017fs", "r\u00e9sum\u00e9 KELVIN sign",
             "\u00c9t\u00e9 SECRET sign", "Kelvin", "\u212a", "\u0131stanbul",
             "xx \u212a\u212a \u212aelvin", "STRA\u00dfE ss", "plain text"]
    out = RuleClassifier(rules, None, EngineConfig(), list_form=False)(
        _table(texts))
    got = sorted(zip(out.column("turn_idx").to_pylist(),
                     out.column("sid").to_pylist()))
    assert got == [(i, r.sid) for i, t in enumerate(texts) for r in rules
                   if match_stateless(r, RowCache(t, "user", "", 0),
                                      Lookups()) is not None]
    assert (0, 1) in got and (4, 4) not in got and (3, 3) in got


def test_intel_text_kinds_take_a_large_feed():
    """A 100k-value domain feed, where one RE2 alternation of the values
    fails to compile: the literal pass decides its ASCII values, one
    alternation its short and non-ASCII ones, as the oracle does, on the
    column path, the residual and a JSON rule alike."""
    lookups = build_lookups()
    feed = {f"host{i:05d}.example.net" for i in range(99_996)}
    lookups.intel["domain"] = feed | {"evil.example.org", "b\u00fccher.example",
                                      "zq", "host07.example"}
    assert len(lookups.intel["domain"]) == 100_000
    tbl = gen_transcripts(240, seed=11)
    texts = tbl.column("text").to_pylist()
    for i in range(len(texts)):
        if i % 7 == 0:
            texts[i] += f" via host{i * 331:05d}.example.net"
        elif i % 11 == 0:
            texts[i] += " see b\u00fccher.example"
        elif i % 13 == 0:
            texts[i] = "login evil.example.org " + texts[i]
        elif i % 17 == 0:
            texts[i] += " zq"
        elif i % 19 == 0:
            texts[i] = json.dumps({"severity": "critical",
                                   "host": f"host{i:05d}.example.net"})
    tbl = tbl.set_column(tbl.schema.get_field_index("text"), "text",
                         pa.array(texts, pa.large_string()))
    rules = """
alert any any any -> any any (msg:"dom"; zeekintel: domain; sid:1;)
alert any any any -> any any (msg:"dom login"; content:"login"; zeekintel: domain; sid:2;)
alert any any any -> any any (msg:"dom json"; json_content:".severity","critical"; zeekintel: domain; sid:3;)
alert any any any -> any any (msg:"dom url"; zeekintel: domain, url; sid:4;)
"""
    oracle, _ = run_both(rules, tbl, lookups=lookups)
    counts = oracle.hit_counts()
    assert counts[1] > 40 and counts[2] > 0 and counts[3] > 0


def test_driver_never_imports_polars():
    """The Ray driver imports the engine and classify modules without
    polars; only the workers that compile a classifier import it."""
    code = ("import sys, sagan_ray.pipelines.engine, sagan_ray.stages.classify;"
            "sys.exit('polars' in sys.modules)")
    subprocess.run([sys.executable, "-c", code], cwd=REPO, check=True)
