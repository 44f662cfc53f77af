"""RuleClassifier contracts outside oracle parity: batches leave the
compiled classifier untouched, a pcre's RE2 scan runs only on the rows
that hold all its required literals, and the Ray driver never loads the
multi-pattern matcher's dependency."""

import os
import pickle
import subprocess
import sys

import pyarrow as pa

from sagan_ray.config import EngineConfig, Lookups
from sagan_ray.oracle.evaluator import RowCache, match_stateless
from sagan_ray.rules import parse_rules
from sagan_ray.stages import classify
from sagan_ray.stages.classify import RuleClassifier, _required_literals
from sagan_ray.synth import gen_transcripts

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
    n = len(texts)
    tbl = pa.table({
        "conv_id": ["c"] * n, "turn_idx": pa.array(range(n), pa.int32()),
        "role": ["user"] * n, "text": pa.array(texts, pa.large_string()),
        "tool": [""] * n, "ts": pa.array([0] * n, pa.timestamp("us"))})
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


def test_driver_never_imports_polars():
    """The Ray driver imports the engine and classify modules without
    polars; only the workers that compile a classifier import it."""
    code = ("import sys, sagan_ray.pipelines.engine, sagan_ray.stages.classify;"
            "sys.exit('polars' in sys.modules)")
    subprocess.run([sys.executable, "-c", code], cwd=REPO, check=True)
