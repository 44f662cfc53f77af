"""RuleClassifier contracts outside oracle parity: batches leave the
compiled classifier untouched, and the Ray driver never loads the
multi-pattern matcher's dependency."""

import os
import pickle
import subprocess
import sys

import pyarrow as pa

from sagan_ray.config import EngineConfig
from sagan_ray.rules import parse_rules
from sagan_ray.stages.classify import RuleClassifier
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


def test_driver_never_imports_polars():
    """The Ray driver imports the engine and classify modules without
    polars; only the workers that compile a classifier import it."""
    code = ("import sys, sagan_ray.pipelines.engine, sagan_ray.stages.classify;"
            "sys.exit('polars' in sys.modules)")
    subprocess.run([sys.executable, "-c", code], cwd=REPO, check=True)
