"""The benchmark's workloads: one ruleset each, over the same input.

Every workload runs the same engine path (transcript read → classify →
correlation exchange → replay → counts) over the same generated transcript
mix; they differ in which layer the ruleset makes expensive.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

RULES_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rules")

# the droplist every workload applies (heartbeat noise in the standard mix)
IGNORE_LIST = ("DEBUG heartbeat",)
# generated input turns per op: ~1 s ops on one CPU, and an oracle pass
# (about 4 s) cheap enough to redo for every new seed
TURNS = 20_000


@dataclass(frozen=True)
class Workload:
    name: str
    rule_files: tuple[str, ...]


WORKLOADS = {w.name: w for w in (
    # ~110 rules, 4 stateful: classify-bound, few turns cross the exchange
    Workload("rules_mixed", ("bench_mixed.rules",)),
    # correlation rules plus broad stateful rules on common tokens: most
    # turns cross the exchange and the per-conversation replay dominates
    Workload("correlate_heavy", ("correlate.rules", "broad_stateful.rules")),
)}


def rules_text(w: Workload) -> str:
    parts = []
    for name in w.rule_files:
        with open(os.path.join(RULES_DIR, name), encoding="utf-8") as f:
            parts.append(f.read())
    return "\n".join(parts)


def build(w: Workload):
    """(ruleset, lookups, config) for one workload."""
    from sagan_ray.config import EngineConfig
    from sagan_ray.rules import parse_rules
    from sagan_ray.synth import build_lookups

    return (parse_rules(rules_text(w)), build_lookups(),
            EngineConfig(ignore_list=IGNORE_LIST))
