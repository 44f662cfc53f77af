"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship parse→enrich→classify→correlate→route
pipeline over transcripts derived from ``/root/testdata/sf0.001``;
``queries()`` / ``oracle_sql()`` expose every implemented operator family
(SURVEY.md §2 + the training-data ops) with DuckDB oracles where the
semantics are SQL-expressible.

Ray is initialised by the driver BEFORE this module is imported — nothing
here (or in sagan_ray) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on sf0.001: events → transcripts → full rule
    engine (content/pcre/json/enrich/correlation) → per-(sink, sid) alert
    counts."""
    from sagan_ray.config import EngineConfig
    from sagan_ray.pipelines.engine import run_engine
    from sagan_ray.pipelines.queries import (
        RS_CONTENT,
        RS_ROUTING,
        RS_STATEFUL,
        _transcripts,
        routed_counts_df,
    )
    from sagan_ray.rules import parse_rules
    from sagan_ray.synth import build_lookups

    ruleset = parse_rules(RS_CONTENT + RS_ROUTING + RS_STATEFUL)
    eng = run_engine(_transcripts("/root/testdata/sf0.001"), ruleset,
                     build_lookups(), EngineConfig())
    # per-(sink, sid) counts ride the correlation exchange's inline
    # partials (routed_counts) — no explode + shuffle + groupby pass
    return routed_counts_df(eng)


def queries() -> dict[str, Callable[[str], Any]]:
    from sagan_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from sagan_ray.pipelines.queries import ORACLES

    return dict(ORACLES)
