"""tools/peek_state.py — the saganpeek analog (reference
tools/saganpeek.c, doc/source/saganpeek.rst): dump active
after/threshold/xbit/flexbit entries from a run_engine state_dir.
Driven against a REAL engine-written state dir, plus direct checks of
the active/inactive filter and the type selector."""

import os
import subprocess
import sys

from sagan_ray.config import EngineConfig
from sagan_ray.pipelines.engine import run_engine
from sagan_ray.rules import parse_rules
from sagan_ray.synth import build_lookups

from .test_correlation import mk
from .test_incremental_state import ROWS, RULES

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = "tools/peek_state.py"


def _mk_state(tmp_path):
    import ray.data as rd

    state_dir = str(tmp_path / "state")
    rules = parse_rules(RULES)
    run_engine(rd.from_arrow(mk(ROWS[:5])), rules, build_lookups(),
               EngineConfig(), batch_size=512, state_dir=state_dir)
    return state_dir


def test_peek_state_cli_and_filters(tmp_path, ray_session):
    state_dir = _mk_state(tmp_path)

    # CLI smoke: -a shows every kind section incl. the (by watermark
    # 830 already-expired) brute xbit
    out = subprocess.run(
        [sys.executable, TOOL, state_dir, "-a"], cwd=REPO,
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    for kind in ("after", "threshold", "xbit", "flexbit"):
        assert f"*** {kind}" in out.stdout
    assert '"brute"' in out.stdout           # xbit set by sid 1
    assert '"fb"' in out.stdout              # flexbit set by sid 5

    # type filter: only the requested section appears
    out = subprocess.run(
        [sys.executable, TOOL, state_dir, "-t", "after"], cwd=REPO,
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0
    assert "*** after" in out.stdout and "*** xbit" not in out.stdout

    # active vs expired: at stream time +30 s the brute xbit
    # (expire 600) is active; at +10_000 s it is expired unless -a
    from tools.peek_state import load_state_table, select_entries

    from .test_correlation import T0

    base = int(T0.timestamp())
    tbl = load_state_table(state_dir)
    assert len(select_entries(tbl, ("xbit",), at=base + 30)["xbit"]) == 1
    assert select_entries(tbl, ("xbit",), at=base + 10_000)["xbit"] == []
    assert len(select_entries(tbl, ("xbit",), at=base + 10_000,
                              show_all=True)["xbit"]) == 1
    # counters always shown: sid 3 after + sid 4 threshold for conv a,
    # sid 3 after for conv b
    ent = select_entries(tbl, ("after", "threshold"), at=10_000)
    assert {r["sid"] for r in ent["after"]} == {3}
    assert len(ent["after"]) == 2
    assert [r["sid"] for r in ent["threshold"]] == [4]


def test_peek_state_rejects_non_state_dir(tmp_path):
    out = subprocess.run(
        [sys.executable, TOOL, str(tmp_path)], cwd=REPO,
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert "Abort" in out.stderr
