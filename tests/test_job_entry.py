"""End-to-end test of the ``ray job submit`` entry surface
(tools/run_engine_job.py): a fresh subprocess with its own Ray session
runs input → engine → sinks + metrics + stats.json, and a SECOND run
over the same output dir resumes (manifest) without duplicating sink
rows."""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

RULES = """\
alert any any any -> any any (msg:"fail"; content:"login failed"; sid:7001;)
alert any any any -> any any (msg:"isset"; content:"login success"; xbits: isset,brute,track ip_src; sid:7002;)
alert any any any -> any any (msg:"set"; content:"login failed"; xbits: set,brute,track ip_src,expire 600; sid:7003;)
"""


def _mk_input(path: str) -> None:
    from .test_correlation import mk

    rows = [("a", 0, "login failed", 0), ("a", 1, "login success", 10),
            ("b", 0, "login success", 0), ("b", 1, "noise line", 5)]
    os.makedirs(path, exist_ok=True)
    pq.write_table(mk(rows), os.path.join(path, "part-0.parquet"))


def test_run_engine_job_cli(tmp_path):
    inp = str(tmp_path / "in")
    out = str(tmp_path / "out")
    _mk_input(inp)
    rules = tmp_path / "job.rules"
    rules.write_text(RULES)

    env = dict(os.environ, RAY_ADDRESS="local")
    r = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "run_engine_job.py"),
         "--input", inp, "--rules", str(rules), "--output", out,
         "--batch-size", "1024"],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    # sid 7001+7003 fire on 'a'(t0); isset 7002 fires on 'a'(t1) only
    assert summary["sinks"]["alert"] == 3
    assert summary["stats"]["events_received"] == 4
    assert summary["stats"]["saganfound"] == 3

    assert os.path.exists(os.path.join(out, "metrics.parquet"))
    assert os.path.exists(os.path.join(out, "stats.json"))
    # routed rows fan out to every configured sink; the alert partition
    # holds exactly the three firing (conv, turn, sid) rows
    tbl = pq.read_table(os.path.join(out, "sinks", "sink=alert"))
    assert tbl.num_rows == 3
    sids = sorted(tbl.column("sid").to_pylist())
    assert sids == [7001, 7002, 7003]
    # resume: a second run over the same output dir sees every sink
    # partition done in the manifest and rewrites nothing
    r2 = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "run_engine_job.py"),
         "--input", inp, "--rules", str(rules), "--output", out,
         "--batch-size", "1024"],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300)
    assert r2.returncode == 0, r2.stderr[-2000:]
    tbl2 = pq.read_table(os.path.join(out, "sinks", "sink=alert"))
    assert tbl2.num_rows == 3
