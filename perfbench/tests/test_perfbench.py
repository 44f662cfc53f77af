"""Tests of the engine benchmark itself, on tiny inputs:

    python3 -m pytest perfbench/tests -q

Each workload's run prints every metric BENCHMARK.json declares, with its
unit; a wrong expected count comes out as failed ops; a run leaves no
process behind; and without the program next to it the benchmark exits
non-zero and prints no result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [ROOT, BENCH]

from workloads import WORKLOADS  # noqa: E402

TURNS = 1500
SEED = 3


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload: str, trace: int, work_dir, script=os.path.join(BENCH, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--turns", str(TURNS),
         "--work-dir", str(work_dir)],
        capture_output=True, text=True, timeout=600)


def result_of(p) -> tuple[dict, dict]:
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_spec_names_every_workload():
    assert {w["name"] for w in spec()["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    detail, result = result_of(run(workload, trace, tmp_path))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 and detail["error_rate"] == 0
    declared = spec()["per_layer" if trace else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in declared}
            == {k: v["unit"] for k, v in result["metrics"].items()})
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    assert values["sources.rows"] == detail["n_turns"]
    for name in ("stages.classify.busy_s", "stages.correlate.busy_s",
                 "io.sinks.write_s", "io.sinks.rows", "state.snapshot.files",
                 "state.snapshot.load_s"):
        assert values[name] > 0, name


def test_wrong_expected_count_counts_as_failed_ops(tmp_path):
    from inputs import ensure_expected

    path = ensure_expected(str(tmp_path), "rules_mixed", SEED, TURNS)
    with open(path) as f:
        expected = json.load(f)
    expected[0][2] += 1
    with open(path, "w") as f:
        json.dump(expected, f)
    detail, result = result_of(run("rules_mixed", 0, tmp_path))
    assert detail["error_rate"] > 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


# runs the command in its argv as a child of a subreaper, then prints the
# pids of what the command left behind: processes it started that were
# re-parented to the subreaper because they outlived their parents
LEFTOVERS = """
import ctypes, json, os, signal, subprocess, sys
from ops import PR_SET_CHILD_SUBREAPER, child_pids
ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
p = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)
left = child_pids()
for pid in left:
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
print(json.dumps({"returncode": p.returncode, "left": left}))
"""


def test_leaves_no_process_behind(tmp_path):
    p = subprocess.run(
        [sys.executable, "-c", LEFTOVERS, sys.executable,
         os.path.join(BENCH, "run.py"), "--workload", "correlate_heavy",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0",
         "--turns", str(TURNS), "--work-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": BENCH})
    assert p.returncode == 0, p.stderr[-3000:]
    assert json.loads(p.stdout) == {"returncode": 0, "left": []}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run("rules_mixed", 0, tmp_path / "work",
            script=str(tmp_path / "perfbench" / "run.py"))
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
