"""Engine benchmark: one client running engine ops in a closed loop over
generated transcript Parquet, on a private local Ray session.

    python3 perfbench/run.py --workload rules_mixed --seed 1 --seconds 10 --trace 0

``--trace 0`` times ops and reports the end-to-end metrics; ``--trace 1``
runs the per-layer trace instead (layers.py). The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds details (op count, error rate, tail percentile, input size).
An op that raises or whose output differs from the oracle counts as failed,
and the run goes on. Without an importable ``sagan_ray`` next to this
directory the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# set-ups (ray.init + first op) per run; the median is reported
SETUP_REPS = 3
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


class OpLog:
    """Attempted and failed ops, with the wall seconds of every op that ran
    to the end (``walls``) and of those among them whose output was wrong
    (``wrong_walls``)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []
        self.wrong_walls: list[float] = []

    def attempt(self, op, /, **kwargs) -> float | None:
        from ops import WrongOutput

        self.attempted += 1
        try:
            wall = op(**kwargs)
        except WrongOutput as e:
            self.failed += 1
            self.wrong_walls.append(e.wall)
            print(f"perfbench: {e}", file=sys.stderr)
            return None
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.walls.append(wall)
        return wall

    def until(self, op, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        first = True
        while first or time.perf_counter() < deadline:
            first = False
            self.attempt(op)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs, from the first line of /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(v) for v in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def tail_percentile(walls: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten ops beyond it."""
    n = len(walls)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(walls, n=100, method="inclusive")[p - 1]
    return None


def prepare(args, work_dir: str) -> tuple[str, str]:
    """Generate the input and the oracle counts in a child process."""
    from inputs import expected_path, input_dir

    subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--turns", str(args.turns), "--work-dir", work_dir],
                   check=True, stdout=sys.stderr)
    return (input_dir(work_dir, args.seed, args.turns),
            expected_path(work_dir, args.workload, args.seed, args.turns))


def timed_run(op, log: OpLog, seconds: float, n_turns: int,
              work_dir: str) -> tuple[dict, dict] | None:
    """``SETUP_REPS`` sessions, each set up (``ray.init`` + first op) and
    then timed for an equal share of ``seconds``: pooling the timed ops of
    several sessions averages out how one session's processes happened to
    be placed on the host's CPUs."""
    from ops import metric, start_ray, stop_ray

    setups, walls, wrong_walls = [], [], []
    ticks0 = cpu_ticks()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        start_ray(work_dir, ROOT)
        log.attempt(op)
        setups.append(time.perf_counter() - t0)
        warm = len(log.walls), len(log.wrong_walls)
        log.until(op, seconds / SETUP_REPS)
        walls += log.walls[warm[0]:]
        wrong_walls += log.wrong_walls[warm[1]:]
        stop_ray()
    # wrong-output ops still ran the whole engine path, so their times
    # stand in when no op was right (the result then reads correct=false)
    walls = walls or wrong_walls
    if not walls:
        return None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "turns_per_s": metric(statistics.median(n_turns / w for w in walls), "1/s"),
        "op_s_p50": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "driver_rss_mb": metric(rss_mb, "MB"),
    }
    # CPU time the hypervisor gave to other guests during the run: on a
    # shared virtual machine, the usual cause of runs that read slow
    steal, total = (b - a for a, b in zip(ticks0, cpu_ticks()))
    detail = {"timed_ops": len(walls), "setup_reps": SETUP_REPS,
              "host_steal_share": steal / total if total else 0.0}
    tail = tail_percentile(walls)
    if tail is not None:
        detail[f"op_s_p{tail[0]}"] = tail[1]
    return metrics, detail


def main(argv=None) -> int:
    from workloads import TURNS, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--turns", type=int, default=TURNS, help="input turns")
    ap.add_argument("--work-dir", default=os.path.join(ROOT, ".bench_run"),
                    help="cache, scratch and Ray temp dir")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    work_dir = os.path.abspath(args.work_dir)

    try:
        import sagan_ray
    except ImportError as e:
        print(f"perfbench: cannot import sagan_ray: {e}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(sagan_ray.__file__))) != ROOT:
        print(f"perfbench: sagan_ray is not the one in {ROOT}", file=sys.stderr)
        return 2
    import pyarrow.parquet as pq

    from inputs import load_expected
    from ops import EngineOp, adopt_descendants, nproc, stop_ray

    # every process started from here on is stopped and waited for before
    # the benchmark exits, also when it is told to stop with SIGTERM
    adopt_descendants()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    in_dir, exp_path = prepare(args, work_dir)
    n_turns = pq.read_table(in_dir, columns=["turn_idx"]).num_rows
    scratch = os.path.join(work_dir, "ops")
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.rmtree(os.path.join(work_dir, "ray"), ignore_errors=True)
    op = EngineOp(workload, in_dir, load_expected(exp_path), scratch)
    log = OpLog()
    try:
        if args.trace:
            from layers import traced_run

            out = traced_run(op, log, args.seconds, n_turns, ROOT, work_dir,
                             args.seed)
        else:
            out = timed_run(op, log, args.seconds, n_turns, work_dir)
    finally:
        stop_ray()
        shutil.rmtree(scratch, ignore_errors=True)
    if out is None:
        print(f"perfbench: no op of {workload.name} ran to the end "
              f"({log.failed} of {log.attempted} failed)", file=sys.stderr)
        return 3
    metrics, detail = out
    detail.update({"workload": workload.name, "seed": args.seed,
                   "nproc": nproc(), "n_turns": n_turns,
                   "attempted": log.attempted, "failed": log.failed,
                   "error_rate": log.error_rate})
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": log.failed == 0, "attempted": log.attempted,
                      "failed": log.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.path[:0] = [ROOT, HERE]
    sys.exit(main())
