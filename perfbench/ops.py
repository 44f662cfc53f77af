"""The benchmark's Ray session and its engine op.

One op is what a user of the engine runs: ``run_engine`` over the input
Parquet, then the routed per-(sink, sid) counts. Every op's output is
checked against the oracle's expected counts; a wrong output raises
``WrongOutput``.
"""

from __future__ import annotations

import ctypes
import logging
import os
import signal
import time
from contextlib import nullcontext

# Ray keeps Unix sockets under its temp dir; AF_UNIX paths are limited to
# 107 bytes and Ray appends up to 64 (/session_<stamp>_<pid>/sockets/
# plasma_store). A longer checkout path falls back to Ray's default temp
# dir, the only place the benchmark then writes outside its checkout.
_MAX_RAY_TEMP_DIR = 43
OBJECT_STORE_BYTES = 512 << 20


def nproc() -> int:
    """CPUs as coreutils ``nproc`` counts them: ``OMP_NUM_THREADS``, when
    set, stands in for the affinity mask."""
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0]
    return int(omp) if omp.isdigit() and int(omp) > 0 else len(os.sched_getaffinity(0))


# prctl(2) option: orphaned descendants are re-parented to this process
PR_SET_CHILD_SUBREAPER = 36
# seconds the processes left after ray.shutdown() get to exit by themselves,
# then to exit on SIGTERM, before SIGKILL
EXIT_GRACE_S = 5.0
TERM_GRACE_S = 2.0


def adopt_descendants() -> None:
    """Make this process the subreaper of every process it starts: a Ray
    worker whose raylet has exited is then re-parented here, not to init,
    so ``reap_children`` can stop it and wait for it."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def child_pids() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me, out = os.getpid(), []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        # fields after the parenthesised command: state, ppid, ...
        if int(stat[stat.rindex(b")") + 2:].split()[1]) == me:
            out.append(int(name))
    return out


def reap_children() -> None:
    """Stop every child and adopted descendant of this process and wait
    for each to end: first they get ``EXIT_GRACE_S`` to exit by
    themselves, then ``TERM_GRACE_S`` after SIGTERM, then SIGKILL. A
    killed parent's children are adopted in turn, so this loops until no
    child is left."""
    start = time.monotonic()
    while True:
        pids = []
        for pid in child_pids():
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    pids.append(pid)
            except ChildProcessError:
                pass
        if not pids:
            return
        waited = time.monotonic() - start
        if waited >= EXIT_GRACE_S:
            sig = (signal.SIGTERM if waited < EXIT_GRACE_S + TERM_GRACE_S
                   else signal.SIGKILL)
            for pid in pids:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def stop_ray() -> None:
    """Shut the session down and wait until every process it started has
    ended."""
    import ray

    ray.shutdown()
    reap_children()


def start_ray(work_dir: str, repo_root: str) -> None:
    """A private local Ray session: no dashboard, quiet logs, and workers
    that import ``sagan_ray`` from ``repo_root`` whatever the caller's
    working directory. The path reaches the workers through the
    environment the session's processes inherit: a ``runtime_env`` would
    also do it, but bypasses Ray's prestarted workers and doubles the
    first op's spin-up."""
    import ray
    from ray.data import DataContext

    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if repo_root not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([repo_root] + [p for p in paths if p])
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    temp_dir = os.path.join(work_dir, "ray")
    kwargs = {}
    if len(temp_dir) <= _MAX_RAY_TEMP_DIR:
        kwargs["_temp_dir"] = temp_dir
    ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, **kwargs)
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_operator_progress_bars = False
    ctx.print_on_execution_start = False
    ctx.execution_options.verbose_progress = False


def metric(value: float, unit: str) -> dict:
    """One entry of the result line's ``metrics`` object."""
    return {"value": value, "unit": unit}


class WrongOutput(Exception):
    """An op's routed counts or sink rows differ from the oracle's; the op
    itself ran to the end in ``wall`` seconds."""

    def __init__(self, msg: str, wall: float):
        super().__init__(msg)
        self.wall = wall


def sink_sums(expected: dict[tuple[str, int], int]) -> dict[str, int]:
    out: dict[str, int] = {}
    for (sink, _), n in expected.items():
        out[sink] = out.get(sink, 0) + n
    return out


class EngineOp:
    """One closed-loop engine op over a fixed input, checked against the
    oracle. ``__call__`` returns the op's wall seconds."""

    def __init__(self, workload, input_dir: str,
                 expected: dict[tuple[str, int], int], scratch_dir: str):
        from workloads import build

        self.workload = workload
        self.input_dir = input_dir
        self.expected = expected
        self.expected_sinks = sink_sums(expected)
        self.scratch_dir = scratch_dir
        self.ruleset, self.lookups, self.config = build(workload)

    def run_engine(self, state_dir=None):
        from sagan_ray.pipelines.engine import run_engine
        from sagan_ray.sources.transcripts import read_transcripts

        return run_engine(read_transcripts(self.input_dir), self.ruleset,
                          self.lookups, self.config, state_dir=state_dir)

    def check(self, counts, per_sink: dict[str, int] | None, wall: float) -> None:
        if counts != self.expected:
            bad = set(counts.items()) ^ set(self.expected.items())
            raise WrongOutput(f"{self.workload.name}: routed counts differ "
                              f"from the oracle on {len(bad)} (sink, sid) "
                              f"entries", wall)
        if per_sink is not None:
            got = {s: n for s, n in per_sink.items() if n}
            if got != self.expected_sinks:
                raise WrongOutput(f"{self.workload.name}: sink rows {got} != "
                                  f"expected {self.expected_sinks}", wall)

    def __call__(self, span=None) -> float:
        """Run one op; ``span(name)`` (a tracer's) wraps each engine call."""
        span = span or (lambda name: nullcontext())
        t0 = time.perf_counter()
        with span("pipelines.engine.run_engine"):
            res = self.run_engine()
        with span("pipelines.engine.routed_counts"):
            counts = res.routed_counts()
        wall = time.perf_counter() - t0
        self.check(counts, None, wall)
        return wall
