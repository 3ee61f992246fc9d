"""Process control, op records and statistics shared by every workload."""

from __future__ import annotations

import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, NamedTuple, Sequence

#: An op that runs longer than this is killed and counted as failed.
OP_TIMEOUT_S = 120.0


class Checkout:
    """The checkout the benchmark runs from, and its work area in it."""

    def __init__(self, root: str, run_name: str) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".perfbench", run_name)
        self.tmp = os.path.join(self.work, "tmp")
        os.makedirs(self.tmp, exist_ok=True)

    def env(self) -> Dict[str, str]:
        """Environment of every process of the system under test: the
        checkout's sources, and temporary files kept inside the checkout."""
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        env["TMPDIR"] = self.tmp
        env.pop("REPRO_FAULTS", None)
        env.pop("REPRO_TRACE", None)
        return env

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)


class Finished(NamedTuple):
    """One finished process: wall time, its tree's rusage, its output."""

    wall_s: float
    cpu_s: float
    maxrss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    started: float
    timed_out: bool


def stop_group(pgid: int) -> None:
    """Kill what is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_process(argv: Sequence[str], env: Dict[str, str], out_path: str,
                timeout: float = OP_TIMEOUT_S) -> Finished:
    """Run ``argv`` to completion and read its rusage with ``os.wait4``.

    ``wait4`` reports this process plus the descendants it reaped (the
    engine's pool workers), and nothing the benchmark reaped earlier; its
    ``ru_maxrss`` is the largest resident set in that tree.
    """
    err_path = out_path + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.monotonic()
        process = subprocess.Popen(
            list(argv), stdout=out, stderr=err, env=env,
            start_new_session=True,
        )
    timed_out = threading.Event()

    def expire() -> None:
        timed_out.set()
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, expire)
    timer.start()
    try:
        _, status, usage = os.wait4(process.pid, 0)
    finally:
        timer.cancel()
    ended = time.monotonic()
    process.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set() or process.returncode < 0:
        stop_group(process.pid)
    with open(out_path, "rb") as stream:
        stdout = stream.read()
    with open(err_path, "rb") as stream:
        stderr = stream.read()
    return Finished(
        wall_s=ended - started,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        code=process.returncode,
        stdout=stdout,
        stderr=stderr,
        started=started,
        timed_out=timed_out.is_set(),
    )


def repro_argv(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def tail(values: Sequence[float]):
    """The highest percentile with at least 10 ops beyond it, not below
    the median.

    Returns ``(value, percentile)``.  From 20 ops on, that is the
    11th-slowest op; below 20 ops no percentile above the median has 10
    ops beyond it, and the median is returned as the 50th.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 20:
        return median(ordered), 50.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def metric(value: float, unit: str) -> Dict:
    if isinstance(value, float) and not math.isfinite(value):
        value = 0.0
    return {"value": value, "unit": unit}


def say(message: str) -> None:
    """Progress and context lines; stdout's last line is the result."""
    print(message, file=sys.stderr, flush=True)
