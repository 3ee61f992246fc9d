"""The ``service-mix`` workload: ``repro serve`` under two closed-loop clients.

The daemon runs with its defaults (2 runner threads, ``--engine-jobs 1``)
in its own process.  Each client repeats a cycle of three resubmissions of
the resident eclipse-import trace (FastTrack, DJIT+, WCP), each followed by
two fresh crypt traces (FastTrack).  A fresh trace is one of
``CRYPT_SCHEDULES`` seeded crypt schedules behind a comment line that
names the job, so its digest is new.  The two clients run in lockstep.
After an untimed warm-up the resubmissions are answered from the resident
partition and the per-tool checkpoints; the fresh jobs parse, partition
and analyze.

Jobs are timed with the client's own clock, from submit to result bytes,
split into submit (upload until the 202), queue (until a status poll
first sees the job running or done), run (until a poll sees it done) and
fetch (the result GET).  Polls are ``POLL_S`` apart.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import threading
import time
from typing import Dict, List, Optional

import harness
import inputs
from harness import mean, median, say

#: Status poll interval.  ``Client.wait``'s 0.2 s default would add up to
#: half of a 0.4 s resubmission.
POLL_S = 0.02

#: Daemon start-ups whose spawn-to-first-``/healthz``-200 median is
#: ``setup_s``; the last one serves the run.
SETUP_PROBES = 3

#: One client's cycle: each resubmission of the resident trace is followed
#: by two fresh traces.  Resubmissions wait on the store's fsyncs, whose
#: latency drifts between minutes; fresh jobs are CPU-bound and steady.
#: With two fresh jobs to one resubmission the median op is a fresh job,
#: while partition reuse and every resubmitted tool are still measured.
CYCLE = (
    ("hit", "FastTrack"), ("fresh", "FastTrack"), ("fresh", "FastTrack"),
    ("hit", "DJIT+"), ("fresh", "FastTrack"), ("fresh", "FastTrack"),
    ("hit", "WCP"), ("fresh", "FastTrack"), ("fresh", "FastTrack"),
)

#: The clients run in lockstep: both submit their next job together, so a
#: resubmission always overlaps the other client's resubmission and a fresh
#: job the other's fresh job.  Free-running clients drift in and out of
#: phase, and the median swung by up to 30% between runs with them.
CLIENTS = 2

#: Distinct crypt schedules (seeds) the fresh jobs cycle through; each
#: job still sends a file with a digest of its own.
CRYPT_SCHEDULES = 4

#: ``/debug`` sampling interval of the traced half of a traced run.
DEBUG_POLL_S = 0.25

JOB_TIMEOUT_S = 120.0

_LISTENING = re.compile(rb"listening on http://([\d.]+):(\d+)")
_PARTITIONS = re.compile(
    r'^repro_partitions_total\{outcome="(\w+)"\} ([\d.e+-]+)$', re.M)
_ENGINE_SECONDS = re.compile(
    r'^repro_engine_seconds_total\{[^}]*\} ([\d.e+-]+)$', re.M)


class _Job:
    __slots__ = ("kind", "tool", "trace", "wall_s", "phases", "body",
                 "error", "http_status", "events")

    def __init__(self, kind: str, tool: str, trace: Dict) -> None:
        self.kind = kind
        self.tool = tool
        self.trace = trace
        self.events = trace["properties"]["events"]
        self.phases: Dict[str, float] = {}
        self.body: Optional[bytes] = None
        self.error: Optional[str] = None
        self.http_status: Optional[int] = None
        self.wall_s = 0.0


class Daemon:
    """One ``repro serve`` process with its own store."""

    def __init__(self, checkout: harness.Checkout, name: str) -> None:
        store = checkout.path(name, "store")
        os.makedirs(store)
        self.log = checkout.path(name, "serve.log")
        started = time.monotonic()
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                harness.repro_argv("serve", "--store", store, "--port", "0"),
                stdout=log, stderr=log, env=checkout.env(),
                start_new_session=True,
            )
        from repro.service.client import Client

        port = self._port(started)
        self.client = Client(port=port, timeout=JOB_TIMEOUT_S, retries=0)
        while True:
            try:
                self.client.healthz()
                break
            except OSError:
                self._check_alive(started)
                time.sleep(0.002)
        self.ready_s = time.monotonic() - started

    def _check_alive(self, started: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(f"repro serve exited: {self._log_tail()}")
        if time.monotonic() - started > 60:
            raise RuntimeError(f"repro serve not ready: {self._log_tail()}")

    def _log_tail(self) -> str:
        with open(self.log, "rb") as stream:
            return stream.read()[-2000:].decode("utf-8", "replace")

    def _port(self, started: float) -> int:
        while True:
            with open(self.log, "rb") as stream:
                found = _LISTENING.search(stream.read())
            if found:
                return int(found.group(2))
            self._check_alive(started)
            time.sleep(0.002)

    def cpu_s(self) -> float:
        with open(f"/proc/{self.process.pid}/stat", "rb") as stream:
            stat = stream.read().decode()
        fields = stat[stat.rindex(")") + 2:].split()
        ticks = sum(int(value) for value in fields[11:15])
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", "rb") as stream:
            for line in stream.read().decode().splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def counters(self) -> Dict[str, float]:
        """Partitions created and reused, and engine seconds, so far."""
        text = self.client.metrics()
        counts = {
            outcome: float(value)
            for outcome, value in _PARTITIONS.findall(text)
        }
        counts["engine_s"] = sum(map(float, _ENGINE_SECONDS.findall(text)))
        return counts

    def stop(self) -> None:
        """SIGTERM (the daemon drains and exits 0); kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                harness.stop_group(self.process.pid)
                self.process.wait()
        harness.stop_group(self.process.pid)


class ServiceMix:
    def __init__(self, checkout: harness.Checkout, seed: int, size: str,
                 drop_racy: bool, seconds: float) -> None:
        self.checkout = checkout
        env = checkout.env()
        scales = inputs.SCALES[size]
        traces = checkout.path("traces")
        os.makedirs(traces)
        first = (seed + 1) * 100_000
        seeds = {
            "eclipse": [seed],
            "crypt": range(first, first + CRYPT_SCHEDULES),
        }
        made: Dict[str, List[Dict]] = {}

        def make(kind: str) -> None:
            made[kind] = inputs.generate(
                kind, scales[kind], traces, seeds[kind], env)

        # Two child processes at once: the eclipse oracle and the crypt
        # schedules take about as long as each other.
        makers = [
            threading.Thread(target=make, args=(kind,)) for kind in seeds
        ]
        for maker in makers:
            maker.start()
        for maker in makers:
            maker.join()
        if set(made) != {"eclipse", "crypt"}:
            raise RuntimeError("trace generation failed")
        [self.eclipse] = made["eclipse"]
        self.crypt = made["crypt"]
        if drop_racy:
            self.eclipse["racy"] = inputs.drop_one(self.eclipse["racy"])
        self.properties = {
            **{f"eclipse.{k}": v
               for k, v in self.eclipse["properties"].items()},
            **{f"crypt.{k}": v
               for k, v in self.crypt[0]["properties"].items()},
        }
        self._fresh = 0
        self._fresh_lock = threading.Lock()
        self.daemon: Optional[Daemon] = None
        self.reference: Dict[str, bytes] = {}
        #: Per tool: do the reference's warned variables agree with the
        #: oracle (equal it; contain it for WCP)?
        self.reference_agrees: Dict[str, bool] = {}
        #: Jobs whose result was checked and found wrong.
        self.wrong = 0

    # -- set-up --------------------------------------------------------------

    def setup(self) -> float:
        ready = []
        for probe in range(SETUP_PROBES):
            if self.daemon is not None:
                self.daemon.stop()
            self.daemon = Daemon(self.checkout, f"daemon-{probe}")
            ready.append(self.daemon.ready_s)
        # Warm-up: build the resident partition and each tool's
        # checkpoints, and fix the bytes every resubmission must return.
        for tool in [tool for kind, tool in CYCLE if kind == "hit"]:
            job = self._job("hit", tool, self.eclipse)
            if job.error is not None:
                raise RuntimeError(f"warm-up {tool} job failed: {job.error}")
            self.reference[tool] = job.body
            warned = inputs.json_warned(job.body)
            racy = self.eclipse["racy"]
            self.reference_agrees[tool] = (
                warned >= racy if tool == "WCP" else warned == racy)
        fresh = self._next_fresh()
        warm = self._job("fresh", "FastTrack", fresh)
        os.remove(fresh["path"])
        if warm.error is not None:
            raise RuntimeError(f"warm-up fresh job failed: {warm.error}")
        return median(ready)

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()

    def _next_fresh(self) -> Dict:
        """A crypt trace file whose digest no job has seen.

        Its first line is a comment naming the job, which the parser skips,
        so its events and its oracle answer are those of its schedule.
        """
        with self._fresh_lock:
            self._fresh += 1
            number = self._fresh
        base = self.crypt[number % len(self.crypt)]
        path = self.checkout.path("traces", f"fresh-{number}.trace")
        with open(base["path"], "rb") as source:
            body = source.read()
        with open(path, "wb") as stream:
            stream.write(b"# fresh job %d\n" % number + body)
        return {**base, "path": path}

    # -- one job -------------------------------------------------------------

    def _job(self, kind: str, tool: str, trace: Dict) -> _Job:
        from repro.service.client import ServiceError

        job = _Job(kind, tool, trace)
        client = self.daemon.client
        started = time.monotonic()
        try:
            record = client.submit(path=trace["path"], tools=[tool])
            submitted = time.monotonic()
            running = None
            while True:
                status = client.status(record["id"])
                state = status.get("state")
                now = time.monotonic()
                if state in ("running", "done") and running is None:
                    running = now
                if state == "done":
                    break
                if state == "failed":
                    raise RuntimeError(
                        f"job {record['id']} failed: {status.get('error')}")
                if now - started > JOB_TIMEOUT_S:
                    raise TimeoutError(f"job {record['id']} timed out")
                time.sleep(POLL_S)
            job.body = client.result_bytes(record["id"])
        except ServiceError as error:
            job.http_status = error.status
            job.error = str(error)
        except (OSError, RuntimeError, ValueError) as error:
            job.error = str(error)
        ended = time.monotonic()
        job.wall_s = ended - started
        if job.error is None:
            job.phases = {
                "submit": submitted - started,
                "queue": running - submitted,
                "run": now - running,
                "fetch": ended - now,
            }
        return job

    def _correct(self, job: _Job) -> bool:
        """Same bytes as the warm-up for resubmissions; warned variables
        against the oracle: FastTrack and DJIT+ equal it, WCP contains it."""
        if job.error is not None:
            return False
        if job.kind == "hit":
            right = (job.body == self.reference[job.tool]
                     and self.reference_agrees[job.tool])
        else:
            right = inputs.json_warned(job.body) == job.trace["racy"]
        if not right:
            self.wrong += 1
        return right

    # -- the timed loop ------------------------------------------------------

    def _client(self, barrier: threading.Barrier, stop: threading.Event,
                jobs: List[_Job]) -> None:
        step = 0
        while True:
            try:
                barrier.wait(timeout=2 * JOB_TIMEOUT_S)
            except threading.BrokenBarrierError:
                return
            if stop.is_set():
                return
            kind, tool = CYCLE[step % len(CYCLE)]
            step += 1
            if kind == "hit":
                jobs.append(self._job(kind, tool, self.eclipse))
            else:
                fresh = self._next_fresh()
                jobs.append(self._job(kind, tool, fresh))
                os.remove(fresh["path"])

    def _window(self, seconds: float) -> Dict:
        """Whole cycles, about ``seconds`` of them.

        The window ends at the cycle boundary nearest to ``seconds``,
        judged by the length of the cycle just finished, so every window
        holds the same mix of resubmissions and fresh jobs.
        """
        jobs: List[_Job] = []
        cpu_before = self.daemon.cpu_s()
        started = time.monotonic()
        deadline = started + seconds
        stop = threading.Event()
        rounds = 0
        cycle_started = started

        def next_round() -> None:
            nonlocal rounds, cycle_started
            if rounds and rounds % len(CYCLE) == 0:
                now = time.monotonic()
                cycle_s = now - cycle_started
                cycle_started = now
                if now + cycle_s / 2 >= deadline:
                    stop.set()
            rounds += 1

        barrier = threading.Barrier(CLIENTS, action=next_round)
        clients = [
            threading.Thread(target=self._client, args=(barrier, stop, jobs))
            for _ in range(CLIENTS)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        wall = time.monotonic() - started
        cpu = self.daemon.cpu_s() - cpu_before
        good = [job for job in jobs if self._correct(job)]
        for job in jobs:
            if job not in good:
                say(f"service-mix: {job.kind} {job.tool} job failed: "
                    f"{job.error or 'wrong result'}")
        return {"jobs": jobs, "good": good, "wall": wall, "cpu": cpu}

    def measure(self, seconds: float, setup_s: float) -> Dict:
        window = self._window(seconds)
        good = window["good"]
        attempted = len(window["jobs"])
        failed = attempted - len(good)
        latencies = [job.wall_s for job in good]
        tail_value, tail_pct = harness.tail(latencies)
        say(f"service-mix: {attempted} jobs, tail = p{tail_pct:.1f} of "
            f"{len(latencies)} completed jobs")
        metrics = {
            "latency_s.p50": median(latencies),
            "latency_s.tail": tail_value,
            "events_per_s": sum(job.events for job in good) / window["wall"],
            "cpu_s_per_op": window["cpu"] / len(good) if good else 0.0,
            "peak_rss_mb": self.daemon.peak_rss_mb(),
            "setup_s": setup_s,
        }
        extra = {
            "error_rate": failed / attempted if attempted else 0.0,
            "tail_percentile": tail_pct,
            "completed_ops": len(latencies),
            "fresh_jobs": sum(1 for job in good if job.kind == "fresh"),
            "poll_interval_s": POLL_S,
        }
        return {"attempted": attempted, "failed": failed,
                "metrics": metrics, "extra": extra}

    def measure_traced(self, seconds: float) -> Dict:
        """An untraced half, then a traced half that also samples
        ``/debug`` and ``/metrics``; per-layer figures from the second."""
        plain = self._window(seconds / 2)
        depths: List[int] = []
        stop = threading.Event()

        def sample_debug() -> None:
            while not stop.wait(DEBUG_POLL_S):
                try:
                    depths.append(self.daemon.client.debug()["queue_depth"])
                except OSError:
                    pass

        before = self.daemon.counters()
        sampler = threading.Thread(target=sample_debug)
        sampler.start()
        try:
            traced = self._window(seconds / 2)
        finally:
            stop.set()
            sampler.join()
        after = self.daemon.counters()
        change = {key: after.get(key, 0.0) - before.get(key, 0.0)
                  for key in ("reused", "created", "engine_s")}
        reused, created = change["reused"], change["created"]
        good = traced["good"]
        metrics = {}
        for kind in ("hit", "fresh"):
            ops = [job for job in good if job.kind == kind]
            for phase in ("submit", "queue", "run", "fetch"):
                metrics[f"service.{phase}_s.{kind}"] = mean(
                    [job.phases[phase] for job in ops])
        # The daemon's engine time, a mean over the window's jobs, is the
        # one layer inside the run phase /metrics exposes; the rest of run
        # (partition creation, store writes, poll granularity) is residual.
        engine = change["engine_s"] / len(good) if good else 0.0
        wall = mean([job.wall_s for job in good])
        residual = wall - engine - sum(
            mean([job.phases[phase] for job in good])
            for phase in ("submit", "queue", "fetch"))
        metrics["service.engine_s"] = engine
        metrics["service.residual_s"] = residual
        metrics["service.residual_share"] = residual / wall if wall else 0.0
        metrics["service.partition_reuse_ratio"] = (
            reused / (reused + created) if reused + created else 0.0)
        metrics["service.rejected"] = sum(
            1 for job in traced["jobs"] if job.http_status == 429)
        metrics["service.queue_depth.max"] = max(depths, default=0)
        metrics["trace_overhead"] = (
            median([job.wall_s for job in good])
            / median([job.wall_s for job in plain["good"]]) - 1.0)
        attempted = len(plain["jobs"]) + len(traced["jobs"])
        failed = attempted - len(plain["good"]) - len(good)
        return {"attempted": attempted, "failed": failed, "metrics": metrics,
                "extra": {"traced_ops": len(good),
                          "poll_interval_s": POLL_S}}
