"""The ``cold-check`` and ``sharded-check`` workloads.

One client, closed loop: each op is one cold ``repro check`` process over
the same seeded eclipse-import trace, timed from spawn to reap.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from typing import Dict, List

import harness
import inputs
from harness import mean, median, say

HERE = os.path.dirname(os.path.abspath(__file__))

#: Extra ``repro check`` arguments per workload: FastTrack is the default
#: tool; ``--jobs 2`` takes the engine path with its default 4 shards.
ARGS = {
    "cold-check": ["--json"],
    "sharded-check": ["--jobs", "2"],
}

#: ``repro check`` runs of a one-event trace whose median is ``setup_s``.
SETUP_PROBES = 5

JOBS = 2


class CliWorkload:
    def __init__(self, name: str, checkout: harness.Checkout, seed: int,
                 size: str, drop_racy: bool) -> None:
        self.name = name
        self.checkout = checkout
        self.env = checkout.env()
        self.args = ARGS[name]
        [made] = inputs.generate(
            "eclipse", inputs.SCALES[size]["eclipse"], checkout.work, [seed],
            self.env,
        )
        self.trace = made["path"]
        self.properties = made["properties"]
        self.racy = made["racy"]
        if drop_racy:
            self.racy = inputs.drop_one(self.racy)
        self.expected_code = 1 if self.racy else 0
        self.reference = None
        self._verified: Dict[bytes, bool] = {}
        self.ops = 0
        #: Ops whose output was checked and found wrong.
        self.wrong = 0

    # -- correctness ---------------------------------------------------------

    def _matches_oracle(self, stdout: bytes) -> bool:
        if stdout not in self._verified:
            try:
                warned = (
                    inputs.json_warned(stdout) if "--json" in self.args
                    else inputs.plain_warned(stdout)
                )
            except (ValueError, KeyError, SyntaxError):
                warned = None
            self._verified[stdout] = warned == self.racy
        return self._verified[stdout]

    def correct(self, run: harness.Finished) -> bool:
        """Expected exit code, same bytes as the reference, and the
        warned variables equal the oracle's racy set.  An op that ran to
        its end (exit 0 or 1) and fails this gave a wrong answer."""
        right = (
            not run.timed_out
            and run.code == self.expected_code
            and run.stdout == self.reference
            and self._matches_oracle(run.stdout)
        )
        if not right and not run.timed_out and run.code in (0, 1):
            self.wrong += 1
        return right

    # -- set-up --------------------------------------------------------------

    def setup(self) -> float:
        """Fix the reference output and time the cold start of ``repro``.

        ``sharded-check`` must print the single-process path's bytes;
        ``cold-check`` must print the same bytes on every op, so its
        reference is a first, untimed op (which also compiles bytecode).
        """
        if self.name == "sharded-check":
            single = self._run(harness.repro_argv("check", self.trace))
            self.reference = single.stdout
        warm = self._run(self._argv())
        if self.reference is None:
            self.reference = warm.stdout
        one = self.checkout.path("one.trace")
        with open(one, "w", encoding="utf-8") as stream:
            stream.write("wr(0, x)\n")
        probes = [
            self._run(harness.repro_argv("check", one)).wall_s
            for _ in range(SETUP_PROBES)
        ]
        return median(probes)

    def _argv(self, span_dir: str = None) -> List[str]:
        if span_dir is None:
            return harness.repro_argv("check", self.trace, *self.args)
        return [
            sys.executable, os.path.join(HERE, "traced_op.py"), span_dir,
            "check", self.trace, *self.args,
        ]

    def _run(self, argv: List[str]) -> harness.Finished:
        self.ops += 1
        return harness.run_process(
            argv, self.env, self.checkout.path(f"op-{self.ops}.out")
        )

    # -- the timed loops -----------------------------------------------------

    def measure(self, seconds: float, setup_s: float) -> Dict:
        runs: List[harness.Finished] = []
        failed = 0
        started = time.monotonic()
        deadline = started + seconds
        while time.monotonic() < deadline:
            run = self._run(self._argv())
            if self.correct(run):
                runs.append(run)
            else:
                failed += 1
                self._report_failure(run)
        wall = time.monotonic() - started
        attempted = len(runs) + failed
        latencies = [run.wall_s for run in runs]
        tail_value, tail_pct = harness.tail(latencies)
        events = self.properties["events"] * len(runs)
        say(f"{self.name}: {attempted} ops, tail = p{tail_pct:.1f} of "
            f"{len(latencies)} completed ops")
        metrics = {
            "latency_s.p50": median(latencies),
            "latency_s.tail": tail_value,
            "events_per_s": events / wall,
            "cpu_s_per_op": median([run.cpu_s for run in runs]),
            "peak_rss_mb": max((run.maxrss_mb for run in runs), default=0.0),
            "setup_s": setup_s,
        }
        extra = {
            "error_rate": failed / attempted if attempted else 0.0,
            "tail_percentile": tail_pct,
            "completed_ops": len(latencies),
        }
        return {"attempted": attempted, "failed": failed,
                "metrics": metrics, "extra": extra}

    def measure_traced(self, seconds: float) -> Dict:
        """Alternate untraced and traced ops; return per-layer means."""
        plain: List[float] = []
        traced: List[Dict] = []
        failed = 0
        traced_attempts = 0
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline or not traced_attempts:
            span_dir = None
            if self.ops % 2:
                traced_attempts += 1
                span_dir = self.checkout.path(f"spans-{self.ops + 1}")
                os.makedirs(span_dir)
            run = self._run(self._argv(span_dir))
            if not self.correct(run):
                failed += 1
                self._report_failure(run)
            elif span_dir is None:
                plain.append(run.wall_s)
            else:
                traced.append(self._op_layers(run, span_dir))
            if span_dir is not None:
                shutil.rmtree(span_dir)
        metrics = {
            key: mean([op[key] for op in traced]) for key in LAYER_METRICS
        }
        wall = mean([op["wall_s"] for op in traced])
        metrics["serialize.events_per_s"] = _rate(
            traced, "serialize.events", "serialize.parse_s")
        metrics["kernels.events_per_s"] = _rate(
            traced, "kernels.events", "kernels.run_s")
        metrics["cli.residual_share"] = (
            metrics["cli.residual_s"] / wall if wall else 0.0)
        metrics["trace_overhead"] = (
            median([op["wall_s"] for op in traced]) / median(plain) - 1.0)
        return {"attempted": len(plain) + len(traced) + failed,
                "failed": failed, "metrics": metrics,
                "extra": {"traced_ops": len(traced),
                          "traced_wall_s": wall}}

    def _op_layers(self, run: harness.Finished, span_dir: str) -> Dict:
        with open(os.path.join(span_dir, "main.json"), encoding="utf-8") as f:
            main = json.load(f)
        shards = []
        for name in sorted(os.listdir(span_dir)):
            if name.startswith("spans-"):
                with open(os.path.join(span_dir, name), encoding="utf-8") as f:
                    shards.extend(json.loads(line) for line in f)
        own = main["self_s"]
        counts = main["counts"]
        op = {"wall_s": run.wall_s}
        for layer, key in PARENT_LAYER_METRICS.items():
            op[key] = own.get(layer, 0.0)
        op["cli.startup_s"] = main["main_started"] - run.started
        op["cli.residual_s"] = (
            run.wall_s - op["cli.startup_s"]
            - sum(op[key] for key in PARENT_LAYER_METRICS.values())
        )
        op["serialize.events"] = counts.get("serialize.events", 0)
        op["kernels.events"] = counts.get("kernels.events", 0)
        op["report.bytes"] = counts.get("report.bytes", 0)
        op["partition.shard_events"] = counts.get("partition.shard_events", 0)
        op["partition.shard_bytes"] = counts.get("partition.shard_bytes", 0)
        op["partition.broadcast_ratio"] = (
            counts["partition.shard_events"] / counts["partition.events"]
            if counts.get("partition.events") else 0.0
        )
        op["supervise.quarantined"] = counts.get("supervise.quarantined", 0)
        op["supervise.retries"] = sum(
            1 for shard in shards if shard["attempt"] > 0)
        submitted = {
            (shard, attempt): at for shard, attempt, at in main["submitted"]
        }
        op["worker.queue_wait_s"] = sum(
            s["started"] - submitted[s["shard"], s["attempt"]]
            for s in shards if (s["shard"], s["attempt"]) in submitted
        )
        op["worker.attach_s"] = sum(s["attach_s"] for s in shards)
        op["worker.kernel_s"] = sum(s["kernel_s"] for s in shards)
        analyze = op["supervise.analyze_s"]
        op["worker.busy_share"] = (
            sum(s["busy_s"] for s in shards) / (JOBS * analyze)
            if shards and analyze > 0 else 0.0
        )
        return op

    def _report_failure(self, run: harness.Finished) -> None:
        say(f"{self.name}: op failed: exit {run.code}"
            f"{' (timed out)' if run.timed_out else ''}; "
            f"stderr: {run.stderr.decode('utf-8', 'replace')[-500:]}")


def _rate(ops: List[Dict], count: str, seconds: str) -> float:
    spent = sum(op[seconds] for op in ops)
    return sum(op[count] for op in ops) / spent if spent > 0 else 0.0


#: Parent-process span -> metric of its self time.  These, with
#: ``cli.startup_s`` and ``cli.residual_s``, add up to the op's wall time.
PARENT_LAYER_METRICS = {
    "serialize": "serialize.parse_s",
    "feasibility": "feasibility.check_s",
    "columnar": "columnar.build_s",
    "classifier": "classifier.process_s",
    "kernels": "kernels.run_s",
    "report": "report.render_s",
    "partition": "partition.self_s",
    "supervise": "supervise.analyze_s",
    "merge": "merge.merge_s",
    "teardown": "engine.teardown_s",
}

#: Per-op metrics averaged over the traced ops.
LAYER_METRICS = (
    *PARENT_LAYER_METRICS.values(),
    "report.bytes",
    "partition.shard_events",
    "partition.broadcast_ratio",
    "partition.shard_bytes",
    "worker.queue_wait_s",
    "worker.attach_s",
    "worker.kernel_s",
    "worker.busy_share",
    "supervise.retries",
    "supervise.quarantined",
    "cli.startup_s",
    "cli.residual_s",
)
