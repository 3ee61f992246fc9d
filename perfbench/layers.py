"""Layer spans for one traced ``repro`` process, recorded from outside it.

:func:`install` wraps each layer's public entry points where its caller
looks them up (``repro.cli`` binds ``check_feasible`` at import time, the
engine binds ``partition_events`` and friends in its package namespace,
the worker binds ``run_kernel``).  The program itself is unchanged.

A span's *self time* is its duration minus the time of the spans nested in
it, so the layers' self times never overlap and add up to the time they
cover.  Spans stay in memory: the parent process writes its totals once,
when ``repro.cli.main`` returns; each engine shard appends one record to
``spans-<pid>.jsonl`` as it finishes, because pool workers leave through
``os._exit`` and would lose an exit-time flush.  Pool workers are
fork-started, so they inherit the wrappers.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from typing import Callable, Dict, List

class Tracer:
    """Self time per layer and counters for one process."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        #: ``[shard, attempt, monotonic time]`` of each pool submission.
        self.submitted: List[list] = []
        # Each frame is [layer, seconds covered by nested spans].
        self._stack: List[list] = [[None, 0.0]]

    def run(self, layer: str, function: Callable, *args, **kwargs):
        frame = [layer, 0.0]
        self._stack.append(frame)
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            self._stack.pop()
            self.self_s[layer] = (
                self.self_s.get(layer, 0.0) + elapsed - frame[1])
            self._stack[-1][1] += elapsed

    def add_nested(self, layer: str, seconds: float) -> None:
        """Book time spent in ``layer`` inside whatever span is open now."""
        self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds
        self._stack[-1][1] += seconds

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def _wrap(owner, attr: str, layer: str, tracer: Tracer,
          after: Callable = None, static: bool = False) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = tracer.run(layer, original, *args, **kwargs)
        if after is not None:
            after(result, args)
        return result

    setattr(owner, attr, staticmethod(wrapper) if static else wrapper)


def _wrap_iterator(owner, attr: str, layer: str, tracer: Tracer) -> None:
    """Time each ``next()`` of the iterator ``owner.attr`` returns.

    Parsing inside the partitioner is a stream: its time is booked as a
    nested span of whatever layer consumes the stream.
    """
    original = getattr(owner, attr)

    def timed(iterator):
        clock = time.perf_counter
        spent = 0.0
        produced = 0
        try:
            while True:
                started = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    spent += clock() - started
                    return
                spent += clock() - started
                produced += 1
                yield item
        finally:
            tracer.add_nested(layer, spent)
            tracer.count(f"{layer}.events", produced)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return timed(iter(original(*args, **kwargs)))

    setattr(owner, attr, wrapper)


class _ShardRecorder:
    """Per-shard worker timing, appended to this process's span file."""

    def __init__(self, span_dir: str) -> None:
        self.span_dir = span_dir
        self.current: Dict[str, float] = {}

    def accumulate(self, key: str, function: Callable, *args, **kwargs):
        started = time.monotonic()
        try:
            return function(*args, **kwargs)
        finally:
            if self.current:
                self.current[key] += time.monotonic() - started

    def wrap_analyze(self, original: Callable) -> Callable:
        signature = inspect.signature(original)

        @functools.wraps(original)
        def analyze_shard(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            started = time.monotonic()
            self.current = {"attach_s": 0.0, "kernel_s": 0.0}
            try:
                return original(*args, **kwargs)
            finally:
                ended = time.monotonic()
                record = {
                    "pid": os.getpid(),
                    "shard": bound.get("shard"),
                    "attempt": bound.get("attempt", 0),
                    "started": started,
                    "ended": ended,
                    "busy_s": ended - started,
                    **self.current,
                }
                self.current = {}
                path = os.path.join(
                    self.span_dir, f"spans-{os.getpid()}.jsonl"
                )
                with open(path, "a", encoding="utf-8") as stream:
                    stream.write(json.dumps(record) + "\n")

        return analyze_shard


def install(span_dir: str) -> Tracer:
    """Wrap every layer's entry points; return the parent's tracer."""
    import concurrent.futures
    import shutil

    import repro.cli
    import repro.engine
    import repro.engine.transport
    import repro.engine.worker
    import repro.kernels
    import repro.report
    from repro.detectors.classifier import SharingClassifier
    from repro.engine.checkpoint import Workdir
    from repro.trace import serialize
    from repro.trace.columnar import ColumnarTrace

    tracer = Tracer()

    def count_events(result, _args) -> None:
        tracer.count("serialize.events", len(result))

    def count_kernel_events(_result, args) -> None:
        tracer.count("kernels.events", len(args[1]))

    def count_report_bytes(result, _args) -> None:
        tracer.count("report.bytes", len(result.encode("utf-8")))

    def count_partition(meta, _args) -> None:
        tracer.count("partition.events", meta["events"])
        tracer.count("partition.shard_events", sum(meta["shard_events"]))
        tracer.count("partition.shard_bytes", sum(meta["shard_bytes"]))

    def count_quarantined(failures, _args) -> None:
        tracer.count("supervise.quarantined", len(failures))

    # Single-process check path (``_cmd_check_single``).
    _wrap(serialize, "loads", "serialize", tracer, count_events)
    _wrap(serialize, "loads_jsonl", "serialize", tracer, count_events)
    _wrap(repro.cli, "check_feasible", "feasibility", tracer)
    _wrap(ColumnarTrace, "from_events", "columnar", tracer, static=True)
    _wrap(SharingClassifier, "process", "classifier", tracer)
    _wrap(repro.kernels, "run_kernel", "kernels", tracer, count_kernel_events)
    _wrap(repro.report, "detector_result", "report", tracer)
    _wrap(repro.report, "dumps_result", "report", tracer, count_report_bytes)
    # Engine path (``_cmd_check_sharded`` -> ``engine._run``).
    _wrap_iterator(serialize, "iter_load", "serialize", tracer)
    _wrap_iterator(serialize, "iter_load_jsonl", "serialize", tracer)
    _wrap(repro.engine, "partition_events", "partition", tracer,
          count_partition)
    _wrap(repro.engine, "run_supervised", "supervise", tracer,
          count_quarantined)
    _wrap(repro.engine, "merge_shard_results", "merge", tracer)
    _wrap(Workdir, "release_blocks", "teardown", tracer)
    _wrap(shutil, "rmtree", "teardown", tracer)
    # The engine submits ``run_shard(root, shard, tool, tool_kwargs,
    # classify, kernel, attempt, trace)``; a shard's queue wait runs from
    # here to the start of its ``analyze_shard`` in a worker.
    pool = concurrent.futures.ProcessPoolExecutor
    submit = pool.submit

    @functools.wraps(submit)
    def timed_submit(self, fn, *args, **kwargs):
        if len(args) > 6:
            tracer.submitted.append([args[1], args[6], time.monotonic()])
        return submit(self, fn, *args, **kwargs)

    pool.submit = timed_submit
    # Shard workers (fork-started pool processes inherit these).
    shards = _ShardRecorder(span_dir)
    worker = repro.engine.worker
    worker.analyze_shard = shards.wrap_analyze(worker.analyze_shard)
    for attr in ("load_intern", "attach_view"):
        original = getattr(repro.engine.transport, attr)
        setattr(repro.engine.transport, attr, functools.partial(
            shards.accumulate, "attach_s", original))
    worker.run_kernel = functools.partial(
        shards.accumulate, "kernel_s", worker.run_kernel)
    return tracer
