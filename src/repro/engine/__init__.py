"""Sharded, streaming, parallel offline race-checking engine.

``repro.engine`` scales the offline analyses to traces that are too large
for a single in-memory pass and to machines with more than one core, with
*zero* precision loss.  Four layers (one module each):

1. :mod:`~repro.engine.partition` — a single streaming pass routes each
   read/write to ``stable_hash(variable) % nshards`` and broadcasts every
   synchronization event to all shards, publishing flat zero-copy
   columnar buffers against shared intern tables as mmap'd shard files
   (:mod:`~repro.engine.transport`, format v3);
2. :mod:`~repro.engine.worker` — per-shard detector runs (optionally in
   ``multiprocessing`` workers), each seeing the complete sync order plus
   its variables' accesses, so per-variable analysis is exact;
   kernel-equipped tools consume the shard columns through the fused
   kernels of :mod:`repro.kernels` (``kernel='auto'|'fused'|'generic'``);
3. :mod:`~repro.engine.merge` — deterministic merge of warnings, cost
   stats, and sharing-classifier counts, ordered by original trace
   position and deduplicated with the single-threaded reporting
   discipline;
4. :mod:`~repro.engine.checkpoint` — crash-safe per-shard progress records
   so an interrupted run resumes without re-analyzing finished shards.

Entry points::

    from repro.engine import check_trace_file, check_events

    report = check_trace_file("big.trace", tool="FastTrack", jobs=4)
    report = check_events(trace.events, tool="DJIT+", nshards=8)

Both return a :class:`~repro.engine.merge.MergedReport` whose warnings are
bit-identical to ``make_detector(tool).process(trace).warnings`` (the
differential suite ``tests/test_engine_equivalence.py`` enforces this).
The CLI exposes the engine as ``repro check --jobs N [--shards M]
[--resume DIR]``; see docs/ENGINE.md for the precision argument and the
checkpoint layout.  A run without a caller-provided ``workdir`` keeps its
throwaway working directory under :func:`scratch_root` (tmpfs when the
host has one) and removes it on every exit.
"""

from __future__ import annotations

import concurrent.futures
import os
import signal
import tempfile
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro import obs

from repro.engine.checkpoint import CheckpointError, Workdir
from repro.engine.merge import (
    MergedReport,
    merge_shard_results,
    merge_stats,
    merge_warnings,
    render_markdown,
)
from repro.engine.partition import (
    attach_shard,
    iter_shard,
    load_shard_columns,
    partition_events,
    shard_of,
)
from repro.engine.supervise import (
    EngineTimeout,
    QuarantineExhausted,
    RetryPolicy,
    ShardFailure,
    run_supervised,
)
from repro.engine.worker import (
    DrainRequested,
    analyze_shard,
    drain_requested,
    install_drain_handler,
    load_payloads,
    request_drain,
    reset_drain,
    resolve_kernel,
    run_shard,
)
from repro.trace import events as ev
from repro.trace import serialize

__all__ = [
    "CheckpointError",
    "DrainRequested",
    "EngineTimeout",
    "MergedReport",
    "QuarantineExhausted",
    "RetryPolicy",
    "ShardFailure",
    "Workdir",
    "analyze_shard",
    "attach_shard",
    "check_events",
    "check_trace_file",
    "default_nshards",
    "drain_requested",
    "install_drain_handler",
    "iter_shard",
    "load_payloads",
    "load_shard_columns",
    "merge_shard_results",
    "merge_stats",
    "merge_warnings",
    "partition_events",
    "render_markdown",
    "request_drain",
    "reset_drain",
    "run_shard",
    "run_supervised",
    "scratch_root",
    "scratch_workdir",
    "shard_of",
]


#: Preferred home of engine-owned throwaway workdirs.  On tmpfs the spill
#: files, shard buffers, fsynced checkpoints and the final ``rmtree`` never
#: touch a disk; a workdir needs about the partition's shard bytes plus
#: one shard of space there while it is being built.
SHM_ROOT = "/dev/shm"


def scratch_root() -> str:
    """The directory engine-owned throwaway workdirs are created in:
    :data:`SHM_ROOT` when it is a writable directory, else
    :func:`tempfile.gettempdir`."""
    if os.path.isdir(SHM_ROOT) and os.access(SHM_ROOT, os.W_OK | os.X_OK):
        return SHM_ROOT
    return tempfile.gettempdir()


def scratch_workdir() -> str:
    """Create a fresh engine-owned workdir under :func:`scratch_root`.

    Its owner tears it down with :meth:`Workdir.release_blocks`.
    """
    return tempfile.mkdtemp(prefix="repro-engine-", dir=scratch_root())


def default_nshards(jobs: int) -> int:
    """Two shards per worker: variable weight is skewed, so over-sharding
    lets fast workers steal a second helping instead of idling."""
    return max(1, 2 * max(1, jobs))


#: Below this many events per shard, worker startup dominates the shard's
#: analysis time and ``--jobs N`` loses to the sequential loop; the engine
#: warns (``engine.jobs.tiny_shards``) and suggests fewer shards or
#: sequential mode.  ~10k events is roughly 150ms of fused-kernel work —
#: on the order of one spawned worker's import cost.
MIN_EVENTS_PER_SHARD = 10_000


def _restore_sigterm(previous) -> None:
    if previous is None:
        return
    try:
        signal.signal(signal.SIGTERM, previous)
    except ValueError:  # pragma: no cover - non-main thread
        pass


def _run_pending(
    root: str,
    pending: List[int],
    tool: str,
    tool_kwargs: Optional[Dict],
    jobs: int,
    classify: bool,
    kernel: str,
    executor: Optional[concurrent.futures.Executor] = None,
    policy: Optional[RetryPolicy] = None,
    trace: Optional[Dict] = None,
) -> List[ShardFailure]:
    """Analyze the pending shards under supervision.

    Delegates to :func:`repro.engine.supervise.run_supervised` — bounded
    per-shard retries, pool self-healing, watchdog, quarantine — and
    returns the quarantined shards' failures (empty on a clean run).
    With ``executor`` (the daemon's persistent pool) shards are submitted
    there; otherwise ``jobs`` decides between the in-process sequential
    loop and a supervisor-owned :class:`ProcessPoolExecutor`.  Either way
    a SIGTERM lets in-flight shards checkpoint and then raises
    :class:`DrainRequested` instead of losing work.  ``trace`` carries
    the active trace context into every worker.
    """
    owns_process = executor is None
    previous = install_drain_handler() if owns_process else None
    try:
        return run_supervised(
            root, pending, tool, tool_kwargs, jobs, classify, kernel,
            executor=executor, policy=policy, trace=trace,
        )
    finally:
        if owns_process:
            _restore_sigterm(previous)


def _run(
    events_factory: Callable[[], Iterator[ev.Event]],
    tool: str,
    nshards: Optional[int],
    jobs: int,
    workdir: Optional[str],
    resume: bool,
    classify: bool,
    tool_kwargs: Optional[Dict],
    kernel: str,
    executor: Optional[concurrent.futures.Executor] = None,
    policy: Optional[RetryPolicy] = None,
) -> MergedReport:
    # Usage errors (unknown kernel mode, --kernel fused on a kernel-less
    # tool) must fail fast, not be retried and quarantined as if the
    # shards themselves were poisoned.
    resolve_kernel(kernel, tool)
    owns_workdir = workdir is None
    root = scratch_workdir() if owns_workdir else workdir
    wd = Workdir(root)
    timings: Dict = {"partition_s": None}
    try:
        meta = wd.read_meta() if resume else None
        if meta is not None:
            # A complete partition is already on disk: validate and reuse it
            # (re-partitioning would be wasted work and, worse, a different
            # shard count would orphan the existing checkpoints).
            wd.validate_meta(meta, nshards)
        else:
            if resume:
                # No usable partition: refuse to trust whatever result
                # checkpoints are lying around (they belong to a layout we
                # can no longer identify).
                wd.ensure_resumable_layout(meta)
            shards = nshards if nshards is not None else default_nshards(jobs)
            partition_started = time.monotonic()
            with obs.span("engine.partition", tool=tool) as span:
                meta = partition_events(events_factory(), wd, shards)
                span.set(
                    events=meta["events"], shards=meta["nshards"],
                    bytes=sum(meta.get("shard_bytes", [])),
                )
            timings["partition_s"] = time.monotonic() - partition_started
        count = meta["nshards"]
        timings["shard_bytes"] = sum(meta.get("shard_bytes", []))
        if jobs > 1 and count and meta["events"] // count < MIN_EVENTS_PER_SHARD:
            obs.log.warning(
                "engine.jobs.tiny_shards",
                f"--jobs {jobs} over {count} shard(s) of "
                f"~{meta['events'] // count} event(s) each: worker startup "
                "will dominate analysis below "
                f"{MIN_EVENTS_PER_SHARD} events/shard — use fewer shards "
                "(--shards) or drop to sequential (--jobs 1)",
                jobs=jobs, shards=count, events=meta["events"],
                events_per_shard=meta["events"] // count,
                threshold=MIN_EVENTS_PER_SHARD,
            )
        if not resume:
            wd.clear_results(tool, count)
        completed = set(wd.completed_shards(tool, count))
        pending = [shard for shard in range(count) if shard not in completed]
        if completed:
            obs.log.info(
                "engine.resume",
                f"resuming {tool}: {len(completed)}/{count} shard(s) "
                "already checkpointed",
                tool=tool, completed=len(completed), total=count,
            )
        submitted = time.monotonic()
        with obs.span(
            "engine.analyze",
            tool=tool, jobs=jobs, shards=count, pending=len(pending),
        ):
            # Captured inside the span so workers parent under it; the
            # submission timestamp rides along for queue-wait attribution.
            trace_ctx = obs.propagation_context(submitted=submitted)
            failures = list(_run_pending(
                root, pending, tool, tool_kwargs, jobs, classify, kernel,
                executor=executor, policy=policy, trace=trace_ctx,
            ))
        timings["analyze_s"] = time.monotonic() - submitted
        failed = {failure.shard for failure in failures}
        survivors = set(wd.completed_shards(tool, count))
        redo = [
            shard for shard in range(count)
            if shard not in survivors and shard not in failed
        ]
        if redo:
            # A checkpoint that reported success but does not validate at
            # merge time (torn write): those shards were quarantined by
            # ``completed_shards`` above — recompute them under the same
            # supervision before giving up on them.
            failures.extend(_run_pending(
                root, redo, tool, tool_kwargs, jobs, classify, kernel,
                executor=executor, policy=policy,
                trace=obs.propagation_context(submitted=time.monotonic()),
            ))
            failed = {failure.shard for failure in failures}
            survivors = set(wd.completed_shards(tool, count))
        quarantined = sorted(set(range(count)) - survivors)
        if not survivors:
            first = failures[0].error if failures else "no checkpoints"
            raise QuarantineExhausted(
                f"all {count} shard(s) failed analysis "
                f"(first error: {first})"
            )
        payloads = [
            wd.read_result(tool, shard) for shard in sorted(survivors)
        ]
        merge_started = time.monotonic()
        with obs.span("engine.merge", tool=tool, shards=count):
            report = merge_shard_results(payloads)
        timings["merge_s"] = time.monotonic() - merge_started
        # Per-shard attach cost, measured inside the workers: under v3
        # this is the whole transport tax (there is no deserialization),
        # and the bench's stage breakdown sums it across shards.
        timings["transport_s"] = sum(
            payload.get("timing", {}).get("transport_s", 0.0)
            for payload in payloads
        )
        report.timings = timings
        if obs.enabled():
            # MergedReport.timings never reaches the result JSON (byte
            # identity), so surface the stage breakdown as its own record:
            # a zero-duration marker span (the ``degraded`` convention) so
            # it never skews stage totals or the critical path.
            obs.emit_span(
                "engine.summary",
                0.0,
                tool=tool,
                events=meta["events"],
                shards=count,
                partition_s=timings.get("partition_s"),
                analyze_s=timings.get("analyze_s"),
                merge_s=timings.get("merge_s"),
                transport_s=timings.get("transport_s"),
                shard_bytes=timings.get("shard_bytes"),
            )
        if quarantined:
            by_shard = {failure.shard: failure for failure in failures}
            report.degraded = {
                "quarantined_shards": quarantined,
                "shards_total": count,
                "failures": [
                    by_shard[shard].to_json()
                    if shard in by_shard
                    else {
                        "shard": shard,
                        "attempts": 0,
                        "error": "checkpoint invalid at merge",
                    }
                    for shard in quarantined
                ],
            }
        obs.record_rules(tool, report.stats)
        return report
    finally:
        if owns_workdir:
            wd.release_blocks()


def check_events(
    events: Iterable[ev.Event],
    tool: str = "FastTrack",
    *,
    nshards: Optional[int] = None,
    jobs: int = 1,
    workdir: Optional[str] = None,
    resume: bool = False,
    classify: bool = False,
    tool_kwargs: Optional[Dict] = None,
    kernel: str = "auto",
    executor: Optional[concurrent.futures.Executor] = None,
    policy: Optional[RetryPolicy] = None,
) -> MergedReport:
    """Shard-check an in-memory event sequence (or any one-shot iterable).

    ``executor`` lends the run an already-running pool (the daemon keeps
    one across jobs to amortize worker startup); without it, ``jobs``
    decides whether a throwaway pool is spun up.  ``policy`` tunes the
    supervisor (retries, shard watchdog, run deadline — see
    :class:`repro.engine.supervise.RetryPolicy`).  Without ``workdir``
    the run partitions into a throwaway directory under
    :func:`scratch_root` and removes it on the way out.
    """
    return _run(
        lambda: iter(events),
        tool,
        nshards,
        jobs,
        workdir,
        resume,
        classify,
        tool_kwargs,
        kernel,
        executor=executor,
        policy=policy,
    )


def check_trace_file(
    path: str,
    tool: str = "FastTrack",
    fmt: str = "text",
    *,
    nshards: Optional[int] = None,
    jobs: int = 1,
    workdir: Optional[str] = None,
    resume: bool = False,
    classify: bool = False,
    tool_kwargs: Optional[Dict] = None,
    kernel: str = "auto",
    executor: Optional[concurrent.futures.Executor] = None,
    policy: Optional[RetryPolicy] = None,
) -> MergedReport:
    """Shard-check a serialized trace file, streaming it during partition.

    The file is read through :func:`repro.trace.serialize.iter_load` (or
    ``iter_load_jsonl``), so the full event list is never materialized; a
    resumed run whose partition already exists does not read it at all.
    ``executor`` lends the run a persistent pool (see :func:`check_events`).
    """

    def events_factory() -> Iterator[ev.Event]:
        def generate() -> Iterator[ev.Event]:
            with open(path, "r", encoding="utf-8") as stream:
                if fmt == "jsonl":
                    yield from serialize.iter_load_jsonl(stream)
                else:
                    yield from serialize.iter_load(stream)

        return generate()

    return _run(
        events_factory,
        tool,
        nshards,
        jobs,
        workdir,
        resume,
        classify,
        tool_kwargs,
        kernel,
        executor=executor,
        policy=policy,
    )
