"""Shard workers: full-precision detection over one shard's sub-stream.

A worker replays its shard — the complete synchronization order plus the
accesses of the variables hashed to this shard — through a fresh detector
instance from :mod:`repro.detectors.registry`.  Each event is fed with its
*original* trace index, so the warnings a worker records are
field-for-field identical to the ones a single-threaded run reports for the
same variables (same ``event_index``, same ``prior`` description — the
per-variable shadow state evolves identically because the sync order is
complete).

The shard arrives as a v3 zero-copy buffer
(:mod:`repro.engine.transport`): the worker memory-maps the shard's
file and wraps it with ``memoryview`` casts — no pickle framing, no
per-event deserialization, no per-batch intern deltas.
Kernel-equipped tools (``repro.kernels.KERNEL_TOOLS``) run their fused
loop directly over those casts; the generic object path
reconstructs ``Event`` objects lazily from the same casts.
``kernel='auto'`` (the default) picks the kernel when one exists and
falls back to the object path otherwise; ``'fused'`` demands one;
``'generic'`` forces the object path.  Either way the payload is
bit-identical — the kernels' equivalence contract plus the shard replay
argument compose.  The view is closed at the shard boundary so pooled
workers never accumulate mappings.

The worker's result — warnings, detector cost stats, optional
sharing-classifier counts — is checkpointed as JSON through
:class:`~repro.engine.checkpoint.Workdir` before the function returns, so a
run killed between shards loses at most the shards in flight.  The module
is import-clean and the entry point takes only picklable primitives: it is
the ``multiprocessing`` target.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from typing import Dict, List, Optional

from repro import faults
from repro import obs
from repro.core.detector import CostStats, Detector
from repro.obs import tracecontext
from repro.detectors.registry import make_detector
from repro.engine import transport as _transport
from repro.engine.checkpoint import Workdir
from repro.kernels import has_kernel, run_kernel
from repro.report import (
    classifier_counts,
    stats_from_json,
    stats_to_json,
    warning_from_json,
    warning_to_json,
)
from repro.trace import events as ev

__all__ = [
    "DrainRequested",
    "KERNEL_MODES",
    "analyze_shard",
    "drain_requested",
    "install_drain_handler",
    "load_payloads",
    "request_drain",
    "reset_drain",
    "resolve_kernel",
    "run_shard",
    "stats_from_json",
    "stats_to_json",
    "warning_from_json",
    "warning_to_json",
]

PAYLOAD_VERSION = 1

#: Accepted values for the ``kernel`` selector.
KERNEL_MODES = ("auto", "fused", "generic")

#: Exit status of a shard worker that drained on SIGTERM (128 + 15, the
#: conventional "terminated" code — but only *after* checkpointing).
DRAIN_EXIT_CODE = 143


class DrainRequested(RuntimeError):
    """An engine run stopped early because SIGTERM asked it to drain.

    Every shard finished before the stop is checkpointed; re-running with
    the same working directory (``--resume DIR`` / the daemon's restart
    recovery) completes only the remaining shards.
    """

    def __init__(self, completed: Optional[int] = None,
                 total: Optional[int] = None) -> None:
        self.completed = completed
        self.total = total
        progress = (
            f" ({completed}/{total} pending shard(s) checkpointed)"
            if completed is not None and total is not None
            else ""
        )
        super().__init__(
            "drain requested by SIGTERM; finished shards are "
            f"checkpointed{progress} — re-run with the same working "
            "directory to complete the remainder"
        )


# A SIGTERM must not kill a worker mid-shard (that would forfeit the whole
# shard's work): the handler only raises this flag, and the analysis loops
# stop at the next shard boundary — after the in-flight shard's checkpoint
# is on disk.
_DRAIN = {"requested": False}


def request_drain(signum=None, frame=None) -> None:
    """Signal-handler-shaped: mark that the current process should stop
    taking new shards once the in-flight one is checkpointed."""
    _DRAIN["requested"] = True


def drain_requested() -> bool:
    return _DRAIN["requested"]


def reset_drain() -> None:
    _DRAIN["requested"] = False


def install_drain_handler():
    """Route SIGTERM to :func:`request_drain`.

    Returns the previous handler so callers can restore it, or ``None``
    when installation is impossible (signal handlers can only be set from
    the main thread — the daemon's job-runner threads land here and rely
    on the daemon's own SIGTERM handling instead).
    """
    try:
        return signal.signal(signal.SIGTERM, request_drain)
    except ValueError:
        return None


def resolve_kernel(kernel: str, tool: str) -> bool:
    """Decide whether ``tool`` runs through its fused kernel.

    ``auto`` uses the kernel when one exists; ``fused`` requires one
    (``ValueError`` otherwise); ``generic`` always uses the object path.
    """
    if kernel not in KERNEL_MODES:
        raise ValueError(
            f"unknown kernel mode {kernel!r}; expected one of {KERNEL_MODES}"
        )
    if kernel == "generic":
        return False
    if has_kernel(tool):
        return True
    if kernel == "fused":
        raise ValueError(
            f"--kernel fused requested but {tool!r} has no fused kernel"
        )
    return False


def _tally_kinds(stats: CostStats, kind_counts: Dict[int, int]) -> None:
    """Per-shard equivalent of :meth:`Detector.absorb_kind_counts`, taken
    from counts accumulated while streaming (the stream is consumed once)."""
    for kind, count in kind_counts.items():
        stats.events += count
        if kind == ev.READ:
            stats.reads += count
        elif kind == ev.WRITE:
            stats.writes += count
        elif kind in (ev.ENTER, ev.EXIT):
            stats.boundaries += count
        else:
            stats.syncs += count


def analyze_shard(
    workdir: Workdir,
    shard: int,
    tool: str,
    tool_kwargs: Optional[Dict] = None,
    classify: bool = False,
    kernel: str = "auto",
    attempt: int = 0,
    submitted: Optional[float] = None,
) -> Dict:
    """Run ``tool`` over one shard and checkpoint + return the payload.

    ``attempt`` is the supervisor's retry counter for this shard; it is
    stable context for fault plans (a plan targeting ``{"shard": 3,
    "attempt": 0}`` hits exactly the first try, whichever worker process
    lands it) and is carried in the payload for post-mortems.

    ``submitted`` is the dispatcher's ``time.monotonic()`` at submission
    (carried in the trace context) — monotonic clocks are comparable
    across processes on one machine, so ``start - submitted`` is this
    shard's queue wait.  When telemetry is on the shard emits its own
    ``shard.analyze`` span (with ``shard.attach``/``shard.kernel``
    children) into this process's span file; the payload still carries
    the wall/CPU timing either way, for the stage breakdown in
    BENCH_engine.json and the merged report's ``timings``.
    """
    if faults.active():
        faults.fire("worker.crash", shard=shard, tool=tool, attempt=attempt)
        faults.fire("worker.hang", shard=shard, tool=tool, attempt=attempt)
    started_monotonic = time.monotonic()
    started_cpu = time.process_time()
    queue_wait_s = (
        max(0.0, started_monotonic - submitted)
        if submitted is not None else 0.0
    )
    with obs.span(
        "shard.analyze", shard=shard, tool=tool, attempt=attempt,
        queue_wait_s=queue_wait_s,
    ) as shard_span:
        detector: Detector = make_detector(tool, **(tool_kwargs or {}))
        use_fused = resolve_kernel(kernel, tool)
        classifier = None
        if classify:
            from repro.detectors.classifier import SharingClassifier

            classifier = SharingClassifier()
        # Attach the shard's mapped buffer.  This — plus the cached
        # intern load — is the *entire* per-shard transport cost under v3,
        # and the payload times it separately so the stage breakdown in
        # BENCH_engine.json can show the serialization tax is gone.
        with obs.span("shard.attach", shard=shard):
            meta = workdir.read_meta()
            if meta is None:
                raise FileNotFoundError(
                    f"no complete v3 partition at {workdir.root!r}"
                )
            intern = _transport.load_intern(workdir, meta)
            view = _transport.attach_view(workdir, meta, shard)
        transport_s = time.monotonic() - started_monotonic
        try:
            columns, indices = view.columns(intern)
            events_seen = len(columns)
            with obs.span("shard.kernel", shard=shard, tool=tool) as kspan:
                if use_fused:
                    try:
                        run_kernel(
                            tool, columns, indices=indices, detector=detector
                        )
                    except Exception as error:
                        # Fused-path failure degrades, it does not fail the
                        # shard: rebuild the detector (the kernel may have
                        # half-advanced its shadow state) and redo this
                        # shard on the generic object path, whose output is
                        # bit-identical by the equivalence contract.
                        obs.record_degraded(
                            "kernel_fallback", tool=tool, shard=shard,
                            error=str(error),
                        )
                        detector = make_detector(tool, **(tool_kwargs or {}))
                        use_fused = False
                if not use_fused:
                    kind_counts: Dict[int, int] = {}
                    handle = detector.handle
                    targets, sites = intern
                    Event = ev.Event
                    for index, kind, tid, target_id, site_id in zip(
                        indices, columns.kinds, columns.tids,
                        columns.target_ids, columns.site_ids,
                    ):
                        event = Event(
                            kind,
                            tid,
                            targets[target_id],
                            sites[site_id] if site_id >= 0 else None,
                        )
                        handle(event, index=index)
                        kind_counts[kind] = kind_counts.get(kind, 0) + 1
                    _tally_kinds(detector.stats, kind_counts)
                if classifier is not None:
                    # The shard's FastTrack run is also the classifier's
                    # race verdict (other tools are ignored by it).
                    classifier.process(columns, verdict=detector)
                kspan.set(
                    events=events_seen,
                    kernel="fused" if use_fused else "generic",
                )
        finally:
            columns = indices = None
            view.close()

        classifier_payload = (
            classifier_counts(classifier) if classifier is not None else None
        )
        shard_span.set(
            events=events_seen, kernel="fused" if use_fused else "generic"
        )

    ended_monotonic = time.monotonic()
    payload = {
        "payload_version": PAYLOAD_VERSION,
        "shard": shard,
        "attempt": attempt,
        "tool": tool,
        "events": events_seen,
        "kernel": "fused" if use_fused else "generic",
        "warnings": [warning_to_json(w) for w in detector.warnings],
        "suppressed": detector.suppressed_warnings,
        "stats": stats_to_json(detector.stats),
        "classifier": classifier_payload,
        "timing": {
            "started": started_monotonic,
            "wall_s": ended_monotonic - started_monotonic,
            "cpu_s": time.process_time() - started_cpu,
            "transport_s": transport_s,
        },
    }
    workdir.write_result(tool, shard, payload)
    return payload


def run_shard(
    root: str,
    shard: int,
    tool: str,
    tool_kwargs: Optional[Dict] = None,
    classify: bool = False,
    kernel: str = "auto",
    attempt: int = 0,
    trace: Optional[Dict] = None,
) -> int:
    """Multiprocessing entry point: picklable args, result left on disk.

    Installs the drain handler so a SIGTERM delivered mid-shard does not
    kill the worker: the in-flight shard finishes and checkpoints, and
    only then does the worker exit (child processes with
    :data:`DRAIN_EXIT_CODE`; the in-process sequential path returns
    normally and lets the caller stop at the shard boundary).

    Also adopts any ``REPRO_FAULTS`` plan on first entry, so chaos plans
    reach spawn-start workers and pool processes re-spawned mid-run, not
    just fork children.

    ``trace`` is the dispatcher's trace context (see
    :mod:`repro.obs.tracecontext`): adopting it makes this worker write
    real span records — into its own ``spans-<pid>.jsonl`` when it is a
    separate process — parented under the submitting ``engine.analyze``
    span.  Spawn-start workers that were handed no context fall back to
    the ``REPRO_TRACE`` environment export.  ``None`` with no env set
    means telemetry is off and the analysis runs exactly as before.
    """
    faults.load_from_env_once()
    install_drain_handler()
    if trace is None:
        trace = tracecontext.context_from_env()
    with tracecontext.adopt(trace):
        analyze_shard(
            Workdir(root), shard, tool, tool_kwargs, classify, kernel,
            attempt, submitted=(trace or {}).get("submitted"),
        )
    if multiprocessing.parent_process() is not None and drain_requested():
        # Pool worker: the checkpoint is on disk; exiting here refuses
        # further shards so the parent's drain can proceed.
        os._exit(DRAIN_EXIT_CODE)
    return shard


def load_payloads(
    workdir: Workdir, tool: str, nshards: int
) -> List[Dict]:
    """Read every shard's checkpointed payload, in shard order."""
    return [workdir.read_result(tool, shard) for shard in range(nshards)]
