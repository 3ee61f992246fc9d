"""The abstract online-analysis interface shared by all seven tools.

The paper implements Empty, Eraser, Goldilocks, BasicVC, DJIT+, MultiRace and
FastTrack "on top of the same framework ... thus providing a true
apples-to-apples comparison".  This module is that common framework seen from
the analysis side: a :class:`Detector` consumes an event stream one operation
at a time, updates its shadow state, and records :class:`RaceWarning`\\ s.

The evaluation infrastructure hangs off :class:`CostStats`:

* ``vc_allocs`` / ``vc_ops`` — the Table 2 columns (vector clocks allocated,
  O(n)-time vector-clock operations performed);
* ``rules``   — per-rule firing counts, reproducing the Figure 2 / Figure 5
  frequency annotations;
* event-kind counts — the operation mix (82.3% reads, 14.5% writes, 3.3%
  other in the paper's benchmarks).

Warning deduplication follows the paper's reporting discipline: "the tools
report at most one race for each field of each class, and at most one race
for each array access in the program source code" — here, at most one
warning per shadow key (variable, or object under coarse granularity) and at
most one per source site.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Dict, Hashable, Iterable, List, Optional

from repro.trace import events as ev


@dataclass
class CostStats:
    """Architecture-independent cost counters for one detector run."""

    events: int = 0
    reads: int = 0
    writes: int = 0
    syncs: int = 0
    boundaries: int = 0  # enter/exit markers (not part of the Figure 2 mix)
    vc_allocs: int = 0  # vector clocks allocated (Table 2, left)
    vc_ops: int = 0  # O(n)-time VC operations performed (Table 2, right)
    fast_ops: int = 0  # O(1) epoch operations on access fast paths
    rules: Counter = field(default_factory=Counter)

    def rule(self, name: str) -> None:
        self.rules[name] += 1

    def merge(self, other: "CostStats") -> "CostStats":
        """Fold another run's counters into this one (in place).

        This is the primitive the sharded engine uses to combine per-shard
        detector stats: every counter is summed, which makes the merged
        numbers reflect the *work actually performed* across all shards.
        Because synchronization events are broadcast to every shard, their
        contributions (``syncs``, sync-side ``vc_ops``/``vc_allocs``) appear
        once per shard; :func:`repro.engine.merge.merge_stats` corrects the
        event-mix counters back to trace-accurate totals.
        """
        self.events += other.events
        self.reads += other.reads
        self.writes += other.writes
        self.syncs += other.syncs
        self.boundaries += other.boundaries
        self.vc_allocs += other.vc_allocs
        self.vc_ops += other.vc_ops
        self.fast_ops += other.fast_ops
        self.rules.update(other.rules)
        return self

    def summary(self) -> Dict[str, object]:
        data = {
            "events": self.events,
            "reads": self.reads,
            "writes": self.writes,
            "syncs": self.syncs,
            "boundaries": self.boundaries,
            "vc_allocs": self.vc_allocs,
            "vc_ops": self.vc_ops,
            "fast_ops": self.fast_ops,
        }
        data.update({f"rule:{k}": v for k, v in sorted(self.rules.items())})
        return data


@dataclass(frozen=True)
class RaceWarning:
    """One reported (potential) race.

    ``kind`` is one of ``write-write``, ``write-read``, ``read-write`` for
    the precise tools, or a tool-specific label (e.g. Eraser's
    ``lockset-empty``).  ``prior`` is a human-readable description of the
    earlier access the current one conflicts with.
    """

    var: Hashable
    kind: str
    tid: int
    prior: str
    event_index: int
    site: Optional[Hashable] = None

    def __str__(self) -> str:
        where = f" at {self.site}" if self.site is not None else ""
        return (
            f"{self.kind} race on {self.var!r}: thread {self.tid} "
            f"(event #{self.event_index}){where} conflicts with {self.prior}"
        )


def fine_grain(var: Hashable) -> Hashable:
    """Default granularity: every variable gets its own shadow state."""
    return var


def coarse_grain(var: Hashable) -> Hashable:
    """Coarse granularity (Table 3): all elements of an object share one
    shadow state.

    The workloads name memory locations ``(array, owner, index)`` for
    per-object arrays and ``(field, owner)`` for scalar fields of a
    per-thread object.  Coarse mode collapses the former to the object
    ``(array, owner)`` — one shadow word per array instead of per element —
    while scalar fields and bare names keep their identity (an object is
    never merged with another object, matching RoadRunner's per-object
    shadow mode)."""
    if isinstance(var, tuple) and len(var) >= 3:
        return var[:2]
    return var


class Detector:
    """Base class for all dynamic analyses over the Figure 1 event stream.

    Subclasses override the ``on_*`` hooks.  The base class maintains thread
    bookkeeping counters, the warning list, and dispatch; it holds **no**
    happens-before state, so imprecise tools like Eraser pay nothing for the
    machinery they do not use.
    """

    name = "abstract"
    #: True for tools that never report false alarms (used in reports).
    precise = False

    def __init__(
        self,
        shadow_key: Callable[[Hashable], Hashable] = fine_grain,
    ) -> None:
        self.shadow_key = shadow_key
        self.stats = CostStats()
        self.warnings: List[RaceWarning] = []
        self.suppressed_warnings = 0
        self._warned_keys: set = set()
        self._warned_sites: set = set()
        self._index = -1
        self._dispatch = {
            ev.READ: self.on_read,
            ev.WRITE: self.on_write,
            ev.ACQUIRE: self.on_acquire,
            ev.RELEASE: self.on_release,
            ev.FORK: self.on_fork,
            ev.JOIN: self.on_join,
            ev.VOLATILE_READ: self.on_volatile_read,
            ev.VOLATILE_WRITE: self.on_volatile_write,
            ev.BARRIER_RELEASE: self.on_barrier_release,
            ev.ENTER: self.on_enter,
            ev.EXIT: self.on_exit,
            ev.TASK_SPAWN: self.on_task_spawn,
            ev.TASK_AWAIT: self.on_task_await,
            ev.FINISH_BEGIN: self.on_finish_begin,
            ev.FINISH_END: self.on_finish_end,
        }

    # -- driving ------------------------------------------------------------

    def process(
        self,
        trace: Iterable[ev.Event],
        indices: Optional[Iterable[int]] = None,
    ) -> "Detector":
        """Run the analysis over an entire event stream in one pass.

        The operation-mix tallies are folded into the same loop — the
        stream is walked exactly once and never materialized, so one-shot
        iterables (``iter_load``, generators) stream through.
        :meth:`absorb_kind_counts` remains for callers that drive
        :meth:`handle` event by event themselves.

        ``indices``, when given, are the events' original trace positions
        (see :meth:`handle`): a sharded engine worker replays its shard's
        sub-stream with them.
        """
        stats = self.stats
        handle = self.handle
        READ = ev.READ
        WRITE = ev.WRITE
        ENTER = ev.ENTER
        EXIT = ev.EXIT
        reads = writes = syncs = boundaries = total = 0
        if indices is None:
            indices = repeat(None)
        for event, index in zip(trace, indices):
            kind = event.kind
            if kind == READ:
                reads += 1
            elif kind == WRITE:
                writes += 1
            elif kind == ENTER or kind == EXIT:
                boundaries += 1
            else:
                syncs += 1
            total += 1
            handle(event, index)
        stats.events += total
        stats.reads += reads
        stats.writes += writes
        stats.syncs += syncs
        stats.boundaries += boundaries
        return self

    def handle(self, event: ev.Event, index: Optional[int] = None) -> None:
        """Feed a single event to the analysis.

        Deliberately minimal: per-event kind tallies are taken in bulk by
        :meth:`absorb_kind_counts` so the analysis hot paths are measured,
        not the bookkeeping.

        ``index`` overrides the running event counter: the sharded engine
        passes each event's *original* trace position so that warnings from
        a shard worker (which sees only a sub-stream) carry the same
        ``event_index`` a single-threaded run would report.
        """
        if index is None:
            self._index += 1
        else:
            self._index = index
        self._dispatch[event.kind](event)

    @property
    def events_handled(self) -> int:
        """How many events this detector has consumed (independent of the
        bulk kind counters, which are filled by :meth:`absorb_kind_counts`)."""
        return self._index + 1

    def absorb_kind_counts(self, events: Iterable[ev.Event]) -> None:
        """Fill the operation-mix counters from a finished event stream."""
        stats = self.stats
        for event in events:
            kind = event.kind
            stats.events += 1
            if kind == ev.READ:
                stats.reads += 1
            elif kind == ev.WRITE:
                stats.writes += 1
            elif kind == ev.ENTER or kind == ev.EXIT:
                stats.boundaries += 1
            else:
                stats.syncs += 1

    # -- warning reporting ----------------------------------------------------

    def report(
        self,
        event: ev.Event,
        kind: str,
        prior: str,
    ) -> None:
        """Record a warning, deduplicated per shadow key and per site."""
        key = self.shadow_key(event.target)
        if key in self._warned_keys or (
            event.site is not None and event.site in self._warned_sites
        ):
            # Even when the report is suppressed (same field or same source
            # location already warned), remember that this variable raced so
            # a later access at a third location does not re-report it.
            self._warned_keys.add(key)
            self.suppressed_warnings += 1
            return
        self._warned_keys.add(key)
        if event.site is not None:
            self._warned_sites.add(event.site)
        self.warnings.append(
            RaceWarning(
                var=event.target,
                kind=kind,
                tid=event.tid,
                prior=prior,
                event_index=self._index,
                site=event.site,
            )
        )

    def has_warned(self, var: Hashable) -> bool:
        return self.shadow_key(var) in self._warned_keys

    @property
    def warning_count(self) -> int:
        return len(self.warnings)

    # -- memory accounting (Table 3) -----------------------------------------

    def shadow_memory_words(self) -> int:
        """Current shadow-state footprint in words; overridden by tools."""
        return 0

    def compact(self) -> int:
        """Drop shadow state that can no longer change the warning stream.

        The incremental monitor (:mod:`repro.watch`) calls this
        periodically so an unbounded live stream does not grow detector
        memory without bound.  Implementations must be *warning
        preserving*: after a compaction, the sequence of warnings emitted
        for any continuation of the stream is identical to what an
        uncompacted detector would emit.  Returns the number of shadow
        entries released; the base implementation keeps everything and
        returns 0, which is always sound.
        """
        return 0

    # -- event hooks (default: ignore) ----------------------------------------

    def on_read(self, event: ev.Event) -> None:  # pragma: no cover - trivial
        pass

    def on_write(self, event: ev.Event) -> None:  # pragma: no cover - trivial
        pass

    def on_acquire(self, event: ev.Event) -> None:  # pragma: no cover
        pass

    def on_release(self, event: ev.Event) -> None:  # pragma: no cover
        pass

    def on_fork(self, event: ev.Event) -> None:  # pragma: no cover
        pass

    def on_join(self, event: ev.Event) -> None:  # pragma: no cover
        pass

    def on_volatile_read(self, event: ev.Event) -> None:  # pragma: no cover
        pass

    def on_volatile_write(self, event: ev.Event) -> None:  # pragma: no cover
        pass

    def on_barrier_release(self, event: ev.Event) -> None:  # pragma: no cover
        pass

    def on_enter(self, event: ev.Event) -> None:  # pragma: no cover
        pass

    def on_exit(self, event: ev.Event) -> None:  # pragma: no cover
        pass

    def on_task_spawn(self, event: ev.Event) -> None:  # pragma: no cover
        pass

    def on_task_await(self, event: ev.Event) -> None:  # pragma: no cover
        pass

    def on_finish_begin(self, event: ev.Event) -> None:  # pragma: no cover
        pass

    def on_finish_end(self, event: ev.Event) -> None:  # pragma: no cover
        pass
