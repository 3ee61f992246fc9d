"""SINGLETRACK: a dynamic determinism checker [32].

SingleTrack verifies that a parallel program's observable behaviour does not
depend on scheduling.  The essential check: conflicting accesses must be
ordered by the program's *deterministic* synchronization structure —
fork/join parallelism and barriers — rather than by mutual exclusion alone
(two critical sections on one lock exclude each other, but their order is a
scheduler's choice, so a lock-mediated conflict is a determinism violation
even though it is not a race).

The implementation therefore runs a full vector-clock analysis in which
only fork, join, and barrier events create cross-thread edges; acquires,
releases, and volatiles advance clocks but transfer no ordering.  Every
access pays one or two O(n) comparisons against per-variable read/write
vector clocks — there are no epoch fast paths, which is why SingleTrack is
the most expensive checker in the Section 5.2 table (104x unfiltered in the
paper) and gains the most (8x) from a FastTrack prefilter.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.core.detector import Detector
from repro.core.state import ThreadState
from repro.core.vectorclock import VectorClock
from repro.trace import events as ev


class _STVarState:
    """Per-variable determinism state.

    Beyond the read/write vector clocks, SingleTrack maintains the
    variable's *task region* — the join of every accessing task's clock —
    and the set of accessor tids; both feed its nondeterminism reports and
    are updated on every access, which is what makes the checker so much
    more expensive than a plain race detector (104x unfiltered in the
    paper, the heaviest of the three).
    """

    __slots__ = (
        "read_vc",
        "write_vc",
        "region",
        "accessors",
        "access_count",
        "log",
    )

    LOG_LIMIT = 2048

    def __init__(self) -> None:
        self.read_vc = VectorClock.bottom()
        self.write_vc = VectorClock.bottom()
        self.region = VectorClock.bottom()
        self.accessors = set()
        self.access_count = 0
        # Evidence log of (tid, clock, is_write) for violation reports.
        self.log: list = []

    def record(self, tid: int, clock: int, is_write: bool) -> None:
        log = self.log
        log.append((tid, clock, is_write))
        if len(log) > self.LOG_LIMIT:
            del log[: self.LOG_LIMIT // 2]


class SingleTrack(Detector):
    """Reports scheduler-dependent (nondeterministic) conflicting accesses."""

    name = "SingleTrack"
    precise = False  # with respect to *races*; it checks a different property

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.threads: Dict[int, ThreadState] = {}
        self.vars: Dict[Hashable, _STVarState] = {}
        self.violations: List[Tuple[Hashable, str]] = []
        self._violated: set = set()

    def thread(self, tid: int) -> ThreadState:
        state = self.threads.get(tid)
        if state is None:
            state = ThreadState(tid)
            self.stats.vc_allocs += 1
            self.threads[tid] = state
        return state

    def var(self, name: Hashable) -> _STVarState:
        key = self.shadow_key(name)
        state = self.vars.get(key)
        if state is None:
            state = _STVarState()
            self.stats.vc_allocs += 2
            self.vars[key] = state
        return state

    def _violation(self, event: ev.Event, reason: str) -> None:
        key = self.shadow_key(event.target)
        if key in self._violated:
            return
        self._violated.add(key)
        self.violations.append((event.target, reason))

    # -- deterministic synchronization: fork/join/barrier only ---------------------

    def on_fork(self, event: ev.Event) -> None:
        t = self.thread(event.tid)
        u = self.thread(event.target)
        u.vc.join(t.vc)
        self.stats.vc_ops += 1
        t.vc.inc(t.tid)

    def on_join(self, event: ev.Event) -> None:
        t = self.thread(event.tid)
        u = self.thread(event.target)
        t.vc.join(u.vc)
        self.stats.vc_ops += 1
        u.vc.inc(u.tid)

    def on_barrier_release(self, event: ev.Event) -> None:
        joined = None
        for tid in event.target:
            u = self.thread(tid)
            if joined is None:
                joined = u.vc.copy()
                self.stats.vc_allocs += 1
            else:
                joined.join(u.vc)
            self.stats.vc_ops += 1
        if joined is None:
            return
        for tid in event.target:
            u = self.thread(tid)
            u.vc.assign(joined)
            u.vc.inc(tid)
            self.stats.vc_ops += 1

    # Locks advance the local clock (new epoch) but order nothing.

    def on_acquire(self, event: ev.Event) -> None:
        self.thread(event.tid)

    def on_release(self, event: ev.Event) -> None:
        t = self.thread(event.tid)
        t.vc.inc(t.tid)

    # -- accesses: full VC comparisons, no fast paths ----------------------------------

    def _touch(self, x: _STVarState, t: ThreadState) -> None:
        """Region maintenance common to reads and writes: join the task's
        clock into the variable's region and record the accessor."""
        x.region.join(t.vc)
        self.stats.vc_ops += 1
        x.accessors.add(t.tid)
        x.access_count += 1
        x.record(t.tid, t.vc.get(t.tid), True)

    def on_read(self, event: ev.Event) -> None:
        t = self.thread(event.tid)
        x = self.var(event.target)
        self.stats.vc_ops += 2
        if not x.write_vc.leq(t.vc):
            self._violation(
                event, "read races with a write under nondeterministic order"
            )
        x.read_vc.set(t.tid, t.vc.get(t.tid))
        self._touch(x, t)

    def on_write(self, event: ev.Event) -> None:
        t = self.thread(event.tid)
        x = self.var(event.target)
        self.stats.vc_ops += 3
        if not x.write_vc.leq(t.vc):
            self._violation(
                event, "write races with a write under nondeterministic order"
            )
        if not x.read_vc.leq(t.vc):
            self._violation(
                event, "write races with a read under nondeterministic order"
            )
        elif len(x.accessors) > 1 and not x.region.leq(t.vc):
            # The write's visibility relative to other accessors of the
            # region is the scheduler's choice.
            self._violation(
                event, "write into a schedule-dependent region"
            )
        x.write_vc.set(t.tid, t.vc.get(t.tid))
        self._touch(x, t)

    @property
    def violation_count(self) -> int:
        return len(self.violations)
