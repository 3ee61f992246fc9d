"""GOLDILOCKS: precise race detection with synchronization-device locksets [14].

Goldilocks captures happens-before without vector clocks.  Per memory
location it maintains a set of "synchronization devices" — threads, locks,
and volatile variables — such that a thread in the set can safely access the
location.  Synchronization operations grow locksets by the transfer rules

    acq(t,m):   if m ∈ LS  then  LS ∪= {t}
    rel(t,m):   if t ∈ LS  then  LS ∪= {m}
    fork(t,u):  if t ∈ LS  then  LS ∪= {u}
    join(t,u):  if u ∈ LS  then  LS ∪= {t}
    vol_wr(t,v): if t ∈ LS then  LS ∪= {v}
    vol_rd(t,v): if v ∈ LS then  LS ∪= {t}
    barrier(T): if LS ∩ T ≠ ∅ then LS ∪= T

Like the original, we use the *lazy* formulation: synchronization operations
are appended to a global event list in O(1), and a location's locksets are
only brought up to date (by replaying the events since their last position)
when the location is accessed.  The short-circuit check — "accessing thread
already in the lockset" — skips the replay entirely, which is Goldilocks'
own fast path.

Precision for read-write races requires one lockset **per outstanding
access**: one for the last write plus one per thread that has read since
(all grown independently by the rules above).  This corresponds to the
original's per-access positions into the event list.  A write checks itself
against *all* of them, then collapses the history to a single fresh record.

Two costs are inherent and reproduce the paper's findings (31.6x average
slowdown in RoadRunner): every lockset is a set that must be updated per
sync event in its replay window, and the global event list can only be
trimmed once every location has caught up — the original needed garbage-
collector integration for this; we approximate with a periodic flush that
eagerly replays all live records and clears the list.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.core.detector import Detector
from repro.trace import events as ev

# Lockset elements are tagged so thread ids can never collide with lock or
# volatile names.
_T = "T"
_L = "L"
_V = "V"

#: Number of pending sync events that triggers an eager flush of the global
#: event list (the GC-integration surrogate).
FLUSH_THRESHOLD = 8192


class _Record:
    """One outstanding access: its lockset and its event-list position."""

    __slots__ = ("lockset", "pos")

    def __init__(self, lockset: Set[Tuple[str, Hashable]], pos: int) -> None:
        self.lockset = lockset
        self.pos = pos


class _GoldilocksVarState:
    __slots__ = ("write_record", "read_records", "owner")

    def __init__(self) -> None:
        self.write_record: Optional[_Record] = None
        self.read_records: Dict[int, _Record] = {}
        # Unsound thread-local extension: -1 = virgin, -2 = shared (past the
        # forgiven handoff), otherwise the exclusive owner's tid.
        self.owner = -1

    def shadow_words(self) -> int:
        words = 3
        if self.write_record is not None:
            words += 2 + len(self.write_record.lockset)
        for record in self.read_records.values():
            words += 2 + len(record.lockset)
        return words


class Goldilocks(Detector):
    """The precise lockset-based detector of Elmas, Qadeer, and Tasiran."""

    name = "Goldilocks"
    precise = True

    def __init__(
        self,
        flush_threshold: int = FLUSH_THRESHOLD,
        unsound_thread_local: bool = False,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.vars: Dict[Hashable, _GoldilocksVarState] = {}
        self._sync_events: List[tuple] = []
        self._base = 0  # global index of _sync_events[0]
        self._flush_threshold = flush_threshold
        #: The paper's RoadRunner Goldilocks ran "utilizing an unsound
        #: extension to handle thread-local data efficiently.  (This
        #: extension caused it to miss the three races in hedc...)".  When
        #: enabled, a variable's first handoff to a second thread is
        #: forgiven: no race check, and tracking restarts at that access.
        self.unsound_thread_local = unsound_thread_local

    def var(self, name: Hashable) -> _GoldilocksVarState:
        key = self.shadow_key(name)
        state = self.vars.get(key)
        if state is None:
            state = _GoldilocksVarState()
            self.vars[key] = state
        return state

    # -- the global synchronization-event list -----------------------------------

    def _append_sync(self, entry: tuple) -> None:
        self._sync_events.append(entry)
        if len(self._sync_events) >= self._flush_threshold:
            self._flush()

    def _flush(self) -> None:
        """Bring every live record up to date and clear the event list."""
        self.stats.rule("GOLDILOCKS FLUSH")
        for state in self.vars.values():
            if state.write_record is not None:
                self._replay(state.write_record)
            for record in state.read_records.values():
                self._replay(record)
        self._base += len(self._sync_events)
        self._sync_events.clear()

    def _replay(self, record: _Record) -> None:
        """Apply the transfer rules for all events after ``record.pos``."""
        start = record.pos - self._base
        events = self._sync_events
        if start >= len(events):
            return
        lockset = record.lockset
        applied = 0
        for entry in events[start:]:
            applied += 1
            op = entry[0]
            if op == "barrier":
                members = entry[1]
                if lockset & members:
                    lockset |= members
            else:
                _, trigger, grant = entry
                if trigger in lockset:
                    lockset.add(grant)
        record.pos = self._base + len(events)
        self.stats.rules["GOLDILOCKS APPLY"] += applied

    def _now(self) -> int:
        return self._base + len(self._sync_events)

    # -- synchronization operations (O(1): append to the list) --------------------

    def on_acquire(self, event: ev.Event) -> None:
        self._append_sync(("sync", (_L, event.target), (_T, event.tid)))

    def on_release(self, event: ev.Event) -> None:
        self._append_sync(("sync", (_T, event.tid), (_L, event.target)))

    def on_fork(self, event: ev.Event) -> None:
        self._append_sync(("sync", (_T, event.tid), (_T, event.target)))

    def on_join(self, event: ev.Event) -> None:
        self._append_sync(("sync", (_T, event.target), (_T, event.tid)))

    def on_volatile_write(self, event: ev.Event) -> None:
        self._append_sync(("sync", (_T, event.tid), (_V, event.target)))

    def on_volatile_read(self, event: ev.Event) -> None:
        self._append_sync(("sync", (_V, event.target), (_T, event.tid)))

    def on_barrier_release(self, event: ev.Event) -> None:
        members = frozenset((_T, tid) for tid in event.target)
        self._append_sync(("barrier", members))

    # -- accesses ----------------------------------------------------------------

    def _ordered_after(self, record: _Record, tid: int) -> bool:
        """Whether thread ``tid``'s current operation happens after the
        access ``record`` describes (short-circuit first, then replay)."""
        element = (_T, tid)
        if element in record.lockset:  # Goldilocks' own short-circuit check
            return True
        self._replay(record)
        return element in record.lockset

    def _thread_local_fast_path(
        self, x: _GoldilocksVarState, tid: int
    ) -> bool:
        """The unsound extension: skip all tracking while a variable is
        thread-local, and forgive the first handoff to a second thread.
        Returns True if the access has been fully handled."""
        if x.owner == -2:
            return False
        if x.owner == -1:
            x.owner = tid
            return False  # fall through: install records normally
        if x.owner == tid:
            return False
        # Handoff: unsoundly treat the transfer as ordered and restart.
        x.owner = -2
        x.write_record = None
        x.read_records.clear()
        self.stats.rule("GOLDILOCKS UNSOUND HANDOFF")
        return False

    def on_read(self, event: ev.Event) -> None:
        x = self.var(event.target)
        tid = event.tid
        if self.unsound_thread_local:
            self._thread_local_fast_path(x, tid)
        if x.write_record is not None and not self._ordered_after(
            x.write_record, tid
        ):
            self.report(event, "write-read", "unordered previous write")
        x.read_records[tid] = _Record({(_T, tid)}, self._now())

    def on_write(self, event: ev.Event) -> None:
        x = self.var(event.target)
        tid = event.tid
        if self.unsound_thread_local:
            self._thread_local_fast_path(x, tid)
        if x.write_record is not None and not self._ordered_after(
            x.write_record, tid
        ):
            self.report(event, "write-write", "unordered previous write")
        for reader, record in x.read_records.items():
            if reader != tid and not self._ordered_after(record, tid):
                self.report(
                    event, "read-write", f"unordered read by thread {reader}"
                )
        x.read_records.clear()
        x.write_record = _Record({(_T, tid)}, self._now())

    # -- memory accounting ----------------------------------------------------------

    def shadow_memory_words(self) -> int:
        words = 2 * len(self._sync_events)
        for x in self.vars.values():
            words += x.shadow_words()
        return words
