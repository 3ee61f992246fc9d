"""MULTIRACE: the hybrid LockSet / DJIT+ detector [29, 30].

MultiRace "maintains DJIT+'s instrumentation state, as well as a lock set
for each memory location.  The checker updates the lock set for a location
on the first access in an epoch, and full vector clock comparisons are
performed after this lock set becomes empty" (Section 5.1).  It also uses
Eraser's unsound ownership machine for thread-local and read-shared data,
"which leads to imprecision".

Our implementation mirrors that structure:

* full DJIT+ shadow state per location (two vector clocks, updated exactly
  as DJIT+ does — hence the *larger* memory footprint the paper observed);
* an Eraser-style ownership phase: while a variable is thread-local or its
  candidate lockset is non-empty, the expensive VC comparisons are skipped
  (fewer VC ops than even FastTrack, per the paper);
* once the lockset becomes empty, every non-same-epoch access performs the
  DJIT+ comparisons.

The skipped comparisons are where the imprecision lives: races that occur
while the variable still looks lock-protected or thread-local are silently
missed (MultiRace reports 5 warnings on the paper's benchmarks vs.
FastTrack's 8, including only 1 of the 3 hedc races).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Optional, Set

from repro.core.vectorclock import VectorClock
from repro.core.vcsync import VCSyncDetector
from repro.trace import events as ev


_MR_VIRGIN = 0
_MR_EXCLUSIVE = 1
_MR_READ_SHARED = 2
_MR_LOCKSET = 3
_MR_VC = 4


class _MultiRaceVarState:
    __slots__ = ("read_vc", "write_vc", "owner", "lockset", "phase")

    def __init__(self) -> None:
        self.read_vc = VectorClock.bottom()
        self.write_vc = VectorClock.bottom()
        self.owner = -1  # exclusive-phase owner
        self.lockset: Optional[FrozenSet[Hashable]] = None  # None = universe
        self.phase = _MR_VIRGIN

    def shadow_words(self) -> int:
        words = 4 + len(self.read_vc) + len(self.write_vc)
        if self.lockset:
            words += len(self.lockset)
        return words


class MultiRace(VCSyncDetector):
    """DJIT+ with an Eraser-style filter in front of the VC comparisons."""

    name = "MultiRace"
    precise = False

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.vars: Dict[Hashable, _MultiRaceVarState] = {}
        self.held: Dict[int, Set[Hashable]] = {}

    def var(self, name: Hashable) -> _MultiRaceVarState:
        key = self.shadow_key(name)
        state = self.vars.get(key)
        if state is None:
            state = _MultiRaceVarState()
            self.stats.vc_allocs += 2
            self.vars[key] = state
        return state

    def _held(self, tid: int) -> Set[Hashable]:
        held = self.held.get(tid)
        if held is None:
            held = set()
            self.held[tid] = held
        return held

    def on_acquire(self, event: ev.Event) -> None:
        super().on_acquire(event)
        self._held(event.tid).add(event.target)

    def on_release(self, event: ev.Event) -> None:
        super().on_release(event)
        self._held(event.tid).discard(event.target)

    # -- accesses -----------------------------------------------------------------

    def _lockset_phase(
        self, x: _MultiRaceVarState, tid: int, is_write: bool
    ) -> bool:
        """Run the Eraser-side filter; True = VC comparisons still skipped.

        This is Eraser's ownership machine, including its unsound
        thread-local and read-shared states — the source of MultiRace's
        missed races (hedc, jbb in Table 1).
        """
        phase = x.phase
        if phase == _MR_VC:
            return False
        if phase == _MR_VIRGIN:
            x.owner = tid
            x.phase = _MR_EXCLUSIVE
            self.stats.rule("MULTIRACE EXCLUSIVE")
            return True
        if phase == _MR_EXCLUSIVE:
            if tid == x.owner:
                self.stats.rule("MULTIRACE EXCLUSIVE")
                return True
            if not is_write:
                x.phase = _MR_READ_SHARED
                self.stats.rule("MULTIRACE READ SHARED")
                return True
        elif phase == _MR_READ_SHARED and not is_write:
            self.stats.rule("MULTIRACE READ SHARED")
            return True
        # A write leaving the exclusive/read-shared phase, or any access in
        # the lockset phase: refine the candidate set.
        held = frozenset(self._held(tid))
        x.lockset = held if x.lockset is None else (x.lockset & held)
        if x.lockset:
            x.phase = _MR_LOCKSET
            self.stats.rule("MULTIRACE LOCKSET")
            return True
        x.phase = _MR_VC
        self.stats.rule("MULTIRACE SWITCH TO VC")
        return False

    def on_read(self, event: ev.Event) -> None:
        t = self.thread(event.tid)
        x = self.var(event.target)
        clock = t.vc.clocks[t.tid]
        if x.read_vc.get(t.tid) == clock:  # same epoch: derived count
            return
        if not self._lockset_phase(x, event.tid, is_write=False):
            self.stats.vc_ops += 1
            if not x.write_vc.leq(t.vc):
                self.report(
                    event, "write-read", f"write history {x.write_vc!r}"
                )
        x.read_vc.set(t.tid, clock)

    def on_write(self, event: ev.Event) -> None:
        t = self.thread(event.tid)
        x = self.var(event.target)
        clock = t.vc.clocks[t.tid]
        if x.write_vc.get(t.tid) == clock:  # same epoch: derived count
            return
        if not self._lockset_phase(x, event.tid, is_write=True):
            self.stats.vc_ops += 2
            if not x.write_vc.leq(t.vc):
                self.report(
                    event, "write-write", f"write history {x.write_vc!r}"
                )
            if not x.read_vc.leq(t.vc):
                self.report(
                    event, "read-write", f"read history {x.read_vc!r}"
                )
        x.write_vc.set(t.tid, clock)

    # -- memory accounting ---------------------------------------------------------

    def shadow_memory_words(self) -> int:
        words = self.sync_shadow_words()
        for x in self.vars.values():
            words += x.shadow_words()
        for held in self.held.values():
            words += 1 + len(held)
        return words
