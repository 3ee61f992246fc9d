"""BASICVC: the traditional vector-clock race detector.

BasicVC "maintains a read and a write VC for each memory location and
performs at least one VC comparison on every memory access" (Section 5.1).
It has no same-epoch fast path, so every read pays one O(n) comparison and
every write pays two — the cost profile FastTrack's ~10x speedup is measured
against.  Synchronization handling (Figure 3) is shared with the other
VC-based tools via :class:`~repro.core.vcsync.VCSyncDetector`, mirroring the
paper's shared optimized VC primitives.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.core.vectorclock import VectorClock
from repro.core.vcsync import VCSyncDetector
from repro.trace import events as ev


class _BasicVarState:
    """Two full vector clocks per location: ``R_x`` and ``W_x``."""

    __slots__ = ("read_vc", "write_vc")

    def __init__(self) -> None:
        self.read_vc = VectorClock.bottom()
        self.write_vc = VectorClock.bottom()

    def shadow_words(self) -> int:
        return 3 + len(self.read_vc) + len(self.write_vc)


class BasicVC(VCSyncDetector):
    """The straightforward precise detector: all vector clocks, all the time."""

    name = "BasicVC"
    precise = True

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.vars: Dict[Hashable, _BasicVarState] = {}

    def var(self, name: Hashable) -> _BasicVarState:
        key = self.shadow_key(name)
        state = self.vars.get(key)
        if state is None:
            state = _BasicVarState()
            self.stats.vc_allocs += 2
            self.vars[key] = state
        return state

    def on_read(self, event: ev.Event) -> None:
        t = self.thread(event.tid)
        x = self.var(event.target)
        self.stats.vc_ops += 1
        if not x.write_vc.leq(t.vc):
            self.report(event, "write-read", f"write history {x.write_vc!r}")
        x.read_vc.set(t.tid, t.vc.clocks[t.tid])

    def on_write(self, event: ev.Event) -> None:
        t = self.thread(event.tid)
        x = self.var(event.target)
        self.stats.vc_ops += 2
        if not x.write_vc.leq(t.vc):
            self.report(event, "write-write", f"write history {x.write_vc!r}")
        if not x.read_vc.leq(t.vc):
            self.report(event, "read-write", f"read history {x.read_vc!r}")
        x.write_vc.set(t.tid, t.vc.get(t.tid))

    def shadow_memory_words(self) -> int:
        words = self.sync_shadow_words()
        for x in self.vars.values():
            words += x.shadow_words()
        return words
