"""DJIT+: the high-performance vector-clock race detector [30].

DJIT+ keeps two vector clocks per location, like BasicVC, but adds the
same-epoch fast paths shown in the right column of Figure 2 (the revised
formulation the paper compares against — "some clocks are one less than in
the original ... slightly simpler and more directly comparable to
FastTrack"):

* `[DJIT+ READ SAME EPOCH]`  — ``R_x(t) == C_t(t)``: skip the check
  (78.0% of reads in the paper's benchmarks);
* `[DJIT+ READ]`             — O(n) check ``W_x ⊑ C_t``, then
  ``R_x(t) := C_t(t)``;
* `[DJIT+ WRITE SAME EPOCH]` — ``W_x(t) == C_t(t)``: skip (71.0% of writes);
* `[DJIT+ WRITE]`            — O(n) checks ``W_x ⊑ C_t`` and ``R_x ⊑ C_t``,
  then ``W_x(t) := C_t(t)``.

The remaining O(n) work on ~22% of reads and ~29% of writes is exactly what
FastTrack's epochs eliminate.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.core.vectorclock import VectorClock
from repro.core.vcsync import VCSyncDetector
from repro.trace import events as ev


class _DJITVarState:
    __slots__ = ("read_vc", "write_vc")

    def __init__(self) -> None:
        self.read_vc = VectorClock.bottom()
        self.write_vc = VectorClock.bottom()

    def shadow_words(self) -> int:
        return 3 + len(self.read_vc) + len(self.write_vc)


class DJITPlus(VCSyncDetector):
    """The epoch-fast-pathed vector-clock detector of Pozniansky & Schuster."""

    name = "DJIT+"
    precise = True

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.vars: Dict[Hashable, _DJITVarState] = {}

    def var(self, name: Hashable) -> _DJITVarState:
        key = self.shadow_key(name)
        state = self.vars.get(key)
        if state is None:
            state = _DJITVarState()
            self.stats.vc_allocs += 2
            self.vars[key] = state
        return state

    def on_read(self, event: ev.Event) -> None:
        t = self.thread(event.tid)
        x = self.var(event.target)
        clock = t.vc.clocks[t.tid]
        # [DJIT+ READ SAME EPOCH]: counted by derivation (hot path).
        if x.read_vc.get(t.tid) == clock:
            return
        self.stats.rule("DJIT+ READ")
        self.stats.vc_ops += 1
        if not x.write_vc.leq(t.vc):
            self.report(event, "write-read", f"write history {x.write_vc!r}")
        x.read_vc.set(t.tid, clock)

    def on_write(self, event: ev.Event) -> None:
        t = self.thread(event.tid)
        x = self.var(event.target)
        clock = t.vc.clocks[t.tid]
        # [DJIT+ WRITE SAME EPOCH]: counted by derivation (hot path).
        if x.write_vc.get(t.tid) == clock:
            return
        self.stats.rule("DJIT+ WRITE")
        self.stats.vc_ops += 2
        if not x.write_vc.leq(t.vc):
            self.report(event, "write-write", f"write history {x.write_vc!r}")
        if not x.read_vc.leq(t.vc):
            self.report(event, "read-write", f"read history {x.read_vc!r}")
        x.write_vc.set(t.tid, clock)

    def shadow_memory_words(self) -> int:
        words = self.sync_shadow_words()
        for x in self.vars.values():
            words += x.shadow_words()
        return words
