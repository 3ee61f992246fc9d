"""ERASER: the LockSet algorithm [33], extended for barriers [29].

Eraser enforces a *lock-based synchronization discipline*: every shared
variable should be consistently protected by some lock.  Per variable it
runs the classic ownership state machine

    VIRGIN → EXCLUSIVE(t) → SHARED → SHARED_MODIFIED

and, once a variable leaves the exclusive phase, maintains a candidate
lockset ``C(v)`` — intersected with the accessing thread's held locks on
every access — reporting a warning when ``C(v)`` becomes empty in the
SHARED_MODIFIED state.

Eraser is *unsound* and *incomplete* by design:

* fork/join and barrier synchronization do not update any lockset, so
  race-free fork/join programs produce spurious warnings (the paper's
  Table 1: 27 Eraser warnings vs. 8 real races);
* the EXCLUSIVE state forgives a genuinely racy handoff to the first other
  thread, so Eraser can *miss* races FastTrack finds (the hedc case).

Following the paper's evaluation setup ("ERASER [33], extended to handle
barrier synchronization [29]" — without it "the total number of warnings is
about three times higher"), a ``barrier_rel(T)`` event re-initializes every
variable's state machine: threads released from a barrier start a new phase
in which previous sharing history is forgotten.

Volatile accesses are ignored: stock Eraser has no happens-before reasoning,
which is one source of its false alarms on Eclipse (Section 5.3).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Optional, Set

from repro.core.detector import Detector
from repro.trace import events as ev

VIRGIN = 0
EXCLUSIVE = 1
SHARED = 2
SHARED_MODIFIED = 3

_STATE_NAMES = {
    VIRGIN: "virgin",
    EXCLUSIVE: "exclusive",
    SHARED: "shared",
    SHARED_MODIFIED: "shared-modified",
}


class _EraserVarState:
    __slots__ = ("state", "owner", "lockset")

    def __init__(self) -> None:
        self.state = VIRGIN
        self.owner = -1
        # None = the universe of locks (the candidate set before the first
        # post-exclusive access).
        self.lockset: Optional[FrozenSet[Hashable]] = None

    def shadow_words(self) -> int:
        return 3 + (len(self.lockset) if self.lockset else 0)


class Eraser(Detector):
    """The LockSet-discipline checker."""

    name = "Eraser"
    precise = False

    def __init__(self, handle_barriers: bool = True, **kwargs) -> None:
        super().__init__(**kwargs)
        self.vars: Dict[Hashable, _EraserVarState] = {}
        self.held: Dict[int, Set[Hashable]] = {}
        self.handle_barriers = handle_barriers

    def var(self, name: Hashable) -> _EraserVarState:
        key = self.shadow_key(name)
        state = self.vars.get(key)
        if state is None:
            state = _EraserVarState()
            self.vars[key] = state
        return state

    def _held(self, tid: int) -> Set[Hashable]:
        held = self.held.get(tid)
        if held is None:
            held = set()
            self.held[tid] = held
        return held

    # -- lock tracking -------------------------------------------------------

    def on_acquire(self, event: ev.Event) -> None:
        self._held(event.tid).add(event.target)

    def on_release(self, event: ev.Event) -> None:
        self._held(event.tid).discard(event.target)

    def on_barrier_release(self, event: ev.Event) -> None:
        if not self.handle_barriers:
            return
        self.stats.rule("ERASER BARRIER RESET")
        for state in self.vars.values():
            state.state = VIRGIN
            state.owner = -1
            state.lockset = None

    # -- the state machine ------------------------------------------------------

    def _access(self, event: ev.Event, is_write: bool) -> None:
        x = self.var(event.target)
        tid = event.tid
        state = x.state

        if state == VIRGIN:
            self.stats.rule("ERASER FIRST ACCESS")
            x.state = EXCLUSIVE
            x.owner = tid
            return
        if state == EXCLUSIVE:
            if tid == x.owner:
                self.stats.rule("ERASER EXCLUSIVE")
                return
            # Second thread: leave the exclusive phase.  The candidate set
            # becomes the locks held right now (universe ∩ held).
            x.lockset = frozenset(self._held(tid))
            x.state = SHARED_MODIFIED if is_write else SHARED
            self.stats.rule("ERASER SHARE TRANSITION")
        else:
            held = self._held(tid)
            current = x.lockset if x.lockset is not None else frozenset(held)
            x.lockset = (
                current & frozenset(held) if current else frozenset()
            )
            if is_write and state == SHARED:
                x.state = SHARED_MODIFIED
            self.stats.rule("ERASER LOCKSET REFINE")

        if x.state == SHARED_MODIFIED and not x.lockset:
            self.report(
                event,
                "lockset-empty",
                "no lock consistently protects this variable",
            )

    def on_read(self, event: ev.Event) -> None:
        self._access(event, is_write=False)

    def on_write(self, event: ev.Event) -> None:
        self._access(event, is_write=True)

    # -- memory accounting --------------------------------------------------------

    def shadow_memory_words(self) -> int:
        words = 0
        for x in self.vars.values():
            words += x.shadow_words()
        for held in self.held.values():
            words += 1 + len(held)
        return words
