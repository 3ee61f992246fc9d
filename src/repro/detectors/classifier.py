"""Sharing-pattern classification: quantifying the paper's key insight.

Section 1: "the vast majority of data in multithreaded programs is either
thread local, lock protected, or read shared" — that empirical observation
is what justifies FastTrack's adaptive representation.  This analysis
measures it: every variable (and every access) is classified into

* ``thread-local``   — accessed by a single thread;
* ``lock-protected`` — accessed by several threads, with some lock held on
  every access (a non-empty consistent candidate lockset);
* ``read-shared``    — accessed by several threads, but written by at most
  one, with no foreign write after the first foreign read (the
  initialize-then-share idiom);
* ``synchronized``   — shared and race-free, but ordered by fork/join,
  barriers, volatiles, or monitor handoffs rather than a consistent lock;
* ``racy``           — involved in a detected race.

The classifier runs a full FastTrack instance for the race verdict (so
``racy`` is precise), plus Eraser-style lockset refinement and accessor
bookkeeping for the other classes.  ``fractions()`` weights classes by
access count, which is the quantity the paper's fast-path argument needs.

:meth:`SharingClassifier.process` is columnar: the inner FastTrack runs
through its fused kernel, then one pass over the kind/tid/target columns
builds every profile.  The per-event :meth:`~Detector.handle` path
(``on_*`` below) stays as the reference it must match field for field
(``tests/test_classifier.py``).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, FrozenSet, Hashable, Optional, Set

from repro.core.detector import Detector, fine_grain
from repro.core.fasttrack import FastTrack
from repro.kernels import fasttrack as fasttrack_kernel
from repro.kernels._slots import slot_map
from repro.trace import events as ev
from repro.trace.columnar import ColumnarTrace

#: Event kinds the per-event path never forwards to the inner FastTrack
#: (they have no ``on_*`` handler here), as a ``bytes.translate`` table
#: mapping every kind to 1 when forwarded and 0 when not.
_FORWARDED = bytes(
    0 if kind in (
        ev.ENTER, ev.EXIT, ev.TASK_SPAWN, ev.TASK_AWAIT,
        ev.FINISH_BEGIN, ev.FINISH_END,
    ) else 1
    for kind in range(256)
)

#: The inner FastTrack's event-mix tallies: ``handle`` never fills them,
#: so the columnar run restores them after the kernel's bulk tally.
_MIX_FIELDS = ("events", "reads", "writes", "syncs", "boundaries")

THREAD_LOCAL = "thread-local"
LOCK_PROTECTED = "lock-protected"
READ_SHARED = "read-shared"
SYNCHRONIZED = "synchronized"
RACY = "racy"

CLASSES = (THREAD_LOCAL, LOCK_PROTECTED, READ_SHARED, SYNCHRONIZED, RACY)


class _VarProfile:
    __slots__ = (
        "accessors",
        "writers",
        "lockset",
        "accesses",
        "foreign_read_seen",
        "write_after_share",
    )

    def __init__(self) -> None:
        self.accessors: Set[int] = set()
        self.writers: Set[int] = set()
        self.lockset: Optional[FrozenSet[Hashable]] = None  # None = universe
        self.accesses = 0
        self.foreign_read_seen = False
        self.write_after_share = False


class SharingClassifier(Detector):
    """Classifies every variable by its observed sharing pattern."""

    name = "SharingClassifier"
    precise = True  # its 'racy' class comes from FastTrack

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.fasttrack = FastTrack(shadow_key=self.shadow_key)
        self.profiles: Dict[Hashable, _VarProfile] = {}
        self.held: Dict[int, Set[Hashable]] = {}

    # -- the columnar pass -----------------------------------------------------

    def process(self, trace) -> "SharingClassifier":
        """Classify a whole trace: a :class:`ColumnarTrace` (or engine
        shard columns) directly, any other event iterable after building
        its columns.

        Equal, field for field, to feeding every event through
        :meth:`handle`: the inner FastTrack's warnings, stats and shadow
        state, and every profile (in first-access order, locksets holding
        lock targets).  A classifier that has already seen events keeps
        that per-event path.
        """
        if self._index != -1 or self.profiles or self.held:
            return super().process(trace)
        col = (
            trace
            if isinstance(trace, ColumnarTrace)
            else ColumnarTrace.from_events(trace)
        )
        n = len(col)
        kb = col.kinds.tobytes()
        self._run_fasttrack(col, kb)
        self._build_profiles(col, kb)
        stats = self.stats
        reads = kb.count(ev.READ)
        writes = kb.count(ev.WRITE)
        boundaries = kb.count(ev.ENTER) + kb.count(ev.EXIT)
        stats.events += n
        stats.reads += reads
        stats.writes += writes
        stats.syncs += n - reads - writes - boundaries
        stats.boundaries += boundaries
        self._index += n
        return self

    def _run_fasttrack(self, col, kb: bytes) -> None:
        """The race verdict: the fused FastTrack kernel over ``col``,
        stamped with the indices the per-event path would give (it skips
        the kinds it does not forward)."""
        fasttrack = self.fasttrack
        flags = kb.translate(_FORWARDED)
        indices = None
        if flags.count(0):
            indices = list(accumulate(flags, initial=-1))
            del indices[0]
        stats = fasttrack.stats
        mix = [getattr(stats, name) for name in _MIX_FIELDS]
        # Called directly, not through ``run_kernel``: this pass is part of
        # the classifier, not a run of the checked tool's kernel.
        fasttrack_kernel.run(fasttrack, col, indices)
        for name, value in zip(_MIX_FIELDS, mix):
            setattr(stats, name, value)

    def _build_profiles(self, col, kb: bytes) -> None:
        """One pass over the kind/tid/target columns: accessors, writers,
        candidate locksets (as lock target ids until the end) and the
        read-sharing flags of every variable."""
        targets = col.targets
        ident = self.shadow_key is fine_grain
        if ident:
            keys = targets
        else:
            slots, keys = slot_map(targets, self.shadow_key)
        profiles = [None] * len(keys)
        order = []  # slots in first-access order
        held: Dict[int, Set[int]] = {}
        # Per-thread frozen copy of ``held``, dropped on every change.
        frozen: Dict[int, FrozenSet[int]] = {}
        new_profile = _VarProfile
        READ = ev.READ
        ACQUIRE = ev.ACQUIRE
        RELEASE = ev.RELEASE
        for kind, tid, target_id in zip(kb, col.tids, col.target_ids):
            if kind > RELEASE:
                continue
            if kind == ACQUIRE or kind == RELEASE:
                locks = held.get(tid)
                if locks is None:
                    locks = held[tid] = set()
                if kind == ACQUIRE:
                    locks.add(target_id)
                else:
                    locks.discard(target_id)
                frozen.pop(tid, None)
                continue
            slot = target_id if ident else slots[target_id]
            profile = profiles[slot]
            if profile is None:
                profile = profiles[slot] = new_profile()
                order.append(slot)
            profile.accesses += 1
            accessors = profile.accessors
            if accessors and (tid not in accessors or len(accessors) > 1):
                locks = frozen.get(tid)
                if locks is None:
                    mine = held.get(tid)
                    if mine is None:
                        mine = held[tid] = set()
                    locks = frozen[tid] = frozenset(mine)
                lockset = profile.lockset
                profile.lockset = (
                    locks if lockset is None else lockset & locks
                )
            writers = profile.writers
            if kind == READ:
                if writers and tid not in writers:
                    profile.foreign_read_seen = True
            else:
                if profile.foreign_read_seen:
                    profile.write_after_share = True
                writers.add(tid)
            accessors.add(tid)
        # Lock target ids back to lock targets (shared sets convert once).
        converted: Dict[FrozenSet[int], FrozenSet[Hashable]] = {}
        for slot in order:
            profile = profiles[slot]
            lockset = profile.lockset
            if lockset is not None:
                named = converted.get(lockset)
                if named is None:
                    named = converted[lockset] = frozenset(
                        targets[lock] for lock in lockset
                    )
                profile.lockset = named
        self.profiles = {keys[slot]: profiles[slot] for slot in order}
        self.held = {
            tid: {targets[lock] for lock in locks}
            for tid, locks in held.items()
        }

    # -- bookkeeping -----------------------------------------------------------

    def _profile(self, var: Hashable) -> _VarProfile:
        key = self.shadow_key(var)
        profile = self.profiles.get(key)
        if profile is None:
            profile = _VarProfile()
            self.profiles[key] = profile
        return profile

    def _held(self, tid: int) -> Set[Hashable]:
        held = self.held.get(tid)
        if held is None:
            held = set()
            self.held[tid] = held
        return held

    def on_acquire(self, event: ev.Event) -> None:
        self.fasttrack.handle(event)
        self._held(event.tid).add(event.target)

    def on_release(self, event: ev.Event) -> None:
        self.fasttrack.handle(event)
        self._held(event.tid).discard(event.target)

    def on_fork(self, event: ev.Event) -> None:
        self.fasttrack.handle(event)

    def on_join(self, event: ev.Event) -> None:
        self.fasttrack.handle(event)

    def on_volatile_read(self, event: ev.Event) -> None:
        self.fasttrack.handle(event)

    def on_volatile_write(self, event: ev.Event) -> None:
        self.fasttrack.handle(event)

    def on_barrier_release(self, event: ev.Event) -> None:
        self.fasttrack.handle(event)

    def _access(self, event: ev.Event, is_write: bool) -> None:
        self.fasttrack.handle(event)
        profile = self._profile(event.target)
        tid = event.tid
        profile.accesses += 1
        if profile.accessors and (
            tid not in profile.accessors or len(profile.accessors) > 1
        ):
            # The variable is shared: refine the candidate lockset with the
            # locks held on this access.
            held = frozenset(self._held(tid))
            profile.lockset = (
                held if profile.lockset is None else profile.lockset & held
            )
        if not is_write:
            if profile.writers and tid not in profile.writers:
                profile.foreign_read_seen = True
        else:
            if profile.foreign_read_seen:
                # A write landing after the variable was read-shared: the
                # initialize-then-share idiom is over.
                profile.write_after_share = True
        profile.accessors.add(tid)
        if is_write:
            profile.writers.add(tid)

    def on_read(self, event: ev.Event) -> None:
        self._access(event, is_write=False)

    def on_write(self, event: ev.Event) -> None:
        self._access(event, is_write=True)

    # -- results ------------------------------------------------------------------

    def classify(self) -> Dict[Hashable, str]:
        """The sharing class of every variable seen so far."""
        racy_keys = self.fasttrack._warned_keys
        result: Dict[Hashable, str] = {}
        for key, profile in self.profiles.items():
            if key in racy_keys:
                result[key] = RACY
            elif len(profile.accessors) <= 1:
                result[key] = THREAD_LOCAL
            elif profile.lockset:
                result[key] = LOCK_PROTECTED
            elif len(profile.writers) <= 1 and not profile.write_after_share:
                result[key] = READ_SHARED
            else:
                result[key] = SYNCHRONIZED
        return result

    def fractions(self, by_accesses: bool = True) -> Dict[str, float]:
        """Class weights, by access count (default) or by variable count."""
        classes = self.classify()
        totals = {cls: 0 for cls in CLASSES}
        for key, cls in classes.items():
            weight = self.profiles[key].accesses if by_accesses else 1
            totals[cls] += weight
        denominator = sum(totals.values()) or 1
        return {cls: count / denominator for cls, count in totals.items()}

    @property
    def warnings(self):  # type: ignore[override]
        return self.fasttrack.warnings

    @warnings.setter
    def warnings(self, value) -> None:  # the base __init__ assigns []
        pass
