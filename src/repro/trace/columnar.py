"""Columnar trace representation: parallel arrays instead of event objects.

The paper's core performance observation (Section 3) is that >96% of
monitored operations must stay O(1); our reproduction's equivalent
bottleneck is the *host-language* cost of touching one heap-allocated
:class:`~repro.trace.events.Event` per operation.  This module stores a
trace as structure-of-arrays columns, so the fused analysis kernels of
:mod:`repro.kernels` can branch on a machine-int kind column and index
dense shadow tables instead of chasing attributes and dicts:

* ``kinds``      — ``array('b')`` of event-kind constants;
* ``tids``       — ``array('q')`` of acting thread ids (-1 for barriers);
* ``target_ids`` — ``array('q')`` of dense interned target indices;
* ``site_ids``   — ``array('q')`` of dense interned site indices (-1 = no
  site);
* ``targets`` / ``sites`` — the intern tables, index → original hashable.

Interning gives every distinct variable/lock/thread-target a small dense
integer, which is what lets the kernels replace ``self.vars`` dict lookups
with list indexing.

This module also holds the repo's one ingest: serialized text/JSONL
lines become interned ``(kind, tid, target_id, site_id)`` rows
(:class:`TraceRows`) through a bounded per-line parse memo
(:data:`MEMO_LINES`).  :meth:`ColumnarTrace.from_lines` collects the rows
into columns, the engine's partitioner routes them to shards, and
:func:`repro.trace.serialize.iter_parse` builds ``Event`` objects from
the memoized parts (:func:`iter_parts`).  The builders stream:
:meth:`ColumnarTrace.from_events` consumes any one-shot iterable one event
at a time, and :meth:`from_lines` never constructs ``Event`` objects at
all.  :meth:`to_events` reconstructs the exact event
sequence (same kinds, tids, targets, and sites), so the representation is
lossless — the round-trip tests in ``tests/test_columnar.py`` enforce it
over the golden corpus.
"""

from __future__ import annotations

import json
from array import array
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro import faults
from repro.trace import events as ev
from repro.trace import serialize


class ColumnarTrace:
    """A trace stored as parallel columns plus intern tables."""

    __slots__ = (
        "kinds",
        "tids",
        "target_ids",
        "site_ids",
        "targets",
        "sites",
        "_target_index",
        "_site_index",
        "_max_tid",
        "_buffer_owner",
    )

    def __init__(self) -> None:
        self.kinds = array("b")
        self.tids = array("q")
        self.target_ids = array("q")
        self.site_ids = array("q")
        self.targets: List[Hashable] = []
        self.sites: List[Hashable] = []
        self._target_index: Dict[Hashable, int] = {}
        self._site_index: Dict[Hashable, int] = {}
        self._max_tid = -1
        self._buffer_owner = None

    # -- building -----------------------------------------------------------

    def append(
        self,
        kind: int,
        tid: int,
        target: Hashable,
        site: Optional[Hashable] = None,
    ) -> None:
        """Append one operation, interning its target and site."""
        target_index = self._target_index
        target_id = target_index.get(target)
        if target_id is None:
            target_id = len(self.targets)
            target_index[target] = target_id
            self.targets.append(target)
        if site is None:
            site_id = -1
        else:
            site_index = self._site_index
            site_id = site_index.get(site)
            if site_id is None:
                site_id = len(self.sites)
                site_index[site] = site_id
                self.sites.append(site)
        if tid > self._max_tid:
            self._max_tid = tid
        self.kinds.append(kind)
        self.tids.append(tid)
        self.target_ids.append(target_id)
        self.site_ids.append(site_id)

    @classmethod
    def from_rows(cls, rows: "TraceRows") -> "ColumnarTrace":
        """Collect an ingest's interned rows into columns; the trace adopts
        the ingest's intern tables as its own."""
        trace = cls()
        kinds = trace.kinds.append
        tids = trace.tids.append
        target_ids = trace.target_ids.append
        site_ids = trace.site_ids.append
        for kind, tid, target_id, site_id in rows:
            kinds(kind)
            tids(tid)
            target_ids(target_id)
            site_ids(site_id)
        trace.targets = rows.targets
        trace.sites = rows.sites
        trace._target_index = rows.target_index
        trace._site_index = rows.site_index
        trace._max_tid = max(trace.tids, default=-1)
        return trace

    @classmethod
    def from_events(cls, events: Iterable[ev.Event]) -> "ColumnarTrace":
        """Build columns from any (one-shot) iterable of events, streaming."""
        return cls.from_rows(TraceRows.from_events(events))

    @classmethod
    def from_lines(
        cls, lines: Iterable[str], fmt: str = "text"
    ) -> "ColumnarTrace":
        """Stream-parse serialized trace lines (an open file or any
        iterable of lines) straight into columns through the memoized
        ingest; no :class:`Event` objects are ever constructed."""
        return cls.from_rows(TraceRows.from_lines(lines, fmt))

    @classmethod
    def from_columns(
        cls,
        kinds: array,
        tids: array,
        target_ids: array,
        site_ids: array,
        targets: List[Hashable],
        sites: List[Hashable],
    ) -> "ColumnarTrace":
        """Wrap prebuilt columns (the engine's shard loader uses this; the
        intern tables may be shared and larger than the columns need)."""
        trace = cls.__new__(cls)
        trace.kinds = kinds
        trace.tids = tids
        trace.target_ids = target_ids
        trace.site_ids = site_ids
        trace.targets = targets
        trace.sites = sites
        trace._target_index = {}
        trace._site_index = {}
        trace._max_tid = max(tids, default=-1)
        trace._buffer_owner = None
        return trace

    @classmethod
    def from_buffers(
        cls,
        kinds,
        tids,
        target_ids,
        site_ids,
        targets: List[Hashable],
        sites: List[Hashable],
        owner=None,
    ) -> "ColumnarTrace":
        """Wrap zero-copy buffer views (``memoryview`` casts) as columns.

        The engine's v3 shard buffers use this: the columns index
        straight into an mmap'd shard file, so constructing the trace
        copies nothing.  ``owner`` is whatever
        object keeps the underlying mapping alive (the transport's
        :class:`~repro.engine.transport.ShardView`); it is pinned on the
        trace so the buffers outlive every reader.
        """
        trace = cls.from_columns(
            kinds, tids, target_ids, site_ids, targets, sites
        )
        trace._buffer_owner = owner
        return trace

    # -- sequence protocol --------------------------------------------------

    @property
    def max_tid(self) -> int:
        """The largest acting tid in the trace (-1 when empty or
        barrier-only) — kernels size their dense thread tables with it."""
        return self._max_tid

    @property
    def nbytes(self) -> int:
        """Total bytes held by the four columns (33 per event).

        Works for both storage forms: ``array`` columns report
        ``len * itemsize``, buffer-backed columns report the underlying
        view's ``nbytes`` — either way this is the shard transport's
        per-shard payload size, surfaced as ``repro_shard_bytes_total``.
        """
        total = 0
        for column in (self.kinds, self.tids, self.target_ids,
                       self.site_ids):
            nbytes = getattr(column, "nbytes", None)
            if nbytes is None:
                nbytes = len(column) * column.itemsize
            total += nbytes
        return total

    def __len__(self) -> int:
        return len(self.kinds)

    def event_at(self, index: int) -> ev.Event:
        """Reconstruct the ``index``-th event."""
        site_id = self.site_ids[index]
        return ev.Event(
            self.kinds[index],
            self.tids[index],
            self.targets[self.target_ids[index]],
            self.sites[site_id] if site_id >= 0 else None,
        )

    def iter_events(self) -> Iterator[ev.Event]:
        """Reconstruct the event stream lazily, in order."""
        targets = self.targets
        sites = self.sites
        Event = ev.Event
        for kind, tid, target_id, site_id in zip(
            self.kinds, self.tids, self.target_ids, self.site_ids
        ):
            yield Event(
                kind,
                tid,
                targets[target_id],
                sites[site_id] if site_id >= 0 else None,
            )

    def __iter__(self) -> Iterator[ev.Event]:
        return self.iter_events()

    def to_events(self) -> List[ev.Event]:
        """The full reconstructed event list (inverse of :meth:`from_events`)."""
        return list(self.iter_events())

    # -- queries ------------------------------------------------------------

    def kind_counts(self) -> Dict[int, int]:
        """Per-kind event tallies from one pass over the int column."""
        counts: Dict[int, int] = {}
        for kind in self.kinds:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def __repr__(self) -> str:
        return (
            f"ColumnarTrace({len(self.kinds)} events, "
            f"{len(self.targets)} targets, {len(self.sites)} sites)"
        )


# -- the ingest ----------------------------------------------------------------

#: Distinct stripped lines the per-line parse memo holds before it is
#: cleared and refilled.  Real traces repeat most lines (a loop body's
#: accesses recur verbatim: 76% of eclipse-import's lines are repeats), so
#: a hit skips the regex parse *and* the target/site interning.  The cap
#: bounds the memo's memory; 16,384 lines keep nearly all of the unbounded
#: memo's hit rate on the perfbench traces.
MEMO_LINES = 16384

Row = Tuple[int, int, int, int]


def _memoized(
    lines: Iterable[str], fmt: str, encode: Callable[[tuple], tuple]
) -> Iterator[tuple]:
    """The one streaming ingest: serialized lines → ``encode(parts)``.

    ``parts`` is a line's ``(kind, tid, target, site)``; a line seen
    before (compared after stripping) yields the value memoized for it
    instead of being parsed again.  Text-format comment and blank lines
    are skipped; JSONL skips blank lines and stops cleanly at an
    unterminated, unparseable final line (a producer's write in flight —
    see :func:`repro.trace.serialize.iter_parse_jsonl`).  A bad line
    raises :class:`~repro.trace.serialize.TraceParseError` with its
    1-based number and text however many repeats or memo clears preceded
    it, and so does a mid-stream decode error.  Lines are numbered by a
    plain ``enumerate`` unless a fault plan is armed, when they are drawn
    through :func:`repro.trace.serialize._numbered_lines` to poll
    ``trace.read``: that poll costs a generator frame per line, which a
    plan-free run must not pay (``benchmarks/bench_faults_overhead.py``).
    """
    jsonl = fmt == "jsonl"
    parse_text = serialize.parse_event_parts
    parse_record = serialize.event_parts_from_json
    TraceParseError = serialize.TraceParseError
    memo: Dict[str, tuple] = {}
    lookup = memo.get
    if faults.active():
        numbered = serialize._numbered_lines(lines)
    else:
        numbered = enumerate(lines, start=1)
    lineno = 0
    try:
        for lineno, raw_line in numbered:
            line = raw_line.strip()
            value = lookup(line)
            if value is None:
                if not line:
                    continue
                try:
                    if not jsonl:
                        if line[0] == "#":
                            continue
                        parts = parse_text(line)
                    else:
                        try:
                            record = json.loads(line)
                        except json.JSONDecodeError as error:
                            if not raw_line.endswith(("\n", "\r")):
                                return
                            raise TraceParseError(f"invalid JSON ({error.msg})")
                        parts = parse_record(record)
                except TraceParseError as error:
                    raise TraceParseError(
                        str(error), lineno=lineno, line=line
                    ) from None
                value = encode(parts)
                if len(memo) >= MEMO_LINES:
                    memo.clear()
                memo[line] = value
            yield value
    except UnicodeDecodeError as error:
        # Only the plain ``enumerate`` lets one through, aborting itself:
        # the failing line is the one after the last line yielded.
        raise serialize._not_utf8(error, lineno + 1) from None


def _same(parts: tuple) -> tuple:
    return parts


def iter_parts(
    lines: Iterable[str], fmt: str = "text"
) -> Iterator[Tuple[int, int, Hashable, Optional[Hashable]]]:
    """Stream-parse lines to ``(kind, tid, target, site)`` tuples through
    the memoized ingest (repeated lines share one tuple)."""
    return _memoized(lines, fmt, _same)


class TraceRows:
    """A one-shot stream of interned ``(kind, tid, target_id, site_id)``
    rows, plus the intern tables the ids index.

    The tables fill while the stream is consumed, in first-occurrence
    order (each row's target before its site), so they are complete once
    iteration ends.  :meth:`ColumnarTrace.from_rows` collects rows into
    columns; the engine's partitioner routes them to shards and persists
    the tables as ``intern.bin``.
    """

    __slots__ = ("targets", "sites", "target_index", "site_index", "_rows")

    def __init__(self) -> None:
        self.targets: List[Hashable] = []
        self.sites: List[Hashable] = []
        self.target_index: Dict[Hashable, int] = {}
        self.site_index: Dict[Hashable, int] = {}
        self._rows: Iterator[Row] = iter(())

    @classmethod
    def from_lines(cls, lines: Iterable[str], fmt: str = "text") -> "TraceRows":
        """Rows of serialized trace lines, parsed through the memo."""
        rows = cls()
        rows._rows = _memoized(lines, fmt, rows._intern)
        return rows

    @classmethod
    def from_file(cls, path: str, fmt: str = "text") -> "TraceRows":
        """Rows of a trace file, opened (UTF-8) when iteration starts and
        closed when it ends."""

        def lines() -> Iterator[str]:
            with open(path, "r", encoding="utf-8") as stream:
                yield from stream

        return cls.from_lines(lines(), fmt)

    @classmethod
    def from_events(cls, events: Iterable[ev.Event]) -> "TraceRows":
        """Rows of an in-memory (or one-shot) event stream."""
        rows = cls()
        rows._rows = rows._intern_events(events)
        return rows

    def __iter__(self) -> Iterator[Row]:
        return self._rows

    def _intern(self, parts: tuple) -> Row:
        kind, tid, target, site = parts
        target_id = self.target_index.get(target)
        if target_id is None:
            target_id = self.target_index[target] = len(self.targets)
            self.targets.append(target)
        if site is None:
            return kind, tid, target_id, -1
        site_id = self.site_index.get(site)
        if site_id is None:
            site_id = self.site_index[site] = len(self.sites)
            self.sites.append(site)
        return kind, tid, target_id, site_id

    def _intern_events(self, events: Iterable[ev.Event]) -> Iterator[Row]:
        intern = self._intern
        for event in events:
            yield intern((event.kind, event.tid, event.target, event.site))
