"""Zero-copy shard buffers: mmap'd columnar shard files.

Format v2 moved shard payloads from pickled ``Event`` objects to columnar
batches, but still *pickle-framed* them through the filesystem: every
worker re-parsed every batch and re-built five ``array`` objects per
shard.  BENCH_engine.json showed where that leads — ``--jobs 4`` ran at
0.84x of sequential because the serialization tax grows with the worker
count while the analysis work does not.

Format v3 removes the tax.  The partitioner lays each shard out as five
**flat fixed-width segments** in one contiguous buffer::

    offset 0          indices     int64[n]   original trace positions
           8n         tids        int64[n]
           16n        target_ids  int64[n]   → partition-wide intern table
           24n        site_ids    int64[n]   (-1 = no site)
           32n        kinds       int8[n]    event-kind constants
    total  33n bytes  (the int8 segment goes last, so every int64
                       segment stays 8-byte aligned for memoryview.cast)

and writes it to ``shards/shard_NNNN.bin`` in the partition's working
directory.  Workers memory-map the file read-only and wrap it with
``memoryview(...).cast(...)``: zero bytes copied, zero per-event
deserialization, and the page cache holds one copy however many workers
map it.  Where the bytes live is the working directory's business:
engine-owned throwaway runs sit on tmpfs (``repro.engine.scratch_root``),
so the "file" never touches a disk; ``--resume`` directories and the
service's resident partitions sit wherever their owner put them and
survive process death.
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
from typing import Dict, List, Optional, Tuple

from repro.trace.columnar import ColumnarTrace

__all__ = [
    "ShardView",
    "assemble_shard",
    "attach_view",
    "load_intern",
    "shard_layout",
    "shard_nbytes",
]

#: Segment order inside a shard buffer: four int64 columns, then the int8
#: kind column (last, so the 8-byte columns never need padding).
_INT64_SEGMENTS = ("indices", "tids", "target_ids", "site_ids")

#: One spill frame: event count, then the five segments' raw bytes.
_FRAME_HEADER = struct.Struct("<q")

#: Per-process intern-table cache: (root, generation) → (targets, sites).
#: Pool workers analyze many (tool, shard) pairs against one partition;
#: loading the tables once per process instead of once per shard is part
#: of the "no per-batch intern deltas" contract.
_INTERN_CACHE: Dict[Tuple[str, str], Tuple[list, list]] = {}
_INTERN_LOCK = threading.Lock()


def shard_layout(n: int) -> Dict[str, Tuple[int, int]]:
    """Segment name → ``(offset, nbytes)`` for an ``n``-event shard."""
    layout: Dict[str, Tuple[int, int]] = {}
    offset = 0
    for name in _INT64_SEGMENTS:
        layout[name] = (offset, 8 * n)
        offset += 8 * n
    layout["kinds"] = (offset, n)
    return layout


def shard_nbytes(n: int) -> int:
    """Total buffer size for an ``n``-event shard (33 bytes/event)."""
    return 33 * n


# -- writer side ---------------------------------------------------------------


def assemble_shard(path: str, spill_path: str, n: int) -> int:
    """Copy one shard's spill frames into its final v3 buffer at ``path``.

    The partitioner streams events into per-shard spill files (bounded
    memory: one batch per shard in flight), which fixes the per-shard
    event counts; this lays each shard out as the flat segments above,
    syncs it (``meta.json``, written after every shard, certifies a
    complete partition) and deletes the spill file.  Plain positioned
    writes rather than a writable mapping: a full tmpfs then fails with
    a catchable ``ENOSPC`` instead of a SIGBUS.  Returns the buffer size.
    """
    offsets = {name: offset for name, (offset, _) in shard_layout(n).items()}
    with open(path, "wb") as shard, open(spill_path, "rb") as spill:
        while True:
            header = spill.read(_FRAME_HEADER.size)
            if not header:
                break
            (count,) = _FRAME_HEADER.unpack(header)
            for segment, width in (
                ("indices", 8), ("kinds", 1), ("tids", 8),
                ("target_ids", 8), ("site_ids", 8),
            ):
                chunk = spill.read(width * count)
                if len(chunk) != width * count:
                    raise OSError(f"truncated spill file {spill_path!r}")
                shard.seek(offsets[segment])
                shard.write(chunk)
                offsets[segment] += len(chunk)
        shard.flush()
        os.fsync(shard.fileno())
    os.unlink(spill_path)
    return shard_nbytes(n)


# -- reader side ---------------------------------------------------------------


class ShardView:
    """A zero-copy view over one shard's v3 buffer.

    ``columns()`` returns a :class:`ColumnarTrace` whose columns are
    ``memoryview`` casts straight into the mapped shard file plus the
    original-index column — no event is deserialized, no byte is copied
    (the fused kernels' one ``kinds.tobytes()`` aside).  The view keeps
    the mapping alive; call :meth:`close` when analysis is done so pooled
    worker processes do not accumulate mappings and file descriptors.
    """

    def __init__(self, n: int, nbytes: int, base: memoryview,
                 closer) -> None:
        self.n = n
        self.nbytes = nbytes
        self._base = base
        self._closer = closer
        self._casts: List[memoryview] = []

    def _segment(self, name: str, fmt: str) -> memoryview:
        offset, length = shard_layout(self.n)[name]
        cast = self._base[offset:offset + length].cast(fmt)
        self._casts.append(cast)
        return cast

    def columns(
        self, intern: Tuple[list, list]
    ) -> Tuple[ColumnarTrace, memoryview]:
        """``(ColumnarTrace over the buffer, original-index column)``."""
        targets, sites = intern
        indices = self._segment("indices", "q")
        trace = ColumnarTrace.from_buffers(
            kinds=self._segment("kinds", "b"),
            tids=self._segment("tids", "q"),
            target_ids=self._segment("target_ids", "q"),
            site_ids=self._segment("site_ids", "q"),
            targets=targets,
            sites=sites,
            owner=self,
        )
        return trace, indices

    def close(self) -> None:
        """Release every cast, the base view, and the mapping."""
        for cast in self._casts:
            try:
                cast.release()
            except BufferError:  # a consumer still holds a sub-view
                return
        self._casts.clear()
        if self._base is not None:
            try:
                self._base.release()
            except BufferError:
                return
            self._base = None
        if self._closer is not None:
            closer, self._closer = self._closer, None
            closer()

    def __del__(self):  # noqa: D105 - GC fallback for unpinned views
        # Views pinned on a ColumnarTrace (load_shard_columns) have no
        # explicit close(); release our casts before the mmap's own
        # finalizer runs, or it would hit "cannot close: exported
        # pointers exist" at GC time.
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


def attach_view(workdir, meta: Dict, shard: int) -> ShardView:
    """Memory-map one shard's buffer read-only."""
    n = meta["shard_events"][shard]
    total = shard_nbytes(n)
    handle = open(workdir.shard_path(shard), "rb")
    if total:
        m = mmap.mmap(handle.fileno(), total, access=mmap.ACCESS_READ)
        base = memoryview(m)

        def closer(m=m, handle=handle):
            m.close()
            handle.close()

    else:
        base = memoryview(b"")
        closer = handle.close
    return ShardView(n, total, base, closer)


def load_intern(workdir, meta: Optional[Dict] = None) -> Tuple[list, list]:
    """The partition-wide intern tables from ``intern.bin``, cached per
    process.  The cache key includes the partition generation, so a
    re-partitioned root is never served stale tables.
    """
    if meta is None:
        meta = workdir.read_meta() or {}
    key = (os.path.abspath(workdir.root), str(meta.get("generation", "")))
    with _INTERN_LOCK:
        cached = _INTERN_CACHE.get(key)
    if cached is not None:
        return cached
    tables = workdir.read_intern()
    with _INTERN_LOCK:
        _INTERN_CACHE[key] = tables
        # Long-lived pool workers serve many partitions; keep the cache
        # from growing without bound.
        while len(_INTERN_CACHE) > 8:
            _INTERN_CACHE.pop(next(iter(_INTERN_CACHE)))
    return tables
