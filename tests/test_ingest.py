"""The memoized text/JSONL → columns ingest (:mod:`repro.trace.columnar`).

Every reader goes through one per-line parse memo, so these tests pin
that the memo is invisible: the columns, intern tables, parse errors and
JSONL tail rule are exactly those of a line-by-line parse, at the default
memo cap and at a cap small enough to clear on nearly every line; and the
engine's partitioner, which now routes the ingest's rows, writes the same
shard and intern bytes as the partitioner that interned ``Event`` objects.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.engine.checkpoint import Workdir
from repro.engine.partition import partition_events
from repro.trace import columnar
from repro.trace import serialize
from repro.trace.columnar import ColumnarTrace, TraceRows
from repro.trace.serialize import TraceParseError

DATA = Path(__file__).parent / "data"
GOLDEN = sorted(path.stem for path in DATA.glob("*.trace"))


def golden_lines(name, fmt):
    """A golden trace's lines, terminators kept, in either format."""
    text = (DATA / f"{name}.trace").read_text()
    if fmt == "jsonl":
        text = serialize.dumps_jsonl(serialize.loads(text))
    return text.splitlines(keepends=True)


def unmemoized(lines, fmt):
    """Columns from a plain line-by-line parse: no memo, no ingest."""
    trace = ColumnarTrace()
    for raw_line in lines:
        line = raw_line.strip()
        if not line or (fmt == "text" and line.startswith("#")):
            continue
        if fmt == "text":
            parts = serialize.parse_event_parts(line)
        else:
            parts = serialize.event_parts_from_json(json.loads(line))
        trace.append(*parts)
    return trace


def columns_of(trace):
    return (
        list(trace.kinds), list(trace.tids), list(trace.target_ids),
        list(trace.site_ids), trace.targets, trace.sites, trace.max_tid,
    )


@pytest.fixture
def tiny_memo(monkeypatch):
    """A memo that holds two lines, so it clears all the time."""
    monkeypatch.setattr(columnar, "MEMO_LINES", 2)


class TestMemoIsInvisible:
    @pytest.mark.parametrize("fmt", ["text", "jsonl"])
    @pytest.mark.parametrize("name", GOLDEN)
    def test_golden_columns_equal_unmemoized_parse(self, name, fmt):
        lines = golden_lines(name, fmt)
        assert columns_of(ColumnarTrace.from_lines(lines, fmt)) == (
            columns_of(unmemoized(lines, fmt))
        )

    @pytest.mark.parametrize("fmt", ["text", "jsonl"])
    @pytest.mark.parametrize("name", GOLDEN)
    def test_golden_columns_with_a_two_line_memo(self, name, fmt, tiny_memo):
        lines = golden_lines(name, fmt)
        assert columns_of(ColumnarTrace.from_lines(lines, fmt)) == (
            columns_of(unmemoized(lines, fmt))
        )

    @pytest.mark.parametrize("fmt", ["text", "jsonl"])
    def test_event_readers_build_events_from_memoized_parts(self, fmt):
        lines = golden_lines("tsp_small", fmt)
        parse = (
            serialize.iter_parse_jsonl if fmt == "jsonl"
            else serialize.iter_parse
        )
        events = list(parse(lines))
        assert events == unmemoized(lines, fmt).to_events()
        # One Event per line even where the parts are shared.
        assert len({id(event) for event in events}) == len(events)

    def test_comment_and_blank_lines_are_skipped(self):
        lines = ["# header\n", "wr(0, x)\n", "\n", "   \n", "# x\n",
                 "wr(0, x)\n", "rd(1, y) @ a.py:3\n"]
        trace = ColumnarTrace.from_lines(lines)
        assert len(trace) == 3
        assert trace.targets == ["x", "y"] and trace.sites == ["a.py:3"]

    def test_jsonl_blank_lines_are_skipped(self):
        record = '{"op": "wr", "tid": 0, "target": "x"}\n'
        trace = ColumnarTrace.from_lines([record, "\n", record], "jsonl")
        assert len(trace) == 2


class TestParseErrors:
    REPEATED = "acq(0, m)\nwr(0, x) @ a.py:1\nrel(0, m)\n" * 200

    def _error(self, text, fmt="text"):
        with pytest.raises(TraceParseError) as info:
            ColumnarTrace.from_lines(text.splitlines(keepends=True), fmt)
        return info.value

    def test_bad_line_after_many_repeats(self):
        error = self._error(self.REPEATED + "frobnicate(1, y)\n")
        assert error.lineno == 601
        assert error.line == "frobnicate(1, y)"
        assert str(error).startswith("line 601: ")

    def test_bad_line_after_a_memo_clear(self, tiny_memo):
        distinct = "".join(f"wr(0, v{i})\n" for i in range(10))
        error = self._error(distinct + self.REPEATED + "wr(zero, x)\n")
        assert error.lineno == 611
        assert error.line == "wr(zero, x)"

    def test_jsonl_bad_line_after_repeats_and_clears(self, tiny_memo):
        records = "".join(
            json.dumps({"op": "wr", "tid": i % 3, "target": "x"}) + "\n"
            for i in range(50)
        )
        error = self._error(records + "{not json}\n", "jsonl")
        assert error.lineno == 51 and error.line == "{not json}"
        assert "invalid JSON" in str(error)

    def test_event_reader_keeps_line_numbers(self):
        with pytest.raises(TraceParseError) as info:
            list(serialize.iter_parse(
                (self.REPEATED + "nope(0, x)\n").splitlines()
            ))
        assert info.value.lineno == 601 and info.value.line == "nope(0, x)"


class TestJsonlTail:
    COMPLETE = '{"op": "wr", "tid": 0, "target": "x"}\n' * 3

    def test_unterminated_tail_ends_the_stream(self):
        lines = (self.COMPLETE + '{"op": "rd", "ti').splitlines(keepends=True)
        assert len(ColumnarTrace.from_lines(lines, "jsonl")) == 3
        assert len(list(serialize.iter_parse_jsonl(lines))) == 3

    def test_unterminated_repeat_of_a_complete_line_is_kept(self):
        lines = (self.COMPLETE + self.COMPLETE.splitlines()[0]).splitlines(
            keepends=True
        )
        assert len(ColumnarTrace.from_lines(lines, "jsonl")) == 4

    def test_terminated_garbage_still_raises(self):
        lines = (self.COMPLETE + '{"op": "rd", "ti\n').splitlines(
            keepends=True
        )
        with pytest.raises(TraceParseError) as info:
            ColumnarTrace.from_lines(lines, "jsonl")
        assert info.value.lineno == 4


#: sha256 over ``intern.bin`` then every ``shards/shard_NNNN.bin``, as
#: written by the partitioner before it took the ingest's rows (it parsed
#: the file to ``Event`` objects and interned them itself).  The text and
#: JSONL encodings of a trace partition to the same bytes.
PARTITION_DIGESTS = {
    ("tsp_small", 1):
        "8e975b2d01da4cae4d39aea1bdbe14d0db3dea0516d5855fa36ba966bd62ccb4",
    ("tsp_small", 2):
        "16573b19e4926ef33c43d9e3a4467ae1f2425fe5761b6a1c957547dec30714af",
    ("tsp_small", 4):
        "6659e0f249cbf9116a87649abd0e5a58acdd45dfda26863f91345c5f90a37a93",
    ("async_pool", 1):
        "a8f411dcc15528b1121af57a1cbf51c55ef6bf5d7beb8b5d8ca85e9554ac483c",
    ("async_pool", 2):
        "243b33e81d552377151f3872e46a5d738bc110f3a9a5946116ee477be5369d5c",
    ("async_pool", 4):
        "b0fb1276a0360d90296d3b9961e0fa89b578ef2a924d38f01e8017119849d825",
}


def partition_digest(root, nshards):
    digest = hashlib.sha256()
    names = ["intern.bin"] + [
        f"shards/shard_{shard:04d}.bin" for shard in range(nshards)
    ]
    for name in names:
        digest.update((Path(root) / name).read_bytes())
    return digest.hexdigest()


class TestPartitionBytes:
    @pytest.mark.parametrize("fmt", ["text", "jsonl"])
    @pytest.mark.parametrize("name,nshards", sorted(PARTITION_DIGESTS))
    def test_shard_files_match_the_event_partitioner(
        self, name, nshards, fmt, tmp_path
    ):
        path = tmp_path / f"trace.{fmt}"
        path.write_text("".join(golden_lines(name, fmt)))
        root = tmp_path / "work"
        meta = partition_events(
            TraceRows.from_file(str(path), fmt), Workdir(str(root)), nshards
        )
        assert partition_digest(root, nshards) == (
            PARTITION_DIGESTS[name, nshards]
        )
        # Events interned on the fly give the same bytes and metadata.
        events_root = tmp_path / "events"
        events_meta = partition_events(
            iter(serialize.loads("".join(golden_lines(name, "text")))),
            Workdir(str(events_root)), nshards,
        )
        assert partition_digest(events_root, nshards) == (
            PARTITION_DIGESTS[name, nshards]
        )
        meta.pop("generation")
        events_meta.pop("generation")
        assert meta == events_meta

    def test_shard_files_with_a_two_line_memo(self, tmp_path, tiny_memo):
        path = tmp_path / "trace.text"
        path.write_text("".join(golden_lines("tsp_small", "text")))
        partition_events(
            TraceRows.from_file(str(path)), Workdir(str(tmp_path / "w")), 4
        )
        assert partition_digest(tmp_path / "w", 4) == (
            PARTITION_DIGESTS["tsp_small", 4]
        )
