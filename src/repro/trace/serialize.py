"""Trace serialization: the paper's concrete syntax, plus JSON lines.

Text format — one operation per line in Figure 1's notation, with array
locations written with index brackets and an optional source site after
``@``::

    wr(0, x)
    fork(0, 1)
    rd(1, grid[2][7]) @ sor.rd_left
    acq(1, m)
    barrier_rel(0, 1)
    enter(0, sor.sweep)
    # comments and blank lines are ignored

Targets parse to ints when numeric, to tuples when bracketed
(``grid[2][7]`` → ``("grid", 2, 7)``), and to strings otherwise — exactly
the naming conventions the benchmark workloads use, so any captured trace
round-trips.  The JSONL format carries the same information one event per
line and is the interchange format for the CLI.

Examples
--------

    >>> from repro.trace import events as ev
    >>> line = format_event(ev.rd(1, ("grid", 2, 7), site="sor.rd"))
    >>> line
    'rd(1, grid[2][7]) @ sor.rd'
    >>> parsed = parse_event(line)
    >>> parsed.tid, parsed.target, parsed.site
    (1, ('grid', 2, 7), 'sor.rd')
    >>> parse_target("acc[w]")
    ('acc', 'w')
"""

from __future__ import annotations

import json
import re
from typing import Hashable, Iterable, Iterator, Optional, TextIO, Tuple, Union

from repro import faults
from repro.trace import events as ev
from repro.trace.trace import Trace

_NAME_BY_KIND = {
    ev.READ: "rd",
    ev.WRITE: "wr",
    ev.ACQUIRE: "acq",
    ev.RELEASE: "rel",
    ev.FORK: "fork",
    ev.JOIN: "join",
    ev.VOLATILE_READ: "vol_rd",
    ev.VOLATILE_WRITE: "vol_wr",
    ev.BARRIER_RELEASE: "barrier_rel",
    ev.ENTER: "enter",
    ev.EXIT: "exit",
    ev.TASK_SPAWN: "task_spawn",
    ev.TASK_AWAIT: "task_await",
    ev.FINISH_BEGIN: "finish_begin",
    ev.FINISH_END: "finish_end",
}
_KIND_BY_NAME = {name: kind for kind, name in _NAME_BY_KIND.items()}

#: Kinds whose target is another task/thread id (must parse to an int).
_TID_TARGET_KINDS = (ev.FORK, ev.JOIN, ev.TASK_SPAWN, ev.TASK_AWAIT)

_LINE = re.compile(
    r"^(?P<op>\w+)\s*\(\s*(?P<args>[^)]*)\s*\)\s*(?:@\s*(?P<site>\S+))?$"
)
_TARGET = re.compile(r"^(?P<base>[^\[\]]+)(?P<indices>(\[[^\[\]]+\])*)$")
_INDEX = re.compile(r"\[([^\[\]]+)\]")
#: The common line shape, exactly as :func:`format_event` writes an access
#: or lock operation: ``op(TID, base[i][j]) @ site`` with single spaces,
#: an ASCII-decimal tid, and no whitespace, ``,()@`` or brackets inside
#: the base or an index.
_FAST_NAME = r"[^\s,()@\[\]]+"
_FAST_LINE = re.compile(
    rf"(rd|wr|acq|rel)\((-?[0-9]+), ({_FAST_NAME})((?:\[{_FAST_NAME}\])*)\)"
    r"(?: @ (\S+))?"
)


class TraceParseError(ValueError):
    """A line of a serialized trace could not be parsed.

    When raised by the file-level parsers (:func:`loads`, :func:`load`,
    :func:`iter_parse`, :func:`iter_load` and their JSONL counterparts),
    ``lineno`` carries the 1-based line number and ``line`` the offending
    line text, so malformed trace files are debuggable from the CLI.
    Token-level parsers (:func:`parse_event`, :func:`parse_target`) raise
    with both set to ``None``.
    """

    def __init__(
        self,
        message: str,
        lineno: Optional[int] = None,
        line: Optional[str] = None,
    ) -> None:
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno
        self.line = line


# -- target encoding -----------------------------------------------------------


def format_target(target: Hashable) -> str:
    """Render a variable/lock name in the bracketed text syntax."""
    if isinstance(target, tuple):
        base, *indices = target
        return str(base) + "".join(f"[{index}]" for index in indices)
    return str(target)


def parse_target(text: str) -> Hashable:
    """Inverse of :func:`format_target` (ints stay ints)."""
    text = text.strip()
    match = _TARGET.match(text)
    if match is None or not match.group("base").strip():
        raise TraceParseError(f"bad target {text!r}")
    base = _coerce(match.group("base").strip())
    indices_text = match.group("indices")
    if not indices_text:
        return base
    indices = _INDEX.findall(indices_text)
    return tuple([base] + [_coerce(part.strip()) for part in indices])


def _coerce(token: str) -> Union[int, str]:
    # ``-?\d+`` without the regex: ``\d`` is exactly ``str.isdecimal``.
    digits = token[1:] if token[:1] == "-" else token
    if digits.isdecimal():
        return int(token)
    return token


# -- text format ------------------------------------------------------------------


def format_event(event: ev.Event) -> str:
    """One line of the text format."""
    name = _NAME_BY_KIND[event.kind]
    if event.kind == ev.BARRIER_RELEASE:
        inner = ", ".join(str(tid) for tid in event.target)
        return f"{name}({inner})"
    if event.kind in _TID_TARGET_KINDS:
        body = f"{name}({event.tid}, {event.target})"
    else:
        body = f"{name}({event.tid}, {format_target(event.target)})"
    if event.site is not None:
        body += f" @ {event.site}"
    return body


def parse_event_parts(line: str) -> Tuple[int, int, Hashable, Optional[str]]:
    """Parse one text-format line to ``(kind, tid, target, site)``.

    This is the allocation-light core of :func:`parse_event`: the memoized
    ingest of :mod:`repro.trace.columnar` interns these fields straight
    into columns without ever building an
    :class:`~repro.trace.events.Event`.

    A line that ``fullmatch``-es ``_FAST_LINE`` is split without the
    general argument splitting and target regex; any other line (odd
    spacing, ``+1`` tids, barriers, forks, errors) goes to
    :func:`_parse_event_parts_general`.  Either way the result is the same
    tuple, element types included, and errors are the same errors.
    """
    match = _FAST_LINE.fullmatch(line)
    if match is None:
        return _parse_event_parts_general(line)
    op, tid, base, indices, site = match.groups()
    target: Hashable = _coerce(base)
    if indices:
        target = (target, *map(_coerce, indices[1:-1].split("][")))
    return _KIND_BY_NAME[op], int(tid), target, site


def _parse_event_parts_general(
    line: str,
) -> Tuple[int, int, Hashable, Optional[str]]:
    """:func:`parse_event_parts` for any line, by the general grammar."""
    match = _LINE.match(line.strip())
    if match is None:
        raise TraceParseError(f"unparseable line {line!r}")
    op = match.group("op")
    kind = _KIND_BY_NAME.get(op)
    if kind is None:
        raise TraceParseError(f"unknown operation {op!r} in {line!r}")
    args = [part.strip() for part in match.group("args").split(",") if part.strip()]
    site = match.group("site")
    if kind == ev.BARRIER_RELEASE:
        try:
            tids = tuple(sorted(int(part) for part in args))
        except ValueError:
            raise TraceParseError(f"barrier members must be tids: {line!r}")
        return kind, -1, tids, None
    if len(args) != 2:
        raise TraceParseError(f"expected two arguments in {line!r}")
    try:
        tid = int(args[0])
    except ValueError:
        raise TraceParseError(f"thread id must be an integer: {line!r}")
    if kind in _TID_TARGET_KINDS:
        try:
            target: Hashable = int(args[1])
        except ValueError:
            raise TraceParseError(
                f"{_NAME_BY_KIND[kind]} target must be a tid: {line!r}"
            )
    else:
        target = parse_target(args[1])
    return kind, tid, target, site


def parse_event(line: str) -> ev.Event:
    """Inverse of :func:`format_event`."""
    kind, tid, target, site = parse_event_parts(line)
    return ev.Event(kind, tid, target, site)


def _not_utf8(error: UnicodeDecodeError, lineno: int) -> TraceParseError:
    """The :class:`TraceParseError` for a line that failed to decode."""
    return TraceParseError(
        f"trace is not valid UTF-8 ({error.reason} at byte {error.start})",
        lineno=lineno,
    )


def _numbered_lines(lines: Iterable[str]) -> Iterator[Tuple[int, str]]:
    """Number a line stream while a fault plan is armed.

    Reading an open file iterates it lazily, so a non-UTF-8 byte half-way
    through a multi-gigabyte trace raises ``UnicodeDecodeError`` *during*
    iteration — long after parsing started.  The ingest
    (:func:`repro.trace.columnar._memoized`) surfaces that failure as a
    :class:`TraceParseError` with the 1-based line number, never as a bare
    codec exception from deep inside the engine.  With no plan installed
    (every production run) it numbers lines with a plain ``enumerate`` and
    one enclosing handler; with a plan armed it draws them from here,
    which polls ``trace.read`` per line and keeps a per-line handler so an
    injected decode failure is attributed too.
    """
    iterator = iter(lines)
    lineno = 0
    while True:
        lineno += 1
        try:
            raw_line = next(iterator)
        except StopIteration:
            return
        except UnicodeDecodeError as error:
            raise _not_utf8(error, lineno) from None
        spec = faults.fire("trace.read", lineno=lineno)
        if spec is not None and spec.action == "corrupt":
            # Keep the terminator: injected corruption must parse-fail
            # even when it lands on the file's final line (a missing
            # newline there reads as an in-flight write, which the JSONL
            # parsers deliberately tolerate).
            raw_line = "\x00<injected corrupt bytes>\x00\n"
        yield lineno, raw_line


def dumps(trace: Iterable[ev.Event]) -> str:
    """Serialize a trace to the text format."""
    return "\n".join(format_event(event) for event in trace) + "\n"


def iter_parse(lines: Iterable[str]) -> Iterator[ev.Event]:
    """Stream-parse the text format, one event at a time.

    Comments and blank lines are skipped.  Parse failures re-raise with the
    1-based line number and offending text attached.  The full event list
    is never materialized, so traces larger than memory stream through.
    Lines go through the memoized ingest of :mod:`repro.trace.columnar`:
    a repeated line is not parsed again, and each ``Event`` is built from
    its memoized parts.
    """
    from repro.trace.columnar import iter_parts  # columnar imports us

    Event = ev.Event
    for kind, tid, target, site in iter_parts(lines, "text"):
        yield Event(kind, tid, target, site)


def iter_load(stream: Iterable[str]) -> Iterator[ev.Event]:
    """Stream-parse an open text-format file (or any iterable of lines)."""
    return iter_parse(stream)


def loads(text: str) -> Trace:
    """Parse the text format back into a :class:`Trace`."""
    return Trace(iter_parse(text.splitlines()))


def dump(trace: Iterable[ev.Event], stream: TextIO) -> None:
    stream.write(dumps(trace))


def load(stream: TextIO) -> Trace:
    return Trace(iter_load(stream))


# -- JSON lines -------------------------------------------------------------------


def _target_to_json(target: Hashable):
    if isinstance(target, tuple):
        return list(target)
    return target


def _target_from_json(value) -> Hashable:
    if isinstance(value, list):
        return tuple(value)
    return value


def event_to_json(event: ev.Event) -> dict:
    record = {
        "op": _NAME_BY_KIND[event.kind],
        "tid": event.tid,
        "target": _target_to_json(event.target),
    }
    if event.site is not None:
        record["site"] = event.site
    return record


def event_parts_from_json(
    record: dict,
) -> Tuple[int, int, Hashable, Optional[Hashable]]:
    """Decode one JSONL record to ``(kind, tid, target, site)`` (the
    allocation-light core of :func:`event_from_json`)."""
    if not isinstance(record, dict):
        raise TraceParseError(
            f"event record must be a JSON object, got {record!r}"
        )
    try:
        kind = _KIND_BY_NAME[record["op"]]
    except (KeyError, TypeError):
        raise TraceParseError(f"unknown operation in record {record!r}")
    try:
        target = _target_from_json(record["target"])
        if kind == ev.BARRIER_RELEASE:
            return kind, -1, tuple(sorted(target)), None
        return kind, record["tid"], target, record.get("site")
    except (KeyError, TypeError) as error:
        raise TraceParseError(
            f"bad event record {record!r}: {error}"
        ) from None


def event_from_json(record: dict) -> ev.Event:
    kind, tid, target, site = event_parts_from_json(record)
    return ev.Event(kind, tid, target, site)


def dumps_jsonl(trace: Iterable[ev.Event]) -> str:
    return (
        "\n".join(json.dumps(event_to_json(event)) for event in trace) + "\n"
    )


def iter_parse_jsonl(lines: Iterable[str]) -> Iterator[ev.Event]:
    """Stream-parse JSON lines; errors carry the line number and text.

    A final line that fails to parse as JSON *and* lacks a newline
    terminator is treated as a partially-written tail (the live-tail
    case: ``repro watch`` follows files while a producer appends) and is
    silently buffered out — iteration ends cleanly instead of raising.
    Newline-terminated garbage still raises wherever it appears.  Callers
    must keep terminators (``str.splitlines()`` without ``keepends`` would
    mark every line as a tolerated tail).  Like :func:`iter_parse`, this
    reads through the memoized ingest.
    """
    from repro.trace.columnar import iter_parts  # columnar imports us

    Event = ev.Event
    for kind, tid, target, site in iter_parts(lines, "jsonl"):
        yield Event(kind, tid, target, site)


def iter_load_jsonl(stream: Iterable[str]) -> Iterator[ev.Event]:
    """Stream-parse an open JSONL file (or any iterable of lines)."""
    return iter_parse_jsonl(stream)


def loads_jsonl(text: str) -> Trace:
    # keepends so the tail-tolerance rule of iter_parse_jsonl sees real
    # terminators: a newline-terminated garbage line still raises.
    return Trace(iter_parse_jsonl(text.splitlines(keepends=True)))


def load_jsonl(stream: TextIO) -> Trace:
    return Trace(iter_load_jsonl(stream))
