"""Fault-injection overhead gate: ``repro.faults`` must be free when off.

The robustness ISSUE admits the fault-injection layer only if the
instrumented hot paths cost <2% throughput when *no plan is installed*
(the default for every production run).  The hottest instrumented path
is the streaming trace reader — ``trace.read`` is polled per line — so
this benchmark measures text-format parsing in three modes:

* **raw**      — the memoized ingest loop (strip, memo lookup, skip
  comments, on a miss the same ``serialize.parse_event_parts``, fast
  path included, that the ingest calls) with plain ``enumerate``
  line numbering and no injection poll, reconstructed locally: the
  baseline;
* **disabled** — ``repro.trace.columnar.iter_parts``, the ingest every
  reader uses, whose line numbering hoists one ``faults.active()``
  check per stream;
* **enabled**  — the same with a plan installed whose ``trace.read``
  spec never matches, to document what an armed-but-quiet plan costs
  (lock + match per line; chaos runs only, never gated).

Modes are timed in interleaved best-of rounds (``gc.collect()`` before
each timed region) so scheduling noise hits all modes equally.  The gate
asserts ``disabled/raw - 1 < 2%``.  Results go to the session recorder
that ``benchmarks/conftest.py`` serializes to
``benchmarks/BENCH_faults.json``.

Tunables: ``BENCH_FAULTS_SCALE`` (default 4000 ≈ 96k events) and
``BENCH_FAULTS_ROUNDS`` (default 7, best kept).
"""

import gc
import json
import os
import time

from repro import faults
from repro.bench.eclipse import import_program
from repro.runtime.scheduler import run_program
from repro.trace import columnar, serialize

FAULTS_SCALE = int(os.environ.get("BENCH_FAULTS_SCALE", "4000"))
ROUNDS = int(os.environ.get("BENCH_FAULTS_ROUNDS", "7"))

#: The ISSUE's acceptance bound on plan-free overhead.
MAX_DISABLED_OVERHEAD = 0.02

#: A plan that is installed and polled but never fires: ``lineno`` is
#: 1-based, so ``-1`` never matches.
_QUIET_PLAN = json.dumps({
    "schema": "repro.faults/1",
    "faults": [{"point": "trace.read", "action": "corrupt",
                "match": {"lineno": -1}}],
})


def _trace_lines():
    trace = run_program(import_program(FAULTS_SCALE), seed=0)
    return serialize.dumps(trace).splitlines()


def _iter_parts_baseline(lines):
    """``columnar.iter_parts`` without the fault layer: inline
    enumerate, no injection poll, the same bounded per-line memo."""
    memo = {}
    lookup = memo.get
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        parts = lookup(line)
        if parts is None:
            if not line or line.startswith("#"):
                continue
            try:
                parts = serialize.parse_event_parts(line)
            except serialize.TraceParseError as error:
                raise serialize.TraceParseError(
                    str(error), lineno=lineno, line=line
                ) from None
            if len(memo) >= columnar.MEMO_LINES:
                memo.clear()
            memo[line] = parts
        yield parts


def _parse_raw(lines):
    count = 0
    for _parts in _iter_parts_baseline(lines):
        count += 1
    return count


def _parse_instrumented(lines):
    count = 0
    for _parts in columnar.iter_parts(lines):
        count += 1
    return count


def test_faults_overhead(faults_bench_recorder):
    lines = _trace_lines()
    n = _parse_raw(lines)
    assert n == _parse_instrumented(lines)
    assert not faults.active()

    raw_best = disabled_best = enabled_best = float("inf")
    try:
        for _ in range(ROUNDS):
            gc.collect()
            start = time.perf_counter()
            _parse_raw(lines)
            raw_best = min(raw_best, time.perf_counter() - start)

            gc.collect()
            start = time.perf_counter()
            _parse_instrumented(lines)
            disabled_best = min(disabled_best, time.perf_counter() - start)

            faults.install(faults.parse_plan(_QUIET_PLAN), propagate=False)
            try:
                gc.collect()
                start = time.perf_counter()
                _parse_instrumented(lines)
                enabled_best = min(
                    enabled_best, time.perf_counter() - start
                )
            finally:
                faults.clear()
    finally:
        faults.clear()

    disabled_overhead = disabled_best / raw_best - 1.0
    enabled_overhead = enabled_best / raw_best - 1.0
    faults_bench_recorder["faults_overhead"] = {
        "workload": "eclipse-import",
        "path": "columnar.iter_parts",
        "events": n,
        "rounds": ROUNDS,
        "cpus": os.cpu_count(),
        "raw_seconds": raw_best,
        "disabled_seconds": disabled_best,
        "enabled_seconds": enabled_best,
        "raw_events_per_sec": n / raw_best,
        "disabled_events_per_sec": n / disabled_best,
        "enabled_events_per_sec": n / enabled_best,
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": enabled_overhead,
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
    }
    print(
        f"\nraw {n / raw_best:,.0f} ev/s, "
        f"disabled {n / disabled_best:,.0f} ev/s "
        f"({disabled_overhead:+.2%}), "
        f"armed {n / enabled_best:,.0f} ev/s ({enabled_overhead:+.2%})"
    )
    assert disabled_overhead < MAX_DISABLED_OVERHEAD, (
        f"plan-free fault-injection overhead {disabled_overhead:+.2%} "
        f"exceeds the {MAX_DISABLED_OVERHEAD:.0%} budget"
    )
