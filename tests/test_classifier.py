"""Tests for the sharing-pattern classifier (the Section 1 insight)."""

import json
from pathlib import Path

import pytest

from repro import engine
from repro.core.detector import Detector, coarse_grain
from repro.detectors.classifier import (
    LOCK_PROTECTED,
    RACY,
    READ_SHARED,
    SYNCHRONIZED,
    THREAD_LOCAL,
    SharingClassifier,
)
from repro.bench.workload import WORKLOADS
from repro.report import classifier_counts
from repro.trace import events as ev
from repro.trace.columnar import ColumnarTrace
from repro.trace.serialize import loads
from tests.test_differential_fuzz import corpus


def classify(events):
    tool = SharingClassifier().process(list(events))
    return tool.classify()


class TestClasses:
    def test_thread_local(self):
        classes = classify([ev.wr(0, "x"), ev.rd(0, "x"), ev.wr(0, "x")])
        assert classes == {"x": THREAD_LOCAL}

    def test_lock_protected(self):
        classes = classify(
            [
                ev.acq(0, "m"),
                ev.wr(0, "x"),
                ev.rel(0, "m"),
                ev.acq(1, "m"),
                ev.wr(1, "x"),
                ev.rel(1, "m"),
            ]
        )
        assert classes["x"] == LOCK_PROTECTED

    def test_read_shared(self):
        classes = classify(
            [
                ev.wr(0, "x"),
                ev.fork(0, 1),
                ev.fork(0, 2),
                ev.rd(1, "x"),
                ev.rd(2, "x"),
                ev.rd(0, "x"),
            ]
        )
        assert classes["x"] == READ_SHARED

    def test_synchronized(self):
        # Shared, written by both threads, race-free via join, no lock.
        classes = classify(
            [
                ev.fork(0, 1),
                ev.wr(1, "x"),
                ev.rd(1, "x"),
                ev.join(0, 1),
                ev.rd(0, "x"),
                ev.wr(0, "x"),
            ]
        )
        assert classes["x"] == SYNCHRONIZED

    def test_racy(self):
        classes = classify([ev.fork(0, 1), ev.wr(0, "x"), ev.wr(1, "x")])
        assert classes["x"] == RACY

    def test_write_after_share_demotes_read_shared(self):
        classes = classify(
            [
                ev.wr(0, "x"),
                ev.fork(0, 1),
                ev.rd(1, "x"),
                ev.join(0, 1),
                ev.wr(0, "x"),  # initialize-share-reinitialize
            ]
        )
        assert classes["x"] == SYNCHRONIZED


class TestFractions:
    def test_fractions_sum_to_one(self):
        tool = SharingClassifier().process(
            list(WORKLOADS["mtrt"].trace(scale=200))
        )
        by_accesses = tool.fractions()
        by_variables = tool.fractions(by_accesses=False)
        assert abs(sum(by_accesses.values()) - 1.0) < 1e-9
        assert abs(sum(by_variables.values()) - 1.0) < 1e-9

    def test_paper_insight_holds_on_the_workloads(self):
        """Section 1: the vast majority of data is thread-local,
        lock-protected, or read-shared."""
        for name in ("crypt", "montecarlo", "sparse", "mtrt", "colt"):
            tool = SharingClassifier().process(
                list(WORKLOADS[name].trace(scale=200))
            )
            fractions = tool.fractions()
            common = (
                fractions[THREAD_LOCAL]
                + fractions[LOCK_PROTECTED]
                + fractions[READ_SHARED]
            )
            assert common > 0.9, (name, fractions)

    def test_race_verdict_matches_fasttrack(self):
        trace = list(WORKLOADS["tsp"].trace(scale=150))
        tool = SharingClassifier().process(trace)
        racy_vars = {
            key for key, cls in tool.classify().items() if cls == RACY
        }
        from repro.core.fasttrack import FastTrack

        plain = FastTrack().process(trace)
        assert racy_vars == plain._warned_keys


# -- the columnar process() against the per-event handle() path ---------------

DATA = Path(__file__).parent / "data"
GOLDEN = sorted(path.stem for path in DATA.glob("*.trace"))


def per_event(events, **kwargs):
    """The reference: every event through ``handle`` (the pre-columnar
    ``process``)."""
    return Detector.process(SharingClassifier(**kwargs), events)


def snapshot(tool):
    """Everything observable about a classifier run, order included."""
    fasttrack = tool.fasttrack
    return {
        "classify": list(tool.classify().items()),
        "fractions": tool.fractions(),
        "variable_fractions": tool.fractions(by_accesses=False),
        "profiles": [
            (
                key,
                sorted(profile.accessors),
                sorted(profile.writers),
                profile.lockset,
                profile.accesses,
                profile.foreign_read_seen,
                profile.write_after_share,
            )
            for key, profile in tool.profiles.items()
        ],
        "held": list(tool.held.items()),
        "stats": tool.stats,
        "index": tool._index,
        "counts": json.dumps(classifier_counts(tool)),
        "warnings": fasttrack.warnings,
        "suppressed": fasttrack.suppressed_warnings,
        "ft_stats": fasttrack.stats,
        "ft_rules": list(fasttrack.stats.rules.items()),
        "ft_index": fasttrack._index,
        "ft_warned_keys": fasttrack._warned_keys,
        "ft_vars": list(fasttrack.vars),
        "ft_threads": sorted(fasttrack.threads),
        "ft_locks": list(fasttrack.locks),
    }


def assert_columnar_matches(events, **kwargs):
    expected = snapshot(per_event(events, **kwargs))
    from_events = snapshot(SharingClassifier(**kwargs).process(events))
    from_columns = snapshot(
        SharingClassifier(**kwargs).process(ColumnarTrace.from_events(events))
    )
    for field, value in expected.items():
        assert from_events[field] == value, field
        assert from_columns[field] == value, field


class TestColumnarProcess:
    @pytest.mark.parametrize("name", GOLDEN)
    def test_golden_corpus(self, name):
        events = list(loads((DATA / f"{name}.trace").read_text()))
        assert_columnar_matches(events)

    @pytest.mark.parametrize("name", GOLDEN)
    def test_golden_corpus_coarse_shadow_key(self, name):
        events = list(loads((DATA / f"{name}.trace").read_text()))
        assert_columnar_matches(events, shadow_key=coarse_grain)

    @pytest.mark.parametrize("round_index,trace", list(corpus()))
    def test_differential_fuzz_corpus(self, round_index, trace):
        events = list(trace)
        assert_columnar_matches(events)
        assert_columnar_matches(events, shadow_key=coarse_grain)

    def test_locksets_hold_lock_targets(self):
        events = [
            ev.acq(0, ("lock", 1)), ev.wr(0, "x"), ev.rel(0, ("lock", 1)),
            ev.acq(1, ("lock", 1)), ev.wr(1, "x"), ev.rel(1, ("lock", 1)),
        ]
        tool = SharingClassifier().process(events)
        assert tool.profiles["x"].lockset == frozenset({("lock", 1)})
        assert_columnar_matches(events)

    def test_a_warm_classifier_keeps_the_per_event_path(self):
        first = [ev.fork(0, 1), ev.wr(0, "x")]
        second = [ev.wr(1, "x"), ev.rd(0, "y")]
        tool = SharingClassifier().process(first).process(second)
        assert snapshot(tool) == snapshot(per_event(first + second))

    @pytest.mark.parametrize("nshards", [1, 2, 4])
    def test_engine_counts_unchanged(self, nshards):
        trace = WORKLOADS["tsp"].trace(scale=150)
        expected = classifier_counts(per_event(list(trace)))
        report = engine.check_events(
            trace.events, tool="FastTrack", nshards=nshards, classify=True
        )
        assert report.classifier_access_counts == expected["access_counts"]
        assert (
            report.classifier_variable_counts == expected["variable_counts"]
        )
