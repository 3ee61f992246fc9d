"""Tests for the Section 2.1 feasibility constraints."""

from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.trace import events as ev
from repro.trace.feasibility import (
    FeasibilityError,
    check_feasible,
    is_feasible,
    require_feasible,
)
from repro.trace.generators import traces

DATA = Path(__file__).parent / "data"


class TestLocking:
    def test_double_acquire_rejected(self):
        assert not is_feasible([ev.acq(0, "m"), ev.acq(1, "m")])
        assert not is_feasible([ev.acq(0, "m"), ev.acq(0, "m")])

    def test_release_without_hold_rejected(self):
        assert not is_feasible([ev.rel(0, "m")])
        assert not is_feasible([ev.acq(0, "m"), ev.rel(1, "m")])

    def test_well_bracketed_locking_accepted(self):
        assert is_feasible(
            [
                ev.acq(0, "m"),
                ev.rel(0, "m"),
                ev.acq(1, "m"),
                ev.rel(1, "m"),
            ]
        )


class TestForkJoin:
    def test_child_running_before_fork_rejected(self):
        assert not is_feasible([ev.rd(1, "x"), ev.fork(0, 1)])

    def test_child_running_after_join_rejected(self):
        trace = [
            ev.fork(0, 1),
            ev.rd(1, "x"),
            ev.join(0, 1),
            ev.rd(1, "x"),
        ]
        assert not is_feasible(trace)

    def test_join_without_child_ops_rejected(self):
        # Constraint (4): at least one op of u between fork and join.
        assert not is_feasible([ev.fork(0, 1), ev.join(0, 1)])

    def test_self_fork_join_rejected(self):
        assert not is_feasible([ev.fork(0, 0)])
        assert not is_feasible([ev.rd(0, "x"), ev.join(0, 0)])

    def test_double_fork_rejected(self):
        assert not is_feasible([ev.fork(0, 1), ev.rd(1, "x"), ev.fork(2, 1)])

    def test_double_join_rejected(self):
        trace = [
            ev.fork(0, 1),
            ev.rd(1, "x"),
            ev.join(0, 1),
            ev.join(2, 1),
        ]
        assert not is_feasible(trace)

    def test_initial_threads_need_no_fork(self):
        assert is_feasible([ev.rd(0, "x"), ev.rd(5, "x")])

    def test_plain_fork_join_accepted(self):
        assert is_feasible([ev.fork(0, 1), ev.wr(1, "x"), ev.join(0, 1)])


class TestBarriers:
    def test_barrier_of_live_threads_accepted(self):
        assert is_feasible(
            [ev.rd(0, "x"), ev.rd(1, "x"), ev.barrier_rel((0, 1))]
        )

    def test_barrier_of_joined_thread_rejected(self):
        trace = [
            ev.fork(0, 1),
            ev.rd(1, "x"),
            ev.join(0, 1),
            ev.barrier_rel((0, 1)),
        ]
        assert not is_feasible(trace)

    def test_barrier_counts_as_member_operation(self):
        # A forked thread whose only op is a barrier release may be joined.
        trace = [
            ev.fork(0, 1),
            ev.barrier_rel((0, 1)),
            ev.join(0, 1),
        ]
        assert is_feasible(trace)


class TestReporting:
    def test_messages_carry_event_index(self):
        violations = check_feasible([ev.rel(0, "m")])
        assert len(violations) == 1
        assert violations[0].startswith("#0:")

    def test_require_feasible_raises(self):
        with pytest.raises(FeasibilityError):
            require_feasible([ev.rel(0, "m")])
        require_feasible([ev.rd(0, "x")])  # no exception


class TestGeneratedTraces:
    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_generator_only_produces_feasible_traces(self, trace):
        assert check_feasible(trace) == []


class TestWitnessChecking:
    """The vindicator's contract with the checker (repro.predict).

    A predicted race's witness is a *reordering* of (a prefix-closed
    subset of) an observed trace; ``check_feasible`` is the final word
    on whether that reordering is a real execution.  These tests pin the
    failure modes — and the exact message texts — the vindicator relies
    on when it rejects a reordering.
    """

    def test_reordering_into_held_lock_section_rejected(self):
        """Moving thread 1's acquire inside thread 0's critical section
        is the classic infeasible 'witness'."""
        witness = [
            ev.acq(0, "m"),
            ev.acq(1, "m"),
            ev.wr(1, "x"),
            ev.rel(1, "m"),
            ev.rel(0, "m"),
        ]
        violations = check_feasible(witness)
        assert violations[0] == (
            f"#1: {witness[1]!r} — lock held by thread 0"
        )

    def test_reordering_release_before_acquire_rejected(self):
        witness = [ev.rel(1, "m"), ev.acq(1, "m")]
        violations = check_feasible(witness)
        assert violations[0] == (
            f"#0: {witness[0]!r} — thread 1 does not hold the lock"
            " (holder: None)"
        )

    def test_dangling_acquire_is_feasible(self):
        """A witness may end inside a critical section (the vindicator's
        dangling-section reorderings rely on this)."""
        assert is_feasible(
            [
                ev.acq(1, "m"),
                ev.rel(1, "m"),
                ev.acq(0, "m"),
                ev.wr(0, "x"),
                ev.wr(1, "x"),
            ]
        )

    def test_reordering_child_before_fork_rejected(self):
        witness = [ev.wr(1, "x"), ev.fork(0, 1)]
        violations = check_feasible(witness)
        assert violations == [
            f"#1: {witness[1]!r} — child already ran before fork"
        ]

    def test_reordering_past_join_rejected(self):
        witness = [
            ev.fork(0, 1),
            ev.wr(1, "x"),
            ev.join(0, 1),
            ev.wr(1, "y"),
        ]
        violations = check_feasible(witness)
        assert violations == [
            f"#3: {witness[3]!r} — thread 1 acts after being joined"
        ]

    def test_barrier_member_dropped_after_join_rejected(self):
        witness = [
            ev.fork(0, 1),
            ev.wr(1, "x"),
            ev.join(0, 1),
            ev.barrier_rel((0, 1)),
        ]
        violations = check_feasible(witness)
        assert violations == ["#3: barrier releases joined thread 1"]

    def test_feasibility_error_joins_first_violations(self):
        """require_feasible's message is the '; '-joined violation list
        (capped at five) — what a vindication failure surfaces."""
        witness = [ev.rel(0, "m"), ev.rel(0, "m")]
        with pytest.raises(FeasibilityError) as excinfo:
            require_feasible(witness)
        message = str(excinfo.value)
        assert message.count("does not hold the lock") == 2
        assert "; " in message

    def test_vindicated_witnesses_pass(self):
        """Every witness the vindicator emits on the golden corpus runs
        through this checker clean (the other direction of the contract
        lives in tests/test_predict.py)."""
        from pathlib import Path

        from repro.predict import predict_races
        from repro.trace.serialize import loads

        data = Path(__file__).parent / "data"
        for name in ("predict_lock", "predict_fork"):
            events = list(loads((data / f"{name}.trace").read_text()))
            report = predict_races(events)
            assert report.vindicated, name
            for race in report.vindicated:
                assert check_feasible(race.witness.events(events)) == []


# -- the columnar walk ------------------------------------------------------------

#: One hand-built infeasible trace per Section 2.1 constraint, barriers and
#: async-finish scopes included, with the exact violation strings.
INFEASIBLE = {
    "double_acquire": (
        [ev.acq(0, "m"), ev.acq(1, "m")],
        ["#1: acq(1, 'm') — lock held by thread 0"],
    ),
    "release_unheld": (
        [ev.acq(0, ("lock", 1)), ev.rel(1, ("lock", 1))],
        ["#1: rel(1, ('lock', 1)) — thread 1 does not hold the lock"
         " (holder: 0)"],
    ),
    "release_never_acquired": (
        [ev.rel(0, 7)],
        ["#0: rel(0, 7) — thread 0 does not hold the lock (holder: None)"],
    ),
    "child_before_fork": (
        [ev.rd(1, "x"), ev.fork(0, 1)],
        ["#1: fork(0, 1) — child already ran before fork"],
    ),
    "acts_after_join": (
        [ev.fork(0, 1), ev.wr(1, ("a", 2)), ev.join(0, 1),
         ev.rd(1, ("a", 2))],
        ["#3: rd(1, ('a', 2)) — thread 1 acts after being joined"],
    ),
    "join_without_ops": (
        [ev.fork(0, 1), ev.join(0, 1)],
        ["#1: join(0, 1) — joined thread has no operations"],
    ),
    "self_fork_join": (
        [ev.fork(0, 0), ev.join(1, 1)],
        ["#0: fork(0, 0) — thread forks itself",
         "#0: fork(0, 0) — child already ran before fork",
         "#1: join(1, 1) — thread joins itself"],
    ),
    "double_fork_join": (
        [ev.fork(0, 1), ev.wr(1, "x"), ev.fork(0, 1), ev.join(0, 1),
         ev.join(0, 1)],
        ["#2: fork(0, 1) — thread forked twice",
         "#2: fork(0, 1) — child already ran before fork",
         "#3: join(0, 1) — joined thread has no operations",
         "#4: join(0, 1) — thread joined twice",
         "#4: join(0, 1) — joined thread has no operations"],
    ),
    "barrier_of_joined": (
        [ev.fork(0, 1), ev.wr(1, "x"), ev.join(0, 1),
         ev.barrier_rel((0, 1))],
        ["#3: barrier releases joined thread 1"],
    ),
    "task_spawn_await": (
        [ev.task_spawn(0, 2), ev.task_await(0, 2), ev.task_spawn(0, 0)],
        ["#1: task_await(0, 2) — joined thread has no operations",
         "#2: task_spawn(0, 0) — thread forks itself",
         "#2: task_spawn(0, 0) — child already ran before fork"],
    ),
    "finish_end_unopened": (
        [ev.finish_end(0, "f")],
        ["#0: finish_end(0, 'f') — finish_end without matching"
         " finish_begin"],
    ),
    "finish_scopes_misnested": (
        [ev.finish_begin(0, "f"), ev.finish_begin(0, "g"),
         ev.finish_end(0, "f"), ev.finish_end(0, "g")],
        ["#2: finish_end(0, 'f') — closes scope 'g' (finish scopes must"
         " nest properly)",
         "#3: finish_end(0, 'g') — closes scope 'f' (finish scopes must"
         " nest properly)"],
    ),
    "task_after_finish": (
        [ev.finish_begin(0, "f"), ev.task_spawn(0, 1), ev.wr(1, "x"),
         ev.task_spawn(1, 2), ev.rd(2, "x"), ev.finish_end(0, "f"),
         ev.rd(1, "x"), ev.wr(2, "x")],
        ["#6: rd(1, 'x') — thread 1 acts after being joined",
         "#7: wr(2, 'x') — thread 2 acts after being joined"],
    ),
}


class TestColumnarWalk:
    """``check_feasible`` over a :class:`ColumnarTrace` walks its columns;
    the violations must be the Event path's, string for string."""

    @pytest.mark.parametrize("name", sorted(INFEASIBLE))
    def test_hand_built_infeasible_traces(self, name):
        from repro.trace.columnar import ColumnarTrace
        from repro.trace.serialize import dumps

        events, expected = INFEASIBLE[name]
        assert check_feasible(events) == expected
        assert check_feasible(iter(events)) == expected
        assert check_feasible(ColumnarTrace.from_events(events)) == expected
        lines = dumps(events).splitlines()
        assert check_feasible(ColumnarTrace.from_lines(lines)) == expected

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("name", sorted(
        path.stem for path in DATA.glob("*.trace")
    ))
    def test_golden_corpus(self, name, reverse):
        # Reversed, every golden trace breaks several constraints.
        from repro.trace.columnar import ColumnarTrace
        from repro.trace.serialize import dumps, loads

        events = list(loads((DATA / f"{name}.trace").read_text()))
        if reverse:
            events.reverse()
        expected = check_feasible(events)
        assert bool(expected) == reverse
        columns = ColumnarTrace.from_lines(dumps(events).splitlines())
        assert check_feasible(columns) == expected
