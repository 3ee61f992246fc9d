"""Feasibility of traces (Section 2.1, constraints (1)–(4)).

The paper restricts attention to feasible traces respecting the usual
constraints on forks, joins, and locking:

1. no thread acquires a lock previously acquired but not released;
2. no thread releases a lock it did not previously acquire;
3. there are no instructions of a thread ``u`` preceding ``fork(t, u)`` or
   following ``join(v, u)``;
4. there is at least one instruction of thread ``u`` between ``fork(t, u)``
   and ``join(v, u)``.

We additionally enforce the self-evident side conditions the paper leaves
implicit: a thread does not fork or join itself, a thread is forked at most
once, and a barrier release only names live threads.  Threads that appear
without a fork are treated as initial threads (the paper's traces start with
a running thread 0 and often more).

The async-finish extension carries the analogous constraints: tasks share
the thread-id namespace (``task_spawn``/``task_await`` mirror fork/join
exactly), ``finish_end(t, f)`` must close a scope ``f`` that ``t`` itself
opened (properly nested, matching labels), a task spawned under a finish
scope performs no operations after the scope's ``finish_end``, and a task
still holding an open finish scope at its last operation is simply a task
whose spawns are never joined (allowed — an unclosed scope joins nothing).

:func:`check_feasible` returns the list of violations (empty = feasible);
:func:`is_feasible` is the boolean view.  The simulated runtime produces
feasible traces *by construction* and the property tests assert that.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Set

from repro.trace import events as ev
from repro.trace.columnar import ColumnarTrace


class FeasibilityError(ValueError):
    """Raised by :func:`require_feasible` for infeasible traces."""


def check_feasible(trace: Iterable[ev.Event]) -> List[str]:
    """All Section 2.1 violations in ``trace``, as human-readable strings.

    ``trace`` is any event iterable or a
    :class:`~repro.trace.columnar.ColumnarTrace`, whose kind/tid/target
    columns are walked directly: an ``Event`` is built only to format a
    violation, so both forms give the same strings.
    """
    if isinstance(trace, ColumnarTrace):
        targets = map(trace.targets.__getitem__, trace.target_ids)
        rows = zip(trace.kinds, trace.tids, targets)
    else:
        rows = ((event.kind, event.tid, event.target) for event in trace)
    violations: List[str] = []

    def violation(message: str) -> None:
        # Reads the loop's current event; only called on a violation.
        event = ev.Event(kind, tid, target)
        violations.append(f"#{index}: {event!r} — {message}")

    lock_holder: Dict[Hashable, int] = {}
    started: Set[int] = set()  # threads that have performed an op
    forked: Set[int] = set()  # threads created by a fork or task_spawn
    joined: Set[int] = set()  # threads already joined/awaited/finish-joined
    fork_pending: Set[int] = set()  # forked but no op yet
    # Async-finish scopes: visible[t] is the member list of t's innermost
    # open scope (inherited from the spawner by reference), open_scopes[t]
    # the (label, parent, members) stack of scopes t itself opened.
    visible: Dict[int, List[int]] = {}
    open_scopes: Dict[int, List] = {}
    WRITE = ev.WRITE
    ACQUIRE = ev.ACQUIRE
    RELEASE = ev.RELEASE
    BARRIER_RELEASE = ev.BARRIER_RELEASE

    for index, (kind, tid, target) in enumerate(rows):
        if kind == BARRIER_RELEASE:
            for member in target:
                if member in joined:
                    violations.append(
                        f"#{index}: barrier releases joined thread {member}"
                    )
                # A barrier release is an instruction of every member.
                started.add(member)
                fork_pending.discard(member)
            continue

        if tid in joined:
            violation(f"thread {tid} acts after being joined")
        if tid in fork_pending:
            fork_pending.discard(tid)
        started.add(tid)

        if kind <= WRITE:  # reads and writes: nothing more to check
            continue
        if kind == ACQUIRE:
            holder = lock_holder.get(target)
            if holder is not None:
                violation(f"lock held by thread {holder}")
            lock_holder[target] = tid
        elif kind == RELEASE:
            holder = lock_holder.get(target)
            if holder != tid:
                violation(
                    f"thread {tid} does not hold the lock (holder: {holder})"
                )
            else:
                del lock_holder[target]
        elif kind in (ev.FORK, ev.TASK_SPAWN):
            child = target
            if child == tid:
                violation("thread forks itself")
            if child in forked:
                violation("thread forked twice")
            if child in started:
                violation("child already ran before fork")
            forked.add(child)
            fork_pending.add(child)
            if kind == ev.TASK_SPAWN:
                scope = visible.get(tid)
                if scope is not None:
                    scope.append(child)
                    visible[child] = scope
        elif kind in (ev.JOIN, ev.TASK_AWAIT):
            child = target
            if child == tid:
                violation("thread joins itself")
            if child in joined:
                violation("thread joined twice")
            if child not in started or child in fork_pending:
                # covers constraint (4): a forked thread must run at least one
                # op before being joined, and an initial thread must have run.
                violation("joined thread has no operations")
            joined.add(child)
        elif kind == ev.FINISH_BEGIN:
            members: List[int] = []
            open_scopes.setdefault(tid, []).append(
                (target, visible.get(tid), members)
            )
            visible[tid] = members
        elif kind == ev.FINISH_END:
            stack = open_scopes.get(tid)
            if not stack:
                violation("finish_end without matching finish_begin")
            else:
                label, parent, members = stack.pop()
                if label != target:
                    violation(
                        f"closes scope {label!r}"
                        f" (finish scopes must nest properly)"
                    )
                if parent is None:
                    visible.pop(tid, None)
                else:
                    visible[tid] = parent
                # The closing join terminates every member not already
                # awaited: any later operation of one is a violation.
                joined.update(members)

    return violations


def is_feasible(trace: Iterable[ev.Event]) -> bool:
    return not check_feasible(trace)


def require_feasible(trace: Iterable[ev.Event]) -> None:
    """Raise :class:`FeasibilityError` if the trace violates Section 2.1."""
    violations = check_feasible(trace)
    if violations:
        raise FeasibilityError("; ".join(violations[:5]))
