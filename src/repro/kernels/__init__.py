"""Fused per-detector analysis kernels over columnar traces.

The generic analysis path pays Python interpreter overhead on every
event: a slotted :class:`~repro.trace.events.Event` allocation, a
``Detector.handle`` call, a dict dispatch, and ``self.vars`` /
``self.threads`` lookups behind two method calls.  The paper's whole
point is that >96% of operations must stay O(1) (Section 3) — these
kernels make the *constant* of that O(1) as small as the host allows:

* one monomorphic loop per detector, branching on the int kind column of
  a :class:`~repro.trace.columnar.ColumnarTrace` instead of dict
  dispatch;
* every attribute the hot path touches hoisted into locals;
* dense shadow-slot lists indexed by interned target id instead of
  ``self.vars`` dict probes;
* the `[FT * SAME EPOCH]` / `[DJIT+ * SAME EPOCH]` fast paths inlined to
  a few array indexings and an int compare;
* event-kind tallies folded into the same scan, so the trace is walked
  exactly once (no trailing ``absorb_kind_counts`` pass).

Each kernel drives an ordinary detector instance and must produce
**bit-identical** warnings, :class:`~repro.core.detector.CostStats`, rule
counters, and shadow state to ``detector.process(trace)`` — the
differential suites (``tests/test_kernels.py``,
``tests/test_differential_fuzz.py``) enforce it, and docs/KERNELS.md
spells out the argument.  Tools without a kernel (Empty, Goldilocks,
MultiRace) simply keep using the object path.

:func:`analyze` is the one place that chooses between the two loops: the
in-memory ``repro check`` calls it on the whole trace's columns and the
sharded engine's workers call it on each shard's columns with their
original trace indices.  ``repro check --kernel {auto,fused,generic}``
(:data:`KERNEL_MODES`) steers it.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro import faults, obs
from repro.core.detector import Detector
from repro.detectors.registry import make_detector
from repro.kernels import basicvc, djit, eraser, fasttrack, wcp

#: Tool name → fused kernel entry point ``run(detector, col, indices)``.
KERNELS = {
    "FastTrack": fasttrack.run,
    "DJIT+": djit.run,
    "Eraser": eraser.run,
    "BasicVC": basicvc.run,
    "WCP": wcp.run,
}

#: The kernel-equipped tools, in registry order.
KERNEL_TOOLS = tuple(KERNELS)

#: Accepted values for the ``kernel`` selector: ``auto`` runs the fused
#: kernel when the tool has one, ``fused`` demands one, ``generic`` always
#: takes the object path.
KERNEL_MODES = ("auto", "fused", "generic")

__all__ = [
    "KERNELS",
    "KERNEL_MODES",
    "KERNEL_TOOLS",
    "analyze",
    "has_kernel",
    "resolve_kernel",
    "run_kernel",
]


def has_kernel(tool: str) -> bool:
    """True when ``tool`` has a fused columnar kernel."""
    return tool in KERNELS


def resolve_kernel(kernel: str, tool: str) -> bool:
    """Decide whether ``tool`` runs through its fused kernel.

    ``ValueError`` for an unknown mode, or for ``fused`` on a tool
    without a kernel.
    """
    if kernel not in KERNEL_MODES:
        raise ValueError(
            f"unknown kernel mode {kernel!r}; expected one of {KERNEL_MODES}"
        )
    if kernel == "generic":
        return False
    if has_kernel(tool):
        return True
    if kernel == "fused":
        raise ValueError(f"--kernel fused: {tool!r} has no fused kernel")
    return False


def run_kernel(
    tool: str,
    col,
    tool_kwargs: Optional[Dict] = None,
    indices: Optional[Sequence[int]] = None,
    detector: Optional[Detector] = None,
) -> Detector:
    """Analyze columnar trace ``col`` with ``tool``'s fused kernel.

    Returns the driven detector — warnings, stats, and shadow state are
    exactly what ``make_detector(tool, **tool_kwargs).process(...)`` over
    the same events would produce.  ``indices`` maps loop positions to
    original trace indices for shard replays.  A pre-built ``detector``
    may be supplied instead of ``tool_kwargs`` (it must be the exact
    class the kernel was written against, or the kernel raises
    ``TypeError``).
    """
    try:
        kernel = KERNELS[tool]
    except KeyError:
        known = ", ".join(KERNELS)
        raise ValueError(
            f"no fused kernel for {tool!r}; kernel-equipped tools: {known}"
        )
    if faults.active():
        faults.fire("kernel.run", tool=tool)
    if detector is None:
        detector = make_detector(tool, **(tool_kwargs or {}))
    return kernel(detector, col, indices)


def analyze(
    tool: str,
    col,
    kernel: str = "auto",
    tool_kwargs: Optional[Dict] = None,
    indices: Optional[Sequence[int]] = None,
    **fields,
) -> Tuple[Detector, bool]:
    """Run ``tool`` over ``col``; return the detector and whether the
    fused kernel produced it.

    ``col`` is a whole trace's columns, or one shard's with ``indices``
    mapping its positions to original trace indices.  The fused kernel
    runs when :func:`resolve_kernel` picks it.  A kernel fault degrades,
    it does not fail the run: it is recorded as ``kernel_fallback``
    (``fields`` tag the record) and a fresh detector — the kernel may
    have half-advanced the first one's shadow state — redoes the run on
    the object path, whose output is bit-identical by the equivalence
    contract.
    """
    detector = make_detector(tool, **(tool_kwargs or {}))
    if resolve_kernel(kernel, tool):
        try:
            run_kernel(tool, col, indices=indices, detector=detector)
            return detector, True
        except Exception as error:
            obs.record_degraded(
                "kernel_fallback", tool=tool, error=str(error), **fields
            )
            detector = make_detector(tool, **(tool_kwargs or {}))
    return detector.process(col, indices), False
