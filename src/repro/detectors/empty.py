"""The EMPTY tool: no analysis at all.

The paper uses EMPTY to measure the cost of delivering the event stream to a
back-end checker (a 4.1x average slowdown under RoadRunner).  Here it plays
the same role: the harness reports every tool's replay time as a ratio to
EMPTY's, isolating analysis cost from event-delivery cost.
"""

from __future__ import annotations

from repro.core.detector import Detector


class Empty(Detector):
    """Receives every event and does nothing with it."""

    name = "Empty"
    precise = False
