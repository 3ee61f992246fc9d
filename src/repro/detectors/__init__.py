"""The seven dynamic analyses compared in the paper's evaluation.

All tools implement the :class:`~repro.core.detector.Detector` interface and
are registered in :mod:`repro.detectors.registry`:

==============  =========  ====================================================
tool            precise?   reference
==============  =========  ====================================================
Empty           —          measures framework overhead only
Eraser          no         LockSet algorithm [33] + barrier extension [29]
MultiRace       no         hybrid LockSet/DJIT+ [30]
Goldilocks      yes        synchronization-device locksets [14]
BasicVC         yes        read + write vector clock per location
DJIT+           yes        epoch-optimized vector clocks [30]
FastTrack       yes        this paper
WCP             no*        weak-causally-precedes (predictive; repro.predict)
AsyncFinish     yes        FastTrack + async-finish task scopes (PAPERS.md)
==============  =========  ====================================================

(* WCP's extra reports are candidates made precise by vindication —
:mod:`repro.predict.vindicate` — not by Theorem 1; see docs/PREDICT.md.)
"""

from repro.core.detector import (
    CostStats,
    Detector,
    RaceWarning,
    coarse_grain,
    fine_grain,
)
from repro.core.vcsync import VCSyncDetector
from repro.detectors.empty import Empty
from repro.detectors.eraser import Eraser
from repro.detectors.basicvc import BasicVC
from repro.detectors.djit import DJITPlus
from repro.detectors.multirace import MultiRace
from repro.detectors.goldilocks import Goldilocks
from repro.detectors.classifier import SharingClassifier
from repro.detectors.asyncfinish import AsyncFinishDetector
from repro.core.fasttrack import FastTrack
from repro.detectors.registry import (
    DETECTORS,
    PRECISE_DETECTORS,
    default_tool_kwargs,
    make_detector,
    resolve_tool_name,
)
from repro.predict.wcp import WCPDetector

__all__ = [
    "CostStats",
    "Detector",
    "RaceWarning",
    "VCSyncDetector",
    "fine_grain",
    "coarse_grain",
    "Empty",
    "Eraser",
    "BasicVC",
    "DJITPlus",
    "MultiRace",
    "Goldilocks",
    "FastTrack",
    "WCPDetector",
    "AsyncFinishDetector",
    "SharingClassifier",
    "DETECTORS",
    "PRECISE_DETECTORS",
    "default_tool_kwargs",
    "make_detector",
    "resolve_tool_name",
]
