"""Tiered monitoring cascade: cheap screening in front of expensive
drift detection.

:class:`CascadeMonitor` composes any cheap tier-0 screen (typically
:class:`~repro.detectors.tier0.PixelStatMonitor`) with any expensive
tier-1 :class:`~repro.runtime.protocols.DriftMonitor` behind the *same*
``DriftMonitor`` protocol, so a cascade drops into the runtime kernel's
``monitor_factory`` seam exactly like a flat detector.  A deterministic
:class:`EscalationPolicy` -- suspicion threshold, escalation window,
hysteresis cooldown -- decides which frames pay the tier-1 price.

The accuracy/cost frontier benchmark lives in :mod:`repro.cascade.bench`
(deliberately not imported here: it reaches the detector zoo and the
shared fixtures, and eager import would put every cascade consumer
downstream of both).  The ``BENCH_cascade.json`` contract
(:data:`CASCADE_REPORT`) lives in :mod:`repro.cascade.report`.
"""

from repro.cascade.monitor import (
    TIER0_OPS,
    TIER1_OPS,
    CascadeDecision,
    CascadeMonitor,
    EscalationPolicy,
)
from repro.cascade.report import (
    CASCADE_REPORT,
    CASCADE_SCHEMA,
    frontier_summary,
)

__all__ = [
    "CascadeMonitor",
    "CascadeDecision",
    "EscalationPolicy",
    "TIER0_OPS",
    "TIER1_OPS",
    "CASCADE_REPORT",
    "CASCADE_SCHEMA",
    "frontier_summary",
]
