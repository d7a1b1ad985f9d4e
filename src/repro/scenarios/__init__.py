"""Declarative drift scripting: one script, three backends.

A :class:`DriftScript` declares *what* drifts (typed factor tracks over
lighting, camera geometry, object density, sensor noise, occlusion),
*how* (abrupt, gradual, recurring, adversarially slow, camera
displacement with recalibration, transient occlusion) and carries
structured ground truth (:class:`DriftEvent`).  The same script compiles
to:

- gaussian feature streams for the detector benchmarks
  (:func:`compile_features`);
- pixel video streams through :mod:`repro.video`
  (:func:`compile_video`);
- drift-coupled serving workload profiles (:func:`compile_workload`).

This package sits *below* the consumers: ``repro.testing``,
``repro.detectors`` and ``repro.video.datasets`` build on it, and the
layer lint forbids it from importing ``repro.parallel``, ``repro.serve``
or ``repro.experiments``.
"""

from repro.scenarios.compile import (
    FACTOR_DIMS,
    FEATURE_DIM,
    CompiledFeatureStream,
    attribute_factors,
    compile_features,
    feature_plan,
    generate_plan,
    observed_events,
)
from repro.scenarios.library import (
    ONSET,
    builtin_scripts,
    core_scripts,
    get_script,
    operational_scripts,
    slow_drift_script,
)
from repro.scenarios.report import (
    SCENARIO_DOCUMENT,
    SCENARIO_SCHEMA,
    SCENARIO_SCHEMA_VERSION,
    script_document,
)
from repro.scenarios.script import (
    EVENT_KINDS,
    FACTORS,
    KINDS,
    DriftEvent,
    DriftScript,
    FactorTrack,
    compound,
)
from repro.scenarios.video import (
    CompiledVideoStream,
    VideoProfile,
    compile_video,
)
from repro.scenarios.workload import (
    CompiledWorkload,
    WorkloadCoupling,
    compile_workload,
    drive_at,
)

__all__ = [
    "CompiledFeatureStream",
    "CompiledVideoStream",
    "CompiledWorkload",
    "DriftEvent",
    "DriftScript",
    "EVENT_KINDS",
    "FACTORS",
    "FACTOR_DIMS",
    "FEATURE_DIM",
    "FactorTrack",
    "KINDS",
    "ONSET",
    "SCENARIO_DOCUMENT",
    "SCENARIO_SCHEMA",
    "SCENARIO_SCHEMA_VERSION",
    "VideoProfile",
    "WorkloadCoupling",
    "attribute_factors",
    "builtin_scripts",
    "compile_features",
    "compile_video",
    "compile_workload",
    "compound",
    "core_scripts",
    "drive_at",
    "feature_plan",
    "generate_plan",
    "get_script",
    "observed_events",
    "operational_scripts",
    "script_document",
    "slow_drift_script",
]
