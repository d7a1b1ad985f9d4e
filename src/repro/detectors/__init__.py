"""Object detectors, per-distribution query models, and the drift zoo.

- :mod:`repro.detectors.base` -- detector protocol and result types.
- :mod:`repro.detectors.oracle` -- ``ReferenceDetector``, the Mask R-CNN
  substitute: near-perfect accuracy, one order of magnitude higher cost.
- :mod:`repro.detectors.fast` -- ``FastDetector``, the YOLOv7 substitute:
  fixed cost, drift-oblivious, accuracy degrades under hard conditions.
- :mod:`repro.detectors.classifier_filters` -- ``CountClassifier`` and
  ``SpatialFilter``, the VGG-19 / OD-CLF query-model substitutes trained per
  distribution.
- :mod:`repro.detectors.classical` -- deterministic in-repo DDM / EDDM /
  ADWIN / KSWIN / Page-Hinkley concept-drift detectors.
- :mod:`repro.detectors.zoo` -- the named registry of pluggable
  :class:`~repro.runtime.protocols.DriftMonitor` factories backing the
  kernel's ``monitor_factory`` hook.
- :mod:`repro.detectors.report` -- the ``BENCH_detectors.json`` accuracy
  schema (``DETECTORS_SCHEMA``) and its contract (``DETECTORS_REPORT``).
- :mod:`repro.detectors.bench` -- the scenario-matrix benchmark harness
  scoring every zoo entry on delay / false alarms / MTBFA.
"""

from repro.detectors.base import Detection, DetectionResult, Detector
from repro.detectors.classifier_filters import CountClassifier, SpatialFilter
from repro.detectors.fast import FastDetector
from repro.detectors.oracle import ReferenceDetector

# The zoo (and the classical detectors it registers) sit above
# ``repro.baselines``, which closes an import cycle back through
# ``repro.core.pipeline`` -> ``repro.detectors.classifier_filters`` if
# imported eagerly here, so those names resolve lazily (PEP 562).
_CLASSICAL = ("DDMDetector", "EDDMDetector", "ADWINDetector",
              "KSWINDetector", "PageHinkleyDetector")


def __getattr__(name):
    import importlib

    if name in _CLASSICAL:
        classical = importlib.import_module("repro.detectors.classical")
        return getattr(classical, name)
    if name in ("zoo", "DetectorSpec"):
        zoo = importlib.import_module("repro.detectors.zoo")
        return zoo if name == "zoo" else zoo.DetectorSpec
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Detection",
    "DetectionResult",
    "Detector",
    "ReferenceDetector",
    "FastDetector",
    "CountClassifier",
    "SpatialFilter",
    "DetectorSpec",
    "zoo",
    "DDMDetector",
    "EDDMDetector",
    "ADWINDetector",
    "KSWINDetector",
    "PageHinkleyDetector",
]
