"""The drift-detector zoo: a named registry of pluggable monitors.

PR 6 made :class:`~repro.runtime.protocols.DriftMonitor` a
runtime-checkable protocol so alternative detectors can back the kernel's
monitoring stage via ``monitor_factory``.  This module cashes that in: a
registry mapping detector *names* to factories with exactly the
``monitor_factory`` signature -- called with the deployed
:class:`~repro.core.selection.registry.ModelBundle`, returning a fresh
:class:`DriftMonitor` armed against that bundle's reference sample.

Registered out of the box:

==============  ==========================================================
``inspector``   the paper's Drift Inspector (conformal martingale)
``odin``        ODIN-Detect, seeded with the bundle's reference cluster
``cusum``       Page's CUSUM chart on the distance statistic
``ks``          sliding-window per-dimension Kolmogorov-Smirnov test
``moment``      z-test on the windowed mean of the distance statistic
``ddm``         Drift Detection Method (binarized outlier rate)
``eddm``        Early DDM (gap between outliers)
``adwin``       adaptive windowing with Hoeffding cuts
``kswin``       KS test of the newest window slice vs the remainder
``page-hinkley`` Page-Hinkley cumulative mean-shift test
``pixelstat``   tier-0 pixel-statistic screen (SSIM / edge IoU / moments)
``cascade-di``  tiered cascade: pixelstat screen -> Drift Inspector
==============  ==========================================================

Every entry builds a :class:`~repro.runtime.protocols.Snapshotable`
monitor, so checkpoint/restore, fleet crash recovery and the optimistic
batched-rollback path keep working whatever the session is monitored by.
Adding a detector is one :func:`register` call plus a passing run of the
conformance kit in :mod:`repro.testing.conformance`::

    from repro.detectors import zoo

    @zoo.register("my-detector", family="custom",
                  description="one-line summary")
    def _build(bundle):
        return MyDetector(bundle.sigma)

    pipeline = make_pipeline(monitor_factory=zoo.factory("my-detector"))

``benchmarks/bench_detectors.py`` runs every registered entry through the
runtime kernel across the scenario matrix and scores detection delay,
false-alarm rate and mean time between false alarms into
``BENCH_detectors.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.baselines.odin.detect import OdinConfig, OdinDetect
from repro.baselines.statistical import (
    CusumDetector,
    KSDetector,
    MomentDetector,
)
from repro.core.drift_inspector import DriftInspector, DriftInspectorConfig
from repro.detectors.classical import (
    ADWINDetector,
    DDMDetector,
    EDDMDetector,
    KSWINDetector,
    PageHinkleyDetector,
)
from repro.errors import DetectorZooError
from repro.runtime.protocols import DriftMonitor

#: The fixed seed zoo-built inspectors use for their tie-breaking RNG
#: streams -- a pure function of nothing, so every substrate that builds a
#: monitor from the same bundle gets a bit-identical one.
ZOO_SEED = 0


@dataclass(frozen=True)
class DetectorSpec:
    """One registry entry.

    ``factory`` has the kernel's ``monitor_factory`` signature; ``rollback``
    records whether the built monitor is expected to qualify for the
    optimistic batched path (``observe_batch`` + Snapshotable) -- the
    conformance kit pins this so an entry cannot silently fall off the
    fast path.
    """

    name: str
    family: str
    description: str
    factory: Callable[[object], DriftMonitor]
    rollback: bool = True

    def build(self, bundle) -> DriftMonitor:
        """Build a fresh monitor armed against ``bundle``'s reference."""
        monitor = self.factory(bundle)
        if not isinstance(monitor, DriftMonitor):
            raise DetectorZooError(
                f"factory for {self.name!r} built {type(monitor).__name__}, "
                f"which does not satisfy the DriftMonitor protocol")
        return monitor


_REGISTRY: Dict[str, DetectorSpec] = {}


def register(name: str, family: str, description: str,
             rollback: bool = True,
             factory: Optional[Callable[[object], DriftMonitor]] = None):
    """Register a detector factory under ``name``.

    Usable directly (``register(name, ..., factory=fn)``) or as a
    decorator.  Raises :class:`DetectorZooError` on duplicate names so two
    subsystems cannot silently shadow each other's detectors.
    """
    if not name or not isinstance(name, str):
        raise DetectorZooError(f"detector name must be a non-empty string, "
                               f"got {name!r}")

    def _register(fn: Callable[[object], DriftMonitor]):
        if name in _REGISTRY:
            raise DetectorZooError(
                f"detector {name!r} is already registered "
                f"({_REGISTRY[name].description})")
        _REGISTRY[name] = DetectorSpec(name=name, family=family,
                                       description=description,
                                       factory=fn, rollback=rollback)
        return fn

    if factory is not None:
        _register(factory)
        return factory
    return _register


def unregister(name: str) -> None:
    """Remove a registered detector (primarily for test isolation)."""
    if name not in _REGISTRY:
        raise DetectorZooError(f"unknown detector {name!r}; registered: "
                               f"{', '.join(names())}")
    del _REGISTRY[name]


def names() -> Tuple[str, ...]:
    """Registered detector names, sorted for deterministic iteration."""
    return tuple(sorted(_REGISTRY))


def specs() -> Iterator[DetectorSpec]:
    """Registered specs in :func:`names` order."""
    for name in names():
        yield _REGISTRY[name]


def get_spec(name: str) -> DetectorSpec:
    """Look up one entry; raises :class:`DetectorZooError` when unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise DetectorZooError(
            f"unknown detector {name!r}; registered: "
            f"{', '.join(names())}") from None


def factory(name: str) -> Callable[[object], DriftMonitor]:
    """The entry's ``monitor_factory`` (pass straight to the pipeline)."""
    return get_spec(name).factory


def build(name: str, bundle) -> DriftMonitor:
    """Build ``name``'s monitor against ``bundle`` (factory + protocol
    check)."""
    return get_spec(name).build(bundle)


# ----------------------------------------------------------------------
# built-in entries
# ----------------------------------------------------------------------
@register("inspector", family="conformal",
          description="Drift Inspector: conformal-martingale monitor "
                      "(paper Algorithm 1)")
def _build_inspector(bundle) -> DriftInspector:
    return DriftInspector(
        bundle.sigma,
        reference_scores=bundle.sorted_scores(),
        embedder=getattr(bundle, "vae", None),
        config=DriftInspectorConfig(seed=ZOO_SEED))


@register("pixelstat", family="tier0",
          description="tier-0 pixel-statistic screen: SSIM / edge-IoU / "
                      "moment z-scores against the reference sample")
def _build_pixelstat(bundle):
    """Screen what the monitor is fed: the bundle's retained training
    frames when it has them (raw pixels, embedded by tier 1's VAE), else
    its feature reference sample ``sigma``."""
    from repro.detectors.tier0 import PixelStatMonitor
    frames = getattr(bundle, "training_frames", None)
    return PixelStatMonitor(bundle.sigma if frames is None else frames)


@register("cascade-di", family="cascade",
          description="tiered cascade: pixel-stat screen escalating "
                      "suspicious windows to the Drift Inspector")
def _build_cascade_di(bundle):
    from repro.cascade.monitor import CascadeMonitor, EscalationPolicy
    return CascadeMonitor(_build_pixelstat(bundle),
                          _build_inspector(bundle),
                          policy=EscalationPolicy())


@register("odin", family="clustering", rollback=False,
          description="ODIN-Detect: temporary-cluster stabilisation "
                      "(KL promotion test)")
def _build_odin(bundle) -> OdinDetect:
    detect = OdinDetect(config=OdinConfig(),
                        embedder=getattr(bundle, "vae", None))
    detect.seed_cluster(bundle.name, bundle.sigma, model_name=bundle.name)
    return detect


@register("cusum", family="statistical",
          description="Page's CUSUM control chart on the distance "
                      "statistic")
def _build_cusum(bundle) -> CusumDetector:
    return CusumDetector(bundle.sigma)


@register("ks", family="statistical",
          description="sliding-window per-dimension KS test (Bonferroni)")
def _build_ks(bundle) -> KSDetector:
    return KSDetector(bundle.sigma)


@register("moment", family="statistical",
          description="z-test on the windowed mean of the distance "
                      "statistic")
def _build_moment(bundle) -> MomentDetector:
    return MomentDetector(bundle.sigma)


@register("ddm", family="error-rate",
          description="Drift Detection Method: control chart on the "
                      "binarized outlier rate")
def _build_ddm(bundle) -> DDMDetector:
    return DDMDetector(bundle.sigma)


@register("eddm", family="error-rate",
          description="Early DDM: collapse of the gap between outliers")
def _build_eddm(bundle) -> EDDMDetector:
    return EDDMDetector(bundle.sigma)


@register("adwin", family="windowing",
          description="ADWIN: adaptive window with Hoeffding-bound cuts")
def _build_adwin(bundle) -> ADWINDetector:
    return ADWINDetector(bundle.sigma)


@register("kswin", family="windowing",
          description="KSWIN: KS test of the newest window slice vs the "
                      "remainder")
def _build_kswin(bundle) -> KSWINDetector:
    return KSWINDetector(bundle.sigma)


@register("page-hinkley", family="sequential",
          description="Page-Hinkley cumulative test for a sustained "
                      "mean shift")
def _build_page_hinkley(bundle) -> PageHinkleyDetector:
    return PageHinkleyDetector(bundle.sigma)
