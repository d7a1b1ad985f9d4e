"""Exception hierarchy for the repro package.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class at the pipeline boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigurationError(ReproError):
    """An algorithm or component was configured with invalid parameters."""


class NotFittedError(ReproError):
    """A model or detector was used before being trained / calibrated."""


class DimensionMismatchError(ReproError):
    """Input array shape does not match the shape a component was built for."""


class EmptyReferenceError(ReproError):
    """A conformal reference set (Sigma_T) is empty or too small to use."""


class StreamExhaustedError(ReproError):
    """A video stream ran out of frames while a component expected more."""


class RegistryError(ReproError):
    """A model registry lookup failed (unknown distribution or duplicate)."""


class FrameValidationError(ReproError):
    """An incoming frame failed validation (non-finite pixels, wrong shape
    or a dtype that cannot be coerced to float)."""


class CheckpointError(ReproError):
    """A pipeline checkpoint could not be written, read or applied (corrupt
    archive, version mismatch, or state incompatible with the session)."""


class FleetError(ReproError):
    """A fleet execution could not complete: a worker failed with a real
    error, or a crashed task exhausted its restart budget."""


class ReportError(ReproError):
    """A committed report (``BENCH_*.json``) violates its schema, or a
    report statistic was asked for an invalid parameter."""


class TelemetryError(ReproError):
    """A telemetry summary violates the repro.obs report schema, or two
    shard summaries cannot be merged (e.g. histogram boundary mismatch)."""


class ServeError(ReproError):
    """The serving layer was misused (duplicate sessions, arrivals for an
    unknown stream, out-of-order arrival timestamps)."""


class DetectorZooError(ReproError):
    """The drift-detector zoo registry was misused (duplicate registration,
    unknown detector name, or a factory that builds a non-conforming
    monitor)."""


class ScenarioError(ReproError):
    """A drift script is malformed (unknown factor or kind, inconsistent
    temporal parameters) or could not be compiled to a backend."""


class CascadeError(ReproError):
    """The tiered monitoring cascade was misused (a tier that does not
    satisfy the DriftMonitor protocol, or invalid escalation-policy
    parameters)."""


class ConformanceError(ReproError, AssertionError):
    """A detector failed the :mod:`repro.testing.conformance` kit.

    Derives from :class:`AssertionError` too, so plain ``pytest`` reporting
    and ``pytest.raises(AssertionError)`` both treat conformance failures
    as ordinary assertion failures."""
