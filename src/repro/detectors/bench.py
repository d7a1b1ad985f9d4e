"""Scenario-matrix accuracy benchmark for the detector zoo.

Every detector registered in :mod:`repro.detectors.zoo` is run through
the full runtime kernel (``make_pipeline`` + ``process_batched``, the
same substrate the equivalence tests pin) on a matrix of drift scenarios
-- abrupt, subtle, gradual, slow and stationary gaussian streams -- and
scored on the three standard drift-detection accuracy metrics:
detection delay, false-alarm count and mean time between false alarms.

The scenarios deliberately span the detectors' regimes: the abrupt shift
is what control charts (CUSUM, DDM, Page-Hinkley) eat for breakfast; the
subtle shift separates chart sensitivity from window tests; the gradual
and slow ramps reward detectors that integrate evidence (ADWIN, EDDM);
the stationary stream scores specificity -- every detection it provokes
is a false alarm.

Since PR 10 every scenario is compiled from a declarative
:class:`~repro.scenarios.DriftScript` (:meth:`Scenario.from_script`
lowers a script through :func:`~repro.scenarios.feature_plan`, bit-
identical to the historical segment lists), and
:func:`extended_scenario_matrix` adds the operational regimes --
single-factor drifts, recurring drift, an adversarially slow ramp,
camera displacement with recalibration, a transient occluder.  Script-
backed cells additionally carry per-factor *attribution*: sigma-unit
scores diagnosing which generative factor moved at the first detection.

Everything is a pure function of the seeds, so the committed
``BENCH_detectors.json`` is reproducible bit for bit on any machine.
Run via ``scripts/bench.sh detectors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.detectors import zoo
from repro.errors import DetectorZooError
from repro.scenarios import (
    DriftScript,
    attribute_factors,
    core_scripts,
    feature_plan,
    operational_scripts,
)
from repro.testing import (
    assert_rerun_identical,
    gaussian_stream,
    make_pipeline,
)

#: Seeds each (detector, scenario) cell is averaged over.
DEFAULT_SEEDS: Tuple[int, ...] = (0, 1, 2)


@dataclass(frozen=True)
class Scenario:
    """One entry of the drift matrix: a segmented gaussian stream.

    ``segments`` is a feature plan -- ``(centre, length)`` chunks whose
    centre is a float (isotropic) or a per-dimension tuple.  ``onset`` is
    the frame index where the distribution first leaves the reference;
    ``None`` marks a stationary control where any detection is a false
    alarm.  Script-backed scenarios (built by :meth:`from_script`) keep
    the originating :class:`~repro.scenarios.DriftScript` for ground
    truth and attribution; hand-rolled segment lists (``script=None``)
    remain fully supported.
    """

    name: str
    segments: Tuple[Tuple[object, int], ...]
    onset: Optional[int]
    script: Optional[DriftScript] = None

    @classmethod
    def from_script(cls, script: DriftScript) -> "Scenario":
        """Lower a drift script to a matrix entry (bit-identical to the
        legacy segment list when one existed)."""
        return cls(name=script.name, segments=feature_plan(script),
                   onset=script.onset, script=script)

    @property
    def frames(self) -> int:
        return sum(length for _, length in self.segments)

    @property
    def kind(self) -> Optional[str]:
        """The drift shape of a script-backed scenario."""
        if self.script is None or self.script.stationary:
            return None
        return self.script.tracks[0].kind

    @property
    def factors(self) -> Optional[Tuple[str, ...]]:
        """Ground-truth drifted factors of a script-backed scenario."""
        if self.script is None:
            return None
        return self.script.drifted_factors()

    def halved(self) -> "Scenario":
        """The ``--quick`` variant: every segment at half length."""
        if self.script is not None:
            return Scenario.from_script(self.script.scaled(0.5))
        segments = tuple((centre, max(length // 2, 1))
                         for centre, length in self.segments)
        onset = None if self.onset is None else sum(
            length for _, length in segments[:self._onset_segments()])
        return Scenario(self.name, segments, onset)

    def _onset_segments(self) -> int:
        """How many leading segments precede the onset."""
        if self.onset is None:
            return 0
        total, count = 0, 0
        for _, length in self.segments:
            if total >= self.onset:
                break
            total += length
            count += 1
        return count


def _script_matrix(scripts: Dict[str, DriftScript],
                   quick: bool) -> Dict[str, Scenario]:
    matrix = {}
    for script in scripts.values():
        if quick:
            script = script.scaled(0.5)
        matrix[script.name] = Scenario.from_script(script)
    return matrix


def scenario_matrix(quick: bool = False) -> Dict[str, Scenario]:
    """The benchmark's core drift matrix, keyed by scenario name.

    Compiled from :func:`~repro.scenarios.core_scripts`; the golden
    tests pin the compiled streams bit for bit against the historical
    hand-rolled segment lists.
    """
    return _script_matrix(core_scripts(), quick)


def extended_scenario_matrix(quick: bool = False) -> Dict[str, Scenario]:
    """The core matrix plus the operational scenarios
    (:func:`~repro.scenarios.operational_scripts`): what
    ``benchmarks/bench_detectors.py`` scores."""
    matrix = _script_matrix(core_scripts(), quick)
    matrix.update(_script_matrix(operational_scripts(), quick))
    return matrix


def score_detections(indices: Sequence[int], onset: Optional[int]
                     ) -> Tuple[Optional[int], int]:
    """Score one run's detection frame indices against its drift onset.

    Returns ``(delay, false_alarms)``: ``delay`` counts the frames from
    ``onset`` to the first detection at or after it (``None`` when the
    drift was never caught, and on a stationary run, whose ``onset`` is
    ``None``); ``false_alarms`` counts the detections strictly before the
    onset -- every detection of a stationary run.  Both benchmarks score
    with this one definition.
    """
    if onset is None:
        return None, len(indices)
    post = [index for index in indices if index >= onset]
    delay = min(post) - onset if post else None
    return delay, len(indices) - len(post)


def score_run(detector: str, scenario: Scenario, seed: int) -> dict:
    """Drive one detector through the kernel on one scenario seed.

    Returns the raw per-run observations: ``delay`` (``None`` when the
    drift was never caught), ``false_alarms`` and ``pre_frames`` (how
    many frames the stream spends in the reference distribution, the
    false-alarm exposure window).  Script-backed scenarios whose drift
    was caught also carry ``attribution``: per-factor sigma scores at
    the first post-onset detection.
    """
    frames = gaussian_stream(seed, list(scenario.segments))
    pipeline = make_pipeline(seed, monitor_factory=zoo.factory(detector))
    result = pipeline.process_batched(frames)
    onset = scenario.onset
    delay, false_alarms = score_detections(
        [event.frame_index for event in result.detections], onset)
    pre_frames = scenario.frames if onset is None else onset
    run = {"delay": delay, "false_alarms": false_alarms,
           "pre_frames": pre_frames}
    if scenario.script is not None and delay is not None:
        run["attribution"] = attribute_factors(frames, onset + delay)
    return run


def score_cell(detector: str, scenario: Scenario,
               seeds: Sequence[int]) -> dict:
    """One schema-valid metrics entry: ``score_run`` averaged over
    ``seeds``."""
    runs = [score_run(detector, scenario, seed) for seed in seeds]
    delays = [run["delay"] for run in runs if run["delay"] is not None]
    total_false = sum(run["false_alarms"] for run in runs)
    total_pre = sum(run["pre_frames"] for run in runs)
    cell = {
        "detection_delay": (round(sum(delays) / len(delays), 6)
                            if delays else None),
        "detected_runs": len(delays),
        "runs": len(runs),
        "false_alarms": round(total_false / len(runs), 6),
        "mtbfa": (round(total_pre / total_false, 6)
                  if total_false else None),
    }
    attributions = [run["attribution"] for run in runs
                    if "attribution" in run]
    if attributions:
        cell["attribution"] = {
            factor: round(sum(attribution[factor]
                              for attribution in attributions)
                          / len(attributions), 6)
            for factor in attributions[0]}
    return cell


def run_benchmark(detectors: Optional[Iterable[str]] = None,
                  scenarios: Optional[Dict[str, Scenario]] = None,
                  seeds: Sequence[int] = DEFAULT_SEEDS,
                  quick: bool = False) -> dict:
    """Score ``detectors`` (default: the whole zoo) across the matrix."""
    names = tuple(detectors) if detectors is not None else zoo.names()
    if not names:
        raise DetectorZooError("no detectors selected for the benchmark")
    matrix = scenarios if scenarios is not None else scenario_matrix(quick)
    if not seeds:
        raise DetectorZooError("need at least one seed")
    table: Dict[str, dict] = {}
    for name in names:
        spec = zoo.get_spec(name)
        table[name] = {
            "family": spec.family,
            "rollback": spec.rollback,
            "scenarios": {scenario.name: score_cell(name, scenario, seeds)
                          for scenario in matrix.values()},
        }
    first = names[0]
    first_scenario = next(iter(matrix.values()))
    assert_rerun_identical(
        "detector", f"{first} / {first_scenario.name}",
        table[first]["scenarios"][first_scenario.name],
        score_cell(first, first_scenario, seeds))
    return {
        "schema_version": 1,
        "benchmark": "drift-detector accuracy: scenario matrix",
        "quick": quick,
        "scenarios": {scenario.name: _scenario_entry(scenario, seeds)
                      for scenario in matrix.values()},
        "detectors": table,
    }


def _scenario_entry(scenario: Scenario, seeds: Sequence[int]) -> dict:
    entry = {
        "frames": scenario.frames,
        "onset": scenario.onset,
        "seeds": list(seeds),
    }
    # ground-truth labels only exist for script-backed scenarios; the
    # keys are optional in DETECTORS_SCHEMA so hand-rolled segment lists
    # (and reports written before PR 10) stay valid
    if scenario.script is not None:
        entry["factors"] = list(scenario.factors)
        entry["kind"] = scenario.kind
    return entry
