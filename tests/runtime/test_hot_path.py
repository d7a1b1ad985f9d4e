"""The one-frame monitoring path: traced at every layer, shared per bundle.

One monitored ``step`` on a feature pipeline enters each layer boundary
the wall-clock benchmark's tracer wraps (``benchmarks/e2e/tracing.py``
patches these methods on their own classes) exactly once, so a cut to the
scalar path cannot bypass a layer and hide its time in the caller.  Every
Drift Inspector built from one bundle -- deploys, MSBI candidate tests,
the zoo's ``inspector`` -- counts p-values against the bundle's one
sorted copy of ``A_i``; nothing is sorted per pipeline or per inspector.
"""

from __future__ import annotations

import pytest

from repro.core.martingale import AdditiveMartingale
from repro.core.nonconformity import KNNDistance
from repro.core.pvalues import PValueCalculator
from repro.detectors import zoo
from repro.runtime.admission import AdmissionController
from repro.runtime.emission import EmissionStage
from repro.runtime.monitoring import MonitorStage
from repro.testing import gaussian_stream, make_pipeline, make_registry

#: (class, method) pairs the benchmark tracer wraps on the scalar path.
SCALAR_SITES = (
    (AdmissionController, "admit"),
    (MonitorStage, "observe"),
    (KNNDistance, "score"),
    (PValueCalculator, "__call__"),
    (AdditiveMartingale, "update"),
    (EmissionStage, "emit"),
)


def _count_calls(monkeypatch, sites):
    counts = {}
    for owner, name in sites:
        original = owner.__dict__[name]  # defined on the class itself
        key = f"{owner.__name__}.{name}"
        counts[key] = 0

        def counted(*args, _original=original, _key=key, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize("call", ["step", "step_batch"])
def test_one_monitored_step_enters_each_layer_once(monkeypatch, call):
    pipeline = make_pipeline(0)
    frames = gaussian_stream(0, [(0.0, 40)])
    pipeline.start()
    for frame in frames[:39]:
        pipeline.step(frame)
    counts = _count_calls(monkeypatch, SCALAR_SITES)
    if call == "step":
        records = pipeline.step(frames[39])
    else:
        records = pipeline.step_batch([frames[39]])
    assert len(records) == 1
    assert counts == {key: 1 for key in counts}


def test_every_inspector_from_a_bundle_shares_its_sorted_scores(
        monkeypatch):
    built = []
    original = PValueCalculator.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self.scores)

    monkeypatch.setattr(PValueCalculator, "__init__", recording)
    registry = make_registry()
    # deploys of two pipelines plus the MSBI candidate tests of a drift
    for seed in (0, 1):
        make_pipeline(seed, registry=registry).process(
            gaussian_stream(seed, [(0.0, 40), (6.0, 40)]))
    bundles = list(registry)
    shared = [bundle.sorted_scores(5) for bundle in bundles]
    assert len(built) > 2 * len(bundles)
    assert all(any(scores is s for s in shared) for scores in built)

    built.clear()
    for bundle in bundles:
        zoo.build("inspector", bundle)
        zoo.build("inspector", bundle)
    assert [id(s) for s in built] == [id(bundle.sorted_scores())
                                      for bundle in bundles
                                      for _ in range(2)]
