"""Property tests: every batched kernel is bit-identical to its scalar loop.

The batched execution paths (``observe_batch``, ``update_batch``,
``PValueCalculator.batch``, ``process_batched``, MSBI's batched testing)
all promise *bit* equivalence with their sequential counterparts -- not
"numerically close", but the same floats, the same RNG stream consumption
and the same downstream decisions.  These tests state that contract as
hypothesis properties over seeds, chunkings and p-value streams.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.betting import LogScore, MixtureBetting, PowerBetting
from repro.core.drift_inspector import DriftInspector, DriftInspectorConfig
from repro.core.martingale import AdditiveMartingale, MultiplicativeMartingale
from repro.core.nonconformity import KNNDistance
from repro.core.pvalues import PValueCalculator
from repro.core.selection.msbi import MSBI, MSBIConfig

from tests.parallel.conftest import (
    DIM,
    gaussian_stream,
    make_pipeline,
    make_registry,
    result_sig,
)

# p-value streams that visit every CUSUM regime: long null runs (clamped
# at zero), drift runs (monotone growth) and alternating chatter
p_streams = st.lists(
    st.floats(min_value=0.0, max_value=1.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=200)


# ----------------------------------------------------------------------
# stage kernels
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(ps=p_streams, cusum=st.booleans(), split=st.integers(0, 200))
def test_additive_update_batch_matches_loop(ps, cusum, split):
    scalar = AdditiveMartingale(LogScore(PowerBetting(0.1)), window=3,
                                cusum_reset=cusum)
    batched = AdditiveMartingale(LogScore(PowerBetting(0.1)), window=3,
                                 cusum_reset=cusum)
    states = [scalar.update(p) for p in ps]
    split = min(split, len(ps))
    chunks = [ps[:split], ps[split:]]
    batches = [batched.update_batch(np.asarray(chunk))
               for chunk in chunks if chunk]
    values = [v for batch in batches for v in batch.values.tolist()]
    drift = [d for batch in batches for d in batch.drift.tolist()]
    assert values == [s.value for s in states]
    assert drift == [s.drift for s in states]
    assert batched.history == scalar.history
    assert batched.step == scalar.step


@settings(max_examples=25, deadline=None)
@given(ps=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1,
                   max_size=120),
       split=st.integers(0, 120))
@pytest.mark.parametrize("betting", [PowerBetting(0.1), MixtureBetting()])
def test_multiplicative_update_batch_matches_loop(betting, ps, split):
    scalar = MultiplicativeMartingale(betting, significance=0.05)
    batched = MultiplicativeMartingale(betting, significance=0.05)
    states = [scalar.update(p) for p in ps]
    split = min(split, len(ps))
    batches = [batched.update_batch(np.asarray(chunk))
               for chunk in (ps[:split], ps[split:]) if chunk]
    values = [v for batch in batches for v in batch.values.tolist()]
    drift = [d for batch in batches for d in batch.drift.tolist()]
    assert values == [s.value for s in states]
    assert drift == [s.drift for s in states]
    assert batched.log_value == scalar.log_value
    assert batched.max_log_value == scalar.max_log_value


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ties=st.booleans())
def test_pvalue_batch_matches_scalar_stream(seed, ties):
    rng = np.random.default_rng(seed)
    reference = rng.normal(1.0, 0.2, size=50)
    if ties:
        # draw scores from the reference itself so exact ties exercise the
        # tie-breaking uniform draws
        scores = rng.choice(reference, size=40)
    else:
        scores = rng.normal(1.0, 0.2, size=40)
    scalar_calc = PValueCalculator(reference, seed=9)
    batch_calc = PValueCalculator(reference, seed=9)
    scalar = [scalar_calc(float(s)) for s in scores]
    batched = batch_calc.batch(scores)
    assert batched.tolist() == scalar
    # both consumed the identical number of uniforms: streams still aligned
    assert batch_calc.rng_state() == scalar_calc.rng_state()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
def test_knn_score_batch_matches_per_point(seed, n):
    rng = np.random.default_rng(seed)
    bag = rng.normal(0.0, 1.0, size=(60, DIM))
    points = rng.normal(0.0, 1.0, size=(n, DIM))
    measure = KNNDistance(5)
    batched = measure.score_batch(points, bag)
    scalar = [measure.score(point, bag) for point in points]
    assert batched.tolist() == scalar


@settings(max_examples=30, deadline=None)
@given(ps=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                   max_size=100))
def test_log_score_batch_matches_scalar(ps):
    score = LogScore(PowerBetting(0.1))
    batched = score.batch(np.asarray(ps))
    assert batched.tolist() == [score(p) for p in ps]


# ----------------------------------------------------------------------
# drift inspector
# ----------------------------------------------------------------------
@pytest.mark.parametrize("martingale,betting", [
    ("additive", "power"),
    ("additive", "mixture"),
    ("multiplicative", "power"),
])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), split=st.integers(0, 60))
def test_observe_batch_matches_observe_loop(martingale, betting, seed, split):
    rng = np.random.default_rng(seed)
    reference = rng.normal(0.0, 1.0, size=(80, DIM))
    frames = np.vstack([rng.normal(0.0, 1.0, size=(30, DIM)),
                        rng.normal(3.0, 1.0, size=(30, DIM))])
    config = DriftInspectorConfig(seed=7, martingale=martingale,
                                  betting=betting)
    scalar = DriftInspector(reference, config=config)
    batched = DriftInspector(reference, config=config)
    loop = [scalar.observe(frame) for frame in frames]
    split = min(split, len(frames))
    block = [d for chunk in (frames[:split], frames[split:]) if len(chunk)
             for d in batched.observe_batch(chunk)]
    assert [(d.frame_index, d.nonconformity, d.p_value, d.martingale, d.drift)
            for d in block] == \
        [(d.frame_index, d.nonconformity, d.p_value, d.martingale, d.drift)
         for d in loop]
    assert batched.drift_frame == scalar.drift_frame
    assert batched.state_dict() == scalar.state_dict()


def test_observe_batch_interleaves_with_observe():
    """Sequential and batched observation share one inspector freely."""
    rng = np.random.default_rng(3)
    reference = rng.normal(0.0, 1.0, size=(80, DIM))
    frames = rng.normal(0.0, 1.0, size=(40, DIM))
    plain = DriftInspector(reference, config=DriftInspectorConfig(seed=1))
    mixed = DriftInspector(reference, config=DriftInspectorConfig(seed=1))
    expected = [plain.observe(frame) for frame in frames]
    got = list(mixed.observe_batch(frames[:15]))
    got.extend(mixed.observe(frame) for frame in frames[15:25])
    got.extend(mixed.observe_batch(frames[25:]))
    assert [(d.frame_index, d.p_value, d.martingale, d.drift) for d in got] \
        == [(d.frame_index, d.p_value, d.martingale, d.drift)
            for d in expected]
    assert mixed.state_dict() == plain.state_dict()


def test_reset_with_reference_matches_fresh_inspector():
    """An in-place reference swap is indistinguishable from a rebuild."""
    rng = np.random.default_rng(8)
    first = rng.normal(0.0, 1.0, size=(80, DIM))
    second = rng.normal(5.0, 1.0, size=(80, DIM))
    frames = rng.normal(5.0, 1.0, size=(30, DIM))
    config = DriftInspectorConfig(seed=11)
    swapped = DriftInspector(first, config=config)
    swapped.observe_batch(rng.normal(0.0, 1.0, size=(20, DIM)))
    swapped.reset(reference=second)
    fresh = DriftInspector(second, config=config)
    assert [(d.p_value, d.martingale, d.drift)
            for d in swapped.observe_batch(frames)] == \
        [(d.p_value, d.martingale, d.drift)
         for d in fresh.observe_batch(frames)]
    assert swapped.state_dict() == fresh.state_dict()


# ----------------------------------------------------------------------
# end-to-end pipeline and selection
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch_size=st.integers(1, 96))
def test_process_batched_matches_process(seed, batch_size):
    stream = gaussian_stream(seed, [(0.0, 90), (6.0, 90)])
    sequential = make_pipeline().process(stream)
    batched = make_pipeline().process_batched(stream, batch_size=batch_size)
    assert result_sig(batched) == result_sig(sequential)


def test_process_batched_chunk_boundaries_are_invisible():
    """Splitting one stream across step_batch calls changes nothing."""
    stream = gaussian_stream(99, [(0.0, 100), (6.0, 80)])
    whole = make_pipeline()
    whole.start()
    whole.step_batch(stream, batch_size=64)
    whole.flush()
    pieces = make_pipeline()
    pieces.start()
    bounds = [0, 37, 38, 121, len(stream)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        pieces.step_batch(stream[start:stop], batch_size=64)
    pieces.flush()
    assert result_sig(pieces.result()) == result_sig(whole.result())


def test_drift_in_final_partial_batch_resolves_on_flush():
    """Drift landing inside the trailing partial chunk must leave the
    pipeline buffering, and flush must resolve it exactly as the
    sequential path does (the reference-swap/flush interplay)."""
    # 100 null frames then a drift tail sized so detection fires but the
    # selection window cannot fill before the stream ends
    stream = gaussian_stream(21, [(0.0, 100), (6.0, 15)])
    sequential = make_pipeline()
    sequential.start()
    for frame in stream:
        sequential.step(frame)
    seq_pre_flush = len(sequential._records)
    sequential.flush()
    expected = sequential.result()
    assert expected.detections, "scenario must actually drift"
    batched = make_pipeline()
    batched.start()
    batched.step_batch(stream, batch_size=64)
    assert len(batched._records) == seq_pre_flush
    batched.flush()
    assert result_sig(batched.result()) == result_sig(expected)


@pytest.mark.parametrize("window_frames", [8, 24])
def test_msbi_batched_testing_matches_sequential(window_frames):
    registry = make_registry()
    rng = np.random.default_rng(5)
    frames = rng.normal(6.0, 1.0, size=(window_frames, DIM))
    results = {}
    for batched in (False, True):
        selector = MSBI(registry, MSBIConfig(
            window_size=window_frames, seed=0, batched_testing=batched))
        selected = selector.select(frames)
        results[batched] = (selected, selector.last_report.rounds,
                            selector.last_report.drift_flags)
    assert results[True] == results[False]
