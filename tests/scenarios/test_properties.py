"""Property suite: the three backends must tell one consistent story.

The load-bearing invariant of the scenario subsystem is that a script's
ground truth is *backend-independent*: the feature-space compilation
(declarative events), the pixel compilation (events derived by scanning
the factor trajectory) and the script itself must agree on when drift
happens and which factors moved -- for every script hypothesis can
dream up, not just the built-ins.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    FACTORS,
    SCENARIO_DOCUMENT,
    DriftScript,
    FactorTrack,
    compile_features,
    compile_video,
    compile_workload,
    compound,
    observed_events,
    script_document,
)

#: Bounded magnitudes keep every factor inside the pixel axes' range.
magnitudes = st.floats(min_value=0.5, max_value=6.0,
                       allow_nan=False, allow_infinity=False)


@st.composite
def quantized_tracks(draw):
    """One pixel-compilable track (quantized or constant-piece kinds)."""
    factor = draw(st.sampled_from(FACTORS))
    kind = draw(st.sampled_from(
        ("abrupt", "gradual", "recurring", "adversarial_slow",
         "camera_displacement", "occlusion")))
    onset = draw(st.integers(min_value=1, max_value=60))
    magnitude = draw(magnitudes)
    if kind in ("gradual", "adversarial_slow"):
        steps = draw(st.integers(min_value=1, max_value=4))
        duration = steps * draw(st.integers(min_value=2, max_value=10))
        return FactorTrack(factor, kind, onset, magnitude,
                           duration=duration, steps=steps)
    if kind == "recurring":
        duration = draw(st.integers(min_value=2, max_value=10))
        period = duration + draw(st.integers(min_value=2, max_value=10))
        recurrences = draw(st.integers(min_value=1, max_value=3))
        return FactorTrack(factor, kind, onset, magnitude,
                           duration=duration, period=period,
                           recurrences=recurrences)
    if kind == "camera_displacement":
        return FactorTrack(factor, kind, onset, magnitude,
                           recovery=draw(st.integers(min_value=2,
                                                     max_value=40)))
    if kind == "occlusion":
        return FactorTrack(factor, kind, onset, magnitude,
                           duration=draw(st.integers(min_value=2,
                                                     max_value=40)))
    return FactorTrack(factor, kind, onset, magnitude)


@st.composite
def scripts(draw):
    track = draw(quantized_tracks())
    frames = draw(st.integers(min_value=track.onset + 1, max_value=200))
    return DriftScript("prop", frames, (track,))


@settings(max_examples=40, deadline=None)
@given(script=scripts())
def test_feature_and_pixel_backends_agree_on_ground_truth(script):
    """Onset frames and factor labels agree between the declarative
    events the feature backend carries and the scanned events the pixel
    backend derives."""
    feature = compile_features(script, seed=0)
    pixel_events = observed_events(script)  # what compile_video attaches
    assert {e.frame for e in feature.events} == \
        {e.frame for e in pixel_events}
    declared = {(e.frame, e.factors) for e in feature.events}
    scanned = {(e.frame, e.factors) for e in pixel_events}
    assert declared == scanned
    assert len(feature.frames) == script.frames


@settings(max_examples=20, deadline=None)
@given(script=scripts())
def test_pixel_lowering_preserves_horizon_and_onset(script):
    compiled = compile_video(script, seed=0)
    assert sum(s.length for s in compiled.segments) == script.frames
    if script.onset is not None:
        assert script.onset in compiled.onsets()


@settings(max_examples=40, deadline=None)
@given(onset=st.integers(min_value=1, max_value=50),
       duration=st.integers(min_value=2, max_value=10),
       gap=st.integers(min_value=1, max_value=10),
       recurrences=st.integers(min_value=1, max_value=5),
       magnitude=magnitudes)
def test_recurring_scripts_emit_one_event_per_recurrence(
        onset, duration, gap, recurrences, magnitude):
    period = duration + gap
    frames = onset + period * recurrences + 1
    script = compound("rec", frames, "recurring", onset, magnitude,
                      duration=duration, period=period,
                      recurrences=recurrences)
    events = script.events()
    assert len(events) == recurrences
    assert [e.frame for e in events] == \
        [onset + i * period for i in range(recurrences)]
    assert all(e.kind == "recurring" for e in events)
    # and the scanning derivation sees the same episodes
    assert [e.frame for e in observed_events(script)] == \
        [e.frame for e in events]


@settings(max_examples=20, deadline=None)
@given(script=scripts())
def test_every_generated_script_serializes_and_validates(script):
    SCENARIO_DOCUMENT.validate(script_document(script))


@settings(max_examples=20, deadline=None)
@given(script=scripts())
def test_workload_profile_brackets_coupling(script):
    profile = compile_workload(script)
    multipliers = [m for _, m in profile.pieces]
    assert all(profile.coupling.baseline <= m <= profile.coupling.surge
               for m in multipliers)
    assert profile.pieces[0][0] == 0.0
