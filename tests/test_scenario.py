"""Scenario generator: determinism, the intensity waveform, dose-response
of misbehaviour onsets, and the separability the detector depends on."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lanewatch.experiment import departures_per_drive, worst_case_spec
from lanewatch.scenario import (
    RENDER_CHUNK_FRAMES,
    Condition,
    ScenarioSpec,
    condition_intensity,
    generate_scenario,
)
from scenario_reference import reference_scenario

ALL_CONDITIONS = frozenset(
    {Condition.DAY_NIGHT_CYCLE, Condition.RAIN, Condition.SNOW, Condition.FOG}
)


def _combined_spec(seed, n_frames=600, intensity_max=1.0):
    return ScenarioSpec(
        track_seed=seed,
        n_frames=n_frames,
        conditions=ALL_CONDITIONS,
        cycle_period_s=10.0,
        intensity_max=intensity_max,
    )


# -------------------------------------------------------------- determinism

def test_same_spec_same_output():
    spec = _combined_spec(42, n_frames=300)
    stream_a, log_a, trace_a = generate_scenario(spec)
    stream_b, log_b, trace_b = generate_scenario(spec)
    assert len(stream_a) == len(stream_b) == 300
    np.testing.assert_array_equal(stream_a.frames, stream_b.frames)
    np.testing.assert_array_equal(log_a.flags, log_b.flags)
    np.testing.assert_array_equal(trace_a, trace_b)


def _single_condition_spec(condition):
    return ScenarioSpec(
        track_seed=7, n_frames=600, conditions={condition}, cycle_period_s=10.0
    )


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(ScenarioSpec(track_seed=5, n_frames=600), id="nominal"),
        *[
            pytest.param(_single_condition_spec(c), id=c.value)
            for c in sorted(ALL_CONDITIONS)
        ],
        pytest.param(_combined_spec(8, n_frames=600, intensity_max=0.3), id="all-0.3"),
        pytest.param(_combined_spec(8, n_frames=600, intensity_max=1.0), id="all-1.0"),
        *[
            pytest.param(worst_case_spec(11, n), id=f"frames-{n}")
            for n in (1, 33, 257)
        ],
        *[
            pytest.param(worst_case_spec(seed, 2000), id=f"seed-{seed}")
            for seed in (10, 3000, 3001)
        ],
    ],
)
def test_chunked_renderer_matches_per_frame_reference(spec):
    # The chunked renderer must reproduce the per-frame loop bit for bit:
    # same draws, same arithmetic, whatever chunk a frame falls in.  The
    # reference renders in float64; the stream stores the frames rounded
    # to float32 once.
    stream, log, trace = generate_scenario(spec)
    frames, flags, intensities = reference_scenario(spec)
    assert stream.frames.tobytes() == frames.astype(np.float32).tobytes()
    assert log.flags.tobytes() == flags.tobytes()
    assert trace.tobytes() == intensities.tobytes()


def test_reference_specs_cover_chunk_tails_and_restarts():
    # The equality test above only means something if its specs hit a
    # partial last chunk and the shaky restart after a departure.
    assert 33 % RENDER_CHUNK_FRAMES and 257 % RENDER_CHUNK_FRAMES
    for spec in (_combined_spec(8, 600, 0.3), *map(_single_condition_spec, ALL_CONDITIONS)):
        assert generate_scenario(spec)[1].count > 0


def test_different_seeds_differ():
    stream_a, _, _ = generate_scenario(_combined_spec(1, n_frames=50))
    stream_b, _, _ = generate_scenario(_combined_spec(2, n_frames=50))
    assert not np.array_equal(stream_a.frames, stream_b.frames)


# ------------------------------------------------------------ nominal runs

def test_nominal_runs_never_flag():
    for seed in range(5):
        spec = ScenarioSpec(track_seed=seed, n_frames=600)
        _, log, trace = generate_scenario(spec)
        assert log.count == 0
        assert np.all(trace == 0.0)


def test_pixels_stay_in_unit_range():
    for spec in (ScenarioSpec(track_seed=3, n_frames=100), _combined_spec(3, 100)):
        stream, _, _ = generate_scenario(spec)
        assert stream.frames.min() >= 0.0
        assert stream.frames.max() <= 1.0


# --------------------------------------------------------- intensity shape

def test_intensity_raised_cosine_values():
    spec = _combined_spec(0)
    period = int(spec.cycle_period_s * spec.frame_rate_hz)
    assert condition_intensity(0, spec) == pytest.approx(0.0)
    assert condition_intensity(period // 2, spec) == pytest.approx(1.0)
    assert condition_intensity(period, spec) == pytest.approx(0.0, abs=1e-12)
    quarter = condition_intensity(period // 4, spec)
    assert quarter == pytest.approx((1 - math.cos(math.pi / 2)) / 2)


def test_intensity_scales_with_maximum():
    half = _combined_spec(0, intensity_max=0.5)
    full = _combined_spec(0, intensity_max=1.0)
    period = int(full.cycle_period_s * full.frame_rate_hz)
    for t in range(0, period, 7):
        assert condition_intensity(t, half) == pytest.approx(
            0.5 * condition_intensity(t, full)
        )


def test_intensity_nominal_is_zero():
    spec = ScenarioSpec(track_seed=0, n_frames=100)
    assert condition_intensity(50, spec) == 0.0


def test_intensity_rejects_negative_frame():
    with pytest.raises(ValueError):
        condition_intensity(-1, _combined_spec(0))


# ------------------------------------------------------------ dose response

def test_misbehaviour_rate_monotone_in_intensity():
    # Harsher conditions must produce more lane departures; a flat or
    # inverted dose-response would make the evaluation meaningless.
    # Twenty drives per intensity, at track seeds 4000 to 4019.
    rates = {
        intensity_max: float(np.mean(departures_per_drive(intensity_max, 20, 1000)))
        for intensity_max in (0.0, 0.3, 1.0)
    }
    assert rates[0.0] == 0.0
    assert 0.0 < rates[0.3] < rates[1.0]
    # Demand a real gap, not a statistical tie.
    assert rates[1.0] >= 1.5 * rates[0.3]


def test_flags_spaced_by_ramp_and_hold():
    # A departure takes tens of frames of drift to develop and is followed
    # by a hold-off, so flags can never be close together.
    for seed in range(3000, 3010):
        _, log, _ = generate_scenario(
            ScenarioSpec(
                track_seed=seed,
                n_frames=2000,
                conditions=ALL_CONDITIONS,
                cycle_period_s=10.0,
            )
        )
        marks = np.flatnonzero(log.flags)
        if marks.size >= 2:
            assert np.diff(marks).min() > 100


# ------------------------------------------------------------- separability

def test_reconstruction_errors_separate_nominal_from_worst_case(
    heldout_nominal, eval_runs
):
    # Every held-out nominal stream's 99th-percentile error must sit below
    # the median error pooled over the max-intensity runs.  This is the
    # margin the threshold lives in.
    nominal_q99 = max(float(np.quantile(run["raw"], 0.99)) for run in heldout_nominal)
    pooled = np.concatenate([run["raw"] for run in eval_runs])
    anomalous_q50 = float(np.quantile(pooled, 0.50))
    assert nominal_q99 < anomalous_q50


# ---------------------------------------------------------------- spec API

def test_spec_rejects_nominal_mixed_with_conditions():
    with pytest.raises(ValueError):
        ScenarioSpec(
            track_seed=0,
            n_frames=10,
            conditions=frozenset({Condition.NOMINAL, Condition.RAIN}),
        )


def test_spec_rejects_out_of_range_intensity():
    with pytest.raises(ValueError):
        ScenarioSpec(track_seed=0, n_frames=10, intensity_max=1.5)
    with pytest.raises(ValueError):
        ScenarioSpec(track_seed=0, n_frames=10, intensity_max=-0.1)


def test_spec_rejects_bad_sizes():
    with pytest.raises(ValueError):
        ScenarioSpec(track_seed=0, n_frames=0)
    with pytest.raises(ValueError):
        ScenarioSpec(track_seed=0, n_frames=10, frame_rate_hz=0.0)


def test_condition_values_are_stable():
    assert {c.value for c in Condition} == {
        "nominal", "day_night_cycle", "rain", "snow", "fog",
    }
