"""Reference renderer for the scenario generator: one frame at a time.

This is the per-frame loop that `lanewatch.scenario.generate_scenario`
replaced with a state loop plus chunked whole-array rendering.  It draws
from the generator in the same order and renders each frame with small
numpy calls, so it is slow but easy to read; tests assert that the two
produce the same bytes.  It imports the module's constants and
`condition_intensity`, so only the loop itself is repeated here.
"""

from __future__ import annotations

import math

import numpy as np

from lanewatch.scenario import (
    BACKGROUND_LEVEL,
    BAND_PEAK_LEVEL,
    BAND_SIGMA_PX,
    CONTROL_GAIN,
    DARKNESS_FACTOR,
    FOG_BLEND_GAIN,
    FOG_CELLS,
    FOG_WHITE_LEVEL,
    FRAME_HEIGHT,
    FRAME_WIDTH,
    LANE_HALF_WIDTH,
    LAPSE_ABORT_HAZARD,
    LAPSE_DRIFT_JITTER,
    LAPSE_DRIFT_V,
    LAPSE_HAZARD_MAX,
    PIXELS_PER_UNIT,
    RAIN_NOISE_STD,
    RESET_HOLD_FRAMES,
    ROAD_MAX_OFFSET,
    ROAD_PULL,
    ROAD_STEP_STD,
    SENSOR_BREATHE_LOG_STD,
    SENSOR_BREATHE_PULL,
    SENSOR_NOISE_STD,
    SEVERITY_EXPONENT,
    SHAKE_FRAMES,
    SHAKE_NOISE_STD,
    SIDE_LEVEL,
    SIDE_SIGMA_PX,
    SIDE_WORLD_OFFSET_PX,
    SNOW_NOISE_GAIN,
    SNOW_SPECKLE_RATE,
    VEHICLE_NOISE_GAIN,
    VEHICLE_NOISE_NOMINAL,
    Condition,
    ScenarioSpec,
    condition_intensity,
)


def _fog_field(rng: np.random.Generator) -> np.ndarray:
    """Smooth per-frame haze pattern in (0, 1), upsampled from a coarse grid."""
    coarse = rng.standard_normal((FOG_CELLS, FOG_CELLS))
    coarse = 0.5 + 0.5 * np.tanh(coarse / 1.5)
    reps = (FRAME_HEIGHT // FOG_CELLS, FRAME_WIDTH // FOG_CELLS)
    return np.kron(coarse, np.ones(reps))


def _rain_streaks(rng: np.random.Generator) -> np.ndarray:
    """Vertically smeared noise, the streak texture of rain on a lens."""
    noise = rng.standard_normal((FRAME_HEIGHT, FRAME_WIDTH))
    smeared = (
        noise
        + np.roll(noise, 1, axis=0)
        + np.roll(noise, 2, axis=0)
        + np.roll(noise, 3, axis=0)
    ) / 2.0
    return smeared


def reference_scenario(
    spec: ScenarioSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frames (n, H, W, 1), misbehaviour flags and intensities of one drive."""
    rng = np.random.default_rng(spec.track_seed)
    active = spec.conditions - {Condition.NOMINAL}
    n = spec.n_frames
    xs = np.arange(FRAME_WIDTH, dtype=np.float64)
    center_px = 0.5 * (FRAME_WIDTH - 1)

    road = 0.0
    pos = 0.0
    bias = 0.0
    lapse_v = 0.0
    hold_left = 0
    shake_left = 0
    shake_std = 0.0
    breathe_log = 0.0
    breathe_kick = SENSOR_BREATHE_LOG_STD * math.sqrt(1.0 - SENSOR_BREATHE_PULL**2)
    frames = np.empty((n, FRAME_HEIGHT, FRAME_WIDTH, 1))
    flags = np.zeros(n, dtype=bool)
    intensities = np.empty(n, dtype=np.float64)

    for t in range(n):
        i_t = condition_intensity(t, spec)
        intensities[t] = i_t

        road = ROAD_PULL * road + ROAD_STEP_STD * rng.standard_normal()
        road = float(np.clip(road, -ROAD_MAX_OFFSET, ROAD_MAX_OFFSET))

        if lapse_v != 0.0:
            if rng.random() < LAPSE_ABORT_HAZARD:
                lapse_v = 0.0
                bias = 0.0
        elif hold_left > 0:
            hold_left -= 1
        elif rng.random() < LAPSE_HAZARD_MAX * i_t * i_t:
            spread = 1.0 + LAPSE_DRIFT_JITTER * (2.0 * rng.random() - 1.0)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            lapse_v = sign * LAPSE_DRIFT_V * spread
            shake_std = SHAKE_NOISE_STD * i_t
        bias += lapse_v

        vehicle_noise = VEHICLE_NOISE_NOMINAL + VEHICLE_NOISE_GAIN * i_t
        pos += CONTROL_GAIN * (road + bias - pos) + vehicle_noise * rng.standard_normal()
        offset = pos - road

        band_center = center_px - PIXELS_PER_UNIT * offset
        side_center = center_px + SIDE_WORLD_OFFSET_PX - PIXELS_PER_UNIT * pos
        band = (BAND_PEAK_LEVEL - BACKGROUND_LEVEL) * np.exp(
            -((xs - band_center) ** 2) / (2.0 * BAND_SIGMA_PX**2)
        )
        side = (SIDE_LEVEL - BACKGROUND_LEVEL) * np.exp(
            -((xs - side_center) ** 2) / (2.0 * SIDE_SIGMA_PX**2)
        )
        row = BACKGROUND_LEVEL + np.maximum(band, side)
        img = np.tile(row, (FRAME_HEIGHT, 1))
        breathe_log = (
            SENSOR_BREATHE_PULL * breathe_log + breathe_kick * rng.standard_normal()
        )
        sensor_std = SENSOR_NOISE_STD * math.exp(breathe_log)
        img += sensor_std * rng.standard_normal((FRAME_HEIGHT, FRAME_WIDTH))
        if shake_left > 0:
            img += shake_std * rng.standard_normal((FRAME_HEIGHT, FRAME_WIDTH))
            shake_left -= 1
        s_t = i_t**SEVERITY_EXPONENT
        if Condition.DAY_NIGHT_CYCLE in active:
            img *= 1.0 - DARKNESS_FACTOR * s_t
        if Condition.RAIN in active:
            img += RAIN_NOISE_STD * s_t * _rain_streaks(rng)
        if Condition.SNOW in active:
            speckles = (rng.random((FRAME_HEIGHT, FRAME_WIDTH)) < SNOW_SPECKLE_RATE)
            img += SNOW_NOISE_GAIN * s_t * speckles
        if Condition.FOG in active:
            blend = FOG_BLEND_GAIN * s_t * _fog_field(rng)
            img = img * (1.0 - blend) + FOG_WHITE_LEVEL * blend
        np.clip(img, 0.0, 1.0, out=frames[t, :, :, 0])

        if abs(offset) > LANE_HALF_WIDTH:
            flags[t] = True
            pos = road
            bias = 0.0
            lapse_v = 0.0
            hold_left = RESET_HOLD_FRAMES
            shake_left = SHAKE_FRAMES

    return frames, flags, intensities
