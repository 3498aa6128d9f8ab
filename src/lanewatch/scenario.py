"""Synthetic lane-keeping scenarios with ground-truth misbehaviour flags.

Each frame is a procedural grayscale road image: a bright vertical band
(the lane centerline) over a dark background, seen from a vehicle whose
lateral position is simulated.  The road's lateral position follows a
smooth seeded random walk, a toy controller steers the vehicle toward
its lane estimate, and a misbehaviour flag is recorded whenever the
lateral offset leaves the lane; the vehicle then restarts centered,
mimicking an automatic reset.

Degraded conditions ramp in and out sinusoidally.  Intensity perturbs
the rendered image (darkness, rain streaks, snow speckles, fog haze) and
disturbs the lane estimator two ways: extra estimator noise, and a
chance of knocking the estimator into a lapse, where the estimate drifts
steadily sideways while the controller faithfully follows it.  Lapses
end in a lane departure unless the estimator happens to re-lock first,
so misbehaviours cluster where the visual input is least nominal, and
each departure is preceded by seconds of visibly worsening tracking.
Everything is drawn from one generator seeded by track_seed, which makes
generation bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .reconstruct import FrameStream

__all__ = [
    "Condition",
    "ScenarioSpec",
    "MisbehaviourLog",
    "condition_intensity",
    "generate_scenario",
]

# Rendering geometry. Desk-scale grayscale frames keep training to seconds.
FRAME_WIDTH = 32
FRAME_HEIGHT = 32
BACKGROUND_LEVEL = 0.15
BAND_PEAK_LEVEL = 0.9
BAND_SIGMA_PX = 3.0
PIXELS_PER_UNIT = 6.0  # lateral units to pixels; lane half-width is 1 unit

# A dimmer roadside feature at a fixed world position. The lane band stays
# near center while the vehicle tracks well, so this is what makes frames
# vary with the vehicle's absolute position and gives nominal
# reconstruction errors the road walk's correlation time.
SIDE_LEVEL = 0.45
SIDE_SIGMA_PX = 2.0
SIDE_WORLD_OFFSET_PX = 9.0

# Road random walk: pull toward center plus seeded jitter, clipped so the
# band never leaves the frame. The pull sets the walk's correlation time,
# which the nominal reconstruction errors inherit; threshold excursions
# then last about as long as one evaluation window, keeping the per-window
# false-positive rate close to the per-frame epsilon.
ROAD_PULL = 0.99
ROAD_STEP_STD = 0.021
ROAD_MAX_OFFSET = 1.5

# Vehicle controller: proportional tracking of the lane estimate with
# mild seeded noise. Condition intensity feeds two failure paths: it adds
# estimator noise, and each frame it can knock the estimator into a
# lapse, during which the estimate drifts sideways at a steady rate while
# the controller keeps steering toward it. A lapse ends either in a lane
# departure (flag, recenter, shaky restart) or in a spontaneous re-lock.
# The drift rate is a controller property, not a weather one, so the
# pre-departure error signature looks the same at every intensity;
# intensity only sets how often lapses begin. The drift is slow enough
# that several seconds of degraded tracking are on camera before the
# departure, which is what makes early warning possible at all.
LANE_HALF_WIDTH = 1.0
CONTROL_GAIN = 0.4
VEHICLE_NOISE_NOMINAL = 0.01
VEHICLE_NOISE_GAIN = 0.03
LAPSE_HAZARD_MAX = 0.18     # per-frame onset probability at intensity 1;
                            # scales with intensity squared, so lapses
                            # concentrate near condition peaks
LAPSE_DRIFT_V = 0.012       # lane-estimate drift per frame during a lapse
LAPSE_DRIFT_JITTER = 0.08   # per-lapse relative spread of the drift rate
LAPSE_ABORT_HAZARD = 0.002  # per-frame chance a lapse re-locks on its own
RESET_HOLD_FRAMES = 60      # post-restart hold before a new lapse can begin
SHAKE_FRAMES = 30           # restart transient: the camera mast rings briefly
SHAKE_NOISE_STD = 0.13      # ringing amplitude in image units, scaled by intensity

# Image perturbations. Amplitudes scale with a superlinear severity curve
# of intensity and are calibrated as texture: they mark the frames as
# degraded without displacing the lane band, so the reconstruction error
# they add stays below the level that tracking failures produce.
#
# The sensor noise level breathes on a ~7 s timescale (a lognormal factor
# on the base std, auto-gain style). No reconstructor can learn iid noise
# away, so this floor component survives training and gives the nominal
# error distribution a smooth skewed body instead of a hard minimum;
# threshold excursions it causes last about one evaluation window.
SEVERITY_EXPONENT = 3.0
SENSOR_NOISE_STD = 0.02
SENSOR_BREATHE_PULL = 0.985
SENSOR_BREATHE_LOG_STD = 0.27
DARKNESS_FACTOR = 0.06  # peak brightness becomes (1 - 0.06)
RAIN_NOISE_STD = 0.012
SNOW_NOISE_GAIN = 0.05
SNOW_SPECKLE_RATE = 0.03
FOG_BLEND_GAIN = 0.03
FOG_WHITE_LEVEL = 0.85
FOG_CELLS = 8  # fog field resolution before upsampling


class Condition(str, Enum):
    NOMINAL = "nominal"
    DAY_NIGHT_CYCLE = "day_night_cycle"
    RAIN = "rain"
    SNOW = "snow"
    FOG = "fog"


@dataclass
class ScenarioSpec:
    """Everything generate_scenario needs; equal specs give equal output."""

    track_seed: int = 0
    n_frames: int = 2000
    frame_rate_hz: float = 10.0
    conditions: frozenset[Condition] = frozenset({Condition.NOMINAL})
    cycle_period_s: float = 60.0
    intensity_max: float = 1.0

    def __post_init__(self):
        self.conditions = frozenset(Condition(c) for c in self.conditions)
        if not self.conditions:
            raise ValueError("conditions cannot be empty; use {nominal}")
        if Condition.NOMINAL in self.conditions and len(self.conditions) > 1:
            raise ValueError("nominal excludes every other condition")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be positive, got {self.n_frames}")
        if not self.frame_rate_hz > 0.0:
            raise ValueError(f"frame rate must be positive, got {self.frame_rate_hz}")
        if not self.cycle_period_s > 0.0:
            raise ValueError(f"cycle period must be positive, got {self.cycle_period_s}")
        if not 0.0 <= self.intensity_max <= 1.0:
            raise ValueError(
                f"intensity_max must lie in [0, 1], got {self.intensity_max}"
            )

    @property
    def is_nominal(self) -> bool:
        return self.conditions == frozenset({Condition.NOMINAL})


@dataclass
class MisbehaviourLog:
    """Per-frame ground truth: flags[t] is True when frame t recorded a
    misbehaviour (the vehicle left the lane)."""

    flags: np.ndarray

    def __post_init__(self):
        self.flags = np.asarray(self.flags, dtype=bool).ravel()

    def __len__(self) -> int:
        return int(self.flags.size)

    @property
    def count(self) -> int:
        return int(self.flags.sum())


def condition_intensity(t_frames: int, spec: ScenarioSpec) -> float:
    """Intensity in [0, 1] at frame t: a raised-cosine ramp that starts at
    zero, peaks at half the cycle period, and returns to zero."""
    if t_frames < 0:
        raise ValueError(f"frame index cannot be negative, got {t_frames}")
    if spec.is_nominal:
        return 0.0
    period_frames = spec.cycle_period_s * spec.frame_rate_hz
    phase = 2.0 * math.pi * t_frames / period_frames
    return spec.intensity_max * (1.0 - math.cos(phase)) / 2.0


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


def generate_scenario(
    spec: ScenarioSpec,
) -> tuple[FrameStream, MisbehaviourLog, np.ndarray]:
    """Simulate one drive; returns frames, misbehaviour flags, and the
    per-frame condition intensity trace."""
    rng = np.random.default_rng(spec.track_seed)
    active = spec.conditions - {Condition.NOMINAL}
    n = spec.n_frames
    xs = np.arange(FRAME_WIDTH, dtype=np.float64)
    center_px = 0.5 * (FRAME_WIDTH - 1)

    road = 0.0
    pos = 0.0
    bias = 0.0  # lane-estimate error; ramps during a lapse, else zero
    lapse_v = 0.0  # signed drift per frame; zero when no lapse is active
    hold_left = 0  # post-restart frames during which no lapse can begin
    shake_left = 0  # restart-transient frames still to play
    shake_std = 0.0  # transient amplitude, fixed at the causing lapse's onset
    breathe_log = 0.0  # log of the slow sensor-gain factor
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
                # The estimator re-locks on its own: no flag, no restart.
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

        # Render before any reset: the camera sees the excursion happen.
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
            # Camera-mast ringing after a hard restart: broadband image noise
            # on top of the sensor floor, flat until it stops.
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
            # Automatic restart: recenter, drop the bad estimate, and hold
            # off new lapses while the shaky re-engagement transient plays
            # out. Both the transient and the hold fit inside the healing
            # period, so errors subside before counting resumes.
            pos = road
            bias = 0.0
            lapse_v = 0.0
            hold_left = RESET_HOLD_FRAMES
            shake_left = SHAKE_FRAMES

    stream = FrameStream(frames=frames, frame_rate_hz=spec.frame_rate_hz)
    return stream, MisbehaviourLog(flags=flags), intensities
