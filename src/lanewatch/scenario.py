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

Generation runs in two parts.  A state loop steps the road, the lapse
logic and the vehicle frame by frame and draws each frame's noise
blocks into per-chunk buffers; after every chunk of frames, whole-array
operations render the chunk.  Everything is drawn from one generator
seeded by track_seed, in a fixed per-frame order, and the rendering
repeats the per-frame arithmetic elementwise, so generation is
bit-reproducible and does not depend on the chunk size.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import integer, real
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

# Frames are rendered this many at a time. Every noise buffer of a chunk
# holds 8 KB per frame, so a larger chunk costs peak memory, and it gains
# nothing: past 16 frames the state loop's noise draws set the pace.
RENDER_CHUNK_FRAMES = 16


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
        self.track_seed = integer(self.track_seed, "track_seed")
        self.n_frames = integer(self.n_frames, "n_frames")
        for name in ("frame_rate_hz", "cycle_period_s", "intensity_max"):
            setattr(self, name, real(getattr(self, name), name))
        self.conditions = frozenset(Condition(c) for c in self.conditions)
        if not self.conditions:
            raise ValueError("conditions cannot be empty; use {nominal}")
        if Condition.NOMINAL in self.conditions and len(self.conditions) > 1:
            raise ValueError("conditions: nominal excludes every other condition")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be positive, got {self.n_frames}")
        if not self.frame_rate_hz > 0.0:
            raise ValueError(f"frame_rate_hz must be positive, got {self.frame_rate_hz}")
        if not self.cycle_period_s > 0.0:
            raise ValueError(f"cycle_period_s must be positive, got {self.cycle_period_s}")
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


class _Chunk:
    """The per-frame state and noise of up to RENDER_CHUNK_FRAMES frames:
    the state loop fills slot k of every array, render() draws the frames.
    They are drawn on a float64 canvas and rounded to float32 once, as they
    are stored; rounding each step would change the frames."""

    def __init__(self, size: int, active: frozenset[Condition]):
        shape = (size, FRAME_HEIGHT, FRAME_WIDTH)
        self.canvas = np.empty(shape)
        self.offset = np.empty(size)
        self.pos = np.empty(size)
        self.sensor_std = np.empty(size)
        self.shaking = np.zeros(size, dtype=bool)
        self.shake_std = np.zeros(size)
        self.severity = np.empty(size)
        self.sensor = np.empty(shape)
        self.shake = np.empty(shape)
        self.rain = np.empty(shape) if Condition.RAIN in active else None
        self.snow = np.empty(shape) if Condition.SNOW in active else None
        fog_shape = (size, FOG_CELLS, FOG_CELLS)
        self.fog = np.empty(fog_shape) if Condition.FOG in active else None
        self.darken = Condition.DAY_NIGHT_CYCLE in active

    def render(self, out: np.ndarray) -> None:
        """Draw the first len(out) frames into out, float32 (m, H, W).  Each
        step repeats the per-frame arithmetic elementwise in the same order,
        so a frame's bytes do not depend on the chunk it falls in."""
        m = len(out)
        canvas = self.canvas[:m]
        xs = np.arange(FRAME_WIDTH, dtype=np.float64)
        center_px = 0.5 * (FRAME_WIDTH - 1)
        band_center = center_px - PIXELS_PER_UNIT * self.offset[:m, None]
        side_center = (
            center_px + SIDE_WORLD_OFFSET_PX - PIXELS_PER_UNIT * self.pos[:m, None]
        )
        band = (BAND_PEAK_LEVEL - BACKGROUND_LEVEL) * np.exp(
            -((xs - band_center) ** 2) / (2.0 * BAND_SIGMA_PX**2)
        )
        side = (SIDE_LEVEL - BACKGROUND_LEVEL) * np.exp(
            -((xs - side_center) ** 2) / (2.0 * SIDE_SIGMA_PX**2)
        )
        row = BACKGROUND_LEVEL + np.maximum(band, side)
        sensor = self.sensor[:m]
        sensor *= self.sensor_std[:m, None, None]
        np.add(row[:, None, :], sensor, out=canvas)
        # Camera-mast ringing after a hard restart: broadband image noise on
        # top of the sensor floor, on the shaking frames only.
        shaking = np.flatnonzero(self.shaking[:m])
        if shaking.size:
            canvas[shaking] += self.shake_std[shaking, None, None] * self.shake[shaking]

        s = self.severity[:m, None, None]
        if self.darken:
            canvas *= 1.0 - DARKNESS_FACTOR * s
        if self.rain is not None:
            # Vertically smeared noise, the streak texture of rain on a lens.
            rain = self.rain[:m]
            streaks = rain + np.roll(rain, 1, axis=1)
            streaks += np.roll(rain, 2, axis=1)
            streaks += np.roll(rain, 3, axis=1)
            streaks /= 2.0
            streaks *= RAIN_NOISE_STD * s
            canvas += streaks
        if self.snow is not None:
            canvas += SNOW_NOISE_GAIN * s * (self.snow[:m] < SNOW_SPECKLE_RATE)
        if self.fog is not None:
            # A smooth haze pattern in (0, 1), upsampled from a coarse grid.
            coarse = 0.5 + 0.5 * np.tanh(self.fog[:m] / 1.5)
            field = coarse.repeat(FRAME_HEIGHT // FOG_CELLS, axis=1).repeat(
                FRAME_WIDTH // FOG_CELLS, axis=2
            )
            blend = FOG_BLEND_GAIN * s * field
            canvas *= 1.0 - blend
            blend *= FOG_WHITE_LEVEL
            canvas += blend
        # Clipped in float64, rounded to float32 as it is stored.
        np.clip(canvas, 0.0, 1.0, out=out)


def generate_scenario(
    spec: ScenarioSpec,
) -> tuple[FrameStream, MisbehaviourLog, np.ndarray]:
    """Simulate one drive; returns frames, misbehaviour flags, and the
    per-frame condition intensity trace."""
    rng = np.random.default_rng(spec.track_seed)
    n = spec.n_frames
    chunk = _Chunk(min(n, RENDER_CHUNK_FRAMES), spec.conditions - {Condition.NOMINAL})

    road = 0.0
    pos = 0.0
    bias = 0.0  # lane-estimate error; ramps during a lapse, else zero
    lapse_v = 0.0  # signed drift per frame; zero when no lapse is active
    hold_left = 0  # post-restart frames during which no lapse can begin
    shake_left = 0  # restart-transient frames still to play
    shake_std = 0.0  # transient amplitude, fixed at the causing lapse's onset
    breathe_log = 0.0  # log of the slow sensor-gain factor
    breathe_kick = SENSOR_BREATHE_LOG_STD * math.sqrt(1.0 - SENSOR_BREATHE_PULL**2)
    # The frames get an anonymous mmap of their own, which goes back to the
    # system when the stream is dropped; a freed heap block of a drive's
    # size can stay resident under later allocations.
    shape = (n, FRAME_HEIGHT, FRAME_WIDTH, 1)
    frames = np.frombuffer(mmap.mmap(-1, 4 * math.prod(shape)), np.float32).reshape(shape)
    flags = np.zeros(n, dtype=bool)
    intensities = np.empty(n, dtype=np.float64)

    for t in range(n):
        k = t % RENDER_CHUNK_FRAMES
        i_t = condition_intensity(t, spec)
        intensities[t] = i_t

        road = ROAD_PULL * road + ROAD_STEP_STD * rng.standard_normal()
        road = min(max(road, -ROAD_MAX_OFFSET), ROAD_MAX_OFFSET)

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

        # Record the frame before any reset: the camera sees the excursion.
        chunk.offset[k] = offset
        chunk.pos[k] = pos
        breathe_log = (
            SENSOR_BREATHE_PULL * breathe_log + breathe_kick * rng.standard_normal()
        )
        chunk.sensor_std[k] = SENSOR_NOISE_STD * math.exp(breathe_log)
        rng.standard_normal(out=chunk.sensor[k])
        chunk.shaking[k] = shake_left > 0
        if shake_left > 0:
            chunk.shake_std[k] = shake_std
            rng.standard_normal(out=chunk.shake[k])
            shake_left -= 1
        # Python float power: numpy's array ** 3.0 can differ in the last bit.
        chunk.severity[k] = i_t**SEVERITY_EXPONENT
        if chunk.rain is not None:
            rng.standard_normal(out=chunk.rain[k])
        if chunk.snow is not None:
            rng.random(out=chunk.snow[k])
        if chunk.fog is not None:
            rng.standard_normal(out=chunk.fog[k])

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

        if k == RENDER_CHUNK_FRAMES - 1 or t == n - 1:
            chunk.render(frames[t - k : t + 1, :, :, 0])

    stream = FrameStream(frames=frames, frame_rate_hz=spec.frame_rate_hz)
    return stream, MisbehaviourLog(flags=flags), intensities
