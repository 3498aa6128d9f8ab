"""Predict lane-keeping misbehaviours before they happen from frame
reconstruction error.

The pipeline: train an autoencoder-style reconstructor on nominal frames,
fit a gamma distribution to its reconstruction errors, derive an alarm
threshold from a target false-alarm rate, smooth incoming errors with a
trailing moving average, and raise anticipatory alarms online.  A synthetic
driving-scenario generator and an evaluation kit close the loop at desk
scale.
"""

__version__ = "0.1.0"
