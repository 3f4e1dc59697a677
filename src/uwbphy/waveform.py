"""Pulse shapes, sampled signals, and waveform-domain inner products.

The transmitted symbol is a Gaussian second-derivative monocycle

    w(t) = (1 - 4*pi*(t/tau)^2) * exp(-2*pi*(t/tau)^2)

with unit peak amplitude at t = 0. Its continuous-time energy is
(3/8)*tau and virtually all of it lies within +/- 3*tau of the peak, so
pulses are truncated to a finite support of at least 6*tau.

Sampled pulses are normalized to unit discrete energy so correlation
outputs read directly in energy units.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidParams,
    RateMismatch,
    UndersampledPulse,
    check_int,
    check_positive,
    check_type,
)

# Fewer than ~20 samples per tau visibly distorts the monocycle's
# energy and correlation properties.
MIN_SAMPLES_PER_TAU = 20.0

# Relative slack absorbing float dust in expressions like 6*tau.
_REL_EPS = 1e-12

DEFAULT_SAMPLE_RATE = 50e9


@dataclass(frozen=True)
class PulseShape:
    """Monocycle shape parameters.

    tau: width parameter in seconds.
    duration: truncated support length in seconds, centered on the peak;
        the pulse is identically zero outside [-duration/2, +duration/2].
    """

    tau: float
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "tau", check_positive(self.tau, "pulse tau"))
        object.__setattr__(
            self, "duration", check_positive(self.duration, "pulse duration")
        )
        if self.duration < 6.0 * self.tau * (1.0 - _REL_EPS):
            raise InvalidParams(
                f"pulse duration {self.duration} shorter than 6*tau "
                f"({6.0 * self.tau}); truncation would shave off energy"
            )


DEFAULT_PULSE = PulseShape(tau=0.5e-9, duration=4e-9)


@dataclass(frozen=True)
class SampledSignal:
    """A uniformly sampled real waveform.

    samples: amplitude array (treated as immutable once constructed).
    sample_rate: samples per second.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        object.__setattr__(
            self, "sample_rate", check_positive(self.sample_rate, "sample_rate")
        )
        object.__setattr__(
            self, "samples", np.asarray(self.samples, dtype=np.float64)
        )

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self):
        """Time span covered by the samples, seconds."""
        return len(self.samples) / self.sample_rate

    def energy(self):
        """Discrete energy: sum(s^2) / sample_rate."""
        return float(np.dot(self.samples, self.samples) / self.sample_rate)


def pulse_value(shape, t):
    """Evaluate the truncated monocycle at times t (scalar or array).

    Peaks at 1.0 for t = 0 and is exactly 0 outside the truncated
    support [-duration/2, +duration/2].
    """
    t = np.asarray(t, dtype=np.float64)
    x = (t / shape.tau) ** 2
    w = (1.0 - 4.0 * np.pi * x) * np.exp(-2.0 * np.pi * x)
    out = np.where(np.abs(t) <= 0.5 * shape.duration, w, 0.0)
    return float(out) if out.ndim == 0 else out


def sample_pulse(shape, sample_rate=DEFAULT_SAMPLE_RATE):
    """Sample the monocycle on a uniform grid covering its support.

    The grid is symmetric about the peak and includes t = 0, so the
    result has odd length with its maximum at the center. Samples are
    scaled to unit discrete energy: sum(s**2) / sample_rate == 1.

    The samples are read-only: each (shape, rate) is sampled once and
    every call for it returns the same signal, so the link ends of
    every sweep and session state share one array.

    Raises InvalidParams unless shape is a PulseShape and sample_rate
    is positive, and UndersampledPulse below 20 samples per tau.
    """
    check_type(shape, "shape", PulseShape)
    sample_rate = check_positive(sample_rate, "sample_rate")
    if sample_rate * shape.tau < MIN_SAMPLES_PER_TAU * (1.0 - _REL_EPS):
        raise UndersampledPulse(
            f"sample_rate {sample_rate:g} gives {sample_rate * shape.tau:.2f} "
            f"samples per tau, need at least {MIN_SAMPLES_PER_TAU:g}"
        )
    return _sampled_pulse(shape, sample_rate)


# bounded, so a process that samples many shapes keeps only the latest
@lru_cache(maxsize=64)
def _sampled_pulse(shape, sample_rate):
    half = int(round(0.5 * shape.duration * sample_rate))
    t = np.arange(-half, half + 1, dtype=np.float64) / sample_rate
    s = pulse_value(shape, t)
    s = s / np.sqrt(SampledSignal(s, sample_rate).energy())
    s.flags.writeable = False
    return SampledSignal(s, sample_rate)


def inner_product(a, b, lag=0):
    """Discrete correlation <a, b> at an integer sample lag.

    Computes sum_k a[k] * b[k - lag] / sample_rate over the index range
    where both signals are defined. A positive lag slides b to the right
    (later in time) relative to a. Non-overlapping lags return 0.0.

    Raises RateMismatch if the sample rates differ.
    """
    if a.sample_rate != b.sample_rate:
        raise RateMismatch(
            f"sample rates differ: {a.sample_rate:g} vs {b.sample_rate:g}"
        )
    lag = check_int(lag, "lag", -math.inf)
    lo = max(0, lag)
    hi = min(len(a), len(b) + lag)
    if hi <= lo:
        return 0.0
    return float(
        np.dot(a.samples[lo:hi], b.samples[lo - lag:hi - lag]) / a.sample_rate
    )
