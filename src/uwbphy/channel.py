"""Propagation and acquisition impairments: AWGN, clustered multipath,
and ADC quantization.

noise_sigma is the one place where an Eb/N0 becomes a per-sample noise
level; add_awgn, the block pipeline and OOK calibration all use it.

The multipath generator follows the Saleh-Valenzuela construction:
cluster starts arrive as a Poisson process, rays arrive as a Poisson
process within each cluster, and mean tap power decays exponentially
with both cluster start time and ray excess delay. Gains take a random
sign and the realization is normalized to unit energy, so it never
changes the link budget, only the dispersion.

Profile rates and decay constants are expressed in nanoseconds (the
natural scale for UWB channels and the unit used in profile files);
tap delays in a ChannelRealization are plain seconds like everything
else in the package.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import oaconvolve

from .errors import FormatError, InvalidParams, read_lines
from .waveform import SampledSignal

# At or below this tap count a realization is applied by direct
# superposition (exact, testable sample-by-sample); denser realizations
# go through FFT convolution with a dense kernel. Both paths stay
# because the pinned block statistics depend on each: short channels
# on the direct sums, CM1 draws on oaconvolve's rounding.
_DIRECT_TAP_LIMIT = 32

# Bounds on a profile, so that a drawn realization stays small: the
# expected tap count is about mean_clusters * (1 + ray_arrival_rate *
# max_excess_delay) (CM1_LIKE: about 930), and the dense kernel that
# apply_channel builds spans the excess delay (10 us, fifty times
# CM1_LIKE's, is 500 000 samples at 50 GS/s).
MAX_EXPECTED_TAPS = 100_000
MAX_EXCESS_DELAY_NS = 1e4

# float64 has 52 mantissa bits: a finer lattice cannot be represented,
# so quantization at such widths degenerates to clipping.
_IDENTITY_BITS = 52


@dataclass(frozen=True)
class SvProfile:
    """Saleh-Valenzuela cluster/ray statistics.

    cluster_arrival_rate: Lambda, clusters per ns.
    ray_arrival_rate: lambda, rays per ns within a cluster.
    cluster_decay: Gamma, cluster power e-folding time, ns.
    ray_decay: gamma, ray power e-folding time, ns.
    mean_clusters: mean of the Poisson cluster count (at least one
        cluster is always drawn).
    max_excess_delay: hard truncation of the impulse response, ns, at
        most MAX_EXCESS_DELAY_NS.

    The expected tap count may not exceed MAX_EXPECTED_TAPS.
    """

    cluster_arrival_rate: float
    ray_arrival_rate: float
    cluster_decay: float
    ray_decay: float
    mean_clusters: float
    max_excess_delay: float
    profile_id: str = "custom"

    def __post_init__(self):
        for name in (
            "cluster_arrival_rate",
            "ray_arrival_rate",
            "cluster_decay",
            "ray_decay",
            "mean_clusters",
            "max_excess_delay",
        ):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InvalidParams(
                    f"{name} must be positive and finite, got "
                    f"{getattr(self, name)}"
                )
        if self.max_excess_delay > MAX_EXCESS_DELAY_NS:
            raise InvalidParams(
                f"max_excess_delay must be at most {MAX_EXCESS_DELAY_NS:g} "
                f"ns, got {self.max_excess_delay:g}"
            )
        taps = self.mean_clusters * (
            1.0 + self.ray_arrival_rate * self.max_excess_delay
        )
        if taps > MAX_EXPECTED_TAPS:
            raise InvalidParams(
                f"profile expects about {taps:.3g} taps per realization "
                f"(mean_clusters * (1 + ray_arrival_rate * "
                f"max_excess_delay)); at most {MAX_EXPECTED_TAPS} allowed"
            )


# Residential-LOS-style parameter set.
CM1_LIKE = SvProfile(
    cluster_arrival_rate=0.047,
    ray_arrival_rate=1.54,
    cluster_decay=22.61,
    ray_decay=12.53,
    mean_clusters=3.0,
    max_excess_delay=200.0,
    profile_id="cm1-like",
)

_PROFILE_KEYS = (
    "cluster_arrival_rate",
    "ray_arrival_rate",
    "cluster_decay",
    "ray_decay",
    "mean_clusters",
    "max_excess_delay",
)


def load_profile_file(path, base=CM1_LIKE):
    """Parse a `key = value` profile file, overriding fields of base.

    Unknown keys are rejected. Blank lines and `#` comments are skipped.
    Values are in the SvProfile units (ns-based).
    """
    lines = read_lines(path)
    fields = {k: getattr(base, k) for k in _PROFILE_KEYS}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise FormatError(f"{path}:{lineno}: expected `key = value`")
        if key not in _PROFILE_KEYS:
            raise FormatError(f"{path}:{lineno}: unknown profile key {key!r}")
        try:
            fields[key] = float(value.strip())
        except ValueError:
            raise FormatError(
                f"{path}:{lineno}: value for {key!r} is not a number"
            ) from None
    try:
        return SvProfile(profile_id=f"file:{path}", **fields)
    except InvalidParams as exc:
        raise FormatError(f"{path}: {exc}") from None


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """A discrete multipath channel: (delay seconds, gain) taps.

    taps is given as (delay, gain) pairs and held as a read-only (n, 2)
    float64 array. Delays are nonnegative and strictly increasing;
    gains are normalized to unit energy at construction.
    """

    taps: np.ndarray
    profile_id: str = "manual"

    def __post_init__(self):
        taps = np.array(self.taps, dtype=np.float64).reshape(-1, 2)
        if not len(taps):
            raise InvalidParams("channel needs at least one tap")
        d, g = taps.T
        if d[0] < 0.0 or np.any(d[1:] <= d[:-1]):
            raise InvalidParams(
                "tap delays must be nonnegative and strictly increasing"
            )
        # a sequential sum, so the normalized gains round as they
        # always have
        norm = math.sqrt(sum((g * g).tolist()))
        if norm == 0.0:
            raise InvalidParams("channel gains are all zero")
        g /= norm
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    def delays(self):
        return self.taps[:, 0]

    def gains(self):
        return self.taps[:, 1]


IDENTITY_CHANNEL = ChannelRealization(taps=((0.0, 1.0),), profile_id="identity")


def _poisson_arrivals(rng, rate_per_ns, window_ns):
    """Arrival times (ns) of a Poisson process on (0, window_ns]."""
    times = []
    t = 0.0
    # draw gaps in batches; expected count is rate * window
    batch = max(16, int(rate_per_ns * window_ns * 1.5) + 16)
    while True:
        gaps = rng.exponential(1.0 / rate_per_ns, size=batch)
        arrivals = t + np.cumsum(gaps)
        inside = arrivals[arrivals <= window_ns]
        times.append(inside)
        if len(inside) < len(arrivals):
            return np.concatenate(times)
        t = float(arrivals[-1])


def draw_channel(profile, rng_seed):
    """Draw one multipath realization from the profile.

    Cluster count is Poisson(mean_clusters) floored at 1; the first
    cluster starts at delay 0 and each cluster's first ray sits at its
    start. Everything past max_excess_delay is discarded, then gains
    are energy-normalized. Deterministic under a fixed seed.
    """
    rng = np.random.default_rng(rng_seed)
    window = profile.max_excess_delay
    n_clusters = max(1, int(rng.poisson(profile.mean_clusters)))
    cluster_gaps = rng.exponential(
        1.0 / profile.cluster_arrival_rate, size=n_clusters - 1
    )
    cluster_starts = np.concatenate(([0.0], np.cumsum(cluster_gaps)))

    delays = []
    powers = []
    for t_l in cluster_starts:
        if t_l > window:
            continue
        rays = np.concatenate(
            ([0.0], _poisson_arrivals(rng, profile.ray_arrival_rate, window - t_l))
        )
        delays.append(t_l + rays)
        powers.append(
            np.exp(-t_l / (2.0 * profile.cluster_decay))
            * np.exp(-rays / (2.0 * profile.ray_decay))
        )
    delay_ns = np.concatenate(delays)
    amp = np.concatenate(powers) * rng.choice((-1.0, 1.0), size=len(delay_ns))

    order = np.argsort(delay_ns, kind="stable")
    delay_ns = delay_ns[order]
    # merge the measure-zero case of coincident delays
    run = np.flatnonzero(np.r_[True, delay_ns[1:] != delay_ns[:-1]])
    amp = np.add.reduceat(amp[order], run)
    keep = amp != 0.0
    taps = np.column_stack((delay_ns[run][keep] * 1e-9, amp[keep]))
    return ChannelRealization(taps=taps, profile_id=profile.profile_id)


def apply_channel(signal, ch):
    """Convolve a signal with the realization: the superposition of
    delayed, scaled copies. Output is extended by the largest delay.

    Tap delays are rounded to the nearest sample period. Sparse
    realizations are applied exactly tap by tap; dense ones via FFT
    convolution (identical up to float rounding). The link pipeline,
    receiver.simulate_block, applies it to the pulse template only;
    applied to a whole waveform it is that pipeline's reference.
    """
    rate = signal.sample_rate
    d = np.rint(ch.delays() * rate).astype(np.int64)
    g = ch.gains()
    x = signal.samples
    if len(x) == 0:
        return SampledSignal(np.zeros(0), rate)
    if len(d) <= _DIRECT_TAP_LIMIT:
        out = np.zeros(len(x) + int(d[-1]), dtype=np.float64)
        for di, gi in zip(d, g):
            out[di:di + len(x)] += gi * x
        return SampledSignal(out, rate)
    h = np.bincount(d, weights=g)
    return SampledSignal(oaconvolve(x, h), rate)


def check_ebn0(ebn0_db):
    """Raise InvalidParams unless ebn0_db is finite or +inf (the
    no-noise sentinel)."""
    if math.isnan(ebn0_db) or ebn0_db == -math.inf:
        raise InvalidParams(f"Eb/N0 must be finite or +inf, got {ebn0_db}")


def noise_sigma(ebn0_db, energy_per_bit, sample_rate):
    """Per-sample noise standard deviation sqrt(N0/2 * sample_rate)
    for a target Eb/N0, with N0 = energy_per_bit / 10^(ebn0_db/10).

    +inf, and any Eb/N0 so high that N0 is not representable, give 0.
    Raises InvalidParams for a non-positive energy_per_bit, for NaN or
    -inf, and for an Eb/N0 so low that sigma overflows.
    """
    if not energy_per_bit > 0.0:
        raise InvalidParams(
            f"energy_per_bit must be positive, got {energy_per_bit}"
        )
    check_ebn0(ebn0_db)
    if ebn0_db == math.inf:
        return 0.0
    try:
        n0 = energy_per_bit / 10.0 ** (ebn0_db / 10.0)
    except OverflowError:
        return 0.0
    except ZeroDivisionError:
        n0 = math.inf
    sigma = math.sqrt(0.5 * n0 * sample_rate)
    if not math.isfinite(sigma):
        raise InvalidParams(f"Eb/N0 {ebn0_db} dB is too low to simulate")
    return sigma


def add_awgn(signal, ebn0_db, energy_per_bit, rng_seed):
    """Add white Gaussian noise for a target Eb/N0 to every sample.

    Per-sample deviation is noise_sigma(). A zero deviation (the +inf
    no-noise sentinel) returns the input unchanged. The link pipeline,
    receiver.simulate_block, adds noise only where the receiver looks;
    this full-waveform form is its reference.
    """
    sigma = noise_sigma(ebn0_db, energy_per_bit, signal.sample_rate)
    if sigma == 0.0:
        return signal
    rng = np.random.default_rng(rng_seed)
    noisy = signal.samples + sigma * rng.standard_normal(len(signal))
    return SampledSignal(noisy, signal.sample_rate)


@dataclass(frozen=True)
class QuantizerConfig:
    """Mid-rise uniform quantizer: 2^bits levels over
    [-full_scale, +full_scale], clipping outside."""

    bits: int
    full_scale: float

    def __post_init__(self):
        if not isinstance(self.bits, (int, np.integer)) or not 1 <= self.bits <= 64:
            raise InvalidParams(f"bits must be an integer in [1, 64], got {self.bits}")
        object.__setattr__(self, "bits", int(self.bits))
        if not self.full_scale > 0.0:
            raise InvalidParams(
                f"full_scale must be positive, got {self.full_scale}"
            )


def quantize_array(x, q, out=None):
    """Quantize samples onto the mid-rise lattice of the config, into
    out when given (which may be x itself); one new array otherwise.

    Output samples are reconstruction values (still floats); the
    operation is idempotent and clips outside +/- full_scale.
    """
    x = np.asarray(x, dtype=np.float64)
    if q.bits >= _IDENTITY_BITS:
        return np.clip(x, -q.full_scale, q.full_scale, out=out)
    step = 2.0 * q.full_scale / (1 << q.bits)
    half_levels = 1 << (q.bits - 1)
    out = np.divide(x, step, out=out)
    np.floor(out, out=out)
    np.clip(out, -half_levels, half_levels - 1, out=out)
    out += 0.5
    out *= step
    return out
