"""Propagation and acquisition impairments: AWGN, clustered multipath,
and ADC quantization.

noise_sigma is the one place where an Eb/N0 becomes a per-sample noise
level; add_awgn, the block pipeline and the OOK threshold all use it.

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
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    FormatError,
    InvalidParams,
    check_int,
    check_positive,
    read_lines,
)
from .waveform import SampledSignal

# At or below this tap count a realization is applied by direct
# superposition; denser realizations are convolved with a dense kernel
# by overlap-add (_fft_convolve). Each path does what the other cannot.
# The direct sums are exact: through the FFT a delayed tap leaves
# rounding dust (about 1e-16) where its zeros are due. The FFT is fast:
# on a 201-sample template and CM1 draws of 267 to 1396 taps it takes
# 0.08-0.13 ms, a tap loop 0.3-1.5 ms and one bincount over every
# tap's copy 0.1-1.4 ms (2-core x86_64, numpy 2.4).
_DIRECT_TAP_LIMIT = 32

# Bounds on a profile, so that a drawn realization stays small: the
# expected tap count is about mean_clusters * (1 + ray_arrival_rate *
# max_excess_delay) (CM1_LIKE: about 930), and the dense kernel that
# apply_channel builds spans the excess delay (10 us, fifty times
# CM1_LIKE's, is 500 000 samples at 50 GS/s).
MAX_EXPECTED_TAPS = 100_000
MAX_EXCESS_DELAY_NS = 1e4


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
        for name in _PROFILE_KEYS:
            object.__setattr__(
                self, name, check_positive(getattr(self, name), name)
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


# The numeric fields, in field order: validated in this order, and the
# keys of a profile file.
_PROFILE_KEYS = tuple(
    f.name for f in fields(SvProfile) if f.name != "profile_id")

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


def load_profile_file(path, base=CM1_LIKE):
    """Parse a `key = value` profile file, overriding fields of base.

    Unknown keys are rejected. Blank lines and `#` comments are skipped.
    Values are in the SvProfile units (ns-based).
    """
    values = {k: getattr(base, k) for k in _PROFILE_KEYS}
    for lineno, line in read_lines(path):
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise FormatError(f"{path}:{lineno}: expected `key = value`")
        if key not in _PROFILE_KEYS:
            raise FormatError(f"{path}:{lineno}: unknown profile key {key!r}")
        try:
            values[key] = float(value.strip())
        except ValueError:
            raise FormatError(
                f"{path}:{lineno}: value for {key!r} is not a number"
            ) from None
    try:
        return SvProfile(profile_id=f"file:{path}", **values)
    except InvalidParams as exc:
        raise FormatError(f"{path}: {exc}") from None


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """A discrete multipath channel: (delay seconds, gain) taps.

    taps is given as (delay, gain) pairs and held as a read-only (n, 2)
    float64 array. Delays are nonnegative, strictly increasing and at
    most MAX_EXCESS_DELAY_NS (the bound a profile has); gains are finite
    and normalized to unit energy at construction.
    """

    taps: np.ndarray
    profile_id: str = "manual"

    def __post_init__(self):
        try:
            taps = np.array(self.taps, dtype=np.float64).reshape(-1, 2)
        except (TypeError, ValueError):
            raise InvalidParams(
                "channel taps must be (delay, gain) pairs of numbers") from None
        if not len(taps):
            raise InvalidParams("channel needs at least one tap")
        d, g = taps.T
        # written so that a NaN delay fails it
        if not (d[0] >= 0.0 and np.all(d[1:] > d[:-1])
                and d[-1] <= MAX_EXCESS_DELAY_NS * 1e-9):
            raise InvalidParams(
                "tap delays must be nonnegative, strictly increasing and "
                f"at most {MAX_EXCESS_DELAY_NS:g} ns")
        # a sequential sum, so the normalized gains round as they
        # always have, over Python floats, so an energy past the float64
        # range is inf without numpy's overflow warning; that, or a NaN
        # or inf gain, makes it NaN or inf
        norm = math.sqrt(sum(x * x for x in g.tolist()))
        if not 0.0 < norm < math.inf:
            raise InvalidParams("channel gains must be finite and not all zero")
        g /= norm
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    def delays(self):
        return self.taps[:, 0]

    def gains(self):
        return self.taps[:, 1]


IDENTITY_CHANNEL = ChannelRealization(taps=((0.0, 1.0),), profile_id="identity")


def draw_channel(profile, rng_seed):
    """Draw one multipath realization from the profile.

    Cluster count is Poisson(mean_clusters) floored at 1; the first
    cluster starts at delay 0 and each cluster's first ray sits at its
    start. Everything past max_excess_delay is discarded, then gains
    are energy-normalized. Deterministic under a fixed seed, which
    must be an integer >= 0.
    """
    rng = np.random.default_rng(check_int(rng_seed, "rng_seed", 0))
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
        # a window's Poisson process: a Poisson count of sorted uniforms
        span = window - t_l
        rays = np.concatenate(([0.0], np.sort(rng.uniform(
            0.0, span, rng.poisson(profile.ray_arrival_rate * span)))))
        delays.append(t_l + rays)
        powers.append(
            np.exp(-t_l / (2.0 * profile.cluster_decay))
            * np.exp(-rays / (2.0 * profile.ray_decay))
        )
    delay_ns = np.concatenate(delays)
    amp = np.concatenate(powers) * rng.choice((-1.0, 1.0), size=len(delay_ns))

    # merge the measure-zero case of coincident delays: each slot sums
    # its rays in draw order
    delay_ns, slot = np.unique(delay_ns, return_inverse=True)
    amp = np.bincount(slot, weights=amp)
    keep = amp != 0.0
    taps = np.column_stack((delay_ns[keep] * 1e-9, amp[keep]))
    return ChannelRealization(taps=taps, profile_id=profile.profile_id)


def _fft_convolve(a, b):
    """Full linear convolution of two nonempty float64 arrays by
    overlap-add. With m the length of the shorter and n the smallest
    power of two of at least 2m - 1, the longer is cut into blocks of
    n - m + 1 samples, all blocks go through one batched real FFT of
    length n, and the m - 1 sample tail of each block's product lands
    in the head of the next block's span.

    Each stage rebinds x, so the padded input goes once its spectrum
    exists and the spectrum once its inverse does. What remains at the
    peak is the inverse, the output and the iteration buffers numpy
    takes for the strided overlap-add: 4.7 times the output for the
    chip pulse against a CM1 kernel."""
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    n = 1 << (2 * m - 2).bit_length()
    step = n - m + 1
    blocks = -(-len(a) // step)
    x = np.zeros(blocks * step)
    x[:len(a)] = a
    x = np.fft.rfft(x.reshape(blocks, step), n)
    x *= np.fft.rfft(b, n)
    x = np.fft.irfft(x, n)
    out = np.zeros((blocks + 1) * step)
    span = out.reshape(blocks + 1, step)
    span[:-1] = x[:, :step]
    span[1:, :m - 1] += x[:, step:]
    return out[:len(a) + m - 1]


def apply_channel(signal, ch):
    """Convolve a signal with the realization: the superposition of
    delayed, scaled copies. Output is extended by the largest delay.

    Tap delays are rounded to the nearest sample period. Sparse
    realizations (at most _DIRECT_TAP_LIMIT taps) are applied exactly
    tap by tap; dense ones by FFT overlap-add against a dense kernel
    (identical up to float rounding). The link pipeline,
    receiver.simulate_links, applies it to the pulse template only;
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
    return SampledSignal(_fft_convolve(x, h), rate)


def check_ebn0(ebn0_db):
    """ebn0_db as a float. Raises InvalidParams unless it is a real
    number, finite or +inf (the no-noise sentinel)."""
    if isinstance(ebn0_db, numbers.Real) and -math.inf < ebn0_db:
        return float(ebn0_db)
    raise InvalidParams(f"Eb/N0 must be finite or +inf, got {ebn0_db!r}")


def noise_sigma(ebn0_db, energy_per_bit, sample_rate):
    """Per-sample noise standard deviation sqrt(N0/2 * sample_rate)
    for a target Eb/N0, with N0 = energy_per_bit / 10^(ebn0_db/10).

    +inf, and any Eb/N0 so high that N0 is not representable, give 0.
    Raises InvalidParams for a non-positive energy_per_bit, for NaN or
    -inf, and for an Eb/N0 so low that sigma overflows.
    """
    check_positive(energy_per_bit, "energy_per_bit")
    check_ebn0(ebn0_db)
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
    receiver.simulate_links, adds noise only where the receiver looks;
    this full-waveform form is its reference. rng_seed must be an
    integer >= 0.
    """
    rng_seed = check_int(rng_seed, "rng_seed", 0)
    sigma = noise_sigma(ebn0_db, energy_per_bit, signal.sample_rate)
    if sigma == 0.0:
        return signal
    z = np.random.default_rng(rng_seed).standard_normal(len(signal))
    return SampledSignal(signal.samples + sigma * z, signal.sample_rate)


@dataclass(frozen=True)
class QuantizerConfig:
    """Mid-rise uniform quantizer: 2^bits levels over
    [-full_scale, +full_scale], clipping outside.

    A quantizer without a full scale is an AGC: when it samples x, its
    full scale is the peak |x| (1.0 if x is all zeros), and a receiver
    quantizes its template at that same scale. for_samples gives the
    quantizer with that scale.

    The ADC's output is a code: for step = 2 full_scale / 2^bits, the
    sample x has code k = clip(floor(x / step), -2^(bits-1), 2^(bits-1)
    - 1), which stands for the level (k + 1/2) step. A receiver scores
    codes (receiver._statistics), so its correlations are sums of
    integers, exact in float64 while W 4^bits < 2^53 for W samples per
    window. Past that the sums carry float64 rounding, and past about
    50 bits the levels do too.
    """

    bits: int
    full_scale: float = None

    def __post_init__(self):
        object.__setattr__(self, "bits", check_int(self.bits, "bits", 1, 64))
        if self.full_scale is not None:
            object.__setattr__(
                self, "full_scale", check_positive(self.full_scale, "full_scale")
            )

    def for_samples(self, x):
        """The quantizer that samples x: this one at a fixed full scale,
        else the one whose full scale is the peak |x|."""
        if self.full_scale is not None:
            return self
        peak = max(x.max(initial=0.0), -x.min(initial=0.0)) or 1.0
        return QuantizerConfig(self.bits, float(peak))


def _lattice(q):
    """(step, half) of quantizer q at a fixed full scale: the sample x
    has the integer code _codes(x / step, q), which stands for the level
    (code + half) * step, and half is 1/2."""
    return 2.0 * q.full_scale / (1 << q.bits), 0.5


def _codes(y, q, low=-math.inf, high=math.inf):
    """Codes of quantizer q at a fixed full scale, in place, for samples
    y already divided by its step (_lattice). low and high bound y: on
    a lattice whose code range holds both, the clip is left out."""
    half_levels = 1 << (q.bits - 1)
    np.floor(y, out=y)
    if -half_levels <= low and high < half_levels:
        return y
    return np.clip(y, -half_levels, half_levels - 1, out=y)


def quantize_array(x, q):
    """Quantize samples onto the mid-rise lattice of q.for_samples(x),
    as one new array.

    Output samples are reconstruction values (still floats); at a fixed
    full scale the operation clips outside +/- full_scale and, up to 52
    bits, is idempotent. Wider, where the levels carry float64 rounding,
    a second pass moves a level by at most one rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    q = q.for_samples(x)
    step, half = _lattice(q)
    out = _codes(x / step, q)
    out += half
    out *= step
    return out
