"""Matched-filter synchronization, demodulation of the three schemes,
and the block pipeline that sweeps and sessions share.

A receiver looks only at the code-predicted chip of each frame. It
gathers each frame's observation window into one row of an
(n_frames, W) matrix and decides the bit from a per-row statistic:

    BPAM: correlation against the template (W = template); bit 1 iff
          it is >= 0.
    PPM : correlations at the nominal and the delta-shifted position
          (W = template + delta); bit 1 iff shifted >= nominal.
    OOK : energy over the integration window (W = the window); bit 1
          iff it is >= a calibrated threshold.

A window that runs past its frame's end is truncated there. Ties
decode as bit 1 so the quantized datapath, where ties are reachable,
stays deterministic.

The datapath field selects between the floating-point reference and a
quantized mode in which the window samples and the template pass
through the same ADC model before correlation; accumulators stay in
double precision either way.

simulate_block runs one block over the link without building the
block's waveform. The transmitter's pulse layout says where each
pulse starts; the template, cut where the frame end cuts it and
convolved once with the channel, is the received pulse g. Each window
the receiver reads at its own geometry is the sum of the received
pulses that reach into it, a handful per window even on CM1. Those
windows repeat: the content of one follows from its in-frame start and
the offset and shape of each pulse reaching into it, so a block's
windows are grouped by that key and each distinct one is built once
(about 70 of 1000 on a default-geometry CM1 block). With white noise
the window samples are a sufficient statistic for the decision, so
noise anywhere else would never be read. On the floating-point
datapath the statistic is linear in the noise for BPAM and PPM and a
noncentral chi-square for OOK, so no noise sample is drawn at all:
each frame's statistic is its distinct clean window's plus a noise
term from its exact law, one or two variates per frame. The quantized
datapath draws white noise for every window sample, adds the clean
windows into that one buffer and quantizes it in place. The result
equals place_pulse_train, apply_channel, add_awgn and demodulate on
the whole block in distribution, not sample for sample; without noise
it equals them up to float rounding in multipath sums.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import correlate

from .channel import (
    QuantizerConfig,
    apply_channel,
    noise_sigma,
    quantize_array,
)
from .errors import (
    InvalidParams,
    RateMismatch,
    UncalibratedThreshold,
    WindowTooSmall,
)
from .framing import chip_samples, frame_samples, require_code
from .transmitter import (
    BPAM,
    ENERGY_PER_BIT,
    OOK,
    PPM,
    check_pulse_fits,
    delta_samples,
    place_pulse_train,
    pulse_layout,
)
from .waveform import SampledSignal

# Rows of the quantized datapath's noise that take their clean windows
# in one gather.
_MERGE_ROWS = 64


@dataclass(frozen=True)
class ReceiverConfig:
    """Everything a receiver needs to know about the link.

    template: unit-energy sampled pulse at the received sample rate.
    integration_window: OOK energy window, seconds (defaults to the
        template support).
    threshold: OOK decision threshold in energy units; must be
        calibrated before an OOK receiver decodes.
    datapath: None for the floating-point reference, or a
        QuantizerConfig for the quantized mode.
    """

    mod: object
    params: object
    code: object
    template: SampledSignal
    integration_window: float = None
    threshold: float = None
    datapath: object = None

    def __post_init__(self):
        require_code(self.code, self.params)
        check_pulse_fits(self.mod, self.params, self.template)
        if self.integration_window is None:
            object.__setattr__(
                self,
                "integration_window",
                (len(self.template) - 1) / self.template.sample_rate,
            )
        if not 0.0 < self.integration_window <= self.params.t_c * (1 + 1e-12):
            raise InvalidParams(
                f"integration_window {self.integration_window:g} s must be "
                f"in (0, t_c = {self.params.t_c:g}]"
            )
        if self.threshold is not None and self.threshold < 0.0:
            raise InvalidParams(
                f"threshold must be >= 0, got {self.threshold}"
            )

    @property
    def sample_rate(self):
        return self.template.sample_rate

    @property
    def chip_len(self):
        return chip_samples(self.params, self.sample_rate)

    @property
    def frame_len(self):
        return frame_samples(self.params, self.sample_rate)

    @property
    def window_len(self):
        """Samples per observation window: the OOK integration window,
        or the template plus the PPM shift."""
        if self.mod.scheme == OOK:
            return int(round(self.integration_window * self.sample_rate))
        return len(self.template) + delta_samples(self.mod, self.sample_rate)

    def with_threshold(self, threshold):
        return replace(self, threshold=threshold)


@dataclass(frozen=True)
class SyncEstimate:
    """Matched-filter timing estimate: integer sample offset and the
    correlation metric at the peak."""

    offset: int
    peak_metric: float


GENIE_SYNC = SyncEstimate(offset=0, peak_metric=math.inf)


def _check_rx(rx, cfg):
    if rx.sample_rate != cfg.sample_rate:
        raise RateMismatch(
            f"rx at {rx.sample_rate:g} S/s but template at "
            f"{cfg.sample_rate:g} S/s"
        )


def synchronize(rx, cfg, search_window, n_sync_frames):
    """Estimate the timing offset with a matched filter.

    Correlates the received signal against an n_sync_frames all-ones
    preamble laid out by the active code, over candidate lags
    0..search_window, and returns the argmax (ties broken toward the
    smallest lag).

    Raises WindowTooSmall for search_window < 1 and InvalidParams when
    the signal cannot even contain the preamble.
    """
    _check_rx(rx, cfg)
    search_window = int(search_window)
    if search_window < 1:
        raise WindowTooSmall(
            f"search_window must cover at least one lag, got {search_window}"
        )
    rxs, tpl = rx.samples, cfg.template.samples
    if cfg.datapath is not None:
        rxs = quantize_array(rxs, cfg.datapath)
        tpl = quantize_array(tpl, cfg.datapath)
    preamble = place_pulse_train(
        np.ones(int(n_sync_frames), dtype=np.int64),
        cfg.mod,
        cfg.params,
        cfg.code,
        SampledSignal(tpl, cfg.sample_rate),
    )
    if len(rx) < len(preamble):
        raise InvalidParams(
            f"received signal ({len(rx)} samples) shorter than the "
            f"{len(preamble)}-sample preamble"
        )
    metric = correlate(rxs, preamble.samples, mode="valid") / cfg.sample_rate
    lags = min(search_window, len(metric) - 1)
    best = int(np.argmax(metric[:lags + 1]))
    return SyncEstimate(offset=best, peak_metric=float(metric[best]))


def _window_starts(cfg, frames):
    """First sample of each given frame's observation window, relative
    to the frame's start."""
    offsets = np.asarray(cfg.code.offsets, dtype=np.int64)
    return offsets[frames % len(offsets)] * cfg.chip_len


def _inside(cfg, starts):
    """Mask of the window samples that lie inside their own frame, for
    windows at the given in-frame starts; None when all of them do."""
    width = cfg.window_len
    if not len(starts) or starts.max() + width <= cfg.frame_len:
        return None
    return np.arange(width) < (cfg.frame_len - starts)[:, None]


def _windows(x, cfg, offset):
    """Gather the observation windows of every whole frame of x counted
    from offset: an (n_frames, W) matrix, plus the mask of its samples
    that lie inside their own frame (None when all do). Samples past a
    frame's end hold arbitrary values until _statistics zeroes them."""
    frame_len = cfg.frame_len
    frames = np.arange(max((len(x) - offset) // frame_len, 0))
    starts = _window_starts(cfg, frames)
    inside = _inside(cfg, starts)
    idx = (offset + frame_len * frames + starts)[:, None] + np.arange(
        cfg.window_len
    )
    if inside is not None:
        idx[~inside] = 0
    return x[idx], inside


def _statistics(win, inside, cfg, agc_bits=None):
    """Per-frame decision statistics of gathered windows; a frame
    decodes as bit 1 iff its statistic is >= 0 (see decide).

    win is modified in place. agc_bits, when set, quantizes at that
    width with the full scale at the peak observed sample; otherwise
    cfg.datapath applies.
    """
    if cfg.mod.scheme == OOK and cfg.threshold is None:
        raise UncalibratedThreshold(
            "OOK threshold is unset; run calibrate_ook_threshold first"
        )
    if inside is not None:
        win[~inside] = 0.0
    if agc_bits is not None:
        peak = max(win.max(initial=0.0), -win.min(initial=0.0)) or 1.0
        cfg = replace(cfg, datapath=QuantizerConfig(agc_bits, float(peak)))
    if cfg.datapath is not None:
        quantize_array(win, cfg.datapath, out=win)
        if inside is not None:
            win[~inside] = 0.0
    if cfg.mod.scheme == OOK:
        energy = np.einsum("ij,ij->i", win, win) / cfg.sample_rate
        return energy - cfg.threshold
    tpl = cfg.template.samples
    if cfg.datapath is not None:
        tpl = quantize_array(tpl, cfg.datapath)
    # einsum rather than a BLAS matrix-vector product: BLAS spreads
    # these small products over threads that cost more CPU than they
    # save and make the cost depend on what else the host runs
    nominal = np.einsum("ij,j->i", win[:, :len(tpl)], tpl)
    if cfg.mod.scheme == BPAM:
        return nominal
    return np.einsum("ij,j->i", win[:, -len(tpl):], tpl) - nominal


def decide(statistics):
    """Bits from decision statistics: 1 iff the statistic is >= 0."""
    return (statistics >= 0.0).astype(np.uint8)


def decision_statistics(rx, cfg, sync=GENIE_SYNC):
    """Decision statistic of every whole frame of rx from sync.offset
    on: the BPAM correlation, the PPM shifted-minus-nominal
    correlation, or the OOK window energy minus the threshold."""
    _check_rx(rx, cfg)
    return _statistics(*_windows(rx.samples, cfg, sync.offset), cfg)


def demodulate(rx, cfg, sync=GENIE_SYNC):
    """Decode every whole frame of rx for the configured scheme."""
    return decide(decision_statistics(rx, cfg, sync))


def simulate_block(bits, tx, rx, ebn0_db, noise_seed, channel=None,
                   agc_bits=None):
    """Send bits over the link and return the receiver's decision
    statistics, one per whole receiver frame of the received waveform
    (the transmitted frames plus the channel's spread), for at most
    len(bits) frames: frames past the last bit are never read.

    tx is the transmitting end's configuration (its modulation, frame
    geometry, code and template place the pulses); rx is the receiving
    end's, which may differ after a one-sided reconfiguration. channel
    is an optional ChannelRealization. Noise at the given Eb/N0 (per
    tx's scheme) is drawn only for the rx windows, from noise_seed.
    agc_bits selects a quantized datapath whose full scale is the peak
    observed sample.

    The windows are built from the pulse layout, never from a block
    waveform: each is the sum of the received pulses that reach into
    it (see _received_pulses), so the work and memory follow the number
    of windows and their width, not the frame length. Windows with the
    same key (see _distinct_windows) have the same clean content, which
    is built once. The result equals place_pulse_train, apply_channel
    and decision_statistics on the whole block, up to float rounding in
    multipath sums.

    On the floating-point datapath no noise sample is drawn and no
    (n_frames, W) matrix is built: the clean statistic and the noise
    law's coefficients are taken once per distinct window, and each
    frame adds its noise term drawn from the exact law (_noise_terms),
    one normal per frame and, for OOK, one chi-square. The quantized
    datapath draws W noise samples for each window, since quantization
    is not linear, adds the clean windows into that buffer and passes
    it through the ADC in place.

    Raises InvalidParams when the sample positions of len(bits) frames
    of the longer frame length do not fit a 64-bit integer.
    """
    frame_len = max(tx.frame_len, rx.frame_len)
    if len(bits) * frame_len > np.iinfo(np.int64).max:
        raise InvalidParams(
            f"{len(bits)} frames of {frame_len} samples overflow the "
            f"64-bit sample index; shorten the frame or send fewer bits"
        )
    _check_rx(tx, rx)
    first, kind, shapes = _received_pulses(bits, tx, channel)
    reach_len = shapes.shape[1]
    spread = reach_len - len(tx.template)
    n_bits = len(bits)
    frames = np.arange(
        min((n_bits * tx.frame_len + spread) // rx.frame_len, n_bits)
    )
    width = rx.window_len
    starts = _window_starts(rx, frames)
    begin = rx.frame_len * frames + starts
    # pulse starts q grow with the bit index, so the pulses reaching
    # into a window [p, p + W) are the run with q + len(g) > p and
    # q < p + W
    lo = np.searchsorted(first + reach_len, begin, side="right")
    reach = np.maximum(np.searchsorted(first, begin + width) - lo, 0)
    rep, which = _distinct_windows(first, kind, starts, begin, lo, reach)
    clean = _build_windows(
        first, kind, shapes, begin[rep], lo[rep], reach[rep], width
    )
    eb = ENERGY_PER_BIT[tx.mod.scheme]
    sigma = noise_sigma(ebn0_db, eb, rx.sample_rate)
    rng = np.random.default_rng(noise_seed)
    if agc_bits is None and rx.datapath is None:
        inside = _inside(rx, starts[rep])
        stats = _statistics(clean, inside, rx)[which]
        if sigma > 0.0:
            stats += _noise_terms(rng, sigma, clean, inside, rx, which)
        return stats
    if sigma > 0.0:
        noisy = rng.standard_normal((len(frames), width))
        # in chunks, so the gathered clean rows stay small beside the
        # block and each chunk is scaled and summed while in cache
        for at in range(0, len(frames), _MERGE_ROWS):
            rows = noisy[at:at + _MERGE_ROWS]
            rows *= sigma
            rows += clean[which[at:at + _MERGE_ROWS]]
    else:
        noisy = clean[which]
    del clean
    return _statistics(noisy, _inside(rx, starts), rx, agc_bits)


def _distinct_windows(first, kind, starts, begin, lo, reach):
    """Group the windows by their clean content.

    A window's content and its frame-end cut follow from its key: the
    in-frame start, the number of reaching pulses and, for each of
    them, its offset from the window and its received shape. Returns
    one representative window per distinct key and, for every window,
    the index of its key among the representatives.
    """
    keys = [starts, reach]
    last = max(len(first) - 1, 0)
    for step in range(reach.max(initial=0)):
        hit = reach > step
        i = np.minimum(lo + step, last)
        keys.append(np.where(hit, begin - first[i], 0))
        keys.append(np.where(hit, kind[i], 0))
    keys = np.stack(keys)
    order = np.lexsort(keys)
    ordered = keys[:, order]
    fresh = np.ones(len(order), dtype=bool)
    np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=fresh[1:])
    which = np.empty(len(order), dtype=np.intp)
    which[order] = np.cumsum(fresh) - 1
    return order[fresh], which


def _received_pulses(bits, tx, channel):
    """The pulses tx sends for bits, as the receiver gets them.

    Returns, for every pulse of nonzero amplitude, its first sample
    (counted from the block's start) and the row of its received shape,
    and the shapes: one row per amplitude and width the frame end leaves
    the template (see place_pulse_train), each put through the channel
    and zero-padded to the received length of the uncut template.
    """
    starts, amps = pulse_layout(
        bits, tx.mod, tx.params, tx.code, tx.sample_rate
    )
    template = tx.template
    tpl = template.samples
    sent = amps != 0.0
    first = (tx.frame_len * np.arange(len(starts)) + starts)[sent]
    widths, width_of = np.unique(
        np.minimum(len(tpl), tx.frame_len - starts[sent]), return_inverse=True
    )
    levels, level_of = np.unique(amps[sent], return_inverse=True)
    full = tpl if channel is None else apply_channel(template, channel).samples
    shapes = np.zeros((len(widths) * len(levels), len(full)))
    grid = shapes.reshape(len(widths), len(levels), len(full))
    for w, rows in zip(widths, grid):
        if w == len(tpl):
            g = full
        elif channel is None:
            g = tpl[:w]
        else:
            g = apply_channel(SampledSignal(tpl[:w], template.sample_rate),
                              channel).samples
        np.multiply(levels[:, None], g, out=rows[:, :len(g)])
    return first, width_of * len(levels) + level_of, shapes


def _build_windows(first, kind, shapes, begin, lo, reach, width):
    """Received signal over the windows [begin, begin + width): an
    (len(begin), width) matrix. Window r is reached by the pulses
    lo[r] .. lo[r] + reach[r] - 1 of first/kind (see _received_pulses);
    a window no pulse reaches is zero."""
    padded = np.pad(shapes, ((0, 0), (width, width)))
    # view[k, j] is padded[k, j:j + width]: the received shape k as seen
    # from a window starting j - width samples after the pulse
    view = np.lib.stride_tricks.sliding_window_view(padded, width, axis=1)

    def pulse(rows, step):
        i = lo[rows] + step
        return view[kind[i], begin[rows] - first[i] + width]

    win = np.zeros((len(begin), width))
    rows = np.flatnonzero(reach)
    win[rows] = pulse(rows, 0)
    for step in range(1, reach.max(initial=0)):
        rows = np.flatnonzero(reach > step)
        win[rows] += pulse(rows, step)
    return win


def _noise_terms(rng, sigma, win, inside, cfg, which):
    """What white noise of per-sample deviation sigma adds to the
    floating-point decision statistics of the clean windows win[which],
    drawn from its exact law rather than from W samples per window. win
    must have its samples past the frame end zeroed, as _statistics
    leaves it; those samples do not count here either.

    A correlation with coefficients c gains N(0, sigma^2 |c|^2), where c
    is the template for BPAM and the shifted minus the nominal template
    for PPM. The energy of a window s of w samples becomes
    (|s| + sigma u)^2 + sigma^2 chi2(w - 1), with u ~ N(0, 1) the noise
    along s. One normal per window, then for OOK one chi-square.
    """
    width = win.shape[1]
    n = len(which)
    z = rng.standard_normal(n)
    if cfg.mod.scheme == OOK:
        w = width
        if inside is not None:
            w = np.count_nonzero(inside, axis=1)[which]
        norm = np.sqrt(np.einsum("ij,ij->i", win, win))[which]
        extra = sigma * z * (2.0 * norm + sigma * z)
        extra += sigma * sigma * _chi2(rng, w - 1, n)
        return extra / cfg.sample_rate
    tpl = cfg.template.samples
    coef = np.zeros(width)
    coef[width - len(tpl):] = tpl
    if cfg.mod.scheme == PPM:
        coef[:len(tpl)] -= tpl
    power = coef * coef
    if inside is None:
        return sigma * np.sqrt(power.sum()) * z
    norm2 = np.where(inside, power, 0.0).sum(axis=1)
    return (sigma * np.sqrt(norm2))[which] * z


def _chi2(rng, df, size=None):
    """Chi-square variates with df >= 0 degrees of freedom."""
    return 2.0 * rng.standard_gamma(0.5 * df, size)


def calibrate_ook_threshold(
    cfg, ebn0_db, energy_per_bit, n_calibration_frames, rng_seed
):
    """Pick the OOK threshold as the midpoint between the empirical
    mean energies of n noise-only and n pulse-plus-noise windows.

    The two means are drawn from their exact joint law rather than from
    2 * n * w noise samples. For w-sample windows with unit normals z_i,
    per-sample noise sigma and template window energy E = |tpl_w|^2:

        sum_i |sigma z_i|^2          = sigma^2 S0,   S0 ~ chi2(n w)
        sum_i |tpl_w + sigma z_i|^2  = n E + 2 sigma sqrt(E) n u + sigma^2 S1

    where u ~ N(0, 1/n) is the mean projection of the z_i on tpl_w and
    S1 = n u^2 + chi2(n - 1) + chi2(n (w - 1)). Four variates per call.

    Deterministic under a fixed seed. With the no-noise sentinel the
    means are exact, giving half the windowed pulse energy.
    """
    if n_calibration_frames < 100:
        raise InvalidParams(
            f"need at least 100 calibration frames, got {n_calibration_frames}"
        )
    rate = cfg.sample_rate
    sigma = noise_sigma(ebn0_db, energy_per_bit, rate)
    width = int(round(cfg.integration_window * rate))
    tpl = cfg.template.samples[:width]
    energy = float(np.dot(tpl, tpl))
    if sigma == 0.0 or width == 0:
        return 0.5 * energy / rate
    rng = np.random.default_rng(rng_seed)
    n = int(n_calibration_frames)
    s0 = _chi2(rng, n * width)
    u = rng.standard_normal() / math.sqrt(n)
    s1 = n * u * u + _chi2(rng, n - 1) + _chi2(rng, n * (width - 1))
    var = sigma * sigma
    mean0 = var * s0 / (n * rate)
    mean1 = (energy + 2.0 * sigma * math.sqrt(energy) * u + var * s1 / n) / rate
    return 0.5 * (mean0 + mean1)
