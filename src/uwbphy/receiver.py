"""Matched-filter synchronization, demodulation of the three schemes,
and the block pipeline that sweeps and sessions share.

A receiver looks only at the code-predicted chip of each frame. It
gathers each frame's observation window into one row of an
(n_frames, W) matrix and decides the bit from a per-row statistic:

    BPAM: correlation against the chip pulse (W = pulse); bit 1 iff
          it is >= 0.
    PPM : correlations at the nominal and the delta-shifted position
          (W = pulse + delta); bit 1 iff shifted >= nominal.
    OOK : energy over the integration window (W = the window); bit 1
          iff it is >= the threshold, by default the closed-form
          midpoint of ook_threshold.

The chip pulse is the template as transmitter.chip_pulse cuts it to
fit its chip, so every window fits its chip too: W = min(template +
delta, chip) for BPAM and PPM, and the OOK window is at most t_c. No
window reaches past its frame. Ties decode as bit 1.

The datapath field selects between the floating-point reference and a
quantized mode in which the ADC codes the windows and the template
alike (QuantizerConfig's docstring states the codes and the rule for an
AGC) and the statistic scores the integer codes, as an FPGA correlator
multiplies ADC codes: each statistic is step^2 times a sum of integers
(_statistics), exact in double precision while W 4^bits < 2^53, which
holds for every ADC of up to 16 bits at any window under 2^21 samples.
So the ties the lattice makes reachable are exact: a frame whose BPAM
correlation is zero or whose two PPM correlations are equal scores
exactly 0 and decodes as bit 1.

simulate_links runs blocks over the link without building their
waveforms, and scores them through one receiver at several Eb/N0
points at once, such as the points of a sweep, each OOK point at its
own ook_threshold unless the receiver sets one. Sweeps and sessions
only sum or report the records.
Each block yields one ScoredBlock per point: the statistic of each
whole rx frame of its received waveform (its frames plus the channel's
spread, at most one per bit), the decisions, and the errors against its
bits, where each bit the receiver never produced (a longer rx frame
after a one-sided reconfiguration) is one.

Every frame sends from its code position's chip start whatever its bit
(transmitter.pulse_table); the bit selects a row. The chip pulse,
convolved once with the block's channel, is the received pulse g, and
its rows (transmitter.bit_rows) are the block's shape set. Which pulses
reach which of a block's windows, and where, follows from the link, the
block's length and its shape set alone, counted from the block's own
start. A block's layout holds that and the shape set, padded once: the
set's two rows, each with a window of zeros on either side, end to end
in one flat array, and for each window and each step along the run of
pulses reaching it, the pulse's index in the block and where the
window's samples start in its padded row. The step-th pulse of a
window then starts at flat index kind * stride + pos, where kind is the
row its bit selects; the steps past a window's run name the sentinel
index n, which selects a zero bit appended to every block's bits, at
position 0, where its padded row reads zeros. Consecutive blocks of one
length and one channel, or of one length and none, form a run and
share one layout, built when the run starts; a channel is one
realization object, so a sweep's CM1 blocks each run alone. A run reads
and scores its blocks one at a time, each block's records yielded
before the next block is read, and the run ends before the next
layout is built, so nothing is read ahead. Per block a run only takes
the bits through the layout into the flat index of each reaching
pulse and draws the noise; per block and point it scales the noise and
scores the decisions. No sample position spans two blocks, so only
each block's own positions must fit the int64 range. Each window the
receiver reads is the sum of the rows that reach into it, a handful
per window even on CM1. Those windows repeat: the content of one
follows from the flat indices it reads, so a block's windows are
grouped by them and each distinct one is built once (about 70 of 1000
on a default-geometry CM1 block). Grouping ranks the indices one step
at a time, by counting where their range is at most twice the window
count (channel-free blocks whose tx and rx frames differ, as in a
fault-injected session segment) and by np.unique's inverse where it is
wider (CM1 blocks, whose received pulse spans some ten thousand
samples); both number the groups alike.

Where the two link ends are one configuration and the shape set has no
spread (every block of an AWGN sweep or of an unfaulted session, and
one behind a one-tap channel at delay 0), each window reads its own
frame's pulse alone, from its start. Such a layout is aligned: it is
found without a search, holds no index and keeps just the two clean
windows the bits select, and each window's group is its bit. The run
computes those windows' clean statistics once for all its blocks.

The clean side of a block (its layout, grouping, distinct windows and
their clean statistics) serves every point, and so does the noise: each
block draws its standard normals once, from its noise seed, whatever
its points' sigma, and each point scales them by its own sigma (common
random numbers); a noiseless point scales them by zero. Each
point's noise keeps its exact law, while the points' errors are
correlated; on the floating-point datapath a BPAM or PPM frame a point
gets wrong over AWGN is wrong at every noisier point too. With white
noise the window samples are a sufficient statistic for the decision,
so noise anywhere else would never be read. On the floating-point
datapath the statistic is linear in the noise for BPAM and PPM and a
noncentral chi-square for OOK, so no noise sample is drawn at all: each
frame's statistic is its distinct clean window's plus a noise term from
its exact law, one or two variates per frame. The quantized datapath
draws white noise for every window sample. Per point it finds the
AGC's full scale from the chunks of windows that can hold the peak,
then codes each chunk of windows straight from the noise and the clean
windows and scores it against the template, which it codes once per
point and block. The result equals place_pulse_train,
apply_channel, add_awgn and demodulate on the whole block in
distribution, not sample for sample; without noise it equals them up
to float rounding in multipath sums.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from .channel import (
    ChannelRealization,
    QuantizerConfig,
    _codes,
    _fft_convolve,
    _lattice,
    apply_channel,
    noise_sigma,
    quantize_array,
)
from .errors import (
    InvalidParams,
    RateMismatch,
    UncalibratedThreshold,
    WindowTooSmall,
    check_int,
    check_positive,
    check_type,
)
from .framing import (
    _INT64_MAX,
    ThCode,
    ThParams,
    frame_samples,
    require_code,
)
from .transmitter import (
    BPAM,
    ENERGY_PER_BIT,
    OOK,
    PPM,
    ModulationConfig,
    _as_bits,
    bit_rows,
    check_pulse_fits,
    chip_pulse,
    delta_samples,
    place_pulse_train,
    pulse_table,
)
from .waveform import SampledSignal

# Rows of the quantized datapath's windows built, coded and scored as
# one chunk, in cache; the AGC's peak run bounds and skips whole chunks.
_MERGE_ROWS = 64


@dataclass(frozen=True)
class ReceiverConfig:
    """Everything a receiver needs to know about the link.

    template: unit-energy sampled pulse at the received sample rate, a
        non-empty 1-D array of finite samples; the receiver correlates
        against its chip pulse (see pulse).
    integration_window: OOK energy window, seconds, at least one sample
        (defaults to the template support).
    threshold: OOK decision threshold in energy units, or None. When
        set, every point of simulate_links decides at it; when None,
        each point decides at its ook_threshold, and
        decision_statistics, which knows no Eb/N0, raises
        UncalibratedThreshold for OOK. BPAM and PPM decide by sign
        alone, so their receivers refuse any threshold but None.
    datapath: None for the floating-point reference, or the
        QuantizerConfig of the ADC (one without a full scale is an AGC,
        see QuantizerConfig).
    """

    mod: object
    params: object
    code: object
    template: SampledSignal
    integration_window: float = None
    threshold: float = None
    datapath: object = None

    def __post_init__(self):
        check_type(self.mod, "mod", ModulationConfig)
        check_type(self.params, "params", ThParams)
        check_type(self.code, "code", ThCode)
        check_type(self.template, "template", SampledSignal)
        check_type(self.datapath, "datapath", QuantizerConfig, None)
        t = self.template.samples
        if t.ndim != 1 or not t.size or not np.isfinite(t).all():
            raise InvalidParams("template must be finite, 1-D and non-empty")
        # a mid-rise ADC of b bits maps every sample to at least half a
        # step, 2**-b of full scale: at 1 bit every window has the same
        # energy, at 2 a window of noise alone holds about as much as
        # one with a pulse, so OOK decodes coin flips either way
        if (self.mod.scheme == OOK and self.datapath is not None
                and self.datapath.bits <= 2):
            raise InvalidParams(
                "OOK needs an ADC of at least 3 bits: below that every "
                "sample is at least a quarter of full scale, so a window "
                "of noise alone holds about as much energy as a pulse"
            )
        require_code(self.code, self.params)
        check_pulse_fits(self.mod, self.params, self.template)
        window = self.integration_window
        if window is None:
            window = (len(self.template) - 1) / self.template.sample_rate
        window = check_positive(window, "integration_window")
        if (round(window * self.sample_rate) < 1
                or window > self.params.t_c * (1 + 1e-12)):
            raise InvalidParams(
                f"integration_window {window:g} s must span from one "
                f"sample period to t_c = {self.params.t_c:g} s"
            )
        object.__setattr__(self, "integration_window", window)
        if self.threshold is not None and self.mod.scheme != OOK:
            raise InvalidParams(f"OOK-only threshold set for {self.mod.scheme}")
        # zero is a valid threshold: without noise, a template whose
        # first window samples are zero has ook_threshold zero
        if self.threshold not in (None, 0.0):
            object.__setattr__(
                self, "threshold", check_positive(self.threshold, "threshold")
            )

    @property
    def sample_rate(self):
        return self.template.sample_rate

    @cached_property
    def frame_len(self):
        return frame_samples(self.params, self.sample_rate)

    @cached_property
    def pulse(self):
        """The template samples that fit a chip (transmitter.chip_pulse)."""
        return chip_pulse(self.mod, self.params, self.template)

    @cached_property
    def window_len(self):
        """Samples per observation window, at most a chip: the OOK
        integration window, or the chip pulse plus the PPM shift."""
        if self.mod.scheme == OOK:
            return int(round(self.integration_window * self.sample_rate))
        return len(self.pulse) + delta_samples(self.mod, self.sample_rate)

    @cached_property
    def pulse_table(self):
        """transmitter.pulse_table of this link end, (starts, rows), built
        once and shared by every block: read only."""
        return pulse_table(self.mod, self.params, self.code, self.template)


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

    Raises WindowTooSmall for search_window < 1, InvalidParams for a
    search_window that is not an integer, for an n_sync_frames that is
    not a positive integer, and when the signal cannot even contain the
    preamble.
    """
    _check_rx(rx, cfg)
    search_window = check_int(search_window, "search_window", -math.inf)
    if search_window < 1:
        raise WindowTooSmall(
            f"search_window must cover at least one lag, got {search_window}"
        )
    n_sync_frames = check_int(n_sync_frames, "n_sync_frames", 1)
    length = n_sync_frames * cfg.frame_len
    if len(rx) < length:
        raise InvalidParams(
            f"received signal ({len(rx)} samples) shorter than the "
            f"{length}-sample preamble"
        )
    # only lags 0..search_window are read (fewer if rx ends first):
    # correlate, and quantize, just the samples they reach
    rxs = rx.samples[:length + search_window]
    tpl = cfg.template.samples
    if cfg.datapath is not None:
        adc = cfg.datapath.for_samples(rxs)
        rxs, tpl = quantize_array(rxs, adc), quantize_array(tpl, adc)
    preamble = place_pulse_train(
        np.ones(n_sync_frames, dtype=np.int64),
        cfg.mod,
        cfg.params,
        cfg.code,
        SampledSignal(tpl, cfg.sample_rate),
    ).samples
    metric = _fft_convolve(rxs, preamble[::-1])[len(preamble) - 1:len(rxs)]
    metric = metric / cfg.sample_rate
    best = int(np.argmax(metric))
    return SyncEstimate(offset=best, peak_metric=float(metric[best]))


def _windows(x, cfg, offset):
    """Gather the observation windows of every whole frame of x counted
    from offset: an (n_frames, W) matrix."""
    n = max((len(x) - offset) // cfg.frame_len, 0)
    starts = _frame_starts(cfg, n) + offset
    return x[starts[:, None] + np.arange(cfg.window_len)]


def _statistics(win, tpl, cfg, threshold, lattice=(1.0, 0.0)):
    """Per-frame decision statistics of windows win scored against the
    chip template tpl, and the OOK threshold (None for BPAM and PPM); a
    frame decodes as bit 1 iff its statistic is >= 0 (see decide).

    On the floating-point datapath win and tpl are samples. On the
    quantized one lattice is the ADC's (step, half) (channel._lattice),
    win holds the windows' codes k and tpl the template's levels t = l +
    half, its codes l plus half; an OOK win is overwritten by its
    levels. Each statistic is then step^2 times a sum over codes: BPAM
    sum(k t) + half sum(t), PPM sum(k_shifted t) - sum(k_nominal t), OOK
    sum((k + half)^2) before the rate and the threshold. Every partial
    sum is a multiple of 1/4 under W 4^bits / 4 in magnitude, so the
    sums are exact while W 4^bits < 2^53 (every ADC of up to 16 bits at
    any window under 2^21 samples): a frame whose correlations tie
    scores exactly 0 and decodes as 1. Past that the sums carry float64
    rounding, and past about 50 bits the levels do too.
    """
    step, half = lattice
    if cfg.mod.scheme == OOK:
        win += half
        energy = np.einsum("ij,ij->i", win, win) * (step * step)
        return energy / cfg.sample_rate - threshold
    # einsum rather than a BLAS matrix-vector product: BLAS spreads
    # these small products over threads that cost more CPU than they
    # save and make the cost depend on what else the host runs
    nominal = np.einsum("ij,j->i", win[:, :len(tpl)], tpl)
    if cfg.mod.scheme == BPAM:
        return (nominal + half * tpl.sum()) * (step * step)
    # two correlations, not one product with the shifted-minus-nominal
    # coefficients (_clean_law's norm): on exact sums of codes both
    # forms tie at 0, but on samples (the float datapath) and on sums
    # that round only this one scores a frame whose correlations are
    # equal exactly 0
    shifted = np.einsum("ij,j->i", win[:, -len(tpl):], tpl)
    return (shifted - nominal) * (step * step)


def decide(statistics):
    """Bits from decision statistics: 1 iff the statistic is >= 0, as
    a uint8 view of the comparison."""
    return (statistics >= 0.0).view(np.uint8)


def decision_statistics(rx, cfg, sync=GENIE_SYNC):
    """Decision statistic of every whole frame of rx from sync.offset
    on: the BPAM correlation, the PPM shifted-minus-nominal
    correlation, or the OOK window energy minus the threshold. Through
    an ADC it scores the codes of the windows as the block pipeline
    does (_quantized_statistics), so the two agree bit for bit on the
    same windows. Raises UncalibratedThreshold for an OOK cfg without a
    threshold: rx carries no Eb/N0 to set it from."""
    _check_rx(rx, cfg)
    threshold = cfg.threshold
    if cfg.mod.scheme == OOK and threshold is None:
        raise UncalibratedThreshold(
            "OOK threshold is unset; set one with dataclasses.replace(cfg, "
            "threshold=ook_threshold(cfg, ebn0_db, energy_per_bit))")
    win = _windows(rx.samples, cfg, sync.offset)
    if cfg.datapath is None:
        return _statistics(win, cfg.pulse, cfg, threshold)
    # as the block pipeline scores noiseless windows, each its own group
    noise, groups = np.zeros(win.shape), np.arange(len(win))
    return _quantized_statistics(noise, win, groups, cfg, [(0.0, threshold)])[0]


def demodulate(rx, cfg, sync=GENIE_SYNC):
    """Decode every whole frame of rx for the configured scheme."""
    return decide(decision_statistics(rx, cfg, sync))


@dataclass(frozen=True)
class ScoredBlock:
    """One block through the link, scored: statistics has the decision
    statistic of each frame the receiver read (at most one per bit),
    decoded is decide(statistics), and errors counts the wrong
    decisions against the block's bits plus each bit the receiver never
    produced."""

    statistics: np.ndarray
    decoded: np.ndarray
    errors: int


def _score(bits, statistics):
    decoded = decide(statistics)
    m = len(decoded)
    # bits the receiver never produced (mismatched frame length after a
    # one-sided reconfiguration) count as errors
    errors = int(np.count_nonzero(decoded != bits[:m])) + len(bits) - m
    return ScoredBlock(statistics, decoded, errors)


def ook_threshold(cfg, ebn0_db, energy_per_bit):
    """The OOK threshold of receiver cfg at ebn0_db for a transmitter
    spending energy_per_bit: the midpoint of the mean energies of a
    w-sample window of noise alone and of one holding the template too,

        (E_w / 2 + sigma^2 w) / rate,

    where E_w is the energy of the template's first w samples and sigma
    the per-sample noise deviation (channel.noise_sigma). Without noise
    it is half the windowed pulse energy, 0.5 * E_w / rate exactly.
    Raises what noise_sigma raises.
    """
    sigma = noise_sigma(ebn0_db, energy_per_bit, cfg.sample_rate)
    width = cfg.window_len
    tpl = cfg.template.samples[:width]
    energy = float(np.dot(tpl, tpl))
    return (0.5 * energy + sigma * sigma * width) / cfg.sample_rate


def simulate_links(blocks, tx, rx, points):
    """Send blocks of bits from tx to rx at several Eb/N0 points of one
    link (Eb of tx's scheme), which share their blocks, their channels
    and their noise: an iterator that yields, block by block and in
    order, one ScoredBlock per point in the order of points.

    blocks is an iterable of (bits, noise_seed, channel) triples, read
    one at a time: each block's records are yielded before the next
    block is read. Consecutive blocks as long and behind the same
    channel object, or behind none, form a run and share one layout
    (_run). Each block draws its noise from its own noise_seed and sees
    its own channel (None or a ChannelRealization). tx and rx are the
    two link ends' configurations, which may differ after a one-sided
    reconfiguration; rx.datapath, if set, is the ADC, and an AGC (see
    QuantizerConfig) samples each block's windows. The records equal
    those of one call per block and per point, bit for bit. An OOK
    point decides at rx.threshold when it is set, and otherwise at
    ook_threshold(rx, ebn0_db, Eb of tx's scheme). Each block's windows
    and their clean statistics serve every point, and each block draws
    its noise once: every point scales those standard normals by its own
    sigma (common random numbers), so each point's noise keeps its exact
    law while the points' errors are correlated.

    Raises RateMismatch when tx and rx differ in sample rate, and
    InvalidParams for an invalid Eb/N0 (before any block is read), for
    bits other than 0 and 1, a channel that is neither None nor a
    ChannelRealization, a noise seed that is not an integer >= 0 (an
    integral float is taken, as by check_int) or a block whose sample
    positions do not fit a 64-bit integer.
    """
    if tx.sample_rate != rx.sample_rate:
        raise RateMismatch(f"tx at {tx.sample_rate:g} S/s but rx at "
                           f"{rx.sample_rate:g} S/s")
    eb = ENERGY_PER_BIT[tx.mod.scheme]
    ook = rx.mod.scheme == OOK and rx.threshold is None
    points = tuple((noise_sigma(e, eb, rx.sample_rate),
                    ook_threshold(rx, e, eb) if ook else rx.threshold)
                   for e in points)
    # ChannelRealization compares by identity, so blocks as long share a
    # run without a channel or behind one realization object
    blocks = ((_as_bits(bits), seed, ch) for bits, seed, ch in blocks)
    for (n, channel), run in groupby(blocks, lambda b: (len(b[0]), b[2])):
        check_type(channel, "channel", ChannelRealization, None)
        # the rows sent are the shape set of a block without a channel;
        # the run holds only its layout
        layout = _layout(tx, rx, n, tx.pulse_table[1]
                         if channel is None else _shapes(tx, channel))
        yield from _run(run, *layout, rx, points)


def _shapes(tx, channel):
    """The received shape set of a block with a channel: each bit's row
    (transmitter.bit_rows) of the chip pulse put through the channel."""
    g = apply_channel(SampledSignal(tx.pulse, tx.sample_rate), channel)
    return bit_rows(tx.mod, g.samples, tx.sample_rate)


def _layout(tx, rx, n, shapes):
    """The layout of an n-bit block with the received shape set shapes,
    counted from the block's start. Every frame sends a row of shapes
    from its code position's start (transmitter.pulse_table), so this
    holds for any bits of the block.

    The rx windows are those of the block's frames plus the channel's
    spread, at most one per bit. The tx frames' pulse starts and the rx
    windows' starts are each link end's code offsets tiled onto a frame
    ramp (_frame_starts). Pulse starts grow with the frame, so the
    pulses reaching into a window [p, p + W) are the run whose start
    lies past p - length (length the shape set's row length) and before
    p + W. Where the two ends are one configuration and the shapes have
    no spread, that run is the window's own frame's pulse alone, read
    from its start: the layout is aligned, and follows without a search.

    Returns (padded, at, pos). padded holds the two rows of shapes, each
    with W zeros on either side, end to end in one flat array, so row k
    starts at k * stride for stride = len(padded) // 2. at and pos have
    one row per step along the run and one column per window: the
    step-th pulse reaching window w is the block's pulse at[step, w],
    and the window reads it from pos[step, w] on in its padded row. Past
    a window's run, at is the sentinel n, which picks the zero bit
    _block_windows appends to the block's bits, and pos is 0, where the
    row reads zeros. An aligned layout returns in place of padded the
    two clean windows, the first W samples of each row of shapes (zeros
    past its end), with at and pos None: window w reads pulse w alone,
    and the row of its bit is its clean window.

    Raises InvalidParams when the block's sample positions do not fit a
    64-bit integer.
    """
    length, width = shapes.shape[1], rx.window_len
    frame_len = max(tx.frame_len, rx.frame_len)
    if n * frame_len + length + width > _INT64_MAX:
        raise InvalidParams(
            f"{n} frames of {frame_len} samples overflow the 64-bit sample "
            f"index; shorten the frame or send fewer bits")
    padded = np.zeros((len(shapes), length + 2 * width))
    padded[:, width:-width] = shapes
    # the received pulse is the chip pulse, the channel's spread and,
    # in a PPM row, the shift
    spread = length - len(tx.pulse) - delta_samples(tx.mod, tx.sample_rate)
    if tx is rx and spread == 0:
        # a frame's pulse reaches no window but its own, which starts
        # where the pulse does: pulse and window fit their chip, and
        # frame starts lie at least a chip apart
        return padded[:, width:2 * width].copy(), None, None
    first = _frame_starts(tx, n)
    frames = min((n * tx.frame_len + spread) // rx.frame_len, n)
    # edge: each window's start less length, then its end
    edge = _frame_starts(rx, frames) - length
    lo = np.searchsorted(first, edge, side="right")
    edge += length + width
    reach = np.searchsorted(first, edge) - lo
    step = np.arange(max(reach.max(initial=0), 1))[:, None]
    at = np.where(step < reach, lo + step, n)
    pos = np.where(at < n, edge - first.take(at, mode="clip"), 0)
    return padded.ravel(), at, pos


def _frame_starts(cfg, n):
    """Where link end cfg's first n frames send (or read) from, counted
    from the first frame's start: its code offsets (cfg.pulse_table)
    tiled onto a frame ramp, a whole code period at a time."""
    starts = cfg.pulse_table[0]
    ramp = np.arange(0, n * cfg.frame_len, cfg.frame_len)
    whole = ramp[:n - n % len(starts)].reshape(-1, len(starts))
    whole += starts
    ramp[whole.size:] += starts[:n - whole.size]
    return ramp


def _run(blocks, windows, at, pos, rx, points):
    """Yield, for each block of one run, its ScoredBlock at each point
    of receiver rx, each block's records before the next block is read.
    blocks yields (bits, noise_seed, channel) triples, all of one
    length and one channel, and windows, at and pos are their _layout.
    points holds a (sigma, threshold) pair per point.

    An aligned run's clean windows and, on the floating-point datapath,
    their statistics serve all its blocks; any other block finds its own
    (_block_windows). Per block the run draws the block's noise once,
    from its seed, whatever its points' sigma: a noiseless point scales
    it by zero, which adds +-0.0 and moves no decision. Per block and
    point, it scales that noise by the point's sigma and scores it."""
    width = rx.window_len
    ook = rx.mod.scheme == OOK
    law = None
    for bits, seed, _ in blocks:
        clean, which = _block_windows(bits, windows, at, pos, width)
        m = len(which)
        try:
            rng = np.random.default_rng(seed)
        except (TypeError, ValueError):
            # refused by numpy: refuse it as every seed is, or take an
            # integral float
            rng = np.random.default_rng(check_int(seed, "noise seed", 0))
        if rx.datapath is not None:
            # the quantized datapath draws one normal per window sample
            stats = _quantized_statistics(rng.standard_normal((m, width)),
                                          clean, which, rx, points)
        else:
            # an aligned run's two clean windows are scored once
            if law is None or at is not None:
                law = _clean_law(clean, rx)
            clean_stats, norm = law
            # what every point reads of the block's windows, gathered once
            base = clean_stats[which]
            scale = 2.0 * norm[which] if ook else norm
            # one normal per frame and, for OOK, one chi-square of W - 1
            # degrees of freedom per window
            z = rng.standard_normal(m)
            chi2 = (2.0 * rng.standard_gamma(0.5 * (width - 1), m)
                    if ook else None)
            stats = [base - t if ook else base.copy() for _, t in points]
            for (sigma, _), point_stats in zip(points, stats):
                point_stats += _noise_terms(z, chi2, sigma, scale, rx)
        yield from (_score(bits, point_stats) for point_stats in stats)


def _block_windows(bits, padded, at, pos, width):
    """The clean side of a block: its distinct clean windows, one row
    each, and for each of its windows the index of its row.

    An aligned layout (at None) holds in place of padded the two clean
    windows, and each window's row is its bit. Otherwise the block's
    bits, scaled to the start of the row of padded they select and
    followed by a zero at the sentinel index n, go through at into the
    flat index from which each window reads each step's pulse; the
    windows are grouped by those indices (_distinct_windows) and each
    distinct one is built once."""
    if at is None:
        return padded, bits
    sent = np.append(bits, 0) * (len(padded) // 2)
    # read[step, w] is the flat index from which window w reads its
    # step-th pulse
    read = sent.take(at)
    read += pos
    rep, which = _distinct_windows(read, len(padded))
    return _build_windows(padded, read[:, rep], width), which


def _quantized_statistics(z, clean, block, rx, points):
    """The statistics of one block's windows at each point of the
    quantized receiver rx: point i's windows are sigma_i z +
    clean[block], which the ADC samples at the full scale of the whole
    block's windows (QuantizerConfig, _peak), as it samples the
    template.

    A point's codes come from one affine map of z and its clean windows
    over its step, z (sigma_i / step_i) + (clean / step_i)[block],
    floored and clipped (channel._codes) a chunk of _MERGE_ROWS rows at
    a time in one reused buffer, and each chunk is scored at once
    against the point's template levels, coded once. So the block holds
    z, its clean windows over the step and a chunk, never a window
    matrix of a point.

    Rounding is monotone, so fl(fl(scale z) + fl(clean / step)) over a
    chunk lies between the same map of the chunk's lowest normal and
    clean sample and of its highest: bounds that let the peak run skip
    the chunks that cannot hold the peak, and the coding skip the clip
    where no code can leave the range."""
    buffers = np.empty((2, min(len(z), _MERGE_ROWS), z.shape[1]))
    first = np.arange(0, len(z), _MERGE_ROWS)
    # each chunk's lowest and highest normal and clean sample
    flat, at = z.reshape(-1), first * z.shape[1]
    z_lo, z_hi = np.minimum.reduceat(flat, at), np.maximum.reduceat(flat, at)
    c_lo = np.minimum.reduceat(clean.min(axis=1)[block], first)
    c_hi = np.maximum.reduceat(clean.max(axis=1)[block], first)
    stats = np.empty((len(points), len(z)))
    scaled = np.empty_like(clean)
    for (sigma, threshold), out in zip(points, stats):
        adc = rx.datapath
        if adc.full_scale is None:
            bound = np.maximum(-(sigma * z_lo + c_lo), sigma * z_hi + c_hi)
            adc = adc.for_samples(_peak(z, sigma, clean, block, bound, buffers))
        step, half = lattice = _lattice(adc)
        tpl = _codes(rx.pulse / step, adc) + half
        scale = sigma / step
        np.divide(clean, step, out=scaled)
        for row, low, high in zip(first, scale * z_lo + c_lo / step,
                                  scale * z_hi + c_hi / step):
            win = _chunk(z, row, scale, scaled, block, buffers)
            out[row:row + _MERGE_ROWS] = _statistics(
                _codes(win, adc, low, high), tpl, rx, threshold, lattice)
    return stats


def _peak(z, sigma, clean, block, bound, buffers):
    """The peak |x| over the windows x = fl(fl(sigma z) + clean[block])
    as a one-sample array, where no |x| of chunk c exceeds bound[c]. The
    chunks are built (into buffers) in decreasing order of that bound
    while it can raise the peak found: the peak is exact, and at low
    Eb/N0 a block builds a few of its chunks, without noise one."""
    peak = np.zeros(1)
    for c in np.argsort(-bound, kind="stable"):
        if bound[c] > peak[0]:
            win = _chunk(z, c * _MERGE_ROWS, sigma, clean, block, buffers)
            peak[0] = max(peak[0], win.max(), -win.min())
    return peak


def _chunk(z, first, scale, clean, block, buffers):
    """Rows first to first + _MERGE_ROWS of the windows z * scale +
    clean[block], in buffers[0], with the gathered clean rows in
    buffers[1]."""
    part = slice(first, first + _MERGE_ROWS)
    win, rows = buffers[:, :len(block[part])]
    np.multiply(z[part], scale, out=win)
    win += clean.take(block[part], axis=0, out=rows, mode="clip")
    return win


def _distinct_windows(read, radix):
    """Group the windows by their clean content.

    A window's content follows from its key: the column of read that
    gives, for each step, the flat index of padded from which it reads
    the pulse reaching it at that step (see _build_windows), in [0,
    radix). The groups are refined one step at a time (partition
    refinement): every window starts in group 0, and at each step the
    windows are ranked by the key group * radix + index and renumbered
    in increasing key order, so two share a group iff their keys agree
    at every step so far. Where the keys' range, groups * radix, is at
    most twice the window count (channel-free blocks whose tx and rx
    frames differ, as in the fault-injected segments of a session: some
    2.4 thousand keys for 1575 windows of a 2000-bit block), the rank
    comes from counting, a presence array over the range and its
    cumulative sum; where it is wider (CM1 blocks: some twenty thousand
    keys for a thousand windows), it is np.unique's inverse. Both number
    the groups alike.
    The key stays below (windows) * radix, a product of two lengths of
    arrays the block holds; for it to reach 2**63 one of them would
    outgrow about 24 GB, so it is exact in int64 wherever memory lasts.
    Returns one representative window per distinct key (any member, as
    all read the same indices) and, for every window, the index of its
    key among the representatives.
    """
    which = np.zeros(read.shape[1], dtype=np.int64)
    for value in read:
        key = which * radix + value
        size = (int(which.max(initial=0)) + 1) * radix
        if size <= 2 * len(key):
            rank = np.zeros(size, dtype=np.int64)
            rank[key] = 1
            which = rank.cumsum(out=rank).take(key) - 1
        else:
            which = np.unique(key, return_inverse=True)[1]
    rep = np.empty(int(which.max(initial=-1)) + 1, dtype=np.int64)
    rep[which] = np.arange(len(which))
    return rep, which


def _build_windows(padded, read, width):
    """Received signal over windows of width samples: one row per column
    of read. At each step, a window adds the width samples of padded
    (see _layout) from the flat index read gives it on; the sentinel's
    index 0 reads zeros."""
    # view[i] is padded[i:i + width], as sliding_window_view has it
    # without its argument checks
    view = np.lib.stride_tricks.as_strided(
        padded, (len(padded) - width + 1, width), padded.strides * 2,
        writeable=False)
    win = view[read[0]]
    for r in read[1:]:
        win += view[r]
    return win


def _clean_law(win, cfg):
    """The floating-point decision statistic of each clean window of
    win before any OOK threshold, and the norm that sets what white
    noise of per-sample deviation sigma adds to it.

    A correlation with coefficients c gains N(0, sigma^2 |c|^2), where c
    is the chip pulse for BPAM and the shifted minus the nominal pulse
    for PPM; the norm is |c|, one for every window, and the scale of the
    noise term sigma |c|. The energy of a window s of w samples becomes
    (|s| + sigma u)^2 + sigma^2 chi2(w - 1), with u ~ N(0, 1) the noise
    along s; the norm is |s|, one per window, and is the scale. One
    einsum gives both the energy and |s|.
    """
    if cfg.mod.scheme == OOK:
        square = np.einsum("ij,ij->i", win, win)
        return square / cfg.sample_rate, np.sqrt(square)
    tpl = cfg.pulse
    coef = np.zeros(win.shape[1])
    coef[-len(tpl):] = tpl
    if cfg.mod.scheme == PPM:
        coef[:len(tpl)] -= tpl
    return _statistics(win, tpl, cfg, None), math.sqrt((coef * coef).sum())


def _noise_terms(z, chi2, sigma, scale, cfg):
    """Noise terms of the statistics of a block's windows at noise
    deviation sigma, from their law (see _clean_law) rather than from W
    samples per window: z holds one standard normal per window and, for
    OOK, chi2 one chi-square of W - 1 degrees of freedom. scale is the
    norm |c| for BPAM and PPM, and 2 |s| of each window for OOK."""
    if cfg.mod.scheme != OOK:
        return (sigma * scale) * z
    noise = sigma * z
    extra = noise * (scale + noise)
    extra += sigma * sigma * chi2
    return extra / cfg.sample_rate
