"""The shared block pipeline against its full-waveform reference.

simulate_links draws no noise sample on the floating-point datapath:
it adds to each clean statistic a noise term drawn from its exact law
(a normal for BPAM and PPM; for OOK a normal along the clean window
plus a chi-square). The quantized datapath draws noise for the window
samples alone. The reference adds noise to every sample with add_awgn
and then runs the public demodulator. The two agree exactly without
noise and in distribution with it. The closed-form OOK threshold is
held to a brute-force estimate of the mean window energies it splits.

Each statistical test runs once at a fixed alpha under fixed seeds, so
under the null hypothesis it fails with probability alpha.
"""

import hashlib
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp, levene

from uwbphy import (
    CM1_LIKE,
    ChannelRealization,
    CodeBank,
    ENERGY_PER_BIT,
    IDENTITY_CHANNEL,
    InvalidParams,
    ModulationConfig,
    PhyState,
    QuantizerConfig,
    ReceiverConfig,
    ReconfigRequest,
    SampledSignal,
    SweepConfig,
    SyncEstimate,
    ThCode,
    ThParams,
    add_awgn,
    apply_channel,
    apply_reconfiguration,
    demodulate,
    draw_channel,
    ook_threshold,
    place_pulse_train,
    point_seeds,
    run_session,
    sample_pulse,
)
from uwbphy.channel import _codes, noise_sigma, quantize_array
from uwbphy.framing import chip_samples
from uwbphy import harness, receiver
from uwbphy.harness import BLOCK_BITS, run_sweep
from uwbphy.receiver import (
    _distinct_windows,
    decide,
    decision_statistics,
    simulate_links,
)

import oracles
from conftest import FAST_DELTA, FAST_PULSE, RATE, random_bits

KS_ALPHA = 1e-3

FAST_PARAMS = ThParams(t_c=5e-9, n_c=4)
FAST_CODE = ThCode(offsets=(2, 0, 3, 1), code_id="fast")

# Edge geometry: the 121-sample FAST_PULSE template plus a 60-sample PPM
# shift spans exactly the 180-sample chip plus one sample, so every
# pulse and every window is cut to its chip and one in the last chip
# stops at its frame's end. BPAM gets the same edge from a 120-sample
# chip.
EDGE_PPM_PARAMS = ThParams(t_c=3.6e-9, n_c=3)
EDGE_BPAM_PARAMS = ThParams(t_c=2.4e-9, n_c=3)
EDGE_DELTA = 1.2e-9
EDGE_CODE = ThCode(offsets=(2, 0, 2, 1, 2), code_id="edge")

# Window energy of noise alone (120 samples at 6 dB, Eb = 0.5) plus
# half a pulse: OOK decisions at 6 dB are then far from all-ones.
OOK_THRESHOLD = 120 * 0.25 / 10 ** 0.6 + 0.5

def _record(bits, tx, rx, ebn0_db, noise_seed, channel=None):
    """The record of one block passed to simulate_links alone."""
    [record] = simulate_links([(bits, noise_seed, channel)], tx, rx,
                              (ebn0_db,))
    return record


def _block(bits, tx, rx, ebn0_db, noise_seed, channel=None):
    """The statistics of one block passed to simulate_links alone."""
    return _record(bits, tx, rx, ebn0_db, noise_seed, channel).statistics


def _receiver(scheme, params=FAST_PARAMS, code=FAST_CODE, delta=FAST_DELTA):
    return ReceiverConfig(
        mod=ModulationConfig(scheme, delta=delta if scheme == "ppm" else 0.0),
        params=params,
        code=code,
        template=sample_pulse(FAST_PULSE, RATE),
        threshold=OOK_THRESHOLD if scheme == "ook" else None,
    )


def _edge_receiver(scheme):
    params = EDGE_BPAM_PARAMS if scheme == "bpam" else EDGE_PPM_PARAMS
    return _receiver(scheme, params, EDGE_CODE, EDGE_DELTA)


def _clean(bits, cfg, channel=None):
    sig = place_pulse_train(bits, cfg.mod, cfg.params, cfg.code, cfg.template)
    return sig if channel is None else apply_channel(sig, channel)


# sha256 prefixes of demodulate's output on these blocks, computed by
# the full-frame demodulators that preceded the window gather (same
# inputs, same add_awgn stream).
DEMODULATE_DIGESTS = {
    "ook-float-awgn-fast": "b04fdf8b6304596a",
    "ook-float-awgn-edge": "1ab0e80549d226dd",
    "ook-float-cm1-fast": "6e4f13ae51ea19c5",
    "ook-float-cm1-edge": "5b1b2b548e48036e",
    "ook-q12-awgn-fast": "450ddae9e9acbdb8",
    "ook-q12-awgn-edge": "5002e1cfa267241f",
    "ook-q12-cm1-fast": "6374cf62b3f247e6",
    "ook-q12-cm1-edge": "f01fed349477e50c",
    "bpam-float-awgn-fast": "c45886468b9c2616",
    "bpam-float-awgn-edge": "be4d1abaee4edf92",
    "bpam-float-cm1-fast": "3adc2ad8dcd02f4c",
    "bpam-float-cm1-edge": "79f1c8c0ec71bd3d",
    "bpam-q12-awgn-fast": "11cb188521e68603",
    "bpam-q12-awgn-edge": "ad7f46b922bf3c67",
    "bpam-q12-cm1-fast": "f3b0c83867e125ab",
    "bpam-q12-cm1-edge": "5b7dfd964a34b667",
    "ppm-float-awgn-fast": "166ea65d5861a4e8",
    "ppm-float-awgn-edge": "58823e9eaf6f24ef",
    "ppm-float-cm1-fast": "55ed7f7662621029",
    "ppm-float-cm1-edge": "29fd74a833b474ee",
    "ppm-q12-awgn-fast": "fe4dc76ca6522a62",
    "ppm-q12-awgn-edge": "0104cc32832535e0",
    "ppm-q12-cm1-fast": "fdaac557f7ee0f36",
    "ppm-q12-cm1-edge": "3cc4999581070cdb",
}


@pytest.mark.parametrize("key", sorted(DEMODULATE_DIGESTS))
def test_demodulate_decisions_are_pinned(key):
    scheme, datapath, channel, geometry = key.split("-")
    cfg = _edge_receiver(scheme) if geometry == "edge" else _receiver(scheme)
    seed = sum(map(ord, key))
    bits = random_bits(seed, 400)
    ch = draw_channel(CM1_LIKE, seed) if channel == "cm1" else None
    rx = add_awgn(_clean(bits, cfg, ch), 6.0, ENERGY_PER_BIT[scheme], seed + 1)
    if datapath == "q12":
        peak = float(np.max(np.abs(rx.samples)))
        cfg = replace(cfg, datapath=QuantizerConfig(12, peak))
    sync = SyncEstimate(offset=seed % 37, peak_metric=1.0)
    decoded = demodulate(rx, cfg, sync)
    digest = hashlib.sha256(decoded.astype(np.uint8).tobytes()).hexdigest()
    assert digest[:16] == DEMODULATE_DIGESTS[key]


def _truncated_reference(x, cfg):
    """Decision statistics by an explicit loop over frames, each
    correlation against the template cut so that it and its shift fit
    the chip, after the configured ADC."""
    rate = cfg.sample_rate
    tpl = cfg.template.samples
    if cfg.datapath is not None:
        x = quantize_array(x, cfg.datapath)
        tpl = quantize_array(tpl, cfg.datapath)
    frame, chip = cfg.frame_len, chip_samples(cfg.params, rate)
    shift = round(cfg.mod.delta * rate)
    tpl = tpl[:chip - shift]
    out = []
    for j in range(len(x) // frame):
        base = j * frame
        s = cfg.code.offsets[j % len(cfg.code)] * chip

        def corr(start):
            return x[base + start:base + start + len(tpl)] @ tpl

        if cfg.mod.scheme == "bpam":
            out.append(corr(s))
        elif cfg.mod.scheme == "ppm":
            out.append(corr(s + shift) - corr(s))
        else:
            w = cfg.window_len
            seg = x[base + s:base + s + w]
            out.append(seg @ seg / rate - cfg.threshold)
    return np.array(out)


@pytest.mark.parametrize("quantized", [False, True], ids=["float", "q12"])
@pytest.mark.parametrize("scheme", ["ook", "bpam", "ppm"])
def test_window_truncated_at_frame_end(scheme, quantized):
    # For BPAM and PPM, pulse plus shift span the chip plus one sample:
    # each pulse and each window is cut to its chip, so a last-chip
    # window stops at the frame end. A ramp template keeps its largest
    # sample last, so the sample the cut takes off carries real weight
    # (the monocycle's final sample is ~1e-23 of its peak).
    ramp = np.linspace(1.0, 2.0, 121)
    ramp *= math.sqrt(RATE / (ramp @ ramp))
    cfg = replace(_edge_receiver(scheme), template=SampledSignal(ramp, RATE))
    if scheme != "ook":
        # the last-chip template really does reach past the frame
        chip = chip_samples(cfg.params, cfg.sample_rate)
        last = (cfg.params.n_c - 1) * chip
        shift = round(cfg.mod.delta * RATE)
        assert last + len(ramp) + shift == cfg.frame_len + 1
        assert cfg.window_len == chip
    bits = random_bits(31, 60)
    clean = _clean(bits, cfg)
    np.testing.assert_allclose(
        _block(bits, cfg, cfg, math.inf, noise_seed=0),
        _truncated_reference(clean.samples, cfg),
        rtol=1e-12,
    )
    noise = np.random.default_rng(32).standard_normal(len(clean))
    rx = replace(clean, samples=clean.samples + 1e4 * noise)
    if quantized:
        peak = float(np.max(np.abs(rx.samples)))
        cfg = replace(cfg, datapath=QuantizerConfig(12, peak))
    np.testing.assert_allclose(
        decision_statistics(rx, cfg),
        _truncated_reference(rx.samples, cfg),
        rtol=1e-9,
        atol=1e-6 * float(np.max(np.abs(rx.samples))),
    )


@pytest.mark.parametrize("multipath", [False, True], ids=["awgn", "cm1"])
@pytest.mark.parametrize("scheme", ["ook", "bpam", "ppm"])
def test_window_noise_matches_full_waveform_noise(scheme, multipath):
    cfg = _receiver(scheme)
    channel = draw_channel(CM1_LIKE, rng_seed=3) if multipath else None
    bits = random_bits(4, 5000)
    clean = _clean(bits, cfg, channel)

    # without noise the pipeline sees exactly the reference's samples;
    # it stops at the last bit's frame, before the channel's tail
    noiseless = decision_statistics(clean, cfg)[:len(bits)]
    np.testing.assert_allclose(
        _block(bits, cfg, cfg, math.inf, 0, channel),
        noiseless,
        rtol=1e-12,
        atol=1e-12,
    )
    # so the two differ only in the noise's contribution; comparing that
    # part frame by frame keeps the bit mixture out of the KS test
    ebn0_db = 4.0
    windowed = _block(bits, cfg, cfg, ebn0_db, 5, channel)
    full = decision_statistics(
        add_awgn(clean, ebn0_db, ENERGY_PER_BIT[scheme], 6), cfg
    )[:len(bits)]
    assert len(windowed) == len(full) == len(noiseless)
    assert ks_2samp(windowed - noiseless, full - noiseless).pvalue > KS_ALPHA


def test_ook_pulse_windows_match_full_waveform_noise():
    # At 15 dB the pulse-noise cross term 2 sigma |s| u of a window that
    # holds a whole pulse has about 1.5 times the spread of the noise
    # energy sigma^2 chi2(w), so leaving it out halves the noise term's
    # spread. Windows with no pulse, or with the share of one that CM1
    # leaves, would dilute that: only AWGN windows of sent ones count.
    cfg = _receiver("ook")
    bits = random_bits(21, 4000)
    clean = _clean(bits, cfg)
    noiseless = decision_statistics(clean, cfg)[:len(bits)]
    ebn0_db = 15.0
    windowed = _block(bits, cfg, cfg, ebn0_db, 22)
    full = decision_statistics(
        add_awgn(clean, ebn0_db, ENERGY_PER_BIT["ook"], 23), cfg
    )[:len(bits)]
    sent = bits == 1
    assert ks_2samp(
        (windowed - noiseless)[sent], (full - noiseless)[sent]
    ).pvalue > KS_ALPHA


@pytest.mark.parametrize("scheme", ["ook", "bpam", "ppm"])
def test_mismatched_receiver_matches_full_waveform_noise(scheme):
    # After a one-sided reconfiguration the receiver reads the
    # transmitter's waveform through its own, shorter frames: most of
    # its windows see no pulse, and pulse plus shift exactly fill its
    # chips, so its windows are cut to them.
    tx = _receiver(scheme)
    rx = _edge_receiver(scheme)
    bits = random_bits(11, 5000)
    clean = _clean(bits, tx)
    noiseless = decision_statistics(clean, rx)[:len(bits)]
    np.testing.assert_allclose(
        _block(bits, tx, rx, math.inf, 0), noiseless, rtol=1e-12
    )
    # with noise far below the signal, a window whose pulse went
    # missing would show
    np.testing.assert_allclose(
        _block(bits, tx, rx, 200.0, 12),
        noiseless,
        rtol=1e-6,
        atol=1e-6 * float(np.max(np.abs(noiseless))),
    )
    ebn0_db = 4.0
    windowed = _block(bits, tx, rx, ebn0_db, 12)
    full = decision_statistics(
        add_awgn(clean, ebn0_db, ENERGY_PER_BIT[scheme], 13), rx
    )[:len(bits)]
    assert len(windowed) == len(full) == len(bits)
    assert ks_2samp(windowed - noiseless, full - noiseless).pvalue > KS_ALPHA


# Two chips per frame, every window in the last: the template plus the
# PPM shift spans the chip plus one sample, so the correlator windows
# are cut to the chip and end at the frame's end. OOK keeps its
# 120-sample window inside the chip.
LAST_CHIP_PARAMS = {
    "ook": ThParams(t_c=3.6e-9, n_c=2),
    "bpam": ThParams(t_c=2.4e-9, n_c=2),
    "ppm": ThParams(t_c=3.6e-9, n_c=2),
}
LAST_CHIP_CODE = ThCode(offsets=(1,), code_id="last")


@pytest.mark.parametrize("scheme", ["ook", "bpam", "ppm"])
def test_noise_only_windows_match_full_waveform_noise(scheme):
    # A silent transmitter (OOK sending zeros) leaves every window with
    # noise alone, so every statistic takes the closed form. Half the
    # template's energy sits in its last sample, which the chip rule
    # cuts off: a noise law that kept it would change the statistics'
    # spread by a third or more. Levene's test checks the spread, KS
    # the whole law.
    tpl = np.zeros(121)
    tpl[0] = tpl[-1] = math.sqrt(RATE / 2)
    rx = replace(
        _receiver(
            scheme,
            LAST_CHIP_PARAMS[scheme],
            LAST_CHIP_CODE,
            EDGE_DELTA,
        ),
        template=SampledSignal(tpl, RATE),
    )
    tx = replace(rx, mod=ModulationConfig("ook"))
    bits = np.zeros(12_000, dtype=np.int64)
    ebn0_db = 4.0
    windowed = _block(bits, tx, rx, ebn0_db, 31)
    full = decision_statistics(
        add_awgn(_clean(bits, tx), ebn0_db, ENERGY_PER_BIT["ook"], 32), rx
    )
    assert len(windowed) == len(full) == len(bits)
    assert ks_2samp(windowed, full).pvalue > KS_ALPHA
    assert levene(windowed, full).pvalue > KS_ALPHA


@pytest.mark.parametrize("ebn0_db", [0.0, 8.0, 20.0])
def test_calibration_matches_brute_force_distribution(ebn0_db):
    # ook_threshold is the midpoint of the mean energies of noise-only
    # and pulse-plus-noise windows: the midpoint of those means over n
    # drawn windows of white noise each lies within 5 of its own
    # standard errors of it (under 5e-3 of the threshold at n = 10 000)
    cfg = _receiver("ook")
    rate, width, n = cfg.sample_rate, cfg.window_len, 10_000
    tpl = cfg.template.samples[:width]
    sigma = math.sqrt(0.5 * 0.5 / 10 ** (ebn0_db / 10) * rate)
    rng = np.random.default_rng(60 + int(ebn0_db))
    noise = sigma * rng.standard_normal((2, n, width))
    energies = np.stack([(noise[0] ** 2).sum(axis=1),
                         ((tpl + noise[1]) ** 2).sum(axis=1)]) / rate
    midpoint = 0.5 * energies.mean(axis=1).sum()
    error = 0.5 * math.sqrt((energies.var(axis=1) / n).sum())
    assert abs(midpoint - ook_threshold(cfg, ebn0_db, 0.5)) < 5 * error


def test_block_memory_stays_near_the_clean_waveform():
    # default geometry: 4000 samples per frame, so the clean waveform of
    # a block is 32 MB; noise for the whole block would add twice that
    rcfg = SweepConfig(scheme="bpam", ebn0_grid=(4.0,)).receiver
    bits = random_bits(7, BLOCK_BITS)
    clean_bytes = 8 * BLOCK_BITS * rcfg.frame_len
    tracemalloc.start()
    try:
        _block(bits, rcfg, rcfg, 4.0, noise_seed=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * clean_bytes


@pytest.mark.parametrize("scheme", ["ook", "bpam", "ppm"])
def test_float_datapath_draws_no_window_noise(scheme):
    # the statistics take their noise terms from one or two variates
    # per frame; noise samples for the windows would double the peak
    cfg = _receiver(scheme)
    bits = random_bits(12, BLOCK_BITS)
    tracemalloc.start()
    try:
        stats = _block(bits, cfg, cfg, 4.0, 13)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * len(stats) * cfg.window_len


# A sparse channel (at most 32 taps: apply_channel's exact tap-by-tap
# path) and one whose excess delay spans more than five 1000-sample
# FAST frames, so every window is reached by pulses of several frames.
SHORT_CHANNEL = ChannelRealization(
    taps=((0.0, 1.0), (0.9e-9, -0.6), (2.34e-9, 0.45), (5.5e-9, -0.3),
          (13.1e-9, 0.2)),
)
LONG_CHANNEL = ChannelRealization(
    taps=((0.0, 1.0), (7.3e-9, 0.5), (21.0e-9, -0.7), (48.6e-9, 0.4),
          (77.7e-9, -0.35), (112.5e-9, 0.3)),
)


def _ramp_template():
    """A unit-energy ramp as long as FAST_PULSE's template, whose last
    sample is its largest, so a pulse cut to its chip loses weight."""
    ramp = np.linspace(1.0, 2.0, 121)
    return SampledSignal(ramp * math.sqrt(RATE / (ramp @ ramp)), RATE)


def _cut_receiver(scheme):
    """The edge geometry with the ramp template: ramp plus shift span
    the chip plus one sample, so every pulse is sent, and correlated
    against, without its last and largest sample."""
    params = EDGE_PPM_PARAMS if scheme == "ppm" else EDGE_BPAM_PARAMS
    cfg = replace(
        _receiver(scheme, params, EDGE_CODE, EDGE_DELTA),
        template=_ramp_template(),
    )
    chip = chip_samples(cfg.params, cfg.sample_rate)
    last = (cfg.params.n_c - 1) * chip + round(cfg.mod.delta * RATE)
    assert last + len(cfg.template) == cfg.frame_len + 1
    return cfg


def _noiseless_reference(bits, tx, rx, channel):
    """Decision statistics of the whole received block: the clean
    waveform through apply_channel, read by the public demodulator."""
    return decision_statistics(_clean(bits, tx, channel), rx)[:len(bits)]


def _assert_same_statistics(got, want):
    assert len(got) == len(want)
    np.testing.assert_allclose(
        got, want, rtol=1e-12, atol=1e-12 * float(np.max(np.abs(want)))
    )


def _pulse_gap(bits, tx):
    """Fewest samples between the end of a sent pulse and the start of
    the next, at most 400."""
    frames = np.arange(len(bits))
    chip = chip_samples(tx.params, tx.sample_rate)
    starts = (frames * tx.frame_len
              + np.take(tx.code.offsets, frames % len(tx.code)) * chip)
    if tx.mod.scheme == "ppm":
        starts = starts + bits * round(tx.mod.delta * RATE)
    if tx.mod.scheme == "ook":
        starts = starts[bits == 1]
    return int(np.min(np.diff(starts), initial=400 + len(tx.pulse))
               - len(tx.pulse))


@st.composite
def _drawn_links(draw):
    """A drawn noiseless link: a template (FAST_PULSE's or the ramp,
    whose cut last sample carries weight), a scheme and PPM shift, the
    tx end's chip (often an exact fit: pulse plus shift fill it), chips
    per frame and code, an rx end that is the same or drawn alike, up to
    40 bits, the rx datapath (float, a fixed ADC or an AGC) and a
    channel (none, up to four taps, or CM1, whose spread covers several
    frames)."""
    template = draw(st.sampled_from(
        [sample_pulse(FAST_PULSE, RATE), _ramp_template()]))
    scheme = draw(st.sampled_from(["ook", "bpam", "ppm"]))
    shift = draw(st.integers(1, 80)) if scheme == "ppm" else 0
    mod = ModulationConfig(scheme, delta=shift / RATE)

    def end():
        chip = len(template) - 1 + shift + draw(st.just(0) | st.integers(0, 90))
        n_c = draw(st.integers(2, 5))
        offsets = draw(st.lists(st.integers(0, n_c - 1), min_size=1,
                                max_size=6))
        return ReceiverConfig(
            mod=mod, params=ThParams(t_c=chip / RATE, n_c=n_c),
            code=ThCode(tuple(offsets), "drawn"), template=template,
            threshold=0.5 if scheme == "ook" else None,
        )

    tx = end()
    rx = tx if draw(st.booleans()) else end()
    bits = np.array(draw(st.lists(st.integers(0, 1), min_size=1,
                                  max_size=40)))
    datapath = draw(st.sampled_from(["float", "fixed", "agc"]))
    if datapath != "float":
        scale = draw(st.sampled_from([0.5, 1.0, 2.0])) * float(
            np.max(template.samples))
        rx = replace(rx, datapath=QuantizerConfig(
            draw(st.integers(3 if scheme == "ook" else 1, 12)),
            scale if datapath == "fixed" else None))
    # Through an ADC, no CM1: its overlap-add leaves rounding dust where
    # the received pulse is due to be zero, and the ADC maps the dust by
    # its sign. Nor may two received pulses meet: the two paths add them
    # in another order, and where they cancel (the monocycle is
    # symmetric) the ADC maps what rounding leaves by its sign too.
    reach = 400 if datapath == "float" else _pulse_gap(bits, tx)
    kinds = ["none"]
    if reach > 0:
        kinds.append("short")
    if datapath == "float":
        kinds.append("cm1")
    channel = draw(st.sampled_from(kinds))
    if channel == "cm1":
        return bits, tx, rx, draw_channel(CM1_LIKE, draw(st.integers(0, 999)))
    if channel == "none":
        return bits, tx, rx, None
    delays = draw(st.lists(st.integers(1, reach), max_size=3, unique=True))
    gains = draw(st.lists(st.sampled_from([-0.8, -0.3, 0.4, 0.7]),
                          min_size=len(delays), max_size=len(delays)))
    taps = [(0.0, 1.0)] + [(d / RATE, g) for d, g in zip(sorted(delays), gains)]
    return bits, tx, rx, ChannelRealization(taps=taps)


@settings(max_examples=200)
@given(_drawn_links())
def test_block_matches_full_waveform_on_drawn_links(link):
    # the noiseless pipeline against place_pulse_train, apply_channel
    # and decision_statistics over the frames the receiver reads (at
    # most one per bit), with the same rx: bit for bit through an ADC,
    # whose AGC then sees the same windows, and to float rounding in
    # multipath sums on the float datapath
    bits, tx, rx, channel = link
    got = _block(bits, tx, rx, math.inf, 0, channel)
    x = _clean(bits, tx, channel).samples[:len(bits) * rx.frame_len]
    want = decision_statistics(SampledSignal(x, RATE), rx)
    if rx.datapath is None:
        # rounding scales with the statistic of one whole pulse, also
        # where a window holds only the dust of CM1's overlap-add
        unit = float(rx.pulse @ rx.pulse) / (RATE if rx.mod.scheme == "ook"
                                             else 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * unit)
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "scheme, n_c, channel",
    [("ppm", 8, True), ("bpam", 64, False)],
    ids=["ppm-cm1", "bpam-nc64"],
)
def test_block_memory_follows_the_windows_not_the_frames(scheme, n_c, channel):
    # at n_c = 64 a 1000-bit block's clean waveform is 256 MB; the
    # windows it is read through are 1.6 MB
    rcfg = SweepConfig(
        scheme=scheme,
        ebn0_grid=(4.0,),
        params=ThParams(t_c=10e-9, n_c=n_c),
    ).receiver
    ch = draw_channel(CM1_LIKE, rng_seed=9) if channel else None
    bits = random_bits(10, BLOCK_BITS)
    tracemalloc.start()
    try:
        stats = _block(bits, rcfg, rcfg, 4.0, 11, ch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    window_bytes = 8 * len(stats) * rcfg.window_len
    assert len(stats) == BLOCK_BITS
    assert peak < 6 * window_bytes


def _default_receiver(scheme):
    rcfg = SweepConfig(scheme=scheme, ebn0_grid=(4.0,)).receiver
    return replace(rcfg, threshold=0.5) if scheme == "ook" else rcfg


def _block_peak(scheme, channel, datapath):
    """Peak traced bytes of one default-geometry block at 4 dB, as a
    multiple of its (n_frames, W) window matrix."""
    cfg = replace(_default_receiver(scheme), datapath=datapath)
    ch = draw_channel(CM1_LIKE, rng_seed=9) if channel else None
    bits = random_bits(12, BLOCK_BITS)
    tracemalloc.start()
    try:
        stats = _block(bits, cfg, cfg, 4.0, 13, ch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * len(stats) * cfg.window_len)


@pytest.mark.parametrize("channel", [False, True], ids=["awgn", "cm1"])
@pytest.mark.parametrize("scheme", ["ook", "bpam", "ppm"])
def test_float_block_builds_each_distinct_window_once(scheme, channel):
    # a block's clean windows repeat: about 70 distinct ones of 1000 on
    # CM1 and a few dozen without a channel, so the float datapath
    # never holds a window matrix of the whole block; the shape set is
    # held once, padded in its layout
    assert _block_peak(scheme, channel, None) < (0.4 if channel else 0.5)


@pytest.mark.parametrize("scheme", ["ook", "bpam", "ppm"])
def test_quantized_block_holds_one_window_matrix(scheme):
    # the noise matrix is coded and scored a chunk at a time in one
    # reused buffer: no second matrix of the block's size
    assert _block_peak(scheme, True, QuantizerConfig(12)) < 1.5


# sha256 prefixes of the float64 bytes of simulate_links' statistics
# for each (scheme, channel) cell of the grid below and each link in
# it, on the floating-point datapath (BLOCK_DIGESTS) and through 8- and
# 12-bit AGCs and a fixed 8-bit ADC (QUANTIZED_BLOCK_DIGESTS). They pin
# every statistic bit for bit, so a window given the content of another
# shows even where no decision and no CSV byte moves. The float table
# digests the float half of the statistics pinned since every window
# was built on its own; the quantized table was re-pinned when the
# quantized datapath came to score integer ADC codes, which moved the
# last bits of its statistics and no decision. The cm1 cells also pin
# the float rounding of apply_channel's dense (overlap-add) path. The default and fast links have no exact-fit
# pulse; the cut, fast>cut and edge links send and read pulses cut to
# their chip.
BLOCK_DIGESTS = {
    "ook-none": {
        "default": "b9543b5cbc94c07c",
        "fast": "9658fb80e62ebc19",
        "cut": "09dd467708b76f09",
        "fast>cut": "7110f3f65f352c74",
        "edge": "5e0c8c0b9c7b2254",
    },
    "ook-short": {
        "default": "7297d3c7c29f24f0",
        "fast": "d9a08eea31cd0173",
        "cut": "9aa5510d4feb4b3d",
        "fast>cut": "082c405396216efc",
        "edge": "83be3456d8934f75",
    },
    "ook-cm1": {
        "default": "43f204ca601cf927",
        "fast": "8cf27c101de69eeb",
        "cut": "f9e971fcb42e4bb7",
        "fast>cut": "323f9d150ed27b55",
        "edge": "3c6622cdef050264",
    },
    "bpam-none": {
        "default": "072875aec8034a66",
        "fast": "0c4e7cf30b1d2120",
        "cut": "48995a478898d3a2",
        "fast>cut": "5dbcdf2a7b183084",
        "edge": "7d3deb9b1f206383",
    },
    "bpam-short": {
        "default": "71b17a78ec6b528c",
        "fast": "4ecb853061e5c7ba",
        "cut": "96826a3af4e2dc48",
        "fast>cut": "a663ebda1ea85b07",
        "edge": "d2d7f48675f2243d",
    },
    "bpam-cm1": {
        "default": "32054ce4ad7f4f07",
        "fast": "c4c08616e82d10b3",
        "cut": "584f482597ac9606",
        "fast>cut": "0418eaf1d36368d9",
        "edge": "e4b70a0fc59e36f7",
    },
    "ppm-none": {
        "default": "76355fb1191cfa36",
        "fast": "0c0588eee65d8330",
        "cut": "46f12802cd182dcc",
        "fast>cut": "2cf13fcf7412fee5",
        "edge": "990860f34085f7f1",
    },
    "ppm-short": {
        "default": "9b71ee601a244150",
        "fast": "a8fbb2c65d4ca20c",
        "cut": "a210fe70d657445e",
        "fast>cut": "af325ef048fbb61f",
        "edge": "c0a826c03a4998d2",
    },
    "ppm-cm1": {
        "default": "0085a89292919df8",
        "fast": "af411460e45a34f3",
        "cut": "bc6af11a1d4e4568",
        "fast>cut": "bff8d97d3ac02149",
        "edge": "27128d6bc88c1aaf",
    },
}

QUANTIZED_BLOCK_DIGESTS = {
    "ook-none": {
        "default": "bdadad9e18301817",
        "fast": "a7265636ee57b946",
        "cut": "d10bbfe057554cc9",
        "fast>cut": "4b093d5eca0ca007",
        "edge": "9ba7e40d761e494d",
    },
    "ook-short": {
        "default": "1dfc3b42d1e505dc",
        "fast": "f8d76725c0bf645a",
        "cut": "443128f2e052e92f",
        "fast>cut": "67e4ec8d795f37c4",
        "edge": "a90730b083cb2a1b",
    },
    "ook-cm1": {
        "default": "f97aaedfa9920820",
        "fast": "1ee02f7be2075535",
        "cut": "b0037b85938d0818",
        "fast>cut": "e67d5e4711a2d7c2",
        "edge": "4af0579e18517923",
    },
    "bpam-none": {
        "default": "4891cd62a8f1a403",
        "fast": "313d73d35a0b8154",
        "cut": "17239ba538c59fe9",
        "fast>cut": "bb073e8ac7b24ad2",
        "edge": "1b6648245da65b40",
    },
    "bpam-short": {
        "default": "6e2e2e4dc1af1798",
        "fast": "2c9992af8044dad4",
        "cut": "4dae6fdead2ec6d6",
        "fast>cut": "b74591dfa59edc0d",
        "edge": "594963d89697d932",
    },
    "bpam-cm1": {
        "default": "58520f7e59859f94",
        "fast": "c0762d1b7d5d0e58",
        "cut": "00cfedbab0338afe",
        "fast>cut": "984455a3956c3816",
        "edge": "65537edd2b1b1edb",
    },
    "ppm-none": {
        "default": "d8ecba2805af9d1e",
        "fast": "5f056fb35135580c",
        "cut": "1e9da5aa7db56a3f",
        "fast>cut": "6e24cef88a056b28",
        "edge": "81191070fe276fbe",
    },
    "ppm-short": {
        "default": "36adce9ed38e4e52",
        "fast": "ed41c999b0601abe",
        "cut": "c1f6edac4950c179",
        "fast>cut": "0ab2c996809318dd",
        "edge": "dac06a27a276dc02",
    },
    "ppm-cm1": {
        "default": "9e7d1742374866f4",
        "fast": "16b1d5f8d0f4e58b",
        "cut": "33b08417ba8560ce",
        "fast>cut": "9b67d4ffca2e1e51",
        "edge": "d168002532ec3847",
    },
}

# Each link by name: "a>b" sends at geometry a and receives at b.
BLOCK_LINKS = ("default", "fast", "cut", "fast>cut", "edge")


def _block_link(scheme, name):
    make = {"default": _default_receiver, "fast": _receiver,
            "cut": _cut_receiver, "edge": _edge_receiver}
    tx, _, rx = name.rpartition(">")
    return make[tx or rx](scheme), make[rx](scheme)


def _block_link_digest(scheme, channel, link, quantized):
    """Digest of the statistics of seeded simulate_links calls over one
    link, with and without noise, for a long and a short block: on the
    float datapath, or on 8- and 12-bit AGCs and a fixed 8-bit ADC. Each
    datapath keeps the seeds it had when one digest covered all four."""
    ch = {"none": None, "short": SHORT_CHANNEL,
          "cm1": draw_channel(CM1_LIKE, 14)}[channel]
    tx, rx = _block_link(scheme, link)
    fixed = QuantizerConfig(8, 2.0 * float(np.max(rx.template.samples)))
    datapaths = [None, QuantizerConfig(8), QuantizerConfig(12), fixed]
    digest = hashlib.sha256()
    seed = 16 * BLOCK_LINKS.index(link)
    for datapath in datapaths:
        rx_dp = replace(rx, datapath=datapath)
        for ebn0_db in (4.0, math.inf):
            for n_bits in (300, 37):
                seed += 1
                if (datapath is not None) != quantized:
                    continue
                stats = _block(
                    random_bits(seed, n_bits), tx, rx_dp, ebn0_db, seed, ch
                )
                digest.update(np.asarray(stats, np.float64).tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(BLOCK_DIGESTS))
def test_block_statistics_are_pinned(key):
    scheme, channel = key.split("-")
    got = {link: _block_link_digest(scheme, channel, link, False)
           for link in BLOCK_LINKS}
    assert got == BLOCK_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(QUANTIZED_BLOCK_DIGESTS))
def test_quantized_block_statistics_are_pinned(key):
    scheme, channel = key.split("-")
    got = {link: _block_link_digest(scheme, channel, link, True)
           for link in BLOCK_LINKS}
    assert got == QUANTIZED_BLOCK_DIGESTS[key]


def _block_channels(channel, n_blocks):
    """One realization per block: a fresh CM1 draw for each, or the same
    fixed channel (or None) for all."""
    if channel == "cm1":
        return [draw_channel(CM1_LIKE, 60 + b) for b in range(n_blocks)]
    fixed = {"none": None, "short": SHORT_CHANNEL, "long": LONG_CHANNEL}
    return [fixed[channel]] * n_blocks


def _assert_one_pass_equals_one_call_per_block(blocks, tx, rx, ebn0_db):
    one_pass = list(simulate_links(blocks, tx, rx, (ebn0_db,)))
    assert len(one_pass) == len(blocks)
    for got, (bits, noise_seed, channel) in zip(one_pass, blocks):
        alone = _record(bits, tx, rx, ebn0_db, noise_seed, channel)
        assert got.statistics.tobytes() == alone.statistics.tobytes()
        np.testing.assert_array_equal(got.decoded, alone.decoded)
        assert got.errors == alone.errors
        # the decisions, a uint8 array of statistic >= 0, and their
        # errors against the block's bits, each bit the receiver never
        # produced counting as one
        n, m = len(bits), len(got.decoded)
        assert got.decoded.dtype == np.uint8
        np.testing.assert_array_equal(got.decoded, got.statistics >= 0.0)
        np.testing.assert_array_equal(got.decoded, decide(got.statistics))
        assert got.errors == np.count_nonzero(got.decoded != bits[:m]) + n - m


@pytest.mark.parametrize("link", ["matched", "mismatched"])
@pytest.mark.parametrize("datapath", ["float", "agc8", "agc12", "fixed8"])
@pytest.mark.parametrize("channel", ["none", "short", "cm1", "long"])
@pytest.mark.parametrize("scheme", ["ook", "bpam", "ppm"])
def test_one_pass_equals_one_call_per_block(scheme, channel, datapath, link):
    # a sweep point of 2345 bits: blocks of 1000, 1000 and 345, each
    # with its own noise stream and channel
    if link == "matched":
        tx = rx = _default_receiver(scheme)
    else:
        tx, rx = _receiver(scheme), _cut_receiver(scheme)
    if datapath.startswith("agc"):
        rx = replace(rx, datapath=QuantizerConfig(int(datapath[3:])))
    if datapath == "fixed8":
        peak = float(np.max(rx.template.samples))
        rx = replace(rx, datapath=QuantizerConfig(8, 2.0 * peak))
    bits = random_bits(50, 2345)
    bits = [bits[at:at + BLOCK_BITS] for at in range(0, 2345, BLOCK_BITS)]
    assert [len(b) for b in bits] == [1000, 1000, 345]
    channels = _block_channels(channel, len(bits))
    blocks = [(b, 70 + i, ch) for i, (b, ch) in enumerate(zip(bits, channels))]
    for ebn0_db in (4.0, math.inf):
        _assert_one_pass_equals_one_call_per_block(blocks, tx, rx, ebn0_db)


@pytest.mark.parametrize("channel", ["none", "cm1"])
@pytest.mark.parametrize("datapath", ["float", "agc12"])
@pytest.mark.parametrize("scheme", ["ook", "bpam", "ppm"])
def test_each_link_of_a_pass_equals_its_own_call(scheme, datapath, channel):
    # three links over the same blocks and noise seeds, as a sweep's
    # grid points are: each differs in Eb/N0 and (OOK) in the threshold
    # that follows from it, and each link's records are those of
    # simulate_links over that link alone, byte for byte, whether its
    # receiver leaves the OOK threshold to the Eb/N0 or sets that
    # ook_threshold explicitly
    rx = replace(_default_receiver(scheme), threshold=None)
    if datapath == "agc12":
        rx = replace(rx, datapath=QuantizerConfig(12))
    points = [2.0, 6.0, math.inf]
    bits = random_bits(52, 2345)
    bits = [bits[at:at + BLOCK_BITS] for at in range(0, 2345, BLOCK_BITS)]
    channels = _block_channels(channel, len(bits))
    blocks = [(b, 90 + i, ch) for i, (b, ch) in enumerate(zip(bits, channels))]
    records = list(receiver.simulate_links(blocks, rx, rx, points))
    assert len(records) == 3 * len(blocks)
    for k, ebn0_db in enumerate(points):
        link = rx if scheme != "ook" else replace(
            rx, threshold=ook_threshold(rx, ebn0_db, ENERGY_PER_BIT[scheme]))
        alone = simulate_links(blocks, rx, link, (ebn0_db,))
        bare = simulate_links(blocks, rx, rx, (ebn0_db,))
        for got, want, own in zip(records[k::3], alone, bare, strict=True):
            for record in (got, own):
                assert record.statistics.tobytes() == want.statistics.tobytes()
                assert record.errors == want.errors


def test_quantized_pass_holds_one_window_matrix_for_any_links():
    # three PPM CM1 links on a 12-bit AGC share one block's noise
    # matrix: each link's windows are built, quantized and scored a
    # chunk at a time, so the block stays within the bound of one link
    # (test_quantized_block_holds_one_window_matrix)
    rx = replace(_default_receiver("ppm"), datapath=QuantizerConfig(12))
    block = (random_bits(12, BLOCK_BITS), 13, draw_channel(CM1_LIKE, 9))
    points = [2.0, 6.0, math.inf]
    tracemalloc.start()
    try:
        records = list(receiver.simulate_links([block], rx, rx, points))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 3
    assert peak / (8 * BLOCK_BITS * rx.window_len) < 1.5


@pytest.mark.parametrize("threshold, error", [
    (-1.0, InvalidParams), (math.nan, InvalidParams)])
@pytest.mark.parametrize("datapath", [None, QuantizerConfig(12)])
def test_an_ook_point_without_a_threshold_reads_no_block(datapath, threshold,
                                                         error):
    # an OOK point decides at the receiver's threshold, or at its
    # ook_threshold when the receiver sets none: an invalid threshold is
    # refused as the receiver is built, and an invalid Eb/N0 as the call
    # starts, both before the blocks iterator gives up a block
    rx = replace(_default_receiver("ook"), datapath=datapath, threshold=None)
    taken = []

    def blocks():
        for k in range(3):
            taken.append(k)
            yield random_bits(40 + k, BLOCK_BITS), 50 + k, None

    with pytest.raises(error):
        next(receiver.simulate_links(
            blocks(), rx, replace(rx, threshold=threshold), [4.0, 8.0]))
    with pytest.raises(InvalidParams):
        next(receiver.simulate_links(blocks(), rx, rx, [4.0, -math.inf]))
    assert taken == []


def test_a_quantized_block_samples_each_point_template_once(monkeypatch):
    # the ADC codes a point's template once per block, at that point's
    # full scale, and each of its 64-row window chunks once; before
    # that, the AGC's peak run builds only the chunks that can hold the
    # peak, a few of the 16 at 0 and 4 dB
    rx = replace(_default_receiver("ppm"), datapath=QuantizerConfig(12))
    block = (random_bits(14, BLOCK_BITS), 15, draw_channel(CM1_LIKE, 9))
    events = []
    chunk = receiver._chunk

    def spy_codes(y, *args):
        events.append(np.shape(y))
        return _codes(y, *args)

    def spy_chunk(z, first, scale, *args):
        events.append(scale)
        return chunk(z, first, scale, *args)

    monkeypatch.setattr(receiver, "_codes", spy_codes)
    monkeypatch.setattr(receiver, "_chunk", spy_chunk)
    [first, second] = receiver.simulate_links([block], rx, rx, [0.0, 4.0])
    assert len(first.statistics) == len(second.statistics) == BLOCK_BITS
    chunks = math.ceil(BLOCK_BITS / receiver._MERGE_ROWS)
    shapes = [e for e in events if isinstance(e, tuple)]
    assert shapes.count(rx.pulse.shape) == 2
    assert len(shapes) == 2 + 2 * chunks
    assert all(len(shape) == 2 for shape in shapes if shape != rx.pulse.shape)
    # the peak run builds chunks of sigma z + clean, the coding chunks
    # of z sigma / step + clean / step
    sigmas = [noise_sigma(e, ENERGY_PER_BIT["ppm"], RATE) for e in (0.0, 4.0)]
    built = Counter(e for e in events if not isinstance(e, tuple))
    assert all(1 <= built[sigma] < chunks for sigma in sigmas)
    assert sum(built.values()) - sum(built[s] for s in sigmas) == 2 * chunks


@pytest.mark.parametrize("channel", [False, True], ids=["awgn", "cm1"])
@pytest.mark.parametrize("scheme", ["ook", "bpam", "ppm"])
def test_agc_peak_run_finds_each_point_peak(scheme, channel, monkeypatch):
    # the peak run skips the chunks whose bound cannot raise the peak:
    # each point's full scale is still the peak over its whole window
    # matrix, built here explicitly, up to high Eb/N0 and without noise
    rx = replace(_default_receiver(scheme), datapath=QuantizerConfig(12))
    ch = draw_channel(CM1_LIKE, 9) if channel else None
    grid = (0.0, 4.0, 8.0, 16.0, 24.0, 40.0, 60.0, math.inf)
    seen, adcs = [], []
    quantized, lattice = receiver._quantized_statistics, receiver._lattice

    def spy_statistics(z, clean, block, rx_, points):
        seen.append((z.copy(), clean.copy(), block.copy(), points))
        return quantized(z, clean, block, rx_, points)

    def spy_lattice(adc):
        adcs.append(adc)
        return lattice(adc)

    monkeypatch.setattr(receiver, "_quantized_statistics", spy_statistics)
    monkeypatch.setattr(receiver, "_lattice", spy_lattice)
    list(receiver.simulate_links([(random_bits(16, BLOCK_BITS), 17, ch)],
                                 rx, rx, grid))
    [(z, clean, block, sigmas)] = seen
    assert len(adcs) == len(grid)
    for (sigma, _), adc in zip(sigmas, adcs):
        win = z * sigma + clean[block]
        assert adc == rx.datapath.for_samples(win)


@st.composite
def _quantized_links(draw):
    """A quantized link with a drawn ADC: a scheme, a FAST, edge or cut
    receiver, 1 to 16 bits (3 to 16 for OOK), an AGC or a fixed full
    scale, an Eb/N0 (inf: no noise), no channel or SHORT_CHANNEL, up to
    40 bits and a noise seed."""
    scheme = draw(st.sampled_from(["ook", "bpam", "ppm"]))
    rx = draw(st.sampled_from([_receiver, _edge_receiver, _cut_receiver]))(
        scheme)
    full_scale = draw(st.sampled_from([None, 0.5, 1.0, 2.0]))
    if full_scale is not None:
        full_scale *= float(np.max(rx.template.samples))
    rx = replace(rx, datapath=QuantizerConfig(
        draw(st.integers(3 if scheme == "ook" else 1, 16)), full_scale))
    ebn0_db = draw(st.sampled_from([math.inf, 0.0, 6.0, 12.0, 20.0]))
    channel = draw(st.sampled_from([None, SHORT_CHANNEL]))
    bits = np.array(draw(st.lists(st.integers(0, 1), min_size=1,
                                  max_size=40)))
    return bits, rx, ebn0_db, channel, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(_quantized_links())
def test_quantized_statistics_are_exact_sums_of_codes(link):
    # the pipeline's statistics are step^2 / 4 times the exact integer
    # sums of the oracle over the codes it scored, its decisions are the
    # oracle's, and every exact tie scores 0 and decodes as 1
    bits, rx, ebn0_db, channel, seed = link
    coded = []

    def spy(y, q, *bounds):
        coded.append((_codes(y, q, *bounds).copy(), q))
        return y

    with mock.patch.object(receiver, "_codes", spy):
        record = _record(bits, rx, rx, ebn0_db, seed, channel)
    (tpl, adc), *chunks = coded
    assert tpl.ndim == 1 and all(q == adc for _, q in chunks)
    codes = np.concatenate([chunk for chunk, _ in chunks])
    assert codes.shape == (len(bits), rx.window_len)
    levels = 1 << (adc.bits - 1)
    for c in (tpl, codes):
        assert np.all(c == np.floor(c))
        assert np.all((-levels <= c) & (c < levels))
    exact = oracles.quantized_statistics(codes, tpl, rx.mod.scheme)
    step = Fraction(2 * adc.full_scale) / (1 << adc.bits)
    want = [Fraction(e) * step * step / 4 for e in exact]
    if rx.mod.scheme == "ook":
        want = [w / Fraction(RATE) - Fraction(rx.threshold) for w in want]
    scale = max(abs(float(w)) for w in want) + (rx.threshold or 0.0)
    np.testing.assert_allclose(record.statistics, [float(w) for w in want],
                               rtol=1e-13, atol=1e-13 * scale)
    np.testing.assert_array_equal(record.decoded, [w >= 0 for w in want])
    ties = [i for i, e in enumerate(exact) if e == 0]
    if rx.mod.scheme != "ook":
        assert np.all(record.statistics[ties] == 0.0)
        assert np.all(record.decoded[ties] == 1)


def test_ties_of_a_low_bit_ppm_sweep_decode_as_one(monkeypatch):
    # a 3-bit PPM CM1 sweep holds exact ties at both points (91 of 4000
    # frames): the two correlations of codes are equal, the statistic is
    # exactly 0, and the frame decodes as 1
    events = []
    statistics = receiver._statistics

    def spy_codes(y, *args):
        events.append(("codes", _codes(y, *args).copy()))
        return y

    def spy_statistics(*args):
        events.append(("statistics", statistics(*args)))
        return events[-1][1]

    monkeypatch.setattr(receiver, "_codes", spy_codes)
    monkeypatch.setattr(receiver, "_statistics", spy_statistics)
    run_sweep(SweepConfig("ppm", (0.0, 4.0), 2000, channel=CM1_LIKE,
                          quant_bits=3, base_seed=5))
    # per point: the template's codes, then each chunk's codes and its
    # statistics
    tpl, ties = None, 0
    for (kind, codes), (_, stats) in zip(events, events[1:]):
        if kind == "codes" and codes.ndim == 1:
            tpl = codes
        elif kind == "codes":
            exact = np.array(oracles.quantized_statistics(codes, tpl, "ppm"))
            assert np.all(stats[exact == 0] == 0.0)
            ties += np.count_nonzero(exact == 0)
    assert ties == 91


# every scheme on the float and the quantized datapath, with and
# without multipath; cm1-agc12 is PPM's quantized CM1 link
SCORED_LINKS = ["cut>fast", "cm1-agc12"] + [
    f"{scheme}-{datapath}-{channel}"
    for scheme in ("ook", "bpam", "ppm") for datapath in ("float", "agc12")
    for channel in ("awgn", "cm1") if (scheme, datapath, channel) != (
        "ppm", "agc12", "cm1")]


@pytest.mark.parametrize("case", SCORED_LINKS)
def test_block_records_score_their_bits(case):
    # cut>fast receives 7.2 ns frames in 20 ns ones, so it decides about
    # a third of each block's bits and the rest count as errors
    if case == "cut>fast":
        tx, rx = _cut_receiver("bpam"), _receiver("bpam")
        channel = None
    else:
        scheme, datapath, link = (
            ("ppm", "agc12", "cm1") if case == "cm1-agc12"
            else case.split("-"))
        tx = _default_receiver(scheme)
        rx = tx if datapath == "float" else replace(
            tx, datapath=QuantizerConfig(12))
        channel = draw_channel(CM1_LIKE, 62) if link == "cm1" else None
    bits = random_bits(51, 2345)
    blocks = [(bits[at:at + BLOCK_BITS], 75 + at, channel)
              for at in range(0, len(bits), BLOCK_BITS)]
    _assert_one_pass_equals_one_call_per_block(blocks, tx, rx, 4.0)
    records = list(simulate_links(blocks, tx, rx, (4.0,)))
    unread = [len(b) - len(r.decoded) for r, (b, _, _) in zip(records, blocks)]
    if case == "cut>fast":
        assert all(0 < u < len(b) for u, (b, _, _) in zip(unread, blocks))
    else:
        assert unread == [0, 0, 0]
    assert all(0 < r.errors < len(b) for r, (b, _, _) in zip(records, blocks))


def test_fault_injected_session_segments_score_their_bits():
    # after the swap only the transmitter takes 9.6 ns frames, so the
    # receiver reads the second segment through its 20 ns ones: each
    # segment's decisions are its block record's
    bank = CodeBank(entries={"fast": FAST_CODE}, active_id="fast")
    state = PhyState(params=FAST_PARAMS, code_bank=bank,
                     mod=ModulationConfig("bpam"), pulse=FAST_PULSE,
                     sample_rate=RATE)
    swap = ReconfigRequest(effective_frame=600, new_t_c=2.4e-9,
                           reconfig_signal=True)
    bits = random_bits(52, 1500)
    result = run_session(bits, [swap], state, ebn0_db=4.0, rng_seed=5,
                         fault_inject=True)
    tx_states = [state, apply_reconfiguration(state, swap, 0)]
    assert [s.n_bits for s in result.segments] == [600, 900]
    for index, (segment, tx_state) in enumerate(zip(result.segments,
                                                    tx_states)):
        block = (bits[segment.start_frame:][:segment.n_bits],
                 point_seeds(5, index)[0], None)
        tx, rx = tx_state.link_end, state.link_end
        _assert_one_pass_equals_one_call_per_block([block], tx, rx, 4.0)
        [record] = simulate_links([block], tx, rx, (4.0,))
        assert segment.decoded.dtype == np.uint8
        np.testing.assert_array_equal(segment.decoded, record.decoded)
        assert segment.errors == record.errors
    assert len(result.segments[1].decoded) < 900


@pytest.mark.parametrize("datapath", [None, QuantizerConfig(12)],
                         ids=["float", "agc12"])
@pytest.mark.parametrize("scheme", ["ook", "bpam", "ppm"])
def test_passes_of_mixed_blocks_equal_one_call_per_block(scheme, datapath):
    # runs of mixed blocks, with and without a channel; a
    # one-bit block reads only code position 0, whose window stays in
    # its frame, while the others also read the cut last chip
    cfg = replace(_cut_receiver(scheme), code=ThCode((0, 2), "late"),
                  datapath=datapath)
    channels = [None, SHORT_CHANNEL, draw_channel(CM1_LIKE, 61), None,
                LONG_CHANNEL]
    sizes = [1, 300, 2, 37]
    blocks = [
        (random_bits(80 + i, sizes[i % 4]), 90 + i, channels[i % 5])
        for i in range(20)
    ]
    _assert_one_pass_equals_one_call_per_block(blocks, cfg, cfg, 4.0)


def test_blocks_past_the_int64_range_split_into_passes():
    # 3e18-sample frames: three fit the int64 sample index, four do
    # not, but each block counts its samples from its own start, so
    # eight one-bit blocks run on one layout, each as if alone
    cfg = _receiver("bpam", ThParams(t_c=5e-9, n_c=12 * 10**15))
    assert 3 * cfg.frame_len < np.iinfo(np.int64).max < 4 * cfg.frame_len
    blocks = [(np.array([b % 2]), b, None) for b in range(8)]
    _assert_one_pass_equals_one_call_per_block(blocks, cfg, cfg, 4.0)


@pytest.mark.parametrize(
    "bits", [[0.5, 1.7, 0.2, 1.0] * 50, [1.0, 0.0, float("inf")], [0, 1, 2]]
)
def test_non_binary_bits_rejected(bits):
    # a cast to int64 alone would run 0.5, 1.7, 0.2, 1.0 as 0, 1, 0, 1
    cfg = _receiver("bpam")
    with pytest.raises(InvalidParams, match="only 0 and 1"):
        _block(bits, cfg, cfg, 4.0, 0)


def test_integral_float_bits_equal_int_bits():
    cfg = _receiver("ppm")
    bits = random_bits(5, 200)
    np.testing.assert_array_equal(
        _block(bits.astype(float), cfg, cfg, 4.0, 7),
        _block(bits, cfg, cfg, 4.0, 7),
    )


def test_windows_of_a_long_channel_group_over_many_steps():
    # six or more pulses reach each window through LONG_CHANNEL, each at
    # one of about 6000 offsets, so grouping refines over that many
    # steps; the three blocks are as long and behind one realization
    # object, so they run on one layout
    cfg = _receiver("bpam")
    bits = random_bits(44, 900)
    blocks = [(b, 0, LONG_CHANNEL) for b in np.split(bits, 3)]
    records = list(simulate_links(blocks, cfg, cfg, (math.inf,)))
    for got, (b, _, ch) in zip(records, blocks):
        _assert_same_statistics(
            got.statistics, _noiseless_reference(b, cfg, cfg, ch))


def test_refined_window_groups_stay_exact_past_one_word():
    # four reaching pulses, each read from one of 2**16 + 1 positions
    # of either of two padded rows, span more than the 64 bits of a
    # word: window 1, whose last pulse alone differs (in its row), keeps
    # its own group, and so do windows 3 and 4, which read the same two
    # indices in swapped order
    stride = 2**16 + 1
    read = np.repeat([[4], [3], [2], [1]], 5, axis=1)
    read[3, 1] += stride
    read[:2, 3] = [5, 6]
    read[:2, 4] = [6, 5]
    rep, which = _distinct_windows(read, radix=2 * stride)
    assert len(rep) == 4
    assert which[0] == which[2]
    assert len({which[0], which[1], which[3], which[4]}) == 4
    np.testing.assert_array_equal(which[rep], np.arange(4))


def test_an_empty_pass_has_no_window_groups():
    rep, which = _distinct_windows(np.zeros((3, 0), dtype=np.int64), 10)
    assert len(rep) == len(which) == 0


def test_an_empty_pass_counted_has_no_window_groups():
    # no window reads an index, so any radix will do: 10 keys for no
    # window are sorted (above), a range of 0 keys is counted
    rep, which = _distinct_windows(np.zeros((3, 0), dtype=np.int64), 0)
    assert len(rep) == len(which) == 0


@st.composite
def _window_reads(draw):
    """(read, radix) for 0 to 6 steps over 0 to 3000 windows: a small
    radix over many windows, which _distinct_windows counts, or a large
    one over few windows, which it sorts."""
    steps = draw(st.integers(0, 6))
    if draw(st.booleans()):
        windows, radix = draw(st.integers(500, 3000)), draw(st.integers(1, 40))
    else:
        windows = draw(st.integers(0, 60))
        radix = draw(st.integers(2 * windows + 1, 10**6))
    # few distinct values per step, so that groups survive refinement
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.integers(0, radix, (steps, draw(st.integers(1, 4))))
    read = np.take_along_axis(
        values, rng.integers(0, values.shape[1], (steps, windows)), axis=1)
    return read, radix


@settings(max_examples=60, deadline=None)
@given(_window_reads())
def test_window_groups_match_the_distinct_columns(case):
    # np.unique numbers the distinct columns in increasing order of
    # their steps, as both ways of ranking number the groups
    read, radix = case
    rep, which = _distinct_windows(read, radix)
    _, inverse = np.unique(read.T, axis=0, return_inverse=True)
    np.testing.assert_array_equal(which, inverse.reshape(-1))
    np.testing.assert_array_equal(which[rep], np.arange(len(rep)))


@pytest.mark.parametrize("channel, sorts", [(None, False), ("cm1", True)],
                         ids=["awgn-counts", "cm1-sorts"])
def test_window_grouping_counts_awgn_and_sorts_cm1(channel, sorts,
                                                   monkeypatch):
    # a 2000-bit channel-free block sent in 63 ns tx frames (t_c 9 ns,
    # n_c 7) and read in the default 80 ns ones, as a fault-injected
    # session segment is, has some 2.4k keys for 1575 windows, so it is
    # ranked by counting; a default CM1 block has some 21k for 1000
    # windows, so it is sorted by np.unique. The channel is drawn before
    # the spy goes in, as draw_channel merges its delays with np.unique
    # too.
    rx = replace(_default_receiver("ppm"),
                 code=ThCode(offsets=(3, 0, 6, 2, 5, 1), code_id="short"))
    if channel is None:
        n, ch = 2 * BLOCK_BITS, None
        tx = replace(rx, params=ThParams(t_c=9e-9, n_c=7))
    else:
        n, ch, tx = BLOCK_BITS, draw_channel(CM1_LIKE, rng_seed=9), rx
    sorted_sizes = []
    unique = np.unique
    monkeypatch.setattr(np, "unique",
                        lambda a, *args, **kw: sorted_sizes.append(len(a))
                        or unique(a, *args, **kw))
    [record] = simulate_links([(random_bits(3, n), 3, ch)], tx, rx, (4.0,))
    assert len(record.statistics) == n * tx.frame_len // rx.frame_len
    assert bool(sorted_sizes) == sorts


@pytest.mark.parametrize("scheme", ["ook", "bpam", "ppm"])
def test_awgn_pass_builds_two_distinct_windows(scheme, monkeypatch):
    # without a channel a window holds its bit's pulse (none for an OOK
    # 0) at the same offset wherever it sits in its frame: a run of 8 or
    # of 20 1000-bit blocks scores its two clean windows once
    scored = []
    clean_law = receiver._clean_law

    def spy(win, cfg):
        scored.append(len(win))
        return clean_law(win, cfg)

    monkeypatch.setattr(receiver, "_clean_law", spy)
    cfg = _default_receiver(scheme)
    for n_blocks in (8, 20):
        scored.clear()
        blocks = [(random_bits(b, BLOCK_BITS), b, None)
                  for b in range(n_blocks)]
        records = list(simulate_links(blocks, cfg, cfg, (4.0,)))
        assert sum(len(r.statistics) for r in records) == n_blocks * 1000
        assert scored == [2]


def _sweep_point_peak(cfg):
    """Peak traced bytes of run_sweep(cfg)."""
    tracemalloc.start()
    try:
        run_sweep(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_sweep_point_memory_stays_at_one_pass():
    # a 100-block float point: simulate_links scores its blocks one at a
    # time, so the per-frame arrays of a block (about 20 values per bit)
    # never cover the whole point
    cfg = SweepConfig(
        scheme="bpam", ebn0_grid=(4.0,), n_bits_per_point=100 * BLOCK_BITS
    )
    assert _sweep_point_peak(cfg) < 5 * 8 * cfg.n_bits_per_point


def test_sweep_point_peaks_as_a_one_block_point():
    # a run of blocks holds one block's per-frame arrays at a time, over
    # the clean windows its layout holds: a 100-block float AWGN point
    # peaks about as a 1-block one does
    def point(n_blocks):
        return SweepConfig(scheme="bpam", ebn0_grid=(4.0,),
                           n_bits_per_point=n_blocks * BLOCK_BITS)

    assert _sweep_point_peak(point(100)) < 1.5 * _sweep_point_peak(point(1))


def test_channel_sweep_point_memory_stays_at_one_pass():
    # a 50-block CM1 float point: each block's layout is its own and
    # goes with its run, so the point peaks as a point of 8 blocks does
    # (about 5.7 MB either way)
    def point(n_blocks):
        return SweepConfig(scheme="bpam", ebn0_grid=(4.0,), channel=CM1_LIKE,
                           n_bits_per_point=n_blocks * BLOCK_BITS)

    assert _sweep_point_peak(point(50)) < 1.2 * _sweep_point_peak(point(8))


def _count_geometries(monkeypatch):
    """The block lengths receiver._layout is called for, and the blocks
    of each run, from here on."""
    built, runs = [], []
    layout, run = receiver._layout, receiver._run

    def layout_spy(tx, rx, n, shapes):
        built.append(n)
        return layout(tx, rx, n, shapes)

    def run_spy(blocks, *args):
        k = len(runs)
        runs.append(0)

        def counted():
            for block in blocks:
                runs[k] += 1
                yield block

        return run(counted(), *args)

    monkeypatch.setattr(receiver, "_layout", layout_spy)
    monkeypatch.setattr(receiver, "_run", run_spy)
    return built, runs


def test_blocks_without_a_channel_share_one_geometry(monkeypatch):
    # what reaches each window follows from the block's length alone,
    # not its bits: a 20-block AWGN point builds it once for one run
    built, runs = _count_geometries(monkeypatch)
    cfg = SweepConfig(scheme="ppm", ebn0_grid=(4.0,),
                      n_bits_per_point=20 * BLOCK_BITS)
    run_sweep(cfg)
    assert runs == [20]
    assert built == [BLOCK_BITS]


def test_a_sweep_grid_shares_its_clean_side(monkeypatch):
    # every grid point sees block k's bits and channel, so a run lays
    # out its blocks once for the whole grid: a 3-point, 20-block AWGN
    # sweep lays out once and runs once, not three times, and a 2-point,
    # 4-block CM1 sweep draws 4 channels, not 8
    built, runs = _count_geometries(monkeypatch)
    run_sweep(SweepConfig(scheme="ppm", ebn0_grid=(0.0, 4.0, 8.0),
                          n_bits_per_point=20 * BLOCK_BITS))
    assert runs == [20]
    assert built == [BLOCK_BITS]
    drawn = []
    monkeypatch.setattr(harness, "draw_channel",
                        lambda *a: drawn.append(a) or draw_channel(*a))
    run_sweep(SweepConfig(scheme="bpam", ebn0_grid=(4.0, 10.0),
                          channel=CM1_LIKE, n_bits_per_point=4 * BLOCK_BITS))
    assert len(drawn) == 4
    assert runs[1:] == [1, 1, 1, 1]


def test_channel_blocks_build_a_geometry_each(monkeypatch):
    # each block's channel gives it shapes of its own, so no two blocks
    # of a CM1 call share a layout, and each runs on its own
    built, runs = _count_geometries(monkeypatch)
    cfg = _default_receiver("bpam")
    blocks = [(random_bits(b, BLOCK_BITS), b, draw_channel(CM1_LIKE, 60 + b))
              for b in range(4)]
    assert len(list(simulate_links(blocks, cfg, cfg, (4.0,)))) == 4
    assert runs == [1, 1, 1, 1]
    assert built == [BLOCK_BITS] * 4


def test_blocks_behind_one_channel_object_share_a_layout(monkeypatch):
    # a layout follows from the link, the block's length and its shape
    # set alone, so consecutive blocks behind one realization object run
    # on one layout, each scored as if alone
    built, runs = _count_geometries(monkeypatch)
    cfg = _default_receiver("ppm")
    channel = draw_channel(CM1_LIKE, 60)
    blocks = [(random_bits(b, BLOCK_BITS), b, channel) for b in range(3)]
    records = list(simulate_links(blocks, cfg, cfg, (4.0, 10.0)))
    assert (built, runs) == ([BLOCK_BITS], [3])
    for b, block in enumerate(blocks):
        alone = list(simulate_links([block], cfg, cfg, (4.0, 10.0)))
        for got, want in zip(records[2 * b:2 * b + 2], alone):
            assert got.statistics.tobytes() == want.statistics.tobytes()
            assert got.decoded.tobytes() == want.decoded.tobytes()
            assert got.errors == want.errors


def test_each_block_is_read_after_the_one_before_is_scored():
    # a run reads its blocks one at a time: block k + 1 is taken from
    # the caller only once every record of block k is out
    events = []
    cfg = _default_receiver("bpam")

    def blocks():
        for b in range(10):
            events.append(("read", b))
            yield random_bits(b, BLOCK_BITS), b, None

    for k, _ in enumerate(simulate_links(blocks(), cfg, cfg, (4.0, 8.0))):
        events.append(("record", k // 2))
    assert events == [(event, b) for b in range(10)
                      for event in ("read", "record", "record")]


@pytest.mark.parametrize("sizes, channels, runs, built", [
    ([BLOCK_BITS] * 7, [None] * 3 + ["cm1"] + [None] * 3, [3, 1, 3],
     [BLOCK_BITS] * 3),
    ([BLOCK_BITS, BLOCK_BITS, 345], [None] * 3, [2, 1], [BLOCK_BITS, 345]),
], ids=["awgn-cm1-awgn", "awgn-short-last"])
def test_a_pass_holds_blocks_of_one_geometry(sizes, channels, runs, built,
                                             monkeypatch):
    # a run ends where the next block needs a layout of its own: a
    # channel block's is its own, a shorter block has one of its own
    # length, and the blocks without a channel after a channel block
    # build theirs again, since only the layout before a block is kept
    spied = _count_geometries(monkeypatch)
    cfg = _default_receiver("ppm")
    blocks = [(random_bits(b, n), b,
               draw_channel(CM1_LIKE, 60 + b) if ch else None)
              for b, (n, ch) in enumerate(zip(sizes, channels))]
    records = list(simulate_links(blocks, cfg, cfg, (4.0,)))
    assert [len(r.decoded) for r in records] == sizes
    assert spied == (built, runs)


def _window_law(bits, layout, cfg):
    """Each window's clean content, float-law statistic and norm for a
    block of bits on layout, as receiver._run reads them."""
    clean, which = receiver._block_windows(bits, *layout, cfg.window_len)
    stats, norm = receiver._clean_law(clean, cfg)
    return clean[which], stats[which], np.broadcast_to(norm, len(clean))[which]


@pytest.mark.parametrize("scheme", ["ook", "bpam", "ppm"])
@pytest.mark.parametrize("edge", [False, True], ids=["default", "edge"])
def test_one_link_end_lays_out_as_two_equal_ones(scheme, edge):
    # with tx and rx one configuration and shapes without spread (none,
    # or a one-tap channel's scaled rows), _layout skips its search and
    # a run reads each window's group off its bit; an equal
    # configuration that is another object takes the search, and an
    # all-zero, all-one or mixed block gets the same clean content,
    # statistic and norm in every window
    cfg = _edge_receiver(scheme) if edge else _default_receiver(scheme)
    twin = replace(cfg)
    for shapes in (cfg.pulse_table[1], 0.5 * cfg.pulse_table[1]):
        for n in (0, 1, 7, BLOCK_BITS):
            aligned = receiver._layout(cfg, cfg, n, shapes)
            assert aligned[1] is None
            searched = receiver._layout(cfg, twin, n, shapes)
            for bits in (np.zeros(n, np.int64), np.ones(n, np.int64),
                         random_bits(n, n)):
                own = _window_law(bits, aligned, cfg)
                want = _window_law(bits, searched, cfg)
                for got, expected in zip(own, want):
                    assert got.shape == expected.shape
                    assert got.dtype == expected.dtype
                    assert got.tobytes() == expected.tobytes()


NEGATING_CHANNEL = ChannelRealization(taps=((0.0, -1.0),))


@st.composite
def _aligned_links(draw):
    """(blocks, cfg, points) of a link whose two ends are one
    configuration: a FAST receiver of any scheme on the float datapath
    or behind a 3- or 12-bit AGC, 1 to 8 blocks of 0 to 2500 all-zero,
    all-one or mixed bits, each without a channel or behind a one-tap
    channel at delay 0 of gain 1 or -1, and 1 to 3 Eb/N0 points, one of
    them +inf."""
    scheme = draw(st.sampled_from(["ook", "bpam", "ppm"]))
    adc = draw(st.sampled_from([None, QuantizerConfig(3), QuantizerConfig(12)]))
    cfg = replace(_receiver(scheme), datapath=adc)
    common = draw(st.integers(0, 2500))
    blocks = []
    for b in range(draw(st.integers(1, 8))):
        n = draw(st.one_of(st.just(common), st.integers(0, 2500)))
        kind = draw(st.sampled_from(["zeros", "ones", "mixed"]))
        block_bits = (random_bits(b, n) if kind == "mixed"
                      else np.full(n, int(kind == "ones")))
        channel = draw(st.sampled_from(
            [None, IDENTITY_CHANNEL, NEGATING_CHANNEL]))
        blocks.append((block_bits, b, channel))
    points = draw(st.lists(st.sampled_from([0.0, 4.0, 8.0, 16.0]),
                           max_size=2))
    points.insert(draw(st.integers(0, len(points))), math.inf)
    return blocks, cfg, tuple(points)


@settings(max_examples=30, deadline=None)
@given(_aligned_links())
def test_an_aligned_pass_scores_as_a_searched_one(link):
    # one configuration at both ends reads each window's groups off its
    # bits; an equal one that is another object searches the layout and
    # groups the flat indices: every record agrees bit for bit
    blocks, cfg, points = link
    own = list(simulate_links(blocks, cfg, cfg, points))
    searched = list(simulate_links(blocks, cfg, replace(cfg), points))
    assert len(own) == len(searched) == len(blocks) * len(points)
    for got, want in zip(own, searched):
        assert got.statistics.tobytes() == want.statistics.tobytes()
        assert got.decoded.tobytes() == want.decoded.tobytes()
        assert got.errors == want.errors


def test_each_pass_runs_before_the_next_layout_is_built(monkeypatch):
    # blocks are read one at a time: a CM1 block's pass yields its
    # record before the next block's shape set and layout exist, so no
    # two blocks' layouts are held at once
    events = []
    layout = receiver._layout
    monkeypatch.setattr(receiver, "_layout",
                        lambda *args: events.append("layout") or layout(*args))
    cfg = _default_receiver("ook")
    blocks = [(random_bits(b, BLOCK_BITS), b, draw_channel(CM1_LIKE, 60 + b))
              for b in range(3)]
    for _ in simulate_links(blocks, cfg, cfg, (4.0,)):
        events.append("record")
    assert events == ["layout", "record"] * 3
