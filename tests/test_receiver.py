from dataclasses import replace

import numpy as np
import pytest

from uwbphy import (
    InvalidParams,
    QuantizerConfig,
    RateMismatch,
    SampledSignal,
    ThCode,
    UncalibratedThreshold,
    WindowTooSmall,
    add_awgn,
    demodulate,
    ook_threshold,
    place_pulse_train,
    sample_pulse,
    synchronize,
)
from uwbphy import receiver
from uwbphy.channel import quantize_array
from uwbphy.framing import frame_samples

from conftest import FAST_PULSE, RATE, make_mod, make_receiver, random_bits

# wide_code with no positional collisions against this one, so decoding
# with the wrong code sees pure noise in every window
UNCORRELATED_WIDE = ThCode(offsets=(5, 3, 6, 0, 2, 7, 1, 4), code_id="other")


def transmit(scheme, bits, params, code, template, ebn0_db=np.inf, seed=0):
    tx = place_pulse_train(bits, make_mod(scheme), params, code, template)
    return add_awgn(tx, ebn0_db, 1.0 if scheme != "ook" else 0.5, rng_seed=seed)


def shifted(sig, shift, pad=0):
    arr = np.concatenate([np.zeros(shift), sig.samples, np.zeros(pad)])
    return SampledSignal(arr, sig.sample_rate)


class TestReceiverConfig:
    def test_default_window_is_template_support(
        self, fast_params, fast_code, fast_template
    ):
        cfg = make_receiver("ook", fast_params, fast_code, fast_template)
        assert cfg.integration_window == pytest.approx(
            (len(fast_template) - 1) / RATE
        )

    def test_window_cannot_exceed_chip(self, fast_params, fast_code, fast_template):
        with pytest.raises(InvalidParams):
            make_receiver(
                "ook",
                fast_params,
                fast_code,
                fast_template,
                integration_window=6e-9,
            )

    def test_window_must_be_positive(self, fast_params, fast_code, fast_template):
        with pytest.raises(InvalidParams):
            make_receiver(
                "ook",
                fast_params,
                fast_code,
                fast_template,
                integration_window=0.0,
            )

    def test_negative_threshold(self, fast_params, fast_code, fast_template):
        with pytest.raises(InvalidParams):
            make_receiver(
                "ook", fast_params, fast_code, fast_template, threshold=-0.1
            )

    def test_replace_threshold_is_functional(
        self, fast_params, fast_code, fast_template
    ):
        cfg = make_receiver("ook", fast_params, fast_code, fast_template)
        armed = replace(cfg, threshold=0.25)
        assert cfg.threshold is None
        assert armed.threshold == 0.25
        # replace validates the new config as construction does
        with pytest.raises(InvalidParams):
            replace(cfg, threshold=-0.1)

    def test_invalid_code_rejected(self, fast_params, fast_template):
        with pytest.raises(Exception):
            make_receiver(
                "bpam", fast_params, ThCode((9,), "bad"), fast_template
            )


class TestSynchronize:
    def test_aligned_signal_offset_zero(self, fast_params, fast_code, fast_template):
        cfg = make_receiver("bpam", fast_params, fast_code, fast_template)
        rx = transmit("bpam", np.ones(8, dtype=int), fast_params, fast_code, fast_template)
        est = synchronize(rx, cfg, search_window=64, n_sync_frames=8)
        assert est.offset == 0
        assert est.peak_metric == pytest.approx(8.0, rel=1e-9)

    @pytest.mark.parametrize("shift", [1, 17, 250])
    def test_finds_exact_shift(self, shift, fast_params, fast_code, fast_template):
        cfg = make_receiver("bpam", fast_params, fast_code, fast_template)
        tx = transmit("bpam", np.ones(8, dtype=int), fast_params, fast_code, fast_template)
        rx = shifted(tx, shift, pad=300)
        est = synchronize(rx, cfg, search_window=300, n_sync_frames=8)
        assert est.offset == shift

    def test_window_too_small(self, fast_params, fast_code, fast_template):
        cfg = make_receiver("bpam", fast_params, fast_code, fast_template)
        tx = transmit("bpam", np.ones(8, dtype=int), fast_params, fast_code, fast_template)
        with pytest.raises(WindowTooSmall):
            synchronize(tx, cfg, search_window=0, n_sync_frames=8)

    def test_signal_shorter_than_preamble(
        self, fast_params, fast_code, fast_template
    ):
        cfg = make_receiver("bpam", fast_params, fast_code, fast_template)
        short = SampledSignal(np.zeros(100), RATE)
        with pytest.raises(InvalidParams):
            synchronize(short, cfg, search_window=10, n_sync_frames=8)

    def test_noisy_acquisition_rate(self, fast_params, fast_code, fast_template):
        # at 12 dB a 16-frame preamble should land within +/- 1 sample
        # nearly every time
        cfg = make_receiver("bpam", fast_params, fast_code, fast_template)
        tx = place_pulse_train(
            np.ones(16, dtype=int),
            make_mod("bpam"),
            fast_params,
            fast_code,
            fast_template,
        )
        true_shift = 23
        hits = 0
        trials = 200
        for trial in range(trials):
            rx = add_awgn(
                shifted(tx, true_shift, pad=60), 12.0, 1.0, rng_seed=1000 + trial
            )
            est = synchronize(rx, cfg, search_window=80, n_sync_frames=16)
            hits += abs(est.offset - true_shift) <= 1
        assert hits >= 0.95 * trials

    def test_sync_feeds_demodulator(self, fast_params, fast_code, fast_template):
        cfg = make_receiver("bpam", fast_params, fast_code, fast_template)
        bits = random_bits(21, 40)
        preamble_bits = np.ones(8, dtype=int)
        tx = place_pulse_train(
            np.concatenate([preamble_bits, bits]),
            make_mod("bpam"),
            fast_params,
            fast_code,
            fast_template,
        )
        rx = shifted(tx, 31)
        est = synchronize(rx, cfg, search_window=50, n_sync_frames=8)
        assert est.offset == 31
        decoded = demodulate(rx, cfg, est)
        np.testing.assert_array_equal(decoded[8:], bits)


def _brute_force_sync(rx, cfg, search_window, n_sync_frames):
    """(offset, peak metric) by direct correlation of the whole received
    signal, quantized whole on the quantized datapath, the template at
    the same full scale."""
    rxs, tpl = rx.samples, cfg.template.samples
    if cfg.datapath is not None:
        adc = cfg.datapath.for_samples(rxs)
        rxs = quantize_array(rxs, adc)
        tpl = quantize_array(tpl, adc)
    preamble = place_pulse_train(
        np.ones(n_sync_frames, dtype=int), cfg.mod, cfg.params, cfg.code,
        SampledSignal(tpl, cfg.sample_rate),
    ).samples
    metric = np.correlate(rxs, preamble, mode="valid") / cfg.sample_rate
    metric = metric[:search_window + 1]
    best = int(np.argmax(metric))
    return best, metric[best]


class TestSynchronizeReference:
    """synchronize correlates only the samples that lags
    0..search_window reach, by FFT for any lag count; it must agree
    with direct correlation of the whole signal."""

    def _noisy_rx(self, cfg, shift, tail_frames, seed):
        tx = place_pulse_train(
            np.ones(8 + tail_frames, dtype=int), cfg.mod, cfg.params,
            cfg.code, cfg.template,
        )
        return add_awgn(shifted(tx, shift), 6.0, 1.0, rng_seed=seed)

    def _assert_matches_reference(self, rx, cfg, search_window):
        est = synchronize(rx, cfg, search_window, n_sync_frames=8)
        best, peak = _brute_force_sync(rx, cfg, search_window, 8)
        assert est.offset == best
        assert est.peak_metric == pytest.approx(peak, rel=1e-9)

    @pytest.mark.parametrize("search_window", [12, 1500])
    def test_long_signal(
        self, search_window, fast_params, fast_code, fast_template
    ):
        cfg = make_receiver("bpam", fast_params, fast_code, fast_template)
        rx = self._noisy_rx(cfg, 9, tail_frames=12, seed=search_window)
        self._assert_matches_reference(rx, cfg, search_window)

    @pytest.mark.parametrize(
        "tail_frames, search_window, lags", [(0, 400, 5), (2, 5000, 2005)]
    )
    def test_window_past_the_last_lag_clamps(
        self, tail_frames, search_window, lags, fast_params, fast_code,
        fast_template,
    ):
        # the signal ends `lags` samples past the preamble; a wider
        # window reads those lags and no more
        cfg = make_receiver("ppm", fast_params, fast_code, fast_template)
        rx = self._noisy_rx(cfg, 5, tail_frames, seed=1)
        assert len(rx) == 8 * cfg.frame_len + lags
        self._assert_matches_reference(rx, cfg, search_window)

    @pytest.mark.parametrize("search_window", [30, 1500])
    @pytest.mark.parametrize("bits", [3, 8])
    def test_quantized_datapath(
        self, bits, search_window, fast_params, fast_code, fast_template
    ):
        q = QuantizerConfig(bits, 1.5 * float(np.max(fast_template.samples)))
        cfg = make_receiver(
            "bpam", fast_params, fast_code, fast_template, datapath=q
        )
        rx = self._noisy_rx(cfg, 7, tail_frames=4, seed=bits)
        self._assert_matches_reference(rx, cfg, search_window)

    def test_agc_acquires_where_the_float_receiver_does(
        self, fast_params, fast_code, fast_template
    ):
        # an 8-bit AGC takes the peak of the samples it correlates as its
        # full scale; rx ends at the last lag read, so the reference,
        # which quantizes all of rx, sees the same full scale
        float_cfg = make_receiver("bpam", fast_params, fast_code, fast_template)
        agc = make_receiver("bpam", fast_params, fast_code, fast_template,
                            datapath=QuantizerConfig(8))
        tx = transmit("bpam", np.ones(8, dtype=int), fast_params, fast_code,
                      fast_template)
        rx = add_awgn(shifted(tx, 137, pad=163), 10.0, 1.0, rng_seed=11)
        assert len(rx) == 8 * agc.frame_len + 300
        for cfg in (float_cfg, agc):
            assert synchronize(rx, cfg, 300, n_sync_frames=8).offset == 137
        self._assert_matches_reference(rx, agc, 300)

    def test_quantizes_only_the_correlated_samples(
        self, monkeypatch, fast_params, fast_code, fast_template
    ):
        q = QuantizerConfig(8, float(np.max(fast_template.samples)))
        cfg = make_receiver(
            "bpam", fast_params, fast_code, fast_template, datapath=q
        )
        rx = self._noisy_rx(cfg, 2, tail_frames=500, seed=3)
        sizes = []

        def spy(x, *args, **kwargs):
            sizes.append(len(x))
            return quantize_array(x, *args, **kwargs)

        monkeypatch.setattr(receiver, "quantize_array", spy)
        synchronize(rx, cfg, search_window=20, n_sync_frames=8)
        preamble_len = 8 * cfg.frame_len
        assert sorted(sizes) == [len(fast_template), preamble_len + 20]

    @pytest.mark.parametrize("n_sync_frames", [0, -1, 2.5, float("nan")])
    def test_preamble_length_must_be_a_positive_integer(
        self, n_sync_frames, fast_params, fast_code, fast_template
    ):
        cfg = make_receiver("bpam", fast_params, fast_code, fast_template)
        rx = self._noisy_rx(cfg, 0, tail_frames=4, seed=0)
        with pytest.raises(InvalidParams, match="n_sync_frames"):
            synchronize(rx, cfg, search_window=10, n_sync_frames=n_sync_frames)


class TestGuards:
    def test_uncalibrated_threshold(self, fast_params, fast_code, fast_template):
        cfg = make_receiver("ook", fast_params, fast_code, fast_template)
        rx = transmit("ook", [1, 0], fast_params, fast_code, fast_template)
        with pytest.raises(UncalibratedThreshold):
            demodulate(rx, cfg)

    def test_rate_mismatch(self, fast_params, fast_code, fast_template):
        cfg = make_receiver("bpam", fast_params, fast_code, fast_template)
        rx = SampledSignal(np.zeros(4000), 25e9)
        with pytest.raises(RateMismatch):
            demodulate(rx, cfg)

    def test_simulate_links_names_tx_and_rx_rates(self, fast_params, fast_code):
        def at(rate):
            return make_receiver("bpam", fast_params, fast_code,
                                 sample_pulse(FAST_PULSE, rate))

        blocks = [(np.array([1, 0]), 0, None)]
        with pytest.raises(RateMismatch,
                           match=r"tx at 5e\+10 S/s but rx at 1e\+11 S/s"):
            list(receiver.simulate_links(blocks, at(50e9), at(100e9),
                                         (4.0,)))

    def test_empty_rx_decodes_nothing(self, fast_params, fast_code, fast_template):
        cfg = make_receiver("bpam", fast_params, fast_code, fast_template)
        rx = SampledSignal(np.zeros(10), RATE)  # less than one frame
        assert len(demodulate(rx, cfg)) == 0


class TestBpam:
    def test_noiseless_loopback(self, fast_params, fast_code, fast_template):
        bits = random_bits(5, 200)
        rx = transmit("bpam", bits, fast_params, fast_code, fast_template)
        cfg = make_receiver("bpam", fast_params, fast_code, fast_template)
        np.testing.assert_array_equal(demodulate(rx, cfg), bits)

    def test_negated_rx_flips_every_bit(self, fast_params, fast_code, fast_template):
        bits = random_bits(6, 100)
        rx = transmit("bpam", bits, fast_params, fast_code, fast_template)
        neg = SampledSignal(-rx.samples, RATE)
        cfg = make_receiver("bpam", fast_params, fast_code, fast_template)
        np.testing.assert_array_equal(demodulate(neg, cfg), 1 - bits)

    def test_all_zero_rx_decodes_ones(self, fast_params, fast_code, fast_template):
        # zero correlation is a tie and ties decode as 1
        cfg = make_receiver("bpam", fast_params, fast_code, fast_template)
        frame = frame_samples(fast_params, RATE)
        rx = SampledSignal(np.zeros(frame * 5), RATE)
        np.testing.assert_array_equal(demodulate(rx, cfg), np.ones(5))


class TestPpm:
    def test_noiseless_loopback(self, fast_params, fast_code, fast_template):
        bits = random_bits(8, 200)
        rx = transmit("ppm", bits, fast_params, fast_code, fast_template)
        cfg = make_receiver("ppm", fast_params, fast_code, fast_template)
        np.testing.assert_array_equal(demodulate(rx, cfg), bits)

    def test_nominal_position_only(self, fast_params, fast_code, fast_template):
        rx = transmit(
            "ppm", np.zeros(50, dtype=int), fast_params, fast_code, fast_template
        )
        cfg = make_receiver("ppm", fast_params, fast_code, fast_template)
        np.testing.assert_array_equal(
            demodulate(rx, cfg), np.zeros(50, dtype=np.uint8)
        )

    def test_shifted_position_only(self, fast_params, fast_code, fast_template):
        rx = transmit(
            "ppm", np.ones(50, dtype=int), fast_params, fast_code, fast_template
        )
        cfg = make_receiver("ppm", fast_params, fast_code, fast_template)
        np.testing.assert_array_equal(
            demodulate(rx, cfg), np.ones(50, dtype=np.uint8)
        )


class TestOok:
    def test_noiseless_loopback(self, fast_params, fast_code, fast_template):
        bits = random_bits(9, 200)
        cfg = make_receiver("ook", fast_params, fast_code, fast_template)
        theta = ook_threshold(cfg, np.inf, 0.5)
        rx = transmit("ook", bits, fast_params, fast_code, fast_template)
        np.testing.assert_array_equal(
            demodulate(rx, replace(cfg, threshold=theta)), bits
        )

    def test_all_zero_rx_decodes_zeros(self, fast_params, fast_code, fast_template):
        cfg = make_receiver(
            "ook", fast_params, fast_code, fast_template, threshold=0.25
        )
        frame = frame_samples(fast_params, RATE)
        rx = SampledSignal(np.zeros(frame * 7), RATE)
        np.testing.assert_array_equal(demodulate(rx, cfg), np.zeros(7))

    def test_short_integration_window(self, fast_params, fast_code, fast_template):
        # a 1 ns window captures the bulk of the pulse energy; at its
        # own half-energy threshold the noiseless link still decodes
        bits = random_bits(10, 100)
        cfg = make_receiver(
            "ook",
            fast_params,
            fast_code,
            fast_template,
            integration_window=1e-9,
        )
        theta = ook_threshold(cfg, np.inf, 0.5)
        assert 0.0 < theta < 0.5
        rx = transmit("ook", bits, fast_params, fast_code, fast_template)
        np.testing.assert_array_equal(
            demodulate(rx, replace(cfg, threshold=theta)), bits
        )

    def test_demodulate_dispatch(self, fast_params, fast_code, fast_template):
        bits = random_bits(12, 60)
        for scheme in ("ook", "bpam", "ppm"):
            kwargs = {"threshold": 0.5} if scheme == "ook" else {}
            cfg = make_receiver(
                scheme, fast_params, fast_code, fast_template, **kwargs
            )
            rx = transmit(scheme, bits, fast_params, fast_code, fast_template)
            np.testing.assert_array_equal(demodulate(rx, cfg), bits)


class TestCodeMismatch:
    def test_wrong_code_reads_noise(self, wide_params, wide_code, fast_template):
        # the two codes never share a chip in any frame, so a receiver
        # with the wrong code correlates pure noise: BER near 1/2
        n = 10_000
        bits = random_bits(13, n)
        rx = transmit(
            "bpam", bits, wide_params, wide_code, fast_template, ebn0_db=10.0, seed=3
        )
        cfg = make_receiver("bpam", wide_params, UNCORRELATED_WIDE, fast_template)
        ber = float(np.mean(demodulate(rx, cfg) != bits))
        assert 0.4 <= ber <= 0.6

    def test_right_code_still_fine(self, wide_params, wide_code, fast_template):
        bits = random_bits(13, 2000)
        rx = transmit("bpam", bits, wide_params, wide_code, fast_template)
        cfg = make_receiver("bpam", wide_params, wide_code, fast_template)
        assert np.array_equal(demodulate(rx, cfg), bits)


class TestQuantizedDatapath:
    @pytest.mark.parametrize("scheme", ["ook", "bpam", "ppm"])
    def test_noiseless_loopback_12_bit(
        self, scheme, fast_params, fast_code, fast_template
    ):
        bits = random_bits(14, 100)
        tx = place_pulse_train(
            bits, make_mod(scheme), fast_params, fast_code, fast_template
        )
        q = QuantizerConfig(bits=12, full_scale=float(np.max(np.abs(tx.samples))))
        kwargs = {"datapath": q}
        if scheme == "ook":
            kwargs["threshold"] = None
        cfg = make_receiver(scheme, fast_params, fast_code, fast_template, **kwargs)
        if scheme == "ook":
            theta = ook_threshold(cfg, np.inf, 0.5)
            cfg = replace(cfg, threshold=theta)
        np.testing.assert_array_equal(demodulate(tx, cfg), bits)

    def test_12_bit_decisions_track_float(
        self, fast_params, fast_code, fast_template
    ):
        n = 2000
        bits = random_bits(15, n)
        rx = transmit(
            "bpam", bits, fast_params, fast_code, fast_template, ebn0_db=8.0, seed=4
        )
        float_cfg = make_receiver("bpam", fast_params, fast_code, fast_template)
        q = QuantizerConfig(bits=12, full_scale=float(np.max(np.abs(rx.samples))))
        quant_cfg = make_receiver(
            "bpam", fast_params, fast_code, fast_template, datapath=q
        )
        agree = np.mean(demodulate(rx, float_cfg) == demodulate(rx, quant_cfg))
        assert agree >= 0.995

    def test_one_bit_is_worse_than_twelve(
        self, fast_params, fast_code, fast_template
    ):
        n = 4000
        bits = random_bits(16, n)
        rx = transmit(
            "bpam", bits, fast_params, fast_code, fast_template, ebn0_db=6.0, seed=5
        )
        errors = {}
        for b in (1, 12):
            q = QuantizerConfig(
                bits=b, full_scale=float(np.max(np.abs(rx.samples)))
            )
            cfg = make_receiver(
                "bpam", fast_params, fast_code, fast_template, datapath=q
            )
            errors[b] = int(np.sum(demodulate(rx, cfg) != bits))
        assert errors[1] > errors[12]


class TestCalibration:
    def test_noiseless_threshold_is_half_window_energy(
        self, fast_params, fast_code, fast_template
    ):
        cfg = make_receiver("ook", fast_params, fast_code, fast_template)
        theta = ook_threshold(cfg, np.inf, 0.5)
        assert theta == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("shift, window", [
        (0, None), (0, 40 / RATE), (3, 2 / RATE),
    ], ids=["default-window", "short-window", "zero-energy-window"])
    def test_noiseless_threshold_is_exactly_half_window_energy(
        self, fast_params, fast_code, fast_template, shift, window
    ):
        # without noise the closed form (0.5 E + 0 w) / rate is exactly
        # 0.5 * E / rate, E the energy of the window's template
        # samples; three leading zeros leave a 2-sample window none
        template = shifted(fast_template, shift)
        cfg = make_receiver("ook", fast_params, fast_code, template,
                            integration_window=window)
        tpl = template.samples[:cfg.window_len]
        energy = float(np.dot(tpl, tpl))
        theta = ook_threshold(cfg, np.inf, 0.5)
        assert theta == 0.5 * energy / RATE
        assert (energy == 0.0) == (shift > 0)

    def test_matches_analytic_midpoint(self, fast_params, fast_code, fast_template):
        # M*N0/2 + E_w/2 in N0 units, with the unit-energy template's
        # whole energy in the default window
        cfg = make_receiver("ook", fast_params, fast_code, fast_template)
        ebn0_db, eb = 10.0, 0.5
        n0 = eb / 10 ** (ebn0_db / 10)
        m = round(cfg.integration_window * RATE)
        analytic = m * n0 / 2 + 1.0 / 2
        assert ook_threshold(cfg, ebn0_db, eb) == pytest.approx(analytic,
                                                                rel=1e-9)

    def test_positive_energy_required(self, fast_params, fast_code, fast_template):
        cfg = make_receiver("ook", fast_params, fast_code, fast_template)
        with pytest.raises(InvalidParams):
            ook_threshold(cfg, 8.0, 0.0)
