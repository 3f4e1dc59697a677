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
    calibrate_ook_threshold,
    demodulate,
    place_pulse_train,
    synchronize,
)
from uwbphy.framing import frame_samples

from conftest import RATE, make_mod, make_receiver, random_bits

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

    def test_with_threshold_is_functional(
        self, fast_params, fast_code, fast_template
    ):
        cfg = make_receiver("ook", fast_params, fast_code, fast_template)
        armed = cfg.with_threshold(0.25)
        assert cfg.threshold is None
        assert armed.threshold == 0.25

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
        theta = calibrate_ook_threshold(cfg, np.inf, 0.5, 1000, rng_seed=0)
        rx = transmit("ook", bits, fast_params, fast_code, fast_template)
        np.testing.assert_array_equal(
            demodulate(rx, cfg.with_threshold(theta)), bits
        )

    def test_all_zero_rx_decodes_zeros(self, fast_params, fast_code, fast_template):
        cfg = make_receiver(
            "ook", fast_params, fast_code, fast_template, threshold=0.25
        )
        frame = frame_samples(fast_params, RATE)
        rx = SampledSignal(np.zeros(frame * 7), RATE)
        np.testing.assert_array_equal(demodulate(rx, cfg), np.zeros(7))

    def test_short_integration_window(self, fast_params, fast_code, fast_template):
        # a 1 ns window captures the bulk of the pulse energy; with a
        # matching calibrated threshold the noiseless link still decodes
        bits = random_bits(10, 100)
        cfg = make_receiver(
            "ook",
            fast_params,
            fast_code,
            fast_template,
            integration_window=1e-9,
        )
        theta = calibrate_ook_threshold(cfg, np.inf, 0.5, 1000, rng_seed=0)
        assert 0.0 < theta < 0.5
        rx = transmit("ook", bits, fast_params, fast_code, fast_template)
        np.testing.assert_array_equal(
            demodulate(rx, cfg.with_threshold(theta)), bits
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
            theta = calibrate_ook_threshold(cfg, np.inf, 0.5, 1000, rng_seed=0)
            cfg = cfg.with_threshold(theta)
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
        theta = calibrate_ook_threshold(cfg, np.inf, 0.5, 500, rng_seed=1)
        assert theta == pytest.approx(0.5, abs=1e-9)

    def test_deterministic(self, fast_params, fast_code, fast_template):
        cfg = make_receiver("ook", fast_params, fast_code, fast_template)
        a = calibrate_ook_threshold(cfg, 8.0, 0.5, 500, rng_seed=7)
        b = calibrate_ook_threshold(cfg, 8.0, 0.5, 500, rng_seed=7)
        c = calibrate_ook_threshold(cfg, 8.0, 0.5, 500, rng_seed=8)
        assert a == b
        assert a != c

    def test_matches_analytic_midpoint(self, fast_params, fast_code, fast_template):
        # empirical midpoint converges to M*N0/2 + E_w/2
        cfg = make_receiver("ook", fast_params, fast_code, fast_template)
        ebn0_db, eb = 10.0, 0.5
        n0 = eb / 10 ** (ebn0_db / 10)
        m = round(cfg.integration_window * RATE)
        analytic = m * n0 / 2 + 1.0 / 2
        theta = calibrate_ook_threshold(cfg, ebn0_db, eb, 20_000, rng_seed=2)
        assert theta == pytest.approx(analytic, rel=0.02)

    def test_minimum_frames(self, fast_params, fast_code, fast_template):
        cfg = make_receiver("ook", fast_params, fast_code, fast_template)
        with pytest.raises(InvalidParams):
            calibrate_ook_threshold(cfg, 8.0, 0.5, 99, rng_seed=0)
        calibrate_ook_threshold(cfg, 8.0, 0.5, 100, rng_seed=0)

    def test_positive_energy_required(self, fast_params, fast_code, fast_template):
        cfg = make_receiver("ook", fast_params, fast_code, fast_template)
        with pytest.raises(InvalidParams):
            calibrate_ook_threshold(cfg, 8.0, 0.0, 500, rng_seed=0)
