import numpy as np
import pytest

from uwbphy import (
    ConfigConflict,
    InvalidParams,
    ModulationConfig,
    SampledSignal,
    ThCode,
    ThParams,
    place_pulse_train,
    sample_pulse,
)
from uwbphy.framing import chip_samples, frame_samples
from uwbphy.transmitter import delta_samples

from conftest import FAST_PULSE, RATE, make_mod, random_bits


class TestModulationConfig:
    def test_unknown_scheme(self):
        with pytest.raises(InvalidParams):
            ModulationConfig(scheme="qam")

    def test_ppm_needs_positive_delta(self):
        with pytest.raises(InvalidParams):
            ModulationConfig(scheme="ppm", delta=0.0)

    def test_delta_is_ppm_only(self):
        with pytest.raises(InvalidParams):
            ModulationConfig(scheme="bpam", delta=1e-9)

    def test_valid_configs(self):
        ModulationConfig(scheme="ook")
        ModulationConfig(scheme="bpam")
        ModulationConfig(scheme="ppm", delta=2e-9)


class TestPlacement:
    def test_length_is_bit_count_times_frame(
        self, fast_params, fast_code, fast_template
    ):
        for scheme in ("ook", "bpam", "ppm"):
            tx = place_pulse_train(
                random_bits(0, 17),
                make_mod(scheme),
                fast_params,
                fast_code,
                fast_template,
            )
            assert len(tx) == 17 * frame_samples(fast_params, RATE)
            assert tx.sample_rate == RATE

    def test_empty_bits(self, fast_params, fast_code, fast_template):
        tx = place_pulse_train(
            [], make_mod("bpam"), fast_params, fast_code, fast_template
        )
        assert len(tx) == 0

    def test_ook_zeros_silent(self, fast_params, fast_code, fast_template):
        tx = place_pulse_train(
            np.zeros(32, dtype=int),
            make_mod("ook"),
            fast_params,
            fast_code,
            fast_template,
        )
        assert tx.energy() == 0.0

    def test_bpam_antipodal(self, fast_params, fast_code, fast_template):
        ones = place_pulse_train(
            [1], make_mod("bpam"), fast_params, fast_code, fast_template
        )
        zeros = place_pulse_train(
            [0], make_mod("bpam"), fast_params, fast_code, fast_template
        )
        np.testing.assert_array_equal(ones.samples, -zeros.samples)

    def test_ppm_shift_between_bits(self, fast_params, fast_code, fast_template):
        # per frame, the bit-1 waveform is the bit-0 waveform delayed by
        # exactly delta_samples
        mod = make_mod("ppm")
        d = delta_samples(mod, RATE)
        assert d == 120
        n = 8
        tx0 = place_pulse_train(
            np.zeros(n, dtype=int), mod, fast_params, fast_code, fast_template
        )
        tx1 = place_pulse_train(
            np.ones(n, dtype=int), mod, fast_params, fast_code, fast_template
        )
        frame = frame_samples(fast_params, RATE)
        for j in range(n):
            f0 = tx0.samples[j * frame : (j + 1) * frame]
            f1 = tx1.samples[j * frame : (j + 1) * frame]
            assert np.argmax(np.abs(f1)) - np.argmax(np.abs(f0)) == d

    def test_energy_counts_pulses(self, fast_params, fast_code, fast_template):
        bits = random_bits(3, 64)
        assert 0 < bits.sum() < len(bits)
        for scheme, pulses in (
            ("ook", int(bits.sum())),
            ("bpam", len(bits)),
            ("ppm", len(bits)),
        ):
            tx = place_pulse_train(
                bits, make_mod(scheme), fast_params, fast_code, fast_template
            )
            # pulses never overlap (one per frame, confined to a chip), so
            # total energy is the pulse count times unit pulse energy
            assert tx.energy() == pytest.approx(pulses, rel=1e-9)

    def test_pulses_confined_to_their_chips(
        self, fast_params, fast_code, fast_template
    ):
        # brute force: every nonzero sample of frame j must lie inside
        # [c_j * chip, c_j * chip + chip) within that frame
        chip = chip_samples(fast_params, RATE)
        frame = frame_samples(fast_params, RATE)
        bits = random_bits(11, 32)
        for scheme in ("ook", "bpam", "ppm"):
            tx = place_pulse_train(
                bits, make_mod(scheme), fast_params, fast_code, fast_template
            )
            for j in range(len(bits)):
                seg = tx.samples[j * frame : (j + 1) * frame]
                hot = np.nonzero(seg)[0]
                if hot.size == 0:
                    continue
                c = fast_code.offsets[j % len(fast_code)]
                assert hot.min() >= c * chip
                assert hot.max() < (c + 1) * chip

    @pytest.mark.parametrize(
        "scheme, t_c", [("bpam", 2.4e-9), ("ppm", 3.6e-9)]
    )
    def test_exact_fit_pulses_lose_their_last_sample(self, scheme, t_c):
        # 121 template samples plus the shift span the chip plus one
        # sample: every pulse, in any chip, is sent without its last
        # sample, so none reaches into the next chip. Two bits fill
        # fewer frames than the code has positions, 13 end part of the
        # way through a code period.
        params = ThParams(t_c=t_c, n_c=3)
        code = ThCode((0, 1, 2), "all")
        mod = ModulationConfig(scheme, delta=1.2e-9 if scheme == "ppm" else 0)
        ramp = SampledSignal(np.linspace(1.0, 2.0, 121), RATE)
        chip = chip_samples(params, RATE)
        shift = delta_samples(mod, RATE)
        assert len(ramp) + shift == chip + 1
        for n_bits in (0, 2, 13, 30):
            bits = random_bits(12, n_bits)
            frames = place_pulse_train(bits, mod, params, code, ramp).samples
            assert len(frames) == n_bits * 3 * chip
            for j, frame in enumerate(frames.reshape(n_bits, 3 * chip)):
                start = code.offsets[j % 3] * chip + shift * (
                    scheme == "ppm" and bits[j])
                want = np.zeros(3 * chip)
                want[start:start + 120] = ramp.samples[:120]
                if scheme == "bpam":
                    want *= 2.0 * bits[j] - 1.0
                np.testing.assert_array_equal(frame, want)

    def test_deterministic(self, fast_params, fast_code, fast_template):
        bits = random_bits(7, 40)
        a = place_pulse_train(
            bits, make_mod("ppm"), fast_params, fast_code, fast_template
        )
        b = place_pulse_train(
            bits, make_mod("ppm"), fast_params, fast_code, fast_template
        )
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_rejects_non_binary_bits(self, fast_params, fast_code, fast_template):
        with pytest.raises(InvalidParams):
            place_pulse_train(
                [0, 2], make_mod("ook"), fast_params, fast_code, fast_template
            )


class TestConfigConflicts:
    def test_pulse_too_long_for_chip(self, fast_code):
        tight = ThParams(t_c=2e-9, n_c=4)  # chip 100 samples < pulse 121
        with pytest.raises(ConfigConflict):
            place_pulse_train([1, 0], make_mod("bpam"), tight, fast_code,
                              sample_pulse(FAST_PULSE, RATE))

    def test_ppm_shift_overflows_chip(self, fast_code):
        # pulse alone fits (121 <= 250) but pulse + delta does not
        params = ThParams(t_c=5e-9, n_c=4)
        mod = ModulationConfig(scheme="ppm", delta=3.2e-9)  # 160 samples
        with pytest.raises(ConfigConflict):
            place_pulse_train([1, 0], mod, params, fast_code,
                              sample_pulse(FAST_PULSE, RATE))

    def test_code_offsets_out_of_range(self, fast_template):
        params = ThParams(t_c=5e-9, n_c=4)
        bad = ThCode((2, 0, 5, 1), "bad")
        with pytest.raises(ConfigConflict):
            place_pulse_train([1], make_mod("bpam"), params, bad, fast_template)

    def test_off_grid_chip(self, fast_code):
        params = ThParams(t_c=5.3e-9, n_c=4)  # 265 samples at 50 GS/s: on grid
        place_pulse_train([1], make_mod("bpam"), params, fast_code,
                          sample_pulse(FAST_PULSE, RATE))
        # 270.3 samples per chip at 51 GS/s: off grid
        off_grid = sample_pulse(FAST_PULSE, 51e9)
        with pytest.raises(ConfigConflict):
            place_pulse_train([1], make_mod("bpam"), params, fast_code,
                              off_grid)

    def test_ppm_shift_under_one_sample(self, fast_params, fast_code):
        # 1 ps is 0.05 samples at 50 GS/s: both PPM positions would read
        # the same samples and every bit would decode as 1
        mod = ModulationConfig(scheme="ppm", delta=1e-12)
        assert delta_samples(mod, RATE) == 0
        with pytest.raises(ConfigConflict, match="rounds to 0 samples"):
            place_pulse_train([1, 0], mod, fast_params, fast_code,
                              sample_pulse(FAST_PULSE, RATE))
        # 0.6 of a sample period rounds to one sample and is accepted
        one = ModulationConfig(scheme="ppm", delta=0.6 / RATE)
        place_pulse_train([1, 0], one, fast_params, fast_code,
                          sample_pulse(FAST_PULSE, RATE))
