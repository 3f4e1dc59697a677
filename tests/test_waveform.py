import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from uwbphy import (
    InvalidParams,
    PulseShape,
    RateMismatch,
    SampledSignal,
    UndersampledPulse,
    inner_product,
    pulse_value,
    sample_pulse,
)

TAU = 0.5e-9
SHAPE = PulseShape(tau=TAU, duration=4e-9)
RATE = 50e9


class TestPulseValue:
    def test_unit_peak(self):
        assert pulse_value(SHAPE, 0.0) == 1.0

    @given(st.floats(min_value=1e-12, max_value=5e-9))
    def test_even_symmetry(self, t):
        assert pulse_value(SHAPE, t) == pulse_value(SHAPE, -t)

    def test_small_beyond_three_tau(self):
        # compare against the closed form evaluated independently
        expected = oracles.pulse_waveform(3 * TAU, TAU)
        assert abs(expected) < 1e-3
        assert pulse_value(SHAPE, 3 * TAU) == pytest.approx(expected)

    def test_zero_outside_support(self):
        assert pulse_value(SHAPE, 2.1e-9) == 0.0
        assert pulse_value(SHAPE, -5e-9) == 0.0

    def test_vectorized(self):
        t = np.array([0.0, 1e-9, -1e-9, 3e-9])
        out = pulse_value(SHAPE, t)
        assert out.shape == (4,)
        assert out[0] == 1.0
        assert out[3] == 0.0

    def test_tau_must_be_positive(self):
        with pytest.raises(InvalidParams):
            PulseShape(tau=0.0, duration=4e-9)

    def test_duration_floor(self):
        with pytest.raises(InvalidParams):
            PulseShape(tau=TAU, duration=5.9 * TAU)
        PulseShape(tau=TAU, duration=6 * TAU)  # boundary is legal

    def test_unknown_kind(self):
        with pytest.raises(InvalidParams):
            PulseShape(tau=TAU, duration=4e-9, kind="chirp")


class TestSamplePulse:
    def test_unit_energy(self):
        sig = sample_pulse(SHAPE, RATE)
        assert sig.energy() == pytest.approx(1.0, rel=1e-12)

    def test_unit_energy_at_double_rate(self):
        sig = sample_pulse(SHAPE, 2 * RATE)
        assert sig.energy() == pytest.approx(1.0, rel=1e-12)

    def test_grid_is_centered(self):
        sig = sample_pulse(SHAPE, RATE)
        assert len(sig) % 2 == 1
        assert np.argmax(sig.samples) == len(sig) // 2

    def test_undersampled_rejected(self):
        with pytest.raises(UndersampledPulse):
            sample_pulse(SHAPE, 19.0 / TAU)
        sample_pulse(SHAPE, 20.0 / TAU)

    def test_autocorrelation_peaks_at_zero_lag(self):
        sig = sample_pulse(SHAPE, RATE)
        at_zero = inner_product(sig, sig, 0)
        others = [
            inner_product(sig, sig, lag)
            for lag in range(-len(sig), len(sig) + 1)
            if lag != 0
        ]
        assert at_zero > max(others)

    def test_truncation_keeps_pulse_energy(self):
        # quadrature oracle: tail beyond the support is negligible
        total = oracles.pulse_energy_quadrature(TAU, 10 * TAU)
        kept = oracles.pulse_energy_quadrature(TAU, 0.5 * SHAPE.duration)
        assert kept / total >= 0.999

    def test_raw_energy_matches_closed_form(self):
        # discrete energy of the unnormalized pulse ~ (3/8) tau
        half = int(round(0.5 * SHAPE.duration * RATE))
        t = np.arange(-half, half + 1) / RATE
        raw = oracles.pulse_waveform(t, TAU)
        discrete = float(np.dot(raw, raw) / RATE)
        assert discrete == pytest.approx(
            oracles.pulse_energy_analytic(TAU), rel=1e-3
        )


class TestInnerProduct:
    def setup_method(self):
        self.p = sample_pulse(SHAPE, RATE)

    def test_self_at_zero_lag(self):
        assert inner_product(self.p, self.p, 0) == pytest.approx(1.0, rel=1e-12)

    def test_zero_signal_annihilates(self):
        z = SampledSignal(np.zeros(50), RATE)
        assert inner_product(self.p, z, 3) == 0.0

    def test_negation(self):
        neg = SampledSignal(-self.p.samples, RATE)
        assert inner_product(self.p, neg, 0) == pytest.approx(-1.0, rel=1e-12)

    def test_rate_mismatch(self):
        other = SampledSignal(self.p.samples, 2 * RATE)
        with pytest.raises(RateMismatch):
            inner_product(self.p, other, 0)

    def test_disjoint_lags_are_zero(self):
        assert inner_product(self.p, self.p, len(self.p)) == 0.0
        assert inner_product(self.p, self.p, -len(self.p)) == 0.0

    def test_lag_matches_brute_force(self):
        rng = np.random.default_rng(5)
        a = SampledSignal(rng.standard_normal(40), RATE)
        b = SampledSignal(rng.standard_normal(25), RATE)
        for lag in (-30, -7, 0, 3, 24, 39):
            expected = 0.0
            for k in range(len(a)):
                j = k - lag
                if 0 <= j < len(b):
                    expected += a.samples[k] * b.samples[j]
            expected /= RATE
            assert inner_product(a, b, lag) == pytest.approx(expected)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_bilinear_in_first_argument(self, alpha):
        scaled = SampledSignal(alpha * self.p.samples, RATE)
        assert inner_product(scaled, self.p, 4) == pytest.approx(
            alpha * inner_product(self.p, self.p, 4), abs=1e-9
        )

    @given(st.integers(min_value=-150, max_value=150))
    def test_cauchy_schwarz(self, lag):
        rng = np.random.default_rng(11)
        a = SampledSignal(rng.standard_normal(120), RATE)
        b = SampledSignal(rng.standard_normal(90), RATE)
        bound = np.sqrt(a.energy() * b.energy())
        assert abs(inner_product(a, b, lag)) <= bound + 1e-9
