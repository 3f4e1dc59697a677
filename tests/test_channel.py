import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import kstest, poisson

from uwbphy import (
    CM1_LIKE,
    DEFAULT_PULSE,
    DEFAULT_SAMPLE_RATE,
    ChannelRealization,
    FormatError,
    IDENTITY_CHANNEL,
    InvalidParams,
    QuantizerConfig,
    SampledSignal,
    SvProfile,
    add_awgn,
    apply_channel,
    draw_channel,
    load_profile_file,
    sample_pulse,
)
from uwbphy.channel import (
    MAX_EXCESS_DELAY_NS,
    MAX_EXPECTED_TAPS,
    _fft_convolve,
    quantize_array,
)

import oracles

# A light profile for statistics over many draws: short excess-delay
# window, modest ray rate.
SMALL_SV = SvProfile(
    cluster_arrival_rate=0.08,
    ray_arrival_rate=0.9,
    cluster_decay=15.0,
    ray_decay=8.0,
    mean_clusters=2.5,
    max_excess_delay=60.0,
    profile_id="test-small",
)

CM1_TAPS_DIGEST = (
    "11cdaa82d6f27c911c2c01d7bf1a6318ce43664f51c8e875964f454954669532"
)


def ramp_signal(n=256, rate=1e9):
    return SampledSignal(np.linspace(-1.0, 1.0, n), rate)


class TestAddAwgn:
    def test_infinite_snr_is_identity(self):
        sig = ramp_signal()
        assert add_awgn(sig, float("inf"), 1.0, rng_seed=5) is sig

    def test_deterministic(self):
        sig = ramp_signal()
        a = add_awgn(sig, 6.0, 1.0, rng_seed=42)
        b = add_awgn(sig, 6.0, 1.0, rng_seed=42)
        c = add_awgn(sig, 6.0, 1.0, rng_seed=43)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_noise_independent_of_signal(self):
        rate = 1e9
        x = SampledSignal(np.sin(np.arange(500)), rate)
        z = SampledSignal(np.zeros(500), rate)
        nx = add_awgn(x, 4.0, 1.0, rng_seed=9).samples - x.samples
        nz = add_awgn(z, 4.0, 1.0, rng_seed=9).samples
        # recovering the noise by subtraction reintroduces float round-off
        np.testing.assert_allclose(nx, nz, rtol=1e-12, atol=1e-9)

    def test_variance_and_mean(self):
        # sigma^2 = (N0/2) * sample_rate with N0 = Eb / 10^(dB/10)
        n = 1_000_000
        rate = 2e6
        ebn0_db = 3.0
        eb = 0.5
        n0 = eb / 10 ** (ebn0_db / 10)
        sigma2 = 0.5 * n0 * rate
        noise = add_awgn(
            SampledSignal(np.zeros(n), rate), ebn0_db, eb, rng_seed=77
        ).samples
        # variance estimator std is sigma^2 * sqrt(2/n) ~ 0.14%
        assert np.var(noise) == pytest.approx(sigma2, rel=0.01)
        assert abs(np.mean(noise)) <= 5 * np.sqrt(sigma2 / n)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(InvalidParams):
            add_awgn(ramp_signal(), 6.0, 0.0, rng_seed=0)

    @pytest.mark.parametrize("ebn0_db", [math.nan, -math.inf, -4000.0])
    def test_rejects_eb_n0_without_finite_noise(self, ebn0_db):
        with pytest.raises(InvalidParams):
            add_awgn(ramp_signal(), ebn0_db, 1.0, rng_seed=0)

    def test_unrepresentably_high_eb_n0_is_noiseless(self):
        sig = ramp_signal()
        assert add_awgn(sig, 4000.0, 1.0, rng_seed=0) is sig


class TestChannelRealization:
    def test_normalized_on_construction(self):
        ch = ChannelRealization(taps=((0.0, 3.0), (1e-9, 4.0)))
        np.testing.assert_allclose(ch.gains(), [0.6, 0.8])

    def test_taps_are_a_read_only_array(self):
        given = np.array([[0.0, 3.0], [1e-9, 4.0]])
        ch = ChannelRealization(taps=given)
        given[0, 1] = 9.0
        assert ch.taps.shape == (2, 2) and ch.taps.dtype == np.float64
        np.testing.assert_allclose(ch.gains(), [0.6, 0.8])
        assert np.shares_memory(ch.delays(), ch.taps)
        assert np.shares_memory(ch.gains(), ch.taps)
        with pytest.raises(ValueError):
            ch.taps[0, 1] = 1.0

    def test_needs_a_tap(self):
        with pytest.raises(InvalidParams):
            ChannelRealization(taps=())

    def test_delays_strictly_increasing(self):
        with pytest.raises(InvalidParams):
            ChannelRealization(taps=((0.0, 1.0), (0.0, 0.5)))
        with pytest.raises(InvalidParams):
            ChannelRealization(taps=((2e-9, 1.0), (1e-9, 0.5)))

    def test_no_negative_delay(self):
        with pytest.raises(InvalidParams):
            ChannelRealization(taps=((-1e-9, 1.0),))

    def test_all_zero_gains_rejected(self):
        with pytest.raises(InvalidParams):
            ChannelRealization(taps=((0.0, 0.0),))


class TestDrawChannel:
    def test_deterministic(self):
        a = draw_channel(CM1_LIKE, rng_seed=123)
        b = draw_channel(CM1_LIKE, rng_seed=123)
        c = draw_channel(CM1_LIKE, rng_seed=124)
        np.testing.assert_array_equal(a.taps, b.taps)
        assert not np.array_equal(a.taps, c.taps)

    def test_unit_energy_and_monotone_delays(self):
        for seed in range(50):
            ch = draw_channel(SMALL_SV, rng_seed=seed)
            g = ch.gains()
            assert abs(float(g @ g) - 1.0) <= 1e-9
            d = ch.delays()
            assert d[0] >= 0.0
            assert np.all(np.diff(d) > 0)
            assert d[-1] <= SMALL_SV.max_excess_delay * 1e-9 + 1e-18

    def test_profile_id_propagates(self):
        assert draw_channel(CM1_LIKE, rng_seed=0).profile_id == "cm1-like"

    def test_taps_are_pinned(self):
        # sha256 of the taps' repr over a seed range, taken from the
        # per-tap loops that merged coincident delays and built the taps
        # before the vectorized form: every delay and gain bit for bit
        digest = hashlib.sha256()
        for seed in range(300):
            taps = draw_channel(CM1_LIKE, seed).taps
            digest.update(repr(tuple(map(tuple, taps.tolist()))).encode())
        assert digest.hexdigest() == CM1_TAPS_DIGEST

    def test_coincident_delays_merge_into_one_tap(self, monkeypatch):
        # Every second uniform ray delay repeats the one before it, so
        # the rays of one cluster coincide in pairs of equal magnitude
        # and random signs: about half of the pairs cancel exactly, and
        # each pair's sum is exact in any order. Each tap must be the sum
        # of the rays at its delay, over the normalized gains, with the
        # zero sums dropped.
        make, draws = np.random.default_rng, []

        class Paired:
            def __init__(self, seed):
                self._rng = make(seed)

            def __getattr__(self, name):
                def draw(*args, **kw):
                    out = getattr(self._rng, name)(*args, **kw)
                    if name == "uniform":
                        out[1::2] = out[:len(out) - 1:2]
                    draws.append(out)
                    return out
                return draw

        profile, merged, cancelled = SMALL_SV, 0, 0
        for seed in range(20):
            draws.clear()
            with monkeypatch.context() as m:
                m.setattr(np.random, "default_rng", Paired)
                ch = draw_channel(profile, seed)
            # draws: the cluster count, the gaps, a (count, uniforms)
            # pair per cluster in the window, the signs
            _, gaps, *rays, signs = draws
            starts = np.concatenate(([0.0], np.cumsum(gaps)))
            starts = starts[starts <= profile.max_excess_delay]
            sums, at = {}, 0
            for t_l, uniforms in zip(starts, rays[1::2], strict=True):
                r = np.concatenate(([0.0], np.sort(uniforms)))
                power = (np.exp(-t_l / (2.0 * profile.cluster_decay))
                         * np.exp(-r / (2.0 * profile.ray_decay)))
                for d, a in zip(t_l + r, power):
                    sums[d] = sums.get(d, 0.0) + a * signs[at]
                    at += 1
            assert at == len(signs)
            merged += at - len(sums)
            cancelled += sum(v == 0.0 for v in sums.values())
            kept = sorted((d, v) for d, v in sums.items() if v != 0.0)
            delays = np.array([d for d, _ in kept]) * 1e-9
            gains = np.array([v for _, v in kept])
            assert np.all(np.diff(ch.delays()) > 0)
            np.testing.assert_array_equal(ch.delays(), delays)
            np.testing.assert_allclose(
                ch.gains(), gains / math.sqrt(gains @ gains), rtol=1e-12)
        assert merged > 0 and cancelled > 0

    def test_mean_tap_count_matches_arrival_statistics(self):
        # sample mean over many draws vs the analytic expectation for
        # the cluster/ray Poisson construction
        n_draws = 600
        counts = np.array(
            [len(draw_channel(SMALL_SV, rng_seed=s).taps) for s in range(n_draws)],
            dtype=np.float64,
        )
        expected = oracles.expected_sv_tap_count(SMALL_SV)
        stderr = counts.std(ddof=1) / np.sqrt(n_draws)
        assert abs(counts.mean() - expected) <= 3 * stderr

    def test_rays_of_one_cluster_are_a_poisson_count_of_uniform_delays(self):
        # mean_clusters near 0 leaves the one cluster every draw has, so
        # the taps past the first are the rays of a Poisson process on
        # the window: their count is Poisson(rate * window) and, given
        # the count, their delays are i.i.d. uniform over the window.
        # Each test fails under the law with probability at most alpha.
        alpha, n_draws = 1e-3, 400
        one = replace(SMALL_SV, mean_clusters=1e-6, profile_id="one")
        window = one.max_excess_delay
        delays = [draw_channel(one, rng_seed=s).delays()[1:] * 1e9
                  for s in range(n_draws)]
        total = sum(map(len, delays))
        law = poisson(n_draws * one.ray_arrival_rate * window)
        assert 2 * min(law.cdf(total), law.sf(total - 1)) > alpha
        assert kstest(np.concatenate(delays) / window, "uniform").pvalue > alpha


class TestApplyChannel:
    def test_identity_exact(self):
        sig = ramp_signal()
        out = apply_channel(sig, IDENTITY_CHANNEL)
        np.testing.assert_array_equal(out.samples, sig.samples)

    def test_single_delayed_tap(self):
        sig = ramp_signal(64)
        ch = ChannelRealization(taps=((10e-9, -2.0),))  # normalizes to -1
        out = apply_channel(sig, ch)
        d = round(10e-9 * sig.sample_rate)
        assert len(out) == 64 + d
        np.testing.assert_array_equal(out.samples[:d], 0.0)
        np.testing.assert_array_equal(out.samples[d:], -sig.samples)

    def test_two_tap_superposition(self):
        rate = 1e9
        x = np.array([1.0, 2.0, 3.0])
        ch = ChannelRealization(taps=((0.0, 3.0), (2e-9, 4.0)))
        out = apply_channel(SampledSignal(x, rate), ch)
        expected = np.zeros(5)
        expected[:3] += 0.6 * x
        expected[2:] += 0.8 * x
        np.testing.assert_allclose(out.samples, expected, rtol=1e-12)

    def test_dense_path_matches_direct_superposition(self):
        rng = np.random.default_rng(8)
        rate = 1e9
        x = rng.standard_normal(300)
        n_taps = 48  # forces the convolution path
        delays = np.cumsum(rng.integers(1, 5, size=n_taps)) * 1e-9
        gains = rng.standard_normal(n_taps)
        ch = ChannelRealization(taps=tuple(zip(delays, gains)))
        out = apply_channel(SampledSignal(x, rate), ch)

        d = np.rint(ch.delays() * rate).astype(int)
        expected = np.zeros(len(x) + d[-1])
        for di, gi in zip(d, ch.gains()):
            expected[di:di + len(x)] += gi * x
        assert len(out) == len(expected)
        np.testing.assert_allclose(out.samples, expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("n_taps", [8, 40])
    def test_energy_conserved_when_echoes_do_not_overlap(self, n_taps):
        # taps spaced farther apart than the signal is long: output
        # energy equals input energy because gains are unit-norm
        rng = np.random.default_rng(15)
        rate = 1e9
        x = rng.standard_normal(50)
        sig = SampledSignal(x, rate)
        delays = np.arange(n_taps) * 60e-9
        gains = rng.standard_normal(n_taps)
        ch = ChannelRealization(taps=tuple(zip(delays, gains)))
        out = apply_channel(sig, ch)
        assert out.energy() == pytest.approx(sig.energy(), rel=1e-6)

    def test_empty_signal(self):
        out = apply_channel(SampledSignal(np.zeros(0), 1e9), IDENTITY_CHANNEL)
        assert len(out) == 0


def _oa_step(m):
    """Block length _fft_convolve cuts the longer input into when the
    shorter has m samples."""
    n = 1 << (2 * m - 2).bit_length()
    return n - m + 1


@st.composite
def _convolution_lengths(draw):
    """(len(a), len(b)) with len(a) in 1..4000 and len(b) in 1..3000,
    biased toward one-sample inputs, equal lengths and lengths at a
    block boundary of the overlap-add."""
    la = draw(st.one_of(st.just(1), st.integers(1, 4000)))
    kind = draw(st.sampled_from(["free", "equal", "boundary"]))
    if kind == "free":
        lb = draw(st.one_of(st.just(1), st.integers(1, 3000)))
    elif kind == "equal":
        lb = min(la, 3000)
        la = lb
    else:
        # the longer input ends exactly at, or one sample either side
        # of, the end of a block cut for the shorter
        lb = draw(st.integers(1, 3000))
        step = _oa_step(lb)
        k = draw(st.integers(1, max(1, 4000 // step)))
        la = min(4000, max(1, k * step + draw(st.sampled_from([-1, 0, 1]))))
    return la, lb


class TestFftConvolve:
    @given(lengths=_convolution_lengths(), seed=st.integers(0, 2**32 - 1))
    def test_matches_direct_convolution(self, lengths, seed):
        rng = np.random.default_rng(seed)
        a, b = (rng.standard_normal(n) for n in lengths)
        expected = np.convolve(a, b)
        out = _fft_convolve(a, b)
        assert len(out) == len(expected)
        np.testing.assert_allclose(
            out, expected, rtol=0, atol=1e-12 * np.abs(expected).max()
        )

    @pytest.mark.parametrize(
        "la, lb",
        [(1, 1), (1, 3000), (4000, 1), (3000, 3000), (201, 10001),
         (_oa_step(201), 201), (_oa_step(201) + 1, 201),
         (3 * _oa_step(1500), 1500), (3000, 1025)],
    )
    def test_edge_lengths(self, la, lb):
        # one-sample and equal inputs, the pipeline's template against a
        # CM1 kernel, block boundaries, and a shorter input of 2^10 + 1
        # samples, the smallest length to need n = 4096
        rng = np.random.default_rng(la + lb)
        a, b = rng.standard_normal(la), rng.standard_normal(lb)
        expected = np.convolve(a, b)
        for out in (_fft_convolve(a, b), _fft_convolve(b, a)):
            assert len(out) == len(expected)
            np.testing.assert_allclose(
                out, expected, rtol=0, atol=1e-12 * np.abs(expected).max()
            )


def test_dense_channel_peak_stays_near_its_output():
    # the chip pulse through a CM1 draw: the overlap-add drops its padded
    # input and its spectrum as it goes, so the traced peak is the
    # dense kernel, the inverse transform, the output and numpy's
    # iteration buffers, 5.8 times the output
    pulse = sample_pulse(DEFAULT_PULSE, DEFAULT_SAMPLE_RATE)
    ch = draw_channel(CM1_LIKE, rng_seed=9)
    assert len(ch.taps) > 32  # the dense path
    apply_channel(pulse, ch)  # numpy's first-call state is not the peak
    tracemalloc.start()
    try:
        out = apply_channel(pulse, ch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * out.samples.nbytes


class TestQuantizer:
    def test_config_validation(self):
        with pytest.raises(InvalidParams):
            QuantizerConfig(bits=0, full_scale=1.0)
        # 26 bits is the most a one-sample window sums exactly (1 4^26 <
        # 2^53), so it is the widest ADC any receiver could hold
        QuantizerConfig(bits=26, full_scale=1.0)
        with pytest.raises(InvalidParams):
            QuantizerConfig(bits=27, full_scale=1.0)
        with pytest.raises(InvalidParams):
            QuantizerConfig(bits=2.5, full_scale=1.0)
        with pytest.raises(InvalidParams):
            QuantizerConfig(bits=8, full_scale=0.0)

    def test_one_bit_is_a_sign_slicer(self):
        q = QuantizerConfig(bits=1, full_scale=2.0)
        x = np.array([-5.0, -0.1, 0.0, 0.3, 9.0])
        np.testing.assert_array_equal(
            quantize_array(x, q), [-1.0, -1.0, 1.0, 1.0, 1.0]
        )

    def test_mid_rise_levels_four_bits(self):
        q = QuantizerConfig(bits=4, full_scale=1.0)
        step = 2.0 / 16
        x = np.linspace(-0.999, 0.999, 401)
        y = quantize_array(x, q)
        levels = np.unique(y)
        assert len(levels) == 16
        np.testing.assert_allclose(levels, (np.arange(-8, 8) + 0.5) * step)

    def test_error_bounded_by_half_step(self):
        q = QuantizerConfig(bits=6, full_scale=1.5)
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.5, 1.5, size=2000)
        y = quantize_array(x, q)
        assert np.max(np.abs(y - x)) <= 1.5 / 2**6 + 1e-15

    def test_clipping(self):
        q = QuantizerConfig(bits=3, full_scale=1.0)
        step = 2.0 / 8
        y = quantize_array(np.array([-100.0, 100.0]), q)
        np.testing.assert_allclose(y, [-1.0 + step / 2, 1.0 - step / 2])

    @given(
        hnp.arrays(
            np.float64,
            st.integers(min_value=1, max_value=64),
            elements=st.floats(-50, 50),
        ),
        st.integers(min_value=1, max_value=26),
    )
    def test_idempotent(self, x, bits):
        q = QuantizerConfig(bits=bits, full_scale=3.0)
        once = quantize_array(x, q)
        np.testing.assert_array_equal(quantize_array(once, q), once)


class TestProfiles:
    def test_field_positivity(self):
        with pytest.raises(InvalidParams):
            SvProfile(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidParams):
            SvProfile(1.0, 1.0, 1.0, 1.0, 1.0, -5.0)
        with pytest.raises(InvalidParams, match="finite"):
            SvProfile(1.0, 1.0, 1.0, 1.0, 1.0, math.inf)

    # each asked numpy for terabytes in draw_channel before the bounds
    @pytest.mark.parametrize(
        "field, value",
        [
            ("mean_clusters", 1e12),
            ("max_excess_delay", 1e12),
            ("ray_arrival_rate", 1e9),
        ],
    )
    def test_huge_expected_tap_count_rejected(self, field, value):
        with pytest.raises(InvalidParams, match="at most"):
            replace(CM1_LIKE, **{field: value})

    def test_excess_delay_bounded(self):
        # few taps, but clusters far apart and slow to decay: the dense
        # kernel would span the whole excess delay
        sparse = dict(cluster_arrival_rate=1e-9, ray_arrival_rate=1e-9,
                      cluster_decay=1e12, ray_decay=1e12, mean_clusters=3.0)
        with pytest.raises(InvalidParams, match="max_excess_delay"):
            SvProfile(max_excess_delay=1e12, **sparse)
        SvProfile(max_excess_delay=MAX_EXCESS_DELAY_NS, **sparse)

    def test_cm1_like_is_within_the_bounds(self):
        p = CM1_LIKE
        taps = p.mean_clusters * (1 + p.ray_arrival_rate * p.max_excess_delay)
        assert 900 < taps < MAX_EXPECTED_TAPS
        assert p.max_excess_delay < MAX_EXCESS_DELAY_NS

    def test_load_partial_override(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# tweak\nray_decay = 9.5\nmax_excess_delay = 80\n")
        p = load_profile_file(path)
        assert p.ray_decay == 9.5
        assert p.max_excess_delay == 80.0
        assert p.cluster_decay == CM1_LIKE.cluster_decay
        assert p.profile_id.startswith("file:")

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("ray_decay = 9.5\nfoo = 1\n")
        with pytest.raises(FormatError, match=":2:"):
            load_profile_file(path)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("ray_decay = fast\n")
        with pytest.raises(FormatError, match=":1:"):
            load_profile_file(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("ray_decay 9.5\n")
        with pytest.raises(FormatError, match=":1:"):
            load_profile_file(path)

    def test_nonpositive_override_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("ray_decay = -1\n")
        with pytest.raises(FormatError):
            load_profile_file(path)

    def test_custom_base(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("mean_clusters = 4\n")
        p = load_profile_file(path, base=SMALL_SV)
        assert p.mean_clusters == 4.0
        assert p.ray_decay == SMALL_SV.ray_decay
