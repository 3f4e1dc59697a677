"""Independent reference computations the tests compare against.

Everything here is derived from textbook closed forms, numerical
quadrature or exact integer arithmetic, never from the code under test.
"""

import math

import numpy as np
from scipy import integrate
from scipy.optimize import minimize_scalar
from scipy.stats import chi2, ncx2, norm, poisson


def qfunc(x):
    """Gaussian tail probability Q(x)."""
    return float(norm.sf(x))


def ebn0_linear(ebn0_db):
    return 10.0 ** (ebn0_db / 10.0)


def bpam_ber(ebn0_db):
    """Antipodal signaling over AWGN: Q(sqrt(2 Eb/N0))."""
    return qfunc(math.sqrt(2.0 * ebn0_linear(ebn0_db)))


def ppm_ber(ebn0_db):
    """Orthogonal binary signaling over AWGN: Q(sqrt(Eb/N0))."""
    return qfunc(math.sqrt(ebn0_linear(ebn0_db)))


def ook_error_probability(threshold, window_samples, n0, window_energy=1.0):
    """Exact error probability of the windowed energy detector.

    The window energy statistic is (N0/2) * chi2(M) under a 0 bit and
    (N0/2) * ncx2(M, 2 E_w / N0) under a 1 bit, where M is the number
    of window samples and E_w the pulse energy captured by the window.
    Equiprobable bits; decision is energy >= threshold.
    """
    u = 2.0 * threshold / n0
    lam = 2.0 * window_energy / n0
    p0 = chi2.sf(u, window_samples)  # noise-only exceeds threshold
    p1 = ncx2.cdf(u, window_samples, lam)  # pulse+noise stays below
    return 0.5 * (p0 + p1)


def ook_midpoint_threshold(window_samples, n0, window_energy=1.0):
    """Midpoint of the two exact mean window energies:
    M*N0/2 and E_w + M*N0/2."""
    return window_samples * n0 / 2.0 + window_energy / 2.0


def ook_optimal_threshold(window_samples, n0, window_energy=1.0):
    """Brute-force minimizer of the exact error probability."""
    mean1 = window_energy + window_samples * n0 / 2.0
    res = minimize_scalar(
        lambda t: ook_error_probability(t, window_samples, n0, window_energy),
        bounds=(1e-12, 2.0 * mean1),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.x)


def quantized_statistics(codes, template, scheme):
    """Exact integer decision statistic of each window of ADC codes.

    codes holds one row of integer codes k per window and template the
    template's codes l, on one mid-rise lattice: code k stands for the
    level (k + 1/2) step, so with t = 2l + 1 a correlation of levels is
    step^2 / 4 times sum((2k + 1) t). Returns Python ints, per window:
    BPAM 2 sum(k t) + sum(t) over the window; PPM 2 (sum(k t) over the
    window's last len(t) samples - sum(k t) over its first len(t)); OOK
    sum((2k + 1)^2) over the window.
    """
    t = [2 * int(l) + 1 for l in template]
    out = []
    for row in codes:
        k = [int(v) for v in row]
        if scheme == "ook":
            out.append(sum((2 * v + 1) ** 2 for v in k))
            continue
        nominal = sum(a * b for a, b in zip(k, t))
        if scheme == "bpam":
            out.append(2 * nominal + sum(t))
        else:
            shifted = sum(a * b for a, b in zip(k[len(k) - len(t):], t))
            out.append(2 * (shifted - nominal))
    return out


def pulse_waveform(t, tau):
    """The untruncated monocycle closed form (peak 1 at t = 0)."""
    x = (t / tau) ** 2
    return (1.0 - 4.0 * np.pi * x) * np.exp(-2.0 * np.pi * x)


def pulse_energy_quadrature(tau, half_support):
    """Energy of the monocycle over [-half_support, +half_support] by
    adaptive quadrature."""
    val, _ = integrate.quad(
        lambda t: pulse_waveform(t, tau) ** 2,
        -half_support,
        half_support,
        limit=400,
        points=[-3 * tau, 0.0, 3 * tau]
        if half_support > 3 * tau
        else None,
    )
    return val


def pulse_energy_analytic(tau):
    """Closed-form total energy of the monocycle: (3/8) * tau."""
    return 0.375 * tau


def expected_sv_tap_count(profile, max_clusters=80):
    """Mean number of taps drawn by the clustered Poisson generator.

    Cluster l (0-based) starts at the sum of l exponential gaps, a
    Gamma(l, 1/Lambda) variable; it contributes one ray at its start
    plus Poisson arrivals at rate lambda over the remaining window, so
    its expected ray count given start t is 1 + lambda*(T - t). The
    cluster count is Poisson floored at one.
    """
    lam_c = profile.cluster_arrival_rate
    lam_r = profile.ray_arrival_rate
    window = profile.max_excess_delay
    mu = profile.mean_clusters

    total = 1.0 + lam_r * window  # cluster 0 always starts at t = 0
    for l in range(1, max_clusters):
        p_present = 1.0 - poisson.cdf(l, mu)  # P(cluster count >= l+1)
        if p_present < 1e-15:
            break

        def rays_given_start(t, l=l):
            from scipy.stats import gamma

            return gamma.pdf(t, a=l, scale=1.0 / lam_c) * (
                1.0 + lam_r * (window - t)
            )

        mean_rays, _ = integrate.quad(rays_given_start, 0.0, window, limit=200)
        total += p_present * mean_rays
    return total
