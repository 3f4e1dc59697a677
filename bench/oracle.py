"""Closed-form AWGN bit-error probabilities and the z-bound check that
holds a measured error count to them.

Written independently of uwbphy: the formulas come from textbook
detection theory, and only the link geometry (Eb convention, OOK
integration window) is taken from the configuration under test.
"""

import math

from scipy.stats import chi2, ncx2, norm

# A point fails when its error count sits more than Z_BOUND binomial
# standard deviations from the theoretical mean. At 5 sigma a correct
# simulator trips the check about once in 1.7 million points, so the
# few hundred points of a benchmark campaign never fail by chance,
# while a 3 dB noise-scaling slip fails at 5000 bits per point.
Z_BOUND = 5.0


def _gamma(ebn0_db):
    return 10.0 ** (ebn0_db / 10.0)


def bpam_ber(ebn0_db):
    """Antipodal signalling: Q(sqrt(2 Eb/N0))."""
    return float(norm.sf(math.sqrt(2.0 * _gamma(ebn0_db))))


def ppm_ber(ebn0_db):
    """Binary orthogonal signalling: Q(sqrt(Eb/N0))."""
    return float(norm.sf(math.sqrt(_gamma(ebn0_db))))


def ook_ber(ebn0_db, window_samples):
    """Energy detector over a window of M samples holding a unit-energy
    pulse, threshold at the midpoint of the two mean window energies
    M*N0/2 and 1 + M*N0/2.

    The window energy is (N0/2) chi2(M) for a 0 and (N0/2) ncx2(M,
    2 / N0) for a 1.
    """
    # bits are equiprobable, so Eb is the prior-averaged energy: half a
    # unit pulse
    n0 = 0.5 / _gamma(ebn0_db)
    threshold = window_samples * n0 / 2.0 + 0.5
    u = 2.0 * threshold / n0
    p_false = chi2.sf(u, window_samples)
    p_miss = ncx2.cdf(u, window_samples, 2.0 / n0)
    return float(0.5 * (p_false + p_miss))


def z_score(errors, bits, p):
    """Distance of an error count from its binomial mean, in standard
    deviations."""
    sd = math.sqrt(bits * p * (1.0 - p))
    return abs(errors - bits * p) / sd


def check_point(errors, bits, p):
    """None when the count is within Z_BOUND of theory, else a message."""
    z = z_score(errors, bits, p)
    if z <= Z_BOUND:
        return None
    return (
        f"{errors} errors in {bits} bits is {z:.1f} sigma from the "
        f"closed-form BER {p:.4e} (bound {Z_BOUND:g})"
    )
