"""Bit-to-waveform mapping for the three time-hopped schemes.

One bit per frame. Frame j sends into chip c_j, from the chip
boundary, whatever its bit: where a frame's samples start depends only
on its code position. The bit selects what is sent from there, one row
of pulse + PPM shift samples per bit (bit_rows):

    OOK : nothing for 0, the pulse for 1
    BPAM: -pulse for 0, +pulse for 1
    PPM : the pulse at the chip start for 0, delta later for 1

Every pulse fits its chip (chip_pulse): where pulse plus shift span
exactly one chip, the sampled template reaches one sample into the
next chip, and that last sample is not sent.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigConflict, InvalidParams, check_positive
from .framing import chip_samples, frame_samples, require_code
from .waveform import SampledSignal

OOK = "ook"
BPAM = "bpam"
PPM = "ppm"
SCHEMES = (OOK, BPAM, PPM)

# Average transmitted energy per bit with unit-energy pulses and
# equiprobable bits: OOK sends nothing for a 0, so its prior-averaged
# Eb is half a pulse energy.
ENERGY_PER_BIT = {OOK: 0.5, BPAM: 1.0, PPM: 1.0}


@dataclass(frozen=True)
class ModulationConfig:
    """Scheme selector plus the PPM time shift.

    delta is the PPM bit-1 shift in seconds; it must be positive for
    PPM and zero otherwise.
    """

    scheme: str
    delta: float = 0.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise InvalidParams(
                f"scheme must be one of {SCHEMES}, got {self.scheme!r}"
            )
        if self.scheme == PPM:
            object.__setattr__(
                self, "delta", check_positive(self.delta, "PPM delta")
            )
        elif self.delta != 0.0:
            raise InvalidParams(
                f"delta is PPM-only; got {self.delta} for {self.scheme}"
            )


def _as_bits(bits):
    """bits as a flat int64 array. Raises InvalidParams unless every
    value is a real 0 or 1 exactly: a cast alone would truncate 0.5 or
    1.7 into a bit."""
    arr = np.asarray(bits)
    if arr.dtype.kind not in "biuf" or not ((arr == 0) | (arr == 1)).all():
        raise InvalidParams("bits must contain only 0 and 1")
    return arr.astype(np.int64, copy=False).ravel()


def delta_samples(mod, sample_rate):
    """PPM shift rounded to whole samples (0 for OOK/BPAM)."""
    return int(round(mod.delta * sample_rate))


def check_pulse_fits(mod, params, template):
    """Raise ConfigConflict unless pulse duration + delta <= t_c, so
    that chip_pulse loses at most the template's last sample, and
    unless a PPM shift spans at least one sample: a shift that rounds
    to none puts both PPM positions on the same samples, and every bit
    would decode as 1."""
    shift = delta_samples(mod, template.sample_rate)
    if mod.scheme == PPM and shift == 0:
        raise ConfigConflict(
            f"PPM shift {mod.delta:g} s rounds to 0 samples at "
            f"{template.sample_rate:g} S/s; use a shift of at least one "
            f"sample period"
        )
    chip = chip_samples(params, template.sample_rate)
    need = (len(template) - 1) + shift
    if need > chip:
        raise ConfigConflict(
            f"pulse support plus PPM shift spans {need} samples but the "
            f"chip is only {chip}; increase t_c or shorten the pulse"
        )


def chip_pulse(mod, params, template):
    """The template samples a pulse is sent as, and a receiver
    correlates against: those that fit the chip with the PPM shift.
    That is the whole template, or all but its last sample where pulse
    plus shift span exactly one chip (the default monocycle's last
    sample is 4e-42 of its peak)."""
    rate = template.sample_rate
    return template.samples[:chip_samples(params, rate)
                            - delta_samples(mod, rate)]


def bit_rows(mod, pulse, sample_rate):
    """What each bit sends from its frame's chip boundary, given the
    pulse's samples: row b, of len(pulse) + the PPM shift samples, for
    bit b (see the module docstring)."""
    shift = delta_samples(mod, sample_rate)
    rows = np.zeros((2, len(pulse) + shift))
    rows[1, shift:] = pulse
    if mod.scheme == BPAM:
        rows[0] = -pulse
    elif mod.scheme == PPM:
        rows[0, :len(pulse)] = pulse
    return rows


def pulse_table(mod, params, code, template):
    """Where each frame sends and what its bit selects. Returns
    (starts, rows): starts[p] is the first sample, within its frame, of
    what a frame at code position p sends, whatever its bit; row b is
    what bit b sends from there, the chip pulse laid out by bit_rows."""
    rate = template.sample_rate
    chip = chip_samples(params, rate)
    starts = np.asarray(code.offsets, dtype=np.int64) * chip
    return starts, bit_rows(mod, chip_pulse(mod, params, template), rate)


def place_pulse_train(bits, mod, params, code, template):
    """Lay a pre-sampled unit-energy template into a time-hopped frame
    sequence according to the bits. Returns a signal of exactly
    len(bits) * t_f seconds; see module docstring for the per-scheme
    placement rules. Frame j sends rows[bit_j] from starts[j mod
    len(code)] of pulse_table, which the link pipeline reads without
    building this waveform: the frames at one code position are one
    strided slice."""
    bits_arr = _as_bits(bits)
    require_code(code, params)
    check_pulse_fits(mod, params, template)
    rate = template.sample_rate
    out = np.zeros((len(bits_arr), frame_samples(params, rate)))
    starts, rows = pulse_table(mod, params, code, template)
    # added onto zeros rather than assigned, so that the -0.0 samples of
    # a -pulse row are sent as +0.0
    for p, s in enumerate(starts):
        out[p::len(code), s:s + len(rows[0])] += rows[bits_arr[p::len(code)]]
    return SampledSignal(out.ravel(), rate)
