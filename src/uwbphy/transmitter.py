"""Bit-to-waveform mapping for the three time-hopped schemes.

One bit per frame. The pulse for frame j goes into chip c_j; its
sampled support starts at the chip boundary, so a bit-1 PPM pulse sits
delta later than a bit-0 pulse within the same chip.

    OOK : pulse present for 1, absent for 0
    BPAM: +pulse for 1, -pulse for 0
    PPM : pulse at the chip start for 0, shifted by delta for 1

Every pulse fits its chip (chip_pulse): where pulse plus shift span
exactly one chip, the sampled template reaches one sample into the
next chip, and that last sample is not sent.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigConflict, InvalidParams, check_positive
from .framing import chip_samples, frame_samples, require_code
from .waveform import SampledSignal, sample_pulse

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


def pulse_table(mod, params, code, template):
    """The pulse sent for each bit at each code position, at entry
    bit * len(code) + position: its first sample within its frame and
    its kind, the row of levels it is scaled by (-1 for an OOK 0, which
    sends nothing). Returns (starts, kind, levels)."""
    rate = template.sample_rate
    bits = np.repeat([0, 1], len(code))
    starts = np.tile(code.offsets, 2) * chip_samples(params, rate)
    if mod.scheme == PPM:
        starts += delta_samples(mod, rate) * bits
        amps = np.ones(len(bits))
    elif mod.scheme == BPAM:
        amps = 2.0 * bits - 1.0
    else:
        amps = bits.astype(np.float64)
    sent = amps != 0.0
    levels, level_of = np.unique(amps[sent], return_inverse=True)
    kind = np.full(len(starts), -1)
    kind[sent] = level_of
    return starts, kind, levels


def place_pulse_train(bits, mod, params, code, template):
    """Lay a pre-sampled unit-energy template into a time-hopped frame
    sequence according to the bits. Returns a signal of exactly
    len(bits) * t_f seconds; see module docstring for the per-scheme
    placement rules. Each frame takes its pulse from pulse_table, which
    the link pipeline reads without building this waveform."""
    bits_arr = _as_bits(bits)
    require_code(code, params)
    check_pulse_fits(mod, params, template)
    rate = template.sample_rate
    pulse = chip_pulse(mod, params, template)
    out = np.zeros((len(bits_arr), frame_samples(params, rate)))
    starts, kind, levels = pulse_table(mod, params, code, template)
    entry = bits_arr * len(code) + np.arange(len(bits_arr)) % len(code)
    for e in np.unique(entry):
        if kind[e] >= 0:
            s = starts[e]
            out[entry == e, s:s + len(pulse)] += levels[kind[e]] * pulse
    return SampledSignal(out.ravel(), rate)


def modulate(bits, mod, params, code, pulse, sample_rate):
    """Modulate bits into a time-hopped pulse train.

    Samples the pulse at sample_rate (unit energy per pulse) and places
    one pulse per frame. Raises ConfigConflict if the framing, code,
    and pulse are mutually inconsistent at this rate.
    """
    template = sample_pulse(pulse, sample_rate)
    return place_pulse_train(bits, mod, params, code, template)
