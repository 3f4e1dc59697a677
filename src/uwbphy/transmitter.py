"""Bit-to-waveform mapping for the three time-hopped schemes.

One bit per frame. The pulse for frame j goes into chip c_j; its
sampled support starts at the chip boundary, so a bit-1 PPM pulse sits
delta later than a bit-0 pulse within the same chip.

    OOK : pulse present for 1, absent for 0
    BPAM: +pulse for 1, -pulse for 0
    PPM : pulse at the chip start for 0, shifted by delta for 1
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigConflict, InvalidParams
from .framing import (
    chip_offsets_for_frames,
    chip_samples,
    frame_samples,
    require_code,
)
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
            if not self.delta > 0.0:
                raise InvalidParams(f"PPM needs delta > 0, got {self.delta}")
        elif self.delta != 0.0:
            raise InvalidParams(
                f"delta is PPM-only; got {self.delta} for {self.scheme}"
            )


def _as_bits(bits):
    arr = np.asarray(bits, dtype=np.int64).ravel()
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise InvalidParams("bits must contain only 0 and 1")
    return arr


def delta_samples(mod, sample_rate):
    """PPM shift rounded to whole samples (0 for OOK/BPAM)."""
    return int(round(mod.delta * sample_rate))


def check_pulse_fits(mod, params, template):
    """Raise ConfigConflict unless pulse duration + delta <= t_c, i.e.
    a pulse never leaks outside its chip, and unless a PPM shift spans
    at least one sample: a shift that rounds to none puts both PPM
    positions on the same samples, and every bit would decode as 1."""
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


def pulse_layout(bits, mod, params, code, sample_rate):
    """Where each bit's pulse goes: its first sample within its frame
    and its amplitude (0 for an OOK 0), one entry per bit."""
    bits_arr = _as_bits(bits)
    starts = chip_offsets_for_frames(code, len(bits_arr)) * chip_samples(
        params, sample_rate
    )
    if mod.scheme == PPM:
        starts = starts + delta_samples(mod, sample_rate) * bits_arr
        return starts, np.ones(len(bits_arr))
    if mod.scheme == BPAM:
        return starts, 2.0 * bits_arr - 1.0
    return starts, bits_arr.astype(np.float64)


def place_pulse_train(bits, mod, params, code, template):
    """Lay a pre-sampled unit-energy template into a time-hopped frame
    sequence according to the bits. Returns a signal of exactly
    len(bits) * t_f seconds; see module docstring for the per-scheme
    placement rules. The link pipeline reads the same placement from
    pulse_layout without building this waveform."""
    bits_arr = _as_bits(bits)
    require_code(code, params)
    check_pulse_fits(mod, params, template)
    rate = template.sample_rate
    frame = frame_samples(params, rate)
    n = len(bits_arr)
    out = np.zeros(n * frame, dtype=np.float64)
    if n == 0:
        return SampledSignal(out, rate)

    starts, amps = pulse_layout(bits_arr, mod, params, code, rate)
    tpl = template.samples
    view = out.reshape(n, frame)
    for s in np.unique(starts):
        rows = np.nonzero((starts == s) & (amps != 0.0))[0]
        if rows.size == 0:
            continue
        # a pulse ending exactly on the frame boundary loses its final
        # sample (which the truncated monocycle makes vanishingly small)
        w = min(len(tpl), frame - s)
        view[rows, s:s + w] += amps[rows, None] * tpl[:w]
    return SampledSignal(out, rate)


def modulate(bits, mod, params, code, pulse, sample_rate):
    """Modulate bits into a time-hopped pulse train.

    Samples the pulse at sample_rate (unit energy per pulse) and places
    one pulse per frame. Raises ConfigConflict if the framing, code,
    and pulse are mutually inconsistent at this rate.
    """
    template = sample_pulse(pulse, sample_rate)
    return place_pulse_train(bits, mod, params, code, template)
