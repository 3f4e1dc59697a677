"""Runtime PHY reconfiguration: live parameter state, MAC-issued change
orders, and the segment-by-segment session driver.

A PhyState is immutable; applying a ReconfigRequest builds a fresh,
fully validated state, so a half-applied parameter set can never be
observed. Changes take effect only at frame boundaries: the first bit
under the new parameters is exactly the bit at effective_frame.

Requests carry an explicit reconfig_signal gate. When it is false the
payload is ignored outright and the state object is returned as-is,
mirroring hardware that latches new parameter inputs only while the
signal is asserted.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .channel import check_ebn0
from .errors import (
    ConfigConflict,
    FormatError,
    InvalidParams,
    PhyError,
    StaleRequest,
    read_lines,
)
from .framing import CodeBank, ThParams, check_seed
from .receiver import (
    ReceiverConfig,
    calibrate_ook_threshold,
    decide,
    simulate_block,
)
from .transmitter import ENERGY_PER_BIT, OOK
from .waveform import DEFAULT_SAMPLE_RATE, sample_pulse

# Ceiling on chips per frame: bounds the achievable-rate range the
# controller will accept, the way fixed-width hardware inputs would.
MAX_N_C = 1024

_CAL_FRAMES = 2000


@dataclass(frozen=True)
class PhyState:
    """The live PHY parameter set, valid by construction.

    epoch is the frame index at which this state became active; pulse
    and sample_rate pin down the waveform context the framing and
    modulation invariants are checked against.
    """

    params: ThParams
    code_bank: CodeBank
    mod: object
    epoch: int = 0
    pulse: object = None
    sample_rate: float = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        if self.epoch < 0:
            raise InvalidParams(f"epoch must be >= 0, got {self.epoch}")
        if self.pulse is None:
            raise InvalidParams("PhyState needs a pulse shape")
        if self.params.n_c > MAX_N_C:
            raise InvalidParams(
                f"n_c = {self.params.n_c} exceeds the controller limit "
                f"of {MAX_N_C}"
            )
        try:
            _link_end(self)
        except ConfigConflict as exc:
            raise InvalidParams(str(exc)) from None

    @property
    def active_code(self):
        return self.code_bank.active()


@dataclass(frozen=True)
class ReconfigRequest:
    """A MAC-issued change order, effective at a frame boundary.

    Optional fields left as None keep their current values. The request
    does nothing unless reconfig_signal is true.
    """

    effective_frame: int
    new_t_c: float = None
    new_n_c: int = None
    new_code_id: str = None
    reconfig_signal: bool = False

    def __post_init__(self):
        if self.effective_frame < 0:
            raise InvalidParams(
                f"effective_frame must be >= 0, got {self.effective_frame}"
            )
        if self.reconfig_signal and (
            self.new_t_c is None
            and self.new_n_c is None
            and self.new_code_id is None
        ):
            raise InvalidParams(
                "an asserted reconfiguration must change at least one field"
            )


def apply_reconfiguration(state, req, current_frame):
    """Apply a request to a state, atomically.

    With reconfig_signal false the input state is returned unchanged
    (same object). Otherwise the merged parameter set is validated as a
    whole; any violation raises and leaves the original state intact.

    Raises StaleRequest if effective_frame is not in the future,
    UnknownCode for an absent code id, InvalidParams for a merged set
    that breaks the framing or modulation invariants.
    """
    if not req.reconfig_signal:
        return state
    if req.effective_frame <= current_frame:
        raise StaleRequest(
            f"request effective at frame {req.effective_frame} but frame "
            f"{current_frame} has already started"
        )
    bank = state.code_bank
    if req.new_code_id is not None:
        bank = bank.with_active(req.new_code_id)
    params = ThParams(
        t_c=state.params.t_c if req.new_t_c is None else req.new_t_c,
        n_c=state.params.n_c if req.new_n_c is None else req.new_n_c,
    )
    return PhyState(
        params=params,
        code_bank=bank,
        mod=state.mod,
        epoch=req.effective_frame,
        pulse=state.pulse,
        sample_rate=state.sample_rate,
    )


@dataclass(frozen=True)
class SegmentReport:
    """Decoded output and statistics for one constant-parameter span."""

    index: int
    start_frame: int
    n_bits: int
    decoded: np.ndarray
    errors: int
    ber: float
    t_c: float
    n_c: int
    code_id: str
    throughput_bps: float


@dataclass(frozen=True)
class SessionResult:
    segments: tuple

    @property
    def total_bits(self):
        return sum(s.n_bits for s in self.segments)

    @property
    def total_errors(self):
        return sum(s.errors for s in self.segments)


def _segment_seeds(rng_seed, index):
    noise, cal = np.random.SeedSequence([rng_seed, index]).generate_state(
        2, dtype=np.uint64
    )
    return int(noise), int(cal)


def _link_end(state):
    """A ReceiverConfig for one link end: its modulation, frame
    geometry, active code and sampled pulse."""
    return ReceiverConfig(
        mod=state.mod,
        params=state.params,
        code=state.active_code,
        template=sample_pulse(state.pulse, state.sample_rate),
    )


def _decode_segment(index, start, seg_bits, tx_state, rx_state, ebn0_db,
                    channel, rng_seed):
    noise_seed, cal_seed = _segment_seeds(rng_seed, index)
    tx = _link_end(tx_state)
    rx = _link_end(rx_state)
    if rx.mod.scheme == OOK:
        eb = ENERGY_PER_BIT[tx.mod.scheme]
        rx = rx.with_threshold(
            calibrate_ook_threshold(rx, ebn0_db, eb, _CAL_FRAMES, cal_seed)
        )
    decoded = decide(
        simulate_block(seg_bits, tx, rx, ebn0_db, noise_seed, channel)
    )

    n = len(seg_bits)
    m = min(n, len(decoded))
    # bits the receiver never produced (mismatched frame length after a
    # one-sided reconfiguration) count as errors
    errors = int(np.count_nonzero(decoded[:m] != seg_bits[:m])) + (n - m)
    t_c = tx_state.params.t_c
    return SegmentReport(
        index=index,
        start_frame=start,
        n_bits=n,
        decoded=decoded[:m],
        errors=errors,
        ber=errors / n,
        t_c=t_c,
        n_c=tx_state.params.n_c,
        code_id=tx_state.code_bank.active_id,
        throughput_bps=n / (n * t_c),
    )


def run_session(bits, schedule, initial_state, ebn0_db=math.inf,
                channel=None, rng_seed=0, fault_inject=False):
    """Simulate a full TX -> channel -> RX session with mid-stream
    reconfiguration.

    The schedule (sorted by strictly increasing effective_frame) is
    applied to both link ends out-of-band; with fault_inject=True only
    the transmitter follows it, which is how a missed code swap is
    reproduced. Segment boundaries are exactly the effective frames of
    asserted requests; bits and BER are reported per segment.

    The receiver reads every segment at its own parameters, so after a
    one-sided reconfiguration it sees the transmitter's waveform through
    mismatched frames; noise enters only the windows it observes (see
    receiver.simulate_block).

    apply_reconfiguration failures propagate with the offending request
    index prepended. A NaN or -inf ebn0_db and a negative rng_seed
    raise InvalidParams.
    """
    check_ebn0(ebn0_db)
    check_seed(rng_seed, "rng_seed")
    bits_arr = np.asarray(bits, dtype=np.int64).ravel()
    if bits_arr.size and not np.isin(bits_arr, (0, 1)).all():
        raise InvalidParams("bits must contain only 0 and 1")
    frames = [req.effective_frame for req in schedule if req.reconfig_signal]
    if any(b <= a for a, b in zip(frames, frames[1:])):
        raise InvalidParams(
            "schedule must be sorted by strictly increasing effective_frame"
        )
    n_bits = len(bits_arr)
    tx_state = rx_state = initial_state
    segments = []
    seg_start = 0
    for i, req in enumerate(schedule):
        try:
            new_state = apply_reconfiguration(tx_state, req, seg_start)
        except PhyError as exc:
            raise type(exc)(f"request {i}: {exc}") from exc
        if new_state is tx_state:
            continue  # gated off: no boundary, no change
        end = min(req.effective_frame, n_bits)
        if end > seg_start:
            segments.append(
                _decode_segment(
                    len(segments), seg_start, bits_arr[seg_start:end],
                    tx_state, rx_state, ebn0_db, channel, rng_seed,
                )
            )
            seg_start = end
        tx_state = new_state
        if not fault_inject:
            rx_state = new_state
    if n_bits > seg_start:
        segments.append(
            _decode_segment(
                len(segments), seg_start, bits_arr[seg_start:],
                tx_state, rx_state, ebn0_db, channel, rng_seed,
            )
        )
    return SessionResult(segments=tuple(segments))


_SCRIPT_LINE = re.compile(r"^@(\d+)\s+set\s+(.*)$")


def load_reconfig_script(path):
    """Parse a reconfiguration script into a list of requests.

    One request per line: `@<frame> set tc=<ns> nc=<int> code=<id>
    signal=<0|1>`. tc/nc/code are optional; frame and signal are not.
    tc is in nanoseconds. Blank lines and `#` comments are skipped.
    Parse errors carry the line number.
    """
    lines = read_lines(path)
    requests = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SCRIPT_LINE.match(line)
        if m is None:
            raise FormatError(
                f"{path}:{lineno}: expected `@<frame> set key=value ...`"
            )
        fields = {"tc": None, "nc": None, "code": None, "signal": None}
        for token in m.group(2).split():
            key, sep, value = token.partition("=")
            if not sep or key not in fields:
                raise FormatError(
                    f"{path}:{lineno}: bad field {token!r} (expected "
                    f"tc=/nc=/code=/signal=)"
                )
            fields[key] = value
        if fields["signal"] not in ("0", "1"):
            raise FormatError(
                f"{path}:{lineno}: signal=<0|1> is required"
            )
        try:
            req = ReconfigRequest(
                effective_frame=int(m.group(1)),
                new_t_c=None if fields["tc"] is None else float(fields["tc"]) * 1e-9,
                new_n_c=None if fields["nc"] is None else int(fields["nc"]),
                new_code_id=fields["code"],
                reconfig_signal=fields["signal"] == "1",
            )
        except (ValueError, InvalidParams) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        requests.append(req)
    return requests
