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

A session is a run of constant-parameter segments. Each segment is one
block of receiver.simulate_links at one point, the session's Eb/N0,
whose record carries its decisions and its errors; an OOK segment
decides at the closed-form threshold of its receiver at that Eb/N0
(receiver.ook_threshold), as a sweep point does.
"""

import math
import re
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .channel import ChannelRealization, check_ebn0
from .errors import (
    ConfigConflict,
    FormatError,
    InvalidParams,
    PhyError,
    StaleRequest,
    check_int,
    check_type,
    read_lines,
)
from .framing import CodeBank, ThParams, data_rate
from .harness import point_seeds
from .receiver import ReceiverConfig, simulate_links
from .transmitter import _as_bits
from .waveform import (
    DEFAULT_PULSE,
    DEFAULT_SAMPLE_RATE,
    PulseShape,
    sample_pulse,
)

# Ceiling on chips per frame: bounds the achievable-rate range the
# controller will accept, the way a fixed-width hardware register would.
# A sweep has no controller and takes any n_c whose frame fits the int64
# sample index; only a session state is held to this.
MAX_N_C = 1024


@dataclass(frozen=True)
class PhyState:
    """The live PHY parameter set, valid by construction.

    epoch is the frame index at which this state became active; pulse
    and sample_rate pin down the waveform context the framing and
    modulation invariants are checked against, and default to a
    sweep's (SweepConfig).
    """

    params: ThParams
    code_bank: CodeBank
    mod: object
    epoch: int = 0
    pulse: object = DEFAULT_PULSE
    sample_rate: float = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        object.__setattr__(self, "epoch", check_int(self.epoch, "epoch", 0))
        check_type(self.code_bank, "code_bank", CodeBank)
        check_type(self.pulse, "pulse", PulseShape)
        try:
            self.link_end
        except ConfigConflict as exc:
            raise InvalidParams(str(exc)) from None
        check_int(self.params.n_c, "n_c", 2, MAX_N_C)

    @cached_property
    def link_end(self):
        """A ReceiverConfig for a link end in this state: its
        modulation, frame geometry, active code and sampled pulse.
        Built once, when the state is validated."""
        return ReceiverConfig(
            mod=self.mod,
            params=self.params,
            code=self.code_bank.active(),
            template=sample_pulse(self.pulse, self.sample_rate),
        )


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
        object.__setattr__(self, "effective_frame", check_int(
            self.effective_frame, "effective_frame", 0))
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
    that breaks the framing or modulation invariants, and for a state
    that is not a PhyState, a req that is not a ReconfigRequest or a
    current_frame that is not an integer >= 0.
    """
    check_type(state, "state", PhyState)
    check_type(req, "req", ReconfigRequest)
    current_frame = check_int(current_frame, "current_frame", 0)
    if not req.reconfig_signal:
        return state
    if req.effective_frame <= current_frame:
        raise StaleRequest(
            f"request effective at frame {req.effective_frame} but frame "
            f"{current_frame} has already started"
        )
    bank = state.code_bank
    if req.new_code_id is not None:
        bank = replace(bank, active_id=req.new_code_id)
    params = ThParams(
        t_c=state.params.t_c if req.new_t_c is None else req.new_t_c,
        n_c=state.params.n_c if req.new_n_c is None else req.new_n_c,
    )
    return replace(
        state, params=params, code_bank=bank, epoch=req.effective_frame)


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


def _decode_segment(index, span, bits, ebn0_db, channel, rng_seed):
    start, end, tx_state, rx_state = span
    noise_seed = point_seeds(rng_seed, index)[0]
    [block] = simulate_links([(bits[start:end], noise_seed, channel)],
                             tx_state.link_end, rx_state.link_end, (ebn0_db,))
    n = end - start
    return SegmentReport(
        index=index,
        start_frame=start,
        n_bits=n,
        decoded=block.decoded,
        errors=block.errors,
        ber=block.errors / n,
        t_c=tx_state.params.t_c,
        n_c=tx_state.params.n_c,
        code_id=tx_state.code_bank.active_id,
        throughput_bps=data_rate(tx_state.params),
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
    receiver.simulate_links).

    channel is None for AWGN only, or one ChannelRealization (see
    channel.draw_channel) that every segment sees.

    apply_reconfiguration failures propagate with the offending request
    index prepended. A NaN or -inf ebn0_db, a negative rng_seed and a
    wrongly typed initial_state, schedule entry or channel raise
    InvalidParams.
    """
    check_ebn0(ebn0_db)
    rng_seed = check_int(rng_seed, "rng_seed", 0)
    check_type(initial_state, "initial_state", PhyState)
    check_type(channel, "channel", ChannelRealization, None)
    schedule = [check_type(req, "schedule entry", ReconfigRequest)
                for req in schedule]
    bits_arr = _as_bits(bits)
    frames = [req.effective_frame for req in schedule if req.reconfig_signal]
    if any(b <= a for a, b in zip(frames, frames[1:])):
        raise InvalidParams(
            "schedule must be sorted by strictly increasing effective_frame"
        )
    n_bits = len(bits_arr)
    tx_state = rx_state = initial_state
    # (start, end, tx_state, rx_state) of each non-empty segment
    spans = []
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
            spans.append((seg_start, end, tx_state, rx_state))
            seg_start = end
        tx_state = new_state
        if not fault_inject:
            rx_state = new_state
    if n_bits > seg_start:
        spans.append((seg_start, n_bits, tx_state, rx_state))
    return SessionResult(segments=tuple(
        _decode_segment(index, span, bits_arr, ebn0_db, channel, rng_seed)
        for index, span in enumerate(spans)))


_SCRIPT_LINE = re.compile(r"^@(\d+)\s+set\s+(.*)$")


def load_reconfig_script(path):
    """Parse a reconfiguration script into a list of requests.

    One request per line: `@<frame> set tc=<ns> nc=<int> code=<id>
    signal=<0|1>`. tc/nc/code are optional; frame and signal are not.
    tc is in nanoseconds. Blank lines and `#` comments are skipped.
    Parse errors carry the line number.
    """
    requests = []
    for lineno, line in read_lines(path):
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
                new_t_c=None if fields["tc"] is None else float(fields["tc"]) / 1e9,
                new_n_c=None if fields["nc"] is None else int(fields["nc"]),
                new_code_id=fields["code"],
                reconfig_signal=fields["signal"] == "1",
            )
        except (ValueError, InvalidParams) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        requests.append(req)
    return requests
