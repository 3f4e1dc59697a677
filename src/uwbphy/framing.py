"""Time-hopping frame geometry, data-rate law, and TH-code management.

Each frame of duration t_f = n_c * t_c carries one bit. The pulse for
frame j occupies chip number c_{j mod len(code)} inside that frame, so
the transmit instant is j*t_f + c_j*t_c. With one bit per frame the
aggregate slot rate is n_c / t_f = 1 / t_c, which is what data_rate
returns.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigConflict,
    FormatError,
    InvalidParams,
    UnknownCode,
    check_int,
    check_positive,
    check_type,
    read_lines,
    write_text,
)

# A chip boundary may drift from the sample grid by at most this many
# samples before the config is rejected as off-grid.
_GRID_EPS = 1e-6

# Sample positions are int64: a frame, and n_c, must fit below this.
_INT64_MAX = np.iinfo(np.int64).max

# The most offsets generate_code draws for one code, and codegen writes
# in all: about 8 MB of int64 (a length of 10**9 would ask for 7.5 GB).
MAX_CODE_LENGTH = 1 << 20


@dataclass(frozen=True)
class ThParams:
    """Frame geometry: chip (slot) duration t_c and chips per frame n_c.

    The frame duration t_f = n_c * t_c is always derived, never stored.
    """

    t_c: float
    n_c: int

    def __post_init__(self):
        object.__setattr__(self, "t_c", check_positive(self.t_c, "t_c"))
        object.__setattr__(
            self, "n_c", check_int(self.n_c, "n_c", 2, _INT64_MAX))

    @property
    def t_f(self):
        """Frame duration in seconds."""
        return self.n_c * self.t_c


DEFAULT_PARAMS = ThParams(t_c=10e-9, n_c=8)


def data_rate(params):
    """Bit rate n_c / t_f = 1 / t_c in bits per second (one bit per
    frame across n_c slots)."""
    return 1.0 / params.t_c


def chip_samples(params, sample_rate):
    """Chip duration in samples.

    Raises ConfigConflict unless t_c is a whole number of sample
    periods, so every chip and frame boundary lands on the grid, and
    unless a frame of n_c chips fits the 64-bit sample index.
    """
    exact = params.t_c * sample_rate
    # a chip of 2**63 samples or more already overflows; clamped, it
    # rounds to an int whatever t_c
    n = int(round(min(exact, 2.0**63)))
    if params.n_c * n > _INT64_MAX:
        raise ConfigConflict(
            f"a frame of {params.n_c} chips of {exact:g} samples overflows "
            f"the 64-bit sample index; shorten t_c or lower n_c"
        )
    if n < 1 or abs(exact - n) > _GRID_EPS:
        raise ConfigConflict(
            f"t_c = {params.t_c:g} s is not a whole number of sample "
            f"periods at {sample_rate:g} S/s ({exact:g} samples)"
        )
    return n


def frame_samples(params, sample_rate):
    """Frame duration in samples (n_c whole chips)."""
    return params.n_c * chip_samples(params, sample_rate)


@dataclass(frozen=True)
class ThCode:
    """A time-hopping code: the chip index used in each frame.

    offsets repeat cyclically when the bit sequence outruns the code.
    code_id addresses the code inside a CodeBank.
    """

    offsets: tuple
    code_id: str

    def __post_init__(self):
        offs = tuple(check_int(c, "code offset", 0) for c in self.offsets)
        if len(offs) < 1:
            raise InvalidParams("code must contain at least one offset")
        object.__setattr__(self, "offsets", offs)

    def __len__(self):
        return len(self.offsets)


def validate_code(code, params):
    """Check every offset against [0, n_c - 1].

    Returns the tuple of the offending offsets' indices, empty for a
    valid code; never raises.
    """
    return tuple(
        i for i, c in enumerate(code.offsets) if not 0 <= c < params.n_c
    )


def require_code(code, params):
    """Raise ConfigConflict unless the code is valid for these params."""
    bad = validate_code(code, params)
    if bad:
        raise ConfigConflict(
            f"code {code.code_id!r} has offsets out of [0, {params.n_c - 1}] "
            f"at indices {list(bad)}"
        )


def generate_code(seed, length, params):
    """Draw a pseudo-random code, uniform over [0, n_c - 1] per frame.

    Deterministic: the same seed always yields the same code. length
    is at most MAX_CODE_LENGTH.
    """
    seed = check_int(seed, "seed", 0)
    length = check_int(length, "code length", 1, MAX_CODE_LENGTH)
    rng = np.random.default_rng(seed)
    offsets = tuple(int(c) for c in rng.integers(0, params.n_c, size=length))
    return ThCode(offsets=offsets, code_id=f"gen{seed}")


def chip_start_time(frame_index, code, params):
    """Transmit instant of the pulse in a frame, seconds:
    frame_index * t_f + c_{frame_index mod len} * t_c."""
    frame_index = check_int(frame_index, "frame_index", 0)
    c = code.offsets[frame_index % len(code)]
    return frame_index * params.t_f + c * params.t_c


@dataclass(frozen=True)
class CodeBank:
    """The set of codes installed in the radio, plus the active one."""

    entries: dict
    active_id: str

    def __post_init__(self):
        entries = dict(check_type(self.entries, "entries", dict))
        for code_id, code in entries.items():
            check_type(code, f"bank entry {code_id!r}", ThCode)
            if code.code_id != code_id:
                raise InvalidParams(
                    f"bank key {code_id!r} disagrees with code_id "
                    f"{code.code_id!r}"
                )
        object.__setattr__(self, "entries", entries)
        if self.active_id not in entries:
            raise UnknownCode(f"no code {self.active_id!r} in bank")

    def get(self, code_id):
        try:
            return self.entries[code_id]
        except KeyError:
            raise UnknownCode(f"no code {code_id!r} in bank") from None

    def active(self):
        return self.entries[self.active_id]


_CODE_LINE = re.compile(r"^code\s+(\S+)\s*:\s*(.+)$")


def load_code_file(path, params):
    """Parse a code file into a CodeBank.

    One code per line: `code <id>: 2,0,3,1`. Blank lines and lines
    starting with `#` are skipped. Offsets outside [0, n_c - 1] are
    rejected at load time. The first code becomes the active one.
    """
    entries = {}
    for lineno, line in read_lines(path):
        m = _CODE_LINE.match(line)
        if m is None:
            raise FormatError(f"{path}:{lineno}: expected `code <id>: n,n,...`")
        code_id, body = m.group(1), m.group(2)
        if code_id in entries:
            raise FormatError(f"{path}:{lineno}: duplicate code id {code_id!r}")
        try:
            offsets = tuple(int(tok) for tok in body.split(","))
        except ValueError:
            raise FormatError(
                f"{path}:{lineno}: offsets must be comma-separated integers"
            ) from None
        try:
            code = ThCode(offsets=offsets, code_id=code_id)
            require_code(code, params)
        except (InvalidParams, ConfigConflict) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        entries[code_id] = code
    if not entries:
        raise FormatError(f"{path}: no codes found")
    return CodeBank(entries=entries, active_id=next(iter(entries)))


def write_code_file(path, codes):
    """Write codes in the `code <id>: n,n,...` format, one per line."""
    write_text(path, "".join(
        f"code {code.code_id}: {','.join(map(str, code.offsets))}\n"
        for code in codes))
