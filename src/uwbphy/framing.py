"""Time-hopping frame geometry, data-rate law, and TH-code management.

Each frame of duration t_f = n_c * t_c carries one bit. The pulse for
frame j occupies chip number c_{j mod len(code)} inside that frame, so
the transmit instant is j*t_f + c_j*t_c. With one bit per frame the
aggregate slot rate is n_c / t_f = 1 / t_c, which is what data_rate
returns.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigConflict,
    FormatError,
    InvalidParams,
    UnknownCode,
    read_lines,
)

# A chip boundary may drift from the sample grid by at most this many
# samples before the config is rejected as off-grid.
_GRID_EPS = 1e-6


@dataclass(frozen=True)
class ThParams:
    """Frame geometry: chip (slot) duration t_c and chips per frame n_c.

    The frame duration t_f = n_c * t_c is always derived, never stored.
    """

    t_c: float
    n_c: int

    def __post_init__(self):
        if not 0.0 < self.t_c < math.inf:
            raise InvalidParams(
                f"t_c must be positive and finite, got {self.t_c}"
            )
        if not isinstance(self.n_c, (int, np.integer)) or self.n_c < 2:
            raise InvalidParams(f"n_c must be an integer >= 2, got {self.n_c}")
        object.__setattr__(self, "n_c", int(self.n_c))

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
    periods, so every chip and frame boundary lands on the grid.
    """
    exact = params.t_c * sample_rate
    n = int(round(exact))
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
        offs = tuple(int(c) for c in self.offsets)
        if len(offs) < 1:
            raise InvalidParams("code must contain at least one offset")
        if any(c < 0 for c in offs):
            raise InvalidParams(f"code offsets must be >= 0, got {offs}")
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


def check_seed(seed, name="seed"):
    """Raise InvalidParams for a negative seed, which numpy's seeding
    would reject with a bare ValueError."""
    if seed < 0:
        raise InvalidParams(f"{name} must be >= 0, got {seed}")


def generate_code(seed, length, params):
    """Draw a pseudo-random code, uniform over [0, n_c - 1] per frame.

    Deterministic: the same seed always yields the same code.
    """
    check_seed(seed)
    if length < 1:
        raise InvalidParams(f"code length must be >= 1, got {length}")
    rng = np.random.default_rng(seed)
    offsets = tuple(int(c) for c in rng.integers(0, params.n_c, size=length))
    return ThCode(offsets=offsets, code_id=f"gen{seed}")


def chip_start_time(frame_index, code, params):
    """Transmit instant of the pulse in a frame, seconds:
    frame_index * t_f + c_{frame_index mod len} * t_c."""
    if frame_index < 0:
        raise InvalidParams(f"frame_index must be >= 0, got {frame_index}")
    c = code.offsets[frame_index % len(code)]
    return frame_index * params.t_f + c * params.t_c


def chip_offsets_for_frames(code, n_frames):
    """Per-frame chip offsets for frames 0..n_frames-1 (cyclic code)."""
    offs = np.asarray(code.offsets, dtype=np.int64)
    reps = -(-n_frames // len(offs))
    return np.tile(offs, reps)[:n_frames]


@dataclass(frozen=True)
class CodeBank:
    """The set of codes installed in the radio, plus the active one."""

    entries: dict
    active_id: str

    def __post_init__(self):
        entries = dict(self.entries)
        for code_id, code in entries.items():
            if code.code_id != code_id:
                raise InvalidParams(
                    f"bank key {code_id!r} disagrees with code_id "
                    f"{code.code_id!r}"
                )
        object.__setattr__(self, "entries", entries)
        if self.active_id not in entries:
            raise UnknownCode(f"active code {self.active_id!r} not in bank")

    def get(self, code_id):
        try:
            return self.entries[code_id]
        except KeyError:
            raise UnknownCode(f"no code {code_id!r} in bank") from None

    def active(self):
        return self.entries[self.active_id]

    def with_active(self, code_id):
        """A new bank with a different active code; the original is
        untouched."""
        if code_id not in self.entries:
            raise UnknownCode(f"no code {code_id!r} in bank")
        return CodeBank(entries=self.entries, active_id=code_id)

    def with_entry(self, code):
        """A new bank with one more (or replaced) code."""
        entries = dict(self.entries)
        entries[code.code_id] = code
        return CodeBank(entries=entries, active_id=self.active_id)


_CODE_LINE = re.compile(r"^code\s+(\S+)\s*:\s*(.+)$")


def load_code_file(path, params):
    """Parse a code file into a CodeBank.

    One code per line: `code <id>: 2,0,3,1`. Blank lines and lines
    starting with `#` are skipped. Offsets outside [0, n_c - 1] are
    rejected at load time. The first code becomes the active one.
    """
    lines = read_lines(path)
    entries = {}
    first_id = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
        except InvalidParams as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        bad = validate_code(code, params)
        if bad:
            raise FormatError(
                f"{path}:{lineno}: offsets out of [0, {params.n_c - 1}] "
                f"at indices {list(bad)}"
            )
        entries[code_id] = code
        if first_id is None:
            first_id = code_id
    if not entries:
        raise FormatError(f"{path}: no codes found")
    return CodeBank(entries=entries, active_id=first_id)


def write_code_file(path, codes):
    """Write codes in the `code <id>: n,n,...` format, one per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for code in codes:
            body = ",".join(str(c) for c in code.offsets)
            fh.write(f"code {code.code_id}: {body}\n")
