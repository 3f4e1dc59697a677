"""Exception hierarchy for the PHY simulator, and the rules that admit
outside input.

Everything raised on purpose by this package derives from PhyError so
callers can catch configuration and protocol failures with a single
except clause while letting genuine bugs (TypeError, etc.) propagate.
I/O failures are deliberately left as OSError.

Each kind of outside input has one rule: check_int for counts, sizes,
indices and seeds, check_positive for physical quantities, check_type
for the config objects a config holds, and read_lines for the text
files the parsers read (a file that is not UTF-8 is a FormatError).
"""

import math
import numbers
import os


class PhyError(Exception):
    """Base class for all PHY configuration and protocol errors."""


class InvalidParams(PhyError):
    """A parameter set violates a structural invariant."""


class UndersampledPulse(PhyError):
    """The sample rate is too low to represent the pulse faithfully."""


class RateMismatch(PhyError):
    """Two signals with different sample rates were combined."""


class ConfigConflict(PhyError):
    """Individually valid configs are mutually inconsistent (pulse does
    not fit the chip, chip is not a whole number of samples, code
    offsets out of range for the frame)."""


class UncalibratedThreshold(PhyError):
    """Energy detection was attempted without a decision threshold."""


class WindowTooSmall(PhyError):
    """A synchronization search window contains no candidate lag."""


class StaleRequest(PhyError):
    """A reconfiguration request targets a frame that has already started."""


class UnknownCode(PhyError):
    """A time-hopping code id is not present in the code bank."""


class GridMismatch(PhyError):
    """Sweeps being compared do not share the same Eb/N0 grid and bit
    budget."""


class FormatError(PhyError):
    """An external text file (code bank, channel profile, reconfig
    script) failed to parse."""


def check_int(value, name, lo, hi=math.inf):
    """value as an int. Raises InvalidParams unless it is a real number
    with an integral value in [lo, hi]: 8, np.int64(8) and 8.0 give 8,
    while 2.5, NaN, inf, "3" and None are refused."""
    # a plain int first: the ABC checks cost more than the rest
    if type(value) is int or isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        if lo <= int(value) <= hi:
            return int(value)
    bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
    raise InvalidParams(f"{name} must be {bound} and integral, got {value!r}")


def check_positive(value, name):
    """value as a float. Raises InvalidParams unless it is a real number
    in (0, inf)."""
    if ((type(value) is float or isinstance(value, numbers.Real))
            and 0.0 < value < math.inf):
        return float(value)
    raise InvalidParams(f"{name} must be positive and finite, got {value!r}")


def check_type(value, name, *kinds):
    """value, if it is an instance of one of kinds, None in kinds
    admitting None. Raises InvalidParams otherwise, rather than leave a
    wrong object to fail with an AttributeError where it is used."""
    if isinstance(value, tuple(k for k in kinds if k is not None)) or (
            value is None and None in kinds):
        return value
    names = " or ".join("None" if k is None else k.__name__ for k in kinds)
    raise InvalidParams(f"{name} must be {names}, got {type(value).__name__}")


def read_lines(path):
    """(line number, stripped text) for each line of the UTF-8 text file
    at path that is neither blank nor a `#` comment. A file that does
    not decode raises FormatError rather than UnicodeDecodeError, a
    ValueError the parsers' callers would not expect."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return [(n, line) for n, line in enumerate(lines, start=1)
            if line and not line.startswith("#")]


def write_text(path, text):
    """Write text to the file at path as UTF-8, in place of what it held.

    The file is opened without O_TRUNC and cut to the new length after
    the write: truncation on open makes ext4 (auto_da_alloc) flush the
    file when it is closed, some 40 to 60 ms for a file that already
    exists. That flush guards against a zero-length file after a crash;
    without it, a crash part-way through a rewrite can leave the old
    file's bytes past the new ones."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        # only a regular file holds an old tail; a pipe or a device
        # cannot be truncated
        if os.fstat(fd).st_size > len(data):
            fh.truncate()
