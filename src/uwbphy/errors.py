"""Exception hierarchy for the PHY simulator.

Everything raised on purpose by this package derives from PhyError so
callers can catch configuration and protocol failures with a single
except clause while letting genuine bugs (TypeError, etc.) propagate.
I/O failures are deliberately left as OSError; a text file that is not
UTF-8 is a FormatError (read_lines).
"""


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


class SchemeMismatch(PhyError):
    """A demodulator was invoked with a config for a different scheme."""


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


def read_lines(path):
    """The lines of the UTF-8 text file that a parser reads. A file that
    does not decode raises FormatError rather than UnicodeDecodeError,
    a ValueError the parsers' callers would not expect."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
