"""Monte Carlo BER-vs-Eb/N0 sweep engine, named receiver presets, CSV
emission, and side-by-side architecture comparison.

A sweep is a pure function of its SweepConfig: bit, noise, channel, and
calibration random streams are all derived from the base seed, point
index, and block index, so repeated runs are byte-identical. Work is
done in blocks of BLOCK_BITS bits, each sent through
receiver.simulate_block, whose docstring describes the pipeline; in
multipath mode each block sees a fresh channel realization. The
receiver is genie-synchronized (zero timing offset); matched-filter
acquisition is exercised separately.

The sweep axis is Eb/N0. With unit-energy pulses BPAM and PPM spend one
energy unit per bit; OOK transmits nothing for a 0, so its
prior-averaged Eb is half a pulse energy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import check_ebn0, draw_channel
from .errors import FormatError, GridMismatch, InvalidParams, read_lines
from .framing import DEFAULT_PARAMS, check_seed, generate_code
from .receiver import (
    ReceiverConfig,
    calibrate_ook_threshold,
    decide,
    simulate_block,
)
from .transmitter import ENERGY_PER_BIT, OOK, PPM, SCHEMES, ModulationConfig
from .waveform import DEFAULT_PULSE, DEFAULT_SAMPLE_RATE, sample_pulse

BLOCK_BITS = 1000
CALIBRATION_FRAMES = 20000
DEFAULT_CODE_SEED = 1729
DEFAULT_CODE_LENGTH = 8

CSV_HEADER = "ebn0_db,errors,bits,ber,ci95"
SESSION_CSV_HEADER = (
    "segment,start_frame,bits,errors,ber,t_c,throughput_bps"
)


@dataclass(frozen=True)
class SweepConfig:
    """Everything one BER-vs-Eb/N0 sweep depends on.

    channel: None for AWGN-only, or an SvProfile for multipath on top
        of AWGN.
    quant_bits: None for the floating-point datapath, or the ADC word
        width (an integer); full scale tracks the per-block peak of the
        observed samples.
    code/delta: default to a seed-derived code and an orthogonal PPM
        shift of one pulse duration.
    """

    scheme: str
    ebn0_grid: tuple
    n_bits_per_point: int = 100_000
    channel: object = None
    quant_bits: int = None
    base_seed: int = 0
    preset_id: str = None
    params: object = DEFAULT_PARAMS
    pulse: object = DEFAULT_PULSE
    sample_rate: float = DEFAULT_SAMPLE_RATE
    code: object = None
    delta: float = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise InvalidParams(
                f"scheme must be one of {SCHEMES}, got {self.scheme!r}"
            )
        grid = tuple(float(x) for x in self.ebn0_grid)
        if not grid:
            raise InvalidParams("ebn0_grid must be non-empty")
        for ebn0_db in grid:
            check_ebn0(ebn0_db)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidParams("ebn0_grid must be strictly increasing")
        object.__setattr__(self, "ebn0_grid", grid)
        if self.n_bits_per_point < 1000:
            raise InvalidParams(
                f"n_bits_per_point must be >= 1000, got {self.n_bits_per_point}"
            )
        if self.quant_bits is not None:
            if not (
                isinstance(self.quant_bits, (int, np.integer))
                and 1 <= self.quant_bits <= 64
            ):
                raise InvalidParams(
                    f"quant_bits must be an integer in [1, 64], "
                    f"got {self.quant_bits!r}"
                )
            object.__setattr__(self, "quant_bits", int(self.quant_bits))
            # a 1-bit ADC maps every sample to +/- half a step, so every
            # window has the same energy and OOK cannot tell bits apart
            if self.scheme == OOK and self.quant_bits == 1:
                raise InvalidParams(
                    "OOK needs an ADC of at least 2 bits: at 1 bit every "
                    "window energy is the same"
                )
        check_seed(self.base_seed, "base_seed")
        if self.code is None:
            object.__setattr__(
                self,
                "code",
                generate_code(DEFAULT_CODE_SEED, DEFAULT_CODE_LENGTH, self.params),
            )
        if self.delta is None:
            object.__setattr__(
                self,
                "delta",
                self.pulse.duration if self.scheme == PPM else 0.0,
            )

    @property
    def modulation(self):
        return ModulationConfig(self.scheme, delta=self.delta)


@dataclass(frozen=True)
class BerPoint:
    """One point of a BER curve: raw counts plus derived statistics."""

    ebn0_db: float
    errors: int
    bits: int

    def __post_init__(self):
        if self.bits <= 0:
            raise InvalidParams(f"bits must be positive, got {self.bits}")
        if not 0 <= self.errors <= self.bits:
            raise InvalidParams(
                f"errors must be in [0, {self.bits}], got {self.errors}"
            )

    @property
    def ber(self):
        return self.errors / self.bits

    @property
    def ci95_halfwidth(self):
        """Binomial 95% half-interval 1.96 * sqrt(p(1-p)/n)."""
        p = self.ber
        return 1.96 * math.sqrt(p * (1.0 - p) / self.bits)

    def sigma(self):
        """One binomial standard deviation of the BER estimate."""
        p = self.ber
        return math.sqrt(p * (1.0 - p) / self.bits)


def point_seeds(base_seed, point_index):
    """Independent (bits, noise, channel, calibration) stream bases for
    one grid point. Per-block streams XOR the block index in, which is
    the seed-splitting contract parallel runners must follow."""
    state = np.random.SeedSequence([base_seed, point_index]).generate_state(
        4, dtype=np.uint64
    )
    return tuple(int(s) for s in state)


def _run_point(cfg, rcfg, ebn0_db, seeds):
    bits_base, noise_base, chan_base, cal_base = seeds
    if cfg.scheme == OOK:
        rcfg = rcfg.with_threshold(
            calibrate_ook_threshold(
                rcfg, ebn0_db, ENERGY_PER_BIT[OOK], CALIBRATION_FRAMES,
                cal_base,
            )
        )
    errors = 0
    n_bits = cfg.n_bits_per_point
    for block, done in enumerate(range(0, n_bits, BLOCK_BITS)):
        nb = min(BLOCK_BITS, n_bits - done)
        bits = np.random.default_rng(bits_base ^ block).integers(
            0, 2, size=nb, dtype=np.int64
        )
        channel = None
        if cfg.channel is not None:
            channel = draw_channel(cfg.channel, chan_base ^ block)
        stats = simulate_block(
            bits, rcfg, rcfg, ebn0_db, noise_base ^ block, channel,
            cfg.quant_bits,
        )
        errors += int(np.count_nonzero(decide(stats[:nb]) != bits))
    return BerPoint(ebn0_db=ebn0_db, errors=errors, bits=n_bits)


def run_sweep(cfg):
    """Run the full grid and return one BerPoint per Eb/N0 value.

    Deterministic: the output is a pure function of cfg.
    """
    template = sample_pulse(cfg.pulse, cfg.sample_rate)
    rcfg = ReceiverConfig(
        mod=cfg.modulation,
        params=cfg.params,
        code=cfg.code,
        template=template,
    )
    points = []
    for index, ebn0_db in enumerate(cfg.ebn0_grid):
        points.append(
            _run_point(cfg, rcfg, ebn0_db, point_seeds(cfg.base_seed, index))
        )
    return points


def _fmt(x):
    return repr(float(x))


def sweep_metadata(cfg):
    """Deterministic key/value description of a sweep for CSV comments."""
    return {
        "scheme": cfg.scheme,
        "channel": "awgn" if cfg.channel is None else cfg.channel.profile_id,
        "datapath": "float" if cfg.quant_bits is None else f"quantized{cfg.quant_bits}",
        "bits_per_point": cfg.n_bits_per_point,
        "block_bits": BLOCK_BITS,
        "base_seed": cfg.base_seed,
        "preset": cfg.preset_id or "none",
        "t_c": cfg.params.t_c,
        "n_c": cfg.params.n_c,
        "code": cfg.code.code_id,
        "eb_convention": "unit pulse energy; ook eb = 0.5 (prior-averaged)",
        "sync": "genie (zero offset)",
    }


def _csv(header, rows, meta):
    """CSV text: `#` metadata comments sorted by key, the header, the
    rows, final newline."""
    lines = [f"# {key} = {meta[key]}" for key in sorted(meta or {})]
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def format_csv(points, meta=None):
    """Render BER points as CSV text: `#` metadata comments, then the
    header `ebn0_db,errors,bits,ber,ci95`, one row per point, final
    newline. Floats use repr so a round-trip parse is exact."""
    return _csv(CSV_HEADER, (
        f"{_fmt(p.ebn0_db)},{p.errors},{p.bits},"
        f"{_fmt(p.ber)},{_fmt(p.ci95_halfwidth)}"
        for p in points
    ), meta)


def read_csv(path):
    """Parse the text of format_csv, read from a file, back into
    BerPoint objects."""
    lines = [ln.rstrip("\n") for ln in read_lines(path)]
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    if not rows or rows[0] != CSV_HEADER:
        raise FormatError(f"{path}: missing header {CSV_HEADER!r}")
    points = []
    for lineno, row in enumerate(rows[1:], start=2):
        parts = row.split(",")
        if len(parts) != 5:
            raise FormatError(f"{path}:{lineno}: expected 5 columns")
        try:
            points.append(
                BerPoint(
                    ebn0_db=float(parts[0]),
                    errors=int(parts[1]),
                    bits=int(parts[2]),
                )
            )
        except ValueError:
            raise FormatError(f"{path}:{lineno}: malformed row") from None
    return points


def format_session_csv(result, meta=None):
    """Render per-segment session reports as CSV text (same
    conventions as format_csv)."""
    return _csv(SESSION_CSV_HEADER, (
        f"{s.index},{s.start_frame},{s.n_bits},{s.errors},"
        f"{_fmt(s.ber)},{_fmt(s.t_c)},{_fmt(s.throughput_bps)}"
        for s in result.segments
    ), meta)


@dataclass(frozen=True)
class RankRow:
    """Per-grid-point ranking, best BER first.

    significant[i] is True when ranking[i] beats ranking[i+1] with
    non-overlapping 3-sigma intervals.
    """

    ebn0_db: float
    ranking: tuple
    significant: tuple


@dataclass(frozen=True)
class ComparisonTable:
    labels: tuple
    grid: tuple
    points: dict  # label -> list of BerPoint
    rows: tuple  # of RankRow

    def render(self):
        """Plain-text table: one line per grid point, BER +/- 3-sigma
        per architecture, then the ranking (``>!`` marks a
        statistically significant gap, ``>`` an insignificant one)."""
        width = max(22, *(len(l) + 2 for l in self.labels))
        head = "ebn0_db".ljust(9) + "".join(
            l.ljust(width) for l in self.labels
        ) + "ranking"
        out = [head]
        for i, row in enumerate(self.rows):
            cells = []
            for label in self.labels:
                p = self.points[label][i]
                cells.append(f"{p.ber:.3e} +/-{3 * p.sigma():.1e}".ljust(width))
            marks = [
                " >! " if sig else " > " for sig in row.significant
            ]
            rank = row.ranking[0]
            for mark, nxt in zip(marks, row.ranking[1:]):
                rank += mark + nxt
            out.append(f"{row.ebn0_db:<9g}" + "".join(cells) + rank)
        return "\n".join(out) + "\n"


def compare_architectures(cfgs):
    """Run several sweeps sharing one grid and bit budget; rank the
    architectures at every grid point.

    Raises GridMismatch unless all configs share the Eb/N0 grid and
    n_bits_per_point.
    """
    if not cfgs:
        raise InvalidParams("need at least one sweep config")
    grid = cfgs[0].ebn0_grid
    budget = cfgs[0].n_bits_per_point
    for c in cfgs[1:]:
        if c.ebn0_grid != grid or c.n_bits_per_point != budget:
            raise GridMismatch(
                "all compared sweeps must share the Eb/N0 grid and bit budget"
            )
    labels = []
    for i, c in enumerate(cfgs):
        base = c.preset_id or c.scheme
        labels.append(base if base not in labels else f"{base}#{i}")
    results = {
        label: run_sweep(c) for label, c in zip(labels, cfgs)
    }
    rows = []
    for i, ebn0_db in enumerate(grid):
        ranked = sorted(labels, key=lambda l: results[l][i].ber)
        flags = []
        for a, b in zip(ranked, ranked[1:]):
            pa, pb = results[a][i], results[b][i]
            flags.append(pa.ber + 3 * pa.sigma() < pb.ber - 3 * pb.sigma())
        rows.append(
            RankRow(
                ebn0_db=ebn0_db,
                ranking=tuple(ranked),
                significant=tuple(flags),
            )
        )
    return ComparisonTable(
        labels=tuple(labels), grid=grid, points=results, rows=tuple(rows)
    )


# Named receiver variants: preset id -> (scheme, ADC word width).
# th-bpam-v1/v2, th-ppm-v1/v2 and th-ppm-v3/v4 run identical sweeps.
PRESETS = {
    "th-ook-v1": ("ook", 64),
    "th-ook-v2": ("ook", 32),
    "th-bpam-v1": ("bpam", 32),
    "th-bpam-v2": ("bpam", 32),
    "th-ppm-v1": ("ppm", 32),
    "th-ppm-v2": ("ppm", 32),
    "th-ppm-v3": ("ppm", 64),
    "th-ppm-v4": ("ppm", 64),
}
