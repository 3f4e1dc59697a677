"""Monte Carlo BER-vs-Eb/N0 sweep engine, named receiver presets, CSV
emission, and side-by-side architecture comparison.

A sweep is a pure function of its SweepConfig: bit, noise and channel
random streams are all derived from the base seed and block index, so
repeated runs are byte-identical. Work is done in blocks of BLOCK_BITS
bits. Block k's bits, noise and channel are keyed by k and the base
seed alone, so every grid point sees them (common random numbers): each
point scales block k's standard normals by its own noise deviation,
and an OOK point decides at the closed-form threshold of its Eb/N0
(receiver.ook_threshold), so a point's row follows from its Eb/N0
alone. In multipath mode each block sees a fresh channel realization.
The sweep's blocks go through its one receiver in one
receiver.simulate_links call, at one point per grid value (the receiver
module's docstring describes the pipeline), so each block's clean side
is built, and its noise drawn, once for the whole grid; a point's
errors are the sum of the errors of its records. Each point's BER and
interval stand on their own draws, but adjacent points share them and
are correlated. The receiver is genie-synchronized (zero
timing offset); matched-filter acquisition is exercised separately.

The sweep axis is Eb/N0. With unit-energy pulses BPAM and PPM spend one
energy unit per bit; OOK transmits nothing for a 0, so its
prior-averaged Eb is half a pulse energy.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .channel import QuantizerConfig, SvProfile, check_ebn0, draw_channel
from .errors import (
    FormatError,
    GridMismatch,
    InvalidParams,
    check_int,
    check_type,
    read_lines,
)
from .framing import DEFAULT_PARAMS, ThCode, ThParams, generate_code
from .receiver import ReceiverConfig, simulate_links
from .transmitter import PPM, ModulationConfig
from .waveform import (
    DEFAULT_PULSE,
    DEFAULT_SAMPLE_RATE,
    PulseShape,
    sample_pulse,
)

BLOCK_BITS = 1000
DEFAULT_CODE_SEED = 1729
DEFAULT_CODE_LENGTH = 8

CSV_HEADER = "ebn0_db,errors,bits,ber,ci95"
SESSION_CSV_HEADER = (
    "segment,start_frame,bits,errors,ber,t_c,throughput_bps"
)


def orthogonal_shift(scheme, pulse=DEFAULT_PULSE):
    """The PPM shift of a link by default: one pulse duration, so a
    one's pulse starts where a zero's ends. 0.0 for OOK and BPAM."""
    return pulse.duration if scheme == PPM else 0.0


@lru_cache(maxsize=64)
def _default_code(n_c):
    """The code of a SweepConfig given none, drawn once per n_c: t_c
    does not enter it."""
    params = replace(DEFAULT_PARAMS, n_c=n_c)
    return generate_code(DEFAULT_CODE_SEED, DEFAULT_CODE_LENGTH, params)


@dataclass(frozen=True)
class SweepConfig:
    """Everything one BER-vs-Eb/N0 sweep depends on.

    channel: None for AWGN-only, or an SvProfile for multipath on top
        of AWGN.
    quant_bits: None for the floating-point datapath, or the ADC word
        width (an integer): the receiver then holds the AGC
        QuantizerConfig(quant_bits) (see QuantizerConfig).
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
        check_type(self.params, "params", ThParams)
        check_type(self.pulse, "pulse", PulseShape)
        check_type(self.channel, "channel", SvProfile, None)
        check_type(self.code, "code", ThCode, None)
        if self.delta is None:
            object.__setattr__(
                self, "delta", orthogonal_shift(self.scheme, self.pulse))
        grid = tuple(check_ebn0(x) for x in self.ebn0_grid)
        if not grid:
            raise InvalidParams("ebn0_grid must be non-empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidParams("ebn0_grid must be strictly increasing")
        object.__setattr__(self, "ebn0_grid", grid)
        object.__setattr__(self, "n_bits_per_point", check_int(
            self.n_bits_per_point, "n_bits_per_point", BLOCK_BITS))
        if self.quant_bits is not None:
            object.__setattr__(self, "quant_bits", check_int(
                self.quant_bits, "quant_bits", 1, 64))
        object.__setattr__(
            self, "base_seed", check_int(self.base_seed, "base_seed", 0)
        )
        if self.code is None:
            object.__setattr__(self, "code", _default_code(self.params.n_c))
        self.receiver  # checks the link, once

    @cached_property
    def receiver(self):
        """The ReceiverConfig of the swept link, both its ends: its
        modulation, geometry, code, sampled pulse and ADC. Built once,
        when the sweep is checked."""
        return ReceiverConfig(
            mod=ModulationConfig(self.scheme, delta=self.delta),
            params=self.params,
            code=self.code,
            template=sample_pulse(self.pulse, self.sample_rate),
            datapath=None if self.quant_bits is None
            else QuantizerConfig(self.quant_bits),
        )


@dataclass(frozen=True)
class BerPoint:
    """One point of a BER curve: raw counts plus derived statistics."""

    ebn0_db: float
    errors: int
    bits: int

    def __post_init__(self):
        object.__setattr__(self, "ebn0_db", check_ebn0(self.ebn0_db))
        object.__setattr__(self, "bits", check_int(self.bits, "bits", 1))
        object.__setattr__(
            self, "errors", check_int(self.errors, "errors", 0, self.bits)
        )

    @property
    def ber(self):
        return self.errors / self.bits

    @property
    def ci95_halfwidth(self):
        """Binomial 95% half-interval 1.96 * sqrt(p(1-p)/n)."""
        return 1.96 * self.sigma()

    def sigma(self):
        """One binomial standard deviation of the BER estimate."""
        p = self.ber
        return math.sqrt(p * (1.0 - p) / self.bits)


def point_seeds(base_seed, point_index):
    """Independent (bits, noise, channel) stream bases for one grid
    point. Per-block streams XOR the block index in, which is the
    seed-splitting contract parallel runners must follow. Both
    arguments are integers >= 0 (see check_int). They are the first
    three words of the SeedSequence([base_seed, point_index]) state.

    A session reads the entries by position, not by name: segment i's
    noise seed is entry 0 of point_seeds(rng_seed, i)
    (reconfig._decode_segment).

    A sweep reads only point 0's entries, for every point: block k's
    bits, noise and channel come from bits ^ k, noise ^ k and channel ^
    k of point_seeds(base_seed, 0), so they are common to the grid.
    Point 0's row is then what it was when each point had streams of its
    own. Do not derive a shared stream from a fresh
    SeedSequence([base_seed]): numpy gives it the state of
    SeedSequence([base_seed, 0]), so its draws would repeat point 0's
    streams.
    """
    entropy = [check_int(base_seed, "base_seed", 0),
               check_int(point_index, "point_index", 0)]
    state = np.random.SeedSequence(entropy).generate_state(3, dtype=np.uint64)
    return tuple(int(s) for s in state)


def run_sweep(cfg):
    """Run the full grid and return one BerPoint per Eb/N0 value.

    Deterministic: the output is a pure function of cfg, and a point's
    BerPoint one of cfg's link, base seed and the point's Eb/N0 alone,
    whatever the rest of the grid and wherever on it the point lies
    (see point_seeds). Every point sees the same bits, noise and
    channel in block k, so the sweep runs block by block, each block
    building its clean side and drawing its noise once for the whole
    grid (receiver.simulate_links).
    """
    rx, n_bits = cfg.receiver, cfg.n_bits_per_point
    bits_base, noise_base, chan_base = point_seeds(cfg.base_seed, 0)

    def blocks():
        for block, done in enumerate(range(0, n_bits, BLOCK_BITS)):
            bits = np.random.default_rng(bits_base ^ block).integers(
                0, 2, size=min(BLOCK_BITS, n_bits - done), dtype=np.int64)
            channel = None if cfg.channel is None else draw_channel(
                cfg.channel, chan_base ^ block)
            yield bits, noise_base ^ block, channel

    # one record per block and point, points in grid order in a block
    grid = cfg.ebn0_grid
    errors = [0] * len(grid)
    for k, record in enumerate(simulate_links(blocks(), rx, rx, grid)):
        errors[k % len(grid)] += record.errors
    return [BerPoint(ebn0_db=ebn0_db, errors=e, bits=n_bits)
            for ebn0_db, e in zip(grid, errors)]


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
    rows = read_lines(path)
    if not rows or rows[0][1] != CSV_HEADER:
        raise FormatError(f"{path}: missing header {CSV_HEADER!r}")
    points = []
    for lineno, row in rows[1:]:
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
        except (ValueError, InvalidParams) as exc:
            raise FormatError(f"{path}:{lineno}: malformed row ({exc})") from None
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
            rank = row.ranking[0] + "".join(
                (" >! " if sig else " > ") + nxt
                for sig, nxt in zip(row.significant, row.ranking[1:]))
            out.append(f"{row.ebn0_db:<9g}" + "".join(cells) + rank)
        return "\n".join(out) + "\n"


def compare_architectures(cfgs):
    """Run several sweeps sharing one grid and bit budget; rank the
    architectures at every grid point.

    Each sweep runs on its own (run_sweep), but its bits, noise and
    channels follow from the block index and its base seed alone, so
    architectures with one base seed (and one channel profile) see the
    same bits and channel in every block, at every grid point, and
    those of one scheme that are all float or all quantized draw the
    same noise too: their BERs are fully paired by block.

    Raises GridMismatch unless all configs share the Eb/N0 grid and
    n_bits_per_point.
    """
    cfgs = [check_type(c, "compared config", SweepConfig) for c in cfgs]
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
