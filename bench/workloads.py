"""The benchmark's workloads: seed-generated `uwbphy` CLI invocations
and the checks their outputs must pass.

A workload issues rounds of invocations through `uwbphy.cli.main`. A
round is a fixed amount of simulated work, so per-round bits/s compares
across rounds and seeds; the seed only picks the inputs (per-invocation
CLI seeds, the reconfiguration script and the code file). README.md
says why each workload exists.
"""

import random
from dataclasses import dataclass
from pathlib import Path

import uwbphy.cli
from uwbphy import CM1_LIKE, DEFAULT_PULSE, DEFAULT_SAMPLE_RATE
from uwbphy import SweepConfig, sample_pulse
from uwbphy.errors import FormatError
from uwbphy.harness import SESSION_CSV_HEADER, read_csv

import oracle

# Stated input sizes. Sweeps: Eb/N0 grid and bits per grid point, one
# invocation per scheme per round. Session: bits per invocation, split
# into equal segments by the reconfiguration script.
SIZES = {
    "awgn": {"schemes": ("ook", "bpam", "ppm"), "ebn0": "0,4",
             "bits": 5000, "channel": "awgn", "quant_bits": None},
    "cm1-q12": {"schemes": ("bpam", "ppm"), "ebn0": "0,4", "bits": 2000,
                "channel": "multipath", "quant_bits": 12},
    "session": {"schemes": ("ook", "ppm"), "ebn0": 8.0, "bits": 8000,
                "segments": 4},
}

# Session frame geometries (t_c in ns, n_c). The seed only reorders
# them, so every seed simulates the same number of samples. Each chip
# fits the 4 ns pulse plus the 4 ns PPM shift, and codes are drawn for
# the smallest n_c so every code is valid under every geometry.
GEOMETRIES = ((10.0, 8), (20.0, 4), (12.0, 4), (16.0, 4))
CODE_NC = 4
CODE_COUNT = 3


@dataclass
class Invocation:
    argv: list
    out: Path  # the CSV the invocation writes
    bits: int  # data bits it simulates
    label: str


class SweepWorkload:
    """`uwbphy sweep`, one invocation per scheme per round. The sweeps
    must parse with read_csv, cover the requested grid and report the
    requested bits at each point. On the float AWGN datapath every
    point is also held to its closed-form BER. Multipath BER sits near
    0.5 for lack of a channel estimate (see README.md), so there only
    the mean BER is kept, as information."""

    def __init__(self, name, seed, workdir, size):
        self.name = name
        self.size = size
        self.workdir = workdir
        self.grid = tuple(float(x) for x in size["ebn0"].split(","))
        self.extra = ["--channel", size["channel"]]
        if size["quant_bits"] is not None:
            self.extra += ["--quant-bits", str(size["quant_bits"])]
        self._rng = random.Random(seed)
        self._oracle = None
        self.bers = []

    def prepare(self):
        """Build and validate each scheme's configuration and template
        once, before anything is timed."""
        channel = CM1_LIKE if self.size["channel"] == "multipath" else None
        for scheme in self.size["schemes"]:
            cfg = SweepConfig(
                scheme=scheme, ebn0_grid=self.grid,
                n_bits_per_point=self.size["bits"], channel=channel,
                quant_bits=self.size["quant_bits"],
            )
            sample_pulse(cfg.pulse, cfg.sample_rate)

    def prepare_checks(self):
        if self.size["channel"] != "awgn" or self.size["quant_bits"]:
            return
        window = int(round(DEFAULT_PULSE.duration * DEFAULT_SAMPLE_RATE))
        forms = {
            "bpam": oracle.bpam_ber,
            "ppm": oracle.ppm_ber,
            "ook": lambda g: oracle.ook_ber(g, window),
        }
        self._oracle = {
            (s, g): forms[s](g) for s in self.size["schemes"] for g in self.grid
        }

    def next_round(self, r):
        seed = self._rng.randrange(2**31)
        invs = []
        for scheme in self.size["schemes"]:
            out = self.workdir / f"r{r}-{scheme}.csv"
            argv = ["sweep", "--scheme", scheme, "--ebn0", self.size["ebn0"],
                    "--bits", str(self.size["bits"]), "--seed", str(seed),
                    *self.extra, "--out", str(out)]
            invs.append(Invocation(argv, out, self.size["bits"]
                                   * len(self.grid), scheme))
        return invs

    def check(self, inv):
        try:
            points = read_csv(inv.out)
        except (OSError, FormatError) as exc:
            return [f"{inv.label}: unreadable CSV: {exc}"]
        grid = [p.ebn0_db for p in points]
        if grid != list(self.grid):
            return [f"{inv.label}: grid {grid} != requested {list(self.grid)}"]
        problems = [
            f"{inv.label} at {p.ebn0_db:g} dB: {p.bits} bits != requested"
            for p in points if p.bits != self.size["bits"]
        ]
        self.bers.extend(p.ber for p in points)
        for p in points if self._oracle else ():
            msg = oracle.check_point(p.errors, p.bits,
                                     self._oracle[(inv.label, p.ebn0_db)])
            if msg:
                problems.append(f"{inv.label} at {p.ebn0_db:g} dB: {msg}")
        return problems

    def check_round(self, invs):
        return {}


def _session_rows(inv):
    with open(inv.out, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    if not lines or lines[0] != SESSION_CSV_HEADER:
        raise FormatError(f"missing header {SESSION_CSV_HEADER!r}")
    rows = lines[1:]
    for row in rows:
        if len(row.split(",")) != len(SESSION_CSV_HEADER.split(",")):
            raise FormatError(f"malformed row {row!r}")
    return rows


class SessionWorkload:
    """`uwbphy session` replaying a seed-generated reconfiguration
    script, OOK and PPM, each with and without --fault-inject."""

    def __init__(self, name, seed, workdir, size):
        self.name = name
        self.size = size
        self.workdir = workdir
        self._rng = random.Random(seed)
        self.segment = size["bits"] // size["segments"]
        self.bers = []  # sweeps only
        self.boundaries = [k * self.segment for k in range(size["segments"])]

    def prepare(self):
        """Generate the code file through the CLI and write the script."""
        rng = self._rng
        self.geometry = rng.sample(GEOMETRIES, len(GEOMETRIES))
        code_seed = rng.randrange(2**20)
        self.code_file = self.workdir / "codes.txt"
        rc = uwbphy.cli.main([
            "codegen", "--nc", str(CODE_NC), "--length", "8",
            "--count", str(CODE_COUNT), "--seed", str(code_seed),
            "--out", str(self.code_file),
        ])
        if rc != 0:
            raise RuntimeError(f"codegen exited {rc}")
        ids = [f"gen{code_seed + i}" for i in range(CODE_COUNT)]
        lines = ["# seed-generated reconfiguration script"]
        for k, frame in enumerate(self.boundaries[1:], start=1):
            t_c, n_c = self.geometry[k % len(self.geometry)]
            lines.append(f"@{frame} set tc={t_c:g} nc={n_c} "
                         f"code={rng.choice(ids)} signal=1")
        # a gated-off request must change nothing
        gated = rng.randrange(1, self.boundaries[1])
        lines.insert(1, f"@{gated} set nc=16 signal=0")
        self.script = self.workdir / "script.txt"
        self.script.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def prepare_checks(self):
        pass

    def next_round(self, r):
        seed = self._rng.randrange(2**31)
        t_c, n_c = self.geometry[0]
        invs = []
        for scheme in self.size["schemes"]:
            for fault in (False, True):
                label = f"{scheme}-fault" if fault else scheme
                out = self.workdir / f"r{r}-{label}.csv"
                argv = ["session", "--script", str(self.script),
                        "--scheme", scheme, "--bits", str(self.size["bits"]),
                        "--ebn0", repr(self.size["ebn0"]),
                        "--seed", str(seed), "--tc", f"{t_c:g}",
                        "--nc", str(n_c), "--code-file", str(self.code_file),
                        "--out", str(out)]
                if fault:
                    argv.append("--fault-inject")
                invs.append(Invocation(argv, out, self.size["bits"], label))
        return invs

    def check(self, inv):
        """Segments must start at the script's boundaries and their
        bits must add up to the request."""
        try:
            rows = [r.split(",") for r in _session_rows(inv)]
            starts = [int(r[1]) for r in rows]
            bits = sum(int(r[2]) for r in rows)
        except (OSError, FormatError, ValueError) as exc:
            return [f"{inv.label}: {exc}"]
        problems = []
        if starts != self.boundaries:
            problems.append(f"{inv.label}: segment starts {starts} != "
                            f"{self.boundaries}")
        if bits != inv.bits:
            problems.append(f"{inv.label}: segment bits sum {bits} != "
                            f"{inv.bits}")
        return problems

    def check_round(self, invs):
        """Before the first reconfiguration both link ends agree, so a
        fault-injected run must match the clean run byte for byte.
        Returns the problems by invocation label: a mismatch counts
        against both invocations it compares."""
        by_label = {inv.label: inv for inv in invs}
        problems = {}
        first = self.boundaries[1]
        for scheme in self.size["schemes"]:
            pair = (scheme, f"{scheme}-fault")
            try:
                clean, fault = [_session_rows(by_label[x]) for x in pair]
                head = [r for r in clean if int(r.split(",")[1]) < first]
            except (OSError, FormatError, ValueError) as exc:
                msg = f"{scheme}: {exc}"
            else:
                if head and head == fault[:len(head)]:
                    continue
                msg = (f"{scheme}: fault-injected segments before frame "
                       f"{first} differ from the clean run")
            for label in pair:
                problems[label] = [msg]
        return problems


def make(name, seed, workdir, size=None):
    size = size or SIZES[name]
    kind = SessionWorkload if name == "session" else SweepWorkload
    return kind(name, seed, workdir, size)
