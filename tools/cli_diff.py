"""Run a fixed list of seeded CLI invocations under two source trees and
name every run whose stdout, stderr, exit code or output file differ.

Each tree is a directory holding the uwbphy package (a checkout's src).
Every run is `python -m uwbphy ...` with that tree alone on PYTHONPATH,
from one shared temporary directory, so the session script's path in
the CSV metadata is the same under both trees. The list is the one
place a seeded CLI run is written down (tests/test_golden.py pins runs
of it by name), and it reaches every src line that the benchmark's
workloads run. Its 50 runs are sweeps of each scheme on either
datapath, sessions over a generated code or over a code file (codes
and frames swapped, a request gated off), with and without fault
injection, compare, two presets (aliases of their schemes' sweeps),
codegen, a sweep written with --out and three refused runs; the
comments below say what each adds. NAME
arguments select runs. Exits 0 when every run selected is identical,
1 otherwise, and 2 for an unknown NAME.

    python tools/cli_diff.py A_SRC B_SRC [NAME ...]
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

# the input files, by file name
SCRIPTS = {
    "plan.txt": "@400 set tc=20 signal=1\n@800 set tc=12 signal=1\n",
    # under --fault-inject the tx frames (63 ns, then 108 ns) differ from
    # the rx frames (80 ns), so rx windows read no pulse, one or two
    "frames.txt": "@400 set nc=7 tc=9 signal=1\n@800 set nc=12 signal=1\n",
    # a short, dense multipath profile: about 110 taps over 12 ns
    "dense.txt": "ray_arrival_rate = 4.0\nray_decay = 3.0\n"
                 "cluster_arrival_rate = 0.5\nmax_excess_delay = 12.0\n",
    # all but surely one tap at delay 0 of gain +1 or -1 per draw
    "onetap.txt": "ray_arrival_rate = 0.001\nmax_excess_delay = 0.001\n"
                  "cluster_arrival_rate = 0.001\n",
    # a code the session's one generated code bank does not hold
    "badcode.txt": "@400 set code=zzz signal=1\n",
    # three codes whose offsets fit both n_c 4 and n_c 8
    "bank.txt": "code a: 0,3,1,2,2,0,3,1\ncode b: 1,0,2,3,0,1,3,2\n"
                "code c: 3,2,0,1,3,1,0,2\n",
    # a gated-off request, then a code and a frame per 2000-frame segment,
    # as in the benchmark's sessions (fault segments rank by counting)
    "swaps.txt": "@700 set nc=16 signal=0\n"
                 "@2000 set tc=20 nc=4 code=b signal=1\n"
                 "@4000 set tc=12 nc=4 code=c signal=1\n"
                 "@6000 set tc=16 nc=4 code=a signal=1\n",
}


def _runs():
    runs = {}
    for scheme in ("ook", "bpam", "ppm"):
        awgn = ["sweep", "--scheme", scheme, "--ebn0", "0,4,8", "--bits",
                "2000", "--seed", "5"]
        cm1 = ["sweep", "--scheme", scheme, "--ebn0", "4,10", "--bits",
               "2000", "--seed", "6", "--channel", "multipath"]
        runs[f"sweep-{scheme}-awgn"] = awgn
        if scheme != "bpam":
            # a 3-bit ADC over AWGN: the coarse lattice where PPM's two
            # correlations tie and OOK energies sit on few levels
            runs[f"sweep-{scheme}-awgn-q3"] = awgn + ["--quant-bits", "3"]
        runs[f"sweep-{scheme}-cm1"] = cm1
        if scheme == "ppm":
            runs["sweep-ppm-profile"] = cm1 + ["--profile-file", "dense.txt"]
        if scheme == "bpam":
            runs["sweep-bpam-onetap"] = cm1 + ["--profile-file", "onetap.txt"]
        # 22 bits: the widest ADC the default geometry admits
        for bits in ("3", "8", "12", "22"):
            runs[f"sweep-{scheme}-cm1-q{bits}"] = cm1 + ["--quant-bits", bits]
    # a last block of 500 bits needs a layout of its own
    runs["sweep-bpam-awgn-2500"] = ["sweep", "--scheme", "bpam", "--ebn0",
                                    "0,4,8", "--bits", "2500", "--seed", "5"]
    # long runs of equal blocks, each with a short last block
    runs["sweep-ppm-awgn-long"] = ["sweep", "--scheme", "ppm", "--ebn0",
                                   "0,4,8", "--bits", "20500", "--seed", "5"]
    runs["sweep-ook-awgn-q3-long"] = [
        "sweep", "--scheme", "ook", "--ebn0", "0,4,8", "--bits", "9500",
        "--seed", "5", "--quant-bits", "3"]
    # noiseless points through an ADC draw their noise and scale it by
    # zero, as does the noiseless point of a float grid
    runs["sweep-bpam-awgn-q12-inf"] = [
        "sweep", "--scheme", "bpam", "--ebn0", "inf", "--bits", "2000",
        "--seed", "5", "--quant-bits", "12"]
    runs["sweep-ppm-cm1-q12-inf"] = [
        "sweep", "--scheme", "ppm", "--ebn0", "inf", "--bits", "2000",
        "--seed", "6", "--channel", "multipath", "--quant-bits", "12"]
    runs["sweep-ook-awgn-mix"] = ["sweep", "--scheme", "ook", "--ebn0",
                                  "4,inf", "--bits", "2000", "--seed", "5"]
    session = ["session", "--script", "plan.txt", "--bits", "1200", "--seed",
               "3"]
    runs["session-ppm"] = session + ["--scheme", "ppm"]
    # noiseless OOK decides at exactly half the windowed pulse energy
    runs["session-ook"] = session + ["--scheme", "ook"]
    runs["session-ppm-fault"] = session + ["--scheme", "ppm", "--fault-inject"]
    runs["session-ook-8db"] = session + ["--scheme", "ook", "--ebn0", "8"]
    for scheme in ("ook", "ppm"):
        runs[f"session-{scheme}-8db-fault"] = session + [
            "--scheme", scheme, "--ebn0", "8", "--fault-inject"]
    runs["session-bpam-6db"] = session + ["--scheme", "bpam", "--ebn0", "6"]
    runs["session-ppm-nc-fault"] = ["session", "--script", "frames.txt",
                                    "--bits", "1200", "--seed", "3",
                                    "--scheme", "ppm", "--fault-inject"]
    swaps = ["session", "--script", "swaps.txt", "--code-file", "bank.txt",
             "--bits", "8000", "--seed", "3", "--ebn0", "8"]
    for scheme in ("ook", "ppm"):
        runs[f"session-{scheme}-swaps"] = swaps + ["--scheme", scheme]
        runs[f"session-{scheme}-swaps-fault"] = swaps + [
            "--scheme", scheme, "--fault-inject"]
    compare = ["compare", "--ebn0", "4,8", "--bits", "2000", "--seed", "5"]
    runs["compare"] = compare
    runs["compare-cm1"] = compare + ["--channel", "multipath"]
    runs["compare-q4"] = compare + ["--quant-bits", "4"]
    for preset in ("th-ook-v1", "th-ppm-v3"):
        runs[f"preset-{preset}"] = ["sweep", "--preset", preset, "--ebn0",
                                    "0,4", "--bits", "1000", "--seed", "5"]
    runs["codegen"] = ["codegen", "--nc", "8", "--count", "3", "--seed", "9",
                       "--out", "out.txt"]
    runs["sweep-bpam-awgn-out"] = runs["sweep-bpam-awgn"] + [
        "--out", "out.txt"]
    runs["refused-ook-q2"] = ["sweep", "--scheme", "ook", "--ebn0", "8",
                              "--bits", "1000", "--quant-bits", "2"]
    # 401-sample PPM windows could round the sums of 23-bit codes
    runs["refused-ppm-q23"] = ["sweep", "--scheme", "ppm", "--ebn0", "0",
                               "--bits", "1000", "--quant-bits", "23"]
    runs["refused-session-code"] = ["session", "--script", "badcode.txt",
                                    "--bits", "1200", "--seed", "3"]
    return runs


RUNS = _runs()


def run(src, argv, cwd):
    """(exit code, stdout, stderr, output file) of `python -m uwbphy argv`
    over src; the file --out names (None if none) is taken out of cwd."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    done = subprocess.run([sys.executable, "-m", "uwbphy", *argv], cwd=cwd,
                          env=env, capture_output=True)
    out = None
    if "--out" in argv:
        path = Path(cwd, argv[argv.index("--out") + 1])
        out = path.read_bytes() if path.exists() else None
        path.unlink(missing_ok=True)
    return done.returncode, done.stdout, done.stderr, out


def main(argv):
    if len(argv) < 2:
        print("usage: python tools/cli_diff.py A_SRC B_SRC [NAME ...]",
              file=sys.stderr)
        return 2
    a, b, names = argv[0], argv[1], argv[2:] or list(RUNS)
    unknown = [name for name in names if name not in RUNS]
    if unknown:
        print(f"unknown runs: {' '.join(unknown)}", file=sys.stderr)
        return 2
    differ = []
    with tempfile.TemporaryDirectory() as cwd:
        for name, text in SCRIPTS.items():
            Path(cwd, name).write_text(text)
        for name in names:
            got = [run(src, RUNS[name], cwd) for src in (a, b)]
            parts = [part for part, x, y in zip(
                ("exit code", "stdout", "stderr", "output file"), *got)
                if x != y]
            if parts:
                differ.append(name)
                print(f"{name}: differ in {', '.join(parts)}")
            else:
                print(f"{name}: same")
    print(f"{len(names) - len(differ)} of {len(names)} runs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
