"""uwbphy benchmark: simulated bits/s, CPU per bit, set-up time, peak
memory and failures for one workload, or a traced run that reports
per-layer metrics instead.

    python3 bench/run.py --workload awgn --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --compare before.txt after.txt

Run from the root of a checkout; uwbphy is imported from its `src/`.
The last line of standard output is the result:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
metrics of BENCHMARK.json under `--trace 0` and its per-layer metrics
under `--trace 1`. The line before it is `{"bench_record": ...}`: the
same metrics plus the environment, the stated input size and per-round
figures; `--compare` reads those lines from saved outputs. A traced
run also writes its spans to `.bench_out/spans-<workload>-seed<n>.json`.
README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("awgn", "cm1-q12", "session")
# fresh interpreters timed per run for setup_s and setup.import_s
SETUP_PROBES = 7
# glibc's default mmap threshold adapts to freed sizes, and the block
# arrays (4M float64 = 32 MiB) sit at its 32 MiB ceiling, so whether a
# block is mapped or kept on the heap, and with it the peak RSS, jumps
# by whole blocks between otherwise identical runs. The memory probe
# pins the threshold so every large array is mapped while it lives.
MEMORY_PROBE_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 20)}
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A fixed constant near HostSpeed.measure's time on a lightly loaded
# 2-vCPU x86_64 box like the one the benchmark was defined on (Python
# 3.11.7, numpy 2.4.6). Rates and set-up times are reported at this host
# speed; see HostSpeed.
REFERENCE_S = 0.124


def _nproc():
    return len(os.sched_getaffinity(0))


def _cap_blas_threads():
    """At most nproc BLAS threads, for this process and its probes.
    Must run before numpy is imported."""
    cap = _nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cap:
            os.environ[var] = str(cap)


def _workdir(name, seed):
    path = OUT / f"work-{name}-{seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _probe(name, seed, replay):
    """Time `import uwbphy` and the workload's own set-up in this fresh
    interpreter; the benchmark's own imports are not counted. With
    replay, then run the workload's first round and report the peak
    RSS."""
    t0 = time.perf_counter()
    import uwbphy.cli
    t1 = time.perf_counter()
    import workloads
    workdir = _workdir(name, seed)
    try:
        t2 = time.perf_counter()
        wl = workloads.make(name, seed, workdir)
        wl.prepare()
        t3 = time.perf_counter()
        out = {"import_s": t1 - t0, "setup_s": (t1 - t0) + (t3 - t2)}
        if replay:
            for inv in wl.next_round(0):
                rc = uwbphy.cli.main(inv.argv)
                if rc != 0:
                    raise RuntimeError(f"{inv.label}: exit {rc}")
            out["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def _run_probe(name, seed, replay):
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe",
           "--workload", name, "--seed", str(seed)]
    env = None
    if replay:
        cmd.append("--replay")
        env = dict(os.environ, **MEMORY_PROBE_ENV)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _probes(name, seed, memory, speed):
    """SETUP_PROBES set-up timings, each with the host slowdown seen
    around it, then, if asked, one memory probe."""
    setups = []
    before = speed.measure()
    for _ in range(SETUP_PROBES):
        probe = _run_probe(name, seed, False)
        after = speed.measure()
        probe["host_scale"] = _scale(before, after)
        before = after
        setups.append(probe)
    if not memory:
        return setups, None
    return setups, _run_probe(name, seed, True)["peak_rss_mb"]


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def _host_kernel():
    """Serve HostSpeed: time the kernel once per line read from standard
    input and print the seconds it took."""
    import numpy as np
    from scipy.signal import oaconvolve
    rng = np.random.default_rng(0)
    x = np.ones(4_000_000)
    y = np.empty_like(x)
    h = np.zeros(10_000)  # a CM1-length channel
    h[::37] = 1.0

    def kernel():
        t = time.perf_counter()
        rng.standard_normal(out=y)
        np.multiply(y, 0.3, out=y)
        np.add(y, x, out=y)
        oaconvolve(y[:1_000_000], h)
        return time.perf_counter() - t

    kernel()  # fault the buffers in
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)
    return 0


class HostSpeed:
    """A fixed numpy kernel, timed between invocations and between
    set-up probes, that tracks how fast the shared host runs at the
    moment.

    The host's speed drifts by 20 % and more over tens of seconds as
    other tenants load it, and the drift slows the kernel and uwbphy
    alike. Each invocation's wall and CPU time, and each set-up probe's
    time, are divided by the mean kernel time on either side of it over
    REFERENCE_S (`_scale`), which cancels most of the drift. The kernel
    is uwbphy's own mix in miniature (Gaussian noise over a 4M-sample
    array, an add, and an overlap-add FFT convolution of 1M samples
    with a CM1-length kernel) and does not depend on uwbphy, so two
    commits compare at the same scale.

    The kernel runs in a long-lived helper process of its own, so the
    heap that uwbphy leaves behind in the process under test (where
    glibc's adaptive threshold puts its 32 MiB blocks, say) cannot
    change what the kernel costs. Use it as a context manager; leaving
    the context stops the helper.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--host-kernel"],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def measure(self):
        """Seconds the kernel takes now."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the host-speed helper exited")
        return float(line)

    def close(self):
        proc = self._proc
        try:
            proc.stdin.close()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        proc.stdout.close()


def _scale(before, after):
    """Host slowdown over an interval: the mean kernel time on either
    side of it over REFERENCE_S."""
    return 0.5 * (before + after) / REFERENCE_S


def _invoke(cli, inv):
    """One CLI invocation, timed; returns (wall s, cpu s, exit code or
    the exception it raised)."""
    t = time.perf_counter()
    c = time.process_time()
    try:
        rc = cli.main(inv.argv)
    except (Exception, SystemExit) as exc:
        rc = exc
    return time.perf_counter() - t, time.process_time() - c, rc


def run_workload(name, seed, seconds, trace, speed, size=None):
    """Closed loop of rounds for `seconds`, then a determinism re-run of
    the first invocation. Under trace, rounds alternate untraced and
    traced, so the tracing overhead is measured under the same load.
    `speed` is the HostSpeed that scales each invocation. Returns the
    raw record the metrics are computed from."""
    import uwbphy.cli
    import spans
    import workloads

    workdir = _workdir(name, seed)
    try:
        wl = workloads.make(name, seed, workdir, size)
        wl.prepare()
        wl.prepare_checks()
        tracer = spans.Tracer() if trace else None
        rounds, problems = [], []
        attempted = failed = 0
        first = None
        ref = speed.measure()
        start = time.perf_counter()
        r = 0
        while r < (2 if trace else 1) or time.perf_counter() - start < seconds:
            traced = trace and r % 2 == 1
            invs = wl.next_round(r)
            results, kernel_s = [], []
            if traced:
                tracer.install()
            try:
                for inv in invs:
                    if traced:
                        tracer.invocation += 1
                    dt, dc, rc = _invoke(uwbphy.cli, inv)
                    ref_after = speed.measure()
                    results.append((dt, dc, rc, _scale(ref, ref_after)))
                    kernel_s.append(ref_after)
                    ref = ref_after
            finally:
                if traced:
                    tracer.uninstall()
            wall = cpu = ref_wall = ref_cpu = 0.0
            bits = 0
            round_bad = wl.check_round(invs)
            for inv, (dt, dc, rc, scale) in zip(invs, results):
                attempted += 1
                wall += dt
                cpu += dc
                ref_wall += dt / scale
                ref_cpu += dc / scale
                if rc != 0:
                    bad = [f"{inv.label}: exit {rc!r}"]
                else:
                    bad = wl.check(inv) + round_bad.get(inv.label, [])
                if bad:
                    failed += 1
                    problems += bad
                else:
                    bits += inv.bits
            if first is None and invs[0].out.is_file():
                first = (invs[0], invs[0].out.read_bytes())
            rounds.append({"bits": bits, "wall_s": wall, "cpu_s": cpu,
                           "ref_wall_s": ref_wall, "ref_cpu_s": ref_cpu,
                           "host_kernel_s": statistics.median(kernel_s),
                           "traced": traced})
            r += 1

        attempted += 1
        if first is None:
            failed += 1
            problems.append("no output of the first invocation to re-run")
        else:
            inv, before = first
            _, _, rc = _invoke(uwbphy.cli, inv)
            if rc != 0 or inv.out.read_bytes() != before:
                failed += 1
                problems.append(f"{inv.label}: re-run output differs "
                                f"(exit {rc!r})")
        return {
            "rounds": rounds,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "timed_process_peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ber_mean": statistics.fmean(wl.bers) if wl.bers else None,
            "tracer": tracer,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _timed(rounds, traced):
    """Rounds of one kind that count for timing. Round 0 warms the heap
    and caches and is left out whenever later rounds exist."""
    picked = [r for r in rounds if r["traced"] == traced and r["bits"]]
    return [r for r in picked if r is not rounds[0]] or picked


def _rate(rounds):
    """Median simulated bits/s at reference host speed."""
    return statistics.median(r["bits"] / r["ref_wall_s"] for r in rounds)


def _at_reference_speed(setups, key):
    """Median over the set-up probes of `key` at reference host speed."""
    return statistics.median(p[key] / p["host_scale"] for p in setups)


def end_to_end(raw, setups, peak_rss_mb):
    plain = _timed(raw["rounds"], False)
    return {
        "bits_per_s": _rate(plain),
        "cpu_s_per_kbit": statistics.median(
            r["ref_cpu_s"] / (r["bits"] / 1000.0) for r in plain),
        "setup_s": _at_reference_speed(setups, "setup_s"),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - raw["failed"] / raw["attempted"],
    }


def per_layer(raw, setups):
    import spans
    traced = _timed(raw["rounds"], True)
    kbits = sum(r["bits"] for r in raw["rounds"] if r["traced"]) / 1000.0
    m = spans.layer_metrics(raw["tracer"].spans, kbits)
    m["setup.import_s"] = _at_reference_speed(setups, "import_s")
    m["trace.overhead_frac"] = 1.0 - (
        _rate(traced) / _rate(_timed(raw["rounds"], False)))
    return m


def _spec():
    with open(SPEC, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _labelled(values, defs):
    if set(values) != {d["name"] for d in defs}:
        raise RuntimeError(
            f"metrics {sorted(values)} do not match BENCHMARK.json "
            f"{sorted(d['name'] for d in defs)}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in defs}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar="FILE",
                    help="compare the bench_record lines of two saved "
                         "outputs; exit 1 if a metric is worse by more "
                         "than its bound")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--host-kernel", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "uwbphy" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"bench: {ROOT} is not a uwbphy checkout "
              "(needs src/uwbphy and BENCHMARK.json)", file=sys.stderr)
        return 2
    if args.compare:
        import compare
        return compare.main(*args.compare, _spec())
    _cap_blas_threads()
    if args.host_kernel:
        return _host_kernel()
    if args.workload is None:
        ap.error("--workload is required")
    sys.path.insert(0, str(SRC))
    if args.probe:
        return _probe(args.workload, args.seed, args.replay)

    spec = _spec()
    import uwbphy
    if not Path(uwbphy.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported uwbphy from {uwbphy.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    with HostSpeed() as speed:
        setups, peak_rss_mb = _probes(args.workload, args.seed,
                                      not args.trace, speed)
        raw = run_workload(args.workload, args.seed, args.seconds,
                           args.trace, speed)
    for problem in raw["problems"]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    kinds = (False, True) if args.trace else (False,)
    if not all(_timed(raw["rounds"], k) for k in kinds):
        print("bench: no round passed its checks, so nothing was timed",
              file=sys.stderr)
        return 1
    if args.trace:
        metrics = _labelled(per_layer(raw, setups), spec["per_layer"])
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "invocation",
                       "count"],
            "spans": raw["tracer"].dump(),
        }))
    else:
        metrics = _labelled(end_to_end(raw, setups, peak_rss_mb),
                            spec["end_to_end"])
        spans_file = None
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_size": workloads.SIZES[args.workload],
        "env": environment(),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "rounds": raw["rounds"],
        "setup_probes": setups,
        "timed_process_peak_rss_mb": raw["timed_process_peak_rss_mb"],
        "sweep_ber_mean": raw["ber_mean"],
        "absent": raw["tracer"].absent if args.trace else [],
        "uncounted": sorted(raw["tracer"].uncounted) if args.trace else [],
        "spans_file": str(spans_file) if spans_file else None,
        "problems": raw["problems"][:20],
        "metrics": metrics,
    }
    print(json.dumps({"bench_record": record}))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
