"""End-to-end acceptance checks for the whole simulator.

Each test covers one numbered acceptance property and prints a
`[acceptance N] PASS/FAIL` line so a `pytest -v` run doubles as a
checklist. Statistical assertions run at 3 binomial sigma under frozen
seeds, so a pass is exactly reproducible.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from uwbphy import (
    CM1_LIKE,
    CodeBank,
    ModulationConfig,
    PhyState,
    QuantizerConfig,
    ReceiverConfig,
    ReconfigRequest,
    SweepConfig,
    ThCode,
    ThParams,
    add_awgn,
    apply_reconfiguration,
    data_rate,
    demodulate,
    draw_channel,
    generate_code,
    load_reconfig_script,
    ook_threshold,
    place_pulse_train,
    run_session,
    run_sweep,
    sample_pulse,
)
from uwbphy.cli import main

import oracles
from conftest import FAST_DELTA, FAST_PULSE, RATE

GRID = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
N_BITS = 100_000

FAST_PARAMS = ThParams(t_c=5e-9, n_c=4)
FAST_CODE = ThCode(offsets=(2, 0, 3, 1), code_id="fast")

# one frozen base seed per Monte Carlo campaign
SEED_BPAM = 101
SEED_PPM = 202
SEED_OOK = 303
SEED_Q12 = 404
SEED_Q1 = 505
SEED_MP = 606

WIDE = ThCode(offsets=(2, 0, 3, 1, 7, 4, 6, 5), code_id="wide")
OTHER = ThCode(offsets=(5, 3, 6, 0, 2, 7, 1, 4), code_id="other")


@contextmanager
def report(capsys, num, desc):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance {num}] FAIL: {desc}")
        raise
    with capsys.disabled():
        print(f"[acceptance {num}] PASS: {desc}")


def sweep_cfg(scheme, base_seed, grid=GRID, **kw):
    return SweepConfig(
        scheme=scheme,
        ebn0_grid=grid,
        n_bits_per_point=N_BITS,
        params=FAST_PARAMS,
        pulse=FAST_PULSE,
        sample_rate=RATE,
        code=FAST_CODE,
        base_seed=base_seed,
        **kw,
    )


@pytest.fixture(scope="module")
def bpam_curve():
    return run_sweep(sweep_cfg("bpam", SEED_BPAM))


@pytest.fixture(scope="module")
def ppm_curve():
    return run_sweep(sweep_cfg("ppm", SEED_PPM))


@pytest.fixture(scope="module")
def ook_curve():
    return run_sweep(sweep_cfg("ook", SEED_OOK))


@pytest.fixture(scope="module")
def ook_receiver():
    return sweep_cfg("ook", SEED_OOK).receiver


def test_acceptance_1_noiseless_loopback(capsys):
    desc = (
        "loopback identity: 1000 randomized noiseless runs per scheme "
        "decode error-free in under 60 s"
    )
    with report(capsys, 1, desc):
        start = time.monotonic()
        template = sample_pulse(FAST_PULSE, RATE)
        rng = np.random.default_rng(2024)
        total_bits = 0
        errors = 0
        for scheme in ("ook", "bpam", "ppm"):
            mod = ModulationConfig(
                scheme, delta=FAST_DELTA if scheme == "ppm" else 0.0
            )
            for _ in range(1000):
                t_c = float(rng.choice((5e-9, 10e-9, 20e-9)))
                n_c = int(rng.choice((4, 8, 16)))
                params = ThParams(t_c=t_c, n_c=n_c)
                code = generate_code(
                    int(rng.integers(2**32)), int(rng.integers(4, 13)), params
                )
                bits = rng.integers(0, 2, size=int(rng.integers(8, 25)))
                tx = place_pulse_train(bits, mod, params, code, template)
                cfg = ReceiverConfig(
                    mod=mod, params=params, code=code, template=template
                )
                if scheme == "ook":
                    cfg = replace(
                        cfg, threshold=ook_threshold(cfg, math.inf, 0.5))
                decoded = demodulate(tx, cfg)
                errors += int(np.count_nonzero(decoded != bits))
                total_bits += len(bits)
        elapsed = time.monotonic() - start
        assert total_bits > 0
        assert errors == 0
        assert elapsed < 60.0


def test_acceptance_2_awgn_analytic_ber(
    capsys, bpam_curve, ppm_curve, ook_curve, ook_receiver
):
    desc = (
        "AWGN float-datapath BER within 3 sigma of the analytic forms "
        "on the 0..10 dB grid at 1e5 bits per point"
    )
    with report(capsys, 2, desc):
        def check(point, p_theory):
            sigma = math.sqrt(p_theory * (1 - p_theory) / point.bits)
            assert abs(point.ber - p_theory) <= 3 * sigma, (
                f"{point.ebn0_db} dB: measured {point.ber:.3e}, "
                f"theory {p_theory:.3e}"
            )

        for point in bpam_curve:
            check(point, oracles.bpam_ber(point.ebn0_db))
        for point in ppm_curve:
            check(point, oracles.ppm_ber(point.ebn0_db))

        # OOK: energy-detector tail oracle at the harness's own
        # threshold, the closed-form midpoint
        width = round(ook_receiver.integration_window * RATE)
        tpl = ook_receiver.template.samples[:width]
        e_w = float(tpl @ tpl / RATE)
        for point in ook_curve:
            theta = ook_threshold(ook_receiver, point.ebn0_db, 0.5)
            n0 = 0.5 / 10 ** (point.ebn0_db / 10)
            check(
                point,
                oracles.ook_error_probability(theta, width, n0, e_w),
            )


def test_acceptance_3_architecture_ordering(capsys, bpam_curve, ppm_curve, ook_curve):
    desc = (
        "coherent BPAM beats noncoherent OOK with non-overlapping "
        "3-sigma intervals at every grid point >= 4 dB"
    )
    with report(capsys, 3, desc):
        for bp, ok in zip(bpam_curve, ook_curve):
            if bp.ebn0_db < 4.0:
                continue
            assert bp.ber + 3 * bp.sigma() < ok.ber - 3 * ok.sigma(), (
                f"{bp.ebn0_db} dB: bpam {bp.ber:.3e} vs ook {ok.ber:.3e}"
            )
    # the PPM-vs-BPAM ranking is informational only
    lines = []
    for pp, bp in zip(ppm_curve, bpam_curve):
        if pp.ebn0_db < 4.0:
            continue
        order = "bpam < ppm" if bp.ber < pp.ber else "ppm <= bpam"
        lines.append(f"{pp.ebn0_db:g} dB: {order} ({bp.ber:.2e} vs {pp.ber:.2e})")
    with capsys.disabled():
        print(f"[acceptance 3] info: ppm vs bpam ranking: {'; '.join(lines)}")


def test_acceptance_4_rate_law(capsys, tmp_path):
    desc = (
        "per-segment throughput equals 1/t_c within 1e-9 relative "
        "across a 5-segment halve/double script"
    )
    with report(capsys, 4, desc):
        script = tmp_path / "rate.txt"
        script.write_text(
            "@100 set tc=5 signal=1\n"
            "@200 set tc=10 signal=1\n"
            "@300 set tc=20 signal=1\n"
            "@400 set tc=10 signal=1\n"
        )
        state = PhyState(
            params=ThParams(t_c=10e-9, n_c=4),
            code_bank=CodeBank(entries={"fast": FAST_CODE}, active_id="fast"),
            mod=ModulationConfig("bpam"),
            pulse=FAST_PULSE,
            sample_rate=RATE,
        )
        bits = np.random.default_rng(42).integers(0, 2, size=500)
        result = run_session(bits, load_reconfig_script(script), state)
        assert len(result.segments) == 5
        assert [s.t_c for s in result.segments] == [
            10e-9,
            5e-9,
            10e-9,
            20e-9,
            10e-9,
        ]
        for seg in result.segments:
            ideal = data_rate(ThParams(t_c=seg.t_c, n_c=seg.n_c))
            assert abs(seg.throughput_bps - ideal) <= 1e-9 * ideal
        assert result.total_errors == 0


def _session_state(active="wide"):
    return PhyState(
        params=ThParams(t_c=5e-9, n_c=8),
        code_bank=CodeBank(
            entries={"wide": WIDE, "other": OTHER}, active_id=active
        ),
        mod=ModulationConfig("bpam"),
        pulse=FAST_PULSE,
        sample_rate=RATE,
    )


def test_acceptance_5_reconfiguration(capsys):
    desc = (
        "synchronized code swap is lossless; a transmit-only swap "
        "garbles to BER ~ 1/2; a gated request changes nothing"
    )
    with report(capsys, 5, desc):
        swap = [
            ReconfigRequest(
                effective_frame=5000, new_code_id="other", reconfig_signal=True
            )
        ]
        bits = np.random.default_rng(7).integers(0, 2, size=10_000)
        clean = run_session(bits, swap, _session_state())
        assert len(clean.segments) == 2
        assert clean.total_errors == 0

        # fault injection: only the transmitter hops to the new code
        long_bits = np.random.default_rng(8).integers(0, 2, size=14_000)
        faulty = run_session(
            [
                int(b) for b in long_bits
            ],
            [
                ReconfigRequest(
                    effective_frame=4000,
                    new_code_id="other",
                    reconfig_signal=True,
                )
            ],
            _session_state(),
            ebn0_db=10.0,
            rng_seed=99,
            fault_inject=True,
        )
        garbled = faulty.segments[1]
        assert garbled.n_bits == 10_000
        assert 0.4 <= garbled.ber <= 0.6

        # gated request: same state object, bit-identical output
        state = _session_state()
        gated = ReconfigRequest(effective_frame=5000, new_code_id="other")
        assert apply_reconfiguration(state, gated, current_frame=0) is state
        short = np.random.default_rng(9).integers(0, 2, size=3000)
        with_gated = run_session(
            short, [gated], _session_state(), ebn0_db=8.0, rng_seed=5
        )
        without = run_session(short, [], _session_state(), ebn0_db=8.0, rng_seed=5)
        assert len(with_gated.segments) == len(without.segments) == 1
        np.testing.assert_array_equal(
            with_gated.segments[0].decoded, without.segments[0].decoded
        )


def test_acceptance_6_multipath(capsys, bpam_curve):
    desc = (
        "SV realizations stay unit-energy to 1e-9 over 1000 draws and "
        "multipath degrades BPAM at 10 dB beyond 3-sigma overlap"
    )
    with report(capsys, 6, desc):
        for seed in range(1000):
            g = draw_channel(CM1_LIKE, rng_seed=seed).gains()
            assert abs(float(g @ g) - 1.0) <= 1e-9
        (faded,) = run_sweep(
            sweep_cfg("bpam", SEED_MP, grid=(10.0,), channel=CM1_LIKE)
        )
        awgn = bpam_curve[-1]
        assert awgn.ebn0_db == 10.0
        assert faded.ber - 3 * faded.sigma() > awgn.ber + 3 * awgn.sigma(), (
            f"multipath {faded.ber:.3e} vs awgn {awgn.ber:.3e}"
        )


def test_acceptance_7_quantized_datapath(capsys):
    desc = (
        "12-bit datapath matches >= 99.9% of float decisions at 8 dB; "
        "1-bit BER exceeds 12-bit beyond 3 sigma at >= 4 dB"
    )
    with report(capsys, 7, desc):
        template = sample_pulse(FAST_PULSE, RATE)
        mod = ModulationConfig("bpam")
        float_cfg = ReceiverConfig(
            mod=mod, params=FAST_PARAMS, code=FAST_CODE, template=template
        )
        agree = 0
        total = 0
        for block in range(100):
            bits = np.random.default_rng(70_700 + block).integers(
                0, 2, size=1000, dtype=np.int64
            )
            tx = place_pulse_train(bits, mod, FAST_PARAMS, FAST_CODE, template)
            rx = add_awgn(tx, 8.0, 1.0, rng_seed=80_800 + block)
            d_float = demodulate(rx, float_cfg)
            q = QuantizerConfig(12, float(np.max(np.abs(rx.samples))))
            d_quant = demodulate(rx, replace(float_cfg, datapath=q))
            agree += int(np.count_nonzero(d_float == d_quant))
            total += len(bits)
        assert total == 100_000
        assert agree >= 0.999 * total

        fine = run_sweep(sweep_cfg("bpam", SEED_Q12, quant_bits=12))
        coarse = run_sweep(sweep_cfg("bpam", SEED_Q1, quant_bits=1))
        for lo, hi in zip(fine, coarse):
            if lo.ebn0_db < 4.0:
                continue
            assert hi.ber - 3 * hi.sigma() > lo.ber + 3 * lo.sigma(), (
                f"{lo.ebn0_db} dB: 1-bit {hi.ber:.3e} vs 12-bit {lo.ber:.3e}"
            )


def test_acceptance_8_deterministic_output(capsys, tmp_path):
    desc = "sweeps and sessions rerun with the same seed emit byte-identical CSV"
    with report(capsys, 8, desc):
        sweep_args = [
            "sweep",
            "--scheme",
            "bpam",
            "--ebn0",
            "0,4",
            "--bits",
            "2000",
            "--tc",
            "5",
            "--nc",
            "4",
            "--seed",
            "7",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(sweep_args + ["--out", str(a)]) == 0
        assert main(sweep_args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        script = tmp_path / "plan.txt"
        script.write_text("@400 set tc=20 signal=1\n")
        session_args = [
            "session",
            "--script",
            str(script),
            "--scheme",
            "bpam",
            "--bits",
            "800",
            "--ebn0",
            "8",
            "--seed",
            "5",
        ]
        c = tmp_path / "c.csv"
        d = tmp_path / "d.csv"
        assert main(session_args + ["--out", str(c)]) == 0
        assert main(session_args + ["--out", str(d)]) == 0
        assert c.read_bytes() == d.read_bytes()
