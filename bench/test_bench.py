"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import uwbphy.cli  # noqa: E402
from uwbphy.harness import SESSION_CSV_HEADER, BerPoint, format_csv  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "awgn": dict(workloads.SIZES["awgn"], bits=1000),
    "cm1-q12": dict(workloads.SIZES["cm1-q12"], ebn0="0", bits=1000),
    "session": dict(workloads.SIZES["session"], bits=1200),
}


def test_workload_names_agree():
    names = {w["name"] for w in SPEC["workloads"]}
    assert set(run.WORKLOADS) == set(workloads.SIZES) == names


def _module_bindings():
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name == "uwbphy" or name.startswith("uwbphy.")
        for key, value in vars(module).items()
    }


@pytest.fixture
def bench_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


@pytest.fixture(scope="module")
def speed():
    with run.HostSpeed() as host:
        yield host


def test_host_speed_helper_times_the_kernel_and_stops():
    with run.HostSpeed() as host:
        times = [host.measure() for _ in range(2)]
        proc = host._proc
    assert all(t > 0 for t in times)
    assert proc.poll() == 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_its_checks(name, bench_out, speed):
    raw = run.run_workload(name, seed=3, seconds=0, trace=False,
                           speed=speed, size=TINY[name])
    assert raw["problems"] == []
    assert raw["failed"] == 0
    per_round = len(TINY[name]["schemes"]) * (2 if name == "session" else 1)
    assert len(raw["rounds"]) == 1
    assert raw["attempted"] == per_round + 1  # one round plus the re-run
    setups = [{"setup_s": 1.0, "import_s": 1.0, "host_scale": 1.0}]
    metrics = run.end_to_end(raw, setups, 100.0)
    assert set(metrics) == {d["name"] for d in SPEC["end_to_end"]}
    assert all(v > 0 for v in metrics.values())


def test_traced_run_reports_every_layer_metric_and_restores(bench_out,
                                                            speed):
    before = _module_bindings()
    raw = run.run_workload("awgn", seed=4, seconds=0, trace=True,
                           speed=speed, size=TINY["awgn"])
    assert _module_bindings() == before
    assert raw["failed"] == 0
    assert [r["traced"] for r in raw["rounds"]] == [False, True]
    metrics = run.per_layer(
        raw, [{"setup_s": 1.0, "import_s": 0.5, "host_scale": 1.0}])
    assert set(metrics) == {d["name"] for d in SPEC["per_layer"]}
    assert metrics["channel.add_awgn.normals_drawn"] > 0
    assert metrics["channel.apply_channel.samples_in"] == 0
    assert 0 < metrics["receiver.read_ratio"] < 1


def test_round_check_failure_counts_against_its_invocations(bench_out, speed,
                                                             monkeypatch):
    monkeypatch.setattr(workloads.SweepWorkload, "check_round",
                        lambda self, invs: {invs[0].label: ["mismatch"]})
    raw = run.run_workload("awgn", seed=3, seconds=0, trace=False,
                           speed=speed, size=TINY["awgn"])
    # one failed invocation of three in the round, plus the re-run
    assert (raw["failed"], raw["attempted"]) == (1, 4)
    assert raw["problems"] == ["mismatch"]


def test_fault_prefix_mismatch_fails_both_session_invocations(tmp_path):
    wl = workloads.make("session", 6, tmp_path, TINY["session"])
    wl.prepare()
    invs = wl.next_round(0)
    for inv in invs:
        assert uwbphy.cli.main(inv.argv) == 0
    assert wl.check_round(invs) == {}
    fault = next(inv for inv in invs if inv.label == "ppm-fault")
    rows = fault.out.read_text().splitlines()
    first = rows.index(SESSION_CSV_HEADER) + 1
    rows[first] += "0"  # ten times the first segment's throughput
    fault.out.write_text("\n".join(rows) + "\n")
    assert set(wl.check_round(invs)) == {"ppm", "ppm-fault"}


def test_install_rebinds_every_holder_and_uninstall_restores():
    import uwbphy.channel
    import uwbphy.harness
    import uwbphy.reconfig
    before = _module_bindings()
    original = uwbphy.channel.add_awgn
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = uwbphy.channel.add_awgn
        assert wrapped is not original
        assert uwbphy.harness.add_awgn is wrapped
        assert uwbphy.reconfig.add_awgn is wrapped
        assert uwbphy.add_awgn is wrapped
    finally:
        tracer.uninstall()
    assert _module_bindings() == before
    assert tracer.absent == []


def test_missing_function_is_reported_absent():
    before = _module_bindings()
    tracer = spans.Tracer({"channel.no_such_stage": None,
                           "no_such_module.run": None})
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["channel.no_such_stage", "no_such_module.run"]
    assert _module_bindings() == before


def test_count_that_no_longer_fits_is_reported_not_raised():
    import numpy as np
    import uwbphy.channel
    from uwbphy import SampledSignal

    def stale(fn, args, kwargs, result):
        return len(spans._bound(fn, args, kwargs)["renamed_argument"])

    tracer = spans.Tracer({"channel.add_awgn": stale})
    tracer.install()
    try:
        out = uwbphy.channel.add_awgn(SampledSignal(np.zeros(8), 50e9),
                                      0.0, 1.0, 7)
    finally:
        tracer.uninstall()
    assert len(out) == 8
    assert tracer.uncounted == {"channel.add_awgn"}
    assert [s.name for s in tracer.spans] == ["channel.add_awgn"]


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, 0, 0)


def test_self_times_on_synthetic_span_tree():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.x", 2.0, 3.0, 1),
        _span("b", 3.5, 6.0, 0),  # overlaps a: covered once
        _span("c", 8.0, 12.0, 0),  # runs past root: clipped
        _span("leaf", 20.0, 21.5, -1),
    ]
    # root: 10 - |[1, 6] u [8, 10]| = 10 - 7
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 2.5, 4.0, 1.5])


def test_layer_metrics_normalise_per_kbit():
    tree = [
        spans.Span("harness.run_sweep", 0.0, 1.0, -1, 1, 0),
        spans.Span("channel.add_awgn", 0.1, 0.5, 0, 1, 4000),
        spans.Span("receiver.demodulate", 0.5, 0.6, 0, 1, 200),
    ]
    m = spans.layer_metrics(tree, kbits=2.0)
    assert m["harness.run_sweep.self_ms_per_kbit"] == pytest.approx(250.0)
    assert m["channel.add_awgn.self_ms_per_kbit"] == pytest.approx(200.0)
    assert m["channel.add_awgn.normals_drawn"] == 2000
    assert m["receiver.read_ratio"] == pytest.approx(0.05)
    assert m["channel.apply_channel.self_ms_per_kbit"] == 0.0


def test_oracle_matches_textbook_values():
    # Q(sqrt(2)) and Q(1), to the digits tabulated in Proakis
    assert oracle.bpam_ber(0.0) == pytest.approx(0.0786496, rel=1e-5)
    assert oracle.ppm_ber(0.0) == pytest.approx(0.1586553, rel=1e-5)
    # the energy detector gets better with Eb/N0 and stays below 1/2
    assert 0.0 < oracle.ook_ber(8.0, 200) < oracle.ook_ber(0.0, 200) < 0.5


def test_wrong_ber_fails_the_oracle_check(tmp_path):
    size = TINY["awgn"]
    wl = workloads.make("awgn", 5, tmp_path, size)
    wl.prepare_checks()
    inv = wl.next_round(0)[1]  # bpam
    p = [oracle.bpam_ber(g) for g in wl.grid]
    honest = [BerPoint(g, round(size["bits"] * q), size["bits"])
              for g, q in zip(wl.grid, p)]
    inv.out.write_text(format_csv(honest))
    assert wl.check(inv) == []
    # a 3 dB slip in the noise scaling: BER of 0 and 1 dB at 4 dB
    slipped = [BerPoint(g, round(size["bits"] * oracle.bpam_ber(g - 3.0)),
                        size["bits"]) for g in wl.grid]
    inv.out.write_text(format_csv(slipped))
    problems = wl.check(inv)
    assert len(problems) == len(wl.grid)
    assert all("sigma from the closed-form BER" in m for m in problems)


def test_wrong_bit_count_fails_the_sweep_check(tmp_path):
    wl = workloads.make("cm1-q12", 5, tmp_path, TINY["cm1-q12"])
    wl.prepare_checks()
    inv = wl.next_round(0)[0]
    inv.out.write_text(format_csv([BerPoint(0.0, 500, 2000)]))
    assert wl.check(inv) != []


def _record(workload, values, failed=0):
    return json.dumps({"bench_record": {
        "workload": workload,
        "seed": 1,
        "attempted": 10,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()},
    }})


def _write(path, records):
    path.write_text("noise\n" + "\n".join(records) + "\n")
    return path


def test_compare_flags_a_metric_worse_than_its_bound(tmp_path, capsys):
    a = _write(tmp_path / "a.txt", [
        _record("awgn", {"bits_per_s": v, "setup_s": 1.0})
        for v in (100.0, 101.0, 99.0)])
    b = _write(tmp_path / "b.txt", [
        _record("awgn", {"bits_per_s": v, "setup_s": 1.01})
        for v in (70.0, 71.0, 69.0)])
    assert compare.main(a, b, SPEC) == 1
    out = capsys.readouterr().out
    assert "bits_per_s" in out and "WORSE" in out
    assert compare.main(a, a, SPEC) == 0


def test_compare_fails_when_b_lost_a_workload(tmp_path, capsys):
    good = {"bits_per_s": 100.0, "setup_s": 1.0}
    a = _write(tmp_path / "a.txt", [_record("awgn", good),
                                    _record("session", good)])
    b = _write(tmp_path / "b.txt", [_record("awgn", good)])
    assert compare.main(a, b, SPEC) == 1
    assert "only in A" in capsys.readouterr().out
    # a metric that only B reports is no regression
    assert compare.main(b, a, SPEC) == 0


def test_compare_fails_on_any_failed_b_run(tmp_path, capsys):
    good = {"bits_per_s": 100.0, "setup_s": 1.0}
    a = _write(tmp_path / "a.txt", [_record("awgn", good)] * 10)
    b = _write(tmp_path / "b.txt",
               [_record("awgn", good)] * 9 + [_record("awgn", good, 1)])
    assert compare.main(a, b, SPEC) == 1
    assert "B FAILED awgn seed 1: 1 of 10" in capsys.readouterr().out
