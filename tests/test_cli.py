import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from uwbphy import SweepConfig, ThParams, load_code_file, read_csv, run_sweep
from uwbphy import cli
from uwbphy.cli import main
from uwbphy.framing import MAX_CODE_LENGTH
from uwbphy.harness import CSV_HEADER, SESSION_CSV_HEADER


def run(argv):
    return main(argv)


class TestSweepCommand:
    def test_writes_parseable_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = run(
            [
                "sweep",
                "--scheme",
                "bpam",
                "--ebn0",
                "0,4",
                "--bits",
                "2000",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        points = read_csv(out)
        assert [p.ebn0_db for p in points] == [0.0, 4.0]
        assert all(p.bits == 2000 for p in points)

    def test_matches_direct_api_call(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert (
            run(
                [
                    "sweep",
                    "--scheme",
                    "ppm",
                    "--ebn0",
                    "2,6",
                    "--bits",
                    "1000",
                    "--seed",
                    "11",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        direct = run_sweep(
            SweepConfig(
                scheme="ppm",
                ebn0_grid=(2.0, 6.0),
                n_bits_per_point=1000,
                base_seed=11,
                params=ThParams(t_c=10e-9, n_c=8),
            )
        )
        via_cli = read_csv(out)
        assert [(p.ebn0_db, p.errors) for p in via_cli] == [
            (p.ebn0_db, p.errors) for p in direct
        ]

    def test_stdout_by_default(self, capsys):
        assert run(["sweep", "--scheme", "bpam", "--ebn0", "inf", "--bits", "1000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == CSV_HEADER
        assert body[1].startswith("inf,0,1000,")

    def test_preset(self, tmp_path, capsys):
        rc = run(
            ["sweep", "--preset", "th-bpam-v1", "--ebn0", "inf", "--bits", "1000"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "# preset = th-bpam-v1" in out
        assert "# datapath = quantized32" in out

    @pytest.mark.parametrize(
        "extra, datapath",
        [([], "quantized32"), (["--quant-bits", "12"], "quantized12")],
    )
    def test_preset_word_width_unless_given(self, extra, datapath, capsys):
        rc = run(["sweep", "--preset", "th-ook-v2", "--ebn0", "inf",
                  "--bits", "1000"] + extra)
        assert rc == 0
        out = capsys.readouterr().out
        assert "# scheme = ook" in out
        assert f"# datapath = {datapath}" in out

    def test_scheme_and_preset_are_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--scheme", "bpam", "--preset", "th-ook-v1"])
        assert exc.value.code == 2

    def test_one_of_them_is_required(self):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--ebn0", "0"])
        assert exc.value.code == 2

    def test_grid_with_a_non_number_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--scheme", "bpam", "--ebn0", "1,x"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "expected comma-separated numbers, got '1,x'" in captured.err
        assert captured.out == ""

    def test_config_error_exits_2(self, capsys):
        rc = run(["sweep", "--scheme", "bpam", "--bits", "50"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("adc_bits", ["1", "2"])
    def test_ook_below_three_adc_bits_exits_2(self, adc_bits, capsys):
        # below 3 bits a quantized OOK window of noise alone holds about
        # as much energy as one with a pulse: coin flips, not a BER
        rc = run(["sweep", "--scheme", "ook", "--ebn0", "8,14,20", "--bits",
                  "4000", "--seed", "1", "--quant-bits", adc_bits])
        assert rc == 2
        captured = capsys.readouterr()
        assert "at least 3 bits" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("grid", ["--ebn0=nan", "--ebn0=-inf,0"])
    def test_non_finite_eb_n0_exits_2(self, grid, capsys):
        rc = run(["sweep", "--scheme", "bpam", grid, "--bits", "1000"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "Eb/N0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_negative_seed_exits_2(self, command, capsys):
        rc = run([command, "--scheme", "bpam", "--ebn0", "0", "--bits",
                  "1000", "--seed", "-1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "base_seed must be >= 0" in captured.err
        assert captured.out == ""

    def test_unwritable_output_exits_3(self, capsys):
        rc = run(
            [
                "sweep",
                "--scheme",
                "bpam",
                "--ebn0",
                "inf",
                "--bits",
                "1000",
                "--out",
                "/no/such/directory/curve.csv",
            ]
        )
        assert rc == 3
        assert "i/o error:" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--scheme", "ook", "--ebn0", "4", "--bits", "1000", "--seed", "3"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCompareCommand:
    def test_ranking_on_stdout(self, capsys):
        rc = run(
            [
                "compare",
                "--scheme",
                "bpam",
                "--scheme",
                "ook",
                "--ebn0",
                "4",
                "--bits",
                "2000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("ebn0_db")
        assert "bpam" in out and "ook" in out
        assert " > " in out or " >! " in out

    def test_default_runs_all_three(self, capsys):
        rc = run(["compare", "--ebn0", "inf", "--bits", "1000"])
        assert rc == 0
        head = capsys.readouterr().out.splitlines()[0]
        for scheme in ("ook", "bpam", "ppm"):
            assert scheme in head


class TestParserReuse:
    # main parses every call with one parser, built on first use

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_repeated_scheme_does_not_accumulate(self, capsys):
        for scheme in ("bpam", "ook"):
            argv = ["compare", "--scheme", scheme, "--ebn0", "inf",
                    "--bits", "1000"]
            assert run(argv) == 0
            head = capsys.readouterr().out.splitlines()[0]
            assert head.split() == ["ebn0_db", scheme, "ranking"]

    def test_sweep_after_session_parses_its_own_defaults(self):
        parse = cli._parser().parse_args
        parse(["session", "--script", "plan.txt", "--ebn0", "3",
               "--bits", "5", "--seed", "4", "--tc", "20"])
        args = parse(["sweep", "--scheme", "bpam"])
        assert args.func is cli._cmd_sweep
        assert args.ebn0 == cli._grid(cli.DEFAULT_GRID)
        assert (args.bits, args.seed, args.tc) == (10_000, 0, 10.0)
        assert not hasattr(args, "script")


class TestSessionCommand:
    def write_script(self, tmp_path, text):
        path = tmp_path / "plan.txt"
        path.write_text(text)
        return str(path)

    def test_noiseless_session_csv(self, tmp_path):
        script = self.write_script(tmp_path, "@500 set tc=20 signal=1\n")
        out = tmp_path / "session.csv"
        rc = run(
            [
                "session",
                "--script",
                script,
                "--scheme",
                "bpam",
                "--bits",
                "1000",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == SESSION_CSV_HEADER
        assert len(body) == 3  # two segments
        first = body[1].split(",")
        assert first[:4] == ["0", "0", "500", "0"]

    def test_fault_injected_code_swap(self, tmp_path, capsys):
        codes = tmp_path / "codes.txt"
        codes.write_text(
            "code a: 2,0,3,1,7,4,6,5\n"
            "code b: 5,3,6,0,2,7,1,4\n"
        )
        script = self.write_script(tmp_path, "@500 set code=b signal=1\n")
        rc = run(
            [
                "session",
                "--script",
                script,
                "--scheme",
                "bpam",
                "--bits",
                "1000",
                "--code-file",
                str(codes),
                "--fault-inject",
            ]
        )
        assert rc == 0
        body = [
            ln
            for ln in capsys.readouterr().out.splitlines()
            if not ln.startswith("#")
        ]
        last = body[-1].split(",")
        assert float(last[4]) >= 0.2  # mismatched codes garble the tail

    def test_missing_script_exits_3(self, capsys):
        rc = run(["session", "--script", "/does/not/exist.txt"])
        assert rc == 3
        assert "i/o error:" in capsys.readouterr().err

    def test_bad_script_exits_2(self, tmp_path, capsys):
        script = self.write_script(tmp_path, "@10 set tc=zero signal=1\n")
        rc = run(["session", "--script", script])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("ebn0", ["nan", "-inf"])
    def test_non_finite_eb_n0_exits_2(self, tmp_path, ebn0, capsys):
        script = self.write_script(tmp_path, "@10 set tc=20 signal=1\n")
        rc = run(["session", "--script", script, f"--ebn0={ebn0}"])
        assert rc == 2
        assert "Eb/N0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--bits", "-5"], "--bits must be >= 0"),
            (["--seed", "-1"], "--seed must be >= 0"),
        ],
    )
    def test_negative_bits_or_seed_exits_2(self, tmp_path, flag, message,
                                          capsys):
        script = self.write_script(tmp_path, "@10 set tc=20 signal=1\n")
        rc = run(["session", "--script", script] + flag)
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_byte_identical_reruns(self, tmp_path):
        script = self.write_script(tmp_path, "@300 set nc=16 signal=1\n")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = [
            "session",
            "--script",
            script,
            "--scheme",
            "ppm",
            "--bits",
            "800",
            "--ebn0",
            "8",
            "--seed",
            "5",
        ]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCodegenCommand:
    def test_generates_loadable_bank(self, tmp_path):
        out = tmp_path / "codes.txt"
        rc = run(
            [
                "codegen",
                "--nc",
                "4",
                "--length",
                "6",
                "--count",
                "3",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        bank = load_code_file(out, ThParams(t_c=10e-9, n_c=4))
        assert sorted(bank.entries) == ["gen10", "gen11", "gen9"]
        assert bank.active_id == "gen9"
        for code in bank.entries.values():
            assert len(code) == 6
            assert all(0 <= c < 4 for c in code.offsets)

    def test_out_required(self):
        with pytest.raises(SystemExit) as exc:
            run(["codegen", "--nc", "4"])
        assert exc.value.code == 2

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        rc = run(["codegen", "--nc", "8", "--seed", "-3",
                  "--out", str(tmp_path / "codes.txt")])
        assert rc == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_no_codes_exits_2(self, tmp_path, count, capsys):
        out = tmp_path / "codes.txt"
        rc = run(["codegen", "--nc", "8", "--count", count, "--out", str(out)])
        assert rc == 2
        assert "--count must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        ["--length", "1000000000"],
        ["--count", "100000000"],
        ["--length", str(MAX_CODE_LENGTH), "--count", "2"],
    ], ids=["length", "count", "length-times-count"])
    def test_huge_code_file_exits_2_before_allocating(self, tmp_path, extra,
                                                      capsys):
        # codegen builds every code before it writes the file, so the
        # codes together may hold at most MAX_CODE_LENGTH offsets
        out = tmp_path / "codes.txt"
        tracemalloc.start()
        try:
            rc = run(["codegen", "--nc", "8", "--out", str(out)] + extra)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert str(MAX_CODE_LENGTH) in captured.err
        assert captured.out == ""
        assert not out.exists()
        assert peak < 1 << 20

    def test_bad_directory_exits_3(self, capsys):
        rc = run(["codegen", "--nc", "4", "--out", "/no/such/dir/codes.txt"])
        assert rc == 3
        assert "i/o error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    ["mean_clusters = 1e12", "max_excess_delay = 1e12",
     "ray_arrival_rate = 1e9"],
)
def test_huge_profile_value_exits_2_before_allocating(tmp_path, line, capsys):
    profile = tmp_path / "profile.txt"
    profile.write_text(line + "\n")
    argv = ["sweep", "--scheme", "bpam", "--ebn0", "4", "--bits", "1000",
            "--channel", "multipath", "--profile-file", str(profile)]
    tracemalloc.start()
    try:
        rc = run(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "at most" in capsys.readouterr().err
    assert peak < 1 << 20


@pytest.mark.parametrize("argv", [
    ["sweep", "--scheme", "bpam", "--channel", "awgn"],
    ["compare"],
], ids=["sweep-awgn", "compare-default"])
def test_profile_file_without_multipath_exits_2(tmp_path, argv, capsys):
    # a profile describes multipath, so an AWGN sweep, named or by
    # default, refuses one rather than running over its channel
    profile = tmp_path / "profile.txt"
    profile.write_text("max_excess_delay = 20.0\n")
    rc = run(argv + ["--ebn0", "0", "--bits", "1000",
                     "--profile-file", str(profile)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert "--channel multipath" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--scheme", "bpam", "--bits", "1000", "--nc", str(10**15)],
     ["sweep", "--scheme", "ook", "--bits", "1000", "--tc", "1e15"],
     ["session", "--tc", "1e15", "--script", "plan.txt"],
     ["sweep", "--scheme", "ook", "--bits", "1000", "--tc", "1e20"],
     ["compare", "--bits", "1000", "--tc", "1e20"],
     ["session", "--tc", "1e20", "--script", "plan.txt"],
     ["session", "--script", "huge.txt"]],
)
def test_sample_index_overflow_exits_2(tmp_path, monkeypatch, argv, capsys):
    # bits times the frame length in samples is past the int64 range,
    # or (a t_c of 1e20 ns or more) a single frame is
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plan.txt").write_text("@500 set tc=20 signal=1\n")
    (tmp_path / "huge.txt").write_text("@100 set tc=1e30 signal=1\n")
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "64-bit" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["sweep", "--scheme", "bpam", "--bits", "1000"],
    ["codegen", "--out", "codes.txt"],
], ids=["sweep", "codegen"])
def test_n_c_past_int64_exits_2(tmp_path, monkeypatch, command, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(command + ["--nc", str(10**20)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "n_c" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "codes.txt").exists()


def test_long_frames_below_the_overflow_bound_run(capsys):
    rc = run(["sweep", "--scheme", "bpam", "--ebn0", "4", "--bits", "1000",
              "--nc", "100000"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("4.0,")


@pytest.mark.parametrize("flag", ["--script", "--code-file", "--profile-file"])
def test_input_file_not_utf8_exits_2(tmp_path, flag, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe@10 set tc=20 signal=1\n")
    script = tmp_path / "plan.txt"
    script.write_text("@10 set tc=20 signal=1\n")
    argv = {
        "--script": ["session", "--script", str(bad)],
        "--code-file": ["session", "--script", str(script),
                        "--code-file", str(bad)],
        "--profile-file": ["sweep", "--scheme", "bpam", "--ebn0", "0",
                           "--channel", "multipath", "--profile-file",
                           str(bad)],
    }[flag]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "not UTF-8" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["sweep", "--scheme", "bpam", "--ebn0", "4", "--bits", "1000"],
    ["codegen", "--nc", "4", "--count", "2"],
], ids=["sweep", "codegen"])
def test_rewrite_over_a_longer_file_leaves_only_the_new_bytes(tmp_path,
                                                              command):
    # --out is rewritten in place and cut to length, not truncated on
    # open: none of the old file's tail may remain
    fresh = tmp_path / "fresh.txt"
    assert run(command + ["--out", str(fresh)]) == 0
    out = tmp_path / "out.txt"
    out.write_bytes(b"x" * (3 * fresh.stat().st_size))
    assert run(command + ["--out", str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


def test_out_may_be_a_device():
    # a device has no tail to cut, and cannot be truncated
    rc = run(["sweep", "--scheme", "bpam", "--ebn0", "4", "--bits", "1000",
              "--out", os.devnull])
    assert rc == 0


def test_import_loads_no_scipy():
    # scipy.signal alone cost most of the CLI's start-up; src/ needs
    # numpy only, and any later scipy use there must import lazily
    code = (
        "import sys, uwbphy.cli; "
        "print(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert proc.stdout.strip() == "[]"
