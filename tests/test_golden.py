"""Golden digests of small fixed CLI runs.

A seeded run must reproduce its CSV byte for byte. These digests pin
the data rows (header and values; `#` metadata comments are left out,
since they carry file paths) of a few sweeps, a comparison, a code file
and sessions with and without fault injection, so a change that moves any random stream, any reach of a
pulse into a window or any decision shows up here.
"""

import hashlib

import pytest

from uwbphy.cli import main

SESSION_SCRIPT = "@400 set tc=20 signal=1\n@800 set tc=12 signal=1\n"

RUNS = {
    "sweep-ook-awgn": (
        ["sweep", "--scheme", "ook", "--ebn0", "0,4,8", "--bits", "2000",
         "--seed", "5"],
        "78b3b54165ed118153b2487a8260771f02eb4fce02a9acf721b711099967e2e8",
    ),
    "sweep-bpam-awgn": (
        ["sweep", "--scheme", "bpam", "--ebn0", "0,4,8", "--bits", "2000",
         "--seed", "5"],
        "cd4d0702f33467dab32da5361dd56496d72ad3e66399e4c6797743b4bcc46af5",
    ),
    "sweep-ppm-awgn": (
        ["sweep", "--scheme", "ppm", "--ebn0", "0,4,8", "--bits", "2000",
         "--seed", "5"],
        "69f004b8540229afabd560c892648873aa83c190ae56e40305e090ac74822995",
    ),
    "sweep-bpam-cm1-q12": (
        ["sweep", "--scheme", "bpam", "--ebn0", "4,10", "--bits", "2000",
         "--seed", "6", "--channel", "multipath", "--quant-bits", "12"],
        "e64dae7511d9f9ec1ecbf74faa71d4a30a0afa2bae5cbc46d4180a1e55340f32",
    ),
    "sweep-ppm-cm1-q12": (
        ["sweep", "--scheme", "ppm", "--ebn0", "4,10", "--bits", "2000",
         "--seed", "6", "--channel", "multipath", "--quant-bits", "12"],
        "cce0bcf9dc4344037778be684d7bf9d88296ecf73d6d0233fbd894dad493132e",
    ),
    "sweep-ook-cm1": (
        ["sweep", "--scheme", "ook", "--ebn0", "4,10", "--bits", "2000",
         "--seed", "6", "--channel", "multipath"],
        "85cfa15da76b6292dad110a79fe1a1d8870530ee81b760ab669b9220504a6a67",
    ),
    "sweep-bpam-cm1": (
        ["sweep", "--scheme", "bpam", "--ebn0", "4,10", "--bits", "2000",
         "--seed", "6", "--channel", "multipath"],
        "5e0a019e549f6fb7220c0256eccf8d9587153190ee09d666dcc2cc0e250d8905",
    ),
    "session-ppm-fault": (
        ["session", "--scheme", "ppm", "--ebn0", "8", "--bits", "1200",
         "--seed", "3", "--fault-inject"],
        "e8c4aa210dd398509cb27c1ec94c48e60571b6dd4248db895c24e1f901b2a062",
    ),
    "session-ook-fault": (
        ["session", "--scheme", "ook", "--ebn0", "8", "--bits", "1200",
         "--seed", "3", "--fault-inject"],
        "f528ecabbf48ba4e58fb08483e4b74ffe715b73f443e3612e6baee8f966a22f8",
    ),
    "session-bpam": (
        ["session", "--scheme", "bpam", "--ebn0", "6", "--bits", "1200",
         "--seed", "3"],
        "c72042c5ba17e82e649fce50aa6c89e5c318c8480742c1649b402e035779525b",
    ),
    "sweep-preset-th-ppm-v3": (
        ["sweep", "--preset", "th-ppm-v3", "--ebn0", "0,4", "--bits", "1000",
         "--seed", "5"],
        "b263a1fc4e21b1c9c4cf56e2e56ca89a4a0c87c274caedea399d4d171439f092",
    ),
    "compare-awgn": (
        ["compare", "--ebn0", "4,8", "--bits", "2000", "--seed", "5"],
        "2a085ea535cb7ca2dc0379e84054caec03a9f558bcafe3116674ff37fe567144",
    ),
    "codegen": (
        ["codegen", "--nc", "8", "--count", "3", "--seed", "9"],
        "a78b0bb407a4b533f5dddc514994e89e6781ffbe32eb58d2eec4b8570f781353",
    ),
}


def _data_rows(path):
    text = path.read_text(encoding="utf-8")
    return "".join(ln for ln in text.splitlines(True) if not ln.startswith("#"))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_is_pinned(name, tmp_path):
    argv, digest = RUNS[name]
    argv = list(argv)
    if argv[0] == "session":
        script = tmp_path / "schedule.txt"
        script.write_text(SESSION_SCRIPT, encoding="utf-8")
        argv += ["--script", str(script)]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    rows = _data_rows(out)
    assert hashlib.sha256(rows.encode("utf-8")).hexdigest() == digest


# The first data row of three sweeps, as it read before the grid came to
# share its bits and channels: point 0's streams are the shared ones, so
# its row must not move however the rest of the grid is run.
FIRST_ROWS = {
    "sweep-bpam-awgn": "0.0,145,2000,0.0725,0.011364937087375362",
    "sweep-ook-cm1": "4.0,983,2000,0.4915,0.02191029945482261",
    "sweep-ppm-cm1-q12": "4.0,1023,2000,0.5115,0.02190766930095486",
}


@pytest.mark.parametrize("name", sorted(FIRST_ROWS))
def test_first_sweep_row_is_pinned(name, tmp_path):
    out = tmp_path / "out.csv"
    assert main(RUNS[name][0] + ["--out", str(out)]) == 0
    assert _data_rows(out).splitlines()[1] == FIRST_ROWS[name]
