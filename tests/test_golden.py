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
        "8078abdf062d3754773c3209cdfd340626500628d8843bfeee3d5fc9c4a04e09",
    ),
    "sweep-bpam-awgn": (
        ["sweep", "--scheme", "bpam", "--ebn0", "0,4,8", "--bits", "2000",
         "--seed", "5"],
        "1a1865c5f60dbc29c29b59cd8d543168456a0a953f37ce925ccf991bf5d58239",
    ),
    "sweep-ppm-awgn": (
        ["sweep", "--scheme", "ppm", "--ebn0", "0,4,8", "--bits", "2000",
         "--seed", "5"],
        "a757317ac0cccbac40676a383c7cad926c049a484b0fc2f68d84c0ca9c90db8f",
    ),
    "sweep-bpam-cm1-q12": (
        ["sweep", "--scheme", "bpam", "--ebn0", "4,10", "--bits", "2000",
         "--seed", "6", "--channel", "multipath", "--quant-bits", "12"],
        "6939b715693ae7a1da02faacc26a16ddcb041115781d3fbcf9ea2591a0161f98",
    ),
    "sweep-ppm-cm1-q12": (
        ["sweep", "--scheme", "ppm", "--ebn0", "4,10", "--bits", "2000",
         "--seed", "6", "--channel", "multipath", "--quant-bits", "12"],
        "31be1e7cb09e7922f658935c06c893469733e026d436758242d4c7b37de7cdb9",
    ),
    "sweep-ook-cm1": (
        ["sweep", "--scheme", "ook", "--ebn0", "4,10", "--bits", "2000",
         "--seed", "6", "--channel", "multipath"],
        "6a9da47ca802738847b21895b2e8a501c1db16d65a3cc8486679453bef9403a8",
    ),
    "sweep-bpam-cm1": (
        ["sweep", "--scheme", "bpam", "--ebn0", "4,10", "--bits", "2000",
         "--seed", "6", "--channel", "multipath"],
        "4f942d77093515987f8596a001d27c653f1a9c04783fe03ee996554be436c018",
    ),
    "session-ppm-fault": (
        ["session", "--scheme", "ppm", "--ebn0", "8", "--bits", "1200",
         "--seed", "3", "--fault-inject"],
        "e157e9ccba31bdb821e5f6f11296ce6a88c73deff0ab4b2b9eec630381456790",
    ),
    "session-ook-fault": (
        ["session", "--scheme", "ook", "--ebn0", "8", "--bits", "1200",
         "--seed", "3", "--fault-inject"],
        "0867d0a8e3c23329f4abdf22544156579e6d21361799db8c44cd5f3d774e971c",
    ),
    "session-bpam": (
        ["session", "--scheme", "bpam", "--ebn0", "6", "--bits", "1200",
         "--seed", "3"],
        "aa1a19ce294377ce2ff1c0e38074946c08cc0e0693632eb901a3a25cddc32fe3",
    ),
    "sweep-preset-th-ppm-v3": (
        ["sweep", "--preset", "th-ppm-v3", "--ebn0", "0,4", "--bits", "1000",
         "--seed", "5"],
        "7db8aef8807549bc93523dc5aa0aa17fbd8c18f7fc5f6a9e3166bbdeec48aa81",
    ),
    "compare-awgn": (
        ["compare", "--ebn0", "4,8", "--bits", "2000", "--seed", "5"],
        "2d4c62e91218d3b96831c8c2ef6cbe7bbc9635bf7c9ba1da01f431c12cf669c7",
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
# its row must not move however the rest of the grid is run. (The OOK
# row is the one it read once OOK decided at the closed-form threshold,
# receiver.ook_threshold, rather than at a seeded estimate of it.)
FIRST_ROWS = {
    "sweep-bpam-awgn": "0.0,145,2000,0.0725,0.011364937087375362",
    "sweep-ook-cm1": "4.0,982,2000,0.491,0.02190991591038176",
    "sweep-ppm-cm1-q12": "4.0,1023,2000,0.5115,0.02190766930095486",
}


@pytest.mark.parametrize("name", sorted(FIRST_ROWS))
def test_first_sweep_row_is_pinned(name, tmp_path):
    out = tmp_path / "out.csv"
    assert main(RUNS[name][0] + ["--out", str(out)]) == 0
    assert _data_rows(out).splitlines()[1] == FIRST_ROWS[name]
