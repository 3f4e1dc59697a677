"""Golden digests of small fixed CLI runs.

A seeded run must reproduce its CSV byte for byte. These digests pin
the data rows (header and values; `#` metadata comments are left out,
since they carry file paths) of a few sweeps and fault-injected
sessions, so a change that moves any random stream, any reach of a
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
        "aee1fbcd45ce04e85de7e7552b5094ac2c8dc93c1cb1095d31f43fd4cf6a7430",
    ),
    "sweep-bpam-awgn": (
        ["sweep", "--scheme", "bpam", "--ebn0", "0,4,8", "--bits", "2000",
         "--seed", "5"],
        "c886acc79b04721dd69b7bf96a03207b0cd861550d8ecdf3ce1edeca861cc447",
    ),
    "sweep-ppm-awgn": (
        ["sweep", "--scheme", "ppm", "--ebn0", "0,4,8", "--bits", "2000",
         "--seed", "5"],
        "29a3c1ede3e2c89e596be394c18003f4e2c7005dea30076a1a3e2c16ed9169f5",
    ),
    "sweep-bpam-cm1-q12": (
        ["sweep", "--scheme", "bpam", "--ebn0", "4,10", "--bits", "2000",
         "--seed", "6", "--channel", "multipath", "--quant-bits", "12"],
        "79851a3b3a61be46d2f34da2d5b554b8e0fa3f39629aea0a8e01354a26ce0700",
    ),
    "sweep-ppm-cm1-q12": (
        ["sweep", "--scheme", "ppm", "--ebn0", "4,10", "--bits", "2000",
         "--seed", "6", "--channel", "multipath", "--quant-bits", "12"],
        "7877fd8ac2e1ceb872bf7d50aee8249b8a85366b0f583a268de15903e6eeca4e",
    ),
    "sweep-ook-cm1": (
        ["sweep", "--scheme", "ook", "--ebn0", "4,10", "--bits", "2000",
         "--seed", "6", "--channel", "multipath"],
        "65fc5a2de8a0f40997c5d84901eeaacc0fcca77b28e06f3ecc5bba9561b3d9fb",
    ),
    "sweep-bpam-cm1": (
        ["sweep", "--scheme", "bpam", "--ebn0", "4,10", "--bits", "2000",
         "--seed", "6", "--channel", "multipath"],
        "c5f6e9b53f8958e2a1baa12135a6f2b0dad21d3757e4ded28d7553e89c04233d",
    ),
    "session-ppm-fault": (
        ["session", "--scheme", "ppm", "--ebn0", "8", "--bits", "1200",
         "--seed", "3", "--fault-inject"],
        "4732096cffe5829552498313ff0287c1324b507d9f90a95eb1418967eb91e40a",
    ),
    "session-ook-fault": (
        ["session", "--scheme", "ook", "--ebn0", "8", "--bits", "1200",
         "--seed", "3", "--fault-inject"],
        "18610e2c11d97de73087eba562adee548bcbde5c5d46c01a033b54ab6eda62d9",
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
