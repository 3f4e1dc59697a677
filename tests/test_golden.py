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
        "397d111575a4365919b75215ecf204343f92cc25804d707c7899e8d2970673cb",
    ),
    "sweep-bpam-awgn": (
        ["sweep", "--scheme", "bpam", "--ebn0", "0,4,8", "--bits", "2000",
         "--seed", "5"],
        "b8222127bdfced818b1f54b845c753ab68213c555ea10fd2f786027b8196d973",
    ),
    "sweep-ppm-awgn": (
        ["sweep", "--scheme", "ppm", "--ebn0", "0,4,8", "--bits", "2000",
         "--seed", "5"],
        "4c960e868e677d40fb2d8b6d46c56b2ba48c7d54e5bfbb4669c937fe175e3a6a",
    ),
    "sweep-bpam-cm1-q12": (
        ["sweep", "--scheme", "bpam", "--ebn0", "4,10", "--bits", "2000",
         "--seed", "6", "--channel", "multipath", "--quant-bits", "12"],
        "e4e950fc43c46b9a9fdf9ffd5371f8a424fdf9f3916bbff02ba4066d60e92090",
    ),
    "sweep-ppm-cm1-q12": (
        ["sweep", "--scheme", "ppm", "--ebn0", "4,10", "--bits", "2000",
         "--seed", "6", "--channel", "multipath", "--quant-bits", "12"],
        "e755efd268b1c0005fe66d28fb3923359f69e503015c3e00ee9e8c7f948af1ea",
    ),
    "sweep-ook-cm1": (
        ["sweep", "--scheme", "ook", "--ebn0", "4,10", "--bits", "2000",
         "--seed", "6", "--channel", "multipath"],
        "03d8bd72a4bb0d51f5c5c0424fe11241fe9cf96d054220c58f08173d47e9f02d",
    ),
    "sweep-bpam-cm1": (
        ["sweep", "--scheme", "bpam", "--ebn0", "4,10", "--bits", "2000",
         "--seed", "6", "--channel", "multipath"],
        "0d81aa917f9690a86e83b87df9d34f86a5e73b50a2d78c94b5905d1e12d4f37a",
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
        "2fcf08c1243abfb59d475086d8b5314429fcb4c7c27ce890d369d3b3f2469496",
    ),
    "compare-awgn": (
        ["compare", "--ebn0", "4,8", "--bits", "2000", "--seed", "5"],
        "4cd39f0e51fb5f70ceed185e50d2196ef340e4235faa5bf7a2168eb5a541a73e",
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
