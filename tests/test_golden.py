"""Golden digests of small fixed CLI runs.

A seeded run must reproduce its CSV byte for byte. These digests pin
the data rows (header and values; `#` metadata comments are left out,
since they carry file paths) of tools/cli_diff.py's runs, by name: a
few sweeps, a comparison, a code file and sessions, so a change that
moves any random stream, any reach of a pulse into a window or any
decision shows up here.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from uwbphy.cli import main

TOOL = Path(__file__).parents[1] / "tools" / "cli_diff.py"
_spec = importlib.util.spec_from_file_location("cli_diff", TOOL)
cli_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_diff)

DIGESTS = {
    "sweep-ook-awgn":
        "8078abdf062d3754773c3209cdfd340626500628d8843bfeee3d5fc9c4a04e09",
    "sweep-bpam-awgn":
        "1a1865c5f60dbc29c29b59cd8d543168456a0a953f37ce925ccf991bf5d58239",
    "sweep-ppm-awgn":
        "a757317ac0cccbac40676a383c7cad926c049a484b0fc2f68d84c0ca9c90db8f",
    "sweep-bpam-cm1-q12":
        "6939b715693ae7a1da02faacc26a16ddcb041115781d3fbcf9ea2591a0161f98",
    "sweep-ppm-cm1-q12":
        "31be1e7cb09e7922f658935c06c893469733e026d436758242d4c7b37de7cdb9",
    "sweep-ook-cm1":
        "6a9da47ca802738847b21895b2e8a501c1db16d65a3cc8486679453bef9403a8",
    "sweep-bpam-cm1":
        "4f942d77093515987f8596a001d27c653f1a9c04783fe03ee996554be436c018",
    "session-ppm-8db-fault":
        "e157e9ccba31bdb821e5f6f11296ce6a88c73deff0ab4b2b9eec630381456790",
    "session-ook-8db-fault":
        "0867d0a8e3c23329f4abdf22544156579e6d21361799db8c44cd5f3d774e971c",
    "session-bpam-6db":
        "aa1a19ce294377ce2ff1c0e38074946c08cc0e0693632eb901a3a25cddc32fe3",
    "session-ook-swaps":
        "52b9e089ca0ce1f5f14201ed9b4a64696506b8990971fc6e82ab986a3b1857b7",
    "session-ook-swaps-fault":
        "9b4e3b1499f29de5632216141a9e26fe6812f9eb402728c448eaf6e4b4726e0f",
    "session-ppm-swaps":
        "9ca52db959819e9721a15d243189f4a37138daeb995ea18bb3c3b1df7723ef32",
    "session-ppm-swaps-fault":
        "ad024bbe9caf88009a84218d83611efc8252e2c649878c6a4511bb1cc8b2919f",
    "preset-th-ppm-v3":
        "7db8aef8807549bc93523dc5aa0aa17fbd8c18f7fc5f6a9e3166bbdeec48aa81",
    "compare":
        "2d4c62e91218d3b96831c8c2ef6cbe7bbc9635bf7c9ba1da01f431c12cf669c7",
    "codegen":
        "a78b0bb407a4b533f5dddc514994e89e6781ffbe32eb58d2eec4b8570f781353",
}


def _data_rows(name, tmp_path, monkeypatch):
    """The CSV data rows of run name, run in tmp_path by its input files."""
    for file, text in cli_diff.SCRIPTS.items():
        (tmp_path / file).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(cli_diff.RUNS[name] + ["--out", "out.csv"]) == 0
    text = (tmp_path / "out.csv").read_text(encoding="utf-8")
    return "".join(ln for ln in text.splitlines(True)
                   if not ln.startswith("#"))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_cli_output_is_pinned(name, tmp_path, monkeypatch):
    rows = _data_rows(name, tmp_path, monkeypatch)
    assert hashlib.sha256(rows.encode("utf-8")).hexdigest() == DIGESTS[name]


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
def test_first_sweep_row_is_pinned(name, tmp_path, monkeypatch):
    rows = _data_rows(name, tmp_path, monkeypatch)
    assert rows.splitlines()[1] == FIRST_ROWS[name]
