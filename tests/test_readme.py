"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_three_examples():
    assert len(BLOCKS) == 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plan.txt").write_text("@500 set tc=5 signal=1\n")
    exec(compile(BLOCKS[index], f"README.md example {index + 1}", "exec"), {})
    assert capsys.readouterr().out
