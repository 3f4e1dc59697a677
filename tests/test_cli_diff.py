"""tools/cli_diff.py tells two source trees' CLI runs apart."""

import importlib.util
import shutil
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "cli_diff.py"
_spec = importlib.util.spec_from_file_location("cli_diff", TOOL)
cli_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_diff)

SRC = Path(__file__).parents[1] / "src"


def test_names_a_run_that_differs_and_passes_one_that_does_not(
        tmp_path, capsys):
    run = "sweep-bpam-awgn"
    assert cli_diff.main([str(SRC), str(SRC), run]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{run}: same", "1 of 1 runs identical"]
    # a copy whose sweep CSV names one column differently
    planted = tmp_path / "src"
    shutil.copytree(SRC, planted,
                    ignore=shutil.ignore_patterns("__pycache__"))
    harness = planted / "uwbphy" / "harness.py"
    text = harness.read_text()
    assert text.count('"ebn0_db,errors,bits,ber,ci95"') == 1
    harness.write_text(text.replace('"ebn0_db,errors,bits,ber,ci95"',
                                    '"ebn0_db,errors,bits,ber,ci"'))
    assert cli_diff.main([str(SRC), str(planted), run]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{run}: differ in stdout", "0 of 1 runs identical"]


def test_names_a_run_whose_output_file_differs(tmp_path, capsys):
    assert cli_diff.main([str(SRC), str(SRC), "codegen"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "codegen: same", "1 of 1 runs identical"]
    # a copy whose code files put a space after each comma
    planted = tmp_path / "src"
    shutil.copytree(SRC, planted,
                    ignore=shutil.ignore_patterns("__pycache__"))
    framing = planted / "uwbphy" / "framing.py"
    text = framing.read_text()
    assert text.count("{','.join(map(str, code.offsets))}") == 1
    framing.write_text(text.replace("{','.join(map(str, code.offsets))}",
                                    "{', '.join(map(str, code.offsets))}"))
    assert cli_diff.main([str(SRC), str(planted), "codegen"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "codegen: differ in output file", "0 of 1 runs identical"]


def test_refuses_an_unknown_run(capsys):
    assert cli_diff.main([str(SRC), str(SRC), "no-such-run"]) == 2
    assert "no-such-run" in capsys.readouterr().err
