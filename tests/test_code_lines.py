"""tools/code_lines.py counts code lines as CHANGES.md quotes them."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import math  # a trailing comment counts as code


class Thing:
    """Class docstring."""

    def area(self, r):
        """Function
        docstring."""

        text = """a multi-line
string that is no docstring"""
        return math.pi * r * r, text
'''


def test_counts_tokens_outside_comments_and_docstrings():
    # import, class, def, the two lines of the string, return
    assert code_lines.code_lines(FIXTURE) == 6


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# y = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "    6 a", "    1 b", "    7 total", ""]


# The line budget of src/uwbphy: its code lines, exactly. A change that
# raises it says why in CHANGES.md; one that lowers the count lowers it
# with it, so the budget quoted in ROADMAP.md stays the count.
SRC_CODE_LINES = 1643


def test_src_stays_within_its_line_budget():
    assert sum(code_lines.module_lines().values()) == SRC_CODE_LINES
