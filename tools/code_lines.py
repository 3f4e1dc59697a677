"""Count the code lines of each module of src/uwbphy.

A code line holds a token other than a comment, outside docstrings:
blank lines, comment lines and the docstrings of modules, classes and
functions do not count, while every line of any other multi-line token
does. Prints one `<lines> <module>` row per module and the total.

    python tools/code_lines.py [DIR]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python source text."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


SRC = Path(__file__).parent.parent / "src/uwbphy"


def module_lines(root=SRC):
    """{module name: code lines} for each module directly in root."""
    return {path.stem: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(root.glob("*.py"))}


def main(argv):
    counts = module_lines(Path(argv[0]) if argv else SRC)
    for name, n in counts.items():
        print(f"{n:5d} {name}")
    print(f"{sum(counts.values()):5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
