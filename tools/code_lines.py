"""Code lines of each module of a package, and their total.

Usage, from the repository root:

    python tools/code_lines.py [DIR]

DIR defaults to src/quadint.  A code line is one that holds a token of
code: blank lines, comment lines and the lines of docstrings (of a
module, class or function, as ast finds them) are not counted, while a
line with code and a trailing comment is, and so is every line of a
string that is not a docstring.  Prints one line per module, then the
total.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "quadint"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree) -> set[tuple[int, int]]:
    """(line, column) of the string token of each docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            starts.add((doc.lineno, doc.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count(directory) -> dict[str, int]:
    """{module file name: code lines} of the .py files of ``directory``."""
    return {path.name: code_lines(path.read_text())
            for path in sorted(pathlib.Path(directory).glob("*.py"))}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    counts = count(argv[0] if argv else SRC)
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
