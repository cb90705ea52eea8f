"""Print the code lines of each module in ``src/cyclotomy`` and their total.

A code line holds at least one token that is not a comment, and is not part
of a docstring; blank lines, comment lines and docstrings are not counted.
Standard library only; run it from anywhere as

    python3 tests/code_lines.py [ROOT]

where ROOT is the checkout to count, by default the one holding this file.
"""

import ast
import glob
import io
import os
import sys
import tokenize

SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        first = node.body[0] if isinstance(node, SCOPES) and node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main(root: str) -> None:
    total = 0
    for path in sorted(glob.glob("src/cyclotomy/*.py", root_dir=root)):
        with open(os.path.join(root, path)) as fh:
            lines = code_lines(fh.read())
        total += lines
        print("%5d %s" % (lines, path))
    print("%5d total" % total)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
