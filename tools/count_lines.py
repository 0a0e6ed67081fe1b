"""Count physical and code lines of the Python files under a directory.

Code lines leave out blank lines, comment-only lines and the lines of
docstrings (a string literal standing alone as the first statement of a
module, class or function).  A line that holds any other token counts
once, however many statements it holds.

    python3 tools/count_lines.py [DIRECTORY]    # default: src/aireliab
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one file's text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstring_lines(ast.parse(source)))


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/aireliab")
    total_physical = total_code = 0
    for path in sorted(root.rglob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{physical:6d} {code:6d}  {path.relative_to(root)}")
    print(f"{total_physical:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
