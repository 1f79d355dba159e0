"""Count the lines of code in src/robkf: non-blank lines outside comments
and docstrings.

A line counts when a token other than a comment starts, ends or runs
through it (``tokenize``) and it is not part of a module, class or
function docstring (``ast``). ROADMAP's line-count list quotes this total.

    python tools/count_lines.py

prints the count of each ``.py`` file under src/robkf, then the total.
"""
from __future__ import annotations

import ast
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of non-blank lines of path outside comments and docstrings."""
    with path.open("rb") as f:
        lines = {line for tok in tokenize.tokenize(f.readline) if tok.type not in _SKIP
                 for line in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main() -> None:
    root = Path(__file__).resolve().parent.parent / "src" / "robkf"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
