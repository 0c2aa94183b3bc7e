"""Count the lines of each module under src/: code, docstring, comment, blank.

Usage: python tools/src_lines.py [ROOT]   (ROOT defaults to the repo's src/)

Every line of a module, class or function docstring is a docstring line.
A comment line holds only a comment. A code line is any other line that
holds a token, the lines inside a multi-line string included. The rest are
blank. Prints one row per module and a total row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text: str) -> dict[str, int]:
    """{'lines', 'code', 'docstring', 'comment', 'blank'} of one module's source."""
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            expr = node.body[0]
            docstring.update(range(expr.lineno, expr.end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    comment -= code | docstring
    lines = len(text.splitlines())
    return {"lines": lines, "code": len(code), "docstring": len(docstring),
            "comment": len(comment), "blank": lines - len(code | docstring | comment)}


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    keys = ("lines", "code", "docstring", "comment", "blank")
    total = dict.fromkeys(keys, 0)
    print("module," + ",".join(keys))
    for path in sorted(root.rglob("*.py")):
        counts = count(path.read_text())
        print(f"{path.relative_to(root)}," + ",".join(str(counts[k]) for k in keys))
        for k in keys:
            total[k] += counts[k]
    print("total," + ",".join(str(total[k]) for k in keys))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
