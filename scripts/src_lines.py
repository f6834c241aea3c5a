"""Count the lines of the package source by kind: code, docstring, comment and blank.

A docstring line is any line of a module, class or function docstring; a
comment line holds only a comment; a blank line is an empty line outside a
docstring; every other line is code, so the four kinds add up to the total.
Run from the repository root:

    python scripts/src_lines.py            # src/hemix
    python scripts/src_lines.py PATH...    # other files or directories
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER)


def count(source: str) -> dict:
    """The number of lines of each kind in ``source``, and their ``total``."""
    doc, code, comment = set(), set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    lines = source.splitlines()
    for n, line in enumerate(lines, 1):
        if n in doc:
            counts["docstring"] += 1
        elif n in code or (n not in comment and line.strip()):
            counts["code"] += 1
        elif n in comment:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return {"total": len(lines), **counts}


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv if argv is not None else sys.argv[1:]) or ["src/hemix"]]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    totals = dict.fromkeys(("total", *KINDS), 0)
    for f in files:
        for kind, n in count(f.read_text()).items():
            totals[kind] += n
    print(" ".join(totals))
    print(" ".join(str(n) for n in totals.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
