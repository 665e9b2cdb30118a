"""Print the line counts of every module of the rsdnet package under one
source tree, as JSON.

Run from the repository root, once per tree, and compare the totals:

    python3 tools/src_lines.py --src ../parent/src > parent.json
    python3 tools/src_lines.py --src src > change.json

Each module, and the total, gets two counts: "lines", the number of lines
as `wc -l` counts them, and "code", the lines that hold code, which leaves
out blank lines, comment-only lines and the lines of docstrings (the
string that opens a module, class or function body).
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

import srctree

# tokens that hold no code by themselves
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(text: str) -> dict:
    """The "lines" and "code" counts of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return {"lines": text.count("\n"),
            "code": len(code - _docstring_lines(ast.parse(text)))}


def report(src: Path) -> dict:
    modules = {path.name: counts(path.read_text(encoding="utf-8"))
               for path in sorted(srctree.package(src).glob("*.py"))}
    total = {key: sum(c[key] for c in modules.values()) for key in ("lines", "code")}
    return {"modules": modules, "total": total}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True,
                        help="a directory holding the rsdnet package")
    args = parser.parse_args()
    print(json.dumps(report(Path(args.src)), indent=1))


if __name__ == "__main__":
    main()
