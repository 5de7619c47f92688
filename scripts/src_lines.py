#!/usr/bin/env python3
"""Code lines and total lines of each Python file under a source tree.

A code line holds a token of a statement: blank lines, comment lines and
the lines of docstrings (the leading string of a module, class or function
body) are not code.  Prints one row per file, relative to the tree, then
the totals:

    python3 scripts/src_lines.py [ROOT]

ROOT defaults to src/sdwigner of this checkout.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parents[1] / "src" / "sdwigner"
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers of the docstrings in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str):
    """(code lines, total lines) of Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return len(code), len(source.splitlines())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", nargs="?", type=Path, default=DEFAULT_ROOT)
    args = ap.parse_args(argv)
    rows = [(path.relative_to(args.root).as_posix(), *count_lines(path.read_text()))
            for path in sorted(args.root.rglob("*.py"))]
    width = max([len("total")] + [len(name) for name, _, _ in rows])
    print(f"{'file':<{width}}  {'code':>6}  {'lines':>6}")
    for name, code, total in rows:
        print(f"{name:<{width}}  {code:>6}  {total:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>6}")


if __name__ == "__main__":
    main()
