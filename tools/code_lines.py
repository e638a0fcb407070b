#!/usr/bin/env python3
"""Code lines (non-blank, non-comment, non-docstring) of files or trees.

``python tools/code_lines.py PATH...`` prints one count per path. With
``--broker-ratchet`` (CI's ``serve-smoke``) it also fails when
``src/repro/serve/broker.py`` exceeds 650 code lines or talks to the
metrics registry itself instead of through ``serve/accounting.py``.
"""

import ast
import io
import pathlib
import sys
import tokenize

BROKER, BROKER_MAX = pathlib.Path("src/repro/serve/broker.py"), 650
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            lines.difference_update(
                range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def count(path: pathlib.Path) -> int:
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(code_lines(f.read_text(encoding="utf-8")) for f in files)


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        if arg != "--broker-ratchet":
            print(f"{count(pathlib.Path(arg)):>7}  {arg}")
    if "--broker-ratchet" in sys.argv[1:]:
        text = BROKER.read_text(encoding="utf-8")
        bad = [s for s in ("registry.inc(", "registry.observe(") if s in text]
        if count(BROKER) > BROKER_MAX or bad:
            sys.exit(f"{BROKER}: {count(BROKER)} code lines (max {BROKER_MAX}), "
                     f"forbidden calls {bad}")
