#!/usr/bin/env python3
"""Code lines (non-blank, non-comment, non-docstring) of files or trees.

``python tools/code_lines.py PATH...`` prints one count per path. With
``--ratchet`` (CI's ``serve-smoke``) it also fails when a row of
:data:`RATCHETS` is broken: ``src/repro/serve/broker.py`` past 650 code
lines or talking to the metrics registry itself instead of through
``serve/accounting.py``; ``src/repro/spmd/mailbox.py`` and
``src/repro/spmd/faults.py`` together past 430 — the transport and its
reliable protocol, with one way into a superstep.
"""

import ast
import io
import pathlib
import sys
import tokenize

#: (files, most code lines they may hold together, calls none may contain)
RATCHETS = (
    (("src/repro/serve/broker.py",), 650, ("registry.inc(", "registry.observe(")),
    (("src/repro/spmd/mailbox.py", "src/repro/spmd/faults.py"), 430, ()),
)
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
        if arg != "--ratchet":
            print(f"{count(pathlib.Path(arg)):>7}  {arg}")
    if "--ratchet" in sys.argv[1:]:
        for names, most, calls in RATCHETS:
            paths = [pathlib.Path(name) for name in names]
            total = sum(count(path) for path in paths)
            bad = [c for path in paths for c in calls
                   if c in path.read_text(encoding="utf-8")]
            if total > most or bad:
                sys.exit(f"{' + '.join(names)}: {total} code lines (max {most}), "
                         f"forbidden calls {bad}")
