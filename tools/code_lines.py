#!/usr/bin/env python3
"""Code lines (non-blank, non-comment, non-docstring) of files or trees.

Usage: ``python tools/code_lines.py [--ratchet] PATH...`` prints one count
per path (a directory: every ``*.py`` file in its tree); ``--help`` prints
this text, and any other option exits 2. With ``--ratchet`` (CI's
``serve-smoke``) it also fails when a row of :data:`RATCHETS` is broken —
a row names files or trees, the most code lines they may hold together
and calls no file of theirs may contain: ``src/repro/serve`` and
``dynamic/versioner.py`` together past 2,315 — the serving plane is a
pipeline wiring four policies, not one broker class;
``serve/broker.py``, ``batcher.py``, ``attempt.py`` and ``snapshots.py``
together past 722 or talking to the metrics registry themselves instead
of through ``serve/accounting.py``, or naming ``deadline_at`` — a take
is FIFO; ``src/repro/spmd/mailbox.py`` and
``src/repro/spmd/faults.py`` together past 346 or naming
``checkpoint_interval``, ``max_healing_sweeps``, ``faults_on_retry``,
``backoff_cap``, ``first_superstep``, ``last_superstep``, ``_cuts(`` or
``exchange_by_rank_counts(`` — the transport and its reliable protocol,
with one way into a superstep, one accounting call out of it, no receiver
cuts, one resend of what is missing and no recovery knob;
``serve/cache.py``, ``serve/breaker.py`` and ``serve/chaos.py`` together
past 592 or keeping a handle on the registry — a component counts in its
own state and hands the registry one collector; ``graph/builder.py`` and ``graph/csr.py``
together past 189 or calling ``argsort`` — construction sorts a packed
key in place; ``dynamic/repair.py`` past 154 or calling a stepping
strategy's ``make_strategy``/``window`` — a repair drains to one
label-correcting fixpoint, with no settle windows; ``cli.py``,
``serve/slo.py`` and ``obs/tracer.py`` together past 771 or naming the
burn-rate monitor, the dashboard, drift rows or a time-windowed
``recent`` view — a signal stays only where something reads it;
``repro/__init__.py``, ``core/__init__.py``, ``core/solver.py`` and
``cli.py`` together past 815 or naming ``repro.apps``,
``solve_many``, ``core.buckets``, ``graph500`` or ``args.progress`` —
the front door keeps no API that only its own tests read;
``runtime/metrics.py`` past 445 or naming ``_cat(`` or ``_weights(`` —
a ledger fact is a slice of one flat buffer per family, folded by one
``bincount``, not a list of arrays concatenated at the fold;
``core/pushpull.py``, ``core/phases.py`` and ``runtime/metrics.py``
together past 934 or naming ``expectation_partials``,
``combine_expectation_costs``, ``ctx.tracer is None`` or
``recovery_hook`` — the push/pull decision certifies push before it prices
pull, traced or not, a certified bucket's pull estimate is rebuilt from the
final distances when read, with nothing kept per bucket, and the loop
calls one defence; ``core/defence.py``, ``spmd/engine.py`` and
``spmd/checkpoint.py`` together past 478 or naming ``_RecoveryManager``,
``chain_hooks``, ``recovery_hook``, ``maybe_save``,
``max_healing_sweeps`` or ``checkpoint_interval`` — one defence object per
solve owns its checkpoints, crash snapshot, healing and deadline, and
checkpoints every epoch.
"""

import ast
import io
import pathlib
import sys
import tokenize

#: (files, most code lines they may hold together, calls none may contain)
RATCHETS = (
    (("src/repro/serve", "src/repro/dynamic/versioner.py"), 2315, ()),
    (("src/repro/serve/broker.py", "src/repro/serve/batcher.py",
      "src/repro/serve/attempt.py", "src/repro/serve/snapshots.py"), 722,
     ("registry.inc(", "registry.observe(", "deadline_at")),
    (("src/repro/spmd/mailbox.py", "src/repro/spmd/faults.py"), 346,
     ("checkpoint_interval", "max_healing_sweeps", "faults_on_retry",
      "backoff_cap", "first_superstep", "last_superstep", "_cuts(",
      "exchange_by_rank_counts(")),
    (("src/repro/serve/cache.py", "src/repro/serve/breaker.py",
      "src/repro/serve/chaos.py"), 592, ("self.registry", "self._registry")),
    (("src/repro/graph/builder.py", "src/repro/graph/csr.py"), 189, ("argsort(",)),
    (("src/repro/dynamic/repair.py",), 154, ("make_strategy(", ".window(")),
    (("src/repro/cli.py", "src/repro/serve/slo.py", "src/repro/obs/tracer.py"),
     771, ("burnrate", "dashboard", "drift_rows", "def recent(")),
    (("src/repro/__init__.py", "src/repro/core/__init__.py",
      "src/repro/core/solver.py", "src/repro/cli.py"), 815,
     ("repro.apps", "solve_many", "core.buckets", "graph500", "args.progress")),
    (("src/repro/runtime/metrics.py",), 445, ("_cat(", "_weights(")),
    (("src/repro/core/pushpull.py", "src/repro/core/phases.py",
      "src/repro/runtime/metrics.py"), 934,
     ("expectation_partials", "combine_expectation_costs", "ctx.tracer is None",
      "recovery_hook")),
    (("src/repro/core/defence.py", "src/repro/spmd/engine.py",
      "src/repro/spmd/checkpoint.py"), 478,
     ("_RecoveryManager", "chain_hooks", "recovery_hook", "maybe_save",
      "max_healing_sweeps", "checkpoint_interval")),
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


def files(path: pathlib.Path) -> list[pathlib.Path]:
    """``path`` itself, or every ``*.py`` file in its tree."""
    return sorted(path.rglob("*.py")) if path.is_dir() else [path]


def count(path: pathlib.Path) -> int:
    return sum(code_lines(f.read_text(encoding="utf-8")) for f in files(path))


def broken(names, most: int, calls) -> str | None:
    """What a :data:`RATCHETS` row's files break, or None."""
    paths = [pathlib.Path(name) for name in names]
    total = sum(count(path) for path in paths)
    bad = [c for path in paths for f in files(path) for c in calls
           if c in f.read_text(encoding="utf-8")]
    if total > most or bad:
        return (f"{' + '.join(names)}: {total} code lines (max {most}), "
                f"forbidden calls {bad}")
    return None


if __name__ == "__main__":
    args = sys.argv[1:]
    if "--help" in args or "-h" in args:
        print(__doc__)
        sys.exit(0)
    unknown = [a for a in args if a.startswith("-") and a != "--ratchet"]
    if unknown:
        print(f"code_lines.py: unknown option {unknown[0]} (see --help)",
              file=sys.stderr)
        sys.exit(2)
    for arg in args:
        if arg != "--ratchet":
            print(f"{count(pathlib.Path(arg)):>7}  {arg}")
    if "--ratchet" in args:
        for row in RATCHETS:
            complaint = broken(*row)
            if complaint:
                sys.exit(complaint)
