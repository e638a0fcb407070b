"""Regenerate the paper's evaluation, check every shape, pin every counter.

    python -m benchmarks.figures [ID ...] [--out F] [--scale N --vpr N]
    python -m benchmarks.figures --compare PARENT.json CHANGE.json
    python -m benchmarks.figures --list

A run prints each figure's tables, runs its ``check`` (the paper's claim as
assertions) and compares the SHA-256 of its integer cells with the pinned
``counters`` literal — skipped, and said so, off the default sizes, where
the literals were not taken. Exit 1 on a failed shape or a moved counter.
``--out`` writes one document (schema ``figures/1``: host fingerprint, sizes,
per figure its tables, check verdict and digest); ``--compare`` lists exactly
the rows that differ between two such documents and exits 0 only when none do.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from benchmarks.common import print_table
from benchmarks.figures import FIGURES, Figure, Lab
from benchmarks.figures.lab import (
    DEFAULT_SCALE,
    DEFAULT_VPR,
    counters_digest,
    plain,
)
from benchmarks.stack.__main__ import fingerprint

SCHEMA = "figures/1"
PINNED = {"pinned": "pinned", "moved": "MOVED from the pinned literal",
          "skipped": "not compared off the default sizes"}


def run_figure(name: str, figure: Figure, lab: Lab) -> dict:
    """Print one figure's tables and verdicts; return its document record."""
    print(f"\n== {name} — {figure.claim}", flush=True)
    tables, check = {}, "holds"
    try:
        tables = plain(figure.tables(lab))
        for title, rows in tables.items():
            print_table(rows, title)
        figure.check(tables)
    except AssertionError as failure:
        frame = traceback.extract_tb(failure.__traceback__)[-1]
        check = (f"FAILED at {Path(frame.filename).name}:{frame.lineno}: "
                 f"{frame.line}" + (f" ({failure})" if str(failure) else ""))
    digest = counters_digest(tables)
    pinned = ("skipped" if (lab.scale, lab.vpr) != (DEFAULT_SCALE, DEFAULT_VPR)
              else "pinned" if digest == figure.counters else "moved")
    print(f"\n{name}: shape {check}; counters {PINNED[pinned]} (sha256 {digest})",
          flush=True)
    return {"claim": figure.claim, "tables": tables, "check": check,
            "counters": digest, "pinned": pinned}


def _rows(document: dict, names) -> dict:
    return {(name, title, index): row
            for name in names
            for title, rows in document["figures"][name]["tables"].items()
            for index, row in enumerate(rows)}


def compare(parent: dict, change: dict) -> list[str]:
    """One line per figure or row that differs between two documents."""
    sides = ("PARENT", "CHANGE")
    a_figs, b_figs = parent["figures"], change["figures"]
    both = [name for name in a_figs if name in b_figs]
    lines = [f"{name}: missing from {sides[name in a_figs]}"
             for name in dict.fromkeys([*a_figs, *b_figs]) if name not in both]
    a, b = _rows(parent, both), _rows(change, both)
    for key in dict.fromkeys([*a, *b]):
        name, title, index = key
        x, y = a.get(key), b.get(key)
        if x == y:
            continue
        where = f"{name} / {title} row {index}"
        if x is None or y is None:
            lines.append(f"{where}: only in {sides[x is None]}")
            continue
        moved = [(c, x.get(c), y.get(c)) for c in dict.fromkeys([*x, *y])
                 if x.get(c) != y.get(c)]
        # bool is an int to Python and a flag to a table
        counter = any(isinstance(v, int) and not isinstance(v, bool)
                      for _, p, q in moved for v in (p, q))
        lines.append(f"{where}: {'counter' if counter else 'value'} moved: "
                     + ", ".join(f"{c} {p!r} -> {q!r}" for c, p, q in moved))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.figures", description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help=f"figures to run (default: all): {', '.join(FIGURES)}")
    parser.add_argument("--out", help="write the run's document here")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT.json", "CHANGE.json"),
                        help="list the rows that differ between two documents")
    parser.add_argument("--list", action="store_true",
                        help="print every figure id with the paper's claim")
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE,
                        help="log2 vertices of the fixed-size experiments")
    parser.add_argument("--vpr", type=int, default=DEFAULT_VPR,
                        help="log2 vertices per simulated node under weak scaling")
    args = parser.parse_args(argv)
    if args.list:
        for name, figure in FIGURES.items():
            print(f"{name:20s}{figure.claim}")
        return 0
    if args.compare:
        parent, change = (json.loads(Path(p).read_text(encoding="utf-8"))
                          for p in args.compare)
        if parent["sizes"] != change["sizes"]:
            parser.error(f"the documents were taken at different sizes: "
                         f"{parent['sizes']} and {change['sizes']}")
        lines = compare(parent, change)
        print("\n".join(lines) if lines else
              f"identical: {len(change['figures'])} figures, every row equal")
        return 1 if lines else 0
    unknown = sorted(set(args.ids) - set(FIGURES))
    if unknown:
        parser.error(f"unknown figure {unknown}; choose from {', '.join(FIGURES)}")
    if not __debug__:
        parser.error("the checks are assert statements: run without -O")

    lab = Lab(args.scale, args.vpr)
    document = {"schema": SCHEMA, "fingerprint": fingerprint(),
                "sizes": {"scale": lab.scale, "vpr": lab.vpr}, "figures": {}}
    for name in args.ids or FIGURES:
        document["figures"][name] = run_figure(name, FIGURES[name], lab)
    red = [name for name, record in document["figures"].items()
           if record["check"] != "holds" or record["pinned"] == "moved"]
    print(f"\n{len(document['figures'])} figures, "
          + (f"red: {', '.join(red)}" if red else "none red"))
    print("fingerprint:", json.dumps(document["fingerprint"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1, ensure_ascii=False)
            fh.write("\n")
    return 1 if red else 0


if __name__ == "__main__":
    sys.exit(main())
