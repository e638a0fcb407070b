"""The suite: every workload in its own child process, one result document.

    PYTHONPATH=src python -m benchmarks.stack [--seed 1] [--workload NAME ...]
        [--scale full|smoke] [--traced] [--repeat N] [--vary-seed] [--out FILE]
    python -m benchmarks.stack --compare A.json B.json
    python -m benchmarks.stack --selfcheck [--repeat 3]

Each child is ``run.py`` for one workload, with BLAS/OpenMP pinned to one
thread. End-to-end numbers come from an untraced child; ``--traced`` adds a
second, traced child per workload for the per-layer numbers and the span
files. The document carries a host/Python/NumPy/SciPy/commit fingerprint.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from collections import defaultdict

from benchmarks.stack.spec import OUT_DIR, ROOT, TIMING_DEPENDENT_COUNTS, load_contract
from benchmarks.stack.stats import compare_metric, quartiles, spread

CHILD_TIMEOUT_S = 180
SCHEMA = "stack-bench/1"


def fingerprint() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "benchmark_json_sha256": hashlib.sha256(
            (ROOT / "BENCHMARK.json").read_bytes()
        ).hexdigest(),
        "threads_pinned": 1,
    }


def run_child(workload: str, *, seed: int, seconds: float, traced: bool, scale: str) -> dict:
    """One workload in its own process; returns the child's record."""
    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"detail-{workload}-{int(traced)}.json"
    detail.unlink(missing_ok=True)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "stack" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(traced)), "--scale", scale, "--detail", str(detail)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    # Everything but the machine-readable last line is for the reader.
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1] if lines[-1].startswith("{") else lines), flush=True)
    if not detail.exists():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} exited {proc.returncode} without a result")
    record = json.loads(detail.read_text(encoding="utf-8"))
    record["wall_s"] = wall
    record["exit_code"] = proc.returncode
    return record


def run_suite(args, contract) -> dict:
    names = args.workload or [w["name"] for w in contract["workloads"]]
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    doc = {
        "schema": SCHEMA,
        "fingerprint": fingerprint(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": seconds,
        "runs": [],
    }
    for rep in range(args.repeat):
        seed = args.seed + rep if args.vary_seed else args.seed
        for name in names:
            for traced in (False, True) if args.traced else (False,):
                doc["runs"].append(
                    run_child(name, seed=seed, seconds=seconds, traced=traced,
                              scale=args.scale)
                )
    return doc


def _values(doc, traced: bool) -> dict:
    """``{(workload, metric): [value per run]}``"""
    out = defaultdict(list)
    for record in doc["runs"]:
        if record["traced"] == traced:
            for name, metric in record["result"]["metrics"].items():
                out[record["workload"], name].append(metric["value"])
    return out


def print_spread(doc, contract) -> None:
    """Median, quartiles and spread of every end-to-end metric over the
    document's repeated runs, against the metric's bound."""
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    print(f"{'workload':12s} {'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for (workload, name), values in _values(doc, traced=False).items():
        q1, q2, q3 = quartiles(values)
        flag = "" if spread(values) <= bounds[name] else "  > bound"
        print(f"{workload:12s} {name:20s} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread(values):8.4f} {bounds[name]:6.2f}{flag}")


def compare_docs(a, b, contract) -> int:
    """Print the comparison of two result documents; returns how many
    (workload, metric) pairs regressed or, for exact metrics, changed."""
    bad = 0
    specs = {m["name"]: m for m in contract["end_to_end"]}
    a_vals, b_vals = _values(a, False), _values(b, False)
    print(f"{'workload':12s} {'metric':20s} {'A median':>12s} {'B median':>12s} "
          f"{'worse by':>9s} {'bound':>6s} {'spreadA':>8s} {'spreadB':>8s} {'B wins':>7s}  verdict")
    for key in a_vals:
        if key not in b_vals:
            continue
        spec = specs[key[1]]
        c = compare_metric(a_vals[key], b_vals[key], better=spec["better"],
                           bound=spec["bound"])
        bad += c.verdict == "regression"
        print(f"{key[0]:12s} {key[1]:20s} {c.a_median:12.6g} {c.b_median:12.6g} "
              f"{c.change:+9.4f} {c.bound:6.2f} {c.a_spread:8.4f} {c.b_spread:8.4f} "
              f"{c.wins:3d}/{c.pairs:<3d}  {c.verdict}")
    # Counts and simulated rates are functions of the seed alone: between
    # two documents made with the same seeds any difference is a change of
    # behaviour, not noise.
    same_seeds = [r["seed"] for r in a["runs"]] == [r["seed"] for r in b["runs"]]
    if same_seeds:
        exact = {m["name"] for m in contract["per_layer"] if m["unit"] == "count"}
        exact -= TIMING_DEPENDENT_COUNTS
        exact.add("sim_gteps")
        for traced in (False, True):
            a_vals, b_vals = _values(a, traced), _values(b, traced)
            for key in a_vals:
                if key[1] in exact and key in b_vals and a_vals[key] != b_vals[key]:
                    bad += 1
                    print(f"{key[0]:12s} {key[1]:28s} exact metric changed: "
                          f"{a_vals[key]} -> {b_vals[key]}")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.stack",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--traced", action="store_true",
                        help="add a traced child per workload: per-layer metrics, span files")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true",
                        help="repeat i runs with seed+i instead of the same seed")
    parser.add_argument("--out", default=None, help="write the result document here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets and fail if they disagree beyond the bounds")
    args = parser.parse_args(argv)
    contract = load_contract()

    if args.compare:
        docs = [json.loads(open(p, encoding="utf-8").read()) for p in args.compare]
        return 1 if compare_docs(*docs, contract) else 0

    if args.selfcheck:
        args.repeat = max(args.repeat, 3)
        first, second = run_suite(args, contract), run_suite(args, contract)
        failed = any(r["exit_code"] for r in first["runs"] + second["runs"])
        return 1 if compare_docs(first, second, contract) or failed else 0

    doc = run_suite(args, contract)
    if args.repeat > 1:
        print_spread(doc, contract)
    print("fingerprint:", json.dumps(doc["fingerprint"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    return 1 if any(r["exit_code"] for r in doc["runs"]) else 0


if __name__ == "__main__":
    sys.exit(main())
