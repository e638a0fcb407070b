"""Run one workload in this process: the command ``BENCHMARK.json`` names.

    python3 benchmarks/stack/run.py --workload cold_rmat --seed 1 \
        --seconds 12 --trace 0

prints every metric by name with its unit and sample count, then, as the
last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (and ``.bench_out/trace-<workload>.jsonl``)
with ``--trace 1``. A per-layer metric of a layer the workload does not
execute reads 0. Exits non-zero when an answer was wrong or a request
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Found here, not imported from ``spec``: nothing of the package can be
# imported before ``main`` has put the repo root on ``sys.path``.
ROOT = Path(__file__).resolve().parents[2]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length the operation counts are sized for "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--detail", default=None,
                        help="also write the run's full record to this file")
    return parser.parse_args(argv)


def run_workload(name: str, *, seed: int, seconds: float | None = None,
                 trace: bool = False, scale: str = "full") -> dict:
    """Run ``name`` once and return its record: the contract's result
    object under ``result`` plus sample counts, notes and inputs."""
    from benchmarks.stack.spans import Recorder
    from benchmarks.stack.spec import OUT_DIR, Run, finite, load_contract
    from benchmarks.stack.workloads import WORKLOADS

    contract = load_contract()
    declared = [w["name"] for w in contract["workloads"]]
    if name not in declared or name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {declared}")
    run = Run(
        workload=name,
        seed=seed,
        seconds=contract["run_seconds"] if seconds is None else seconds,
        scale=scale,
        recorder=Recorder() if trace else None,
        run_seconds=contract["run_seconds"],
    )
    try:
        WORKLOADS[name](run)
    finally:
        if run.recorder is not None:
            run.recorder.restore()
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        run.recorder.write_jsonl(OUT_DIR / f"trace-{name}.jsonl")

    wanted = contract["per_layer"] if trace else contract["end_to_end"]
    metrics, not_executed = {}, []
    for spec in wanted:
        if spec["name"] in run.metrics:
            value = run.metrics[spec["name"]]
        elif trace:
            value = 0.0  # a layer this workload does not execute
            not_executed.append(spec["name"])
        else:
            raise RuntimeError(f"{name} produced no {spec['name']}")
        metrics[spec["name"]] = {"value": finite(value), "unit": spec["unit"]}
    declared_layers = {spec["name"] for spec in contract["per_layer"]}
    undeclared = sorted(k for k in run.metrics if "." in k and k not in declared_layers)
    if undeclared:
        raise RuntimeError(f"{name} produced undeclared metrics {undeclared}")
    return {
        "workload": name,
        "seed": seed,
        "seconds": run.seconds,
        "scale": scale,
        "traced": bool(trace),
        "samples": run.samples,
        "notes": run.notes,
        "not_executed": not_executed,
        # what an untraced run measured besides the contract's metrics
        # (raw times behind the normalised ones)
        "info": {} if trace else {k: v for k, v in run.metrics.items() if "." in k},
        "result": {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        },
    }


def print_record(record: dict, out=sys.stdout) -> None:
    result = record["result"]
    print(f"# {record['workload']} seed={record['seed']} scale={record['scale']} "
          f"traced={int(record['traced'])}", file=out)
    for name, metric in result["metrics"].items():
        if name in record["not_executed"]:
            continue
        n = record["samples"].get(name)
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']:<8s}"
              + (f" n={n}" if n is not None else ""), file=out)
    for name, value in record["info"].items():
        print(f"  {name:34s} {value:>16.6g}", file=out)
    print(f"ops_attempted={result['attempted']} ops_failed={result['failed']} "
          f"correct={result['correct']}", file=out)
    if record["not_executed"]:
        print(f"{len(record['not_executed'])} per-layer metrics of layers this "
              "workload does not execute read 0", file=out)
    for note in record["notes"]:
        print(f"note: {note}", file=out)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread: the load generator and the broker's single
    # worker are the only two threads meant to run on a 2-core box.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    record = run_workload(args.workload, seed=args.seed, seconds=args.seconds,
                          trace=bool(args.trace), scale=args.scale)
    print_record(record)
    if args.detail:
        Path(args.detail).parent.mkdir(parents=True, exist_ok=True)
        Path(args.detail).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(record["result"]), flush=True)
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
