"""The repo's wall-clock gates: one table, two kinds, one document.

    PYTHONPATH=src python -m benchmarks.gates [NAME ...] [--doc F] [--out G]

A gate is a ceiling on a number; :data:`GATES` states each ceiling once.

- A **from_document** gate reads a metric the stack benchmark already
  publishes, from a result document made by ``python -m benchmarks.stack
  --scale smoke --traced --workload ... --out F`` (``--doc F``; without
  it the document is made here, for the workloads the chosen gates name).
  A metric its workload did not execute, or took no sample of, fails as
  *missing*: it never passes as ``0.0 <= ceiling``.
- A **paired** gate compares two broker shapes the benchmark has no
  workload pair for — armed against unarmed — with :func:`paired_overhead`,
  the only such timing loop outside ``benchmarks/stack``: at least ten
  rounds, each running both shapes back to back and alternating which
  goes first, every trial's answers bit-identical to offline solves. The
  per-round on/off throughput ratios are judged by the benchmark's own
  comparison rule (:func:`benchmarks.stack.stats.compare_metric`) against
  the level the gate holds them to: ``regression`` fails; ``unresolved``
  (the rounds spread wider than the ceiling) is printed and recorded as
  such, never as a pass.

One run writes one document: the host fingerprint and, per gate, kind,
source, the raw samples of both sides, value, ceiling and verdict. Exit
code 1 if any gate reads ``regression`` or ``missing``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import statistics
import sys
from dataclasses import dataclass
from typing import Callable

from benchmarks.stack.__main__ import fingerprint
from benchmarks.stack.__main__ import main as run_stack
from benchmarks.stack.spec import OUT_DIR
from benchmarks.stack.stats import compare_metric

SCHEMA = "gates/1"
MIN_ROUNDS = 10
#: Rounds a paired gate runs. A round's ratio spreads ~10 % on a 2-core VM
#: (0.1 s trials), so with an armed shape that truly costs nothing the
#: median of 10 rounds reads past a 2 % ceiling in 18 % of runs, that of 40
#: in 4 % (bootstrap over 60 measured rounds); 40 rounds take ~10 s.
ROUNDS = 40
#: verdicts that fail the run
RED = ("regression", "missing")


class NotBitIdentical(RuntimeError):
    """A trial's answers differ from the offline solves."""


# -- broker shapes of the paired gates: extra `bench_serving.serve` keywords,
# -- built per trial; the docstring is the shape's name in the document.
def _standard() -> dict:
    """the standard shape"""
    return {}


def _unbatched() -> dict:
    """max_batch_size=1, cache off"""
    return {"max_batch_size": 1, "cache_bytes": 0}


def _cache_off() -> dict:
    """cache off"""
    return {"cache_bytes": 0}


def _resilience() -> dict:
    """retries + breaker armed, no chaos"""
    from repro.serve.breaker import BreakerConfig
    from repro.serve.retry import RetryPolicy

    return {
        "retry": RetryPolicy(max_attempts=3, backoff_base_s=0.001),
        "breaker": BreakerConfig(failure_threshold=3, recovery_time_s=0.25),
    }


def _events() -> dict:
    """wide events + exemplars armed"""
    from repro.serve.events import WideEventLog

    return {"events": WideEventLog()}


def _check_events(broker, report, kwargs) -> None:
    """One wide event per offered request; exemplars on the histogram."""
    emitted = kwargs["events"].emitted
    if emitted != report["offered"]:
        raise RuntimeError(
            f"{emitted} wide events for {report['offered']} offered requests")
    if not any(
        broker.registry.exemplars("serve_request_latency_seconds", source=source)
        for source in ("cache", "solve", "coalesced")
    ):
        raise RuntimeError("armed run produced no latency exemplars")


def _paranoid() -> dict:
    """paranoid guards, cache off"""
    from repro.core.config import preset

    return {"cache_bytes": 0, "config": preset("opt", 25).evolve(paranoid=True)}


@dataclass(frozen=True)
class DocumentGate:
    """``metric`` of ``workload``'s traced run — over the same metric of
    ``over``'s, or over ``over_metric`` of the same run, when given — may
    not exceed (``strict``: nor reach) ``ceiling``; None records the
    number without judging it. ``sampled=False`` says the benchmark
    publishes ``metric`` without a sample count (a quotient of its exact
    per-solve counts): only ``not_executed`` can then make it missing."""

    metric: str
    workload: str
    ceiling: float | None
    ci_job: str
    over: str | None = None
    over_metric: str | None = None
    strict: bool = False
    sampled: bool = True
    kind = "from_document"

    @property
    def sides(self) -> tuple[tuple[str, str, str], ...]:
        """``(name in the record's samples, metric, workload)`` of the
        numerator and, for a ratio, of the denominator."""
        top = (self.workload, self.metric, self.workload)
        if self.over:
            return top, (self.over, self.metric, self.over)
        if self.over_metric:
            return top, (self.over_metric, self.over_metric, self.workload)
        return (top,)

    @property
    def workloads(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(w for _, _, w in self.sides))

    @property
    def source(self) -> str:
        return " / ".join(f"{metric}@{w}" for _, metric, w in self.sides)


@dataclass(frozen=True)
class PairedGate:
    """Round by round, throughput of the ``on`` shape over the ``off``
    shape's may fall short of ``against`` by at most the share ``ceiling``
    (None: recorded only). ``check(broker, report, kwargs)`` adds the on
    shape's own assertions to each of its trials."""

    on: Callable[[], dict]
    ci_job: str
    off: Callable[[], dict] = _standard
    ceiling: float | None = 0.0
    against: float = 1.0
    check: Callable | None = None
    kind = "paired"

    @property
    def source(self) -> str:
        return f"qps: {self.on.__doc__} over {self.off.__doc__}"


GATES: dict[str, DocumentGate | PairedGate] = {
    "trace-overhead": DocumentGate(
        "obs.trace_solve_overhead_ratio", "cold_rmat", 3.0, "obs-smoke"),
    # (solve + ~25 ms of checkpoint writes) / solve: a faster rank driver
    # raises it while the checkpointed solve itself gets faster too.
    "checkpoint-overhead": DocumentGate(
        "spmd.checkpoint_overhead_ratio", "cold_spmd", None, "obs-smoke"),
    # What routing the records for real costs over declaring them: both
    # drivers make the same kernel pass, so this is the mailbox's price
    # (plus the per-run state of the context each rank-driver solve makes).
    "spmd-vs-orchestrated": DocumentGate(
        "spmd.vs_orchestrated_ratio", "cold_spmd", 1.34, "obs-smoke"),
    # What one epoch of the many-bucket regime costs, in SciPy solves of
    # the same graph: the number the per-epoch work of core/ moves.
    "grid-epoch-cost": DocumentGate(
        "core.ms_per_bucket", "cold_grid", 1.20, "obs-smoke",
        over_metric="bench.scipy_ms_p50", sampled=False),
    "hit-vs-cold": DocumentGate(
        "bench.op_ms_p50", "serve_hot", 0.5, "serve-smoke", over="serve_cold"),
    "repair-vs-fresh": DocumentGate(
        "dynamic.repair_vs_fresh_ratio", "serve_churn", 0.15, "dynamic-smoke",
        strict=True),
    "update-vs-fresh": DocumentGate(
        "dynamic.update_ms_p50", "serve_churn", 4.5, "dynamic-smoke",
        over_metric="serve.engine_ms_p50"),
    # What a read that misses on a live graph costs, in fresh solves: the
    # number the lineage tier moves (a repaired miss is a fraction of one).
    "churn-miss-vs-fresh": DocumentGate(
        "bench.op_ms_p50", "serve_churn", 1.30, "dynamic-smoke",
        over_metric="serve.engine_ms_p50"),
    "batching-cache": PairedGate(
        _standard, "serve-smoke", off=_unbatched, against=1.10),
    "resilience-armed": PairedGate(_resilience, "chaos-smoke", ceiling=0.02),
    "paranoid-guards": PairedGate(
        _paranoid, "chaos-smoke", off=_cache_off, ceiling=None),
    "events-armed": PairedGate(
        _events, "obs-serve-smoke", ceiling=0.02, check=_check_events),
}


def paired_overhead(off, on, *, expected, rounds: int = ROUNDS):
    """``(off samples, on samples, on/off ratios)`` over ``rounds`` rounds.

    ``off()`` / ``on()`` run one trial of a shape and return ``(throughput,
    answers)``. Sub-second trials are noisy, so a gate is computed from
    *paired* trials: each round runs both shapes back to back and
    contributes one ratio, so machine drift between rounds cancels out of
    each pair; which shape goes first alternates, so whatever the second
    trial of a round inherits from the first cancels out of the median.
    Every trial's ``answers`` must equal ``expected`` — the armed system
    is the same system — or :class:`NotBitIdentical` is raised whatever
    the timings say.
    """
    if rounds < MIN_ROUNDS:
        raise ValueError(f"a paired gate needs >= {MIN_ROUNDS} rounds, not {rounds}")

    def trial(shape, side: str) -> float:
        throughput, answers = shape()
        if answers != expected:
            raise NotBitIdentical(
                f"{side} shape answered {answers!r}, offline solves {expected!r}")
        return throughput

    trial(off, "off")  # untimed warm-up: imports, graph and solver caches
    off_samples, on_samples = [], []
    for r in range(rounds):
        order = [(off, "off", off_samples), (on, "on", on_samples)]
        for shape, side, samples in order if r % 2 == 0 else reversed(order):
            samples.append(trial(shape, side))
    return off_samples, on_samples, [b / a for a, b in zip(off_samples, on_samples)]


def judge_paired(gate: PairedGate, off, on, ratios) -> dict:
    """The gate's record from the samples of :func:`paired_overhead`: the
    ratios against ``against``, one per round, under the benchmark's rule."""
    record = {
        "samples": {"off_qps": off, "on_qps": on, "ratios": ratios},
        "value": statistics.median(ratios),
        "against": gate.against,
        "ceiling": gate.ceiling,
    }
    if gate.ceiling is None:
        return {**record, "verdict": "recorded"}
    comparison = compare_metric(
        [gate.against] * len(ratios), ratios, better="higher", bound=gate.ceiling)
    return {**record, "comparison": dataclasses.asdict(comparison),
            "verdict": comparison.verdict}


def run_paired(gate: PairedGate) -> dict:
    """Both shapes of ``gate`` on the serving bench's tiny stream."""
    import numpy as np

    from benchmarks.bench_serving import serve, stream
    from benchmarks.common import default_machine
    from repro.core.solver import solve_sssp
    from repro.graph.roots import choose_roots

    graph, spec = stream("tiny")
    probes = [int(r) for r in choose_roots(graph, 3, seed=7)]

    def digest(vectors) -> str:
        return hashlib.sha256(
            b"".join(np.ascontiguousarray(v).tobytes() for v in vectors)
        ).hexdigest()[:16]

    def trial_of(shape, check=None):
        def trial():
            kwargs = shape()
            with serve(graph, spec, **kwargs) as (broker, report):
                if check is not None:
                    check(broker, report, kwargs)
                served = [broker.query(root).distances for root in probes]
            return report["throughput_qps"], digest(served)

        return trial

    machine = default_machine(8, threads_per_rank=8)
    expected = digest(
        solve_sssp(graph, root, algorithm="opt", delta=25, machine=machine).distances
        for root in probes
    )
    return judge_paired(gate, *paired_overhead(
        trial_of(gate.off), trial_of(gate.on, gate.check), expected=expected))


def read_document(gate: DocumentGate, doc: dict) -> dict:
    """The gate's record from a stack result document."""
    sides = {}
    for name, metric, workload in gate.sides:
        records = [r for r in doc["runs"] if r["workload"] == workload and r["traced"]]
        counted = gate.sampled or metric != gate.metric
        if not records or any(
            metric in r["not_executed"]
            or (counted and not r["samples"].get(metric))
            for r in records
        ):
            return {"samples": sides, "value": None, "ceiling": gate.ceiling,
                    "verdict": "missing",
                    "why": f"no traced run of {workload} measured {metric}"}
        sides[name] = [r["result"]["metrics"][metric]["value"] for r in records]
    medians = [statistics.median(values) for values in sides.values()]
    value = medians[0] / medians[1] if len(medians) == 2 else medians[0]
    if gate.ceiling is None:
        verdict = "recorded"
    elif value > gate.ceiling or (gate.strict and value == gate.ceiling):
        verdict = "regression"
    else:
        verdict = "within-bound"
    return {"samples": sides, "value": value, "ceiling": gate.ceiling,
            "verdict": verdict}


def make_document(gates) -> dict:
    """Run the stack suite, traced at smoke scale, on the workloads
    ``gates`` read."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "gates_doc.json"
    argv = ["--scale", "smoke", "--traced", "--out", str(path)]
    for workload in dict.fromkeys(w for g in gates for w in g.workloads):
        argv += ["--workload", workload]
    if run_stack(argv):
        raise RuntimeError("the stack benchmark reported a failed operation")
    return json.loads(path.read_text(encoding="utf-8"))


def describe(name: str, record: dict) -> str:
    value = "-" if record["value"] is None else f"{record['value']:.4g}"
    ceiling = record["ceiling"]
    if record["kind"] == "paired" and ceiling is not None:
        ceiling = f">= {record['against']:g} less {ceiling:.0%}"
    line = (f"{name:20s} {record['kind']:13s} {value:>8s}  "
            f"ceiling {ceiling}  {record['verdict']}")
    if "comparison" in record:
        c = record["comparison"]
        line += (f"  (ratio spread {c['b_spread']:.1%}, "
                 f"on ahead in {c['wins']}/{c['pairs']} rounds)")
    return line + (f"  [{record['why']}]" if "why" in record else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.gates", description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"gates to run (default: all): {', '.join(GATES)}")
    parser.add_argument("--doc", help="stack result document the from_document "
                        "gates read (default: make one)")
    parser.add_argument("--out", help="write the gate document here")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(GATES))
    if unknown:
        parser.error(f"unknown gate {unknown}; choose from {', '.join(GATES)}")
    chosen = {name: GATES[name] for name in args.names or GATES}

    from_document = [g for g in chosen.values() if g.kind == "from_document"]
    doc = None
    if args.doc:
        with open(args.doc, encoding="utf-8") as fh:
            doc = json.load(fh)
    elif from_document:
        doc = make_document(from_document)
    result = {"schema": SCHEMA, "fingerprint": fingerprint(),
              "document_fingerprint": doc and doc["fingerprint"], "gates": {}}
    for name, gate in chosen.items():
        record = (read_document(gate, doc) if gate.kind == "from_document"
                  else run_paired(gate))
        record = {"kind": gate.kind, "source": gate.source,
                  "ci_job": gate.ci_job, **record}
        result["gates"][name] = record
        print(describe(name, record), flush=True)
    print("fingerprint:", json.dumps(result["fingerprint"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    return 1 if any(r["verdict"] in RED for r in result["gates"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
