"""Profiling tour: where does the simulated time go?

One *traced* OPT run, read five ways: the priced execution timeline the
tracer recorded (which individual steps dominate), the per-phase-kind time
split, the cost model's linear decomposition over the machine constants, a
what-if retiming under a different interconnect — all without re-running
anything — and finally the measured wall clock next to the simulated clock,
per record kind, read off the tracer's per-kind counters.

Run:  python examples/profiling_tour.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import rmat_graph, solve_sssp
from repro.graph.roots import choose_root
from repro.obs import TraceConfig
from repro.runtime.calibration import cost_coefficients, retime
from repro.util.tables import format_table


def main() -> None:
    graph = rmat_graph(scale=13, seed=9).sorted_by_weight()
    root = choose_root(graph, seed=0)
    res = solve_sssp(graph, root, algorithm="opt", delta=25,
                     num_ranks=16, threads_per_rank=16,
                     trace=TraceConfig(path=None))
    machine = res.machine
    tracer = res.trace
    # One record event per accounting step, priced by the cost model.
    records = [e for e in tracer.events if e["type"] == "record"]

    # 1. The most expensive individual steps.
    top = sorted(records, key=lambda r: r["sim_dt"], reverse=True)[:10]
    print(format_table(
        [
            {
                "step": r["step"],
                "kind": r["kind"],
                "phase": r["phase"],
                "cost_us": r["sim_dt"] * 1e6,
                "share": f"{r['sim_dt'] / tracer.sim_t:.1%}",
            }
            for r in top
        ],
        title=f"total simulated time: {tracer.sim_t * 1e3:.3f} ms; "
              f"{len(records)} records; top {len(top)} by cost:",
    ))

    # 2. Time by paper-level phase kind.
    by_phase: dict[str, float] = {}
    for r in records:
        by_phase[r["phase"]] = by_phase.get(r["phase"], 0.0) + r["sim_dt"]
    print("\ntime by phase kind (ms):")
    for kind, t in sorted(by_phase.items()):
        print(f"  {kind:<8} {t * 1e3:8.3f}")

    # 3. The run's exact linear time signature.
    coeffs = cost_coefficients(res.metrics)
    print("\ncost decomposition (coefficient x constant = ms):")
    for label, coeff, const in [
        ("relax compute", coeffs.relax_units, machine.t_relax),
        ("request compute", coeffs.request_units, machine.t_request),
        ("bucket scans", coeffs.scan_units, machine.t_scan),
        ("messages (alpha)", coeffs.messages, machine.alpha),
        ("bytes (beta)", coeffs.bytes_moved, machine.beta),
    ]:
        print(f"  {label:<17} {coeff:>12.0f} x {const:.2e} = "
              f"{coeff * const * 1e3:8.3f}")

    # 4. What-if: a 4x-faster network, no re-run needed.
    fast = replace(machine, alpha=machine.alpha / 4, beta=machine.beta / 4)
    t0 = retime(res.metrics, machine)
    t1 = retime(res.metrics, fast)
    print(f"\nretimed under a 4x faster network: {t0 * 1e3:.3f} ms -> "
          f"{t1 * 1e3:.3f} ms ({t0 / t1:.2f}x speedup)")

    # 5. Wall clock vs. simulated clock. Everything above priced the run on
    # the *simulated* machine; the tracer also measured what the Python
    # simulator actually spent, and counts both per record kind.
    print(f"\ntraced run: wall {tracer.wall_total * 1e3:9.2f} ms over "
          f"{tracer.num_records} records in {len(tracer.events)} events")
    print(f"            sim  {tracer.sim_t * 1e3:9.4f} ms "
          f"(identical to the cost model total: "
          f"{abs(tracer.sim_t - res.cost.total_time) < 1e-12})")
    series = ("sssp_records_total", "sssp_wall_seconds_total",
              "sssp_sim_seconds_total")
    cut = tracer.registry.read(*series)
    rows = []
    for key in sorted(cut[series[0]]):
        records, wall, sim = (cut[name][key] for name in series)
        rows.append({
            "kind": dict(key)["kind"],
            "records": int(records),
            "wall_ms": wall * 1e3,
            "sim_us": sim * 1e6,
            # wall seconds per simulated second; None where the model
            # prices the kind at zero
            "wall_per_sim": wall / sim if sim > 0 else None,
        })
    assert sum(r["records"] for r in rows) == tracer.num_records
    print()
    print(format_table(rows, title="wall clock vs. cost model, per kind:"))


if __name__ == "__main__":
    main()
