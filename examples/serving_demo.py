"""Serving quickstart: an embedded SSSP query service with cache and SLOs.

Stands up a :class:`~repro.serve.broker.QueryBroker` over an R-MAT graph,
issues single-root and k-root distance/path queries, demonstrates the
distance cache (hits are bit-identical to fresh solves and orders of
magnitude faster), drives a Zipf-skewed closed-loop workload, and prints
the service report with an SLO verdict.

Run:  python examples/serving_demo.py
"""

from __future__ import annotations

import numpy as np

from repro import rmat_graph, solve_sssp
from repro.graph.roots import choose_roots
from repro.serve import QueryBroker, SloPolicy, WorkloadSpec, run_workload
from repro.util import format_table


def main() -> None:
    # 1. The served graph: one broker serves one (graph, config, machine)
    #    triple, paying the preprocessing once.
    graph = rmat_graph(scale=13, seed=42)
    print(f"graph: {graph}")
    roots = [int(r) for r in choose_roots(graph, 3, seed=0)]

    with QueryBroker(
        graph,
        algorithm="opt",
        delta=25,
        num_ranks=8,
        threads_per_rank=16,
        max_batch_size=8,
        cache_bytes=32 << 20,
    ) as broker:
        # 2. A single-root distance query, then the same root again: the
        #    second answer comes from the cache, bit-identical to the first
        #    (and to an offline solve_sssp call).
        cold = broker.query(roots[0])
        warm = broker.query(roots[0])
        offline = solve_sssp(graph, roots[0], algorithm="opt", delta=25,
                             num_ranks=8, threads_per_rank=16)
        assert warm.cached
        assert np.array_equal(cold.distances, offline.distances)
        assert np.array_equal(warm.distances, offline.distances)
        print(f"root {roots[0]}: cold {cold.latency_s * 1e3:.2f} ms "
              f"({cold.source}), warm {warm.latency_s * 1e3:.3f} ms "
              f"({warm.source}) — bit-identical to offline solve")

        # 3. A k-root query with path extraction: futures resolve in input
        #    order; coalesced duplicates share one solve.
        target = roots[0]
        futures = broker.submit_many(roots + [roots[1]], targets=(target,))
        broker.drain()
        for future in futures:
            res = future.result()
            path = res.paths[target]
            hops = len(path) - 1 if path else "unreachable"
            print(f"  root {res.root:>6} [{res.source:>9}]  "
                  f"d(root,{target}) = {res.distance_to(target)}  "
                  f"hops = {hops}")

        # 4. A Zipf-skewed closed-loop workload: a few hot roots dominate,
        #    so the cache absorbs most of the traffic.
        spec = WorkloadSpec(num_requests=300, arrival="closed",
                            concurrency=4, zipf_s=1.2, root_universe=32,
                            seed=7)
        report = run_workload(broker, spec)
        keys = ("completed", "shed", "throughput_qps", "p50_s", "p99_s",
                "cache_hit_rate", "mean_batch_size", "solves")
        print(format_table([{k: report[k] for k in keys}],
                           "Zipf closed-loop workload"))

        # 5. SLO verdict over the measured report.
        policy = SloPolicy(p99_s=0.5, min_hit_rate=0.25)
        violations = policy.check(report)
        print("SLOs:", "MET" if not violations else f"VIOLATED {violations}")


if __name__ == "__main__":
    main()
