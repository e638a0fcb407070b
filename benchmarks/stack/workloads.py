"""The named workloads, in the order ``BENCHMARK.json`` lists them."""

from __future__ import annotations

from benchmarks.stack.cold import cold_grid, cold_rmat, cold_spmd
from benchmarks.stack.serving import serve_churn, serve_cold, serve_hot

__all__ = ["WORKLOADS"]

WORKLOADS = {
    "cold_rmat": cold_rmat,
    "cold_grid": cold_grid,
    "cold_spmd": cold_spmd,
    "serve_cold": serve_cold,
    "serve_hot": serve_hot,
    "serve_churn": serve_churn,
}
