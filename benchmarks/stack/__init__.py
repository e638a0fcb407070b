"""The repo's `stack` benchmark: named workloads, end-to-end and per-layer
metrics, one command, one schema.

``python -m benchmarks.stack`` runs the suite; ``benchmarks/stack/run.py``
runs one workload in this process and is the command ``BENCHMARK.json``
names. See ``README.md`` beside this file for the workload and metric
glossary. Nothing here is imported by ``src/repro``; layers are measured
from outside, through their public functions.
"""
