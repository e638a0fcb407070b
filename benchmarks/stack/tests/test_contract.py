"""`--scale smoke` emits exactly what ``BENCHMARK.json`` declares, and the
declaration itself keeps to the benchmark contract's limits."""

import json
import re
import subprocess
import sys

import pytest

from benchmarks.stack.run import run_workload
from benchmarks.stack.spec import ROOT, load_contract
from benchmarks.stack.workloads import WORKLOADS

CONTRACT = load_contract()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_declaration_keeps_to_the_contract():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/stack"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in CONTRACT[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
        assert UNIT.match(m["unit"])
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16 and 1 <= len(CONTRACT["per_layer"]) <= 128
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    total_runs = 4 + 22 * len(CONTRACT["workloads"])
    assert total_runs * 25 <= 3420, "a run may average 25 s and still fit the cap"


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_exactly_the_declared_metrics(name, trace):
    record = run_workload(name, seed=3, trace=trace, scale="smoke")
    result = record["result"]
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["bench.trace_overhead_pct"]["value"] != 0
        assert (ROOT / ".bench_out" / f"trace-{name}.jsonl").stat().st_size > 0


def test_the_command_prints_the_result_object_last_and_rejects_unknown_names():
    cmd = [sys.executable, *CONTRACT["command"][1:], "--seed", "2", "--seconds", "12",
           "--trace", "0", "--scale", "smoke"]
    proc = subprocess.run(cmd + ["--workload", "cold_grid"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert CONTRACT["end_to_end"][0]["name"] in proc.stdout.splitlines()[1]
    proc = subprocess.run(cmd + ["--workload", "nope"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and not proc.stdout.strip().endswith("}")
