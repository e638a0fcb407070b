"""``tools/code_lines.py``'s command line: ``--help`` and unknown options,
and the ratchets the source tree is held to."""

import importlib.util
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _run(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args],
        capture_output=True, text=True, timeout=60,
    )


def test_help_prints_usage_and_exits_zero():
    proc = _run("--help")
    assert proc.returncode == 0, proc.stderr
    assert "Usage: ``python tools/code_lines.py [--ratchet] PATH...``" in proc.stdout
    assert proc.stderr == ""


def test_unknown_option_exits_two_with_a_message():
    proc = _run("--bogus", str(TOOL))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unknown option --bogus" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_counts_a_path():
    proc = _run(str(TOOL))
    assert proc.returncode == 0, proc.stderr
    count, name = proc.stdout.split()
    assert int(count) > 0 and name == str(TOOL)


def test_the_push_pull_decision_and_its_ledger_stay_capped():
    """``core/pushpull.py`` + ``core/phases.py`` + ``runtime/metrics.py``
    hold at most 934 code lines and no tracer fork, estimator composition
    layer or second recovery hook, and the tree keeps every ratchet."""
    tool = _tool()
    names = tuple(
        f"src/repro/{name}"
        for name in ("core/pushpull.py", "core/phases.py", "runtime/metrics.py")
    )
    forbidden = (
        "expectation_partials", "combine_expectation_costs", "ctx.tracer is None",
        "recovery_hook",
    )
    assert (names, 934, forbidden) in tool.RATCHETS
    proc = subprocess.run(
        [sys.executable, str(TOOL), "src/repro", "--ratchet"],
        capture_output=True, text=True, timeout=60, cwd=TOOL.parents[1],
    )
    assert proc.returncode == 0, proc.stderr


def test_one_defence_owns_the_epoch_boundary():
    """``core/defence.py`` + ``spmd/engine.py`` + ``spmd/checkpoint.py``
    hold at most 478 code lines with no second recovery manager, hook
    chain, checkpoint cadence or healing knob, and the transport row holds
    at most 346 and names neither knob, the fault plan's retired retry and
    window settings, receiver cuts nor a per-lane-count accounting call."""
    tool = _tool()
    rows = {names: (most, calls) for names, most, calls in tool.RATCHETS}
    most, calls = rows[tuple(
        f"src/repro/{name}"
        for name in ("core/defence.py", "spmd/engine.py", "spmd/checkpoint.py")
    )]
    assert most == 478
    assert calls == (
        "_RecoveryManager", "chain_hooks", "recovery_hook", "maybe_save",
        "max_healing_sweeps", "checkpoint_interval",
    )
    transport = rows[("src/repro/spmd/mailbox.py", "src/repro/spmd/faults.py")]
    assert transport == (346, (
        "checkpoint_interval", "max_healing_sweeps", "faults_on_retry",
        "backoff_cap", "first_superstep", "last_superstep", "_cuts(",
        "exchange_by_rank_counts(",
    ))


def test_a_directory_row_counts_and_scans_every_file_in_its_tree(tmp_path):
    """A row may name a tree: its cap counts every ``*.py`` file under it,
    nested ones included, and a forbidden call in any of them breaks it."""
    tool = _tool()
    (tmp_path / "a.py").write_text('"""doc"""\nx = 1\n# note\ny = 2\n')
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("def f(registry):\n    registry.inc(1)\n")
    (tmp_path / "sub" / "notes.txt").write_text("registry.observe(\n")
    row = (str(tmp_path),)
    assert tool.count(tmp_path) == 4
    assert tool.broken(row, 4, ()) is None
    assert "4 code lines (max 3)" in tool.broken(row, 3, ())
    complaint = tool.broken(row, 4, ("registry.inc(", "registry.observe("))
    assert complaint.endswith("forbidden calls ['registry.inc(']")


def test_the_serving_plane_row_holds_and_the_pipeline_keeps_off_the_registry():
    """``serve/`` + ``dynamic/versioner.py`` are one capped row, and the
    broker with its policies names neither the registry's writes nor a
    take deadline."""
    tool = _tool()
    rows = {names: (most, calls) for names, most, calls in tool.RATCHETS}
    most, calls = rows[("src/repro/serve", "src/repro/dynamic/versioner.py")]
    assert most < 2400 and calls == ()
    pipeline = tuple(f"src/repro/serve/{name}.py"
                     for name in ("broker", "batcher", "attempt", "snapshots"))
    assert rows[pipeline][1] == ("registry.inc(", "registry.observe(", "deadline_at")
