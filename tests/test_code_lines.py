"""``tools/code_lines.py``'s command line: ``--help`` and unknown options,
and the ratchets the source tree is held to."""

import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


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
    hold at most 988 code lines, and the tree keeps every ratchet."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names = tuple(
        f"src/repro/{name}"
        for name in ("core/pushpull.py", "core/phases.py", "runtime/metrics.py")
    )
    assert (names, 988, ()) in tool.RATCHETS
    proc = subprocess.run(
        [sys.executable, str(TOOL), "src/repro", "--ratchet"],
        capture_output=True, text=True, timeout=60, cwd=TOOL.parents[1],
    )
    assert proc.returncode == 0, proc.stderr
