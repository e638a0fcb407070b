"""``tools/code_lines.py``'s command line: ``--help`` and unknown options."""

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
