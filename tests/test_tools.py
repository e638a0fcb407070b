"""The measuring scripts under ``tools/`` keep running.

``tools/region_timer.py`` patches its regions by name: every site of
``REGIONS`` and ``RANK_REGIONS`` must exist, so that arming the timer
fails on a renamed or moved function instead of dropping its row.
``tools/spmd_ratio.py`` prints the quantiles of its per-root ratio.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_region_timer_arms_and_restores_every_site():
    tool = _tool("region_timer")
    regions = {**tool.REGIONS, **tool.RANK_REGIONS}
    sites = [site for sites in regions.values() for site in sites]
    with pytest.MonkeyPatch.context() as patch:
        original = []
        for owner, name in sites:
            original.append(getattr(owner, name))
            patch.setattr(owner, name, original[-1])  # restored on exit
        tool.Accumulator(regions).arm()
        for (owner, name), fn in zip(sites, original):
            assert getattr(owner, name) is not fn, f"{owner.__name__}.{name} not armed"
    for (owner, name), fn in zip(sites, original):
        assert getattr(owner, name) is fn


def test_spmd_ratio_prints_the_quantiles_of_its_per_root_ratio():
    src = str(TOOLS.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "spmd_ratio.py"),
         "--scale", "7", "--roots", "3", "--seed", "2", "--passes", "1"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "3 roots x 1 alternated passes" in proc.stdout
    assert "spmd/orchestrated per root: median " in proc.stdout
