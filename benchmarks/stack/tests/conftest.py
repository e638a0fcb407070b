"""Run with ``pytest benchmarks/stack/tests`` from the repo root (not part
of the tier-1 suite): makes the repo root and ``src`` importable."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
