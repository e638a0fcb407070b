"""The paper's evaluation as one table: ``FIGURES`` maps each experiment id
(as EXPERIMENTS.md and DESIGN.md §4 name it) to its :class:`Figure`.

``python -m benchmarks.figures`` regenerates, checks and pins every one of
them; see ``benchmarks/MANIFEST.md``, "The paper-figure series".
"""

from benchmarks.figures import ablations, paper
from benchmarks.figures.lab import Figure, Lab

FIGURES: dict[str, Figure] = {**paper.FIGURES, **ablations.FIGURES}

__all__ = ["FIGURES", "Figure", "Lab"]
