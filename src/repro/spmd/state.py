"""Rank-local state for the SPMD driver.

Each rank state is a :class:`~repro.core.views.VertexView` over the rank's
owned vertex block — exactly what one node of the paper's machine holds.
The type and its slicing constructor live in :mod:`repro.core.views`
beside the whole-graph constructor; they are re-exported here under the
names the SPMD API has always used.
"""

from repro.core.views import VertexView as RankState
from repro.core.views import build_rank_states

__all__ = ["RankState", "build_rank_states"]
