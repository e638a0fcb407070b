"""Small shared utilities (vectorised index kernels, table printing)."""

from repro.util.ranges import concat_ranges, sorted_unique_ids
from repro.util.tables import format_table

__all__ = ["concat_ranges", "sorted_unique_ids", "format_table"]
