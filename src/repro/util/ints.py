"""The integer rule for every count and vertex id an entry point takes.

An integer is a Python ``int`` or a NumPy integer. Floats — integral ones
too — strings and bools are refused with ``ValueError`` before any work: a
float Δ would key buckets off float distances, and a float or bool vertex
id would be read as some other vertex. :func:`int_array` applies the same
rule to the arrays the exported index kernels take.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["check_count", "int_array", "vertex_id"]

_INT64 = np.dtype(np.int64)


def _integer(value) -> int | None:
    """``value`` as an ``int``, or ``None`` when the rule refuses it.
    ``operator.index`` refuses floats, strings and NumPy bools; a Python
    bool is an ``int`` to it. (Not ``isinstance(value, numbers.Integral)``:
    that ABC check costs ~0.5 µs, and every served cache hit checks its
    root.)"""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def check_count(name: str, value) -> int:
    """``value`` as an ``int`` >= 1; ``name`` goes into the error."""
    count = _integer(value)
    if count is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if count < 1:
        raise ValueError(f"{name} must be >= 1")
    return count


def vertex_id(value, num_vertices: int, what: str = "root") -> int:
    """``value`` as a vertex id of a ``num_vertices``-vertex graph; ``what``
    (``"root"``, ``"path target"``) names it in the error."""
    v = _integer(value)
    if v is None:
        raise ValueError(f"{what} must be an integer vertex id, got {value!r}")
    if not 0 <= v < num_vertices:
        raise ValueError(
            f"{what} {v} out of range for a graph with {num_vertices} "
            f"vertices (valid: 0 <= {what} < {num_vertices})"
        )
    return v


def int_array(name: str, values) -> np.ndarray:
    """``values`` as an int64 array; ``name`` goes into the error.

    Integer arrays of any width are taken (widened, not copied when
    already int64); float, bool and object arrays are refused instead of
    truncated. An empty input is taken whatever its dtype — ``[]`` is a
    float array to NumPy. The check reads the dtype only: O(1), not a
    pass over the values.
    """
    arr = np.asarray(values)
    if arr.dtype is not _INT64:  # the hot path: a dtype identity test
        if arr.dtype.kind not in "iu" and arr.size:
            raise ValueError(f"{name} must be an integer array, got dtype {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
    return arr
