"""The compact ``k=v,k=v`` spec grammar of the fault and chaos plans.

``--faults "loss=0.05,seed=3,crash=1@4+0@9"`` and ``--chaos
"error=0.1,inject=error@7x0,roots=1+2"`` are one grammar: comma-separated
``key=value`` items, where a scalar key casts its value and an event key
holds one or more events joined with ``+`` (typically ``X@Y[xZ]``).
"""

from __future__ import annotations

__all__ = ["parse_spec", "split_event"]


def split_event(event: str) -> tuple[str, str, str]:
    """``"X@Y[xZ]"`` as ``(X, Y, Z)``; ``Z`` is empty when absent."""
    head, _, rest = event.partition("@")
    mid, _, tail = rest.partition("x")
    return head, mid, tail


def parse_spec(
    spec: str, what: str, scalars: dict, events: dict, overrides: dict
) -> dict:
    """Constructor keywords of the plan ``spec`` describes.

    ``scalars`` maps a key to ``(field, cast)``; ``events`` maps a key to
    ``(field, parser)`` and yields the tuple of ``parser(event)`` over the
    ``+``-joined events. ``what`` names the grammar in error messages;
    ``overrides`` seeds the result, and keys in the spec win.
    """
    kwargs = dict(overrides)
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"malformed {what} spec item {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key in scalars:
            field, cast = scalars[key]
            kwargs[field] = cast(value)
        elif key in events:
            field, parser = events[key]
            kwargs[field] = tuple(parser(ev) for ev in value.split("+"))
        else:
            raise ValueError(f"unknown {what} spec key {key!r}")
    return kwargs
