"""Test-only oracles for the live-graph plane: what the update path did
before it was made proportional to the batch, kept as the reference the
fast paths are held equal to.

- :func:`rebuild_batch` — ``apply_batch`` as an edge-list round trip
  (``to_edge_list`` → ``np.isin`` → ``from_edges`` with its global sort)
  and a from-scratch sorted lookup per weight query.
- :func:`unconditional_closure` — the damage closure that seeds the head
  of *every* improved arc and gathers the children of the newly dirty in
  a second scan.
- :func:`windowed_repair` — ``repair_sssp`` draining its frontier window
  by window under the configured strategy's window rule, over an
  unsettled region it keeps itself, instead of to one label-correcting
  fixpoint.
"""

from __future__ import annotations

import numpy as np

from repro.core.distances import INF
from repro.core.relax import apply_relaxations
from repro.core.stepping import make_strategy
from repro.dynamic.repair import _damage_closure, _out_arcs
from repro.dynamic.updates import EdgeDelta
from repro.graph.builder import from_edges
from repro.util.ranges import concat_ranges, sorted_unique_ids


def arc_weights(graph, keys: np.ndarray) -> np.ndarray:
    """Weight of the arc ``tail * n + head`` per entry, ``INF`` if absent
    (first of the run on parallel arcs), by sorting all arcs."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    graph_keys = graph.arc_tails() * graph.num_vertices + graph.adj
    order = np.argsort(graph_keys, kind="stable")
    sorted_keys = graph_keys[order]
    pos = np.searchsorted(sorted_keys, keys)
    out = np.full(keys.size, INF, dtype=np.int64)
    hit = pos < sorted_keys.size
    hit[hit] = sorted_keys[pos[hit]] == keys[hit]
    out[hit] = graph.weights[order][pos[hit]]
    return out


def rebuild_batch(graph, batch):
    """``(new_graph, delta)`` by rebuilding the whole edge list."""
    batch.validate_against(graph)
    n = graph.num_vertices
    tails, heads, weights = graph.to_edge_list()

    def arcs(t, h, w):
        """Both orientations for undirected graphs, as-given otherwise."""
        if graph.undirected:
            return (np.concatenate([t, h]), np.concatenate([h, t]),
                    None if w is None else np.concatenate([w, w]))
        return t, h, w

    rem_t, rem_h, _ = arcs(
        np.concatenate([batch.delete_tails, batch.reweight_tails]),
        np.concatenate([batch.delete_heads, batch.reweight_heads]),
        None,
    )
    keep = ~np.isin(tails * n + heads, rem_t * n + rem_h)
    add_t, add_h, add_w = arcs(
        np.concatenate([batch.insert_tails, batch.reweight_tails]),
        np.concatenate([batch.insert_heads, batch.reweight_heads]),
        np.concatenate([batch.insert_weights, batch.reweight_weights]),
    )
    new_graph = from_edges(
        np.concatenate([tails[keep], add_t]),
        np.concatenate([heads[keep], add_h]),
        np.concatenate([weights[keep], add_w]),
        n,
        undirected=graph.undirected,
        dedup=True,
    )
    touch_t, touch_h, _ = arcs(
        np.concatenate([batch.insert_tails, batch.delete_tails, batch.reweight_tails]),
        np.concatenate([batch.insert_heads, batch.delete_heads, batch.reweight_heads]),
        None,
    )
    touched = touch_t * n + touch_h
    delta = EdgeDelta(
        touch_t, touch_h, arc_weights(graph, touched), arc_weights(new_graph, touched)
    )
    return new_graph, delta


def unconditional_closure(graph, d: np.ndarray, delta, root: int) -> np.ndarray:
    """Dirty mask with every improved head seeded, tight or not."""

    def gather(vertices):
        flat, owner = concat_ranges(graph.indptr[vertices], graph.indptr[vertices + 1])
        return vertices[owner], graph.adj[flat], graph.weights[flat]

    n = graph.num_vertices
    dirty = np.zeros(n, dtype=bool)
    wt, wh, ww = delta.worsened_tails, delta.worsened_heads, delta.worsened_weights
    was_tight = (d[wt] < INF) & (d[wh] < INF) & (d[wt] + ww == d[wh])
    work = sorted_unique_ids(np.concatenate([wh[was_tight], delta.improved_heads]), n)
    work = work[(work != root) & (d[work] < INF)]
    while work.size:
        tails, nbrs, w = gather(work)
        cert = (w > 0) & ~dirty[nbrs] & (d[nbrs] < INF) & (d[nbrs] + w == d[tails])
        has_cert = np.zeros(work.size, dtype=bool)
        has_cert[np.searchsorted(work, tails[cert])] = True
        newly = work[~has_cert]
        if newly.size == 0:
            break
        dirty[newly] = True
        tails, nbrs, w = gather(newly)
        child = (
            (d[tails] < INF) & (d[nbrs] < INF) & (d[tails] + w == d[nbrs])
            & ~dirty[nbrs] & (nbrs != root)
        )
        work = sorted_unique_ids(nbrs[child], n)
    return dirty


def windowed_repair(ctx, root: int, old_distances: np.ndarray, delta):
    """``(distances, steps, relax_records)`` of an ungated repair whose
    phase 3 drains ``[lo, hi)`` windows of ``ctx.config``'s strategy.

    Phases 1–2 are ``repair_sssp``'s: the damage closure, orphans reset
    to ``INF``, one batched relaxation of every clean→dirty and improved
    arc. The unsettled region is a list of ids — the frontier, then
    every vertex a relaxation lowers — with an n-byte membership mask so
    a re-lowered vertex is listed once; each window relaxes all out-arcs
    of the region's vertices below ``hi`` to fixpoint before settling
    them.
    """
    graph = ctx.graph
    n = graph.num_vertices
    d = np.array(old_distances, dtype=np.int64, copy=True)
    dirty = _damage_closure(graph, d, delta, root)
    orphans = np.flatnonzero(dirty)
    d[orphans] = INF
    owner, du, dw = _out_arcs(graph, orphans)
    anchor = ~dirty[du] & (d[du] < INF)
    it, ih, iw = delta.improved_tails, delta.improved_heads, delta.improved_weights
    live = d[it] < INF
    frontier = apply_relaxations(
        d,
        np.concatenate((orphans[owner[anchor]], ih[live])),
        np.concatenate((d[du][anchor] + dw[anchor], d[it][live] + iw[live])),
    )
    strategy = make_strategy(ctx.config)
    strategy.prepare(graph)
    queued = np.zeros(n, dtype=bool)
    queued[frontier] = True
    region = frontier
    steps = relax_records = 0
    while (step := strategy.window(d[region], region, steps)) is not None:
        steps += 1
        inside = d[region] < step.hi
        while (active := region[inside]).size:
            region = region[~inside]
            queued[active] = False
            owner, dst, w = _out_arcs(graph, active)
            relax_records += int(dst.size)
            changed = apply_relaxations(d, dst, d[active][owner] + w)
            changed = changed[~queued[changed]]
            queued[changed] = True
            region = np.concatenate((region, changed))
            inside = d[region] < step.hi
    return d, steps, relax_records
