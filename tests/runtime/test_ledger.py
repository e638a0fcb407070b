"""The step ledger: queued facts, one vectorised fold.

``ctx.charge``/``charge_scan``, the communicator's exchanges and allreduces
queue facts; :meth:`Metrics.settle` folds them. The contract is that nobody
can tell: every :class:`StepRecord` field, the relaxation counters and the
priced cost are, to the bit, what reducing each call on the spot gives. The
eager reductions the ledger replaced live on here as the oracle — among
them :func:`work_fact`, which mapped a charge's vertices to threads and
heavy-vertex spreads at the call, before the fold took that over.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.runtime.metrics as ledger
from repro.core.config import SolverConfig, preset
from repro.core.context import make_context
from repro.core.solver import BatchSolver, solve_sssp
from repro.dynamic.repair import repair_sssp
from repro.dynamic.updates import random_update_batch
from repro.dynamic.versioner import GraphVersioner
from repro.graph.builder import from_undirected_edges
from repro.graph.grid import grid_graph
from repro.graph.rmat import rmat_graph
from repro.obs.tracer import TraceConfig
from repro.runtime.comm import RECOVERY_PHASE
from repro.runtime.costmodel import CostBreakdown, evaluate_cost, price_record
from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import ComputeKind, StepRecord
from repro.runtime.watchdog import DeadlineConfig
from repro.runtime.work import thread_index
from repro.spmd.engine import spmd_delta_stepping

N = 60  # vertices of the graph every synthetic fact is about


def pending(metrics) -> int:
    """Ledger rows still waiting for their numbers: one per queued fact,
    two per queued delivery (its route's and its charge's), one per booked
    allreduce."""
    deliveries = len(metrics._facts[ledger._DELIVERY].facts)
    queued = sum(len(queue.facts) for queue in metrics._facts)
    return queued + deliveries + len(metrics._allreduces)


# ----------------------------------------------------------------------
# The oracle: each accounting call reduced on the spot, as the parent did
# ----------------------------------------------------------------------
def work_fact(vertices, units, partition, machine, heavy_threshold=float("inf")):
    """A charge's ``(thread ids, units, per-rank spread)``, computed at the
    call: what ``runtime/work.py`` did before the ledger mapped vertices."""
    v = np.asarray(vertices, dtype=np.int64)
    idx = thread_index(v, partition, machine)
    u = None if units is None else np.array(units, dtype=np.float64)
    if heavy_threshold == float("inf"):
        return idx, u, None
    if u is None:
        u = np.ones(v.size, dtype=np.float64)
    heavy = u > heavy_threshold
    if not heavy.any():
        return idx, u, None
    ranks = np.asarray(partition.owner(v[heavy]), dtype=np.int64)
    spread = np.bincount(ranks, weights=u[heavy], minlength=machine.num_ranks)
    return idx[~heavy], u[~heavy], spread


def eager_thread_work(ctx, vertices, units):
    m = ctx.machine
    idx, u, spread = work_fact(vertices, units, ctx.partition, m, ctx.heavy_threshold)
    out = np.bincount(idx, weights=u, minlength=m.total_threads).astype(np.float64)
    if spread is not None:
        out += np.repeat(spread / m.threads_per_rank, m.threads_per_rank)
    return out


def eager_compute(kind, thread_work, phase_kind, count_as_relax, relaxations):
    total = float(thread_work.sum())
    if count_as_relax:
        relaxations[kind.value] = relaxations.get(kind.value, 0) + int(round(total))
    rec = StepRecord(
        kind=kind.value, comp_max=float(thread_work.max()), comp_total=total,
        phase_kind=phase_kind,
    )
    return rec, thread_work


def eager_exchange(msgs, byt, phase_kind):
    rec = StepRecord(
        kind="exchange", msgs_max=int(msgs.max()), bytes_max=int(byt.max()),
        bytes_total=int(byt.sum()) // 2, phase_kind=phase_kind,
    )
    return rec, msgs, byt


def eager_by_rank(p, src, dst, record_bytes, phase_kind):
    lanes = np.bincount(src * p + dst, minlength=p * p).reshape(p, p)
    np.fill_diagonal(lanes, 0)
    byt = (lanes.sum(axis=1) + lanes.sum(axis=0)) * record_bytes
    return eager_exchange(np.count_nonzero(lanes, axis=1), byt, phase_kind)


def eager_by_counts(p, src, dst, cnt, record_bytes, phase_kind):
    live = (src != dst) & (cnt > 0)
    lanes = np.zeros(p * p, dtype=np.int64)
    np.add.at(lanes, src[live] * p + dst[live], cnt[live])
    lanes = lanes.reshape(p, p)
    byt = (lanes.sum(axis=1) + lanes.sum(axis=0)) * record_bytes
    return eager_exchange(np.count_nonzero(lanes, axis=1), byt, phase_kind)


# ----------------------------------------------------------------------
# The list-of-arrays fold the flat buffers replaced: a fact list per family
# ----------------------------------------------------------------------
def _cat(arrays: list) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _weights(units: list, sizes: np.ndarray) -> np.ndarray | None:
    """``None`` when every run counts one per id, else ones with the
    weighted runs' units written over their places."""
    if len(units) == 1:
        return units[0]
    weighted = [u is not None for u in units]
    if not any(weighted):
        return None
    w = np.ones(sizes.sum())
    w[np.repeat(weighted, sizes)] = np.concatenate([u for u in units if u is not None])
    return w


def _grid(ids, sizes, weights, k: int, width: int) -> np.ndarray:
    if k > 1:
        offset = np.repeat(np.arange(k) * width, sizes)
        offset += ids
        ids = offset
    return np.bincount(ids, weights, minlength=k * width).reshape(k, width)


def fold_charges(charges: list, width: int, t: int, maps) -> np.ndarray:
    """Per-thread work rows of ``(vertices, units)`` charges."""
    k = len(charges)
    sizes = np.array([c[0].size for c in charges])
    w = _weights([c[1] for c in charges], sizes)
    v = _cat([c[0] for c in charges])
    per_rank = None
    if maps.heavy_threshold < float("inf"):
        u = np.ones(v.size) if w is None else w
        heavy = u > maps.heavy_threshold
        if heavy.any():
            heavy_sizes = np.bincount(np.repeat(np.arange(k), sizes)[heavy], minlength=k)
            per_rank = _grid(maps.rank[v[heavy]], heavy_sizes, u[heavy], k, width // t)
            v, w, sizes = v[~heavy], u[~heavy], sizes - heavy_sizes
    grid = _grid(maps.thread[v], sizes, w, k, width).astype(np.float64, copy=False)
    if per_rank is not None:
        grid.reshape(k, -1, t)[...] += (per_rank / t)[:, :, None]
    return grid


def fold_exchange(routes: list, facts: list, p: int, maps) -> tuple:
    """Per-rank ``(messages, bytes)`` rows of ``(src, dst, record_bytes)``
    routes, then of ``(lanes, counts, record_bytes)`` facts."""
    every = routes + facts
    sizes = np.array([f[0].size for f in every])
    lanes = [f[0] for f in facts]
    if routes:
        lane = maps.rank[_cat([r[0] for r in routes])] * p
        lanes.insert(0, lane + maps.rank[_cat([r[1] for r in routes])])
    w = _weights([None] * len(routes) + [f[1] for f in facts], sizes)
    grid = _grid(_cat(lanes), sizes, w, len(every), p * p).astype(np.int64, copy=False)
    grid[:, :: p + 1] = 0
    grid = grid.reshape(-1, p, p)
    record_bytes = np.array([f[2] for f in every], dtype=np.int64)
    msgs = (grid != 0).sum(axis=2)
    return msgs, (grid.sum(axis=2) + grid.sum(axis=1)) * record_bytes[:, None]


# ----------------------------------------------------------------------
# Random programs of accounting calls
# ----------------------------------------------------------------------
KINDS = list(ComputeKind)
PHASES = ["short", "long", "bf", "bucket", RECOVERY_PHASE, "other"]


@st.composite
def programs(draw):
    """((P, T, intra_lb, skewed), ops): ops are drawn as plain data so one
    program can be replayed on several contexts and on the oracle."""
    p = draw(st.integers(1, 7))
    t = draw(st.integers(1, 5))
    vertex_ids = st.integers(0, N - 1)
    ops = []
    for _ in range(draw(st.integers(0, 14))):
        op = draw(st.sampled_from(
            ["charge", "scan", "scan_all", "by_vertex", "deliver", "by_rank",
             "by_counts", "allreduce", "ready", "burst"]
        ))
        phase = draw(st.sampled_from(PHASES))
        size = draw(st.integers(0, 9))
        if op == "charge":
            vertices = draw(st.lists(vertex_ids, min_size=size, max_size=size))
            units = draw(st.one_of(
                st.none(),
                st.lists(st.integers(0, 40), min_size=size, max_size=size),
            ))
            ops.append((op, draw(st.sampled_from(KINDS)), phase, vertices, units,
                        draw(st.booleans())))
        elif op == "scan":
            ops.append((op, draw(st.lists(st.integers(0, 500), min_size=p, max_size=p))))
        elif op == "scan_all":
            ops.append((op, draw(st.one_of(st.none(), st.integers(0, N)))))
        elif op in ("by_vertex", "deliver"):
            ends = st.lists(vertex_ids, min_size=size, max_size=size)
            ops.append((op, phase, draw(ends), draw(ends), draw(st.integers(0, 24)),
                        draw(st.sampled_from(KINDS))))
        elif op == "burst":
            ops += burst(p, draw(st.integers(0, 2**32 - 1)), draw(st.integers(100, 400)))
        elif op in ("by_rank", "by_counts"):
            ranks = st.lists(st.integers(0, p - 1), min_size=size, max_size=size)
            counts = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
            ops.append((op, phase, draw(ranks), draw(ranks), counts,
                        draw(st.integers(0, 24))))
        elif op == "allreduce":
            ops.append((op, phase, draw(st.integers(1, 3))))
        else:
            work = draw(st.lists(st.integers(0, 30), min_size=p * t, max_size=p * t))
            ops.append((op, draw(st.sampled_from(KINDS)), phase, work))
    return (p, t, draw(st.booleans()), draw(st.booleans())), ops


def burst(p, seed, count):
    """``count`` plain ops — charges, scans, routes and deliveries of up to
    9 ids each — drawn from ``seed``: enough facts that the ledger's
    buffers grow inside one program."""
    rng = np.random.default_rng(seed)
    ops = []
    for op in rng.choice(["charge", "scan", "by_vertex", "deliver"], count).tolist():
        size, phase = int(rng.integers(0, 10)), PHASES[rng.integers(len(PHASES))]
        kind = KINDS[rng.integers(len(KINDS))]
        vertices = rng.integers(0, N, size).tolist()
        if op == "charge":
            units = None if rng.random() < 0.5 else rng.integers(0, 41, size).tolist()
            ops.append((op, kind, phase, vertices, units, bool(rng.random() < 0.5)))
        elif op == "scan":
            ops.append((op, rng.integers(0, 501, p).tolist()))
        else:
            dst = rng.integers(0, N, size).tolist()
            ops.append((op, phase, vertices, dst, int(rng.integers(0, 25)), kind))
    return ops


def rows_of(ops) -> int:
    """Ledger rows a program makes: two for a delivery, one for any other op."""
    return sum(2 if op[0] == "deliver" else 1 for op in ops)


def queued_of(ops) -> int:
    """Ledger rows a program leaves pending: all but a counted exchange's,
    which is written at once."""
    return rows_of(ops) - sum(op[0] == "by_counts" for op in ops)


def skewed_graph():
    """N vertices: a hub adjacent to all others (59 of the 138 arc ends)
    plus ten chords. Balancing the degree puts the hub alone in a block and
    leaves blocks empty once P ≥ 5."""
    rng = np.random.default_rng(4)
    ring = np.arange(1, N)
    tails = np.concatenate([np.zeros(N - 1, np.int64), ring[::6]])
    heads = np.concatenate([ring, np.roll(ring, -1)[::6]])
    return from_undirected_edges(tails, heads, rng.integers(1, 60, tails.size), N)


def make_ctx(p, t, intra_lb, skewed=False):
    """A context on the 6×10 grid with block ranks, or on the skewed graph
    with degree-balanced ranks (uneven and empty blocks)."""
    graph = skewed_graph() if skewed else grid_graph(6, 10, seed=3)
    assert graph.num_vertices == N
    cfg = SolverConfig(delta=25, intra_lb=intra_lb, heavy_degree=5,
                       partition="degree" if skewed else "block")
    return make_context(graph, MachineConfig(num_ranks=p, threads_per_rank=t), cfg)


def replay(ctx, ops, *, settle_each=False):
    ints = lambda xs: np.array(xs, dtype=np.int64)  # noqa: E731
    for op in ops:
        if op[0] == "charge":
            _, kind, phase, vertices, units, relax = op
            units = None if units is None else np.array(units, dtype=np.float64)
            ctx.charge(kind, ints(vertices), units, phase_kind=phase,
                       count_as_relax=relax)
        elif op[0] == "scan":
            ctx.charge_scan(ints(op[1]))
        elif op[0] == "scan_all":
            ctx.scan_all_ranks(op[1])
        elif op[0] in ("by_vertex", "deliver"):
            deliver = op[5] if op[0] == "deliver" else None
            ctx.comm.exchange_by_vertex(
                ints(op[2]), ints(op[3]), op[4], phase_kind=op[1], deliver=deliver
            )
        elif op[0] == "by_rank":
            ctx.comm.exchange_by_rank(ints(op[2]), ints(op[3]), op[5], phase_kind=op[1])
        elif op[0] == "by_counts":
            ctx.comm.exchange_by_rank_counts(
                ints(op[2]), ints(op[3]), ints(op[4]), op[5], phase_kind=op[1]
            )
        elif op[0] == "allreduce":
            ctx.comm.allreduce(op[2], phase_kind=op[1])
        else:
            ctx.metrics.add_compute(op[1], np.array(op[3], float), phase_kind=op[2])
        if settle_each:
            ctx.metrics.settle()


def oracle(ctx, ops):
    """(records, relaxations, per-record hook arrays) by eager reduction."""
    p, t = ctx.machine.num_ranks, ctx.machine.threads_per_rank
    ints = lambda xs: np.array(xs, dtype=np.int64)  # noqa: E731
    out, relaxations = [], {}
    owner = ctx.partition.owner
    for op in ops:
        if op[0] == "charge":
            _, kind, phase, vertices, units, relax = op
            units = None if units is None else np.array(units, dtype=np.float64)
            out.append(eager_compute(
                kind, eager_thread_work(ctx, ints(vertices), units), phase, relax,
                relaxations,
            ))
        elif op[0] in ("scan", "scan_all"):
            if op[0] == "scan":
                per_rank = np.asarray(op[1], dtype=np.float64)
            else:
                n = ctx.graph.num_vertices if op[1] is None else op[1]
                per_rank = np.full(p, n / p)
            out.append(eager_compute(
                ComputeKind.BUCKET_SCAN, np.repeat(per_rank / t, t), "bucket", False,
                relaxations,
            ))
        elif op[0] in ("by_vertex", "deliver"):
            src, dst = owner(ints(op[2])), owner(ints(op[3]))
            out.append(eager_by_rank(p, src, dst, op[4], op[1]))
            if op[0] == "deliver":  # one unit per record at its destination
                out.append(eager_compute(
                    op[5], eager_thread_work(ctx, ints(op[3]), None), op[1], True,
                    relaxations,
                ))
        elif op[0] == "by_rank":
            out.append(eager_by_rank(p, ints(op[2]), ints(op[3]), op[5], op[1]))
        elif op[0] == "by_counts":
            out.append(eager_by_counts(
                p, ints(op[2]), ints(op[3]), ints(op[4]), op[5], op[1]
            ))
        elif op[0] == "allreduce":
            out.append((StepRecord(kind="allreduce", allreduces=op[2], phase_kind=op[1]),))
        else:
            kind = op[1]
            out.append(eager_compute(
                kind, np.array(op[3], float), op[2],
                kind is not ComputeKind.BUCKET_SCAN, relaxations,
            ))
    return [o[0] for o in out], relaxations, [o[1:] for o in out]


class RecordingTracer:
    """Duck-typed tracer keeping what each hook was handed."""

    def __init__(self):
        self.calls = []

    def on_compute(self, rec, thread_work, relax_count):
        self.calls.append((rec, (np.array(thread_work),), relax_count))

    def on_exchange(self, rec, msgs, byt):
        self.calls.append((rec, (np.array(msgs), np.array(byt)), None))

    def on_allreduce(self, rec):
        self.calls.append((rec, (), None))


class TestFoldOracle:
    @settings(max_examples=150, deadline=None)
    @given(program=programs())
    def test_batched_equals_one_at_a_time_equals_eager(self, program):
        shape, ops = program
        batched, single = make_ctx(*shape), make_ctx(*shape)
        replay(batched, ops)
        assert pending(batched.metrics) == queued_of(ops)  # nothing folded yet
        replay(single, ops, settle_each=True)
        records, relaxations, _ = oracle(batched, ops)
        for ctx in (batched, single):
            assert ctx.metrics.records == records
            assert ctx.metrics.relaxations == relaxations
            assert list(ctx.metrics.relaxations) == list(relaxations)
            assert pending(ctx.metrics) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        program=programs(), large=st.integers(0, 6),
        budget=st.one_of(st.integers(0, 200), st.integers(200, 20000)),
    )
    def test_size_rules_change_nothing(self, program, large, budget):
        """Large facts folding alone and small ones flushing at any budget
        — after every fact, or in the middle of a burst whose buffers have
        grown — leave the same ledger as one fold at the end."""
        shape, ops = program
        ctx = make_ctx(*shape)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ledger, "LARGE_FACT", large)
            patch.setattr(ledger, "FLUSH_BUDGET", budget)
            replay(ctx, ops)
        records, relaxations, _ = oracle(ctx, ops)
        assert ctx.metrics.records == records
        assert ctx.metrics.relaxations == relaxations

    def test_a_burst_settles_midway_from_grown_buffers(self):
        """Hundreds of small facts grow the buffers past their first size
        and a FLUSH_BUDGET settle folds them in the middle of the burst:
        the ledger is still the eager one."""
        ops = burst(7, seed=47, count=400)
        ctx = make_ctx(7, 5, True, True)
        seen, settle = [], ledger.Metrics.settle

        def spy(metrics):
            seen.append((pending(metrics), max(q.cap for q in metrics._facts)))
            settle(metrics)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ledger, "FLUSH_BUDGET", 20000)
            patch.setattr(ledger.Metrics, "settle", spy)
            replay(ctx, ops)
            assert any(rows and cap > ledger._FIRST for rows, cap in seen)
            assert pending(ctx.metrics) > 0  # and the burst went on after it
        records, relaxations, _ = oracle(ctx, ops)
        assert ctx.metrics.records == records
        assert ctx.metrics.relaxations == relaxations

    @settings(max_examples=60, deadline=None)
    @given(program=programs())
    def test_armed_tracer_sees_every_record_as_it_happens(self, program):
        """With a tracer armed each fact settles on arrival: the hooks fire
        in program order with the eager reduction's record, per-thread /
        per-rank arrays and relaxation count."""
        shape, ops = program
        ctx = make_ctx(*shape)
        tracer = ctx.metrics.tracer = RecordingTracer()
        records, _, arrays = oracle(ctx, ops)
        for i, op in enumerate(ops):
            replay(ctx, [op])
            assert len(tracer.calls) == rows_of(ops[: i + 1])
            assert pending(ctx.metrics) == 0
        assert [c[0] for c in tracer.calls] == records == ctx.metrics.records
        for (rec, got, relaxed), want in zip(tracer.calls, arrays):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            if relaxed is not None:
                counted = rec.kind in ctx.metrics.relaxations
                assert relaxed in (0, int(round(rec.comp_total)))
                assert counted or relaxed == 0

    def test_ready_exchange_rows_keep_their_place(self):
        ctx = make_ctx(3, 2, False)
        m = ctx.metrics
        ctx.comm.exchange_by_rank(np.array([0, 1]), np.array([2, 2]), 8)
        m.add_exchange(np.array([2, 0, 1]), np.array([10, 30, 20]), phase_kind="bf")
        ctx.comm.exchange_by_rank(np.array([2]), np.array([0]), 4)
        first, ready, last = m.records
        assert (first.msgs_max, first.bytes_max, first.bytes_total) == (1, 16, 16)
        assert (ready.msgs_max, ready.bytes_max, ready.bytes_total) == (2, 30, 30)
        assert ready.phase_kind == "bf"
        assert (last.msgs_max, last.bytes_max, last.bytes_total) == (1, 4, 4)
        with pytest.raises(ValueError):
            m.add_exchange(np.array([1, 2]), np.array([1, 2]))

    def test_tracer_armed_mid_run_sees_only_what_follows(self):
        ctx = make_ctx(3, 2, False)
        ctx.charge_scan(np.array([1, 2, 3]))
        tracer = ctx.metrics.tracer = RecordingTracer()
        ctx.comm.allreduce(2)
        assert pending(ctx.metrics) == 1  # the scan keeps its row and its turn
        assert [c[0] for c in tracer.calls] == ctx.metrics.records[1:]
        assert [r.kind for r in ctx.metrics.records] == ["bucket_scan", "allreduce"]

    @pytest.mark.parametrize("bad", [-1, 6])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_id_out_of_range_raises_and_zeroes_no_row(self, bad, batch):
        """A thread or lane id outside the grid raises at the fold whatever
        the batch size — it never lands in a neighbouring fact's row — and
        the facts stay queued, so no reader sees their rows at zero. So does
        a vertex id past the graph in a charge or a route, which meets the
        thread and owner tables only at the fold (a negative one counts from
        the end, as in any gather)."""
        outside_grid, outside_graph = bad + 3 * (bad > 0), N + abs(bad)
        for queue, good, wrong in (
            (lambda m, ids: m.queue_compute(ComputeKind.BF_RELAX, ids, None), [0, 5],
             outside_grid),
            (lambda m, ids: m.queue_exchange(ids, 8), [1, 8], outside_grid),
            (lambda m, ids: m.queue_charge(ComputeKind.BF_RELAX, ids, None), [0, N - 1],
             outside_graph),
            (lambda m, ids: m.queue_route(ids, ids[::-1], 8), [0, N - 1], outside_graph),
        ):
            m = make_ctx(3, 2, False).metrics  # 6 threads, 9 lanes, N vertices
            good = np.array(good)
            for i in range(batch):
                queue(m, np.array([wrong]) if i == 0 else good)
            for _ in range(2):
                with pytest.raises((ValueError, IndexError)):
                    m.records
            assert pending(m) == batch


class TestFlatFold:
    """``work_grid`` and ``traffic`` over facts laid end to end in flat
    buffers are, to the bit, the fact-list folds they replaced."""

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.tuples(
            st.integers(1, 7), st.integers(1, 5), st.booleans(), st.booleans()
        ),
        sizes=st.lists(st.integers(0, 12), min_size=1, max_size=30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equal_the_fact_list_folds(self, shape, sizes, seed):
        rng = np.random.default_rng(seed)
        p, t = shape[:2]
        maps = make_ctx(*shape).metrics.maps
        charges = [
            (rng.integers(0, N, n),
             None if rng.random() < 0.3 else rng.integers(0, 41, n))
            for n in sizes
        ]
        vertices = np.concatenate([v for v, _ in charges])
        units = np.concatenate([np.ones(v.size) if u is None else u for v, u in charges])
        got = ledger.work_grid(vertices, units, sizes, p * t, t, maps)
        want = fold_charges(charges, p * t, t, maps)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        routes = [(v, rng.integers(0, N, v.size), int(rng.integers(0, 25)))
                  for v, _ in charges]
        facts = [(rng.integers(0, p * p, n),
                  None if rng.random() < 0.5 else rng.integers(0, 7, n).astype(float),
                  int(rng.integers(0, 25))) for n in sizes]
        lanes = ledger.route_lanes(
            vertices, np.concatenate([r[1] for r in routes]), maps.rank, p
        )
        by_route = ledger.traffic(lanes, None, sizes, [r[2] for r in routes], p)
        counts = np.concatenate(
            [np.ones(f[0].size) if f[1] is None else f[1] for f in facts]
        )
        by_lane = ledger.traffic(
            np.concatenate([f[0] for f in facts]), counts, sizes, [f[2] for f in facts], p
        )
        want = fold_exchange(routes, facts, p, maps)  # routes' rows, then the facts'
        for got, rows in zip(zip(by_route, by_lane), want):
            assert np.array_equal(np.concatenate(got), rows)


class TestRecordsView:
    def test_built_once_until_the_ledger_grows(self):
        for tracer in (None, RecordingTracer()):
            ctx = make_ctx(3, 2, False)
            ctx.metrics.tracer = tracer
            ctx.comm.allreduce(1)
            view = ctx.metrics.records
            assert ctx.metrics.records is view and len(view) == 1
            ctx.comm.allreduce(2)
            assert ctx.metrics.records is not view
            assert [r.allreduces for r in ctx.metrics.records] == [1, 2]
            assert len(view) == 1  # the old view is a plain list, left alone


class TestFactsOwnTheirArrays:
    def test_mutating_arguments_after_the_call_changes_nothing(self):
        ctx = make_ctx(4, 2, True)
        vertices = np.array([0, 5, 17, 17, 59])
        units = np.array([1.0, 9.0, 2.0, 2.0, 3.0])
        scan = np.array([4, 0, 7, 1])
        src, dst = np.array([0, 1, 3]), np.array([2, 1, 0])
        counts = np.array([2, 5, 1])
        work = np.arange(8, dtype=np.float64)

        def run(mutate):
            ctx_i = make_ctx(4, 2, True)
            args = [a.copy() for a in (vertices, units, scan, src, dst, counts, work)]
            v, u, s, a, b, c, w = args
            ctx_i.charge(ComputeKind.SHORT_RELAX, v, u, phase_kind="short",
                         count_as_relax=True)
            ctx_i.charge_scan(s)
            ctx_i.comm.exchange_by_rank(a, b, 16)
            ctx_i.comm.exchange_by_vertex(v[:3], v[2:], 16)
            ctx_i.comm.exchange_by_rank_counts(a, b, c, 24)
            ctx_i.metrics.add_compute(ComputeKind.BF_RELAX, w)
            assert pending(ctx_i.metrics) == 5  # the counted exchange's row is written
            if mutate:
                for arr in args:
                    arr[...] = 1
            return ctx_i.metrics.records, dict(ctx_i.metrics.relaxations)

        assert run(mutate=True) == run(mutate=False)
        assert ctx.metrics.records == []


class TestDeliveryFold:
    """A delivered superstep (``exchange_by_vertex(..., deliver=kind)``)
    is the route and the one-unit-per-record charge at its destination it
    replaced: past ``LARGE_FACT`` one fused fold makes both rows, below it
    (and with a tracer armed, or a heavy threshold under one unit) the two
    facts are queued as before."""

    @staticmethod
    def two_facts(ctx, src, dst, record_bytes, kind, phase):
        ctx.comm.exchange_by_vertex(src, dst, record_bytes, phase_kind=phase)
        ctx.charge(kind, dst, None, phase_kind=phase, count_as_relax=True)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from([(1, 1, False, False), (3, 2, False, False),
                               (4, 2, True, False), (5, 3, False, True),
                               (8, 1, True, True)]),
        size=st.integers(ledger.LARGE_FACT + 1, ledger.LARGE_FACT + 3000),
        seed=st.integers(0, 2**32 - 1),
        record_bytes=st.sampled_from([0, 16, 24]),
    )
    def test_fused_rows_equal_fold_exchange_and_fold_charges(
        self, shape, size, seed, record_bytes
    ):
        rng = np.random.default_rng(seed)
        src, dst = rng.integers(0, N, size), rng.integers(0, N, size)
        fused, split = make_ctx(*shape), make_ctx(*shape)
        split.comm.allreduce(1)  # a kind counted first keeps its place
        fused.comm.allreduce(1)
        self.two_facts(split, src, dst, record_bytes, ComputeKind.PULL_RESPONSE, "long")
        routes, route_lanes = [], ledger.route_lanes

        def spy(src, dst, *args):
            routes.append((src, dst))
            return route_lanes(src, dst, *args)

        with pytest.MonkeyPatch.context() as patch:
            # The fused path maps no vertex a second time: no charge fold,
            # no route, only rank-space facts.
            patch.setattr(ledger, "work_grid", None)
            patch.setattr(ledger, "route_lanes", spy)
            fused.comm.exchange_by_vertex(
                src, dst, record_bytes, phase_kind="long",
                deliver=ComputeKind.PULL_RESPONSE,
            )
            assert pending(fused.metrics) == 1  # only the allreduce waits
        assert routes == []
        assert fused.metrics.records == split.metrics.records
        assert list(fused.metrics.relaxations.items()) == list(
            split.metrics.relaxations.items()
        )
        # and the rows are the two folds' own
        m = fused.metrics
        msgs, byt = fold_exchange([(src, dst, record_bytes)], [], m.num_ranks, m.maps)
        work = fold_charges(
            [(dst, None)], m.num_ranks * m.threads_per_rank, m.threads_per_rank, m.maps
        )
        _, exchange, charge = m.records
        assert (exchange.msgs_max, exchange.bytes_max, exchange.bytes_total) == (
            msgs.max(), byt.max(), byt.sum() // 2
        )
        assert (charge.comp_max, charge.comp_total) == (work.max(), work.sum())
        assert m.relaxations["pull_response"] == size

    def test_small_armed_and_sub_unit_heavy_keep_two_facts(self):
        src, dst = np.arange(N), np.arange(N)[::-1].copy()
        kind = ComputeKind.SHORT_RELAX
        ctx = make_ctx(3, 2, False)
        ctx.comm.exchange_by_vertex(src, dst, 16, phase_kind="short", deliver=kind)
        assert pending(ctx.metrics) == 2
        armed = make_ctx(3, 2, False)
        tracer = armed.metrics.tracer = RecordingTracer()
        big_src = np.resize(src, ledger.LARGE_FACT + 1)
        big_dst = np.resize(dst, ledger.LARGE_FACT + 1)
        armed.comm.exchange_by_vertex(big_src, big_dst, 16, phase_kind="short", deliver=kind)
        assert [c[0].kind for c in tracer.calls] == ["exchange", "short_relax"]
        light = make_ctx(3, 2, False)
        light.metrics.maps = light.metrics.maps._replace(heavy_threshold=0.5)
        reference = make_ctx(3, 2, False)
        reference.metrics.maps = light.metrics.maps
        light.comm.exchange_by_vertex(big_src, big_dst, 16, phase_kind="short", deliver=kind)
        self.two_facts(reference, big_src, big_dst, 16, kind, "short")
        assert light.metrics.records == reference.metrics.records
        for ctx in (ctx, armed, light):
            assert [r.kind for r in ctx.metrics.records] == ["exchange", "short_relax"]


# ----------------------------------------------------------------------
# Whole solves
# ----------------------------------------------------------------------
MACHINE = MachineConfig(num_ranks=4, threads_per_rank=4)


@pytest.fixture(scope="module")
def rmat10():
    return rmat_graph(10, seed=3)


@pytest.fixture(scope="module")
def grid24():
    return grid_graph(24, 24, seed=2)


class TestNothingEscapesUnsettled:
    def test_solve_each_root(self, rmat10):
        solver = BatchSolver(rmat10, algorithm="opt", machine=MACHINE)
        for result in [solver.solve(r) for r in (3, 0, 9)]:
            assert pending(result.metrics) == 0
        assert pending(solver._template_ctx.metrics) == 0

    def test_spmd_drivers(self, rmat10):
        _, ctx = spmd_delta_stepping(rmat10, 3, MACHINE, config=preset("opt", 25))
        assert pending(ctx.metrics) == 0 and len(ctx.metrics.records) > 0
        _, ctx = spmd_delta_stepping(rmat10, 3, MACHINE, config=preset("bellman-ford"))
        assert pending(ctx.metrics) == 0

    def test_degraded_solve(self, grid24):
        solver = BatchSolver(grid24, algorithm="opt", machine=MACHINE)
        result = solver.solve(0, deadline=DeadlineConfig.degraded(3))
        assert result.metrics.degraded_to_bf and pending(result.metrics) == 0

    def test_resumed_solve(self, grid24, tmp_path):
        first = solve_sssp(grid24, 0, algorithm="opt", machine=MACHINE,
                           checkpoint_dir=tmp_path)
        files = sorted(glob.glob(str(tmp_path / "*.npz")))
        for stale in files[len(files) // 2 :]:
            os.unlink(stale)
        resumed = solve_sssp(grid24, 0, algorithm="opt", machine=MACHINE,
                             checkpoint_dir=tmp_path, resume=True)
        assert np.array_equal(first.distances, resumed.distances)
        assert pending(first.metrics) == pending(resumed.metrics) == 0

    def test_repair(self, rmat10):
        root = int(np.flatnonzero(rmat10.degrees > 0)[0])
        versioner = GraphVersioner(
            rmat10, machine=MACHINE, config=preset("opt", 25), retention=4
        )
        d = solve_sssp(rmat10, root, algorithm="opt", machine=MACHINE).distances
        rng = np.random.default_rng(5)
        snap, _ = versioner.apply(
            random_update_batch(versioner.current.graph, rng, churn_fraction=0.01)
        )
        ctx = versioner.context_for(snap.snapshot_id)
        result = repair_sssp(ctx, root, d, snap.delta)
        assert not result.fallback and result.steps > 0
        # the drain charges a fork: the caller's (template) ledger stays empty
        assert pending(ctx.metrics) == 0 and ctx.metrics.records == []


class TestTracerArmedSolve:
    @pytest.mark.parametrize("algorithm", ["delta", "opt", "lb-opt"])
    def test_armed_and_unarmed_solves_keep_the_same_ledger(self, rmat10, algorithm):
        plain = solve_sssp(rmat10, 3, algorithm=algorithm, machine=MACHINE)
        armed = solve_sssp(rmat10, 3, algorithm=algorithm, machine=MACHINE,
                           trace=TraceConfig())
        assert armed.metrics.records == plain.metrics.records
        assert armed.metrics.relaxations == plain.metrics.relaxations
        assert armed.cost == plain.cost and armed.gteps == plain.gteps
        events = [e for e in armed.trace.events if e["type"] == "record"]
        assert [e["kind"] for e in events] == [r.kind for r in plain.metrics.records]
        assert [e["sim_dt"] for e in events] == [
            price_record(r, MACHINE) for r in plain.metrics.records
        ]


class TestColumnPricing:
    @pytest.mark.parametrize("algorithm", ["delta", "opt", "lb-opt"])
    @pytest.mark.parametrize("family", ["rmat10", "grid24"])
    def test_evaluate_cost_is_the_sequential_fold_of_price_record(
        self, request, family, algorithm
    ):
        graph = request.getfixturevalue(family)
        result = solve_sssp(graph, 1, algorithm=algorithm, machine=MACHINE)
        compute = comm = sync = bucket = other = 0.0
        for rec in result.metrics.records:
            t = price_record(rec, MACHINE)
            if rec.kind == "exchange":
                comm += t
            elif rec.kind == "allreduce":
                sync += t
            else:
                compute += t
            if rec.phase_kind == "bucket":
                bucket += t
            else:
                other += t
        folded = CostBreakdown(compute, comm, sync, bucket, other)
        assert evaluate_cost(result.metrics, MACHINE) == folded == result.cost
