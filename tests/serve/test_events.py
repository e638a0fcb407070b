"""Unit tests for request contexts, wide events, and the event log."""

import json
import threading

import pytest

from repro.obs.request import RequestContext, request_id
from repro.serve.events import (
    HitContext,
    WideEventLog,
    canonical_event,
    canonical_text,
    main as events_main,
    read_events,
)


def _ctx(seq: int = 7, root: int = 3) -> RequestContext:
    return RequestContext(request_id(seq), root, submitted_at=1.5)


class TestRequestContext:
    def test_request_id_format(self):
        assert request_id(0) == "req-000000"
        assert request_id(42) == "req-000042"
        assert request_id(1_000_000) == "req-1000000"

    def test_notes_accumulate(self):
        ctx = _ctx()
        ctx.note_cache("stale_hit")
        ctx.note_dequeue(0.01)
        ctx.note_batch(2)
        ctx.note_attempt(1, "primary", "error", "transient_error")
        ctx.note_attempt(2, "primary", None, "ok")
        ctx.note_degraded("stale_cache", ("solve",))
        assert ctx.cache_tier == "stale_hit"
        assert ctx.queue_waits_s == [0.01]
        assert ctx.batches == [2]
        assert [a["outcome"] for a in ctx.attempts] == ["transient_error", "ok"]
        assert ctx.degraded_tier == "stale_cache"
        assert ctx.breaker_open == ("solve",)

    def test_negative_queue_wait_clamped(self):
        ctx = _ctx()
        ctx.note_dequeue(-1e-9)
        assert ctx.queue_waits_s == [0.0]

    def test_wide_event_shape(self):
        ctx = _ctx()
        ctx.note_attempt(1, "primary", None, "ok")
        ev = ctx.wide_event(
            outcome="ok", source="solve", latency_s=0.25, attempts_total=1
        )
        assert ev["schema"] == 1
        assert ev["request_id"] == "req-000007"
        assert ev["root"] == 3
        assert ev["admission"] == "admitted"
        assert ev["outcome"] == "ok" and ev["source"] == "solve"
        assert ev["timing"]["submitted_at"] == 1.5
        assert ev["timing"]["latency_s"] == 0.25
        # the event must be a self-contained JSON document
        json.dumps(ev)

    def test_shed_event(self):
        ctx = _ctx()
        ctx.note_shed()
        ev = ctx.wide_event(
            outcome="shed", source=None, latency_s=0.0, attempts_total=0
        )
        assert ev["admission"] == "shed"
        assert ev["source"] is None


class TestCanonicalForm:
    def test_timing_stripped(self):
        ev = _ctx().wide_event(
            outcome="ok", source="cache", latency_s=0.1, attempts_total=0
        )
        canon = canonical_event(ev)
        assert "timing" not in canon
        assert canon["request_id"] == ev["request_id"]

    def test_sorted_by_request_id_regardless_of_completion_order(self):
        events = []
        for seq in (2, 0, 1):
            ctx = RequestContext(request_id(seq), root=seq)
            events.append(
                ctx.wide_event(
                    outcome="ok", source="solve",
                    latency_s=float(seq), attempts_total=1,
                )
            )
        text = canonical_text(events)
        ids = [json.loads(line)["request_id"] for line in text.splitlines()]
        assert ids == ["req-000000", "req-000001", "req-000002"]
        # and identical regardless of input order (the replay contract)
        assert canonical_text(reversed(events)) == text

    def test_timing_jitter_does_not_change_canonical_text(self):
        def run(latency):
            ctx = _ctx()
            return ctx.wide_event(
                outcome="ok", source="solve",
                latency_s=latency, attempts_total=1,
            )

        assert canonical_text([run(0.1)]) == canonical_text([run(99.0)])


class TestWideEventLog:
    def test_emit_and_len(self):
        log = WideEventLog()
        assert len(log) == 0
        log.emit({"request_id": "req-000000"})
        assert len(log) == 1 and log.emitted == 1

    def test_capacity_trims_oldest_but_emitted_is_monotone(self):
        log = WideEventLog(capacity=2)
        for seq in range(5):
            log.emit({"request_id": request_id(seq)})
        assert log.emitted == 5
        assert [e["request_id"] for e in log.events()] == [
            "req-000003",
            "req-000004",
        ]

    def test_tail(self):
        # the stream reads oldest first: the newest events are its tail
        log = WideEventLog()
        assert log.events() == []
        for seq in range(4):
            log.emit({"request_id": request_id(seq)})
        assert [e["request_id"] for e in log.events()] == [
            request_id(seq) for seq in range(4)]
        log.emit({"request_id": request_id(4)})
        assert log.events()[-1]["request_id"] == "req-000004"

    def test_write_requires_path(self):
        with pytest.raises(ValueError):
            WideEventLog().write()

    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = WideEventLog(path)
        ev = _ctx().wide_event(
            outcome="ok", source="solve", latency_s=0.1, attempts_total=1
        )
        log.emit(ev)
        assert log.write() == path
        assert read_events(path) == [ev]

    def test_concurrent_emit_loses_nothing(self):
        log = WideEventLog()
        n_threads, per_thread = 8, 200

        def worker(tid):
            for i in range(per_thread):
                log.emit({"request_id": f"t{tid}-{i}"})

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert log.emitted == n_threads * per_thread
        assert len(log) == n_threads * per_thread


class _Context:
    """A request context that counts how often its event is folded."""

    folds = 0

    def __init__(self, seq: int) -> None:
        self.seq = seq

    def wide_event(self, **terminal) -> dict:
        _Context.folds += 1
        return {"request_id": request_id(self.seq)}


def _record(seq: int) -> tuple:
    """The flat record a terminal emits: context, then its arguments."""
    return (_Context(seq), "cache", "cache", 0.0, 1, False, False)


class TestFoldOnRead:
    """``emit`` stores a record; a read folds it into its dict, once."""

    @pytest.fixture(autouse=True)
    def _zero(self):
        _Context.folds = 0

    def test_records_and_dicts_read_alike(self):
        log = WideEventLog()
        log.emit(_record(0))
        log.emit({"request_id": request_id(1)})
        assert _Context.folds == 0  # emitting builds nothing
        assert [e["request_id"] for e in log.events()] == [
            "req-000000", "req-000001"]
        assert log.canonical_text() == canonical_text(log.events())

    def test_two_reads_fold_each_record_once(self):
        log = WideEventLog()
        for seq in range(5):
            log.emit(_record(seq))
        first = log.events()
        assert _Context.folds == 5
        assert log.events() == first and log.canonical_text()
        assert _Context.folds == 5
        assert log.events()[0] is first[0]  # the memoised dict itself

    def test_tail_folds_at_most_n(self):
        # a read after more emits folds only the records emitted since
        log = WideEventLog()
        for seq in range(100):
            log.emit(_record(seq))
        assert len(log.events()) == 100 and _Context.folds == 100
        log.emit(_record(100))
        log.emit(_record(101))
        assert [e["request_id"] for e in log.events()][-2:] == [
            "req-000100", "req-000101"]
        assert _Context.folds == 102

    def test_capacity_trims_one_per_emit_and_never_folds_the_trimmed(self):
        log = WideEventLog(capacity=3)
        for seq in range(1000):
            log.emit(_record(seq))
            assert len(log) == min(seq + 1, 3)
        assert log.emitted == 1000 and _Context.folds == 0
        assert [e["request_id"] for e in log.events()] == [
            "req-000997", "req-000998", "req-000999"]
        assert _Context.folds == 3

    def test_a_hits_flat_record_folds_as_its_context_would(self):
        hit = HitContext(request_id(7), 3, 0, 1.5, "stale_cache", ("solve",))
        log = WideEventLog()
        log.emit(hit + ("cache", "cache", 2e-05, 1, True, False))
        assert log.events() == [hit.wide_event(
            outcome="cache", source="cache", latency_s=2e-05,
            attempts_total=1, stale_ok=True, degraded=False)]
        assert log.events()[0]["cache_tier"] == "stale_hit"

    def test_write_folds_records(self, tmp_path):
        log = WideEventLog(str(tmp_path / "events.jsonl"))
        log.emit(_record(4))
        assert read_events(log.write()) == [{"request_id": "req-000004"}]


class TestEventsCli:
    def _write_stream(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = WideEventLog(path)
        for seq in (1, 0):
            ctx = RequestContext(request_id(seq), root=seq)
            ctx.note_attempt(1, "primary", "error" if seq else None, "ok")
            log.emit(
                ctx.wide_event(
                    outcome="ok", source="solve",
                    latency_s=0.1 * (seq + 1), attempts_total=1,
                )
            )
        log.write()
        return path

    def test_canonical_mode_matches_library(self, tmp_path, capsys):
        path = self._write_stream(tmp_path)
        assert events_main([path, "--canonical"]) == 0
        out = capsys.readouterr().out
        assert out == canonical_text(read_events(path))

    def test_summary_mode(self, tmp_path, capsys):
        path = self._write_stream(tmp_path)
        assert events_main([path]) == 0
        out = capsys.readouterr().out
        assert "2 wide events" in out
        assert "req-000001" in out and "outcome=ok" in out
