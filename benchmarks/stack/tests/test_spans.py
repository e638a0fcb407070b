import types

from benchmarks.stack.spans import Recorder, Span, self_times


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span(0, None, "solve", "core", 0, 0.0, 10.0),
        Span(1, 0, "context_build", "core", 0, 1.0, 3.0),
        Span(2, 0, "engine_run", "core", 0, 2.0, 7.0),       # overlaps span 1
        Span(3, 2, "comm", "runtime", 0, 4.0, 5.0),
        Span(4, 0, "evaluate_cost", "runtime", 0, 9.0, 12.0),  # sticks out
    ]
    selfs = self_times(spans)
    assert selfs[0] == 10.0 - (6.0 + 1.0)   # [1,7] and [9,10]
    assert selfs[2] == 5.0 - 1.0
    assert selfs[1] == 2.0 and selfs[3] == 1.0 and selfs[4] == 3.0


def test_recorder_nests_per_thread_and_inherits_the_op_id():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    with recorder.span("op", "bench", op_id=7) as op:
        with recorder.span("solve", "core") as solve:
            pass
    assert solve.parent == op.id and solve.op_id == 7
    assert (op.start, solve.start, solve.end, op.end) == (0.0, 1.0, 2.0, 3.0)


def test_wrap_records_a_span_per_call_and_restore_puts_originals_back():
    class Engine:
        def run(self, x):
            return x + 1

    module = types.SimpleNamespace(helper=lambda x: x * 2)
    engine = Engine()
    recorder = Recorder()
    captured = []
    recorder.wrap(Engine, "run", "engine_run", "core", capture=captured)
    recorder.wrap(module, "helper", "helper", "core")
    recorder.wrap(engine, "run", "instance_run", "core")
    assert engine.run(1) == 2 and module.helper(3) == 6
    assert [s.name for s in recorder.spans] == ["engine_run", "instance_run", "helper"]
    assert recorder.spans[0].parent == recorder.spans[1].id
    assert captured == [2]
    recorder.restore()
    assert "run" not in vars(engine) and Engine().run(1) == 2
    assert module.helper(3) == 6 and len(recorder.spans) == 3
