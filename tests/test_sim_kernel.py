"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.units import usec


@pytest.fixture
def sim():
    return Simulator()


class TestTimeout:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_timeout_advances_time(self, sim):
        def body(sim):
            yield sim.timeout(100)

        sim.process(body(sim))
        sim.run()
        assert sim.now == 100

    def test_timeout_carries_value(self, sim):
        def body(sim):
            got = yield sim.timeout(5, value="payload")
            return got

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == "payload"

    def test_zero_delay_timeout_is_legal(self, sim):
        def body(sim):
            yield sim.timeout(0)
            return sim.now

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == 0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_sequential_timeouts_accumulate(self, sim):
        def body(sim):
            yield sim.timeout(10)
            yield sim.timeout(20)
            yield sim.timeout(30)

        sim.process(body(sim))
        sim.run()
        assert sim.now == 60


class TestProcess:
    def test_return_value_becomes_event_value(self, sim):
        def body(sim):
            yield sim.timeout(1)
            return 42

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == 42

    def test_process_is_alive_until_done(self, sim):
        def body(sim):
            yield sim.timeout(10)

        proc = sim.process(body(sim))
        assert not proc.triggered
        sim.run()
        assert proc.triggered

    def test_process_can_wait_on_process(self, sim):
        def child(sim):
            yield sim.timeout(7)
            return "child-result"

        def parent(sim):
            result = yield sim.process(child(sim))
            return result

        proc = sim.process(parent(sim))
        sim.run()
        assert proc.value == "child-result"
        assert sim.now == 7

    def test_waiting_on_finished_process_resumes_immediately(self, sim):
        def child(sim):
            yield sim.timeout(3)
            return "early"

        def parent(sim, childproc):
            yield sim.timeout(10)
            result = yield childproc
            return (result, sim.now)

        childproc = sim.process(child(sim))
        proc = sim.process(parent(sim, childproc))
        sim.run()
        assert proc.value == ("early", 10)

    def test_exception_in_process_fails_its_event(self, sim):
        def body(sim):
            yield sim.timeout(1)
            raise ValueError("boom")

        proc = sim.process(body(sim))
        sim.run()
        assert proc.triggered and not proc.ok
        with pytest.raises(ValueError, match="boom"):
            _ = proc.value

    def test_failure_propagates_into_waiter(self, sim):
        def child(sim):
            yield sim.timeout(1)
            raise RuntimeError("child died")

        def parent(sim):
            try:
                yield sim.process(child(sim))
            except RuntimeError as exc:
                return f"caught: {exc}"
            return "not caught"

        proc = sim.process(parent(sim))
        sim.run()
        assert proc.value == "caught: child died"

    def test_yielding_non_event_raises_in_process(self, sim):
        def body(sim):
            try:
                yield "not an event"
            except SimulationError:
                return "rejected"

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == "rejected"

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_many_concurrent_processes_all_finish(self, sim):
        done = []

        def body(sim, i):
            yield sim.timeout(i)
            done.append(i)

        for i in range(100):
            sim.process(body(sim, i))
        sim.run()
        assert done == sorted(done)
        assert len(done) == 100


class TestEvent:
    def test_manual_succeed(self, sim):
        ev = sim.event()

        def waiter(sim, ev):
            value = yield ev
            return value

        proc = sim.process(waiter(sim, ev))

        def trigger(sim, ev):
            yield sim.timeout(50)
            ev.succeed("signal")

        sim.process(trigger(sim, ev))
        sim.run()
        assert proc.value == "signal"
        assert sim.now == 50

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_same_tick_fifo_order(self, sim):
        order = []

        def body(sim, name):
            yield sim.timeout(10)
            order.append(name)

        for name in ("a", "b", "c", "d"):
            sim.process(body(sim, name))
        sim.run()
        assert order == ["a", "b", "c", "d"]


class TestConditions:
    def test_all_of_waits_for_slowest(self, sim):
        def body(sim):
            t1 = sim.timeout(10, value="x")
            t2 = sim.timeout(30, value="y")
            results = yield sim.all_of([t1, t2])
            return (sim.now, sorted(results.values()))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == (30, ["x", "y"])

    def test_any_of_returns_on_fastest(self, sim):
        def body(sim):
            t1 = sim.timeout(10, value="fast")
            t2 = sim.timeout(30, value="slow")
            results = yield sim.any_of([t1, t2])
            return (sim.now, list(results.values()))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == (10, ["fast"])

    def test_all_of_empty_triggers_immediately(self, sim):
        def body(sim):
            yield sim.all_of([])
            return sim.now

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == 0

    def test_all_of_propagates_failure(self, sim):
        def failing(sim):
            yield sim.timeout(5)
            raise ValueError("inner")

        def body(sim):
            try:
                yield sim.all_of([sim.timeout(100), sim.process(failing(sim))])
            except ValueError:
                return "failed"

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == "failed"


class TestRun:
    def test_run_until_time_stops_exactly(self, sim):
        def body(sim):
            while True:
                yield sim.timeout(10)

        sim.process(body(sim))
        sim.run(until=usec(1))
        assert sim.now == usec(1)

    def test_run_until_event_returns_value(self, sim):
        def body(sim):
            yield sim.timeout(25)
            return "finished"

        proc = sim.process(body(sim))
        assert sim.run(until=proc) == "finished"
        assert sim.now == 25

    def test_run_until_event_deadlock_detected(self, sim):
        ev = sim.event()  # nobody will ever trigger this
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until=ev)

    def test_run_until_past_rejected(self, sim):
        sim.process(iter_timeout(sim, 100))
        sim.run(until=100)
        with pytest.raises(SimulationError):
            sim.run(until=50)

    def test_step_on_empty_queue_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_determinism_two_runs_identical(self):
        def trace_run():
            sim = Simulator()
            trace = []

            def body(sim, name, delay):
                for _ in range(5):
                    yield sim.timeout(delay)
                    trace.append((sim.now, name))

            for i, name in enumerate("abcde"):
                sim.process(body(sim, name, 7 + i))
            sim.run()
            return trace

        assert trace_run() == trace_run()


def iter_timeout(sim, delay):
    yield sim.timeout(delay)
