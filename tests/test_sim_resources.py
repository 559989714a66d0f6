"""Unit and property tests for Resource / Store / PriorityStore."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import PriorityStore, Resource, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_grant_immediately_when_free(self, sim):
        res = Resource(sim, capacity=1)

        def body(sim, res):
            req = res.request()
            yield req
            res.release(req)
            return sim.now

        proc = sim.process(body(sim, res))
        sim.run()
        assert proc.value == 0

    def test_mutual_exclusion(self, sim):
        res = Resource(sim, capacity=1)
        active = []
        max_active = []

        def body(sim, res):
            with res.request() as req:
                yield req
                active.append(1)
                max_active.append(len(active))
                yield sim.timeout(10)
                active.pop()

        for _ in range(5):
            sim.process(body(sim, res))
        sim.run()
        assert max(max_active) == 1
        assert sim.now == 50

    def test_capacity_allows_parallelism(self, sim):
        res = Resource(sim, capacity=3)

        def body(sim, res):
            with res.request() as req:
                yield req
                yield sim.timeout(10)

        for _ in range(6):
            sim.process(body(sim, res))
        sim.run()
        assert sim.now == 20  # two waves of three

    def test_fifo_grant_order(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def body(sim, res, name):
            with res.request() as req:
                yield req
                order.append(name)
                yield sim.timeout(1)

        for name in "abcd":
            sim.process(body(sim, res, name))
        sim.run()
        assert order == list("abcd")

    def test_release_unheld_raises(self, sim):
        res = Resource(sim)
        other = Resource(sim)
        req = other.request()
        with pytest.raises(SimulationError):
            res.release(req)

    def test_cancel_waiting_request(self, sim):
        res = Resource(sim, capacity=1)
        held = res.request()          # granted
        waiting = res.request()       # queued
        res.release(waiting)          # cancel from the queue
        res.release(held)
        assert res.count == 0
        assert not waiting.triggered
        assert res.request().triggered  # nothing left queued ahead

    def test_bad_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_count_and_queue_length(self, sim):
        res = Resource(sim, capacity=2)
        r1, r2, r3 = res.request(), res.request(), res.request()
        assert res.count == 2
        assert not r3.triggered  # queued
        res.release(r1)
        assert res.count == 2  # r3 was promoted
        assert r3.triggered
        res.release(r2)
        res.release(r3)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)

        def consumer(sim, store):
            item = yield store.get()
            return item

        store.put("hello")
        proc = sim.process(consumer(sim, store))
        sim.run()
        assert proc.value == "hello"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def consumer(sim, store):
            item = yield store.get()
            return (item, sim.now)

        def producer(sim, store):
            yield sim.timeout(40)
            yield store.put("late")

        proc = sim.process(consumer(sim, store))
        sim.process(producer(sim, store))
        sim.run()
        assert proc.value == ("late", 40)

    def test_fifo_ordering(self, sim):
        store = Store(sim)
        got = []

        def consumer(sim, store):
            for _ in range(4):
                item = yield store.get()
                got.append(item)

        for i in range(4):
            store.put(i)
        sim.process(consumer(sim, store))
        sim.run()
        assert got == [0, 1, 2, 3]

    def test_bounded_put_blocks(self, sim):
        store = Store(sim, capacity=1)
        timeline = []

        def producer(sim, store):
            yield store.put("a")
            timeline.append(("a-in", sim.now))
            yield store.put("b")
            timeline.append(("b-in", sim.now))

        def consumer(sim, store):
            yield sim.timeout(100)
            yield store.get()

        sim.process(producer(sim, store))
        sim.process(consumer(sim, store))
        sim.run()
        assert timeline == [("a-in", 0), ("b-in", 100)]

    def test_len_reflects_contents(self, sim):
        store = Store(sim)
        assert len(store) == 0
        store.put(1)
        store.put(2)
        assert len(store) == 2

    def test_bad_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Store(sim, capacity=0)

    def test_priority_store_orders_items(self, sim):
        store = PriorityStore(sim)
        got = []

        def consumer(sim, store):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        for item in (5, 1, 3):
            store.put(item)
        sim.process(consumer(sim, store))
        sim.run()
        assert got == [1, 3, 5]


class TestStoreProperties:
    @settings(max_examples=50, deadline=None)
    @given(items=st.lists(st.integers(), min_size=1, max_size=40),
           capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=8)))
    def test_store_delivers_everything_in_order(self, items, capacity):
        sim = Simulator()
        store = Store(sim, capacity=capacity)
        received = []

        def producer(sim, store):
            for item in items:
                yield store.put(item)
                yield sim.timeout(1)

        def consumer(sim, store):
            for _ in items:
                got = yield store.get()
                received.append(got)
                yield sim.timeout(2)

        sim.process(producer(sim, store))
        sim.process(consumer(sim, store))
        sim.run()
        assert received == items

    @settings(max_examples=50, deadline=None)
    @given(durations=st.lists(st.integers(min_value=1, max_value=50),
                              min_size=1, max_size=20),
           capacity=st.integers(min_value=1, max_value=4))
    def test_resource_never_oversubscribed(self, durations, capacity):
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        active = [0]
        peak = [0]

        def body(sim, res, dur):
            with res.request() as req:
                yield req
                active[0] += 1
                peak[0] = max(peak[0], active[0])
                yield sim.timeout(dur)
                active[0] -= 1

        for dur in durations:
            sim.process(body(sim, res, dur))
        sim.run()
        assert peak[0] <= capacity
        assert active[0] == 0
