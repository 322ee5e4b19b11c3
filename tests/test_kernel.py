"""Unit tests for the shared discrete-event simulation kernel."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import SchedulingError
from repro.obs.core import Instrumentation
from repro.sim.kernel import (
    BackgroundComponent,
    EventScheduler,
    ResultBuilder,
    SimClock,
    Simulation,
    TransactionPump,
)


@dataclass(frozen=True)
class Ping:
    cycle: int
    tag: str = ""


class TestEventScheduler:
    def test_orders_by_cycle(self):
        scheduler = EventScheduler()
        scheduler.post(Ping(5, "late"))
        scheduler.post(Ping(2, "early"))
        assert scheduler.next_event_cycle == 2
        assert [e.tag for e in scheduler.pop_due(5)] == ["early", "late"]
        assert scheduler.empty

    def test_same_cycle_preserves_posting_order(self):
        scheduler = EventScheduler()
        for tag in "abc":
            scheduler.post(Ping(3, tag))
        assert [e.tag for e in scheduler.pop_due(3)] == ["a", "b", "c"]

    def test_pop_due_leaves_future_events(self):
        scheduler = EventScheduler()
        scheduler.post(Ping(1))
        scheduler.post(Ping(9))
        assert len(scheduler.pop_due(4)) == 1
        assert len(scheduler) == 1
        assert scheduler.next_event_cycle == 9

    def test_empty_scheduler(self):
        scheduler = EventScheduler()
        assert scheduler.empty
        assert scheduler.next_event_cycle is None
        assert scheduler.pop_due(100) == []


class TestSimClock:
    def test_skip_mode_jumps(self):
        clock = SimClock()
        assert clock.advance(10) == 10
        assert clock.advance(10) == 11  # strictly monotonic

    def test_dense_mode_steps(self):
        clock = SimClock(dense=True)
        assert clock.advance(10) == 1
        assert clock.advance(10) == 2


class _Counter:
    """Ticks every `period` cycles until it has fired `limit` times."""

    def __init__(self, period=1, limit=5):
        self.period = period
        self.limit = limit
        self.fired = 0
        self.visited = []

    def tick(self, cycle):
        if self.fired < self.limit and cycle % self.period == 0:
            self.fired += 1
        self.visited.append(cycle)
        return ()

    @property
    def next_action_cycle(self):
        if self.fired >= self.limit:
            return None
        return self.visited[-1] + self.period if self.visited else 0


class TestSimulation:
    def test_runs_to_done(self):
        counter = _Counter(period=3, limit=4)
        final = Simulation(
            [counter],
            done=lambda sim: counter.fired >= 4,
            max_cycles=100,
        ).run()
        assert counter.fired == 4
        assert final == 9  # fires at 0, 3, 6, 9

    def test_skip_visits_only_interesting_cycles(self):
        counter = _Counter(period=5, limit=3)
        simulation = Simulation(
            [counter],
            done=lambda sim: counter.fired >= 3,
            max_cycles=100,
        )
        assert simulation.run() == simulation.clock.cycle == 10
        assert counter.visited == [0, 5, 10]

    def test_dense_visits_every_cycle(self):
        counter = _Counter(period=5, limit=3)
        simulation = Simulation(
            [counter],
            done=lambda sim: counter.fired >= 3,
            max_cycles=100,
            dense=True,
        )
        assert simulation.run() == simulation.clock.cycle == 10
        assert counter.visited == list(range(11))

    def test_watchdog_raises(self):
        counter = _Counter(period=1, limit=10**9)
        with pytest.raises(SchedulingError) as caught:
            Simulation(
                [counter],
                done=lambda sim: False,
                max_cycles=10,
                label="unit test",
            ).run()
        assert str(caught.value) == (
            "simulation exceeded 10 cycles (unit test)"
        )

    def test_deadlock_detected(self):
        counter = _Counter(limit=1)
        with pytest.raises(SchedulingError) as caught:
            Simulation(
                [counter],
                done=lambda sim: False,
                max_cycles=100,
                label="unit test",
            ).run()
        assert str(caught.value) == (
            "deadlock: every component is blocked and no data is in "
            "flight (unit test)"
        )

    def test_background_component_cannot_mask_deadlock(self):
        class Engine:
            obs = None
            refreshes = 0

            def tick(self, cycle):
                return False

            @property
            def next_action_cycle(self):
                return 1000  # always has a pending action

        counter = _Counter(limit=1)
        with pytest.raises(SchedulingError, match="deadlock"):
            Simulation(
                [BackgroundComponent(Engine()), counter],
                done=lambda sim: False,
                max_cycles=10_000,
            ).run()

    def test_events_deliver_at_due_cycle(self):
        delivered = []

        class Producer:
            sent = False

            def tick(self, cycle):
                if not self.sent:
                    self.sent = True
                    return (Ping(7, "payload"),)
                return ()

            @property
            def next_action_cycle(self):
                return None if self.sent else 0

        producer = Producer()
        simulation = Simulation(
            [producer],
            done=lambda sim: producer.sent and sim.scheduler.empty,
            deliver=lambda event: delivered.append(event),
            max_cycles=100,
        )
        final = simulation.run()
        assert delivered == [Ping(7, "payload")]
        assert final == 7  # skipped straight to the event


class _Probe:
    """Records its ticks; acts only at the cycles in ``due``.

    ``on_tick`` (if set) runs inside each tick, so a test can wake a
    peer from within a component's tick.
    """

    def __init__(self, name, log, due=()):
        self.name = name
        self.log = log
        self.due = list(due)
        self.on_tick = None

    def tick(self, cycle):
        self.log.append((cycle, self.name))
        while self.due and self.due[0] <= cycle:
            self.due.pop(0)
        if self.on_tick is not None:
            self.on_tick(cycle)
        return ()

    @property
    def next_action_cycle(self):
        return self.due[0] if self.due else None


class TestWakeSet:
    """Only due or woken components are ticked, in wiring order."""

    def test_only_due_components_tick(self):
        log = []
        early = _Probe("early", log, due=[3, 9])
        late = _Probe("late", log, due=[6])
        obs = Instrumentation()
        Simulation(
            [early, late],
            done=lambda sim: obs.now >= 9,
            max_cycles=100,
            obs=obs,
        ).run()
        # Both are due at the first visited cycle; after that each
        # ticks only at its own next_action_cycle.
        assert log == [
            (0, "early"), (0, "late"),
            (3, "early"),
            (6, "late"),
            (9, "early"),
        ]

    def test_dense_ticks_every_component_every_cycle(self):
        log = []
        early = _Probe("early", log, due=[2])
        late = _Probe("late", log, due=[1])
        obs = Instrumentation()
        Simulation(
            [early, late],
            done=lambda sim: obs.now >= 2,
            max_cycles=100,
            dense=True,
            obs=obs,
        ).run()
        assert log == [
            (cycle, name)
            for cycle in range(3)
            for name in ("early", "late")
        ]

    def test_waking_a_later_component_ticks_it_in_the_same_cycle(self):
        log = []
        waker = _Probe("waker", log, due=[5, 10])
        sleeper = _Probe("sleeper", log)
        obs = Instrumentation()
        simulation = Simulation(
            [waker, sleeper],
            done=lambda sim: obs.now >= 10,
            max_cycles=100,
            obs=obs,
        )
        waker.on_tick = lambda cycle: (
            simulation.wake(sleeper) if cycle == 5 else None
        )
        simulation.run()
        assert log == [
            (0, "waker"), (0, "sleeper"),
            (5, "waker"), (5, "sleeper"),
            (10, "waker"),
        ]

    def test_waking_an_earlier_component_ticks_it_next_visited_cycle(self):
        log = []
        sleeper = _Probe("sleeper", log)
        waker = _Probe("waker", log, due=[5, 10])
        obs = Instrumentation()
        simulation = Simulation(
            [sleeper, waker],
            done=lambda sim: obs.now >= 10,
            max_cycles=100,
            obs=obs,
        )
        wake = simulation.waker(sleeper)
        waker.on_tick = lambda cycle: wake() if cycle == 5 else None
        simulation.run()
        # The woken component makes the following cycle a visit.
        assert log == [
            (0, "sleeper"), (0, "waker"),
            (5, "waker"),
            (6, "sleeper"),
            (10, "waker"),
        ]

    def test_wiring_order_holds_within_a_cycle(self):
        log = []
        probes = [_Probe(name, log, due=[4]) for name in "cab"]
        obs = Instrumentation()
        simulation = Simulation(
            probes,
            done=lambda sim: obs.now >= 4,
            max_cycles=100,
            obs=obs,
        )
        # Only "c" is due at 4; it wakes "b" then "a", and the ticks
        # still follow the wiring, not the wakes.
        probes[1].due = []
        probes[2].due = []

        def wake_in_reverse(cycle):
            if cycle == 4:
                simulation.wake(probes[2])
                simulation.wake(probes[1])

        probes[0].on_tick = wake_in_reverse
        simulation.run()
        assert log[3:] == [(4, "c"), (4, "a"), (4, "b")]

    def test_event_delivery_can_wake(self):
        log = []
        producer = _Probe("producer", log, due=[0])
        consumer = _Probe("consumer", log)
        simulation = Simulation(
            [producer, consumer],
            done=lambda sim: len(log) >= 3,
            deliver=lambda event: simulation.wake(consumer),
            max_cycles=100,
        )
        producer.on_tick = lambda cycle: (
            simulation.scheduler.post(Ping(7)) if cycle == 0 else None
        )
        assert simulation.run() == 7
        assert log == [
            (0, "producer"), (0, "consumer"), (7, "consumer"),
        ]

    def test_a_blocked_component_is_still_a_deadlock(self):
        log = []
        blocked = _Probe("blocked", log, due=[2])
        with pytest.raises(SchedulingError, match="deadlock"):
            Simulation(
                [blocked],
                done=lambda sim: False,
                max_cycles=100,
            ).run()
        assert log == [(0, "blocked"), (2, "blocked")]

    def test_waker_keeps_no_simulation_alive(self):
        import gc
        import weakref

        log = []
        probe = _Probe("probe", log, due=[1])
        simulation = Simulation(
            [probe], done=lambda sim: not probe.due, max_cycles=100
        )
        probe.wake = simulation.waker(probe)
        simulation.run()
        ref = weakref.ref(simulation)
        gc.disable()
        try:
            del simulation
            assert ref() is None
        finally:
            gc.enable()


class TestTransactionPump:
    def test_resumes_at_each_start(self):
        issued = []

        def steps():
            for start in (0, 4, 4, 20):
                yield start
                issued.append(start)

        pump = TransactionPump(steps())
        visited = []
        obs = Instrumentation()

        def done(sim):
            # Checked once per visited cycle, after the ticks.
            visited.append(obs.now)
            return pump.done

        Simulation([pump], done=done, max_cycles=100, obs=obs).run()
        assert issued == [0, 4, 4, 20]
        # Same-start transactions issue on consecutive visited cycles.
        assert visited == [0, 4, 5, 20]

    def test_done_immediately_for_empty_plan(self):
        pump = TransactionPump(iter(()))
        assert pump.done
        assert pump.next_action_cycle is None


class TestResultBuilder:
    def _builder(self):
        return ResultBuilder(
            kernel="daxpy",
            organization="test-org",
            length=64,
            stride=1,
            fifo_depth=16,
            alignment="staggered",
            policy="unit-test",
        )

    def test_note_first_data_keeps_earliest(self):
        builder = self._builder()
        builder.note_first_data(40)
        builder.note_first_data(10)
        assert builder.first_data == 40

    def test_note_data_end_keeps_latest(self):
        builder = self._builder()
        builder.note_data_end(10)
        builder.note_data_end(5)
        assert builder.last_data_end == 10

    def test_build_assembles_counters(self):
        builder = self._builder()
        builder.note_first_data(12)
        builder.packets_issued = 128
        builder.activations = 3
        result = builder.build(
            cycles=500, useful_bytes=1024, transferred_bytes=2048
        )
        assert result.startup_cycles == 12
        assert result.packets_issued == 128
        assert result.activations == 3
        assert result.cycles == 500
        assert result.kernel == "daxpy"

    def test_build_overrides_win(self):
        builder = self._builder()
        builder.packets_issued = 1
        result = builder.build(
            cycles=1,
            useful_bytes=1,
            transferred_bytes=1,
            packets_issued=99,
            cpu_stall_cycles=7,
        )
        assert result.packets_issued == 99
        assert result.cpu_stall_cycles == 7
