"""Unit tests for the shared discrete-event simulation kernel."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import SchedulingError
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


class TestTransactionPump:
    def test_resumes_at_each_start(self):
        issued = []

        def steps():
            for start in (0, 4, 4, 20):
                yield start
                issued.append(start)

        pump = TransactionPump(steps())
        visited = []

        class Recorder:
            def tick(self, cycle):
                visited.append(cycle)
                return ()

            next_action_cycle = None

        Simulation(
            [Recorder(), pump],
            done=lambda sim: pump.done,
            max_cycles=100,
        ).run()
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
