"""Tests for how observation is wired into the memory models.

``BankedMemory.obs`` points the device's DATA-bus gap list at the
attached instrumentation (or turns gap recording off when detached),
and the fabric propagates the same wiring to every channel.  Traffic
runs give each channel memory a bare gap list that its server drains
request by request, so nothing but gaps and refresh spans is recorded.
An instrumented closed-loop run, captured as a fixture, pins the
counters, bank spans and gaps the device records.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import Instrumentation, RunSpec, simulate
from repro.cpu.kernels import get_kernel
from repro.memsys.config import MemorySystemConfig
from repro.naturalorder.controller import NaturalOrderController
from repro.rdram.device import RdramDevice
from repro.rdram.fabric import MemoryFabric
from repro.rdram.packets import BusDirection
from repro.traffic import (
    BankBudgetRegulator,
    TrafficWorkload,
    run_traffic,
)
from repro.traffic import driver as traffic_driver

FIXTURE = Path(__file__).parent / "data" / "instrumented_daxpy_pi.json"


def _first_access(memory) -> None:
    """One cold access: its DATA packet leaves the bus idle before it."""
    memory.issue_access(0, 0, 0, 0, BusDirection.READ)


class TestDeviceWiring:
    def test_detached_device_records_no_gaps(self):
        device = RdramDevice()
        assert device.obs is None and device.gaps is None
        _first_access(device)
        assert device.gaps is None

    def test_attaching_obs_routes_gaps_into_obs(self):
        device = RdramDevice()
        obs = Instrumentation()
        device.obs = obs
        assert device.obs is obs
        assert device.gaps is obs.gaps
        _first_access(device)
        assert len(obs.gaps) == 1
        assert obs.gaps[0].start == 0 and obs.gaps[0].end > 0
        assert obs.counters.get("device.data_packets") == 1

    def test_detaching_obs_stops_gap_recording(self):
        device = RdramDevice()
        obs = Instrumentation()
        device.obs = obs
        _first_access(device)
        device.obs = None
        assert device.gaps is None
        device.reset()
        _first_access(device)
        assert len(obs.gaps) == 1
        assert obs.counters.get("device.data_packets") == 1

    def test_bare_gap_list_records_gaps_only(self):
        device = RdramDevice()
        device.gaps = []
        _first_access(device)
        assert device.obs is None
        assert len(device.gaps) == 1

    def test_natural_order_controller_detaches_after_run(self):
        controller = NaturalOrderController(MemorySystemConfig.pi())
        obs = Instrumentation()
        controller.run(get_kernel("daxpy"), 64, obs=obs)
        assert obs.gaps
        assert controller.device.obs is None
        assert controller.device.gaps is None

    def test_fabric_setter_propagates_wiring(self):
        fabric = MemoryFabric(channels=2, record_trace=False)
        obs = Instrumentation()
        fabric.obs = obs
        for memory in fabric.channel_memories:
            assert memory.obs is obs
            assert memory.gaps is obs.gaps
        fabric.obs = None
        for memory in fabric.channel_memories:
            assert memory.obs is None
            assert memory.gaps is None


class TestTrafficWiring:
    @pytest.fixture
    def captured(self, monkeypatch):
        """The memory and refresh engines one run_traffic call builds."""
        built = {"memories": [], "engines": []}
        make_memory = traffic_driver.make_memory
        refresh_engine = traffic_driver.RefreshEngine

        def capture_memory(**kwargs):
            memory = make_memory(**kwargs)
            built["memories"].append(memory)
            return memory

        def capture_engine(*args, **kwargs):
            engine = refresh_engine(*args, **kwargs)
            built["engines"].append(engine)
            return engine

        monkeypatch.setattr(traffic_driver, "make_memory", capture_memory)
        monkeypatch.setattr(traffic_driver, "RefreshEngine", capture_engine)
        return built

    def test_channel_memories_keep_only_drained_gap_lists(self, captured):
        result = run_traffic(
            workload=TrafficWorkload(clients=32, requests=300, seed=4),
            channels=2,
            refresh=2048,
        )
        assert result.refreshes > 0
        assert sum(result.component_cycles.values()) > 0
        (fabric,) = captured["memories"]
        assert fabric.obs is None
        assert len(fabric.channel_memories) == 2
        for memory in fabric.channel_memories:
            assert memory.obs is None
            assert memory.gaps == []
        assert len(captured["engines"]) == 2
        for engine in captured["engines"]:
            obs = engine.obs
            assert obs is not None and obs.gaps == []
            assert obs.tracer.spans
            assert set(obs.tracer.tracks()) == {"refresh"}
            assert all(
                name.startswith("refresh.") for name in obs.counters.counters
            )

    def test_refresh_off_run_attributes_without_instrumentation(self, captured):
        result = run_traffic(
            workload=TrafficWorkload(clients=32, requests=200, seed=4)
        )
        assert captured["engines"] == []
        (memory,) = captured["memories"]
        assert memory.obs is None and memory.gaps == []
        assert result.component_cycles["refresh_blocked"] == 0
        assert sum(result.component_cycles.values()) > 0


class TestRegulatorReuse:
    def test_reused_regulator_matches_fresh_regulator(self):
        workload = TrafficWorkload(clients=8, requests=512, seed=3)

        def regulator():
            return BankBudgetRegulator(window_cycles=256, budget_bytes=64)

        fresh = run_traffic(workload=workload, regulator=regulator())
        assert fresh.deferrals > 0
        shared = regulator()
        first = run_traffic(workload=workload, regulator=shared)
        second = run_traffic(workload=workload, regulator=shared)
        assert first.to_dict() == fresh.to_dict()
        assert second.to_dict() == fresh.to_dict()


class TestInstrumentedRunPinned:
    """Device counters, bank spans and gaps of a pinned SMC run."""

    def test_daxpy_pi_observation_is_unchanged(self):
        pinned = json.loads(FIXTURE.read_text())
        spec = pinned["spec"]
        obs = Instrumentation()
        result = simulate(
            RunSpec(spec["kernel"], spec["organization"], length=spec["length"]),
            obs=obs,
        )
        assert result.cycles == pinned["cycles"]
        assert obs.counters.counters == pinned["counters"]
        bank_spans = [
            [span.track, span.name, span.start, span.end,
             [list(arg) for arg in span.args]]
            for span in obs.tracer.spans
            if span.track.startswith("bank")
        ]
        assert bank_spans == pinned["bank_spans"]
        assert [list(gap) for gap in obs.gaps] == pinned["gaps"]
