"""Pinned bit-identity regression for the open-loop traffic path.

``tests/data/pinned_traffic_paths.json`` holds, for every point of a
grid over address mapping x channel count x scheduler (plus one
regulated run, one telemetry-window run, a doubled-bank run and a
``dream`` run whose remaps fall between the two packets of a line),
the full :meth:`TrafficResult.to_dict` and the state of the latency
histogram and of every per-component attribution histogram.  It also
pins the first draws of :func:`_client_hot_set` for two seeds.

Any drift in any field is a behavioral change of the request path
(address decomposition, scheduling, device issue, attribution), not
noise.  Regenerate only for an intended semantic change, with::

    PYTHONPATH=src python tests/test_pinned_traffic.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.memsys.address import get_address_mapping
from repro.memsys.config import MemorySystemConfig
from repro.obs.metrics import MetricsRegistry, metrics_records
from repro.rdram.device import RdramGeometry
from repro.traffic import driver as traffic_driver
from repro.traffic import (
    COMPONENTS,
    BankBudgetRegulator,
    TrafficWorkload,
    run_traffic,
)
from repro.traffic.workload import _client_hot_set

FIXTURE = Path(__file__).parent / "data" / "pinned_traffic_paths.json"

WORKLOAD = TrafficWorkload(
    clients=64, requests=256, write_fraction=0.25, seed=5
)

MAPPINGS = {
    "cli": MemorySystemConfig.cli(),
    "pi": MemorySystemConfig.pi(),
    "swizzle": MemorySystemConfig.pi(interleaving="swizzle"),
    "dream": MemorySystemConfig.pi(interleaving="dream"),
}
CHANNELS = (1, 2, 4)
SCHEDULERS = ("fcfs", "frfcfs", "mars")

#: Hot-set draws pinned per seed: (seed, client, hot_lines, total_lines).
HOT_SET_DRAWS = ((1, 3, 64, 262_144), (7919, 41, 64, 524_288))


def _grid_runs() -> Dict[str, dict]:
    runs = {}
    for mapping, config in MAPPINGS.items():
        for channels in CHANNELS:
            for scheduler in SCHEDULERS:
                runs[f"{mapping}/{channels}ch/{scheduler}"] = dict(
                    config=config,
                    channels=channels,
                    scheduler=scheduler,
                )
    return runs


def _extra_runs() -> Dict[str, dict]:
    return {
        "regulated/pi/2ch/frfcfs": dict(
            config=MemorySystemConfig.pi(),
            channels=2,
            scheduler="frfcfs",
            # (window_cycles, budget_bytes); regulators carry deferral
            # state, so each capture builds its own.
            regulator=(512, 64),
        ),
        "telemetry/cli/2ch/mars": dict(
            config=MemorySystemConfig.cli(),
            channels=2,
            scheduler="mars",
            telemetry_window=256,
        ),
        "doubled/pi/1ch/frfcfs": dict(
            config=MemorySystemConfig.pi(
                geometry=RdramGeometry(num_banks=16, doubled_banks=True)
            ),
            scheduler="frfcfs",
        ),
        # An odd epoch on a two-packet line: every third issued packet
        # closes an epoch, so remaps land between the two packets of a
        # line.  A memo of both packets' locations taken before the
        # first packet issues would place the second one wrongly.
        "dream-split/2ch/mars": dict(
            config=MemorySystemConfig.pi(
                interleaving="dream", remap_epoch_accesses=3
            ),
            channels=2,
            scheduler="mars",
        ),
        "dream-split/1ch/fcfs": dict(
            config=MemorySystemConfig.pi(
                interleaving="dream", remap_epoch_accesses=3
            ),
            scheduler="fcfs",
        ),
    }


RUNS = {**_grid_runs(), **_extra_runs()}


def capture(name: str) -> dict:
    """One pinned record: the result plus its histogram states."""
    kwargs = dict(RUNS[name])
    if "regulator" in kwargs:
        kwargs["regulator"] = BankBudgetRegulator(*kwargs["regulator"])
    registry = MetricsRegistry()
    result = run_traffic(
        workload=WORKLOAD,
        refresh=True,
        registry=registry,
        **kwargs,
    )
    histograms = {
        "latency": registry.find("traffic.latency_cycles")[0].state()
    }
    for metric in registry.find("traffic.latency_component_cycles"):
        histograms[dict(metric.labels)["component"]] = metric.state()
    record = {"result": result.to_dict(), "histograms": histograms}
    if kwargs.get("telemetry_window"):
        record["series"] = [
            r for r in metrics_records(registry) if r["type"] == "series"
        ]
    # Round-trip through JSON so tuples compare as the fixture's lists.
    return json.loads(json.dumps(record))


def capture_hot_sets() -> dict:
    return {
        ":".join(map(str, args)): list(_client_hot_set(*args))
        for args in HOT_SET_DRAWS
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_run(pinned):
    assert sorted(pinned["runs"]) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_traffic_run_bit_identical(pinned, name):
    got = capture(name)
    want = pinned["runs"][name]
    assert got == want
    assert set(got["histograms"]) == {"latency", *COMPONENTS}


@pytest.mark.parametrize(
    "name", ["dream-split/2ch/mars", "dream-split/1ch/fcfs"]
)
def test_dream_split_epoch_remaps_mid_line(pinned, monkeypatch, name):
    # The split-epoch runs guard the no-memo rule for stateful
    # mappings only if a remap really falls between the two packets
    # of one line: spy on the run's mapping and find such a remap.
    remaps = []

    def spying_mapping(config):
        mapping = get_address_mapping(config)
        observe = mapping.observe_access

        def spy(bank, row, now):
            events = observe(bank, row, now)
            remaps.append(events)
            return events

        mapping.observe_access = spy
        return mapping

    monkeypatch.setattr(traffic_driver, "get_address_mapping", spying_mapping)
    got = capture(name)
    assert len(remaps) == 2 * WORKLOAD.requests
    # Packets of a line issue back to back, so an even index is the
    # first packet of its line: a remap there moves the second one.
    assert any(events for events in remaps[0::2])
    assert got == pinned["runs"][name]


def test_client_hot_set_draws_pinned(pinned):
    assert capture_hot_sets() == pinned["hot_sets"]


if __name__ == "__main__":
    data = {
        "runs": {name: capture(name) for name in sorted(RUNS)},
        "hot_sets": capture_hot_sets(),
    }
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(data['runs'])} runs to {FIXTURE}\n")
