"""Tests for the open-loop multi-client traffic layer.

Covers workload validation and seeded determinism (identical latency
histograms across repeated runs), Zipf hot-set skew concentrating
bank traffic, the per-client bank-budget regulator enforcing its
rate bound, and a four-channel run reporting latency percentiles and
balanced per-channel bandwidth shares.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.memsys.address import get_address_mapping
from repro.memsys.config import MemorySystemConfig, MemoryTopology
from repro.obs.metrics import MetricsRegistry
from repro.traffic.driver import LATENCY_BUCKETS
from repro.traffic import (
    COMPONENTS,
    BankBudgetRegulator,
    TrafficResult,
    TrafficWorkload,
    generate_requests,
    run_traffic,
)

#: Small populations keep each simulated run under a second.
SMALL = TrafficWorkload(clients=64, requests=200, seed=9)

HOT = TrafficWorkload(
    clients=8,
    requests=400,
    mean_gap=1.0,
    zipf_s=2.5,
    hot_lines=2,
    hot_fraction=1.0,
    seed=5,
)


class TestWorkloadValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("clients", 0),
            ("requests", 0),
            ("mean_gap", 0.0),
            ("zipf_s", -1.0),
            ("hot_lines", 0),
            ("hot_fraction", 1.5),
            ("write_fraction", -0.1),
        ],
    )
    def test_rejects_bad_parameters(self, field, value):
        with pytest.raises(ConfigurationError):
            TrafficWorkload(**{field: value})


class TestRequestGeneration:
    def test_deterministic_per_seed(self, cli_config):
        mapping = get_address_mapping(cli_config)
        first = generate_requests(SMALL, mapping)
        second = generate_requests(SMALL, mapping)
        assert first == second

    def test_different_seeds_differ(self, cli_config):
        mapping = get_address_mapping(cli_config)
        a = generate_requests(SMALL, mapping)
        b = generate_requests(
            TrafficWorkload(clients=64, requests=200, seed=10), mapping
        )
        assert a != b

    def test_arrivals_sorted_and_addresses_in_range(self, cli_config):
        mapping = get_address_mapping(cli_config)
        requests = generate_requests(SMALL, mapping)
        assert len(requests) == SMALL.requests
        arrivals = [request.arrival for request in requests]
        assert arrivals == sorted(arrivals)
        line = cli_config.cacheline_bytes
        for request in requests:
            assert 0 <= request.address < mapping.capacity_bytes
            assert request.address % line == 0

    def test_write_fraction_zero_is_all_reads(self, cli_config):
        from repro.rdram.packets import BusDirection

        mapping = get_address_mapping(cli_config)
        requests = generate_requests(
            TrafficWorkload(
                clients=8, requests=100, write_fraction=0.0, seed=2
            ),
            mapping,
        )
        assert all(r.direction is BusDirection.READ for r in requests)

    @pytest.mark.parametrize(
        "total_lines",
        [1, 2, 3, 100, 2**18, 2**18 + 1, 2**32 - 1, 2**32, 2**40],
    )
    @pytest.mark.parametrize("hot_lines", [0, 1, 64, 300])
    def test_hot_set_is_the_randrange_stream(self, total_lines, hot_lines):
        # The bulk draw must be exactly hot_lines randrange() calls on
        # the client's private generator, rejections included.
        import random

        from repro.traffic.workload import _client_hot_set

        for seed, client in ((1, 0), (7, 63)):
            rng = random.Random(seed * 1_000_003 + client * 7_919 + 17)
            want = tuple(rng.randrange(total_lines) for _ in range(hot_lines))
            got = _client_hot_set(seed, client, hot_lines, total_lines)
            assert got == want

    def test_hot_set_of_an_empty_range_raises(self):
        from repro.traffic.workload import _client_hot_set

        with pytest.raises(ValueError):
            _client_hot_set(1, 0, 4, 0)


class TestSeededDeterminism:
    def test_identical_latency_histograms(self):
        registries = [MetricsRegistry(), MetricsRegistry()]
        results = [
            run_traffic(workload=SMALL, channels=2, registry=registry)
            for registry in registries
        ]
        histograms = [
            registry.histogram("traffic.latency_cycles", LATENCY_BUCKETS)
            for registry in registries
        ]
        assert histograms[0].count == SMALL.requests
        assert histograms[0].bucket_counts == histograms[1].bucket_counts
        assert results[0].p50_latency == results[1].p50_latency
        assert results[0].p99_latency == results[1].p99_latency
        assert results[0].channel_bytes == results[1].channel_bytes
        assert results[0].bank_bytes == results[1].bank_bytes


class TestZipfSkew:
    def test_hot_sets_concentrate_bank_traffic(self):
        skewed = run_traffic(
            workload=TrafficWorkload(
                clients=4,
                requests=400,
                zipf_s=2.0,
                hot_lines=8,
                hot_fraction=1.0,
                seed=3,
            )
        )
        uniform = run_traffic(
            workload=TrafficWorkload(
                clients=4,
                requests=400,
                zipf_s=0.0,
                hot_fraction=0.0,
                seed=3,
            )
        )
        top_skewed = max(
            skewed.bank_share(bank) for bank in skewed.bank_bytes
        )
        top_uniform = max(
            uniform.bank_share(bank) for bank in uniform.bank_bytes
        )
        assert top_skewed > top_uniform


class TestRegulator:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BankBudgetRegulator(window_cycles=0)
        with pytest.raises(ConfigurationError):
            BankBudgetRegulator(budget_bytes=0)

    def test_budget_below_cacheline_rejected(self):
        with pytest.raises(ConfigurationError):
            run_traffic(
                workload=HOT,
                regulator=BankBudgetRegulator(
                    window_cycles=512, budget_bytes=16
                ),
            )

    def test_bounds_hot_client_bank_rate(self):
        free = run_traffic(workload=HOT)
        regulator = BankBudgetRegulator(window_cycles=512, budget_bytes=32)
        capped = run_traffic(workload=HOT, regulator=regulator)
        bound = regulator.budget_bytes / regulator.window_cycles
        # Slack covers the fractional final window.
        assert capped.max_client_bank_rate <= bound * 1.1
        assert capped.max_client_bank_rate < free.max_client_bank_rate
        assert capped.deferrals > 0
        # Regulation defers, never drops: all traffic is still served.
        assert capped.total_bytes == free.total_bytes
        assert capped.cycles > free.cycles

    def test_unregulated_run_reports_no_deferrals(self):
        result = run_traffic(workload=SMALL)
        assert not result.regulated and result.deferrals == 0


class TestFourChannelRun:
    def test_percentiles_and_shares(self):
        result = run_traffic(
            workload=TrafficWorkload(clients=128, requests=400, seed=11),
            channels=4,
        )
        assert result.channels == 4
        assert 0 < result.p50_latency <= result.p90_latency
        assert result.p90_latency <= result.p99_latency
        assert len(result.channel_bytes) == 4
        assert sum(result.channel_shares) == pytest.approx(1.0)
        # Channel striping keeps the load roughly balanced.
        assert max(result.channel_shares) < 2 * min(result.channel_shares)
        assert result.total_bytes == sum(result.bank_bytes.values())
        assert result.total_bytes == sum(result.client_bytes.values())

    def test_more_channels_cut_latency(self):
        workload = TrafficWorkload(
            clients=128, requests=400, mean_gap=2.0, seed=11
        )
        single = run_traffic(workload=workload, channels=1)
        quad = run_traffic(workload=workload, channels=4)
        assert quad.p50_latency < single.p50_latency
        assert quad.cycles < single.cycles


class TestTopologyArguments:
    def test_config_and_arguments_conflict(self):
        config = MemorySystemConfig.cli(
            topology=MemoryTopology(channels=2)
        )
        with pytest.raises(ConfigurationError):
            run_traffic(config=config, workload=SMALL, channels=4)

    def test_config_topology_accepted_directly(self):
        config = MemorySystemConfig.cli(
            topology=MemoryTopology(channels=2)
        )
        result = run_traffic(config=config, workload=SMALL)
        assert result.channels == 2

    def test_summary_mentions_shares(self):
        result = run_traffic(workload=SMALL, channels=2)
        assert "p50=" in result.summary()
        assert "channel shares" in result.summary()
        assert "util" in result.summary()


class TestLatencyAttribution:
    """Per-request latency decomposition and its exactness invariant."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"channels": 2},
            {"channels": 2, "refresh": True},
            {
                "regulator": BankBudgetRegulator(
                    window_cycles=512, budget_bytes=32
                )
            },
        ],
    )
    def test_components_sum_to_total_latency(self, kwargs):
        registry = MetricsRegistry()
        workload = HOT if "regulator" in kwargs else SMALL
        result = run_traffic(
            workload=workload, registry=registry, **kwargs
        )
        assert set(result.component_cycles) == set(COMPONENTS)
        latency = registry.histogram(
            "traffic.latency_cycles", LATENCY_BUCKETS
        )
        # The closure invariant, checked per request inside the
        # driver, must also hold in aggregate.
        assert sum(result.component_cycles.values()) == int(latency.sum)
        for name in COMPONENTS:
            component = registry.histogram(
                "traffic.latency_component_cycles",
                LATENCY_BUCKETS,
                component=name,
            )
            assert component.count == result.requests

    def test_component_shares_and_means(self):
        result = run_traffic(workload=SMALL)
        shares = result.component_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        means = result.mean_component_cycles()
        assert sum(means.values()) * result.requests == pytest.approx(
            sum(result.component_cycles.values())
        )
        assert means["transfer"] > 0

    def test_refresh_shows_up_as_refresh_blocked(self):
        # An aggressive refresh cadence must steal cycles that the
        # attribution pins on refresh_blocked, nowhere else.
        quiet = run_traffic(workload=SMALL)
        noisy = run_traffic(workload=SMALL, refresh=200)
        assert quiet.refreshes == 0
        assert noisy.refreshes > 0
        assert quiet.component_cycles["refresh_blocked"] == 0
        assert noisy.component_cycles["refresh_blocked"] > 0

    def test_channel_utilization_reported(self):
        result = run_traffic(workload=SMALL, channels=2)
        assert len(result.channel_utilization) == 2
        assert all(0.0 < u <= 1.0 for u in result.channel_utilization)


class TestServerTicks:
    """The kernel ticks a channel server only when it is due or woken."""

    @pytest.mark.parametrize("channels", [1, 2, 4])
    def test_at_most_two_ticks_per_request(self, monkeypatch, channels):
        from repro.traffic import driver

        ticks = []
        tick = driver.ChannelServer.tick

        def counted(server, cycle):
            ticks.append(cycle)
            return tick(server, cycle)

        monkeypatch.setattr(driver.ChannelServer, "tick", counted)
        workload = TrafficWorkload(
            clients=64,
            requests=4096,
            mean_gap=48.0 / channels,
            write_fraction=0.25,
            seed=1,
        )
        run_traffic(
            MemorySystemConfig.pi(),
            workload,
            channels=channels,
            refresh=True,
        )
        # Ticking at every visited cycle took 8,260 / 15,212 / 28,160.
        assert len(ticks) <= 2 * workload.requests

    def test_histograms_hold_every_request(self):
        registry = MetricsRegistry()
        result = run_traffic(workload=SMALL, channels=2, registry=registry)
        latency = registry.histogram(
            "traffic.latency_cycles", LATENCY_BUCKETS
        )
        assert latency.count == result.requests
        assert sum(latency.bucket_counts) == result.requests
        assert latency.min <= result.p50_latency <= latency.max
        for name in COMPONENTS:
            component = registry.histogram(
                "traffic.latency_component_cycles",
                LATENCY_BUCKETS,
                component=name,
            )
            assert component.sum == result.component_cycles[name]


class TestTelemetryWindow:
    def test_windowed_series_reconcile(self):
        registry = MetricsRegistry()
        result = run_traffic(
            workload=SMALL,
            channels=2,
            registry=registry,
            telemetry_window=256,
        )
        bank_series = [
            metric
            for metric in registry.all()
            if metric.name == "traffic.bank_bytes"
        ]
        assert bank_series
        assert sum(s.total() for s in bank_series) == result.total_bytes
        busy = [
            metric
            for metric in registry.all()
            if metric.name == "traffic.channel_busy_cycles"
        ]
        assert len(busy) == 2
        assert tuple(int(s.total()) for s in busy) == \
            result.channel_busy_cycles
        # Dense series: every window sampled, even all-zero ones.
        windows = {len(s.samples) for s in bank_series + busy}
        assert len(windows) == 1

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            run_traffic(workload=SMALL, telemetry_window=0)

    def test_window_sampling_is_bit_neutral(self):
        plain = run_traffic(workload=SMALL, channels=2)
        sampled = run_traffic(
            workload=SMALL, channels=2, telemetry_window=64
        )
        assert plain.p50_latency == sampled.p50_latency
        assert plain.cycles == sampled.cycles
        assert plain.bank_bytes == sampled.bank_bytes


class TestResultRoundTrip:
    def test_to_dict_from_dict(self):
        result = run_traffic(
            workload=SMALL, channels=2, telemetry_window=128, refresh=True
        )
        clone = TrafficResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone == result
