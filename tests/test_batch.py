"""Batch engine: event-vs-batch bit-identity and the engine API.

The batch fast path (:mod:`repro.sim.batch`) promises SMC results
*bit-identical* to the discrete-event kernel.  The property mirrors
the dense-vs-skip equivalence contract in ``test_properties.py``, with
and without the background refresh engine, plus tests that
``RunSpec.engine`` — the one engine selector — stays out of the cache
identity and that ``engine="batch"`` refuses what it cannot run.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.core.smc import build_smc_system
from repro.cpu.kernels import KERNELS
from repro.cpu.streams import Alignment
from repro.memsys.config import MemorySystemConfig
from repro.obs.core import Instrumentation
from repro.sim.batch import batch_unsupported_reason, run_smc_batch
from repro.sim.engine import run_smc
from repro.sim.runner import RunSpec, simulate

kernel_names = st.sampled_from(sorted(KERNELS))
orgs = st.sampled_from(["cli", "pi"])
alignments = st.sampled_from([Alignment.ALIGNED, Alignment.STAGGERED])
ENGINES = ("auto", "event", "batch")


def config_for(org: str) -> MemorySystemConfig:
    return getattr(MemorySystemConfig, org)()


class TestEventBatchEquivalence:
    """The batch engine must be observationally identical to the event
    kernel on every supported configuration — same result record, field
    for field, including stall accounting and refresh interference."""

    @given(
        kernel=kernel_names,
        org=orgs,
        alignment=alignments,
        length=st.sampled_from([8, 16, 32]),
        depth=st.sampled_from([4, 16]),
        stride=st.sampled_from([1, 2, 7]),
        refresh=st.booleans(),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_smc_batch_is_exact(
        self, kernel, org, alignment, length, depth, stride, refresh
    ):
        config = config_for(org)
        event = run_smc(build_smc_system(
            KERNELS[kernel], config, length=length, fifo_depth=depth,
            stride=stride, alignment=alignment, refresh=refresh,
        ))
        batch = run_smc_batch(
            KERNELS[kernel], config, length=length, fifo_depth=depth,
            stride=stride, alignment=alignment, refresh=refresh,
        )
        assert event == batch


class TestEngineSelection:
    def test_canonical_engine_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            RunSpec(engine="warp")
        with pytest.raises(ConfigurationError, match="unknown engine"):
            RunSpec.from_dict(
                {"kernel": "copy", "organization": "cli", "engine": "warp"}
            )

    def test_engines_registry(self):
        # RunSpec.engine accepts exactly these names, case-insensitively,
        # and each survives a to_dict()/from_dict() round trip.
        for name in ENGINES:
            spec = RunSpec(kernel="copy", engine=name.upper())
            assert spec.engine == name
            assert RunSpec.from_dict(spec.to_dict()).engine == name

    def test_core_configs_are_batch_supported(self):
        for org in ("cli", "pi"):
            assert batch_unsupported_reason(config_for(org)) is None

    def test_runtime_page_policy_is_gated(self):
        config = dataclasses.replace(config_for("cli"), page_policy="timeout")
        reason = batch_unsupported_reason(config)
        assert reason is not None
        spec = RunSpec(kernel="copy", organization=config,
                       length=32, fifo_depth=8, engine="auto")
        with pytest.raises(ConfigurationError) as raised:
            simulate(dataclasses.replace(spec, engine="batch"))
        assert str(raised.value) == (
            f"engine 'batch' cannot run this spec: {reason}"
        )
        # auto silently falls back to the event kernel, bit-identically.
        assert simulate(spec) == simulate(
            dataclasses.replace(spec, engine="event")
        )

    def test_batch_run_rejects_unsupported_config(self):
        config = dataclasses.replace(config_for("cli"), page_policy="timeout")
        with pytest.raises(ConfigurationError):
            run_smc_batch(KERNELS["copy"], config, length=32, fifo_depth=8)

    def test_instrumented_runs_fall_back(self):
        spec = RunSpec(kernel="copy", organization="cli", length=32,
                       fifo_depth=8)
        assert simulate(spec, obs=Instrumentation()) == simulate(spec)
        with pytest.raises(ConfigurationError, match="instrument"):
            simulate(dataclasses.replace(spec, engine="batch"),
                     obs=Instrumentation())


class TestSimulateEngineApi:
    def test_engines_agree_through_simulate(self):
        spec = RunSpec(kernel="daxpy", organization="pi", length=64,
                       fifo_depth=16)
        results = {
            engine: simulate(dataclasses.replace(spec, engine=engine))
            for engine in ENGINES
        }
        assert results["event"] == results["batch"] == results["auto"]

    def test_engine_is_not_part_of_cache_identity(self):
        spec = RunSpec(kernel="daxpy", organization="cli", length=64,
                       fifo_depth=16)
        keys = {
            dataclasses.replace(spec, engine=engine).canonical_key()
            for engine in ENGINES
        }
        assert keys == {spec.canonical_key()}

    def test_engine_round_trips_but_default_is_elided(self):
        spec = RunSpec(kernel="copy", organization="cli", engine="batch")
        assert spec.to_dict()["engine"] == "batch"
        assert RunSpec.from_dict(spec.to_dict()).engine == "batch"
        assert "engine" not in RunSpec(
            kernel="copy", organization="cli"
        ).to_dict()

    def test_cache_entry_is_shared_across_engines(self, tmp_path):
        from repro.exec import execution

        spec = RunSpec(kernel="copy", organization="cli", length=32,
                       fifo_depth=8)
        with execution(cache=tmp_path) as context:
            first = simulate(dataclasses.replace(spec, engine="event"))
            second = simulate(dataclasses.replace(spec, engine="batch"))
        assert first == second
        assert context.cache.hits == 1


class TestEngineCli:
    """The CLIs carry no engine selector: every run is ``auto``."""

    def test_list_engines_flag(self, capsys):
        from repro.sim.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["--list-engines"])
        assert exited.value.code == 2
        assert "--list-engines" in capsys.readouterr().err
        assert main(["--list-policies"]) == 0
        assert "engine" not in capsys.readouterr().out

    def test_engine_flag_matches_event_run(self, capsys):
        from repro.sim.cli import main

        with pytest.raises(SystemExit):
            main(["daxpy", "--length", "128", "--engine", "batch"])
        capsys.readouterr()
        assert main(["daxpy", "--length", "128"]) == 0
        out = capsys.readouterr().out
        event = simulate(RunSpec(kernel="daxpy", organization="cli",
                                 length=128, fifo_depth=64,
                                 engine="event"))
        assert f"cycles       : {event.cycles}\n" in out

    def test_batch_engine_refuses_baseline_cli_run(self, capsys):
        from repro.sim.cli import main

        for baseline in ("natural-order", "cached", "l2-streaming"):
            with pytest.raises(SystemExit) as exited:
                main(["copy", "--baseline", baseline, "--length", "64",
                      "--engine", "batch"])
            assert exited.value.code == 2
            capsys.readouterr()
            # Without the flag the baseline controller simply runs.
            assert main(["copy", "--baseline", baseline,
                         "--length", "64"]) == 0
            assert "cycles" in capsys.readouterr().out

    def test_batch_engine_refuses_instrumented_cli_run(self, capsys):
        from repro.sim.cli import main

        # The CLI runs auto, which puts an instrumented run on the
        # event kernel; forcing the batch engine on it is refused.
        assert main(["daxpy", "--stats"]) == 0
        assert "access mix" in capsys.readouterr().out
        spec = RunSpec(kernel="daxpy", organization="cli", engine="batch")
        with pytest.raises(ConfigurationError,
                           match="engine 'batch' cannot run this spec"):
            simulate(spec, obs=Instrumentation())

    def test_experiments_list_engines(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["--list-engines"])
        assert exited.value.code == 2
        assert "--list-engines" in capsys.readouterr().err
