"""The benchmark's three workloads: inputs, one pass, checks.

Each workload builds its inputs from the seed in ``__init__`` (that is
the set-up ``setup_s`` measures).  A pass is a list of *steps* — named
calls into the program — which the runner times one by one, with a
calibration loop between them (see ``run.py``).  :meth:`collect` turns
the steps' results into the pass outcome, and :meth:`checks` checks
the program's outputs.

* ``paper_sweep`` — the Figure 7 SMC grid plus the Figure 9 strided
  points through ``run_specs(workers=2)`` into an empty result cache
  (cold), the same grid against the filled cache (warm), the
  natural-order, cached and L2-streaming baselines through their
  controllers' ``run``, and the eight ``experiments.report`` claims.
* ``traffic_mix`` — open-loop Zipf traffic from 64 clients on 1/2/4
  channels under the fcfs/frfcfs/mars schedulers, PI organization,
  background refresh on.
* ``policy_search`` — seeded ``run_search`` calls (2 generations,
  population 8), each inside ``execution(cache=<fresh dir>)``.

The program is always called through its modules' attributes
(``pool.run_specs``, not an imported name), so the wrappers a traced
run installs there see every call.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import shutil
import statistics
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cache.controller import CachedNaturalOrderController
from repro.core.l2stream import L2StreamingController
from repro.cpu.kernels import PAPER_KERNELS, get_kernel
from repro.exec import pool
from repro.exec.cache import ResultCache
from repro.exec.context import execution
from repro.experiments import figure7, figure9
from repro.experiments import report as paper_report
from repro.memsys.config import MemorySystemConfig
from repro.naturalorder.controller import NaturalOrderController
from repro.obs.ledger import Ledger, LedgerWriter
from repro.obs.metrics import MetricsRegistry
from repro.search import driver as search_driver
from repro.search.driver import SEARCH_WORKLOAD, SearchConfig
from repro.sim import runner
from repro.sim.results import SimulationResult
from repro.sim.runner import RunSpec
from repro.traffic import driver as traffic_driver
from repro.traffic.driver import COMPONENTS, LATENCY_BUCKETS
from repro.traffic.workload import TrafficWorkload

#: Pool size: at most two workers, never more than the machine's cores.
WORKERS = max(1, min(2, os.cpu_count() or 1))

#: One step of a pass: (name, call, whether it runs fresh simulations).
Step = Tuple[str, Callable[[], Any], bool]

#: A check: (name, passed, detail).
Check = Tuple[str, bool, str]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _smc_modelled(results: List[SimulationResult]) -> Dict[str, float]:
    """Mean stall cycles and page-hit rate of some SMC results."""
    if not results:
        return {"smc.cpu_stall_cycles": 0.0, "smc.page_hit_rate": 0.0}
    return {
        "smc.cpu_stall_cycles": statistics.fmean(
            r.cpu_stall_cycles for r in results
        ),
        "smc.page_hit_rate": statistics.fmean(
            r.page_hit_rate for r in results
        ),
    }


def _traffic_modelled(results: List[Any]) -> Dict[str, float]:
    """Mean latency components per request and mean channel utilization."""
    requests = sum(r.requests for r in results)
    out = {
        f"traffic.{name}_cycles": (
            sum(r.component_cycles.get(name, 0) for r in results) / requests
            if requests
            else 0.0
        )
        for name in COMPONENTS
    }
    out["traffic.channel_utilization"] = (
        statistics.fmean(
            statistics.fmean(r.channel_utilization) for r in results
        )
        if results
        else 0.0
    )
    return out


class Workload:
    """Shared shape of the three workloads (see the module docstring)."""

    name = ""
    #: End-to-end metrics this workload reports, in print order.
    reports: Tuple[str, ...] = ()
    #: Whether a pass runs a pool batch (traced runs then attach a run
    #: ledger to it and repeat it in-process; see ``run.py``).
    pooled = False

    def steps(self, workdir: Path, ledger: Optional[Path] = None) -> List[Step]:
        raise NotImplementedError

    def collect(self, results: Dict[str, Any], times: Dict[str, float]) -> Dict[str, Any]:
        """The pass outcome; must hold ``fresh_cycles`` and ``ops``."""
        raise NotImplementedError

    def in_process_repeat(self, workdir: Path) -> None:
        """The pooled batch again with ``workers=1`` (pooled workloads)."""
        raise NotImplementedError

    def metrics(self, outcomes: List[Dict[str, Any]]) -> Dict[str, float]:
        """Workload-specific end-to-end metrics."""
        raise NotImplementedError

    def modelled(self, outcome: Dict[str, Any]) -> Dict[str, float]:
        raise NotImplementedError

    def fingerprint(self, outcome: Dict[str, Any]) -> Any:
        """What must repeat exactly from pass to pass."""
        raise NotImplementedError

    def checks(self, outcomes: List[Dict[str, Any]]) -> List[Check]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# paper_sweep


class PaperSweep(Workload):
    name = "paper_sweep"
    pooled = True
    reports = (
        "setup_s", "wall_s", "wall_ref", "sweep_cold_specs_per_s",
        "sweep_warm_specs_per_s", "sim_cycles_per_s", "sim_cycles_per_ref",
        "smc_percent_of_peak", "paper_claims_passed", "peak_rss_mb",
        "error_rate",
    )
    CONTROLLERS = (
        NaturalOrderController,
        CachedNaturalOrderController,
        L2StreamingController,
    )

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.kernels = ("daxpy",) if tiny else tuple(PAPER_KERNELS)
        lengths = (128,) if tiny else figure7.LENGTHS
        depths = (8, 128) if tiny else figure7.DEPTHS
        strides = (4, 16) if tiny else figure9.STRIDES
        self.specs = [
            RunSpec(
                kernel=kernel, organization=org, length=length,
                fifo_depth=depth, alignment=alignment,
            )
            for kernel in self.kernels
            for org in figure7.ORGS
            for length in lengths
            for depth in depths
            for alignment in ("staggered", "aligned")
        ] + [
            RunSpec(
                kernel="vaxpy", organization=org, length=figure9.LENGTH,
                fifo_depth=figure9.FIFO_DEPTH, stride=stride,
            )
            for stride in strides
            for org in ("pi", "cli")
        ]
        self.baseline_length = 128 if tiny else 1024
        # The seed picks which grid points the event-engine and audit
        # checks re-run; the pass does not depend on it.
        self.sample = random.Random(seed).sample(self.specs, 2 if tiny else 4)

    def steps(self, workdir: Path, ledger: Optional[Path] = None) -> List[Step]:
        cache = ResultCache(workdir / "cache")

        def cold() -> Any:
            writer = LedgerWriter(ledger) if ledger is not None else None
            try:
                return pool.run_specs(
                    self.specs, workers=WORKERS, cache=cache, ledger=writer
                )
            finally:
                if writer is not None:
                    writer.close()

        def warm() -> Any:
            before = cache.hits
            return pool.run_specs(self.specs, workers=WORKERS, cache=cache), (
                cache.hits - before, cache.stores
            )

        def baselines(controller: Any) -> Callable[[], Any]:
            return lambda: [
                controller(getattr(MemorySystemConfig, org)()).run(
                    get_kernel(kernel), length=self.baseline_length
                )
                for org in figure7.ORGS
                for kernel in self.kernels
            ]

        def claims() -> str:
            with execution(cache=cache):
                return paper_report.generate_report()

        return [
            ("cold", cold, True),
            ("warm", warm, False),
            *(
                (f"baseline:{c.__name__}", baselines(c), True)
                for c in self.CONTROLLERS
            ),
            ("claims", claims, False),
        ]

    def collect(self, results: Dict[str, Any], times: Dict[str, float]) -> Dict[str, Any]:
        warm, (warm_hits, stores) = results["warm"]
        base = [
            r for c in self.CONTROLLERS for r in results[f"baseline:{c.__name__}"]
        ]
        verdicts = [
            line.rstrip(" |").rsplit("|", 1)[-1].strip()
            for line in results["claims"].splitlines()
            if line.startswith("| ") and not line.startswith("| source")
        ]
        return {
            "cold_s": times["cold"],
            "warm_s": times["warm"],
            "cold": results["cold"],
            "warm": warm,
            "baselines": base,
            "verdicts": verdicts,
            "warm_hits": warm_hits,
            "cache_stores": stores,
            "fresh_cycles": sum(r.cycles for r in results["cold"])
            + sum(r.cycles for r in base),
            "ops": 2 * len(self.specs) + len(base) + len(verdicts),
        }

    def in_process_repeat(self, workdir: Path) -> None:
        pool.run_specs(self.specs, workers=1, cache=ResultCache(workdir / "cache"))

    def metrics(self, outcomes: List[Dict[str, Any]]) -> Dict[str, float]:
        last = outcomes[-1]
        n = len(self.specs)
        return {
            "sweep_cold_specs_per_s": statistics.median(
                n / o["cold_s"] for o in outcomes
            ),
            "sweep_warm_specs_per_s": statistics.median(
                n / o["warm_s"] for o in outcomes
            ),
            "smc_percent_of_peak": statistics.fmean(
                r.percent_of_peak for r in last["cold"]
            ),
            "paper_claims_passed": last["verdicts"].count("PASS"),
        }

    def modelled(self, outcome: Dict[str, Any]) -> Dict[str, float]:
        out = _smc_modelled(outcome["cold"])
        out.update(_traffic_modelled([]))
        out["sim.cycles"] = outcome["fresh_cycles"]
        out["cache.hits"] = outcome["warm_hits"]
        out["cache.misses"] = outcome["cache_stores"]
        return out

    def fingerprint(self, outcome: Dict[str, Any]) -> Any:
        return (
            [r.to_dict() for r in outcome["cold"]],
            [r.to_dict() for r in outcome["baselines"]],
            outcome["verdicts"],
            outcome["warm_hits"],
            outcome["cache_stores"],
        )

    def checks(self, outcomes: List[Dict[str, Any]]) -> List[Check]:
        checks: List[Check] = []
        mismatched = [
            i for i, o in enumerate(outcomes)
            if [r.to_dict() for r in o["warm"]] != [r.to_dict() for r in o["cold"]]
        ]
        checks.append((
            "warm pass equals cold pass (to_dict)", not mismatched,
            f"passes {mismatched} differ" if mismatched
            else f"{len(self.specs)} specs x {len(outcomes)} passes",
        ))
        batch = dict(zip(self.specs, outcomes[-1]["cold"]))
        for spec in self.sample:
            event = runner.simulate(dataclasses.replace(spec, engine="event"))
            checks.append((
                f"event engine matches batch: {spec.describe()}",
                event.to_dict() == batch[spec].to_dict(), "",
            ))
        for spec in self.sample:
            try:
                audited = runner.simulate(dataclasses.replace(spec, audit=True))
            except Exception as error:  # an audit violation raises
                checks.append((f"audit clean: {spec.describe()}", False, repr(error)))
                continue
            checks.append((
                f"audit clean: {spec.describe()}",
                audited.to_dict() == batch[spec].to_dict(),
                "audited run matches batch",
            ))
        diffs = sorted({v for o in outcomes for v in o["verdicts"]} - {"PASS", "NEAR"})
        checks.append((
            "no paper claim gets a DIFF verdict",
            not diffs and len(outcomes[-1]["verdicts"]) == 8,
            f"verdicts {outcomes[-1]['verdicts']}",
        ))
        return checks


# ---------------------------------------------------------------------------
# traffic_mix


class TrafficMix(Workload):
    name = "traffic_mix"
    reports = (
        "setup_s", "wall_s", "wall_ref", "requests_per_s",
        "sim_cycles_per_s", "sim_cycles_per_ref",
        "traffic_p50_cycles", "traffic_p99_cycles", "peak_rss_mb",
        "error_rate",
    )
    CHANNELS = (1, 2, 4)
    SCHEDULERS = ("fcfs", "frfcfs", "mars")

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.config = MemorySystemConfig.pi()
        requests = 256 if tiny else 4096
        # Offered load scales with the channel count and stays below
        # each topology's saturation knee (the backlog grows near
        # 40/channels cycles between arrivals).
        self.points = [
            (
                f"{channels}ch/{scheduler}",
                channels,
                scheduler,
                TrafficWorkload(
                    clients=64,
                    requests=requests,
                    mean_gap=48.0 / channels,
                    write_fraction=0.25,
                    seed=seed,
                ),
            )
            for channels in self.CHANNELS
            for scheduler in self.SCHEDULERS
        ]

    def steps(self, workdir: Path, ledger: Optional[Path] = None) -> List[Step]:
        def point(channels: int, scheduler: str, workload: Any) -> Callable[[], Any]:
            def run() -> Any:
                registry = MetricsRegistry()
                result = traffic_driver.run_traffic(
                    self.config, workload, channels=channels, refresh=True,
                    scheduler=scheduler, registry=registry,
                )
                return result, registry.histogram(
                    "traffic.latency_cycles", bounds=LATENCY_BUCKETS
                )
            return run

        return [
            (label, point(channels, scheduler, workload), True)
            for label, channels, scheduler, workload in self.points
        ]

    def collect(self, results: Dict[str, Any], times: Dict[str, float]) -> Dict[str, Any]:
        runs = [results[label] for label, *_ in self.points]
        return {
            "results": [result for result, _ in runs],
            "histograms": [hist for _, hist in runs],
            "fresh_cycles": sum(result.cycles for result, _ in runs),
            "ops": len(runs),
        }

    def metrics(self, outcomes: List[Dict[str, Any]]) -> Dict[str, float]:
        results = outcomes[-1]["results"]
        requests = sum(r.requests for r in results)
        return {
            "requests_per_s": statistics.median(
                requests / o["wall_s"] for o in outcomes
            ),
            "traffic_p50_cycles": geomean([r.p50_latency for r in results]),
            "traffic_p99_cycles": geomean([r.p99_latency for r in results]),
        }

    def modelled(self, outcome: Dict[str, Any]) -> Dict[str, float]:
        out = _smc_modelled([])
        out.update(_traffic_modelled(outcome["results"]))
        out["sim.cycles"] = outcome["fresh_cycles"]
        out["cache.hits"] = 0
        out["cache.misses"] = 0
        return out

    def fingerprint(self, outcome: Dict[str, Any]) -> Any:
        return [r.to_dict() for r in outcome["results"]]

    def checks(self, outcomes: List[Dict[str, Any]]) -> List[Check]:
        checks: List[Check] = []
        line = self.config.cacheline_bytes
        for (label, _, _, workload), result, hist in zip(
            self.points, outcomes[-1]["results"], outcomes[-1]["histograms"]
        ):
            checks.append((
                f"bytes conserved: {label}",
                sum(result.channel_bytes) == result.total_bytes
                == workload.requests * line,
                f"channel sum {sum(result.channel_bytes)}, total "
                f"{result.total_bytes}, expected {workload.requests * line}",
            ))
            components = sum(result.component_cycles.values())
            checks.append((
                f"latency components sum to histogram: {label}",
                components == hist.sum and hist.count == workload.requests,
                f"components {components}, histogram sum {hist.sum} "
                f"over {hist.count} requests",
            ))
        return checks


# ---------------------------------------------------------------------------
# policy_search


class PolicySearch(Workload):
    name = "policy_search"
    reports = (
        "setup_s", "wall_s", "wall_ref", "sim_cycles_per_s",
        "sim_cycles_per_ref", "search_best_score", "peak_rss_mb",
        "error_rate",
    )
    #: Seeded searches per pass.  How much work one search does depends
    #: strongly on its seed (which genomes it draws), so a pass runs
    #: several and a run's timing is not at the mercy of one draw.
    SEARCHES = 12

    def __init__(self, seed: int, tiny: bool = False) -> None:
        searches = 2 if tiny else self.SEARCHES
        self.configs = []
        for sub_seed in range(seed * searches, (seed + 1) * searches):
            workload = dataclasses.replace(SEARCH_WORKLOAD, seed=sub_seed)
            if tiny:
                workload = dataclasses.replace(workload, requests=128)
            self.configs.append(SearchConfig(
                generations=2,
                population=3 if tiny else 8,
                elites=1 if tiny else 3,
                seed=sub_seed,
                workload=workload,
            ))

    def steps(self, workdir: Path, ledger: Optional[Path] = None) -> List[Step]:
        def search(index: int, config: SearchConfig) -> Callable[[], Any]:
            def run() -> Any:
                traffic: List[Any] = []

                def capture(*args: Any, **kwargs: Any) -> Any:
                    # Resolved at call time so a traced run's wrapper is seen.
                    result = traffic_driver.run_traffic(*args, **kwargs)
                    traffic.append(result)
                    return result

                original = search_driver.run_traffic
                search_driver.run_traffic = capture
                try:
                    with execution(cache=workdir / f"cache{index}") as context:
                        result = search_driver.run_search(config)
                finally:
                    search_driver.run_traffic = original
                return result, context.cache, traffic
            return run

        return [
            (f"search:{config.seed}", search(index, config), True)
            for index, config in enumerate(self.configs)
        ]

    def collect(self, results: Dict[str, Any], times: Dict[str, float]) -> Dict[str, Any]:
        runs = [results[f"search:{config.seed}"] for config in self.configs]
        fresh = [
            SimulationResult.from_dict(json.loads(path.read_text())["result"])
            for _, cache, _ in runs
            for path in sorted((cache.root / "objects").glob("*/*.json"))
        ]
        traffic = [t for _, _, captured in runs for t in captured]
        return {
            "results": [result for result, _, _ in runs],
            "fresh_smc": fresh,
            "traffic": traffic,
            "hits": sum(cache.hits for _, cache, _ in runs),
            "misses": sum(cache.misses for _, cache, _ in runs),
            "fresh_cycles": sum(r.cycles for r in fresh) + sum(r.cycles for r in traffic),
            "ops": sum(
                c.generations * c.population * len(c.kernels) for c in self.configs
            ) + len(traffic),
        }

    def metrics(self, outcomes: List[Dict[str, Any]]) -> Dict[str, float]:
        return {
            "search_best_score": statistics.fmean(
                r.winner.score for r in outcomes[-1]["results"]
            ),
        }

    def modelled(self, outcome: Dict[str, Any]) -> Dict[str, float]:
        out = _smc_modelled(outcome["fresh_smc"])
        out.update(_traffic_modelled(outcome["traffic"]))
        out["sim.cycles"] = outcome["fresh_cycles"]
        out["cache.hits"] = outcome["hits"]
        out["cache.misses"] = outcome["misses"]
        return out

    def fingerprint(self, outcome: Dict[str, Any]) -> Any:
        return (
            [r.to_dict() for r in outcome["results"]],
            [r.to_dict() for r in outcome["fresh_smc"]],
            [r.to_dict() for r in outcome["traffic"]],
            outcome["hits"],
            outcome["misses"],
        )

    def checks(self, outcomes: List[Dict[str, Any]]) -> List[Check]:
        checks: List[Check] = []
        for index, config in enumerate(self.configs):
            winners = {
                (
                    o["results"][index].winner.genome.key(),
                    o["results"][index].winner.score,
                    tuple(
                        key
                        for report in o["results"][index].generations
                        for entry in report.ranking
                        for key in entry.spec_keys
                    ),
                )
                for o in outcomes
            }
            checks.append((
                f"search seed {config.seed} gives the same winner and spec_keys",
                len(winners) == 1 and len(outcomes) >= 2,
                f"{len(winners)} distinct outcome(s) over {len(outcomes)} searches",
            ))
        return checks


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "paper_sweep": PaperSweep,
    "traffic_mix": TrafficMix,
    "policy_search": PolicySearch,
}


def pool_metrics(ledger: Optional[Path]) -> Dict[str, float]:
    """Pool wait, busy and overhead seconds of one ledgered batch.

    ``dispatch_wait_s`` is the mean per spec of dispatched -> started
    (queueing behind other specs plus pickling and IPC).

    Workloads without a pooled batch (no ledger) report zeros.
    """
    if ledger is None:
        return dict.fromkeys((
            "pool.dispatch_wait_s", "pool.worker_busy_s",
            "pool.worker_utilization", "pool.overhead_s",
        ), 0.0)
    view = Ledger.load(ledger)
    dispatched: Dict[Any, float] = {}
    waits: List[float] = []
    for event in view.events:
        key = (event.run, event.batch, event.index)
        if event.event == "dispatched":
            dispatched[key] = event.t
        elif event.event == "started" and key in dispatched:
            waits.append(event.t - dispatched[key])
    busy = view.worker_busy()
    utilization = view.worker_utilization()
    elapsed = sum(batch.elapsed_s for batch in view.batch_summaries())
    workers = max(len(busy), 1)
    return {
        "pool.dispatch_wait_s": statistics.fmean(waits) if waits else 0.0,
        "pool.worker_busy_s": sum(busy.values()),
        "pool.worker_utilization": (
            statistics.fmean(utilization.values()) if utilization else 0.0
        ),
        "pool.overhead_s": elapsed - sum(busy.values()) / workers,
    }


def fresh_dir(root: Path, name: str) -> Path:
    """An empty directory ``root/name`` (removed first if present)."""
    path = root / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
