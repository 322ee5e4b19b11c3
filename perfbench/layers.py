"""Span tracing around the public calls of each simulator layer.

The benchmark never edits the program: a traced run swaps each layer's
entry points for thin wrappers defined here, and puts the originals
back when the traced pass ends.  Every wrapped call records one span
(name, start, end, parent span, pass id) into flat in-memory arrays;
the spans are summarized per pass and written out when the run ends.

A layer's *self time* is the duration of its spans minus the time
their child spans cover, so the self times of every span of a pass,
including the benchmark's own root span, add up exactly to the root
span's duration.  The root's self time is the part of the pass no
wrapped layer accounts for: the closure remainder.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Set, Tuple

#: Layer prefix of a span name -> the repository module(s) it wraps.
LAYER_MODULES = {
    "runner": "repro.sim.runner",
    "cache": "repro.exec.cache",
    "pool": "repro.exec.pool",
    "batch": "repro.sim.batch",
    "kernel": "repro.sim.kernel",
    "engine": "repro.sim.engine",
    "device": "repro.rdram.device",
    "address": "repro.memsys.address",
    "workload": "repro.traffic.workload",
    "scheduling": "repro.traffic.scheduling",
    "driver": "repro.traffic.driver",
    "search": "repro.search.driver",
    "controllers": "repro.naturalorder, repro.cache, repro.core.l2stream",
}

#: Module-level functions: (module, attribute, span name).  The
#: wrapper replaces every ``repro.*`` module binding of the function,
#: so callers that imported it by name are traced too.
FUNCTIONS = (
    ("repro.sim.runner", "simulate", "runner.simulate"),
    ("repro.exec.pool", "run_specs", "pool.run_specs"),
    ("repro.exec.pool", "_run_pooled", "pool.run_pooled"),
    ("repro.sim.batch", "run_smc_batch", "batch.run_smc_batch"),
    ("repro.sim.batch", "build_plan", "batch.build_plan"),
    ("repro.sim.engine", "run_smc", "engine.run_smc"),
    ("repro.rdram.device", "perform_access", "device.perform_access"),
    ("repro.traffic.workload", "generate_requests", "workload.generate_requests"),
    ("repro.traffic.driver", "run_traffic", "driver.run_traffic"),
    ("repro.search.driver", "run_search", "search.run_search"),
    ("repro.search.driver", "_evaluate", "search.generation"),
)

#: Methods: (module, class, method, span name).
METHODS = (
    ("repro.sim.runner", "RunSpec", "canonical_key", "runner.canonical_key"),
    ("repro.exec.cache", "ResultCache", "get", "cache.get"),
    ("repro.exec.cache", "ResultCache", "put", "cache.put"),
    ("repro.sim.kernel", "Simulation", "run", "kernel.run"),
    ("repro.memsys.address", "AddressMapping", "decompose", "address.decompose"),
    ("repro.traffic.scheduling", "FcfsScheduler", "pick", "scheduling.pick"),
    ("repro.traffic.scheduling", "FrFcfsScheduler", "pick", "scheduling.pick"),
    ("repro.traffic.scheduling", "MarsScheduler", "pick", "scheduling.pick"),
    ("repro.traffic.driver", "ChannelServer", "tick", "driver.server_tick"),
    ("repro.naturalorder.controller", "NaturalOrderController", "run", "controllers.run"),
    ("repro.cache.controller", "CachedNaturalOrderController", "run", "controllers.run"),
    ("repro.core.l2stream", "L2StreamingController", "run", "controllers.run"),
)

#: Result observers: span name -> (counter name, value of one result).
OBSERVERS: Dict[str, Tuple[str, Callable[[Any], int]]] = {
    "cache.get": ("cache.hits", lambda result: result is not None),
    "scheduling.pick": ("scheduling.pick_empty", lambda result: result is None),
    "workload.generate_requests": ("workload.requests_generated", len),
}


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers.

    Spans live in parallel arrays (name id, parent index, pass id,
    start, end), so a pass with hundreds of thousands of calls costs a
    few megabytes.  Recording is switched off in forked children
    (pool workers), whose spans would be lost with the process.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.pass_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Dict[str, int] = {}
        self.pass_id = -1
        self.enabled = False
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ------------------------------------------------------

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` recording one span per call while the tracer is on."""
        nid = self.name_id(name)
        observer = OBSERVERS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.pass_of.append(tracer.pass_id)
            tracer.end.append(0.0)
            tracer._stack.append(index)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = clock()
                tracer._stack.pop()
            if observer is not None:
                counter, value = observer
                tracer.counters[counter] = (
                    tracer.counters.get(counter, 0) + value(result)
                )
            return result

        return traced

    def span(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under one span (the benchmark's root spans)."""
        return self.wrap(fn, name)()

    # -- install / uninstall -------------------------------------------

    def install(self, pass_id: int) -> None:
        """Swap every layer entry point for its traced wrapper.

        Spans recorded until :meth:`uninstall` belong to ``pass_id``.
        """
        self.pass_id = pass_id
        for module_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = self.wrap(original, name)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (
                    mod_name == "repro" or mod_name.startswith("repro.")
                ):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapped)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name))
        self.enabled = True

    def uninstall(self) -> None:
        """Put every original back (reverse order of installation)."""
        self.enabled = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; pass pairs of marks to summarize."""
        return len(self.start)

    def summarize(self, lo: int, hi: int) -> "PassSummary":
        """Calls, inclusive and self seconds per span name in [lo, hi)."""
        duration = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= 0:
                child[p - lo] += duration[i - lo]
        calls: Dict[str, int] = {}
        inclusive: Dict[str, float] = {}
        self_s: Dict[str, float] = {}
        under: Dict[Tuple[str, str], float] = {}
        root_s: Dict[str, float] = {}
        for i in range(lo, hi):
            name = self.names[self.name[i]]
            spent = duration[i - lo]
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + spent
            self_s[name] = self_s.get(name, 0.0) + spent - child[i - lo]
            p = self.parent[i]
            if p < 0:
                root_s[name] = root_s.get(name, 0.0) + spent
            else:
                key = (self.names[self.name[p]], name)
                under[key] = under.get(key, 0.0) + spent
        return PassSummary(
            calls=calls,
            inclusive=inclusive,
            self_s=self_s,
            under=under,
            root_names=set(root_s),
            root_s=root_s,
        )

    def write(self, path: "os.PathLike[str]") -> int:
        """Write every recorded span as compact JSON lines; returns count."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": [
                "id", "name", "parent", "pass", "start_s", "end_s"
            ]}) + "\n")
            for i in range(len(self.start)):
                handle.write(
                    f'[{i},"{self.names[self.name[i]]}",{self.parent[i]},'
                    f"{self.pass_of[i]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f}]\n"
                )
        return len(self.start)


@dataclass
class PassSummary:
    """Aggregated spans of one traced iteration (one or more passes).

    ``under`` maps (parent name, child name) to the child spans'
    inclusive seconds; ``root_s`` maps root span names to seconds.
    """

    calls: Dict[str, int]
    inclusive: Dict[str, float]
    self_s: Dict[str, float]
    under: Dict[Tuple[str, str], float]
    root_names: Set[str]
    root_s: Dict[str, float]

    @property
    def wall_s(self) -> float:
        """Summed duration of the root spans (the traced wall time)."""
        return sum(self.root_s.values())

    @property
    def remainder_s(self) -> float:
        """Self time of the root spans: time no wrapped layer covers."""
        return sum(self.self_s.get(name, 0.0) for name in self.root_names)

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer prefix (roots excluded)."""
        out = {layer: 0.0 for layer in LAYER_MODULES}
        for name, spent in self.self_s.items():
            if name in self.root_names:
                continue
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + spent
        return out


def layer_metrics(
    summary: PassSummary, counters: Dict[str, int]
) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration.

    Plain ``*_s`` metrics are inclusive seconds of the named call;
    ``*_self_s`` metrics are self seconds; ``*_pct`` metrics are a
    layer's self time as a share of the traced wall time.
    """
    calls = summary.calls
    incl = summary.inclusive
    own = summary.self_s

    def n(name: str) -> int:
        return calls.get(name, 0)

    def s(name: str) -> float:
        return incl.get(name, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def under(parent: str, name: str) -> float:
        return summary.under.get((parent, name), 0.0)

    metrics: Dict[str, float] = {
        "runner.simulate_calls": n("runner.simulate"),
        "runner.simulate_s": s("runner.simulate"),
        "runner.canonical_key_s": s("runner.canonical_key"),
        "cache.get_calls": n("cache.get"),
        "cache.get_s": s("cache.get"),
        "cache.put_calls": n("cache.put"),
        "cache.put_s": s("cache.put"),
        "cache.hit_ratio": ratio(
            counters.get("cache.hits", 0), n("cache.get")
        ),
        "batch.runs": n("batch.run_smc_batch"),
        "batch.plan_s": s("batch.build_plan"),
        "batch.run_s": s("batch.run_smc_batch"),
        "kernel.runs": n("kernel.run"),
        "kernel.run_self_s": own.get("kernel.run", 0.0),
        "engine.run_smc_calls": n("engine.run_smc"),
        "engine.run_smc_s": s("engine.run_smc"),
        "device.perform_access_calls": n("device.perform_access"),
        "device.perform_access_s": s("device.perform_access"),
        "address.decompose_calls": n("address.decompose"),
        "address.decompose_s": s("address.decompose"),
        "workload.requests_generated": counters.get(
            "workload.requests_generated", 0
        ),
        "workload.generate_s": s("workload.generate_requests"),
        "scheduling.pick_calls": n("scheduling.pick"),
        "scheduling.pick_s": s("scheduling.pick"),
        "scheduling.pick_empty_ratio": ratio(
            counters.get("scheduling.pick_empty", 0), n("scheduling.pick")
        ),
        "driver.run_traffic_calls": n("driver.run_traffic"),
        "driver.run_traffic_s": s("driver.run_traffic"),
        "driver.server_tick_calls": n("driver.server_tick"),
        "driver.server_tick_self_s": own.get("driver.server_tick", 0.0),
        "search.generation_s": s("search.generation"),
        "search.run_specs_s": under("search.generation", "pool.run_specs"),
        "search.run_traffic_s": under(
            "search.generation", "driver.run_traffic"
        ),
        "controllers.run_calls": n("controllers.run"),
        "controllers.run_s": s("controllers.run"),
    }
    wall = summary.wall_s
    for layer, spent in summary.layer_self_s().items():
        metrics[f"{layer}.self_pct"] = 100.0 * ratio(spent, wall)
    metrics["trace.remainder_pct"] = 100.0 * ratio(summary.remainder_s, wall)
    return metrics
