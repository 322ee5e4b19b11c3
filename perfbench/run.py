#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from
``src/``.  The workload's inputs are built from ``--seed``; passes of
the workload repeat for ``--seconds`` seconds after one untimed
warm-up pass, and each timing is the median over the passes.  Within
a pass, each step is also timed against a calibration loop (see
:func:`calibrate`), giving the machine-normalized ``*_ref`` metrics.
The outputs are then checked, and ``setup_s`` is the median wall time
of several fresh interpreters that import ``repro`` and build the
workload's inputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones (see ``layers.py``) and prints the
per-layer metrics, including ``trace.overhead_frac`` (traced over
untraced wall time, minus one).  ``--workload all`` runs the three
workloads in turn in one process (so ``peak_rss_mb`` is the largest
so far).  A human-readable table goes first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed check makes the exit code 1.

Scratch files (result caches, ledgers, the span dump) go under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Timed passes per run never drop below this, however long a pass is.
MIN_PASSES = 3
#: Traced and untraced passes each, in a ``--trace 1`` run.
MIN_TRACED = 2
#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 5
#: Per-layer metrics that are exact work counts (must repeat exactly).
EXACT = ("_calls", ".runs", "_generated", "sim.cycles", "cache.hits", "cache.misses")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("paper_sweep", "traffic_mix", "policy_search", "all"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="shrink every workload (for the smoke test)",
    )
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="import repro, build the workload's inputs and exit",
    )
    return parser.parse_args(argv)


def load_catalogue() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """(BENCHMARK.json, perfbench/metrics.json) as dicts."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalogue = json.loads((HERE / "metrics.json").read_text())
    return benchmark, catalogue


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes now: the machine's speed.

    Timed between every two steps of a pass (:meth:`Run.one_pass`).
    The ``*_ref`` metrics divide each step's host seconds by it, which
    cancels this shared machine's drifting speed out of run-to-run
    comparisons; a change to the program still moves them in full,
    since the loop never calls it.
    """
    started = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(40_000):
        key = i & 511
        total += table.get(key, 0) ^ (i * 7)
        table[key] = total & 0xFFFF
    return time.perf_counter() - started


def timing_metrics(outcomes: List[Dict[str, Any]]) -> Dict[str, float]:
    """Raw and machine-normalized medians over some passes."""
    med = statistics.median
    return {
        "wall_s": med(o["wall_s"] for o in outcomes),
        "wall_ref": med(o["wall_ref"] for o in outcomes),
        "sim_cycles_per_s": med(o["fresh_cycles"] / o["fresh_s"] for o in outcomes),
        "sim_cycles_per_ref": med(o["fresh_cycles"] / o["fresh_ref"] for o in outcomes),
    }


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4g}, q3 {q3:.4g}"


class Run:
    """Measurement of one workload: passes, checks and set-up probes."""

    def __init__(self, suite: Any, name: str, args: argparse.Namespace) -> None:
        self.suite = suite
        self.name = name
        self.args = args
        self.workload = suite.WORKLOADS[name](args.seed, tiny=args.tiny)
        self.workdir = WORK / f"{name}-seed{args.seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.lines: List[str] = []

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
        status = "ok  " if passed else "FAIL"
        self.lines.append(f"  [{status}] {name}" + (f" ({detail})" if detail else ""))

    def one_pass(self, tracer: Any = None, ledger: Any = None) -> Dict[str, Any]:
        """One pass, its steps timed one by one between calibration loops.

        ``wall_s`` sums the steps' host seconds; ``wall_ref`` sums each
        step's seconds over the mean of the calibration loops timed
        just before and after it, so the machine's speed is sampled
        every step.  ``fresh_*`` count only steps running fresh
        simulations.  With a ``tracer`` each step is a root span.
        """
        steps = self.workload.steps(
            self.suite.fresh_dir(self.workdir, "pass"), ledger=ledger
        )
        results: Dict[str, Any] = {}
        times: Dict[str, float] = {}
        timing = dict.fromkeys(("wall_s", "wall_ref", "fresh_s", "fresh_ref"), 0.0)
        ref = calibrate()
        for name, call, fresh in steps:
            started = time.perf_counter()
            results[name] = call() if tracer is None else tracer.span("bench.step", call)
            spent = time.perf_counter() - started
            after = calibrate()
            scaled = spent / ((ref + after) / 2)
            ref = after
            times[name] = spent
            timing["wall_s"] += spent
            timing["wall_ref"] += scaled
            if fresh:
                timing["fresh_s"] += spent
                timing["fresh_ref"] += scaled
        outcome = self.workload.collect(results, times)
        outcome.update(timing)
        self.attempted += outcome["ops"]
        return outcome

    def loop(self, step: Any, minimum: int) -> None:
        """Call ``step`` until ``--seconds`` pass (at least ``minimum`` times)."""
        deadline = time.perf_counter() + self.args.seconds
        count = 0
        while True:
            started = time.perf_counter()
            step()
            lap = time.perf_counter() - started
            count += 1
            if count >= minimum and time.perf_counter() + lap > deadline:
                return

    def common_checks(self, outcomes: List[Dict[str, Any]]) -> None:
        for name, passed, detail in self.workload.checks(outcomes):
            self.check(name, passed, detail)
        reference = self.workload.fingerprint(outcomes[0])
        differing = [
            i for i, o in enumerate(outcomes)
            if self.workload.fingerprint(o) != reference
        ]
        self.check(
            "outputs and work counts repeat exactly across passes",
            not differing,
            f"{len(outcomes)} passes" + (f"; passes {differing} differ" if differing else ""),
        )

    def setup_s(self) -> float:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", self.name, "--seed", str(self.args.seed),
            "--seconds", "0",
        ] + (["--tiny"] if self.args.tiny else [])
        times = []
        for _ in range(1 if self.args.tiny else SETUP_PROBES):
            started = time.perf_counter()
            subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - started)
        self.lines.append(f"  setup probes: {quartiles(times)}")
        return statistics.median(times)

    # -- the two kinds of run ---------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        outcomes = [self.one_pass()]  # warm-up, checked but not timed
        timed: List[Dict[str, Any]] = []
        self.loop(lambda: timed.append(self.one_pass()), MIN_PASSES)
        peak = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) / 1024.0
        metrics = timing_metrics(timed)
        metrics.update(self.workload.metrics(timed))
        self.lines.append(
            f"  passes: wall_s {quartiles([o['wall_s'] for o in timed])}"
        )
        self.common_checks(outcomes + timed)
        metrics["peak_rss_mb"] = peak
        metrics["setup_s"] = self.setup_s()
        metrics["error_rate"] = self.failed / self.attempted
        return metrics

    def traced(self) -> Dict[str, float]:
        from layers import Tracer, layer_metrics

        tracer = Tracer()
        outcomes = [self.one_pass()]  # warm-up
        untraced: List[Dict[str, Any]] = []
        traced_passes: List[Dict[str, Any]] = []
        iterations: List[Dict[str, float]] = []
        summaries: List[Any] = []
        ledger = self.workdir / "ledger.jsonl"
        pooled = self.workload.pooled

        def step() -> None:
            outcome = self.one_pass()
            outcomes.append(outcome)
            untraced.append(outcome)
            lo = tracer.mark()
            before = dict(tracer.counters)
            ledger.unlink(missing_ok=True)
            tracer.install(len(iterations))
            try:
                outcome = self.one_pass(tracer, ledger if pooled else None)
                if pooled:
                    # The in-process repeat of the cold pass feeds the
                    # runner and batch-engine metrics; it is not part
                    # of the pass compared with the untraced one.
                    workdir = self.suite.fresh_dir(self.workdir, "repeat")
                    tracer.span(
                        "bench.cold_in_process",
                        lambda: self.workload.in_process_repeat(workdir),
                    )
            finally:
                tracer.uninstall()
            outcomes.append(outcome)
            traced_passes.append(outcome)
            summary = tracer.summarize(lo, tracer.mark())
            counters = {
                key: value - before.get(key, 0)
                for key, value in tracer.counters.items()
            }
            metrics = layer_metrics(summary, counters)
            metrics.update(self.suite.pool_metrics(ledger if pooled else None))
            metrics.update(self.workload.modelled(outcome))
            iterations.append(metrics)
            summaries.append(summary)

        self.loop(step, MIN_TRACED)
        self.common_checks(outcomes)
        counts = [{k: v for k, v in m.items() if k.endswith(EXACT)} for m in iterations]
        self.check(
            "work counts repeat exactly across traced passes",
            all(c == counts[0] for c in counts),
            f"{len(counts)} traced passes",
        )
        metrics = {
            key: statistics.median(m[key] for m in iterations)
            for key in iterations[0]
        }
        metrics["trace.overhead_frac"] = (
            timing_metrics(traced_passes)["wall_ref"]
            / timing_metrics(untraced)["wall_ref"] - 1.0
        )
        last = summaries[-1]
        self.lines.append(
            f"  closure (last traced pass): layer self times "
            f"{last.wall_s - last.remainder_s:.4f} s + remainder "
            f"{last.remainder_s:.4f} s ({100 * last.remainder_s / last.wall_s:.2f} %)"
            f" = traced wall {last.wall_s:.4f} s"
        )
        out = WORK / "out"
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{self.name}-seed{self.args.seed}"
        spans = tracer.write(out / f"{stem}.spans.jsonl.gz")
        (out / f"{stem}.layers.json").write_text(
            json.dumps({"iterations": iterations, "median": metrics}, indent=1)
        )
        self.lines.append(f"  spans: {spans} written to .perfbench/out/{stem}.spans.jsonl.gz")
        return metrics

    def measure(self) -> Dict[str, float]:
        try:
            return self.traced() if self.args.trace else self.end_to_end()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)


def table(
    run: Run, metrics: Dict[str, float], names: List[str], catalogue: Dict[str, Any]
) -> List[str]:
    lines = [f"== {run.name} (seed {run.args.seed}, trace {run.args.trace})"]
    for name in names:
        unit = catalogue["metrics"][name]["unit"]
        lines.append(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    return lines + run.lines


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    tempfile.tempdir = str(WORK / "tmp")

    import suite

    if args.setup_probe:
        suite.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
        return 0

    benchmark, catalogue = load_catalogue()
    kind = "per_layer" if args.trace else "end_to_end"
    emitted = [entry["name"] for entry in benchmark[kind]]
    names = (
        ["paper_sweep", "traffic_mix", "policy_search"]
        if args.workload == "all" else [args.workload]
    )
    attempted = failed = 0
    result: Dict[str, Dict[str, Any]] = {}
    for name in names:
        run = Run(suite, name, args)
        try:
            metrics = run.measure()
        except Exception:
            traceback.print_exc()
            print(f"error: workload {name} failed", file=sys.stderr)
            attempted += run.attempted + 1
            failed += run.failed + 1
            continue
        shown = (
            [m for m, e in catalogue["metrics"].items() if e["kind"] == "per_layer"]
            if args.trace
            else list(run.workload.reports)
        )
        print("\n".join(table(run, metrics, shown, catalogue)), flush=True)
        attempted += run.attempted
        failed += run.failed
        prefix = f"{name}/" if len(names) > 1 else ""
        for metric in emitted:
            result[prefix + metric] = {
                "value": metrics[metric],
                "unit": catalogue["metrics"][metric]["unit"],
            }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": result,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
