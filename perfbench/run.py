#!/usr/bin/env python3
"""The repository benchmark: four closed-loop user-path workloads.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload faulted_ensemble --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched;
``--trace 1`` alternates untraced and traced passes over the workload's input
pool and reports the per-layer metrics (see ``tracer.py``) and the tracing
overhead.  ``--workload all`` runs every workload in turn.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the run context.
``README.md`` in this directory documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("faulted_ensemble", "table1_certify", "service_journal", "async_crashes")

#: Setup runs per measured run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: A p90 needs ten samples beyond it, so the loop runs past ``--seconds``
#: until it has this many ops, but for at most ``MAX_EXTRA_S`` more seconds,
#: which bounds the length of a run on a slow machine.
MIN_SAMPLES = 100
MAX_EXTRA_S = 8.0

#: About the calibration kernel's time, in ms, between ops on the machine
#: the benchmark was written on, in its quiet spells: the reference speed
#: that the ``*_ref`` metrics are scaled to (README.md, "Timing noise").
CALIBRATION_REFERENCE_MS = 4.0

#: The gated end-to-end metrics.  Set-up time, op latency and throughput are
#: given at the reference speed: each probe's or op's wall time is divided by
#: how much slower than the reference the calibration kernel ran around it.
#: The unscaled figures are printed in the context line.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ref_ms": "ms",
    "op_p90_ref_ms": "ms",
    "work_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "api.self_ms": "ms",
    "execution.batch.self_ms": "ms",
    "execution.batch.merge_ms": "ms",
    "algorithms.base.busy_ms": "ms",
    "algorithms.base.calls": "count",
    "algorithms.base.us_per_call": "us",
    "algorithms.base.computed_mb": "MB",
    "faults.busy_ms": "ms",
    "faults.calls": "count",
    "core.valency.busy_ms": "ms",
    "core.valency.calls": "count",
    "core.adversary.busy_ms": "ms",
    "core.contraction.inverted_intervals": "count",
    "service.orchestrator.worker_ms": "ms",
    "service.orchestrator.dispatch_ms": "ms",
    "service.orchestrator.replay_ms": "ms",
    "service.orchestrator.retries": "count",
    "service.orchestrator.journal_hits": "count",
    "service.serialization.busy_ms": "ms",
    "service.checkpoint.busy_ms": "ms",
    "service.checkpoint.bytes": "bytes",
    "asynchrony.schedulers.busy_ms": "ms",
    "asynchrony.schedulers.calls": "count",
    "asynchrony.round_based.busy_ms": "ms",
    "asynchrony.simulator.self_ms": "ms",
    "asynchrony.simulator.delivered": "count",
    "asynchrony.simulator.agreement_ms": "ms",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro  # noqa: F401


def _make_workload(name: str, seed: int):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, work_dir=str(WORK_DIR))


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _p90(samples: List[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


class Calibration:
    """Fixed interpreter and numpy work that measures the host's speed.

    The workloads are single-threaded CPU work, part interpreter and part
    numpy, and they slow down when other tenants compete for the core and
    its caches.  The kernel mixes the same kinds of work: an interpreter
    loop, random reads of a Python list, streaming numpy passes, and a random
    gather from a 4 MiB array that lives in the shared cache.  It allocates
    no tracked objects, so it never runs the garbage collector.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.table = list(range(256))
        self.items = rng.uniform(size=20000).tolist()
        self.order = rng.permutation(20000)[:8000].tolist()
        self.values = np.linspace(-1.0, 1.0, 16384)
        self.out = np.empty_like(self.values)
        self.big = rng.uniform(size=4 * 1024 * 1024 // 8)
        self.index = rng.integers(0, self.big.size, size=20000)
        self.gathered = np.empty(self.index.size)

    def __call__(self) -> float:
        """Seconds the kernel took."""
        table, items, order = self.table, self.items, self.order
        values, out = self.values, self.out
        start = time.perf_counter()
        total = 0
        for i in range(15000):
            total += table[i & 255] ^ i
        acc = 0.0
        for j in order:
            acc += items[j]
        for _ in range(40):
            np.multiply(values, 0.5, out=out)
            np.maximum(out, values, out=out)
            out.min()
        for _ in range(8):
            np.take(self.big, self.index, out=self.gathered)
        return time.perf_counter() - start


def _slowdown(before: float, after: float) -> float:
    """The host's slowdown over an interval, from kernel times around it."""
    return (before + after) / 2 / (CALIBRATION_REFERENCE_MS / 1e3)


def _setup_probe(name: str, seed: int) -> int:
    """Imports, inputs and one warm-up op, then report ready and exit."""
    workload = _make_workload(name, seed)
    try:
        workload.prepare(keys=[0])
        result = workload.op(0)
        workload.followup(0, result)
    finally:
        workload.close()
    print("ready", flush=True)
    return 0


def _time_setup(name: str, seed: int, calibration: Calibration) -> Tuple[float, float]:
    """Wall time from process start until a fresh process is ready to serve,
    and the host's slowdown around it."""
    before = calibration()
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed), "--setup-probe",
    ]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
        code = probe.wait()
    if code != 0 or line.strip() != "ready":
        raise BenchError(f"setup probe for {name} failed with exit code {code}")
    return elapsed, _slowdown(before, calibration())


def _run_op(workload, k: int) -> Tuple[object, float, Optional[float]]:
    start = time.perf_counter()
    result = workload.op(k)
    latency = time.perf_counter() - start
    followup = workload.followup(k, result)
    workload.check(k, result)
    return result, latency, followup


class _Tally:
    """Attempted and failed ops; the first failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, workload, k: int):
        self.attempted += 1
        try:
            return _run_op(workload, k)
        except Exception:  # every failure, raised or checked, is a failed op
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc(file=sys.stderr)
            return None


def measure(workload, seconds: float, tally: _Tally, calibration: Calibration,
            min_samples: int = MIN_SAMPLES):
    """Closed loop for ``seconds`` of wall time and ``min_samples`` ops, tracing off.

    The calibration kernel runs between ops, outside their timed region; an
    op's slowdown is the mean of the kernel's times just before and just
    after it, over the reference time.
    """
    latencies: List[float] = []
    scaled: List[float] = []
    slowdowns: List[float] = []
    followups: List[float] = []
    work = 0.0
    before = calibration()
    start = time.perf_counter()
    op = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (
            len(latencies) >= min_samples or elapsed >= seconds + MAX_EXTRA_S
        ):
            break
        k = op % workload.pool
        op += 1
        outcome = tally.run(workload, k)
        after = calibration()
        slowdown = _slowdown(before, after)
        before = after
        if outcome is None:
            continue
        result, latency, followup = outcome
        latencies.append(latency)
        scaled.append(latency / slowdown)
        slowdowns.append(slowdown)
        if followup is not None:
            followups.append(followup)
        work += workload.work(k, result)
    if len(latencies) < 2:
        raise BenchError(f"only {len(latencies)} ops completed in {seconds}s")
    metrics = {
        "op_p50_ref_ms": statistics.median(scaled) * 1e3,
        "op_p90_ref_ms": _p90(scaled) * 1e3,
        "work_per_ref_s": work / sum(scaled),
        "peak_rss_mb": _peak_rss_mb(),
    }
    extra = {
        "samples": len(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": _p90(latencies) * 1e3,
        "work_per_s": work / sum(latencies),
        "slowdown_p50": statistics.median(slowdowns),
        "slowdown_p90": _p90(slowdowns),
    }
    if followups:
        extra["replay_p50_ms"] = statistics.median(followups) * 1e3
        extra["replay_samples"] = len(followups)
    return {"metrics": metrics, "extra": extra}


def _array_bytes(values) -> int:
    if isinstance(values, np.ndarray):
        return values.nbytes
    if isinstance(values, tuple):
        return sum(_array_bytes(value) for value in values)
    return 0


def _observers(tracer) -> None:
    """Counters taken where the work happens, from call arguments and results."""
    from tracer import LAYERS, layer_of

    def kernel_bytes(tracer, args, result, parent_key):
        if parent_key is None or layer_of(parent_key) != "algorithms.base":
            tracer.add("algorithms.base.computed_bytes", _array_bytes(args) + _array_bytes(result))

    kernels = next(targets for layer, _module, targets in LAYERS if layer == "algorithms.base")
    for name in kernels:
        tracer.observe(f"algorithms.base:{name}", kernel_bytes)

    def inverted(lower: float, upper: float) -> int:
        return int(lower > upper)

    def study_certificates(tracer, args, result, parent_key):
        certificates = result.certificates
        if certificates is None:
            return
        if not isinstance(certificates, list):
            certificates = [certificates]
        tracer.add(
            "core.contraction.inverted_intervals",
            sum(inverted(*certificate.rate_interval) for certificate in certificates),
        )

    def single_interval(tracer, args, result, parent_key):
        tracer.add("core.contraction.inverted_intervals", inverted(*result))

    tracer.observe("api:Study.run", study_certificates)
    tracer.observe("core.contraction:certified_rate_interval", single_interval)

    def delivered(tracer, args, result, parent_key):
        tracer.add("asynchrony.simulator.delivered", result.delivered_messages)

    tracer.observe("asynchrony.simulator:AsynchronousSimulator.run", delivered)

    sizes: Dict[str, int] = {}

    def journal_bytes(tracer, args, result, parent_key):
        journal = args[0]
        path = str(journal.path)
        size = os.path.getsize(path)
        tracer.add("service.checkpoint.bytes", size - sizes.get(path, 0))
        sizes[path] = size

    def journal_opened(tracer, args, result, parent_key):
        sizes.pop(str(args[0].path), None)
        journal_bytes(tracer, args, result, parent_key)

    tracer.observe("service.checkpoint:CheckpointJournal.__init__", journal_opened)
    tracer.observe("service.checkpoint:CheckpointJournal.put", journal_bytes)


def layer_metrics(totals, counters, ops: int, workers: int, overhead_pct: float):
    """The per-layer metrics, per op, from aggregated spans and counters."""

    def get(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0.0)

    def ms(seconds: float) -> float:
        return seconds * 1e3 / ops

    kernel_calls = get("algorithms.base", "calls")
    worker_s = counters.get("service.orchestrator.worker_s", 0.0)
    merge = "execution.batch:merge_ensemble_executions"
    return {
        "api.self_ms": ms(get("api", "self")),
        "execution.batch.self_ms": ms(get("execution.batch", "self") - get(merge, "self")),
        "execution.batch.merge_ms": ms(get(merge, "busy")),
        "algorithms.base.busy_ms": ms(get("algorithms.base", "busy")),
        "algorithms.base.calls": kernel_calls / ops,
        "algorithms.base.us_per_call": (
            get("algorithms.base", "busy") * 1e6 / kernel_calls if kernel_calls else 0.0
        ),
        # Divide by ops first: a count per op is then exact for any number of passes.
        "algorithms.base.computed_mb": counters.get("algorithms.base.computed_bytes", 0.0) / ops / 1e6,
        "faults.busy_ms": ms(get("faults", "busy")),
        "faults.calls": get("faults", "calls") / ops,
        "core.valency.busy_ms": ms(get("core.valency", "busy")),
        "core.valency.calls": get("core.valency", "calls") / ops,
        "core.adversary.busy_ms": ms(get("core.adversary", "busy")),
        "core.contraction.inverted_intervals": counters.get("core.contraction.inverted_intervals", 0.0) / ops,
        "service.orchestrator.worker_ms": ms(worker_s),
        "service.orchestrator.dispatch_ms": ms(get("bench:write", "busy") - worker_s / workers),
        "service.orchestrator.replay_ms": ms(get("bench:replay", "busy")),
        "service.orchestrator.retries": counters.get("service.orchestrator.retries", 0.0) / ops,
        "service.orchestrator.journal_hits": counters.get("service.orchestrator.journal_hits", 0.0) / ops,
        "service.serialization.busy_ms": ms(get("service.serialization", "busy")),
        "service.checkpoint.busy_ms": ms(get("service.checkpoint", "busy")),
        "service.checkpoint.bytes": counters.get("service.checkpoint.bytes", 0.0) / ops,
        "asynchrony.schedulers.busy_ms": ms(get("asynchrony.schedulers", "busy")),
        "asynchrony.schedulers.calls": get("asynchrony.schedulers", "calls") / ops,
        "asynchrony.round_based.busy_ms": ms(get("asynchrony.round_based", "busy")),
        "asynchrony.simulator.self_ms": ms(get("asynchrony.simulator:AsynchronousSimulator.run", "self")),
        "asynchrony.simulator.delivered": counters.get("asynchrony.simulator.delivered", 0.0) / ops,
        "asynchrony.simulator.agreement_ms": ms(get("asynchrony.simulator:AsyncExecution.agreement_time", "busy")),
        "trace.overhead_pct": overhead_pct,
    }


def measure_traced(workload, seconds: float, tally: _Tally, spans_path: Optional[str]):
    """Alternate untraced and traced passes over the input pool.

    Every pass runs the same ops, so counts per op repeat exactly for a
    given seed however many passes fit in ``seconds``.
    """
    from tracer import Tracer, aggregate

    tracer = Tracer()
    _observers(tracer)
    totals: Dict[str, Dict[str, float]] = {}
    walls = {False: 0.0, True: 0.0}
    traced_ops = 0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for traced in (False, True):
            if traced:
                tracer.spans = []
                tracer.install()
                workload.tracer = tracer
            try:
                for k in range(workload.pool):
                    tracer.op = passes * workload.pool + k
                    began = time.perf_counter()
                    tally.run(workload, k)
                    walls[traced] += time.perf_counter() - began
            finally:
                if traced:
                    workload.tracer = None
                    tracer.uninstall()
        traced_ops += workload.pool
        passes += 1
        for name, entry in aggregate(tracer.spans).items():
            total = totals.setdefault(name, {"busy": 0.0, "self": 0.0, "calls": 0})
            for field, value in entry.items():
                total[field] += value
    if spans_path:
        tracer.write(spans_path)
    overhead = 100.0 * (walls[True] - walls[False]) / walls[False]
    metrics = layer_metrics(
        totals, tracer.counters, traced_ops, getattr(workload, "workers", 1), overhead
    )
    return {"metrics": metrics, "extra": {"samples": traced_ops, "passes": passes}}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spans_path: Optional[str] = None, setup_samples: int = SETUP_SAMPLES,
                 min_samples: int = MIN_SAMPLES):
    """One measured run; returns ``(context, result)`` as printed."""
    from repro.config import resolve_threads

    calibration = Calibration()
    calibration()
    probes = [] if trace else [
        _time_setup(name, seed, calibration) for _ in range(setup_samples)
    ]
    workload = _make_workload(name, seed)
    tally = _Tally()
    try:
        workload.prepare()
        # Warm-up: lazy imports, pools and caches fill before timing.  A
        # failing warm-up is not counted; the same op fails again in the loop.
        _Tally().run(workload, 0)
        if trace:
            measured = measure_traced(workload, seconds, tally, spans_path)
            units = PER_LAYER
        else:
            measured = measure(workload, seconds, tally, calibration, min_samples)
            measured["metrics"]["setup_s"] = statistics.median(
                elapsed / slowdown for elapsed, slowdown in probes
            )
            units = END_TO_END
    finally:
        workload.close()
    context = {
        "workload": name,
        "seed": seed,
        "confirm_seed": seed + 7919,
        "shape": workload.shape(),
        "unit_of_work": workload.unit_of_work,
        "trace": int(trace),
        "seconds": seconds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": resolve_threads(None),
        "setup_samples_s": [elapsed for elapsed, _ in probes],
        "setup_slowdowns": [slowdown for _, slowdown in probes],
        "error_rate": tally.failed / tally.attempted,
        **measured["extra"],
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": measured["metrics"][metric], "unit": unit}
            for metric, unit in units.items()
        },
    }
    return context, result


def _run_all(args) -> int:
    """Every workload in its own process; a combined result line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(completed.stdout)
        if completed.returncode != 0:
            print(f"workload {name} exited with code {completed.returncode}", file=sys.stderr)
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write the last traced pass's spans here (JSON lines)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if "REPRO_THREADS" in os.environ:
        print(
            "REPRO_THREADS is set; the workloads are defined at threads=1 "
            "(service_journal uses 2 worker processes). Unset it to run.",
            file=sys.stderr,
        )
        return 2
    try:
        _load_program()
        if args.setup_probe:
            return _setup_probe(args.workload, args.seed)
        if args.workload == "all":
            return _run_all(args)
        context, result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.spans
        )
    except (BenchError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
