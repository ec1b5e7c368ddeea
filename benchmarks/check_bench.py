"""Guard a benchmark JSON against fast-path regressions.

Reads a ``BENCH_engine.json``-style file and fails (exit code 1) when any
entry that compares an old/new or loop/batched pair reports the new path more
than ``--max-slowdown`` times slower than the old one.  CI runs this on the
smoke benchmark so a fast-path regression cannot merge silently; the smoke
grids are tiny, so the threshold is a slack 2x rather than a tight bound.

Usage::

    python benchmarks/check_bench.py bench-smoke.json
    python benchmarks/check_bench.py bench-smoke.json --max-slowdown 2.0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: (old-timing key, new-timing key) pairs an entry may carry.  The
#: dense/packed/sort-and-scan reduction timings are deliberately NOT gated:
#: the kernels are memory-for-time tradeoffs measured at millisecond scale,
#: so a 2x wall-clock bound on a noisy CI runner would flake without any
#: code regression.
_TIMING_PAIRS = (
    ("old_s", "new_s"),
    ("loop_s", "batched_s"),
)

#: The repro.api facade must compile to a direct engine call plus negligible
#: dispatch; its entries are gated against a tight 5% bound instead of the
#: slack fast-path threshold.
_FACADE_PAIR = ("direct_s", "facade_s")
_FACADE_MAX_SLOWDOWN = 1.05

#: The sharded study service pays worker spawn + IPC + journal fsyncs that a
#: single-process Study never does, so its gate is a relative limit *plus* a
#: fixed allowance: ``service_s <= direct_s * limit + allowance``.  The
#: allowance absorbs the constant process-pool cost that dominates the tiny
#: smoke workload; the relative limit still catches a merge or serialization
#: path that starts recomputing shards.
_SERVICE_PAIR = ("direct_s", "service_s")
_SERVICE_MAX_SLOWDOWN = 4.0
_SERVICE_FIXED_ALLOWANCE_S = 5.0

#: The remote route pays HTTP round-trips, lease bookkeeping and SSE
#: telemetry instead of pipes; its worker threads also share the GIL where
#: the multiprocessing route gets real processes.  Same gate shape as the
#: service pair: ``remote_s <= mp_service_s * limit + allowance``, where
#: the allowance absorbs the constant server/poll costs that dominate a
#: smoke workload and the relative limit catches a dispatch loop that
#: starts stalling on its own stream or re-running cached shards.
_REMOTE_PAIR = ("mp_service_s", "remote_s")
_REMOTE_MAX_SLOWDOWN = 4.0
_REMOTE_FIXED_ALLOWANCE_S = 5.0

#: The campaign loop pays planning, novelty scoring, content-keyed corpus
#: writes and one fsync-ed journal append per round on top of executing the
#: same differential cases as a raw harness loop.  Like the service gate,
#: the bound is relative plus a fixed allowance: the allowance absorbs the
#: constant persistence cost that dominates a tiny smoke budget, while the
#: relative limit catches a campaign loop that starts re-executing or
#: re-minimizing cases it should not.
_CAMPAIGN_PAIR = ("harness_s", "campaign_s")
_CAMPAIGN_MAX_SLOWDOWN = 3.0
_CAMPAIGN_FIXED_ALLOWANCE_S = 1.0

#: Benchmark families whose batched path must *beat* its loop baseline by at
#: least this factor (a minimum speedup, not just an absence of slowdown).
#: Ensemble-scale certification stacks all B scenarios' sampled futures into
#: single passes; losing the stacking would silently degrade to the
#: per-scenario loop while still passing the slack slowdown check.  The
#: faulted ensemble applies its (B, n, n) fault masks to the whole stacked
#: adjacency per round; silently falling back to masking one scenario at a
#: time would likewise survive the slack check.
_MIN_SPEEDUPS = {"certify_ensemble": 5.0, "faulted_ensemble": 3.0}

#: The parallel backend must scale: at 4 workers on a B=256 workload the
#: sharded run must beat the serial run by at least this factor.  The gate
#: applies only where the entry's recorded ``cpu_count`` >= this many cores —
#: a 1-core container physically cannot parallelize, and fabricating its
#: numbers would be worse than skipping the gate — so dev boxes record honest
#: ~1x entries while CI's multi-core runners enforce the bound.
_PARALLEL_PAIR = ("serial_s", "parallel_s")
_PARALLEL_MIN_SPEEDUP = 2.0
_PARALLEL_MIN_CPUS = 4

#: The fused masked-extreme kernel saves a mask resolution; at minimum it
#: must never lose to two separate reductions by more than the slack
#: fast-path factor (the ``--max-slowdown`` bound applied to this pair).
_FUSED_PAIR = ("separate_s", "fused_s")

#: Benchmarks every payload must contain: the fast-path gate is meaningless
#: if a regression silently removes an entry, so missing families fail too.
#: The valency/contraction/alpha entries carry old_s/new_s and are therefore
#: gated by the slowdown check above as well.
_REQUIRED_BENCHMARKS = (
    "run_execution",
    "ensemble",
    "faulted_ensemble",
    "greedy_adversary",
    "psi_adversary",
    "adversarial_ensemble",
    "valency_estimation",
    "valency_streaming_memory",
    "certify_ensemble",
    "contraction_trace",
    "alpha_classes",
    "masked_reduction_memory",
    "packed_masked_reduction",
    "facade_overhead",
    "service_overhead",
    "remote_service",
    "campaign_round",
    "parallel_ensemble",
    "fused_reduction",
)


def _entry_detail(entry: dict) -> str:
    return ", ".join(
        f"{key}={entry[key]}"
        for key in (
            "route", "algorithm", "impl", "n", "B", "rounds", "model_size",
            "d", "seed", "budget", "threads", "cpu_count",
        )
        if key in entry
    )


def check(payload: dict, max_slowdown: float, facade_max_slowdown: float = _FACADE_MAX_SLOWDOWN) -> list:
    """Return a list of human-readable violations found in ``payload``."""
    violations = []
    present = {entry.get("benchmark") for entry in payload.get("results", [])}
    for name in _REQUIRED_BENCHMARKS:
        if name not in present:
            violations.append(f"required benchmark family {name!r} is missing")
    for entry in payload.get("results", []):
        for old_key, new_key in _TIMING_PAIRS:
            if old_key not in entry or new_key not in entry:
                continue
            old_s, new_s = entry[old_key], entry[new_key]
            if old_s <= 0:
                continue
            slowdown = new_s / old_s
            if slowdown > max_slowdown:
                label = entry.get("benchmark", "?")
                violations.append(
                    f"{label} ({_entry_detail(entry)}): {new_key}={new_s:.6f}s is "
                    f"{slowdown:.2f}x slower than {old_key}={old_s:.6f}s "
                    f"(limit {max_slowdown:.2f}x)"
                )
        family = entry.get("benchmark")
        min_speedup = _MIN_SPEEDUPS.get(family)
        if min_speedup is not None and "loop_s" in entry and "batched_s" in entry:
            loop_s, batched_s = entry["loop_s"], entry["batched_s"]
            speedup = loop_s / batched_s if batched_s > 0 else float("inf")
            if speedup < min_speedup:
                violations.append(
                    f"{family} ({_entry_detail(entry)}): batched_s={batched_s:.6f}s is "
                    f"only {speedup:.2f}x faster than loop_s={loop_s:.6f}s "
                    f"(required >= {min_speedup:.1f}x)"
                )
        serial_key, parallel_key = _PARALLEL_PAIR
        if serial_key in entry and parallel_key in entry:
            serial_s, parallel_s = entry[serial_key], entry[parallel_key]
            cpu_count = entry.get("cpu_count", 0)
            threads = entry.get("threads", 1)
            speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
            if (
                cpu_count >= _PARALLEL_MIN_CPUS
                and threads >= _PARALLEL_MIN_CPUS
                and speedup < _PARALLEL_MIN_SPEEDUP
            ):
                violations.append(
                    f"parallel_ensemble ({_entry_detail(entry)}): "
                    f"{parallel_key}={parallel_s:.6f}s is only {speedup:.2f}x faster "
                    f"than {serial_key}={serial_s:.6f}s at threads={threads} on a "
                    f"{cpu_count}-core machine (required >= {_PARALLEL_MIN_SPEEDUP:.1f}x)"
                )
            elif cpu_count < _PARALLEL_MIN_CPUS and speedup > max_slowdown:
                # A 1-core box cannot legitimately report parallel scaling;
                # a large "speedup" there means the serial side mismeasured.
                violations.append(
                    f"parallel_ensemble ({_entry_detail(entry)}): implausible "
                    f"{speedup:.2f}x speedup recorded on a {cpu_count}-core machine"
                )
        separate_key, fused_key = _FUSED_PAIR
        if separate_key in entry and fused_key in entry:
            separate_s, fused_s = entry[separate_key], entry[fused_key]
            if separate_s > 0 and fused_s / separate_s > max_slowdown:
                violations.append(
                    f"fused_reduction ({_entry_detail(entry)}): "
                    f"{fused_key}={fused_s:.6f}s is {fused_s / separate_s:.2f}x slower "
                    f"than {separate_key}={separate_s:.6f}s (limit {max_slowdown:.2f}x)"
                )
        direct_key, service_key = _SERVICE_PAIR
        if direct_key in entry and service_key in entry:
            direct_s, service_s = entry[direct_key], entry[service_key]
            budget = direct_s * _SERVICE_MAX_SLOWDOWN + _SERVICE_FIXED_ALLOWANCE_S
            if service_s > budget:
                violations.append(
                    f"service_overhead ({_entry_detail(entry)}): "
                    f"{service_key}={service_s:.6f}s exceeds "
                    f"{direct_key}={direct_s:.6f}s * {_SERVICE_MAX_SLOWDOWN:.1f} "
                    f"+ {_SERVICE_FIXED_ALLOWANCE_S:.1f}s allowance "
                    f"(= {budget:.6f}s)"
                )
        mp_key, remote_key = _REMOTE_PAIR
        if mp_key in entry and remote_key in entry:
            mp_s, remote_s = entry[mp_key], entry[remote_key]
            budget = mp_s * _REMOTE_MAX_SLOWDOWN + _REMOTE_FIXED_ALLOWANCE_S
            if remote_s > budget:
                violations.append(
                    f"remote_service ({_entry_detail(entry)}): "
                    f"{remote_key}={remote_s:.6f}s exceeds "
                    f"{mp_key}={mp_s:.6f}s * {_REMOTE_MAX_SLOWDOWN:.1f} "
                    f"+ {_REMOTE_FIXED_ALLOWANCE_S:.1f}s allowance "
                    f"(= {budget:.6f}s)"
                )
        harness_key, campaign_key = _CAMPAIGN_PAIR
        if harness_key in entry and campaign_key in entry:
            harness_s, campaign_s = entry[harness_key], entry[campaign_key]
            budget = harness_s * _CAMPAIGN_MAX_SLOWDOWN + _CAMPAIGN_FIXED_ALLOWANCE_S
            if campaign_s > budget:
                violations.append(
                    f"campaign_round ({_entry_detail(entry)}): "
                    f"{campaign_key}={campaign_s:.6f}s exceeds "
                    f"{harness_key}={harness_s:.6f}s * {_CAMPAIGN_MAX_SLOWDOWN:.1f} "
                    f"+ {_CAMPAIGN_FIXED_ALLOWANCE_S:.1f}s allowance "
                    f"(= {budget:.6f}s)"
                )
        direct_key, facade_key = _FACADE_PAIR
        if direct_key in entry and facade_key in entry:
            direct_s, facade_s = entry[direct_key], entry[facade_key]
            # ``overhead`` is run_bench's median of per-pair facade/direct
            # ratios; a file without it is gated on the ratio of the timings.
            slowdown = entry.get("overhead")
            if slowdown is None and direct_s > 0:
                slowdown = facade_s / direct_s
            if slowdown is not None and slowdown > facade_max_slowdown:
                violations.append(
                    f"facade_overhead ({_entry_detail(entry)}): the facade costs "
                    f"{slowdown:.3f}x the direct engine call "
                    f"({facade_key}={facade_s:.6f}s, {direct_key}={direct_s:.6f}s; "
                    f"limit {facade_max_slowdown:.2f}x)"
                )
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="benchmark JSON file to check")
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=2.0,
        help="fail when a new/fast timing exceeds this multiple of the old one",
    )
    parser.add_argument(
        "--facade-max-slowdown",
        type=float,
        default=_FACADE_MAX_SLOWDOWN,
        help="fail when the Study facade exceeds this multiple of the direct engine call",
    )
    args = parser.parse_args()

    payload = json.loads(Path(args.path).read_text())
    violations = check(payload, args.max_slowdown, args.facade_max_slowdown)
    checked = sum(
        1
        for entry in payload.get("results", [])
        if any(
            old in entry and new in entry
            for old, new in _TIMING_PAIRS
            + (_FACADE_PAIR, _SERVICE_PAIR, _REMOTE_PAIR, _CAMPAIGN_PAIR)
            + (_PARALLEL_PAIR, _FUSED_PAIR)
        )
    )
    if violations:
        print(f"FAIL: {len(violations)} fast-path slowdown(s) in {args.path}:")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print(f"OK: {checked} compared entries in {args.path} within {args.max_slowdown}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
