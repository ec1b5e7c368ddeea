"""The four benchmark workloads: inputs, one op, and the op's output check.

Each workload is a closed loop driven by one client: the runner calls
:meth:`Workload.op` back to back, times it, and checks its output outside the
timed region.  Inputs are a pure function of ``(seed, k)``, where ``k`` is
the op's index into a pool of ``pool`` distinct input sets (op ``i`` uses
``k = i % pool``).  The program receives only these generated inputs.
References that a check compares against are computed once per pool entry by
:meth:`Workload.prepare`, outside every timed region.

See ``README.md`` in this directory for why each workload was chosen and
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

import numpy as np

from repro import CrashSpec, FaultPlan, Study, run_study_service
from repro.algorithms.midpoint import MidpointAlgorithm
from repro.analysis.experiments import run_certification_sweep
from repro.asynchrony.round_based import RoundBasedAsyncAlgorithm
from repro.asynchrony.schedulers import RandomDelayScheduler, staggered_crash_schedule
from repro.asynchrony.simulator import AsynchronousSimulator
from repro.execution.batch import run_pattern_ensemble
from repro.graphs.families import complete_graph, cycle_graph, directed_star_graph
from repro.models.patterns import PeriodicPattern


class CheckFailed(Exception):
    """An op's output failed its check; the op counts as failed."""


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng((seed, *keys))


def _derived_seed(seed: int, *keys: int) -> int:
    return int(_rng(seed, *keys).integers(2**31))


def _faulted_pattern(n: int) -> PeriodicPattern:
    return PeriodicPattern([complete_graph(n), cycle_graph(n), directed_star_graph(n)])


def _fault_plan(seed: int) -> FaultPlan:
    """Drops plus one unclean crash of agent 0 at round 3 relaying to agent 1."""
    return FaultPlan(
        drop=0.2,
        crashes=(CrashSpec(agent=0, round=3, final_recipients=frozenset({1})),),
        f=2,
        enforce_model=False,
        seed=seed,
    )


def _same_bits(left: np.ndarray, right: np.ndarray) -> bool:
    return left.shape == right.shape and left.dtype == right.dtype and (
        left.tobytes() == right.tobytes()
    )


def _check_hull(initial: np.ndarray, outputs: np.ndarray, what: str) -> None:
    """Every ``(B, n, d)`` output lies in its scenario's initial hull."""
    low = initial.min(axis=1, keepdims=True)
    high = initial.max(axis=1, keepdims=True)
    if not np.all((outputs >= low) & (outputs <= high)):
        raise CheckFailed(f"{what}: outputs left the initial hull")


class Workload:
    """One closed-loop workload; subclasses fill in the four hooks."""

    name = ""
    unit_of_work = ""
    pool = 1

    def __init__(self, seed: int, work_dir: Optional[str] = None) -> None:
        self.seed = seed
        #: Where the workload may write files (service journals).
        self.work_dir = work_dir
        #: The active :class:`tracer.Tracer` during a traced pass, else None.
        self.tracer = None

    def span(self, phase: str):
        return nullcontext() if self.tracer is None else self.tracer.span(f"bench:{phase}")

    def shape(self) -> Dict[str, Any]:
        raise NotImplementedError

    def prepare(self, keys: Optional[List[int]] = None) -> None:
        """Generate inputs (and check references) for pool entries ``keys``."""
        raise NotImplementedError

    def op(self, k: int) -> Any:
        """The timed call into the public API for pool entry ``k``."""
        raise NotImplementedError

    def followup(self, k: int, result: Any) -> Optional[float]:
        """An extra timed call after the op; returns its latency in seconds."""
        return None

    def check(self, k: int, result: Any) -> None:
        """Raise :class:`CheckFailed` unless ``result`` is correct."""
        raise NotImplementedError

    def work(self, k: int, result: Any) -> float:
        """Units of work (see ``unit_of_work``) the op completed."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class FaultedEnsemble(Workload):
    name = "faulted_ensemble"
    unit_of_work = "scenario-round"
    pool = 16
    B, n, d, rounds = 64, 64, 1, 50
    oracle_slice = 2

    def shape(self):
        return {
            "B": self.B, "n": self.n, "d": self.d, "rounds": self.rounds,
            "record_every": self.rounds, "pattern": "[K_n, C_n, star_n]",
            "faults": "drop=0.2, unclean crash of 0 at round 3 -> {1}, f=2",
            "oracle_slice": self.oracle_slice, "pool": self.pool,
        }

    def prepare(self, keys=None):
        self.algorithm = MidpointAlgorithm()
        self.pattern = _faulted_pattern(self.n)
        self.inputs = {}
        self.references = {}
        for k in range(self.pool) if keys is None else keys:
            values = _rng(self.seed, k).uniform(-1.0, 1.0, (self.B, self.n, self.d))
            plan = _fault_plan(_derived_seed(self.seed, k, 1))
            self.inputs[k] = (values, plan)
            if keys is None:
                # The per-scenario oracle loop, on a slice starting at 0.
                self.references[k] = run_pattern_ensemble(
                    self.algorithm,
                    values[: self.oracle_slice],
                    self.pattern,
                    self.rounds,
                    record_every=self.rounds,
                    use_batch=False,
                    fault_plan=plan,
                ).recorded_outputs

    def op(self, k):
        values, plan = self.inputs[k]
        return Study(
            self.algorithm,
            initial_values=values,
            pattern=self.pattern,
            rounds=self.rounds,
            record_every=self.rounds,
            faults=plan,
        ).run()

    def check(self, k, result):
        values, _plan = self.inputs[k]
        recorded = result.execution.recorded_outputs
        if not _same_bits(recorded[:, : self.oracle_slice], self.references[k]):
            raise CheckFailed("batched outputs differ from the per-scenario oracle")
        _check_hull(values, result.final_outputs, "faulted_ensemble")

    def work(self, k, result):
        return self.B * self.rounds


class Table1Certify(Workload):
    name = "table1_certify"
    unit_of_work = "certified row"
    pool = 4
    sizes, ensemble_size = (4, 6), 8

    def shape(self):
        return {
            "sizes": list(self.sizes), "ensemble_size": self.ensemble_size,
            "rounds": 24, "suffix_rounds": 40, "exploration_depth": 0,
            "rows": 5, "pool": self.pool,
        }

    def prepare(self, keys=None):
        self.op_seeds = {}
        self.references = {}
        for k in range(self.pool) if keys is None else keys:
            self.op_seeds[k] = _derived_seed(self.seed, k)
            if keys is None:
                # A repeated seed must give identical rows.
                self.references[k] = json.dumps(self._sweep(k), sort_keys=True)

    def _sweep(self, k):
        # The reference calls this directly, so nothing done to op's result
        # can reach it.
        return run_certification_sweep(
            sizes=self.sizes, ensemble_size=self.ensemble_size, seed=self.op_seeds[k]
        )

    def op(self, k):
        return self._sweep(k)

    def check(self, k, result):
        uncertified = [row["name"] for row in result if not row["certified"]]
        if uncertified:
            raise CheckFailed(f"rows not certified: {uncertified}")
        if json.dumps(result, sort_keys=True) != self.references[k]:
            raise CheckFailed("a repeated seed gave different rows")

    def work(self, k, result):
        return len(result)


class ServiceJournal(Workload):
    name = "service_journal"
    unit_of_work = "scenario-round"
    pool = 4
    B, n, d, rounds = 128, 32, 1, 40
    workers, shard_size = 2, 16

    def shape(self):
        return {
            "B": self.B, "n": self.n, "d": self.d, "rounds": self.rounds,
            "record_every": self.rounds, "workers": self.workers,
            "shard_size": self.shard_size, "shards": self.B // self.shard_size,
            "pattern": "[K_n, C_n, star_n]",
            "faults": "drop=0.2, unclean crash of 0 at round 3 -> {1}, f=2",
            "pool": self.pool,
        }

    def prepare(self, keys=None):
        self.algorithm = MidpointAlgorithm()
        self.pattern = _faulted_pattern(self.n)
        if self.work_dir is not None:
            os.makedirs(self.work_dir, exist_ok=True)
        self.temp = tempfile.mkdtemp(prefix="journal-", dir=self.work_dir)
        self.journals = 0
        self.inputs = {}
        self.references = {}
        for k in range(self.pool) if keys is None else keys:
            values = _rng(self.seed, k).uniform(-1.0, 1.0, (self.B, self.n, self.d))
            plan = _fault_plan(_derived_seed(self.seed, k, 1))
            self.inputs[k] = (values, plan)
            if keys is None:
                self.references[k] = Study(
                    self.algorithm,
                    initial_values=values,
                    pattern=self.pattern,
                    rounds=self.rounds,
                    record_every=self.rounds,
                    faults=plan,
                ).run().execution.recorded_outputs

    def _call(self, k, journal, records):
        values, plan = self.inputs[k]
        return run_study_service(
            self.algorithm,
            initial_values=values,
            pattern=self.pattern,
            rounds=self.rounds,
            record_every=self.rounds,
            faults=plan,
            workers=self.workers,
            shard_size=self.shard_size,
            journal=journal,
            on_shard=records.append,
        )

    def op(self, k):
        self.journals += 1
        journal = os.path.join(self.temp, f"{self.journals}.jsonl")
        write_records: List = []
        with self.span("write"):
            merged = self._call(k, journal, write_records)
        return {"journal": journal, "merged": merged, "write": write_records}

    def followup(self, k, result):
        records: List = []
        start = time.perf_counter()
        with self.span("replay"):
            result["replayed"] = self._call(k, result["journal"], records)
        elapsed = time.perf_counter() - start
        result["replay"] = records
        os.remove(result["journal"])
        if self.tracer is not None:
            worker = [r for r in result["write"] if r.source == "worker"]
            hits = [r for r in result["write"] + records if r.source == "journal"]
            self.tracer.add("service.orchestrator.worker_s", sum(r.elapsed for r in worker))
            self.tracer.add("service.orchestrator.retries", sum(r.attempts - 1 for r in worker))
            self.tracer.add("service.orchestrator.journal_hits", len(hits))
        return elapsed

    def check(self, k, result):
        reference = self.references[k]
        shards = self.B // self.shard_size
        if not _same_bits(result["merged"].execution.recorded_outputs, reference):
            raise CheckFailed("merged service result differs from a direct Study")
        if not _same_bits(result["replayed"].execution.recorded_outputs, reference):
            raise CheckFailed("replayed service result differs from a direct Study")
        if len(result["write"]) != shards:
            raise CheckFailed(f"write completed {len(result['write'])} of {shards} shards")
        replay_sources = [record.source for record in result["replay"]]
        if replay_sources != ["journal"] * shards:
            raise CheckFailed(f"replay did not take every shard from the journal: {replay_sources}")

    def work(self, k, result):
        return self.B * self.rounds

    def close(self):
        shutil.rmtree(self.temp, ignore_errors=True)


class AsyncCrashes(Workload):
    name = "async_crashes"
    unit_of_work = "delivered message"
    pool = 8
    scenarios, n, f, max_time, tolerance = 4, 16, 4, 8.0, 1e-6

    def shape(self):
        return {
            "scenarios_per_op": self.scenarios, "n": self.n, "f": self.f,
            "max_time": self.max_time, "crashes": "staggered(range(4), first at 0.5)",
            "agreement_tolerance": self.tolerance, "pool": self.pool,
        }

    def prepare(self, keys=None):
        self.algorithm = RoundBasedAsyncAlgorithm(MidpointAlgorithm())
        self.inputs = {}
        for k in range(self.pool) if keys is None else keys:
            self.inputs[k] = [
                (
                    _rng(self.seed, k, j).uniform(-1.0, 1.0, self.n),
                    _derived_seed(self.seed, k, j, 1),
                )
                for j in range(self.scenarios)
            ]

    def op(self, k):
        runs = []
        for values, delay_seed in self.inputs[k]:
            execution = AsynchronousSimulator(
                self.algorithm,
                values,
                f=self.f,
                delay_scheduler=RandomDelayScheduler(seed=delay_seed),
                crash_schedule=staggered_crash_schedule(range(4), first_crash_time=0.5),
                max_time=self.max_time,
            ).run()
            runs.append((execution, execution.agreement_time(self.tolerance)))
        return runs

    def check(self, k, result):
        for (values, _seed), (execution, agreed) in zip(self.inputs[k], result):
            if agreed is None:
                raise CheckFailed("correct agents did not reach agreement")
            correct = set(execution.correct_agents())
            outputs = [s.value for s in execution.samples if s.agent in correct]
            outputs.append(execution.final_outputs[sorted(correct)])
            stacked = np.concatenate([np.reshape(o, (-1,)) for o in outputs])
            if stacked.min() < values.min() or stacked.max() > values.max():
                raise CheckFailed("a correct agent's output left the initial hull")

    def work(self, k, result):
        return sum(execution.delivered_messages for execution, _agreed in result)


WORKLOADS = {
    workload.name: workload
    for workload in (FaultedEnsemble, Table1Certify, ServiceJournal, AsyncCrashes)
}
