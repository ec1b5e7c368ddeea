"""The crash-safe study orchestrator: shard, dispatch, retry, merge.

:func:`run_study_service` mirrors the :class:`~repro.api.Study` front door
but executes the study as *shard jobs* across a pool of worker processes:

1. the ``(B, n, d)`` scenario axis is split into contiguous shards, each a
   self-contained serialized job (algorithm, sliced scenario, model,
   certification spec, ``scenario_base``-offset fault plan, and the
   **explicitly merged** engine config — so fork and spawn workers see the
   identical configuration);
2. jobs are keyed by a content hash and checked against the checkpoint
   journal first — a killed orchestrator resumes by re-running only the
   missing shards, and identical shards (within or across studies)
   deduplicate;
3. workers prove liveness through heartbeats; a worker killed by a signal,
   or one that exceeds its wall-clock or heartbeat budget, is classified as
   a *transient* failure and retried with exponential backoff, while
   deterministic engine failures (:class:`~repro.exceptions.FaultModelError`
   and friends) fail fast on the first attempt;
4. completed shards are journaled immediately (crash-durable) and streamed
   to the ``on_shard`` callback; the final merge concatenates the shard
   ensembles in scenario order, bit-for-bit identical to the single-process
   :class:`~repro.api.Study` run regardless of worker count, completion
   order, or crash/resume cycles.

With ``strict=True`` (default) an exhausted shard raises its underlying
error; ``strict=False`` degrades gracefully and always returns a
:class:`PartialStudyResult` whose ``failures`` list records every exhausted
shard.  :func:`run_certification_sweep_service` applies the same machinery
to the certification sweep's grid rows.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import (
    ConfigError,
    ServiceError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.service.checkpoint import CheckpointJournal, content_key
from repro.service.retry import RetryPolicy
from repro.service.worker import error_from_descriptor, shard_worker_main


@dataclass(frozen=True)
class ShardRecord:
    """One completed shard: where its result came from and what it cost.

    ``source`` is ``"worker"`` for a freshly computed shard, ``"journal"``
    for a checkpoint replay (including in-run deduplication of identical
    shards).
    """

    shard: int
    key: str
    start: int
    stop: int
    attempts: int
    source: str
    elapsed: float


@dataclass(frozen=True)
class ShardFailure:
    """One exhausted shard: the error that ended it and how hard we tried."""

    shard: int
    key: str
    attempts: int
    error: BaseException
    error_type: str
    message: str
    traceback: Optional[str] = None


@dataclass
class PartialStudyResult:
    """Graceful-degradation result of a service run (``strict=False``).

    ``result`` is the fully merged result when every shard completed —
    a :class:`~repro.api.StudyResult` for :func:`run_study_service`, the
    sweep-row list for :func:`run_certification_sweep_service` — and
    ``None`` otherwise.  ``shards`` records every *completed* shard in
    scenario order; ``failures`` records every exhausted one.
    """

    result: Optional[Any]
    shards: List[ShardRecord] = field(default_factory=list)
    failures: List[ShardFailure] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.failures

    def __repr__(self) -> str:
        return (
            f"PartialStudyResult(complete={self.complete}, "
            f"shards={len(self.shards)}, failures={len(self.failures)})"
        )


# --------------------------------------------------------------------- #
# Internal job scheduler
# --------------------------------------------------------------------- #


@dataclass
class _Job:
    """One content-keyed unit of work (possibly covering several shards)."""

    key: str
    payload: Dict[str, Any]
    shards: List[int]
    attempts: int = 0
    retry_at: float = 0.0


class _Scheduler:
    """Dispatch jobs to worker processes; retry, time out, journal, stream."""

    def __init__(
        self,
        jobs: List[_Job],
        *,
        workers: int,
        journal: Optional[CheckpointJournal],
        retry: RetryPolicy,
        shard_timeout: Optional[float],
        heartbeat_interval: float,
        heartbeat_timeout: Optional[float],
        start_method: Optional[str],
        fault_markers: Optional[Dict[int, Dict[str, str]]],
    ) -> None:
        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
            raise ConfigError(f"workers must be a positive int, got {workers!r}")
        self._jobs = {job.key: job for job in jobs}
        self._order = [job.key for job in jobs]
        self._workers = workers
        self._journal = journal
        self._retry = retry
        self._shard_timeout = shard_timeout
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout
        self._fault_markers = fault_markers or {}
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._context = multiprocessing.get_context(start_method)
        self.results: Dict[str, Any] = {}
        self.failures: Dict[str, ShardFailure] = {}
        self.records: Dict[str, ShardRecord] = {}
        self._waiting: Dict[str, _Job] = {}
        self._running: Dict[str, Dict[str, Any]] = {}
        self._on_shard: Optional[Callable[[ShardRecord], None]] = None

    # -- journal replay ------------------------------------------------- #

    def _replay_journal(self) -> None:
        if self._journal is None:
            return
        for key in self._order:
            cached = self._journal.get(key)
            if cached is not None:
                job = self._jobs[key]
                self.results[key] = cached
                self.records[key] = ShardRecord(
                    shard=job.shards[0],
                    key=key,
                    start=job.payload["service"]["start"],
                    stop=job.payload["service"]["stop"],
                    attempts=0,
                    source="journal",
                    elapsed=0.0,
                )

    # -- worker lifecycle ----------------------------------------------- #

    def _spawn(self, job: _Job, queue) -> Dict[str, Any]:
        job.attempts += 1
        payload = dict(job.payload)
        service = dict(payload["service"])
        service["attempt"] = job.attempts
        service["heartbeat_interval"] = self._heartbeat_interval
        markers = self._fault_markers.get(job.shards[0])
        if markers:
            service["markers"] = markers
        payload["service"] = service
        process = self._context.Process(
            target=shard_worker_main, args=(payload, queue), daemon=True
        )
        process.start()
        now = time.monotonic()
        return {
            "job": job,
            "process": process,
            "attempt": job.attempts,
            "started": now,
            "last_beat": now,
        }

    def _complete(self, job: _Job, result: Any, elapsed: float) -> None:
        self.results[job.key] = result
        if self._journal is not None:
            self._journal.put(job.key, result, kind=job.payload["kind"])
        self.records[job.key] = ShardRecord(
            shard=job.shards[0],
            key=job.key,
            start=job.payload["service"]["start"],
            stop=job.payload["service"]["stop"],
            attempts=job.attempts,
            source="worker",
            elapsed=elapsed,
        )

    def _fail(self, job: _Job, error: BaseException, trace: Optional[str]) -> None:
        if self._retry.should_retry(error, job.attempts):
            delay = self._retry.delay_before(job.attempts + 1, job.key)
            job.retry_at = time.monotonic() + delay
            return
        self.failures[job.key] = ShardFailure(
            shard=job.shards[0],
            key=job.key,
            attempts=job.attempts,
            error=error,
            error_type=type(error).__name__,
            message=str(error),
            traceback=trace,
        )

    # -- main loop ------------------------------------------------------ #

    def run(self, on_shard: Optional[Callable[[ShardRecord], None]] = None) -> None:
        self._replay_journal()
        if on_shard is not None:
            for key in self._order:
                if key in self.records:
                    on_shard(self.records[key])
        self._waiting = {
            key: self._jobs[key]
            for key in self._order
            if key not in self.results and key not in self.failures
        }
        if not self._waiting:
            return
        queue = self._context.Queue()
        running: Dict[str, Dict[str, Any]] = {}
        self._running = running
        self._on_shard = on_shard
        try:
            while self._waiting or running:
                now = time.monotonic()
                # Launch every ready job for which a worker slot is free.
                for key in list(self._waiting):
                    if len(running) >= self._workers:
                        break
                    job = self._waiting[key]
                    if job.retry_at > now:
                        continue
                    del self._waiting[key]
                    running[key] = self._spawn(job, queue)
                if not running:
                    # Every remaining job is parked in its retry backoff.
                    time.sleep(0.01)
                    continue
                # Drain every queued message, blocking briefly on the first.
                self._drain(queue, block=True)
                now = time.monotonic()
                for key, info in list(running.items()):
                    process = info["process"]
                    if process.exitcode is not None:
                        # One final drain: the worker may have flushed its
                        # result between our last drain and its exit.
                        self._drain(queue, block=False)
                        if key not in running:
                            continue
                        del running[key]
                        process.join()
                        job = info["job"]
                        error = WorkerCrashError(
                            f"worker for shard {job.shards[0]} "
                            f"(attempt {job.attempts}) exited with code "
                            f"{process.exitcode} without reporting a result",
                            exitcode=process.exitcode,
                        )
                        self._fail_or_retry(job, error, None)
                        continue
                    timed_out = (
                        self._shard_timeout is not None
                        and now - info["started"] > self._shard_timeout
                    )
                    hung = (
                        self._heartbeat_timeout is not None
                        and now - info["last_beat"] > self._heartbeat_timeout
                    )
                    if timed_out or hung:
                        process.kill()
                        process.join()
                        del running[key]
                        job = info["job"]
                        kind = "timeout" if timed_out else "heartbeat"
                        budget = (
                            self._shard_timeout if timed_out else self._heartbeat_timeout
                        )
                        error = ShardTimeoutError(
                            f"worker for shard {job.shards[0]} "
                            f"(attempt {job.attempts}) exceeded its "
                            f"{kind} budget of {budget}s",
                            elapsed=now - info["started"],
                            kind=kind,
                        )
                        self._fail_or_retry(job, error, None)
        finally:
            for info in running.values():
                if info["process"].is_alive():
                    info["process"].kill()
                info["process"].join()
            queue.close()
            queue.join_thread()

    def _fail_or_retry(self, job: _Job, error: BaseException, trace) -> None:
        """Record a terminal failure, or park the job for a delayed retry."""
        self._fail(job, error, trace)
        if job.key not in self.failures:
            self._waiting[job.key] = job

    def _drain(self, queue, *, block: bool) -> None:
        import queue as queue_module

        running = self._running
        first = block
        while True:
            try:
                message = queue.get(timeout=0.05) if first else queue.get_nowait()
            except queue_module.Empty:
                return
            first = False
            tag, key = message[0], message[1]
            info = running.get(key)
            if info is None:
                continue  # a late message from a killed attempt
            if tag == "heartbeat":
                info["last_beat"] = time.monotonic()
                continue
            attempt = message[2]
            if attempt != info["attempt"]:
                continue  # stale message from a retried attempt
            job = info["job"]
            del running[key]
            info["process"].join()
            if tag == "result":
                self._complete(job, message[3], time.monotonic() - info["started"])
                if self._on_shard is not None:
                    self._on_shard(self.records[job.key])
            elif tag == "error":
                descriptor = message[3]
                self._fail_or_retry(
                    job,
                    error_from_descriptor(descriptor),
                    descriptor.get("traceback"),
                )


# --------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------- #


def _open_journal(journal: Union[CheckpointJournal, str, Path, None]):
    if journal is None:
        return None, False
    if isinstance(journal, CheckpointJournal):
        return journal, False
    return CheckpointJournal(journal), True


def _shard_bounds(batch: int, workers: int, shard_size: Optional[int]) -> List[tuple]:
    if shard_size is None:
        shard_size = max(1, -(-batch // max(workers, 1)))
    if isinstance(shard_size, bool) or not isinstance(shard_size, int) or shard_size < 1:
        raise ConfigError(f"shard_size must be a positive int, got {shard_size!r}")
    return [(start, min(start + shard_size, batch)) for start in range(0, batch, shard_size)]


def _run_scheduler(
    jobs: List[_Job],
    *,
    workers: int,
    journal: Optional[CheckpointJournal],
    retry: RetryPolicy,
    shard_timeout: Optional[float],
    heartbeat_interval: float,
    heartbeat_timeout: Optional[float],
    start_method: Optional[str],
    fault_markers: Optional[Dict[int, Dict[str, str]]],
    on_shard: Optional[Callable[[ShardRecord], None]],
) -> _Scheduler:
    scheduler = _Scheduler(
        jobs,
        workers=workers,
        journal=journal,
        retry=retry,
        shard_timeout=shard_timeout,
        heartbeat_interval=heartbeat_interval,
        heartbeat_timeout=heartbeat_timeout,
        start_method=start_method,
        fault_markers=fault_markers,
    )
    scheduler.run(on_shard)
    return scheduler


def _dispatch(
    jobs: List[_Job],
    *,
    remote,
    workers: int,
    journal: Optional[CheckpointJournal],
    retry: Optional[RetryPolicy],
    shard_timeout: Optional[float],
    heartbeat_interval: float,
    heartbeat_timeout: Optional[float],
    start_method: Optional[str],
    fault_markers: Optional[Dict[int, Dict[str, str]]],
    on_shard: Optional[Callable[[ShardRecord], None]],
):
    """Route jobs to the local pool or, with ``remote=``, the queue server."""
    if remote is not None:
        from repro.service.remote.client import run_remote
        from repro.service.remote.protocol import as_remote_config

        if fault_markers:
            raise ConfigError(
                "_fault_markers drive the local worker pool and cannot be "
                "combined with remote=; arm the remote worker's --kill-marker "
                "/ --hang-marker flags instead"
            )
        return run_remote(
            jobs,
            remote=as_remote_config(remote),
            journal=journal,
            on_shard=on_shard,
        )
    return _run_scheduler(
        jobs,
        workers=workers,
        journal=journal,
        retry=retry if retry is not None else RetryPolicy(),
        shard_timeout=shard_timeout,
        heartbeat_interval=heartbeat_interval,
        heartbeat_timeout=heartbeat_timeout,
        start_method=start_method,
        fault_markers=fault_markers,
        on_shard=on_shard,
    )


def run_study_service(
    algorithm,
    *,
    scenario=None,
    initial_values=None,
    rounds=None,
    pattern=None,
    graphs=None,
    record_every: int = 1,
    scenario_labels=None,
    model=None,
    certify=None,
    faults=None,
    config=None,
    workers: int = 4,
    shard_size: Optional[int] = None,
    journal: Union[CheckpointJournal, str, Path, None] = None,
    retry: Optional[RetryPolicy] = None,
    strict: bool = True,
    shard_timeout: Optional[float] = None,
    heartbeat_interval: float = 0.2,
    heartbeat_timeout: Optional[float] = None,
    start_method: Optional[str] = None,
    on_shard: Optional[Callable[[ShardRecord], None]] = None,
    remote=None,
    _fault_markers: Optional[Dict[int, Dict[str, str]]] = None,
):
    """Run a :class:`~repro.api.Study` as crash-safe shard jobs.

    The study parameters (everything up to ``config``) mirror
    :class:`repro.api.Study`; adversarial scenarios are rejected — an
    adaptive adversary reacts to the *whole* ensemble, so slicing it would
    change its choices (and its decision procedure is arbitrary code that
    does not serialize).  The remaining parameters drive the service layer:

    ``workers``
        Worker process pool size (and the default shard count).
    ``shard_size``
        Scenarios per shard; default splits the batch evenly over the pool.
    ``journal``
        A :class:`~repro.service.checkpoint.CheckpointJournal` (or a path
        to one) for crash-safe resume and cross-study deduplication.
    ``retry``
        The :class:`~repro.service.retry.RetryPolicy`; transient failures
        (killed/hung workers) back off and retry, deterministic engine
        errors fail fast.
    ``strict``
        ``True`` (default) returns the merged
        :class:`~repro.api.StudyResult` and *raises* the underlying error
        of the first exhausted shard.  ``False`` always returns a
        :class:`PartialStudyResult`.
    ``shard_timeout`` / ``heartbeat_interval`` / ``heartbeat_timeout``
        Per-attempt wall-clock budget and worker-liveness policing; a shard
        that exceeds either is killed and classified transient.
    ``on_shard``
        Streaming callback, invoked with each completed
        :class:`ShardRecord` as soon as the shard's result is journaled.
    ``remote``
        A :class:`~repro.service.remote.RemoteConfig` (or a queue server
        URL).  When set, jobs are dispatched to the remote job-queue
        server instead of the local multiprocessing pool; the worker-pool
        knobs (``workers``, timeouts, ``start_method``) are ignored —
        lease and retry policy live on the server — while ``journal``,
        ``retry``-independent resume, ``strict`` and ``on_shard`` behave
        identically.

    The merged result is **bit-for-bit identical** to the single-process
    ``Study(...).run()`` — outputs, diameters, certificates and provenance
    (modulo nothing: the merged config travels explicitly with every shard).

    Because the shipped config includes ``threads``, process-level sharding
    composes with the thread-level parallel backend: each worker re-enters
    the merged :class:`~repro.config.EngineConfig` and — when it carries
    ``threads > 1`` — shards its own B-slice across a thread pool (see
    :mod:`repro.execution.parallel`), without changing a byte of the merged
    result.  Size ``workers * threads`` to the machine's core count to avoid
    oversubscription.
    """
    from repro.api import Study
    from repro.config import EngineConfig, current_engine_config
    from repro.faults import as_fault_plan
    from repro.service.serialization import (
        encode_algorithm,
        encode_certify_spec,
        encode_model,
        encode_scenario_spec,
    )

    study = Study(
        algorithm=algorithm,
        scenario=scenario,
        initial_values=initial_values,
        rounds=rounds,
        pattern=pattern,
        graphs=graphs,
        record_every=record_every,
        scenario_labels=scenario_labels,
        model=model,
        certify=certify,
        faults=faults,
        config=config,
    )
    spec = study._spec
    if spec.adversary is not None:
        raise ConfigError(
            "adversarial studies cannot be sharded: the adversary adapts to "
            "the whole ensemble; run the adversary through Study directly and "
            "replay its committed schedules as a graphs= service study"
        )
    study_config = study._config if study._config is not None else EngineConfig()
    with study_config:
        merged_config = current_engine_config()
        resolved_plan = as_fault_plan(study._faults)

    algorithm_payload = encode_algorithm(study._algorithm)
    model_payload = None if study._model is None else encode_model(study._model)
    certify_payload = (
        None if study._certify is None else encode_certify_spec(study._certify)
    )
    config_payload = merged_config.to_dict()

    if not spec.is_ensemble():
        bounds = [(0, 1)]
    else:
        batch = int(np.asarray(spec.initial_values, dtype=float).shape[0])
        bounds = _shard_bounds(batch, workers, shard_size)

    jobs: List[_Job] = []
    jobs_by_key: Dict[str, _Job] = {}
    for index, (start, stop) in enumerate(bounds):
        shard_spec = _slice_scenario(spec, start, stop)
        shard_plan = resolved_plan
        if shard_plan is not None and spec.is_ensemble():
            shard_plan = replace(
                shard_plan, scenario_base=shard_plan.scenario_base + start
            )
        body = {
            "kind": "study_shard",
            "algorithm": algorithm_payload,
            "scenario": encode_scenario_spec(shard_spec),
            "model": model_payload,
            "certify": certify_payload,
            "faults": None if shard_plan is None else shard_plan.to_dict(),
            "config": config_payload,
        }
        key = content_key(body)
        existing = jobs_by_key.get(key)
        if existing is not None:
            existing.shards.append(index)
            continue
        job = _Job(
            key=key,
            payload={
                "kind": "study_shard",
                "body": body,
                "service": {"key": key, "start": start, "stop": stop},
            },
            shards=[index],
        )
        jobs.append(job)
        jobs_by_key[key] = job

    opened_journal, owns_journal = _open_journal(journal)
    try:
        scheduler = _dispatch(
            jobs,
            remote=remote,
            workers=workers,
            journal=opened_journal,
            retry=retry,
            shard_timeout=shard_timeout,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            start_method=start_method,
            fault_markers=_fault_markers,
            on_shard=on_shard,
        )
    finally:
        if owns_journal and opened_journal is not None:
            opened_journal.close()

    records, failures = _collect(scheduler, jobs, jobs_by_key)
    if failures:
        if strict:
            raise failures[0].error
        return PartialStudyResult(result=None, shards=records, failures=failures)
    merged = _merge_study_shards(
        [scheduler.results[job.key] for job in jobs],
        jobs,
        resolved_plan,
        ensemble=spec.is_ensemble(),
    )
    if strict:
        return merged
    return PartialStudyResult(result=merged, shards=records, failures=[])


def _slice_scenario(spec, start: int, stop: int):
    """The ``[start, stop)`` scenario slice of an ensemble spec."""
    from repro.api import ScenarioSpec
    from repro.models.patterns import CommunicationPattern

    if not spec.is_ensemble():
        return spec
    values = np.asarray(spec.initial_values, dtype=float)[start:stop]
    labels = (
        None
        if spec.scenario_labels is None
        else list(spec.scenario_labels)[start:stop]
    )
    pattern = spec.pattern
    if pattern is not None and not isinstance(pattern, CommunicationPattern):
        pattern = list(pattern)[start:stop]
    graphs = None
    if spec.graphs is not None:
        graphs = [
            entry if _is_shared_round(entry) else list(entry)[start:stop]
            for entry in spec.graphs
        ]
    return ScenarioSpec(
        initial_values=values,
        rounds=spec.rounds if graphs is None else None,
        pattern=pattern,
        graphs=graphs,
        record_every=spec.record_every,
        scenario_labels=labels,
    )


def _is_shared_round(entry) -> bool:
    from repro.graphs.digraph import CommunicationGraph

    return isinstance(entry, CommunicationGraph)


def _collect(scheduler: _Scheduler, jobs, jobs_by_key):
    """Per-shard records/failures in scenario order from the job-level maps."""
    records: List[ShardRecord] = []
    failures: List[ShardFailure] = []
    for job in jobs:
        record = scheduler.records.get(job.key)
        failure = scheduler.failures.get(job.key)
        for shard_index in job.shards:
            if record is not None:
                source = record.source if shard_index == job.shards[0] else "journal"
                records.append(replace(record, shard=shard_index, source=source))
            elif failure is not None:
                failures.append(replace(failure, shard=shard_index))
    records.sort(key=lambda record: record.shard)
    failures.sort(key=lambda failure: failure.shard)
    return records, failures


def _merge_study_shards(result_payloads, jobs, resolved_plan, *, ensemble: bool):
    """Decode journaled shard payloads and merge them in scenario order."""
    from repro.api import StudyResult
    from repro.execution.batch import merge_ensemble_executions

    # Expand deduplicated jobs back to one decoded result per shard index.
    by_shard: Dict[int, Any] = {}
    for job, payload in zip(jobs, result_payloads):
        decoded = StudyResult.from_dict(payload)
        for shard_index in job.shards:
            by_shard[shard_index] = decoded
    ordered = [by_shard[index] for index in sorted(by_shard)]
    if not ensemble:
        if len(ordered) != 1:
            raise ServiceError(
                f"single-scenario study produced {len(ordered)} shards"
            )
        return ordered[0]
    if len(ordered) == 1 and ordered[0].execution.fault_plan == resolved_plan:
        return ordered[0]
    execution = merge_ensemble_executions(
        [result.execution for result in ordered], fault_plan=resolved_plan
    )
    certificates = None
    if ordered[0].certificates is not None:
        certificates = [
            certificate
            for result in ordered
            for certificate in result.certificates
        ]
    return StudyResult(
        execution=execution,
        provenance=ordered[0].provenance,
        certificates=certificates,
    )


def run_certification_sweep_service(
    sizes: Sequence[int] = (4, 6),
    rounds: int = 24,
    suffix_rounds: int = 40,
    exploration_depth: int = 0,
    config=None,
    ensemble_size: Optional[int] = None,
    ensemble_spread: float = 0.05,
    seed: int = 0,
    faults=None,
    *,
    workers: int = 4,
    journal: Union[CheckpointJournal, str, Path, None] = None,
    retry: Optional[RetryPolicy] = None,
    strict: bool = True,
    shard_timeout: Optional[float] = None,
    heartbeat_interval: float = 0.2,
    heartbeat_timeout: Optional[float] = None,
    start_method: Optional[str] = None,
    on_shard: Optional[Callable[[ShardRecord], None]] = None,
    remote=None,
    _fault_markers: Optional[Dict[int, Dict[str, str]]] = None,
):
    """Run the certification sweep with each grid row as one shard job.

    Mirrors :func:`repro.analysis.experiments.run_certification_sweep`
    (identical rows, in the identical order) but dispatches every row as a
    retry-protected, journaled worker job.  The service parameters match
    :func:`run_study_service`.
    """
    from repro.analysis.experiments import certification_sweep_rows
    from repro.config import EngineConfig, current_engine_config

    sweep_config = config if config is not None else EngineConfig()
    with sweep_config:
        merged_config = current_engine_config()
        descriptors = certification_sweep_rows(
            sizes=sizes,
            rounds=rounds,
            suffix_rounds=suffix_rounds,
            exploration_depth=exploration_depth,
            ensemble_size=ensemble_size,
            ensemble_spread=ensemble_spread,
            seed=seed,
            faults=faults,
        )
    config_payload = merged_config.to_dict()

    jobs: List[_Job] = []
    jobs_by_key: Dict[str, _Job] = {}
    for index, descriptor in enumerate(descriptors):
        body = {"kind": "sweep_row", "row": descriptor, "config": config_payload}
        key = content_key(body)
        existing = jobs_by_key.get(key)
        if existing is not None:
            existing.shards.append(index)
            continue
        job = _Job(
            key=key,
            payload={
                "kind": "sweep_row",
                "body": body,
                "service": {"key": key, "start": index, "stop": index + 1},
            },
            shards=[index],
        )
        jobs.append(job)
        jobs_by_key[key] = job

    opened_journal, owns_journal = _open_journal(journal)
    try:
        scheduler = _dispatch(
            jobs,
            remote=remote,
            workers=workers,
            journal=opened_journal,
            retry=retry,
            shard_timeout=shard_timeout,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            start_method=start_method,
            fault_markers=_fault_markers,
            on_shard=on_shard,
        )
    finally:
        if owns_journal and opened_journal is not None:
            opened_journal.close()

    records, failures = _collect(scheduler, jobs, jobs_by_key)
    if failures:
        if strict:
            raise failures[0].error
        return PartialStudyResult(result=None, shards=records, failures=failures)
    by_row: Dict[int, Any] = {}
    for job in jobs:
        row = scheduler.results[job.key]["row"]
        for shard_index in job.shards:
            by_row[shard_index] = row
    rows = [by_row[index] for index in sorted(by_row)]
    if strict:
        return rows
    return PartialStudyResult(result=rows, shards=records, failures=[])


__all__ = [
    "PartialStudyResult",
    "ShardFailure",
    "ShardRecord",
    "run_certification_sweep_service",
    "run_study_service",
]
