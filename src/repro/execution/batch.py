"""Batched ensemble execution: many independent scenarios in one pass.

The vectorized fast path of :mod:`repro.execution.engine` computes a round as
a masked reduction over the adjacency matrix.  Because every reduction
broadcasts over leading axes, an entire *ensemble* of ``B`` independent
scenarios — stacked ``(B, n, d)`` value tensors combined with per-scenario
graph sequences stacked into ``(B, n, n)`` adjacency tensors — runs through
the same NumPy expressions at once.  This is what opens scenario diversity at
scale: initial-value grids, pattern grids, and Monte-Carlo ensembles execute
in a handful of array operations per round instead of ``B`` separate Python
drive loops.

Entry points
------------
* :func:`run_ensemble` — run ``B`` scenarios against explicit per-round
  graphs (shared across scenarios or one per scenario).
* :func:`run_pattern_ensemble` — the same with oblivious
  :class:`~repro.models.patterns.CommunicationPattern` objects.
* :func:`run_adversarial_ensemble` — drive ``B`` scenarios under an adaptive
  adversary, evaluating a ``(B, C, n, d)`` candidate tensor per decision and
  committing a per-scenario argmax.
* :func:`sweep` — cross-product convenience over initial-value and pattern
  grids.

Algorithms without batch hooks fall back to scenario-by-scenario execution
through :func:`repro.execution.engine.apply_graph`, so the API is total.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algorithms.base import Algorithm
from repro.config import resolve_threads
from repro.exceptions import ConfigError, EnsembleShapeError, ExecutionError
from repro.execution.engine import _AdjacencyCache, apply_graph, initial_configuration
from repro.execution.parallel import parallel_map, shard_bounds
from repro.faults import FaultPlan, FaultSpec, as_fault_plan
from repro.execution.state import Configuration
from repro.graphs.digraph import CommunicationGraph
from repro.models.patterns import AdversarialPattern, CommunicationPattern, EnsemblePlan
from repro.types import ValuesLike, as_value_matrix, pairwise_diameters

#: One round of ensemble communication: a single graph shared by every
#: scenario, or one graph per scenario (length ``B``).
RoundGraphs = Union[CommunicationGraph, Sequence[CommunicationGraph]]


@dataclass
class EnsembleExecution:
    """The recorded trajectory of a batched ensemble run.

    Attributes
    ----------
    algorithm_name:
        Name of the algorithm that produced the ensemble.
    recorded_rounds:
        The round numbers of the recorded snapshots (always includes 0 and
        the final round).
    recorded_outputs:
        Array of shape ``(R, B, n, d)``: one ``(B, n, d)`` output tensor per
        recorded round.
    scenario_labels:
        Optional per-scenario labels (e.g. ``(value_index, pattern_index)``
        pairs produced by :func:`sweep`).
    batched:
        Provenance: ``True`` when the scenarios ran as one stacked ensemble
        through the batch hooks, ``False`` when the per-scenario fallback
        loop ran (``None`` on records predating the field).
    fault_plan:
        Provenance: the resolved :class:`~repro.faults.FaultPlan` the run
        was executed under (``None`` for fault-free runs — a zero plan is
        normalized to ``None`` before execution).
    recorded_configurations:
        Per-scenario configuration snapshots, present when the run was asked
        for them (``record_states=True``): entry ``[r][b]`` is scenario
        ``b``'s full :class:`~repro.execution.state.Configuration` (per-agent
        states plus outputs) at recorded round ``recorded_rounds[r]``.  On
        the batched path the snapshots are recorded batch states sliced per
        scenario through the algorithm's ``batch_map``/``batch_states``
        hooks, so they are exactly the configurations ``B`` independent
        single-scenario runs would record — which is what lets the ensemble
        certification engine restore them via ``batch_state_from_states``.
    """

    algorithm_name: str
    recorded_rounds: List[int]
    recorded_outputs: np.ndarray
    scenario_labels: Optional[List[object]] = field(default=None)
    batched: Optional[bool] = field(default=None)
    recorded_configurations: Optional[List[List[Configuration]]] = field(
        default=None, repr=False
    )
    fault_plan: Optional[FaultPlan] = field(default=None, repr=False)

    @property
    def batch_size(self) -> int:
        """Number of scenarios ``B``."""
        return int(self.recorded_outputs.shape[1])

    @property
    def n(self) -> int:
        """Number of agents per scenario."""
        return int(self.recorded_outputs.shape[2])

    @property
    def dimension(self) -> int:
        """Dimension ``d`` of the agents' values."""
        return int(self.recorded_outputs.shape[3])

    @property
    def rounds(self) -> int:
        """Number of executed rounds ``T``."""
        return self.recorded_rounds[-1]

    @property
    def final_outputs(self) -> np.ndarray:
        """The ``(B, n, d)`` output tensor after the last round."""
        return self.recorded_outputs[-1]

    def outputs_at_round(self, round_number: int) -> np.ndarray:
        """The ``(B, n, d)`` outputs of a recorded round."""
        try:
            index = self.recorded_rounds.index(round_number)
        except ValueError as exc:
            raise ExecutionError(
                f"round {round_number} was not recorded (recorded: {self.recorded_rounds})"
            ) from exc
        return self.recorded_outputs[index]

    def diameters(self) -> np.ndarray:
        """Per-scenario output diameters at every recorded round, shape ``(R, B)``."""
        return np.stack([_batch_diameters(snapshot) for snapshot in self.recorded_outputs])

    def final_diameters(self) -> np.ndarray:
        """Per-scenario output diameters after the last round, shape ``(B,)``."""
        return _batch_diameters(self.final_outputs)

    @property
    def has_recorded_states(self) -> bool:
        """Whether per-scenario configuration snapshots were recorded."""
        return self.recorded_configurations is not None

    def scenario_configurations(self, scenario: int) -> List[Configuration]:
        """Scenario ``scenario``'s recorded configurations, ``C_0 .. C_T``.

        The returned list matches what :func:`repro.execution.run_execution`
        would have recorded for that scenario alone (one configuration per
        entry of :attr:`recorded_rounds`).  Requires the run to have been
        executed with ``record_states=True``.
        """
        if self.recorded_configurations is None:
            raise ExecutionError(
                "per-scenario configurations were not recorded; rerun the ensemble "
                "with record_states=True"
            )
        if not 0 <= scenario < self.batch_size:
            raise ExecutionError(
                f"scenario {scenario} out of range for B={self.batch_size}"
            )
        return [per_round[scenario] for per_round in self.recorded_configurations]

    def convergence_rounds(self, tolerance: float) -> np.ndarray:
        """Per scenario, the first recorded round with diameter <= ``tolerance`` (-1 if never)."""
        diameters = self.diameters()
        result = np.full(self.batch_size, -1, dtype=int)
        for row, round_number in zip(diameters, self.recorded_rounds):
            hit = (row <= tolerance) & (result < 0)
            result[hit] = round_number
        return result

    def __repr__(self) -> str:
        return (
            f"EnsembleExecution({self.algorithm_name}, B={self.batch_size}, n={self.n}, "
            f"rounds={self.rounds}, mean final diam={float(self.final_diameters().mean()):.4g})"
        )


def _batch_diameters(outputs: np.ndarray) -> np.ndarray:
    """Euclidean output diameter of each scenario of a ``(B, n, d)`` tensor.

    For ``d == 1`` the diameter is exactly ``max - min``, computed in
    ``O(B·n)`` without the pairwise ``(B, n, n)`` distance tensor.  For
    ``d > 1`` the per-axis extremes prune the candidate endpoints first: a
    point whose distance to the farthest corner of the scenario's bounding box
    is below the best extreme-pair distance can never be an endpoint of the
    diameter, so only the (typically few) surviving points enter the exact
    pairwise pass.
    """
    outputs = np.asarray(outputs, dtype=float)
    batch_size, n, d = outputs.shape
    if n < 2:
        return np.zeros(batch_size, dtype=float)
    if d == 1:
        flat = outputs[..., 0]
        return flat.max(axis=-1) - flat.min(axis=-1)
    lo = outputs.min(axis=1)
    hi = outputs.max(axis=1)
    # Lower bound: the best pairwise distance among the per-axis extreme points.
    extreme_idx = np.concatenate([outputs.argmin(axis=1), outputs.argmax(axis=1)], axis=1)
    extremes = np.take_along_axis(outputs, extreme_idx[:, :, None], axis=1)  # (B, 2d, d)
    ext_diffs = extremes[:, :, None, :] - extremes[:, None, :, :]
    lower = np.sqrt((ext_diffs * ext_diffs).sum(axis=-1)).max(axis=(-1, -2))  # (B,)
    # Upper bound per point: distance to the farthest bounding-box corner.
    deviation = np.maximum(hi[:, None, :] - outputs, outputs - lo[:, None, :])
    reach = np.sqrt((deviation * deviation).sum(axis=-1))  # (B, n)
    survivors = reach >= lower[:, None]
    result = lower.copy()
    for scenario in range(batch_size):
        points = outputs[scenario][survivors[scenario]]
        if points.shape[0] >= 2:
            diffs = points[:, None, :] - points[None, :, :]
            best = float(np.sqrt((diffs * diffs).sum(axis=-1)).max())
            if best > result[scenario]:
                result[scenario] = best
    return result


def stack_initial_values(initial_values: Union[np.ndarray, Sequence[ValuesLike]]) -> np.ndarray:
    """Promote per-scenario initial values to a ``(B, n, d)`` float tensor."""
    if isinstance(initial_values, np.ndarray):
        if initial_values.ndim == 3:
            return initial_values.astype(float, copy=True)
        if initial_values.ndim != 2:
            raise EnsembleShapeError(
                f"ensemble initial values must be a (B, n, d) tensor or a sequence of "
                f"per-scenario value collections, got an array of shape {initial_values.shape}"
            )
    matrices = [as_value_matrix(values) for values in initial_values]
    if not matrices:
        raise EnsembleShapeError("an ensemble needs at least one scenario")
    shape = matrices[0].shape
    for index, matrix in enumerate(matrices):
        if matrix.shape != shape:
            raise EnsembleShapeError(
                f"scenario {index} has shape {matrix.shape}, expected {shape}: all scenarios "
                "of an ensemble must share n and d"
            )
    return np.stack(matrices)


def _validate_ensemble_values(values: np.ndarray) -> None:
    """Reject degenerate ``(B, n, d)`` stacks with a named-shape error."""
    if values.ndim != 3:
        raise EnsembleShapeError(
            f"ensemble initial values must stack to (B, n, d), got shape {values.shape}",
            expected="(B, n, d)",
            actual=tuple(values.shape),
        )
    batch_size, n, d = values.shape
    if batch_size < 1 or n < 1 or d < 1:
        raise EnsembleShapeError(
            f"ensemble initial values need B >= 1, n >= 1 and d >= 1, got "
            f"(B, n, d) = {values.shape}"
        )


def _validate_round_graphs(
    round_graphs: RoundGraphs, batch_size: int, n: int
) -> Optional[List[CommunicationGraph]]:
    """Validate one round entry against the *full* ensemble shape.

    Returns the per-scenario graph list, or ``None`` for a shared
    :class:`CommunicationGraph`.  Shared between the serial adjacency builder
    and the parallel backend's pre-shard validation, so a malformed schedule
    raises the identical :class:`EnsembleShapeError` — naming full-ensemble
    counts — no matter how many workers run the ensemble.
    """
    if isinstance(round_graphs, CommunicationGraph):
        if round_graphs.n != n:
            raise EnsembleShapeError(
                f"graph has {round_graphs.n} agents, scenarios have {n}"
            )
        return None
    try:
        graphs = list(round_graphs)
    except TypeError as exc:
        raise EnsembleShapeError(
            f"each ensemble round must be a CommunicationGraph or a length-{batch_size} "
            f"sequence of them, got {type(round_graphs).__name__}"
        ) from exc
    if len(graphs) != batch_size:
        raise EnsembleShapeError(
            f"per-scenario round needs {batch_size} graphs, got {len(graphs)}",
            expected=batch_size,
            actual=len(graphs),
        )
    for graph in graphs:
        if not isinstance(graph, CommunicationGraph):
            raise EnsembleShapeError(
                f"each ensemble round must be a CommunicationGraph or a length-{batch_size} "
                f"sequence of them, got an entry of type {type(graph).__name__}"
            )
        if graph.n != n:
            raise EnsembleShapeError(f"graph has {graph.n} agents, scenarios have {n}")
    return graphs


def _round_adjacency(
    round_graphs: RoundGraphs,
    batch_size: int,
    n: int,
    cache: Optional[_AdjacencyCache] = None,
) -> np.ndarray:
    """The adjacency tensor of one ensemble round: ``(n, n)`` shared or ``(B, n, n)``."""
    graphs = _validate_round_graphs(round_graphs, batch_size, n)
    if graphs is None:
        return round_graphs.adjacency
    first = graphs[0]
    if all(graph is first for graph in graphs):
        # A uniform per-scenario list broadcasts like a shared graph; skip the
        # (B, n, n) stack entirely.
        return first.adjacency
    if cache is not None:
        return cache.stacked(tuple(graphs))
    return np.stack([graph.adjacency for graph in graphs])


def _snapshot_scenario_configurations(
    algorithm: Algorithm,
    batch_state,
    outputs: np.ndarray,
    round_number: int,
) -> List[Configuration]:
    """Slice one recorded ``(B, ...)`` batch state into per-scenario configurations.

    Each scenario's slice goes through ``batch_map`` (leaf indexing) and
    ``batch_states`` (the snapshot direction of the batch-state contract), so
    the recorded per-agent states equal the ones ``B`` independent
    single-scenario fast-path runs would record.
    """
    configurations = []
    for scenario in range(outputs.shape[0]):
        single = algorithm.batch_map(batch_state, lambda leaf, _b=scenario: leaf[_b])
        configurations.append(
            Configuration(
                states=algorithm.batch_states(single),
                outputs=outputs[scenario].copy(),
                round_number=round_number,
            )
        )
    return configurations


def _supports_state_snapshots(algorithm: Algorithm, batch_state) -> bool:
    """Whether per-scenario snapshots can be sliced off this batch state."""
    try:
        algorithm.batch_map(batch_state, lambda leaf: leaf)
    except NotImplementedError:
        return False
    return True


def _round_graph_of_scenario(round_graphs: RoundGraphs, scenario: int) -> CommunicationGraph:
    if isinstance(round_graphs, CommunicationGraph):
        return round_graphs
    return round_graphs[scenario]


def run_ensemble(
    algorithm: Algorithm,
    initial_values: Union[np.ndarray, Sequence[ValuesLike]],
    graph_rounds: Sequence[RoundGraphs],
    record_every: int = 1,
    scenario_labels: Optional[Sequence[object]] = None,
    use_batch: Optional[bool] = None,
    record_states: bool = False,
    fault_plan: Optional[Union[FaultPlan, FaultSpec]] = None,
    threads: Optional[int] = None,
) -> EnsembleExecution:
    """Execute ``B`` independent scenarios through the vectorized fast path.

    Parameters
    ----------
    algorithm:
        The algorithm to run; batch-capable algorithms execute all scenarios
        at once, others fall back to a per-scenario loop.
    initial_values:
        A ``(B, n, d)`` tensor or a sequence of ``B`` per-agent value
        collections (all with the same ``n`` and ``d``).
    graph_rounds:
        One entry per round ``t``: either a single
        :class:`~repro.graphs.digraph.CommunicationGraph` applied to every
        scenario, or a length-``B`` sequence of per-scenario graphs.
    record_every:
        Keep every ``record_every``-th round snapshot in addition to the
        initial and final ones.
    scenario_labels:
        Optional labels stored on the result (one per scenario).
    use_batch:
        ``None`` (default) follows the algorithm's batch hooks; ``False``
        forces the per-scenario loop (the oracle the stacked path is checked
        against); ``True`` requires the stacked ensemble path (raising if the
        algorithm has no batch hooks).  Both paths are bit-for-bit
        identical.
    record_states:
        Additionally record per-scenario configuration snapshots (per-agent
        states) at every recorded round, enabling
        :meth:`EnsembleExecution.scenario_configurations` and ensemble-scale
        certification (:meth:`repro.core.valency.ValencyEstimator.certify_ensemble`).
        On the batched path the snapshots are sliced off the recorded batch
        states; algorithms whose batch state cannot be sliced (no
        ``batch_map``) take the per-scenario fallback loop instead.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` (or
        :class:`~repro.faults.FaultSpec`).  On the batched path the plan is
        compiled into per-round keep masks ANDed onto the stacked
        adjacency tensors — one vectorized mask application per round; the
        per-scenario fallback masks each scenario's graph with the same
        deterministic draws, so both paths stay bit-for-bit identical.
        With ``enforce_model=True`` every realized effective graph is
        checked against the crash model ``N_A`` and a violation raises
        :class:`~repro.exceptions.FaultModelError` naming the scenario,
        round and agent.  A zero plan is normalized to ``None``: the run
        is bit-for-bit identical to a fault-free one.
    threads:
        Parallel worker count: ``None`` (default) consults the active
        :class:`~repro.config.EngineConfig` (then the ``REPRO_THREADS`` env
        var, then 1).  With more than one worker the scenario axis is split
        into contiguous shards executed on a thread pool and merged through
        :func:`merge_ensemble_executions`; fault draws are sliced via
        ``scenario_base`` offsets, so the result is bit-for-bit identical
        to the serial run (see :mod:`repro.execution.parallel`).
    """
    if record_every < 1:
        raise ExecutionError(f"record_every must be >= 1, got {record_every}")
    values = stack_initial_values(initial_values)
    _validate_ensemble_values(values)
    batch_size, n, _d = values.shape
    labels = list(scenario_labels) if scenario_labels is not None else None
    if labels is not None and len(labels) != batch_size:
        raise ExecutionError(f"need {batch_size} scenario labels, got {len(labels)}")
    rounds = len(graph_rounds)
    plan = as_fault_plan(fault_plan)
    if plan is not None:
        plan.validate_for(n)

    if use_batch and not algorithm.supports_batch():
        raise ExecutionError(
            f"use_batch=True but {algorithm.name} does not implement the batch hooks"
        )
    worker_count = resolve_threads(threads)
    if worker_count > 1 and batch_size > 1:
        return _run_ensemble_sharded(
            algorithm,
            values,
            graph_rounds,
            record_every,
            labels,
            use_batch,
            record_states,
            plan,
            worker_count,
        )
    if not algorithm.supports_batch() or use_batch is False:
        return _run_ensemble_slow(
            algorithm, values, graph_rounds, record_every, labels, record_states, plan
        )

    batch_state = algorithm.batch_initial(values)
    if record_states and not _supports_state_snapshots(algorithm, batch_state):
        return _run_ensemble_slow(
            algorithm, values, graph_rounds, record_every, labels, record_states, plan
        )
    recorded_rounds = [0]
    recorded = [np.array(algorithm.batch_outputs(batch_state), dtype=float)]
    recorded_configurations: Optional[List[List[Configuration]]] = None
    if record_states:
        recorded_configurations = [
            _snapshot_scenario_configurations(algorithm, batch_state, recorded[0], 0)
        ]
    adjacency_cache = _AdjacencyCache()
    for t, round_graphs in enumerate(graph_rounds, start=1):
        adjacency = _round_adjacency(round_graphs, batch_size, n, cache=adjacency_cache)
        if plan is not None:
            # One vectorized mask application per round (instead of B
            # per-scenario Python loops), with the N_A invariant check.
            adjacency = plan.apply_to_adjacency(adjacency, t, batch_size)
        batch_state = algorithm.batch_transition(batch_state, adjacency, t)
        if t % record_every == 0 or t == rounds:
            recorded_rounds.append(t)
            recorded.append(np.array(algorithm.batch_outputs(batch_state), dtype=float))
            if recorded_configurations is not None:
                recorded_configurations.append(
                    _snapshot_scenario_configurations(
                        algorithm, batch_state, recorded[-1], t
                    )
                )

    return EnsembleExecution(
        algorithm_name=algorithm.name,
        recorded_rounds=recorded_rounds,
        recorded_outputs=np.stack(recorded),
        scenario_labels=labels,
        batched=True,
        recorded_configurations=recorded_configurations,
        fault_plan=plan,
    )


def _slice_round_graphs(
    graph_rounds: Sequence[RoundGraphs], start: int, stop: int, n: int, batch_size: int
) -> List[RoundGraphs]:
    """Per-round graph slices for scenarios ``[start, stop)``.

    A round entry shared by every scenario is passed through unchanged (the
    shard broadcasts it exactly as the full run would); per-scenario lists
    are sliced.  Every entry is validated against the *full* ensemble shape
    first, so a malformed schedule raises the same error — with the same
    full-ensemble counts — the serial run would raise.
    """
    sliced: List[RoundGraphs] = []
    for round_graphs in graph_rounds:
        graphs = _validate_round_graphs(round_graphs, batch_size, n)
        sliced.append(round_graphs if graphs is None else graphs[start:stop])
    return sliced


def _run_ensemble_sharded(
    algorithm: Algorithm,
    values: np.ndarray,
    graph_rounds: Sequence[RoundGraphs],
    record_every: int,
    labels: Optional[List[object]],
    use_batch: Optional[bool],
    record_states: bool,
    plan: Optional[FaultPlan],
    worker_count: int,
) -> EnsembleExecution:
    """Parallel backend of :func:`run_ensemble`: contiguous B-axis shards.

    Each shard re-runs :func:`run_ensemble` with ``threads=1`` on a worker
    thread under the caller's merged config (see
    :func:`repro.execution.parallel.parallel_map`); a shard covering global
    scenarios ``[start, stop)`` draws its faults from a ``scenario_base``
    ``+ start`` copy of the plan, which samples the exact slice of the
    unsharded plan's draws.  Merging through
    :func:`merge_ensemble_executions` rebuilds the record the serial run
    would have produced, bit-for-bit.
    """
    graph_rounds = list(graph_rounds)

    def _shard_task(start: int, stop: int):
        shard_plan = (
            replace(plan, scenario_base=plan.scenario_base + start)
            if plan is not None
            else None
        )
        shard_labels = labels[start:stop] if labels is not None else None
        shard_rounds = _slice_round_graphs(
            graph_rounds, start, stop, n=values.shape[-2], batch_size=values.shape[0]
        )
        shard_values = values[start:stop]
        return lambda: run_ensemble(
            algorithm,
            shard_values,
            shard_rounds,
            record_every=record_every,
            scenario_labels=shard_labels,
            use_batch=use_batch,
            record_states=record_states,
            fault_plan=shard_plan,
            threads=1,
        )

    bounds = shard_bounds(values.shape[0], worker_count)
    shards = parallel_map(
        [_shard_task(start, stop) for start, stop in bounds], worker_count
    )
    return merge_ensemble_executions(shards, fault_plan=plan)


def _run_ensemble_slow(
    algorithm: Algorithm,
    values: np.ndarray,
    graph_rounds: Sequence[RoundGraphs],
    record_every: int,
    labels: Optional[List[object]],
    record_states: bool = False,
    plan: Optional[FaultPlan] = None,
) -> EnsembleExecution:
    """Per-scenario fallback for algorithms without batch hooks.

    Faults are applied per scenario through
    :meth:`~repro.faults.FaultPlan.apply_to_graph`, whose masks equal the
    batched path's stacked masks slice-for-slice — the reference loop the
    fuzz harness checks the vectorized fault path against.
    """
    batch_size = values.shape[0]
    rounds = len(graph_rounds)
    per_scenario: List[List[np.ndarray]] = []
    per_scenario_configs: List[List[Configuration]] = []
    recorded_rounds = [0] + [
        t for t in range(1, rounds + 1) if t % record_every == 0 or t == rounds
    ]
    for scenario in range(batch_size):
        configuration = initial_configuration(algorithm, values[scenario])
        snapshots = [configuration.outputs.copy()]
        configs = [configuration] if record_states else None
        for t, round_graphs in enumerate(graph_rounds, start=1):
            graph = _round_graph_of_scenario(round_graphs, scenario)
            if plan is not None:
                graph = plan.apply_to_graph(graph, t, scenario)
            configuration = apply_graph(algorithm, configuration, graph)
            if t % record_every == 0 or t == rounds:
                snapshots.append(configuration.outputs.copy())
                if configs is not None:
                    configs.append(configuration)
        per_scenario.append(snapshots)
        if configs is not None:
            per_scenario_configs.append(configs)
    recorded = [
        np.stack([per_scenario[b][r] for b in range(batch_size)])
        for r in range(len(recorded_rounds))
    ]
    recorded_configurations = (
        [
            [per_scenario_configs[b][r] for b in range(batch_size)]
            for r in range(len(recorded_rounds))
        ]
        if record_states
        else None
    )
    return EnsembleExecution(
        algorithm_name=algorithm.name,
        recorded_rounds=recorded_rounds,
        recorded_outputs=np.stack(recorded),
        scenario_labels=labels,
        batched=False,
        recorded_configurations=recorded_configurations,
        fault_plan=plan,
    )


@dataclass
class AdversarialEnsembleExecution(EnsembleExecution):
    """An ensemble run driven by an adaptive adversary.

    In addition to the recorded outputs, the per-round, per-scenario graph
    choices the adversary committed are kept (``round_choices[t - 1][b]`` is
    the graph scenario ``b`` saw in round ``t``).
    """

    round_choices: List[List[CommunicationGraph]] = field(default_factory=list)

    def scenario_graphs(self, scenario: int) -> List[CommunicationGraph]:
        """The graph sequence committed against scenario ``scenario``."""
        return [choices[scenario] for choices in self.round_choices]


def _validate_plan_candidates(
    candidates: Sequence[Sequence[CommunicationGraph]], n: int
) -> None:
    for candidate in candidates:
        for graph in candidate:
            if graph.n != n:
                raise EnsembleShapeError(
                    f"candidate graph has {graph.n} agents, scenarios have {n}"
                )


def _uniform_scenario_plans(
    plans: Sequence[EnsemblePlan], batch_size: int, n: int
) -> Tuple[List[List[List[CommunicationGraph]]], int, int, int]:
    """Validate per-scenario plans and return (candidate lists, C, horizon, commit).

    The stacked ``(B, C, n, n)`` evaluation requires every scenario's plan to
    share the candidate count, horizon and commit window; anything else is a
    shape error, named explicitly instead of surfacing as a NumPy broadcast
    failure.
    """
    plans = list(plans)
    if len(plans) != batch_size:
        raise EnsembleShapeError(
            f"ensemble_plans must return one plan per scenario ({batch_size}), "
            f"got {len(plans)}"
        )
    for plan in plans:
        if not isinstance(plan, EnsemblePlan):
            raise EnsembleShapeError(
                f"ensemble_plans entries must be EnsemblePlan instances, "
                f"got {type(plan).__name__}"
            )
    counts = {len(plan.candidates) for plan in plans}
    horizons = {plan.horizon for plan in plans}
    commits = {plan.commit_rounds for plan in plans}
    if len(counts) != 1 or len(horizons) != 1 or len(commits) != 1:
        raise EnsembleShapeError(
            "per-scenario plans must share one candidate count, horizon and commit "
            f"window; got counts {sorted(counts)}, horizons {sorted(horizons)}, "
            f"commit windows {sorted(commits)}"
        )
    candidate_lists = [[list(candidate) for candidate in plan.candidates] for plan in plans]
    for candidates in candidate_lists:
        _validate_plan_candidates(candidates, n)
    return candidate_lists, counts.pop(), horizons.pop(), commits.pop()


def run_adversarial_ensemble(
    algorithm: Algorithm,
    initial_values: Union[np.ndarray, Sequence[ValuesLike]],
    adversary: AdversarialPattern,
    rounds: int,
    record_every: int = 1,
    scenario_labels: Optional[Sequence[object]] = None,
    use_batch: Optional[bool] = None,
    record_states: bool = False,
    fault_plan: Optional[Union[FaultPlan, FaultSpec]] = None,
    threads: Optional[int] = None,
) -> AdversarialEnsembleExecution:
    """Drive ``B`` scenarios under an adaptive adversary in one batched loop.

    Each decision evaluates the adversary's candidate graph sequences against
    *every* scenario at once — a ``(B, C, n, d)`` candidate tensor computed by
    broadcasting the ensemble state against the stacked ``(C, n, n)``
    candidate adjacencies — and commits a per-scenario argmax of the successor
    output diameters.  The committed choices are exactly the ones ``B``
    independent per-scenario runs of the same adversary would make (enforced
    by ``tests/test_adversary_batch.py``), so worst-case sweeps scale with the
    hardware instead of with Python-level simulation loops.

    History-dependent adversaries (per-scenario candidate sets) advertise
    their decisions through
    :meth:`~repro.models.patterns.AdversarialPattern.ensemble_plans`: the
    runner hands them each scenario's committed history and evaluates the
    returned per-scenario plans as one ``(B, C, n, n)`` stacked pass, so the
    argmax commit matches the per-scenario reference adversary
    choice-for-choice.

    Falls back to scenario-by-scenario :func:`repro.execution.run_execution`
    when the algorithm has no batch hooks, the adversary implements neither
    plan hook, or ``use_batch=False`` asks for the per-scenario oracle.

    Fault injection is not supported on the adversarial route (a non-zero
    ``fault_plan`` raises :class:`~repro.exceptions.ConfigError`): the
    adversary evaluates and commits *raw* candidate graphs while faults
    would mask the applied ones, so the committed history and the realized
    execution would diverge.  Run the adversary fault-free, then replay its
    committed per-scenario graph schedules as a faulted ``graphs``-route
    ensemble (what :func:`repro.analysis.experiments.run_certification_sweep`
    does for its faulted certification rows).

    ``threads`` (resolved through the active config like
    :func:`run_ensemble`) shards the scenario axis across worker threads;
    every decision the batched runner makes is a *per-scenario* argmax over
    per-scenario histories, so each shard — driving its own deep copy of the
    adversary — commits exactly the choices the full run commits for its
    scenarios, and the merged record is bit-for-bit identical to the serial
    run.
    """
    if rounds < 0:
        raise ExecutionError(f"rounds must be non-negative, got {rounds}")
    if as_fault_plan(fault_plan) is not None:
        raise ConfigError(
            "run_adversarial_ensemble does not support fault injection: the "
            "adversary's committed graph history would diverge from the faulted "
            "realized graphs; run the adversary fault-free and replay its "
            "committed schedules as a faulted graphs-route ensemble instead"
        )
    if record_every < 1:
        raise ExecutionError(f"record_every must be >= 1, got {record_every}")
    values = stack_initial_values(initial_values)
    _validate_ensemble_values(values)
    batch_size, n, _d = values.shape
    labels = list(scenario_labels) if scenario_labels is not None else None
    if labels is not None and len(labels) != batch_size:
        raise ExecutionError(f"need {batch_size} scenario labels, got {len(labels)}")
    if not isinstance(adversary, AdversarialPattern):
        raise ExecutionError(
            f"run_adversarial_ensemble needs an AdversarialPattern, got {type(adversary).__name__}"
        )
    worker_count = resolve_threads(threads)
    if worker_count > 1 and batch_size > 1:
        return _run_adversarial_ensemble_sharded(
            algorithm,
            values,
            adversary,
            rounds,
            record_every,
            labels,
            use_batch,
            record_states,
            worker_count,
        )
    batchable = algorithm.supports_batch() and use_batch is not False
    # One-time probe: adversaries that keep the base-class ensemble_plans
    # always answer None, so the runner skips the per-round call (and the
    # per-scenario history copies it would need) entirely for them.
    history_dependent = (
        type(adversary).ensemble_plans is not AdversarialPattern.ensemble_plans
    )
    first_scenario_plans = (
        adversary.ensemble_plans(1, n, [[] for _ in range(batch_size)])
        if batchable and history_dependent
        else None
    )
    first_plan = (
        adversary.ensemble_plan(1, n)
        if batchable and first_scenario_plans is None
        else None
    )
    if first_scenario_plans is None and first_plan is None:
        return _run_adversarial_ensemble_slow(
            algorithm, values, adversary, rounds, record_every, labels, record_states
        )

    batch_state = algorithm.batch_initial(values)
    try:
        # Capability probe: batch-capable algorithms with structured state
        # predating the batch_map hook take the per-scenario fallback instead
        # of crashing mid-run.
        algorithm.batch_map(batch_state, lambda a: a)
    except NotImplementedError:
        return _run_adversarial_ensemble_slow(
            algorithm, values, adversary, rounds, record_every, labels, record_states
        )
    recorded_rounds = [0]
    recorded = [np.array(algorithm.batch_outputs(batch_state), dtype=float)]
    recorded_configurations: Optional[List[List[Configuration]]] = None
    if record_states:
        recorded_configurations = [
            _snapshot_scenario_configurations(algorithm, batch_state, recorded[0], 0)
        ]
    round_choices: List[List[CommunicationGraph]] = []
    histories: List[List[CommunicationGraph]] = [[] for _ in range(batch_size)]
    cache = _AdjacencyCache()

    t = 1
    while t <= rounds:
        if t == 1:
            scenario_plans, plan = first_scenario_plans, first_plan
        else:
            scenario_plans = (
                adversary.ensemble_plans(t, n, [list(history) for history in histories])
                if history_dependent
                else None
            )
            plan = adversary.ensemble_plan(t, n) if scenario_plans is None else None
        if scenario_plans is not None:
            per_scenario, count, horizon, commit_rounds = _uniform_scenario_plans(
                scenario_plans, batch_size, n
            )

            def adjacency_at(offset: int, _plans=per_scenario, _count=count) -> np.ndarray:
                # (B, C, n, n): one stacked candidate pass per scenario.
                return np.stack(
                    [
                        cache.stacked(
                            tuple(candidates[c][offset] for c in range(_count))
                        )
                        for candidates in _plans
                    ]
                )

            def candidates_of(scenario: int, _plans=per_scenario):
                return _plans[scenario]

        elif plan is not None:
            candidates = [list(candidate) for candidate in plan.candidates]
            _validate_plan_candidates(candidates, n)
            count, horizon, commit_rounds = len(candidates), plan.horizon, plan.commit_rounds

            def adjacency_at(offset: int, _candidates=candidates) -> np.ndarray:
                # (C, n, n), shared by every scenario.
                return cache.stacked(
                    tuple(candidate[offset] for candidate in _candidates)
                )

            def candidates_of(scenario: int, _candidates=candidates):
                return _candidates

        else:
            raise ExecutionError(
                f"{type(adversary).__name__}.ensemble_plan returned None mid-run"
            )

        # Evaluate all candidates against all scenarios at once: insert a
        # candidate axis into the batch state and let the stacked candidate
        # adjacencies broadcast it to (B, C, n, d).
        candidate_state = algorithm.batch_map(batch_state, lambda a: a[:, None, ...])
        for offset in range(horizon):
            candidate_state = algorithm.batch_transition(
                candidate_state, adjacency_at(offset), t + offset
            )
        outputs = np.asarray(algorithm.batch_outputs(candidate_state), dtype=float)
        outputs = np.broadcast_to(outputs, (batch_size, count, n, outputs.shape[-1]))
        diameters = pairwise_diameters(outputs)  # (B, C)

        # Per-scenario strict-improvement scan — the vectorized equivalent of
        # the per-scenario adversaries' first-graph-wins tie-breaking.
        best = np.full(batch_size, -1.0)
        choices = np.zeros(batch_size, dtype=int)
        for candidate_index in range(count):
            improved = diameters[:, candidate_index] > best + 1e-15
            best = np.where(improved, diameters[:, candidate_index], best)
            choices = np.where(improved, candidate_index, choices)

        commit = min(commit_rounds, rounds - t + 1)
        for offset in range(commit):
            committed = [
                candidates_of(b)[choices[b]][offset] for b in range(batch_size)
            ]
            adjacency = _round_adjacency(committed, batch_size, n, cache=cache)
            batch_state = algorithm.batch_transition(batch_state, adjacency, t)
            round_choices.append(committed)
            if history_dependent:
                for scenario, graph in enumerate(committed):
                    histories[scenario].append(graph)
            if t % record_every == 0 or t == rounds:
                recorded_rounds.append(t)
                recorded.append(np.array(algorithm.batch_outputs(batch_state), dtype=float))
                if recorded_configurations is not None:
                    recorded_configurations.append(
                        _snapshot_scenario_configurations(
                            algorithm, batch_state, recorded[-1], t
                        )
                    )
            t += 1

    return AdversarialEnsembleExecution(
        algorithm_name=algorithm.name,
        recorded_rounds=recorded_rounds,
        recorded_outputs=np.stack(recorded),
        scenario_labels=labels,
        round_choices=round_choices,
        batched=True,
        recorded_configurations=recorded_configurations,
    )


def _run_adversarial_ensemble_sharded(
    algorithm: Algorithm,
    values: np.ndarray,
    adversary: AdversarialPattern,
    rounds: int,
    record_every: int,
    labels: Optional[List[object]],
    use_batch: Optional[bool],
    record_states: bool,
    worker_count: int,
) -> AdversarialEnsembleExecution:
    """Parallel backend of :func:`run_adversarial_ensemble`.

    Safe to shard because every commit of the (batched or per-scenario)
    adversarial runner is a per-scenario argmax over that scenario's own
    committed history; each shard drives an independent ``copy.deepcopy`` of
    the adversary, so stateful adversaries neither race nor observe other
    shards' scenarios.  The shipped adversaries' plans depend only on
    ``(round, n, per-scenario history)`` — the differential matrix in
    ``tests/test_parallel_backend.py`` enforces choice-for-choice equality
    with the serial run.
    """

    def _shard_task(start: int, stop: int):
        shard_adversary = copy.deepcopy(adversary)
        shard_labels = labels[start:stop] if labels is not None else None
        shard_values = values[start:stop]
        return lambda: run_adversarial_ensemble(
            algorithm,
            shard_values,
            shard_adversary,
            rounds,
            record_every=record_every,
            scenario_labels=shard_labels,
            use_batch=use_batch,
            record_states=record_states,
            threads=1,
        )

    bounds = shard_bounds(values.shape[0], worker_count)
    shards = parallel_map(
        [_shard_task(start, stop) for start, stop in bounds], worker_count
    )
    merged = merge_ensemble_executions(shards)
    assert isinstance(merged, AdversarialEnsembleExecution)
    return merged


def _run_adversarial_ensemble_slow(
    algorithm: Algorithm,
    values: np.ndarray,
    adversary: AdversarialPattern,
    rounds: int,
    record_every: int,
    labels: Optional[List[object]],
    record_states: bool = False,
) -> AdversarialEnsembleExecution:
    """Scenario-by-scenario fallback driving the adversary through run_execution."""
    from repro.execution.engine import run_execution  # local import avoids a cycle

    batch_size = values.shape[0]
    per_scenario_outputs: List[List[np.ndarray]] = []
    per_scenario_configs: List[List[Configuration]] = []
    per_scenario_graphs: List[List[CommunicationGraph]] = []
    recorded_rounds: List[int] = []
    for scenario in range(batch_size):
        execution = run_execution(
            algorithm, values[scenario], adversary, rounds, record_every=record_every
        )
        recorded_rounds = [c.round_number for c in execution.configurations]
        per_scenario_outputs.append([c.outputs.copy() for c in execution.configurations])
        if record_states:
            per_scenario_configs.append(list(execution.configurations))
        per_scenario_graphs.append(list(execution.graphs))
    recorded = [
        np.stack([per_scenario_outputs[b][r] for b in range(batch_size)])
        for r in range(len(recorded_rounds))
    ]
    round_choices = [
        [per_scenario_graphs[b][t] for b in range(batch_size)] for t in range(rounds)
    ]
    recorded_configurations = (
        [
            [per_scenario_configs[b][r] for b in range(batch_size)]
            for r in range(len(recorded_rounds))
        ]
        if record_states
        else None
    )
    return AdversarialEnsembleExecution(
        algorithm_name=algorithm.name,
        recorded_rounds=recorded_rounds,
        recorded_outputs=np.stack(recorded),
        scenario_labels=labels,
        round_choices=round_choices,
        batched=False,
        recorded_configurations=recorded_configurations,
    )


def materialize_pattern(pattern: CommunicationPattern, rounds: int) -> List[CommunicationGraph]:
    """Evaluate an oblivious pattern's first ``rounds`` graphs.

    Adaptive patterns cannot be materialized ahead of the execution and raise
    :class:`~repro.exceptions.ExecutionError` (run them one scenario at a time
    through :func:`repro.execution.run_execution`).
    """
    pattern.reset()
    return [pattern.graph_at(t) for t in range(1, rounds + 1)]


def run_pattern_ensemble(
    algorithm: Algorithm,
    initial_values: Union[np.ndarray, Sequence[ValuesLike]],
    patterns: Union[CommunicationPattern, Sequence[CommunicationPattern]],
    rounds: int,
    record_every: int = 1,
    scenario_labels: Optional[Sequence[object]] = None,
    use_batch: Optional[bool] = None,
    record_states: bool = False,
    fault_plan: Optional[Union[FaultPlan, FaultSpec]] = None,
    threads: Optional[int] = None,
) -> EnsembleExecution:
    """Run an ensemble against oblivious communication patterns.

    ``patterns`` is a single pattern shared by every scenario or one pattern
    per scenario.  ``fault_plan`` masks the materialized graphs exactly as
    on the ``graphs`` route (see :func:`run_ensemble`).  ``threads`` shards
    the scenario axis exactly as on the ``graphs`` route; the patterns are
    materialized *before* sharding (on the caller thread), so stateful
    pattern objects never race.
    """
    if rounds < 0:
        raise ExecutionError(f"rounds must be non-negative, got {rounds}")
    values = stack_initial_values(initial_values)
    _validate_ensemble_values(values)
    batch_size = values.shape[0]
    if isinstance(patterns, CommunicationPattern):
        graph_rounds: List[RoundGraphs] = list(materialize_pattern(patterns, rounds))
    else:
        pattern_list = list(patterns)
        if len(pattern_list) != batch_size:
            raise ExecutionError(
                f"need one pattern per scenario ({batch_size}), got {len(pattern_list)}"
            )
        per_pattern = [materialize_pattern(p, rounds) for p in pattern_list]
        graph_rounds = [
            [per_pattern[b][t] for b in range(batch_size)] for t in range(rounds)
        ]
    return run_ensemble(
        algorithm,
        values,
        graph_rounds,
        record_every=record_every,
        scenario_labels=scenario_labels,
        use_batch=use_batch,
        record_states=record_states,
        fault_plan=fault_plan,
        threads=threads,
    )


def sweep(
    algorithm: Algorithm,
    initial_values_grid: Sequence[ValuesLike],
    patterns: Union[CommunicationPattern, Sequence[CommunicationPattern]],
    rounds: int,
    record_every: int = 1,
) -> EnsembleExecution:
    """Cross-product sweep over initial-value and pattern grids.

    Builds one scenario per ``(initial values, pattern)`` pair and executes
    the whole grid as a single batched ensemble.  Each scenario is labelled
    ``(value_index, pattern_index)`` so results can be pivoted back onto the
    grid.
    """
    values_list = [as_value_matrix(values) for values in initial_values_grid]
    if not values_list:
        raise ExecutionError("a sweep needs at least one initial-value vector")
    pattern_list = (
        [patterns] if isinstance(patterns, CommunicationPattern) else list(patterns)
    )
    if not pattern_list:
        raise ExecutionError("a sweep needs at least one pattern")
    per_pattern = [materialize_pattern(p, rounds) for p in pattern_list]

    stacked: List[np.ndarray] = []
    labels: List[Tuple[int, int]] = []
    scenario_graphs: List[List[CommunicationGraph]] = []
    for value_index, values in enumerate(values_list):
        for pattern_index in range(len(pattern_list)):
            stacked.append(values)
            labels.append((value_index, pattern_index))
            scenario_graphs.append(per_pattern[pattern_index])
    graph_rounds: List[RoundGraphs] = [
        [scenario_graphs[b][t] for b in range(len(stacked))] for t in range(rounds)
    ]
    return run_ensemble(
        algorithm,
        stack_initial_values(stacked),
        graph_rounds,
        record_every=record_every,
        scenario_labels=labels,
    )


def merge_ensemble_executions(
    shards: Sequence[EnsembleExecution],
    fault_plan: Optional[FaultPlan] = None,
) -> EnsembleExecution:
    """Concatenate shard ensembles along the scenario axis, deterministically.

    The inverse of slicing an ensemble study into shard jobs: given the
    shards **in scenario order**, rebuilds the ``(R, B, n, d)`` record a
    single run over the full ensemble would have produced — recorded
    outputs, labels and per-scenario configuration snapshots are
    concatenated bit-for-bit (no recomputation happens here).  The shards
    must agree on algorithm, recorded rounds and the ``batched`` provenance
    flag; labels and configuration snapshots must be present on all shards
    or on none.

    ``fault_plan`` overrides the merged record's provenance plan: each
    shard ran under a ``scenario_base``-offset copy of the study's plan, so
    the caller passes the study-level plan the full run would have carried.
    Without the override the shards must all carry the same plan (the
    fault-free ``None`` included).

    Adversarial shards merge too — including their per-round committed graph
    choices — but only when *every* shard is an
    :class:`AdversarialEnsembleExecution` (mixing provenances is an error).
    By handing adversarial shards to this function the caller asserts the
    slicing did not change the adversary's choices; the parallel backend
    guarantees that by driving a per-shard adversary copy whose commits are
    per-scenario argmaxes (see
    :func:`repro.execution.batch.run_adversarial_ensemble`).
    """
    shard_list = list(shards)
    if not shard_list:
        raise ExecutionError("merging needs at least one shard ensemble")
    adversarial_flags = [
        isinstance(shard, AdversarialEnsembleExecution) for shard in shard_list
    ]
    if any(adversarial_flags) and not all(adversarial_flags):
        raise ExecutionError(
            "adversarial and non-adversarial ensembles cannot be merged into "
            "one record: the shards ran different routes"
        )
    all_adversarial = all(adversarial_flags)
    for shard in shard_list:
        if not isinstance(shard, EnsembleExecution):
            raise ExecutionError(
                f"merging needs EnsembleExecution shards, got {type(shard).__name__}"
            )
    first = shard_list[0]
    for index, shard in enumerate(shard_list[1:], start=1):
        if shard.algorithm_name != first.algorithm_name:
            raise ExecutionError(
                f"shard {index} ran algorithm {shard.algorithm_name!r}, "
                f"shard 0 ran {first.algorithm_name!r}"
            )
        if list(shard.recorded_rounds) != list(first.recorded_rounds):
            raise ExecutionError(
                f"shard {index} recorded rounds {shard.recorded_rounds}, "
                f"shard 0 recorded {first.recorded_rounds}"
            )
        if shard.batched != first.batched:
            raise ExecutionError(
                f"shard {index} has batched={shard.batched}, "
                f"shard 0 has batched={first.batched}: shards must run under "
                "the same engine configuration"
            )
        if shard.recorded_outputs.shape[2:] != first.recorded_outputs.shape[2:]:
            raise ExecutionError(
                f"shard {index} has per-scenario shape "
                f"{shard.recorded_outputs.shape[2:]}, shard 0 has "
                f"{first.recorded_outputs.shape[2:]}"
            )
    with_labels = [shard.scenario_labels is not None for shard in shard_list]
    if any(with_labels) and not all(with_labels):
        raise ExecutionError(
            "scenario labels must be present on every shard or on none"
        )
    with_states = [shard.recorded_configurations is not None for shard in shard_list]
    if any(with_states) and not all(with_states):
        raise ExecutionError(
            "recorded configurations must be present on every shard or on none"
        )
    if fault_plan is None:
        plans = {shard.fault_plan for shard in shard_list}
        if len(plans) != 1:
            raise ExecutionError(
                "shards carry differing fault plans; pass fault_plan= with the "
                "study-level plan the merged record should report"
            )
        fault_plan = shard_list[0].fault_plan
    merged_labels = (
        [label for shard in shard_list for label in shard.scenario_labels]
        if all(with_labels)
        else None
    )
    merged_configurations = None
    if all(with_states):
        merged_configurations = [
            [
                configuration
                for shard in shard_list
                for configuration in shard.recorded_configurations[r]
            ]
            for r in range(len(first.recorded_rounds))
        ]
    merged_outputs = np.concatenate(
        [shard.recorded_outputs for shard in shard_list], axis=1
    )
    if all_adversarial:
        choice_counts = {len(shard.round_choices) for shard in shard_list}
        if len(choice_counts) != 1:
            raise ExecutionError(
                f"adversarial shards committed differing round counts "
                f"{sorted(choice_counts)}; shards must cover the same horizon"
            )
        merged_choices = [
            [choice for shard in shard_list for choice in shard.round_choices[t]]
            for t in range(choice_counts.pop())
        ]
        return AdversarialEnsembleExecution(
            algorithm_name=first.algorithm_name,
            recorded_rounds=list(first.recorded_rounds),
            recorded_outputs=merged_outputs,
            scenario_labels=merged_labels,
            batched=first.batched,
            recorded_configurations=merged_configurations,
            fault_plan=fault_plan,
            round_choices=merged_choices,
        )
    return EnsembleExecution(
        algorithm_name=first.algorithm_name,
        recorded_rounds=list(first.recorded_rounds),
        recorded_outputs=merged_outputs,
        scenario_labels=merged_labels,
        batched=first.batched,
        recorded_configurations=merged_configurations,
        fault_plan=fault_plan,
    )
