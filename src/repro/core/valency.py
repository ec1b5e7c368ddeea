"""Valency estimation for asymptotic consensus algorithms.

Section 3 defines the *valency* ``Y*_N(C)`` of a configuration ``C`` as the
set of limits reachable from ``C`` in the network model ``N``, and
``δ_N(C) = diam(Y*_N(C))`` as its diameter.  The lower-bound proofs construct
executions along which ``δ_N(C_t)`` shrinks no faster than the claimed
contraction rate.

Valencies of arbitrary algorithms cannot be computed exactly (they quantify
over infinitely many futures), but they can be *under-approximated* by
sampling futures: every sampled future's limit is a member of the valency, so
the diameter of the sampled limits is a lower bound on ``δ_N(C)``.  The
:class:`ValencyEstimator` samples

* the constant suffixes ``G, G, G, ...`` for every ``G`` in the model — these
  are exactly the suffixes used in the proofs of Lemma 7 and Lemma 8 (run a
  graph in which some agent is deaf forever); and
* optionally, all graph sequences up to a bounded depth followed by constant
  suffixes (exhaustive exploration for small models).

For convex-combination algorithms the diameter of the current outputs is an
*upper* bound on ``δ_N(C)`` (the limit always lies in the convex hull of the
current values), so the estimator can also report certified two-sided bounds.

The algorithm's capabilities pick the evaluation path:

* the **batched path** (algorithms with batch hooks) enumerates all
  sampled futures of one exploration depth as a stacked scenario ensemble —
  per-round ``(K, n, n)`` adjacency stacks driven through the algorithm's
  ``batch_*`` hooks — so a whole valency estimate costs a handful of array
  operations per round instead of ``K`` Python-level executions.  Candidate
  prefixes are *streamed* in bounded chunks (never materializing the full
  ``|N|^depth`` product), and an active-set drops scenarios that reached an
  exact float fixpoint from the constant-suffix loop early (valid for
  round-invariant algorithms: a fixed point of a constant graph stays fixed).
  Memoryless convex-combination algorithms rebuild state from configuration
  outputs; *stateful* batch algorithms (e.g. the amortized midpoint) are
  covered through the ``batch_state`` snapshot/restore hooks
  (:meth:`~repro.algorithms.base.Algorithm.batch_state_from_states`), which
  resume the recorded per-agent states exactly.  Estimates at many
  configurations (a trace, a recorded ensemble) share passes: configurations
  are grouped by round number (round-dependent algorithms only) and by the
  restored state with its arrays stripped, e.g. the amortized midpoint's
  phase position (:meth:`ValencyEstimator._estimates`).
* the **reference path** (any algorithm without batch hooks) runs one
  ``run_from_configuration`` per sampled future.

Both paths produce bit-for-bit identical estimates (enforced by
``tests/test_valency_batch.py``, which calls the reference loop directly).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import Algorithm, ConvexCombinationAlgorithm
from repro.config import resolve_scenario_chunk, resolve_threads
from repro.exceptions import ConfigError, EnsembleShapeError, ExecutionError
from repro.execution.batch import EnsembleExecution
from repro.execution.engine import run_from_configuration
from repro.execution.state import Configuration
from repro.graphs.digraph import CommunicationGraph
from repro.models.network_model import NetworkModel
from repro.types import pairwise_diameters


def validate_estimator_parameters(
    suffix_rounds: int, exploration_depth: int, scenario_chunk: Optional[int]
) -> None:
    """Reject estimator parameters no valency pass can run with.

    Shared by :class:`ValencyEstimator` and :class:`repro.api.CertifySpec`,
    so a bad certification request fails at construction with
    :class:`~repro.exceptions.ConfigError` rather than after its execution.
    ``scenario_chunk=None`` (inherit from the config) is accepted.
    """
    if suffix_rounds < 1:
        raise ConfigError(f"suffix_rounds must be >= 1, got {suffix_rounds}")
    if exploration_depth < 0:
        raise ConfigError(f"exploration_depth must be >= 0, got {exploration_depth}")
    if scenario_chunk is not None and scenario_chunk < 1:
        raise ConfigError(f"scenario_chunk must be >= 1, got {scenario_chunk}")


@dataclass
class ValencyEstimate:
    """Result of a valency estimation at one configuration.

    Attributes
    ----------
    limits:
        ``(k, d)`` array of estimated reachable limits (one per sampled
        future).
    lower_diameter:
        Diameter of the sampled limits — a lower bound on ``δ_N(C)`` up to
        the convergence error of the suffix runs.
    upper_diameter:
        For convex-combination algorithms, the diameter of the current
        outputs (an upper bound on ``δ_N(C)``); ``None`` otherwise.
    """

    limits: np.ndarray
    lower_diameter: float
    upper_diameter: Optional[float]


class ValencyEstimator:
    """Estimate valencies ``Y*_N(C)`` and their diameters ``δ_N(C)``.

    Parameters
    ----------
    algorithm:
        The asymptotic consensus algorithm under study.
    model:
        The network model ``N`` (a finite set of graphs).
    suffix_rounds:
        How many rounds each sampled future is run for; the limit is
        approximated by the centroid of the final outputs, with error at most
        the final output diameter for convex-combination algorithms.
    exploration_depth:
        All graph sequences of this length are explored exhaustively before
        appending constant suffixes.  Depth 0 (the default) samples only the
        constant suffixes, which is sufficient for the paper's constructions.
    scenario_chunk:
        Upper bound on the number of stacked scenarios per batched pass
        (``None`` resolves through the active config, default 4096).
        Exhaustive prefixes are streamed in chunks respecting this bound, so
        peak memory stays ``O(scenario_chunk · n²)`` regardless of
        ``|N|^depth``.
    threads:
        Parallel worker count for :meth:`certify_ensemble` (``None``
        resolves through the active config, then ``REPRO_THREADS``, default
        1).  Scenarios certify independently — their futures never interact
        — so the ensemble's scenario axis shards across worker threads with
        bit-for-bit identical estimates (enforced by
        ``tests/test_parallel_backend.py``).
    """

    def __init__(
        self,
        algorithm: Algorithm,
        model: NetworkModel,
        suffix_rounds: int = 60,
        exploration_depth: int = 0,
        scenario_chunk: Optional[int] = None,
        threads: Optional[int] = None,
    ) -> None:
        scenario_chunk = resolve_scenario_chunk(scenario_chunk)
        threads = resolve_threads(threads)
        validate_estimator_parameters(suffix_rounds, exploration_depth, scenario_chunk)
        self._algorithm = algorithm
        self._model = model
        self._suffix_rounds = suffix_rounds
        self._exploration_depth = exploration_depth
        self._scenario_chunk = scenario_chunk
        self._threads = threads

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def limit_estimates(self, configuration: Configuration) -> np.ndarray:
        """Estimated reachable limits from ``configuration`` (one row per sampled future)."""
        return self.estimate(configuration).limits

    def estimate(self, configuration: Configuration) -> ValencyEstimate:
        """Full estimate (limits plus certified lower/upper diameter bounds)."""
        return self._estimates([configuration])[0]

    def valency_diameter(self, configuration: Configuration) -> float:
        """Lower estimate of ``δ_N(C)`` (diameter of the sampled reachable limits)."""
        return self.estimate(configuration).lower_diameter

    def valencies_intersect(
        self,
        config_a: Configuration,
        config_b: Configuration,
        tolerance: float = 1e-6,
    ) -> bool:
        """Heuristic check that ``Y*_N(A)`` and ``Y*_N(B)`` intersect (Lemma 7 situations).

        The check looks for a *common suffix* leading both configurations to
        the same limit (up to ``tolerance``), which is precisely how Lemma 7
        establishes the intersection.
        """
        if self._batchable():
            limits_a = self._constant_suffix_limits_batch(config_a)
            limits_b = self._constant_suffix_limits_batch(config_b)
        elif self._batchable_stateful():
            limits_a = self._constant_suffix_limits_batch_state(config_a)
            limits_b = self._constant_suffix_limits_batch_state(config_b)
        else:
            limits_a = limits_b = None
        if limits_a is not None:
            return any(
                float(np.linalg.norm(limits_a[index] - limits_b[index])) <= tolerance
                for index in range(limits_a.shape[0])
            )
        for graph in self._model:
            limit_a = self._constant_suffix_limit(config_a, graph)
            limit_b = self._constant_suffix_limit(config_b, graph)
            if float(np.linalg.norm(limit_a - limit_b)) <= tolerance:
                return True
        return False

    def trace(
        self, configurations: Sequence[Configuration]
    ) -> List[ValencyEstimate]:
        """Valency estimates along a sequence of configurations (e.g. an execution).

        On the batched paths, configurations whose futures can share a
        stacked ensemble (see :meth:`_estimates`) are evaluated together, in
        passes of at most ``scenario_chunk`` suffix scenarios.
        """
        return self._estimates(configurations)

    def certify_ensemble(
        self, ensemble: EnsembleExecution
    ) -> List[List[ValencyEstimate]]:
        """Per-scenario valency estimates at every recorded round of an ensemble.

        The ensemble-scale counterpart of running :meth:`trace` on ``B``
        independent single-scenario executions: entry ``[b][r]`` is scenario
        ``b``'s estimate at recorded round ``ensemble.recorded_rounds[r]``,
        bit-for-bit identical to what the per-scenario trace would produce
        (all evaluation paths perform the same elementwise operations, only
        stacked).  On the batched paths the sampled futures of all ``B``
        scenarios at all recorded rounds are grouped into stacked ensemble
        passes — per-round ``(B·K, n, n)`` adjacency stacks of at most
        ``scenario_chunk`` scenarios — instead of ``B`` separate estimator
        runs (see :meth:`_estimates`).  Round-dependent algorithms stack one
        recorded round per group.  Stateful batch algorithms restore each
        scenario's recorded per-agent snapshot through
        ``batch_state_from_states`` and stack restored states that share
        their stripped state (``batch_map(state, lambda _: None)``) via
        ``batch_state_stack``: a round-invariant stateful algorithm such as
        the amortized midpoint then runs one group per phase position, not
        one per recorded round.

        Requires the ensemble to have been run with ``record_states=True``
        (:meth:`~repro.execution.batch.EnsembleExecution.scenario_configurations`);
        :class:`repro.api.Study` does this automatically for certified
        ensemble studies.

        Faulted ensembles (run with a
        :class:`~repro.faults.FaultPlan`) certify unchanged: the recorded
        configurations already hold the post-fault states, so the estimates
        quantify the valency of what the faulted system actually reached.
        The estimator's *futures* are still drawn from ``model`` — the
        certificate asks "how contracted is the reachable set from here
        under fault-free continuations", which is the quantity the Theorem 6
        bounds control.  Scenario ``b`` of a faulted ensemble certifies
        bit-for-bit identically to a single-scenario run of the same
        scenario under the same resolved plan.
        """
        if not isinstance(ensemble, EnsembleExecution):
            raise ExecutionError(
                f"certify_ensemble needs an EnsembleExecution, got {type(ensemble).__name__}"
            )
        recorded = ensemble.recorded_configurations
        if recorded is None:
            raise ExecutionError(
                "ensemble certification needs recorded per-scenario configurations; "
                "rerun the ensemble with record_states=True (Study(certify=...) does "
                "this automatically)"
            )
        n = ensemble.n
        for graph in self._model:
            if graph.n != n:
                raise EnsembleShapeError(
                    f"model graph has {graph.n} agents, ensemble scenarios have {n} "
                    f"(recorded outputs shape {ensemble.recorded_outputs.shape})"
                )
        batch_size = ensemble.batch_size
        if self._threads > 1 and batch_size > 1:
            # Scenario-axis sharding: per-scenario estimates are arithmetically
            # independent (the config_group stacking never mixes results across
            # configurations), so certifying contiguous scenario slices on
            # worker threads and concatenating is bit-for-bit identical to the
            # serial pass.  Imported lazily to keep the module import-light.
            from repro.execution.parallel import parallel_map, shard_bounds

            tasks = []
            for start, stop in shard_bounds(batch_size, self._threads):
                shard_rows = [row[start:stop] for row in recorded]
                tasks.append(lambda rows=shard_rows: self._certify_recorded(rows))
            shard_results = parallel_map(tasks, self._threads)
            return [rows for result in shard_results for rows in result]
        return self._certify_recorded(recorded)

    def _certify_recorded(
        self, recorded: Sequence[Sequence[Configuration]]
    ) -> List[List[ValencyEstimate]]:
        """Serial certification core over recorded ``[round][scenario]`` rows."""
        batch_size = len(recorded[0])
        flat = self._estimates([configuration for row in recorded for configuration in row])
        return [flat[b::batch_size] for b in range(batch_size)]

    def _estimates(
        self, configurations: Sequence[Configuration]
    ) -> List[ValencyEstimate]:
        """Estimates at many configurations, stacked into shared ensemble passes.

        Configurations are grouped by a key: the round number (only when the
        algorithm is not :meth:`~repro.algorithms.base.Algorithm.round_invariant`)
        plus the restored batch state with its array leaves stripped,
        ``batch_map(state, lambda _: None)``.  That stripped state is ``None``
        for array states (the outputs-based path restores nothing) and the
        phase position for the amortized midpoint, so each group holds
        configurations whose restored states stack.  Each group runs through
        the path's batch estimator in slices of at most ``config_group``
        configurations — the estimators stream only the prefix axis, so this
        keeps every stacked suffix within ``scenario_chunk`` scenarios — and
        its lower diameters come from one :func:`pairwise_diameters` call.
        Estimates are returned in input order.
        """
        configurations = list(configurations)
        algorithm = self._algorithm
        invariant = algorithm.round_invariant()
        round_keys = [
            None if invariant else configuration.round_number
            for configuration in configurations
        ]
        if self._batchable():
            keys = round_keys

            def run(indices):
                return self._limit_estimates_batch([configurations[i] for i in indices])

        elif self._batchable_stateful():
            restored = [
                algorithm.batch_state_from_states(configuration.states)
                for configuration in configurations
            ]
            keys = [
                (round_key, algorithm.batch_map(state, lambda _leaf: None))
                for round_key, state in zip(round_keys, restored)
            ]

            def run(indices):
                return self._limit_estimates_batch_state(
                    [configurations[i] for i in indices], [restored[i] for i in indices]
                )

        else:
            keys = [None] * len(configurations)

            def run(indices):
                return [self._limit_estimates_reference(configurations[i]) for i in indices]

        groups: Dict[Hashable, List[int]] = {}
        for index, key in enumerate(keys):
            groups.setdefault(key, []).append(index)
        config_group = max(1, self._scenario_chunk // max(1, len(self._model)))
        convex = algorithm.is_convex_combination()
        estimates: List[Optional[ValencyEstimate]] = [None] * len(configurations)
        for members in groups.values():
            for start in range(0, len(members), config_group):
                indices = members[start : start + config_group]
                limits = run(indices)
                lower = pairwise_diameters(np.stack(limits))
                for index, config_limits, config_lower in zip(indices, limits, lower):
                    configuration = configurations[index]
                    estimates[index] = ValencyEstimate(
                        limits=config_limits,
                        lower_diameter=float(config_lower),
                        upper_diameter=configuration.output_diameter() if convex else None,
                    )
        return estimates

    # ------------------------------------------------------------------ #
    # Reference path
    # ------------------------------------------------------------------ #

    def _limit_estimates_reference(self, configuration: Configuration) -> np.ndarray:
        limits: List[np.ndarray] = []
        for prefix in self._prefixes():
            start = configuration
            if prefix:
                start, _ = run_from_configuration(self._algorithm, configuration, list(prefix))
            for graph in self._model:
                limits.append(self._constant_suffix_limit(start, graph))
        return np.vstack(limits)

    def _prefixes(self) -> Iterable[Sequence[CommunicationGraph]]:
        if self._exploration_depth == 0:
            yield ()
            return
        graphs = list(self._model)
        for depth in range(self._exploration_depth + 1):
            if depth == 0:
                yield ()
                continue
            for combo in iter_product(graphs, repeat=depth):
                yield combo

    def _constant_suffix_limit(
        self, configuration: Configuration, graph: CommunicationGraph
    ) -> np.ndarray:
        final, _ = run_from_configuration(
            self._algorithm, configuration, [graph] * self._suffix_rounds
        )
        return final.outputs.mean(axis=0)

    # ------------------------------------------------------------------ #
    # Batched path
    # ------------------------------------------------------------------ #

    def _batchable(self) -> bool:
        """Whether the outputs-based stacked-ensemble path applies.

        This path rebuilds algorithm state from configuration outputs, which
        is exact only for memoryless convex-combination algorithms with batch
        hooks.  Stateful batch algorithms take the batch-state path
        (:meth:`_batchable_stateful`); anything else takes the per-future
        reference loop.
        """
        return (
            isinstance(self._algorithm, ConvexCombinationAlgorithm)
            and self._algorithm.supports_batch()
        )

    def _batchable_stateful(self) -> bool:
        """Whether the batch-state stacked-ensemble path applies.

        Stateful batch algorithms (state beyond the outputs, e.g. the
        amortized midpoint's phase extremes) cannot be rebuilt from outputs,
        but algorithms implementing the ``batch_state`` snapshot/restore
        hooks (:meth:`~repro.algorithms.base.Algorithm.batch_state_from_states`)
        restore an exact batch state from the recorded per-agent states and
        fan it out into the same stacked ensembles.
        """
        return (
            not isinstance(self._algorithm, ConvexCombinationAlgorithm)
            and self._algorithm.supports_batch()
            and self._algorithm.supports_batch_state()
        )

    def _prefix_chunks(
        self, depth: int, chunk_size: int
    ) -> Iterator[List[Tuple[CommunicationGraph, ...]]]:
        """Stream the depth-``depth`` prefixes in chunks of at most ``chunk_size``.

        The ``itertools.product`` iterator is consumed lazily, so the full
        ``|N|^depth`` candidate list is never materialized — peak memory is
        one chunk of prefix tuples plus its stacked adjacency tensors.
        """
        if depth == 0:
            yield [()]
            return
        graphs = list(self._model)
        chunk: List[Tuple[CommunicationGraph, ...]] = []
        for combo in iter_product(graphs, repeat=depth):
            chunk.append(combo)
            if len(chunk) >= chunk_size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    def _limit_estimates_batch(
        self, configurations: Sequence[Configuration]
    ) -> List[np.ndarray]:
        """Batched limit estimates, one ``(K, d)`` array per configuration.

        Scenario order matches the reference loop exactly: depth-ascending
        prefixes (``itertools.product`` order) with the model's constant
        suffix graphs innermost.  When several configurations are stacked
        (one :meth:`_estimates` group: configurations at one round, or at any
        rounds for round-invariant algorithms), each chunk runs a
        ``(R · P · M, n, n)`` adjacency ensemble where ``R`` is the number of
        configurations, ``P`` the prefix-chunk size and ``M`` the model size.
        """
        model_graphs = list(self._model)
        model_count = len(model_graphs)
        config_count = len(configurations)
        outputs0 = np.stack(
            [np.asarray(configuration.outputs, dtype=float) for configuration in configurations]
        )  # (R, n, d)
        base_round = configurations[0].round_number
        prefix_chunk_size = max(1, self._scenario_chunk // max(1, config_count * model_count))
        collected: List[List[np.ndarray]] = [[] for _ in range(config_count)]

        for depth in range(self._exploration_depth + 1):
            for prefix_chunk in self._prefix_chunks(depth, prefix_chunk_size):
                prefix_count = len(prefix_chunk)
                # (R · P, n, d), configuration-major then prefix.
                values = np.repeat(outputs0, prefix_count, axis=0)
                for offset in range(depth):
                    stack = np.stack(
                        [prefix[offset].adjacency for prefix in prefix_chunk]
                    )  # (P, n, n)
                    adjacency = np.tile(stack, (config_count, 1, 1))
                    values = self._algorithm.batch_transition(
                        values, adjacency, base_round + 1 + offset
                    )
                # Expand by the constant-suffix graphs: (R · P · M, n, d).
                values = np.repeat(values, model_count, axis=0)
                suffix_stack = np.tile(
                    np.stack([graph.adjacency for graph in model_graphs]),
                    (config_count * prefix_count, 1, 1),
                )
                finals = self._run_constant_suffix(values, suffix_stack, base_round + depth)
                limits = finals.mean(axis=1)  # (R · P · M, d)
                per_config = limits.reshape(config_count, prefix_count * model_count, -1)
                for index in range(config_count):
                    collected[index].append(per_config[index])
        return [np.vstack(chunks) for chunks in collected]

    def _constant_suffix_limits_batch(self, configuration: Configuration) -> np.ndarray:
        """Limits of the ``M`` constant suffixes from one configuration, ``(M, d)``."""
        model_graphs = list(self._model)
        outputs = np.asarray(configuration.outputs, dtype=float)
        values = np.repeat(outputs[None, :, :], len(model_graphs), axis=0)
        suffix_stack = np.stack([graph.adjacency for graph in model_graphs])
        finals = self._run_constant_suffix(values, suffix_stack, configuration.round_number)
        return finals.mean(axis=1)

    def _run_constant_suffix(
        self, values: np.ndarray, suffix_adjacency: np.ndarray, start_round: int
    ) -> np.ndarray:
        """Run ``suffix_rounds`` constant-graph rounds on a ``(K, n, d)`` ensemble.

        Maintains an active set: scenarios the algorithm's
        :meth:`~repro.algorithms.base.Algorithm.batch_state_fixpoint` hook
        certifies as exact fixpoints under their constant graph are retired
        early (for round-invariant convex-combination algorithms this is the
        float fixpoint of the outputs), so the early exit is bit-for-bit
        equivalent to running the remaining rounds.
        """
        finals = np.array(values, dtype=float)
        current = finals
        adjacency = suffix_adjacency
        alive = np.arange(values.shape[0])
        for offset in range(self._suffix_rounds):
            new_values = self._algorithm.batch_transition(
                current, adjacency, start_round + 1 + offset
            )
            if offset < self._suffix_rounds - 1:
                fixed = self._algorithm.batch_state_fixpoint(current, new_values)
                if fixed is not None and fixed.any():
                    finals[alive[fixed]] = new_values[fixed]
                    keep = ~fixed
                    alive = alive[keep]
                    current = new_values[keep]
                    adjacency = adjacency[keep]
                    if alive.size == 0:
                        return finals
                    continue
            current = new_values
        finals[alive] = current
        return finals

    # ------------------------------------------------------------------ #
    # Batch-state path (stateful algorithms)
    # ------------------------------------------------------------------ #

    def _limit_estimates_batch_state(
        self, configurations: Sequence[Configuration], states: Sequence[Any]
    ) -> List[np.ndarray]:
        """Batched limit estimates through the ``batch_state`` restore hooks.

        ``states`` holds each configuration's per-agent snapshot restored
        into a single-scenario batch state
        (:meth:`~repro.algorithms.base.Algorithm.batch_state_from_states`).
        The restored states are stacked along a leading scenario axis via
        :meth:`~repro.algorithms.base.Algorithm.batch_state_stack`, fanned
        out over the chunk's prefixes via ``batch_map`` and driven through
        the same stacked adjacency ensembles as the convex-combination path.
        Round-dependent algorithms need the configurations at one round;
        round-invariant ones (e.g. the amortized midpoint, whose phase
        position lives in the state) stack configurations from any rounds
        whose states stack — :meth:`_estimates` groups them so.
        Scenario order matches the reference loop exactly
        (configuration-major, depth-ascending prefixes, model suffix graphs
        innermost), and min/max reductions select actual state elements, so
        the result is bit-for-bit equal to the per-future reference loop.
        """
        algorithm = self._algorithm
        model_graphs = list(self._model)
        model_count = len(model_graphs)
        configurations = list(configurations)
        config_count = len(configurations)
        if not algorithm.round_invariant():
            rounds = {configuration.round_number for configuration in configurations}
            if len(rounds) != 1:
                raise ExecutionError(
                    "stacked batch-state estimates of a round-dependent algorithm need "
                    f"configurations at one round, got rounds {sorted(rounds)}"
                )
        base = algorithm.batch_state_stack(states)  # leaves (R, n, d), R = config_count
        base_round = configurations[0].round_number
        prefix_chunk_size = max(
            1, self._scenario_chunk // max(1, config_count * model_count)
        )
        collected: List[List[np.ndarray]] = [[] for _ in range(config_count)]

        for depth in range(self._exploration_depth + 1):
            for prefix_chunk in self._prefix_chunks(depth, prefix_chunk_size):
                prefix_count = len(prefix_chunk)
                # (R · P, ...) leaves, configuration-major then prefix.
                state = algorithm.batch_map(
                    base,
                    lambda leaf, _count=prefix_count: np.repeat(
                        np.asarray(leaf), _count, axis=0
                    ),
                )
                for offset in range(depth):
                    stack = np.stack(
                        [prefix[offset].adjacency for prefix in prefix_chunk]
                    )  # (P, n, n)
                    adjacency = np.tile(stack, (config_count, 1, 1))
                    state = algorithm.batch_transition(
                        state, adjacency, base_round + 1 + offset
                    )
                # Expand by the constant-suffix graphs: (R · P · M, ...) leaves.
                state = algorithm.batch_map(
                    state,
                    lambda leaf, _count=model_count: np.repeat(leaf, _count, axis=0),
                )
                suffix_stack = np.tile(
                    np.stack([graph.adjacency for graph in model_graphs]),
                    (config_count * prefix_count, 1, 1),
                )
                finals = self._run_constant_suffix_state(
                    state, suffix_stack, base_round + depth
                )
                limits = finals.mean(axis=1)  # (R · P · M, d)
                per_config = limits.reshape(config_count, prefix_count * model_count, -1)
                for index in range(config_count):
                    collected[index].append(per_config[index])
        return [np.vstack(chunks) for chunks in collected]

    def _constant_suffix_limits_batch_state(
        self, configuration: Configuration
    ) -> np.ndarray:
        """Limits of the ``M`` constant suffixes from one configuration, ``(M, d)``."""
        algorithm = self._algorithm
        model_graphs = list(self._model)
        base = algorithm.batch_state_from_states(configuration.states)
        state = algorithm.batch_map(
            base,
            lambda leaf, _count=len(model_graphs): np.repeat(
                np.asarray(leaf)[None, ...], _count, axis=0
            ),
        )
        suffix_stack = np.stack([graph.adjacency for graph in model_graphs])
        finals = self._run_constant_suffix_state(
            state, suffix_stack, configuration.round_number
        )
        return finals.mean(axis=1)

    def _run_constant_suffix_state(
        self, state, suffix_adjacency: np.ndarray, start_round: int
    ) -> np.ndarray:
        """Run ``suffix_rounds`` constant-graph rounds on a stacked batch state.

        Output-level equality alone cannot retire stateful scenarios (the
        amortized midpoint's outputs stay constant mid-phase while its phase
        extremes keep widening), so the active set is gated on the
        algorithm's *state-level* fixpoint hook
        (:meth:`~repro.algorithms.base.Algorithm.batch_state_fixpoint`):
        scenarios it certifies as exact fixpoints of their constant graph are
        dropped early, bit-for-bit equal to running their remaining rounds.
        Algorithms answering ``None`` run every scenario for the full suffix.
        """
        algorithm = self._algorithm
        outputs = np.asarray(algorithm.batch_outputs(state), dtype=float)
        finals = np.array(outputs, dtype=float)
        adjacency = suffix_adjacency
        alive = np.arange(finals.shape[0])
        for offset in range(self._suffix_rounds):
            new_state = algorithm.batch_transition(
                state, adjacency, start_round + 1 + offset
            )
            if offset < self._suffix_rounds - 1:
                fixed = algorithm.batch_state_fixpoint(state, new_state)
                if fixed is not None and fixed.any():
                    new_outputs = np.asarray(
                        algorithm.batch_outputs(new_state), dtype=float
                    )
                    new_outputs = np.broadcast_to(new_outputs, (alive.size,) + finals.shape[1:])
                    finals[alive[fixed]] = new_outputs[fixed]
                    keep = ~fixed
                    alive = alive[keep]
                    new_state = algorithm.batch_map(
                        new_state, lambda leaf, _keep=keep: leaf[_keep]
                    )
                    adjacency = adjacency[keep]
                    if alive.size == 0:
                        return finals
            state = new_state
        final_outputs = np.asarray(algorithm.batch_outputs(state), dtype=float)
        finals[alive] = np.broadcast_to(final_outputs, (alive.size,) + finals.shape[1:])
        return finals
