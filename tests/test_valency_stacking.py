"""Stacked valency certification across recorded rounds.

``ValencyEstimator`` groups configurations whose futures can share one
stacked ensemble pass: by round number only for algorithms that are not
round-invariant, and by the restored batch state with its arrays stripped
(the amortized midpoint's phase position).  This suite pins

* the round-invariance contract every algorithm declaring
  ``round_invariant()`` must honour (the grouping's soundness rests on it),
* bit-for-bit equality of the grouped stateful path with the per-future
  reference loop across rounds that are not a multiple of the phase length,
  with and without faults, serial and sharded, plus the number of stacked
  suffix passes (one per phase position, not one per recorded round),
* the ``scenario_chunk`` bound on ``trace``'s stacked suffixes, and
* the grouped lower diameters against per-configuration :func:`diameter`.
"""

import struct

import numpy as np
import pytest

from repro.algorithms import (
    AmortizedMidpointAlgorithm,
    DecidingAlgorithm,
    HegselmannKrauseAlgorithm,
    MeanAlgorithm,
    MidpointAlgorithm,
    SelfWeightedAveraging,
    TwoAgentThirdsAlgorithm,
)
from repro.algorithms.amortized_midpoint import AmortizedMidpointState
from repro.campaign.targets import PerturbedAlgorithm
from repro.core.valency import ValencyEstimator
from repro.execution import run_execution, run_pattern_ensemble
from repro.execution.batch import _batch_diameters
from repro.faults import CrashSpec, FaultPlan
from repro.graphs.families import complete_graph, cycle_graph, directed_star_graph
from repro.models.patterns import PeriodicPattern
from repro.models.standard import deaf_model, psi_model
from repro.types import diameter, pairwise_diameters
from tests.test_valency_batch import ReferenceEstimator

ROUND_NUMBERS = (1, 2, 7, 1000)


def _bits(value):
    return struct.pack("<d", value)


def _random_adjacency(rng, n):
    adjacency = rng.random((n, n)) < 0.5
    np.fill_diagonal(adjacency, True)
    return adjacency


def _received(algorithm, states, adjacency, receiver):
    return {
        sender: algorithm.message(sender, states[sender])
        for sender in range(len(states))
        if adjacency[sender, receiver]
    }


def _amortized_states(rng, n, d):
    phase_length = n - 1
    position = int(rng.integers(0, phase_length))
    states = []
    for _ in range(n):
        value = rng.uniform(-1.0, 1.0, d)
        states.append(
            AmortizedMidpointState(
                value=value,
                phase_min=value - rng.uniform(0.0, 0.5, d),
                phase_max=value + rng.uniform(0.0, 0.5, d),
                rounds_into_phase=position,
                phase_length=phase_length,
            )
        )
    return tuple(states)


def _state_leaves(algorithm, batch_state):
    leaves = []
    stripped = algorithm.batch_map(
        batch_state, lambda leaf: (leaves.append(np.asarray(leaf).tobytes()), None)[1]
    )
    return leaves, stripped


def _per_agent_fingerprint(algorithm, state):
    if isinstance(state, AmortizedMidpointState):
        return (
            state.value.tobytes(),
            state.phase_min.tobytes(),
            state.phase_max.tobytes(),
            state.rounds_into_phase,
            state.phase_length,
        )
    return np.asarray(state).tobytes()


ROUND_INVARIANT_ALGORITHMS = [
    pytest.param(MidpointAlgorithm(), 5, id="midpoint"),
    pytest.param(MeanAlgorithm(), 5, id="mean"),
    pytest.param(SelfWeightedAveraging(0.3), 5, id="weighted"),
    pytest.param(HegselmannKrauseAlgorithm(0.4), 5, id="hk"),
    pytest.param(TwoAgentThirdsAlgorithm(), 2, id="two-agent"),
    pytest.param(AmortizedMidpointAlgorithm(), 5, id="amortized-midpoint"),
]


class TestRoundInvarianceContract:
    @pytest.mark.parametrize("algorithm,n", ROUND_INVARIANT_ALGORITHMS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_transitions_ignore_the_round_number(self, algorithm, n, seed):
        assert algorithm.round_invariant()
        rng = np.random.default_rng(seed)
        d = 2
        if isinstance(algorithm, AmortizedMidpointAlgorithm):
            states = _amortized_states(rng, n, d)
        else:
            states = tuple(rng.uniform(-1.0, 1.0, (n, d)))
        adjacency = _random_adjacency(rng, n)

        per_agent = {
            round_number: [
                _per_agent_fingerprint(
                    algorithm,
                    algorithm.transition(
                        agent,
                        states[agent],
                        _received(algorithm, states, adjacency, agent),
                        round_number,
                    ),
                )
                for agent in range(n)
            ]
            for round_number in ROUND_NUMBERS
        }
        assert all(per_agent[r] == per_agent[1] for r in ROUND_NUMBERS)

        if algorithm.supports_batch():
            batch_state = algorithm.batch_state_from_states(states)
            stacked = algorithm.batch_state_stack([batch_state, batch_state])
            stacked_adjacency = np.stack([adjacency, _random_adjacency(rng, n)])
            batched = {
                round_number: _state_leaves(
                    algorithm,
                    algorithm.batch_transition(stacked, stacked_adjacency, round_number),
                )
                for round_number in ROUND_NUMBERS
            }
            assert all(batched[r] == batched[1] for r in ROUND_NUMBERS)

    def test_round_dependent_wrappers_group_by_round(self, monkeypatch):
        n, batch_size, rounds = 4, 2, 7
        values = np.random.default_rng(3).uniform(0.0, 1.0, (batch_size, n, 1))
        pattern = PeriodicPattern([complete_graph(n), cycle_graph(n)])
        wrappers = [
            DecidingAlgorithm(AmortizedMidpointAlgorithm(), 3),
            PerturbedAlgorithm(MidpointAlgorithm(), 2, 0, 1e-3),
        ]
        for algorithm in wrappers:
            assert not algorithm.round_invariant()
            ensemble = run_pattern_ensemble(
                algorithm, values, pattern, rounds, record_states=True
            )
            estimator = ValencyEstimator(
                algorithm, deaf_model(n=n), suffix_rounds=6, threads=1
            )
            assert estimator._batchable_stateful()
            stacked_rounds = []
            original = ValencyEstimator._limit_estimates_batch_state

            def spy(self, configurations, states, _original=original):
                stacked_rounds.append({c.round_number for c in configurations})
                return _original(self, configurations, states)

            monkeypatch.setattr(ValencyEstimator, "_limit_estimates_batch_state", spy)
            estimator.certify_ensemble(ensemble)
            monkeypatch.undo()
            assert all(len(group) == 1 for group in stacked_rounds)
            assert len(stacked_rounds) == rounds + 1


def _suffix_passes(monkeypatch, method):
    leads = []
    original = getattr(ValencyEstimator, method)

    def spy(self, values, suffix_adjacency, start_round):
        leads.append(suffix_adjacency.shape[0])
        return original(self, values, suffix_adjacency, start_round)

    monkeypatch.setattr(ValencyEstimator, method, spy)
    return leads


def _assert_estimates_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.limits.shape == b.limits.shape
        assert a.limits.tobytes() == b.limits.tobytes()
        assert _bits(a.lower_diameter) == _bits(b.lower_diameter)
        assert a.upper_diameter == b.upper_diameter


FAULT_PLANS = [
    pytest.param(None, id="fault-free"),
    pytest.param(
        FaultPlan(
            drop=0.3, crashes=(CrashSpec(0, 5),), f=1, seed=11, enforce_model=False
        ),
        id="faulted",
    ),
]


class TestCrossRoundStatefulDifferential:
    """Amortized midpoint, n = 5 (phase length 4), 13 rounds recorded every round."""

    n, batch_size, rounds = 5, 3, 13

    def _ensemble(self, fault_plan):
        values = np.random.default_rng(7).uniform(0.0, 1.0, (self.batch_size, self.n, 1))
        pattern = PeriodicPattern(
            [complete_graph(self.n), cycle_graph(self.n), directed_star_graph(self.n)]
        )
        return run_pattern_ensemble(
            AmortizedMidpointAlgorithm(), values, pattern, self.rounds,
            record_every=1, record_states=True, fault_plan=fault_plan,
        )

    @pytest.mark.parametrize("fault_plan", FAULT_PLANS)
    @pytest.mark.parametrize("depth", [0, 1])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_certify_and_trace_match_reference(
        self, monkeypatch, fault_plan, depth, threads
    ):
        algorithm = AmortizedMidpointAlgorithm()
        model = psi_model(self.n)
        ensemble = self._ensemble(fault_plan)
        kwargs = dict(suffix_rounds=9, exploration_depth=depth, threads=threads)
        estimator = ValencyEstimator(algorithm, model, **kwargs)
        reference = ReferenceEstimator(algorithm, model, **kwargs)

        leads = _suffix_passes(monkeypatch, "_run_constant_suffix_state")
        certified = estimator.certify_ensemble(ensemble)
        positions = {
            configuration.states[0].rounds_into_phase
            for row in ensemble.recorded_configurations
            for configuration in row
        }
        assert len(positions) == 4 < len(ensemble.recorded_rounds) == self.rounds + 1
        shards = min(threads, self.batch_size)
        # One stacked suffix pass per phase position (and per exploration
        # depth, each depth's prefixes fitting one chunk) in each shard.
        assert len(leads) == shards * len(positions) * (depth + 1)
        monkeypatch.undo()

        expected = reference.certify_ensemble(ensemble)
        assert len(certified) == len(expected) == self.batch_size
        for scenario in range(self.batch_size):
            _assert_estimates_equal(certified[scenario], expected[scenario])
            configurations = ensemble.scenario_configurations(scenario)
            _assert_estimates_equal(
                estimator.trace(configurations), reference.trace(configurations)
            )


class TestTraceScenarioChunk:
    def test_trace_respects_scenario_chunk(self, monkeypatch):
        n, chunk = 6, 64
        model = psi_model(n)
        algorithm = MidpointAlgorithm()
        execution = run_execution(
            algorithm, np.linspace(0.0, 1.0, n), PeriodicPattern(list(model)), 200
        )
        configurations = execution.configurations
        unbounded = ValencyEstimator(
            algorithm, model, suffix_rounds=20, scenario_chunk=4096
        ).trace(configurations)
        leads = _suffix_passes(monkeypatch, "_run_constant_suffix")
        bounded = ValencyEstimator(
            algorithm, model, suffix_rounds=20, scenario_chunk=chunk
        ).trace(configurations)
        assert leads and max(leads) <= chunk
        _assert_estimates_equal(bounded, unbounded)


class TestGroupedLowerDiameters:
    @pytest.mark.parametrize("d", [1, 3])
    def test_pairwise_diameters_match_diameter_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        limits = rng.uniform(-1.0, 1.0, (6, 5, d))
        limits[1, 2, 0] = np.nan
        limits[2] = 0.0
        limits[2, ::2] = -0.0
        limits[3, :, :] = -0.0
        limits[4, 3, -1] = np.nan
        limits[4, 0, 0] = np.nan
        grouped = pairwise_diameters(limits)
        for config_limits, lower in zip(limits, grouped):
            assert _bits(float(lower)) == _bits(diameter(config_limits))
        limits[5, 1, 0] = -np.nan
        assert _bits(float(pairwise_diameters(limits)[5])) == _bits(diameter(limits[5]))
        single_rows = limits[:, :1]
        for config_limits, lower in zip(single_rows, pairwise_diameters(single_rows)):
            assert _bits(float(lower)) == _bits(diameter(config_limits))

    def test_negative_nan_gives_one_canonical_nan(self):
        # numpy's max reduction sets a NaN's sign bit by array length, so
        # without the sign bit cleared the d = 1 shortcut and diameter()
        # returned -NaN and +NaN for these limits.
        limits = np.array([[0.1], [-np.nan], [0.3], [0.2], [0.5]])
        assert _bits(limits[1, 0]) != _bits(np.nan)
        shortcut = pairwise_diameters(limits)
        dense = pairwise_diameters(np.concatenate([limits, np.zeros_like(limits)], axis=1))
        stacked = pairwise_diameters(np.stack([limits, limits]))
        canonical = _bits(np.nan)
        assert _bits(float(shortcut)) == canonical
        assert _bits(float(dense)) == canonical
        assert all(_bits(float(value)) == canonical for value in stacked)
        assert _bits(diameter(limits)) == canonical
        assert _bits(diameter(limits[:, 0])) == canonical
        # The ensemble route (EnsembleExecution.diameters / final_diameters).
        assert _bits(float(_batch_diameters(limits[None])[0])) == canonical
        planar = np.concatenate([limits, np.zeros_like(limits)], axis=1)
        assert _bits(float(_batch_diameters(planar[None])[0])) == canonical

    @pytest.mark.parametrize(
        "algorithm,model,n",
        [
            (MidpointAlgorithm(), deaf_model(n=4), 4),
            (AmortizedMidpointAlgorithm(), psi_model(4), 4),
        ],
    )
    def test_estimates_carry_per_configuration_diameters(self, algorithm, model, n):
        values = np.random.default_rng(5).uniform(-1.0, 1.0, (n, 3))
        execution = run_execution(
            algorithm, values, PeriodicPattern(list(model)), 7
        )
        estimator = ValencyEstimator(algorithm, model, suffix_rounds=10, exploration_depth=1)
        for estimate in estimator.trace(execution.configurations):
            assert _bits(estimate.lower_diameter) == _bits(diameter(estimate.limits))
