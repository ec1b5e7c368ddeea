"""Batch-vs-reference equivalence of the valency/contraction certification engine.

The batched :class:`~repro.core.valency.ValencyEstimator` must produce
bit-for-bit identical estimates to the per-sequence reference loop
(:class:`ReferenceEstimator`, the estimator pinned to the loop it takes for
algorithms without batch hooks): identical ``limits`` arrays, identical diameter
bounds, identical traces, identical intersection verdicts — across
algorithms, models, exploration depths, value dimensions and streaming
chunk sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    AmortizedMidpointAlgorithm,
    MeanAlgorithm,
    MidpointAlgorithm,
    SelfWeightedAveraging,
    TwoAgentThirdsAlgorithm,
)
from repro.analysis import run_certification_sweep
from repro.api import CertifySpec
from repro.core.adversary import GreedyDiameterAdversary, PsiBlockAdversary
from repro.core.contraction import valency_contraction_trace
from repro.core.valency import ValencyEstimator
from repro.exceptions import ConfigError
from repro.execution.engine import initial_configuration, run_execution
from repro.models.standard import deaf_model, psi_model, two_agent_model


class ReferenceEstimator(ValencyEstimator):
    """The estimator pinned to its per-future reference loop."""

    def _batchable(self):
        return False

    def _batchable_stateful(self):
        return False


def _estimators(algorithm, model, **kwargs):
    batched = ValencyEstimator(algorithm, model, **kwargs)
    reference = ReferenceEstimator(algorithm, model, **kwargs)
    return batched, reference


CASES = [
    (MidpointAlgorithm(), deaf_model(n=5), np.linspace(0.0, 1.0, 5), 0),
    (MidpointAlgorithm(), deaf_model(n=5), np.linspace(0.0, 1.0, 5), 2),
    (MeanAlgorithm(), psi_model(4), np.linspace(0.0, 1.0, 4), 1),
    (TwoAgentThirdsAlgorithm(), two_agent_model(), [0.0, 1.0], 2),
    (SelfWeightedAveraging(0.3), deaf_model(n=4), np.linspace(-1.0, 1.0, 4), 1),
]


@pytest.mark.parametrize("algorithm,model,values,depth", CASES)
def test_limit_estimates_bit_for_bit(algorithm, model, values, depth):
    configuration = initial_configuration(algorithm, values)
    batched, reference = _estimators(
        algorithm, model, suffix_rounds=40, exploration_depth=depth
    )
    limits_batched = batched.limit_estimates(configuration)
    limits_reference = reference.limit_estimates(configuration)
    assert limits_batched.shape == limits_reference.shape
    assert np.array_equal(limits_batched, limits_reference)


@pytest.mark.parametrize("algorithm,model,values,depth", CASES)
def test_estimate_bounds_bit_for_bit(algorithm, model, values, depth):
    configuration = initial_configuration(algorithm, values)
    batched, reference = _estimators(
        algorithm, model, suffix_rounds=30, exploration_depth=depth
    )
    estimate_batched = batched.estimate(configuration)
    estimate_reference = reference.estimate(configuration)
    assert estimate_batched.lower_diameter == estimate_reference.lower_diameter
    assert estimate_batched.upper_diameter == estimate_reference.upper_diameter
    assert batched.valency_diameter(configuration) == reference.valency_diameter(
        configuration
    )


@pytest.mark.parametrize("chunk", [1, 3, 7, 4096])
def test_streamed_prefix_chunks_do_not_change_results(chunk):
    algorithm, model = MidpointAlgorithm(), deaf_model(n=4)
    configuration = initial_configuration(algorithm, np.linspace(0.0, 1.0, 4))
    batched = ValencyEstimator(
        algorithm, model, suffix_rounds=25, exploration_depth=2, scenario_chunk=chunk
    )
    reference = ReferenceEstimator(
        algorithm, model, suffix_rounds=25, exploration_depth=2
    )
    assert np.array_equal(
        batched.limit_estimates(configuration), reference.limit_estimates(configuration)
    )


def test_multidimensional_values_bit_for_bit():
    algorithm, model = MidpointAlgorithm(), deaf_model(n=4)
    rng = np.random.default_rng(0)
    configuration = initial_configuration(algorithm, rng.uniform(-1.0, 1.0, size=(4, 3)))
    batched, reference = _estimators(
        algorithm, model, suffix_rounds=35, exploration_depth=1
    )
    assert np.array_equal(
        batched.limit_estimates(configuration), reference.limit_estimates(configuration)
    )


def test_active_set_dropping_is_bit_for_bit():
    # Long suffixes force exact float fixpoints, so the active set actually
    # drops scenarios mid-run; results must stay identical to the full run.
    algorithm, model = MidpointAlgorithm(), deaf_model(n=5)
    configuration = initial_configuration(algorithm, np.linspace(0.0, 1.0, 5))
    batched, reference = _estimators(
        algorithm, model, suffix_rounds=200, exploration_depth=1
    )
    assert np.array_equal(
        batched.limit_estimates(configuration), reference.limit_estimates(configuration)
    )


def test_trace_stacked_configurations_bit_for_bit():
    algorithm, model = MidpointAlgorithm(), deaf_model(n=5)
    execution = run_execution(
        algorithm, np.linspace(0.0, 1.0, 5), GreedyDiameterAdversary(model), 6
    )
    batched, reference = _estimators(
        algorithm, model, suffix_rounds=40, exploration_depth=1
    )
    trace_batched = batched.trace(execution.configurations)
    trace_reference = reference.trace(execution.configurations)
    assert len(trace_batched) == len(trace_reference)
    for estimate_b, estimate_r in zip(trace_batched, trace_reference):
        assert np.array_equal(estimate_b.limits, estimate_r.limits)
        assert estimate_b.lower_diameter == estimate_r.lower_diameter
        assert estimate_b.upper_diameter == estimate_r.upper_diameter


def test_trace_empty_and_contraction_trace_equivalence():
    algorithm, model = MidpointAlgorithm(), deaf_model(n=4)
    batched, _ = _estimators(algorithm, model, suffix_rounds=10)
    assert batched.trace([]) == []
    trace_batched = valency_contraction_trace(
        algorithm,
        model,
        GreedyDiameterAdversary(model),
        np.linspace(0.0, 1.0, 4),
        rounds=5,
        suffix_rounds=30,
        exploration_depth=1,
    )
    trace_reference = valency_contraction_trace(
        algorithm,
        model,
        GreedyDiameterAdversary(model),
        np.linspace(0.0, 1.0, 4),
        rounds=5,
        estimator=ReferenceEstimator(
            algorithm, model, suffix_rounds=30, exploration_depth=1
        ),
    )
    assert trace_batched == trace_reference


def test_valencies_intersect_matches_reference():
    algorithm, model = MidpointAlgorithm(), deaf_model(n=5)
    config_a = initial_configuration(algorithm, np.linspace(0.0, 1.0, 5))
    config_b = initial_configuration(algorithm, np.linspace(0.2, 1.2, 5))
    for tolerance in (1e-9, 1e-3, 0.5, 2.0):
        batched, reference = _estimators(algorithm, model, suffix_rounds=50)
        assert batched.valencies_intersect(
            config_a, config_b, tolerance
        ) == reference.valencies_intersect(config_a, config_b, tolerance)


def test_stateful_algorithm_takes_batch_state_path():
    # The amortized midpoint carries state beyond its outputs; the batched
    # estimator covers it through the batch_state restore hooks (it must NOT
    # take the outputs-based convex-combination path) and agrees exactly
    # with the per-future reference loop.
    algorithm = AmortizedMidpointAlgorithm()
    model = psi_model(4)
    configuration = initial_configuration(algorithm, np.linspace(0.0, 1.0, 4))
    batched, reference = _estimators(algorithm, model, suffix_rounds=12)
    assert not batched._batchable()
    assert batched._batchable_stateful()
    assert np.array_equal(
        batched.limit_estimates(configuration), reference.limit_estimates(configuration)
    )


class TestStatefulBatchStatePath:
    """ValencyEstimator covers stateful algorithms via batch_state."""

    @pytest.mark.parametrize("depth", [0, 1])
    def test_mid_phase_configurations_bit_for_bit(self, depth):
        # Mid-execution configurations carry mid-phase extremes; the restored
        # batch state must resume them exactly.
        algorithm = AmortizedMidpointAlgorithm()
        model = psi_model(5)
        execution = run_execution(
            algorithm, np.linspace(0.0, 1.0, 5), PsiBlockAdversary(5), 7
        )
        batched, reference = _estimators(
            algorithm, model, suffix_rounds=25, exploration_depth=depth
        )
        for configuration in execution.configurations:
            limits_batched = batched.limit_estimates(configuration)
            limits_reference = reference.limit_estimates(configuration)
            assert limits_batched.shape == limits_reference.shape
            assert np.array_equal(limits_batched, limits_reference)

    def test_trace_and_estimates_bit_for_bit(self):
        algorithm = AmortizedMidpointAlgorithm()
        model = psi_model(4)
        execution = run_execution(
            algorithm, np.linspace(0.0, 1.0, 4), PsiBlockAdversary(4), 5
        )
        batched, reference = _estimators(
            algorithm, model, suffix_rounds=20, exploration_depth=1
        )
        trace_batched = batched.trace(execution.configurations)
        trace_reference = reference.trace(execution.configurations)
        assert len(trace_batched) == len(trace_reference)
        for estimate_b, estimate_r in zip(trace_batched, trace_reference):
            assert np.array_equal(estimate_b.limits, estimate_r.limits)
            assert estimate_b.lower_diameter == estimate_r.lower_diameter
            assert estimate_b.upper_diameter == estimate_r.upper_diameter

    def test_streamed_chunks_do_not_change_results(self):
        algorithm = AmortizedMidpointAlgorithm()
        model = psi_model(4)
        configuration = initial_configuration(algorithm, np.linspace(0.0, 1.0, 4))
        reference = ReferenceEstimator(
            algorithm, model, suffix_rounds=15, exploration_depth=2
        )
        expected = reference.limit_estimates(configuration)
        for chunk in (1, 2, 5, 4096):
            batched = ValencyEstimator(
                algorithm, model, suffix_rounds=15, exploration_depth=2,
                scenario_chunk=chunk,
            )
            assert np.array_equal(batched.limit_estimates(configuration), expected)

    def test_valencies_intersect_matches_reference(self):
        algorithm = AmortizedMidpointAlgorithm()
        model = psi_model(4)
        config_a = initial_configuration(algorithm, np.linspace(0.0, 1.0, 4))
        config_b = initial_configuration(algorithm, np.linspace(0.3, 1.3, 4))
        for tolerance in (1e-9, 1e-2, 2.0):
            batched, reference = _estimators(algorithm, model, suffix_rounds=30)
            assert batched.valencies_intersect(
                config_a, config_b, tolerance
            ) == reference.valencies_intersect(config_a, config_b, tolerance)

    def test_contraction_trace_covers_stateful_algorithm(self):
        algorithm = AmortizedMidpointAlgorithm()
        model = psi_model(4)
        trace_batched = valency_contraction_trace(
            algorithm, model, PsiBlockAdversary(4), np.linspace(0.0, 1.0, 4),
            rounds=5, suffix_rounds=20,
        )
        trace_reference = valency_contraction_trace(
            algorithm, model, PsiBlockAdversary(4), np.linspace(0.0, 1.0, 4),
            rounds=5, estimator=ReferenceEstimator(algorithm, model, suffix_rounds=20),
        )
        assert trace_batched == trace_reference

    def test_restore_rejects_out_of_lockstep_states(self):
        from repro.exceptions import AlgorithmError

        algorithm = AmortizedMidpointAlgorithm()
        configuration = initial_configuration(algorithm, np.linspace(0.0, 1.0, 4))
        skewed = list(configuration.states)
        skewed[0] = type(skewed[0])(
            value=skewed[0].value,
            phase_min=skewed[0].phase_min,
            phase_max=skewed[0].phase_max,
            rounds_into_phase=skewed[0].rounds_into_phase + 1,
            phase_length=skewed[0].phase_length,
        )
        with pytest.raises(AlgorithmError):
            algorithm.batch_state_from_states(skewed)

    def test_round_trip_snapshot_restore(self):
        # batch_states (snapshot) and batch_state_from_states (restore) must
        # be exact inverses.
        algorithm = AmortizedMidpointAlgorithm()
        values = np.linspace(0.0, 1.0, 5).reshape(5, 1)
        batch_state = algorithm.batch_initial(values)
        batch_state = algorithm.batch_transition(
            batch_state, psi_model(5).graphs[0].adjacency, 1
        )
        restored = algorithm.batch_state_from_states(algorithm.batch_states(batch_state))
        assert np.array_equal(restored.value, batch_state.value)
        assert np.array_equal(restored.phase_min, batch_state.phase_min)
        assert np.array_equal(restored.phase_max, batch_state.phase_max)
        assert restored.rounds_into_phase == batch_state.rounds_into_phase
        assert restored.phase_length == batch_state.phase_length


def test_mid_execution_configurations_bit_for_bit():
    # Non-zero round numbers exercise the round bookkeeping of the batch path.
    algorithm, model = MidpointAlgorithm(), deaf_model(n=4)
    execution = run_execution(
        algorithm, np.linspace(0.0, 1.0, 4), GreedyDiameterAdversary(model), 4
    )
    configuration = execution.configurations[-1]
    assert configuration.round_number == 4
    batched, reference = _estimators(
        algorithm, model, suffix_rounds=30, exploration_depth=1
    )
    assert np.array_equal(
        batched.limit_estimates(configuration), reference.limit_estimates(configuration)
    )


def test_estimator_parameter_validation():
    algorithm, model = MidpointAlgorithm(), deaf_model(n=4)
    with pytest.raises(ConfigError):
        ValencyEstimator(algorithm, model, suffix_rounds=0)
    with pytest.raises(ConfigError):
        ValencyEstimator(algorithm, model, exploration_depth=-1)
    with pytest.raises(ConfigError):
        ValencyEstimator(algorithm, model, scenario_chunk=0)


@pytest.mark.parametrize(
    "field, value",
    [("suffix_rounds", 0), ("exploration_depth", -1), ("scenario_chunk", 0)],
)
def test_certify_spec_validates_at_construction(field, value):
    # A bad certification request fails when it is declared, with the
    # structured error, before any execution runs.
    with pytest.raises(ConfigError, match=field):
        CertifySpec(**{field: value})


def test_certification_sweep_certifies_theorems():
    rows = run_certification_sweep(sizes=(4,), rounds=10, suffix_rounds=25)
    names = [row["name"] for row in rows]
    assert any("thm1" in name for name in names)
    assert any("thm2" in name for name in names)
    assert any("thm3" in name for name in names)
    for row in rows:
        assert {"paper", "output_rate", "valency_lower_rate", "certified"} <= set(row)
        assert row["certified"], row
    # The Ψ rows carry the packed α-diameter of the model.
    psi_rows = [row for row in rows if "thm3" in row["name"]]
    assert all(row["alpha_diameter"] >= 1.0 for row in psi_rows)


def test_certification_sweep_batch_matches_reference(monkeypatch):
    batched = run_certification_sweep(sizes=(4,), rounds=8, suffix_rounds=20)
    monkeypatch.setattr(ValencyEstimator, "_batchable", ReferenceEstimator._batchable)
    monkeypatch.setattr(
        ValencyEstimator, "_batchable_stateful", ReferenceEstimator._batchable_stateful
    )
    reference = run_certification_sweep(sizes=(4,), rounds=8, suffix_rounds=20)
    for row_b, row_r in zip(batched, reference):
        assert row_b["output_rate"] == row_r["output_rate"]
        assert row_b["valency_lower_rate"] == row_r["valency_lower_rate"]
