"""Ensemble-scale certification: stacked passes vs independent runs.

The acceptance bar of the ensemble certification engine: certifying a whole
``(B, n, d)`` ensemble — through ``ValencyEstimator.certify_ensemble``, the
``valency_contraction_trace_ensemble`` helper, or ``Study(certify=...)`` —
must be **bit-for-bit identical** to ``B`` independent single-scenario
certifications, for stateless (convex-combination) and stateful
(batch-state) algorithms alike, on the batched and reference paths.  Also
covered: the per-scenario configuration snapshots of ``EnsembleExecution``,
the ``batch_state_stack`` hook, and the state-level fixpoint hook
(``Algorithm.batch_state_fixpoint``) that extends active-set retiring to
stateful algorithms.
"""

import numpy as np
import pytest

from repro.algorithms import (
    AmortizedMidpointAlgorithm,
    MeanAlgorithm,
    MidpointAlgorithm,
)
from repro.api import CertifySpec, Study
from repro.core.adversary import GreedyDiameterAdversary, PsiBlockAdversary
from repro.core.contraction import (
    valency_contraction_trace,
    valency_contraction_trace_ensemble,
)
from repro.core.valency import ValencyEstimator
from repro.exceptions import ExecutionError
from repro.execution import run_ensemble, run_execution, run_pattern_ensemble
from repro.graphs.families import complete_graph, cycle_graph, directed_star_graph
from repro.models.patterns import PeriodicPattern, SequencePattern
from repro.models.standard import deaf_model, psi_model
from tests.test_valency_batch import ReferenceEstimator


def _values(batch_size, n, d=1, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(batch_size, n, d))


def _pattern(n):
    return PeriodicPattern([complete_graph(n), cycle_graph(n), directed_star_graph(n)])


class TestScenarioSnapshots:
    def test_batched_snapshots_match_single_scenario_runs(self):
        algorithm = MidpointAlgorithm()
        n, batch_size, rounds = 5, 3, 6
        values = _values(batch_size, n)
        ensemble = run_pattern_ensemble(
            algorithm, values, _pattern(n), rounds, record_every=2, record_states=True
        )
        assert ensemble.batched is True
        assert ensemble.has_recorded_states
        for scenario in range(batch_size):
            solo = run_execution(
                algorithm, values[scenario], _pattern(n), rounds, record_every=2
            )
            configs = ensemble.scenario_configurations(scenario)
            assert [c.round_number for c in configs] == [
                c.round_number for c in solo.configurations
            ]
            for config_ens, config_solo in zip(configs, solo.configurations):
                assert np.array_equal(config_ens.outputs, config_solo.outputs)
                for state_ens, state_solo in zip(config_ens.states, config_solo.states):
                    assert np.array_equal(
                        np.asarray(state_ens), np.asarray(state_solo)
                    )

    def test_stateful_snapshots_roundtrip_through_batch_state(self):
        algorithm = AmortizedMidpointAlgorithm()
        n, batch_size, rounds = 5, 2, 7  # rounds not a phase multiple: mid-phase snapshot
        values = _values(batch_size, n, seed=3)
        ensemble = run_pattern_ensemble(
            algorithm, values, _pattern(n), rounds, record_states=True
        )
        for scenario in range(batch_size):
            solo = run_execution(algorithm, values[scenario], _pattern(n), rounds)
            for config_ens, config_solo in zip(
                ensemble.scenario_configurations(scenario), solo.configurations
            ):
                for state_ens, state_solo in zip(config_ens.states, config_solo.states):
                    assert np.array_equal(state_ens.value, state_solo.value)
                    assert np.array_equal(state_ens.phase_min, state_solo.phase_min)
                    assert np.array_equal(state_ens.phase_max, state_solo.phase_max)
                    assert state_ens.rounds_into_phase == state_solo.rounds_into_phase

    def test_snapshots_off_by_default_and_error_is_actionable(self):
        ensemble = run_pattern_ensemble(
            MidpointAlgorithm(), _values(2, 4), _pattern(4), 3
        )
        assert not ensemble.has_recorded_states
        with pytest.raises(ExecutionError, match="record_states=True"):
            ensemble.scenario_configurations(0)

    def test_slow_path_records_snapshots_too(self):
        algorithm = MidpointAlgorithm()
        values = _values(2, 4, seed=5)
        batched = run_pattern_ensemble(
            algorithm, values, _pattern(4), 4, record_states=True, use_batch=True
        )
        loop = run_pattern_ensemble(
            algorithm, values, _pattern(4), 4, record_states=True, use_batch=False
        )
        assert loop.batched is False
        for scenario in range(2):
            for config_a, config_b in zip(
                batched.scenario_configurations(scenario),
                loop.scenario_configurations(scenario),
            ):
                assert np.array_equal(config_a.outputs, config_b.outputs)


class TestBatchStateStack:
    def test_array_states_stack(self):
        algorithm = MidpointAlgorithm()
        states = [np.full((3, 1), float(i)) for i in range(4)]
        stacked = algorithm.batch_state_stack(states)
        assert stacked.shape == (4, 3, 1)
        assert np.array_equal(stacked[2], states[2])

    def test_structured_states_stack_leafwise(self):
        algorithm = AmortizedMidpointAlgorithm()
        values = _values(3, 4, seed=7)
        singles = [algorithm.batch_initial(values[b]) for b in range(3)]
        stacked = algorithm.batch_state_stack(singles)
        assert stacked.value.shape == (3, 4, 1)
        assert np.array_equal(stacked.phase_min[1], singles[1].phase_min)
        assert stacked.rounds_into_phase == 0

    def test_structured_states_must_be_in_lockstep(self):
        algorithm = AmortizedMidpointAlgorithm()
        values = _values(2, 4, seed=8)
        graph = complete_graph(4)
        one = algorithm.batch_initial(values[0])
        other = algorithm.batch_transition(
            algorithm.batch_initial(values[1]), graph.adjacency, 1
        )
        from repro.exceptions import AlgorithmError

        with pytest.raises(AlgorithmError, match="lockstep"):
            algorithm.batch_state_stack([one, other])

    def test_stack_rejects_empty(self):
        from repro.exceptions import AlgorithmError

        with pytest.raises(AlgorithmError):
            MidpointAlgorithm().batch_state_stack([])


class TestCertifyEnsemble:
    @pytest.mark.parametrize("use_batch", [True, False])
    def test_stateless_matches_independent_traces(self, use_batch):
        algorithm = MidpointAlgorithm()
        n, batch_size, rounds = 5, 4, 6
        model = deaf_model(n=n)
        values = _values(batch_size, n, seed=11)
        ensemble = run_pattern_ensemble(
            algorithm, values, _pattern(n), rounds, record_every=2, record_states=True
        )
        make_estimator = ValencyEstimator if use_batch else ReferenceEstimator
        estimator = make_estimator(algorithm, model, suffix_rounds=15, exploration_depth=1)
        per_scenario = estimator.certify_ensemble(ensemble)
        assert len(per_scenario) == batch_size
        for scenario in range(batch_size):
            solo = estimator.trace(ensemble.scenario_configurations(scenario))
            assert len(per_scenario[scenario]) == len(solo)
            for estimate_ens, estimate_solo in zip(per_scenario[scenario], solo):
                assert np.array_equal(estimate_ens.limits, estimate_solo.limits)
                assert estimate_ens.lower_diameter == estimate_solo.lower_diameter
                assert estimate_ens.upper_diameter == estimate_solo.upper_diameter

    @pytest.mark.parametrize("use_batch", [True, False])
    def test_stateful_matches_independent_traces(self, use_batch):
        algorithm = AmortizedMidpointAlgorithm()
        n, batch_size, rounds = 5, 3, 7
        model = psi_model(n)
        values = _values(batch_size, n, seed=13)
        ensemble = run_pattern_ensemble(
            algorithm, values, _pattern(n), rounds, record_states=True
        )
        make_estimator = ValencyEstimator if use_batch else ReferenceEstimator
        estimator = make_estimator(algorithm, model, suffix_rounds=12)
        per_scenario = estimator.certify_ensemble(ensemble)
        for scenario in range(batch_size):
            solo = estimator.trace(ensemble.scenario_configurations(scenario))
            for estimate_ens, estimate_solo in zip(per_scenario[scenario], solo):
                assert np.array_equal(estimate_ens.limits, estimate_solo.limits)
                assert estimate_ens.lower_diameter == estimate_solo.lower_diameter

    def test_non_round_invariant_mean_groups_by_round(self):
        # MeanAlgorithm is round-invariant; force the same-round grouping path
        # through a wrapper that hides round invariance.
        class RoundShyMean(MeanAlgorithm):
            def round_invariant(self):
                return False

        algorithm = RoundShyMean()
        n, batch_size = 4, 3
        model = deaf_model(n=n)
        values = _values(batch_size, n, seed=17)
        ensemble = run_pattern_ensemble(
            algorithm, values, _pattern(n), 4, record_states=True
        )
        estimator = ValencyEstimator(algorithm, model, suffix_rounds=10)
        per_scenario = estimator.certify_ensemble(ensemble)
        for scenario in range(batch_size):
            solo = estimator.trace(ensemble.scenario_configurations(scenario))
            for estimate_ens, estimate_solo in zip(per_scenario[scenario], solo):
                assert np.array_equal(estimate_ens.limits, estimate_solo.limits)

    def test_requires_recorded_states(self):
        ensemble = run_pattern_ensemble(MidpointAlgorithm(), _values(2, 4), _pattern(4), 3)
        estimator = ValencyEstimator(MidpointAlgorithm(), deaf_model(n=4), suffix_rounds=5)
        with pytest.raises(ExecutionError, match="record_states=True"):
            estimator.certify_ensemble(ensemble)

    def test_rejects_non_ensemble_inputs(self):
        estimator = ValencyEstimator(MidpointAlgorithm(), deaf_model(n=4), suffix_rounds=5)
        with pytest.raises(ExecutionError, match="EnsembleExecution"):
            estimator.certify_ensemble(object())


class TestTraceEnsemble:
    def test_trace_rows_match_single_scenario_traces(self):
        algorithm = MidpointAlgorithm()
        n, batch_size, rounds = 4, 3, 5
        model = deaf_model(n=n)
        values = _values(batch_size, n, seed=19)
        traces = valency_contraction_trace_ensemble(
            algorithm, model, _pattern(n), values, rounds, suffix_rounds=12
        )
        assert traces.shape == (batch_size, rounds + 1)
        for scenario in range(batch_size):
            solo = valency_contraction_trace(
                algorithm,
                model,
                SequencePattern(
                    [_pattern(n).graph_at(t) for t in range(1, rounds + 1)]
                ),
                values[scenario],
                rounds,
                suffix_rounds=12,
            )
            assert traces[scenario].tolist() == solo

    def test_per_scenario_patterns(self):
        algorithm = MidpointAlgorithm()
        n, batch_size = 4, 2
        model = deaf_model(n=n)
        patterns = [
            PeriodicPattern([complete_graph(n), cycle_graph(n)]),
            PeriodicPattern([directed_star_graph(n)]),
        ]
        traces = valency_contraction_trace_ensemble(
            algorithm, model, patterns, _values(batch_size, n, seed=23), 4,
            suffix_rounds=10,
        )
        assert traces.shape == (batch_size, 5)


class TestStudyEnsembleCertification:
    @pytest.mark.parametrize(
        "algorithm_factory,adversary_factory,model_factory,n",
        [
            (
                MidpointAlgorithm,
                lambda model, n: GreedyDiameterAdversary(model),
                lambda n: deaf_model(n=n),
                5,
            ),
            (
                AmortizedMidpointAlgorithm,
                lambda model, n: PsiBlockAdversary(n),
                psi_model,
                5,
            ),
        ],
    )
    def test_adversarial_ensemble_certificates_match_independent_studies(
        self, algorithm_factory, adversary_factory, model_factory, n
    ):
        model = model_factory(n)
        batch_size, rounds = 3, 8
        values = _values(batch_size, n, seed=29)
        certify = CertifySpec(suffix_rounds=10)
        result = Study(
            algorithm=algorithm_factory(),
            initial_values=values,
            adversary=adversary_factory(model, n),
            rounds=rounds,
            model=model,
            certify=certify,
        ).run()
        assert isinstance(result.certificates, list)
        assert len(result.certificates) == batch_size
        for scenario in range(batch_size):
            solo = Study(
                algorithm=algorithm_factory(),
                initial_values=values[scenario],
                adversary=adversary_factory(model, n),
                rounds=rounds,
                model=model,
                certify=certify,
            ).run()
            ensemble_cert = result.certificates[scenario]
            assert ensemble_cert.valency_trace == solo.certificates.valency_trace
            assert ensemble_cert.output_rate == solo.certificates.output_rate
            assert ensemble_cert.rate_interval == solo.certificates.rate_interval
            for estimate_ens, estimate_solo in zip(
                ensemble_cert.estimates, solo.certificates.estimates
            ):
                assert np.array_equal(estimate_ens.limits, estimate_solo.limits)

    def test_pattern_and_graph_routes_certify(self):
        n = 4
        model = deaf_model(n=n)
        values = _values(2, n, seed=31)
        by_pattern = Study(
            algorithm=MidpointAlgorithm(),
            initial_values=values,
            pattern=_pattern(n),
            rounds=4,
            model=model,
            certify=CertifySpec(suffix_rounds=8),
        ).run()
        graphs = [_pattern(n).graph_at(t) for t in range(1, 5)]
        by_graphs = Study(
            algorithm=MidpointAlgorithm(),
            initial_values=values,
            graphs=graphs,
            model=model,
            certify=CertifySpec(suffix_rounds=8),
        ).run()
        assert by_pattern.provenance.route == "run_pattern_ensemble"
        assert by_graphs.provenance.route == "run_ensemble"
        assert [c.valency_trace for c in by_pattern.certificates] == [
            c.valency_trace for c in by_graphs.certificates
        ]

    def test_uncertified_ensembles_skip_snapshots(self):
        result = Study(
            algorithm=MidpointAlgorithm(),
            initial_values=_values(2, 4, seed=37),
            pattern=_pattern(4),
            rounds=3,
        ).run()
        assert result.certificates is None
        assert not result.execution.has_recorded_states


class TestStateFixpointHook:
    def test_convex_hook_matches_output_fixpoints(self):
        algorithm = MidpointAlgorithm()
        previous = np.array([[[0.5], [0.5]], [[0.1], [0.9]]])
        new = np.array([[[0.5], [0.5]], [[0.5], [0.5]]])
        fixed = algorithm.batch_state_fixpoint(previous, new)
        assert fixed.tolist() == [True, False]

    def test_round_dependent_rules_answer_none(self):
        class RoundShyMean(MeanAlgorithm):
            def round_invariant(self):
                return False

        assert RoundShyMean().batch_state_fixpoint(np.zeros((1, 2, 1)), np.zeros((1, 2, 1))) is None

    def test_amortized_hook_detects_collapsed_states(self):
        algorithm = AmortizedMidpointAlgorithm()
        # All agents agree: the state is an exact fixpoint of every graph.
        agreed = algorithm.batch_initial(np.full((2, 4, 1), 0.25))
        graph = complete_graph(4)
        stepped = algorithm.batch_transition(agreed, graph.adjacency, 1)
        fixed = algorithm.batch_state_fixpoint(agreed, stepped)
        assert fixed.tolist() == [True, True]
        # Disagreeing agents under a connecting graph are not fixpoints.
        mixed = algorithm.batch_initial(
            np.stack([np.full((4, 1), 0.25), np.linspace(0, 1, 4).reshape(4, 1)])
        )
        stepped = algorithm.batch_transition(mixed, graph.adjacency, 1)
        fixed = algorithm.batch_state_fixpoint(mixed, stepped)
        assert fixed.tolist() == [True, False]

    def test_amortized_hook_claims_nothing_on_reset_rounds(self):
        algorithm = AmortizedMidpointAlgorithm(phase_length=1)
        agreed = algorithm.batch_initial(np.full((1, 3, 1), 0.5))
        stepped = algorithm.batch_transition(agreed, complete_graph(3).adjacency, 1)
        assert stepped.rounds_into_phase == 0
        assert algorithm.batch_state_fixpoint(agreed, stepped).tolist() == [False]

    def test_stateful_retiring_is_bit_for_bit(self):
        # Scenarios that collapse to agreement retire from the constant
        # suffix early; the estimate must equal the full reference loop.
        algorithm = AmortizedMidpointAlgorithm()
        n = 4
        model = psi_model(n)
        # One agreed scenario (retires immediately), one generic scenario.
        values = np.stack(
            [np.full((n, 1), 0.5), np.linspace(0.0, 1.0, n).reshape(n, 1)]
        )
        ensemble = run_ensemble(
            algorithm,
            values,
            [complete_graph(n)] * 3,
            record_states=True,
        )
        batched = ValencyEstimator(algorithm, model, suffix_rounds=25)
        reference = ReferenceEstimator(algorithm, model, suffix_rounds=25)
        per_batched = batched.certify_ensemble(ensemble)
        per_reference = reference.certify_ensemble(ensemble)
        for scenario in range(2):
            for estimate_b, estimate_r in zip(
                per_batched[scenario], per_reference[scenario]
            ):
                assert np.array_equal(estimate_b.limits, estimate_r.limits)
                assert estimate_b.lower_diameter == estimate_r.lower_diameter
