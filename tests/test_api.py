"""The repro.api facade, EngineConfig semantics, and shape validation.

Three contracts are enforced:

* **Config-route equivalence** — every `Study` configuration (seed ×
  valency chunking × threads) is bit-for-bit identical to the direct engine
  call it compiles to, executed under the same `EngineConfig`, and the
  recorded provenance names the path that actually ran.
* **EngineConfig semantics** — exception-safe restore, nesting (innermost
  wins), thread-local isolation, and validation errors.
* **Shape validation** — mismatched `(B, n, d)` / `(C, n, n)` inputs raise
  `EnsembleShapeError` with named shapes instead of NumPy broadcast errors.
"""

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import (
    AmortizedMidpointAlgorithm,
    FloodingExactConsensus,
    MidpointAlgorithm,
)
from repro.algorithms import base as algorithms_base
from repro.algorithms.base import (
    ConvexCombinationAlgorithm,
    masked_min,
    masked_min_max,
)
from repro.api import CertifySpec, EngineConfig, ScenarioSpec, Study, StudyResult
from repro.config import current_engine_config
from repro.core.adversary import GreedyDiameterAdversary, PsiBlockAdversary
from repro.core.valency import ValencyEstimator
from repro.exceptions import ConfigError, EnsembleShapeError, ExecutionError
from repro.execution import (
    run_adversarial_ensemble,
    run_ensemble,
    run_execution,
    run_pattern_ensemble,
)
from repro.graphs.families import complete_graph, cycle_graph, directed_star_graph
from repro.models.patterns import PeriodicPattern, SequencePattern
from repro.models.standard import deaf_model, psi_model
from repro.types import diameter


class _PerAgentMidpoint(ConvexCombinationAlgorithm):
    """Midpoint rule without batch hooks: every route takes its per-agent loop."""

    def combine(self, agent_id, received, round_number):
        values = np.vstack(list(received.values()))
        return (values.min(axis=0) + values.max(axis=0)) / 2.0


def _pattern(n):
    return PeriodicPattern([complete_graph(n), cycle_graph(n), directed_star_graph(n)])


def _single_values(n, d=1, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, d))


def _ensemble_values(batch, n, d=1, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(batch, n, d))


# --------------------------------------------------------------------------- #
# EngineConfig semantics
# --------------------------------------------------------------------------- #


def _record_kernel_calls(monkeypatch):
    """Record which masked-reduction kernel each dispatch runs, from any thread."""
    calls = []
    for name in ("packed", "dense"):
        attribute = f"_masked_extremes_{name}"
        original = getattr(algorithms_base, attribute)

        def recording(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(algorithms_base, attribute, recording)
    return calls


class TestEngineConfig:
    def test_applies_and_restores_reduction_settings(self, monkeypatch):
        # No config field names a kernel any more; ``threads`` reaches the
        # reduction only through each shard's lead count.  A (16, 48, 1)
        # ensemble runs packed as one stack and dense in four 4-scenario
        # shards, bit-for-bit alike, and leaving the scope restores the
        # serial dispatch.
        values = _ensemble_values(16, 48, seed=4)
        pattern = PeriodicPattern([complete_graph(48), cycle_graph(48)])
        calls = _record_kernel_calls(monkeypatch)

        def run():
            del calls[:]
            outputs = run_pattern_ensemble(MidpointAlgorithm(), values, pattern, 3)
            return outputs.recorded_outputs, sorted(set(calls)), len(calls)

        with EngineConfig(threads=1):
            serial, serial_kernels, serial_calls = run()
            with EngineConfig(threads=4):
                sharded, sharded_kernels, sharded_calls = run()
            restored, restored_kernels, _ = run()
        assert serial_kernels == restored_kernels == ["packed"]
        assert sharded_kernels == ["dense"]
        assert sharded_calls == 4 * serial_calls
        np.testing.assert_array_equal(sharded, serial)
        np.testing.assert_array_equal(restored, serial)

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with EngineConfig(seed=3, scenario_chunk=2):
                assert current_engine_config().scenario_chunk == 2
                raise RuntimeError("boom")
        assert current_engine_config() == EngineConfig()

    def test_nesting_innermost_wins(self):
        with EngineConfig(scenario_chunk=8, seed=1):
            with EngineConfig(seed=2):
                merged = current_engine_config()
                assert merged.scenario_chunk == 8  # inherited from outer
                assert merged.seed == 2  # overridden by inner
            merged = current_engine_config()
            assert merged.seed == 1
        assert current_engine_config().seed is None

    def test_shared_instance_across_threads_restores_correctly(self):
        # One EngineConfig object entered concurrently from two threads must
        # pop each thread's own activation (the stack is thread-local, not
        # state on the shared instance).
        shared = EngineConfig(scenario_chunk=5)
        inside = threading.Event()
        release = threading.Event()
        observed = {}

        def holder():
            with shared:
                inside.set()
                release.wait(timeout=5)
            observed["holder_after"] = current_engine_config().scenario_chunk

        thread = threading.Thread(target=holder)
        thread.start()
        inside.wait(timeout=5)
        with EngineConfig(scenario_chunk=3):
            with shared:
                assert current_engine_config().scenario_chunk == 5
            # Exiting the shared instance here must restore THIS thread's
            # outer value, not the holder thread's.
            assert current_engine_config().scenario_chunk == 3
        release.set()
        thread.join()
        assert observed["holder_after"] is None
        assert current_engine_config().scenario_chunk is None

    def test_thread_local_isolation(self):
        seen = {}

        def worker():
            # The main thread's active config must not leak into this thread.
            seen["config"] = current_engine_config().seed

        with EngineConfig(seed=11):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["config"] is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            EngineConfig(seed="yes")
        # Removed: kernels follow the shape, paths follow the algorithm.
        for removed in ("reduction_impl", "use_fast_path", "use_batch", "use_packed"):
            with pytest.raises(TypeError):
                EngineConfig(**{removed: False})
        with pytest.raises(ConfigError):
            EngineConfig(scenario_chunk=-1)

    def test_use_fast_path_routes_engine(self):
        # Only the explicit per-call switch selects the per-agent path; no
        # config scope reaches it.
        values = _single_values(4)
        pattern = _pattern(4)
        slow = run_execution(MidpointAlgorithm(), values, pattern, 5, use_fast_path=False)
        with EngineConfig(seed=1, scenario_chunk=1, threads=2):
            fast = run_execution(MidpointAlgorithm(), values, pattern, 5)
        np.testing.assert_array_equal(slow.output_history(), fast.output_history())

    def test_use_batch_false_routes_valency_reference(self):
        # The valency path follows the algorithm's batch hooks alone: only an
        # algorithm without them takes the per-future reference loop.
        with EngineConfig(scenario_chunk=1, threads=2):
            assert ValencyEstimator(MidpointAlgorithm(), deaf_model(n=4))._batchable()
        estimator = ValencyEstimator(FloodingExactConsensus(horizon=3), deaf_model(n=4))
        assert not estimator._batchable()
        assert not estimator._batchable_stateful()


# --------------------------------------------------------------------------- #
# Config-route equivalence matrix
# --------------------------------------------------------------------------- #


CONFIG_MATRIX = [
    EngineConfig(),
    EngineConfig(seed=1),
    EngineConfig(seed=2, threads=1),
    EngineConfig(scenario_chunk=1),
    EngineConfig(scenario_chunk=2),
    EngineConfig(threads=2),
    EngineConfig(seed=3, scenario_chunk=1, threads=3),
    EngineConfig(threads=4),
    EngineConfig(seed=4, scenario_chunk=7),
    EngineConfig(seed=5, scenario_chunk=3, threads=2),
]


def _config_copy(config):
    return replace(config)


class TestStudyRouteEquivalence:
    @pytest.mark.parametrize("config_index", range(len(CONFIG_MATRIX)))
    def test_single_scenario_pattern_route(self, config_index):
        config = CONFIG_MATRIX[config_index]
        values = _single_values(5, seed=1)
        result = Study(
            algorithm=MidpointAlgorithm(),
            initial_values=values,
            pattern=_pattern(5),
            rounds=8,
            config=_config_copy(config),
        ).run()
        with _config_copy(config):
            direct = run_execution(MidpointAlgorithm(), values, _pattern(5), 8)
        np.testing.assert_array_equal(
            result.execution.output_history(), direct.output_history()
        )
        assert result.provenance.route == "run_execution"
        assert result.provenance.fast_path is True

    @pytest.mark.parametrize("config_index", range(len(CONFIG_MATRIX)))
    def test_pattern_ensemble_route(self, config_index):
        config = CONFIG_MATRIX[config_index]
        values = _ensemble_values(4, 5, seed=2)
        result = Study(
            algorithm=MidpointAlgorithm(),
            initial_values=values,
            pattern=_pattern(5),
            rounds=8,
            config=_config_copy(config),
        ).run()
        with _config_copy(config):
            direct = run_pattern_ensemble(MidpointAlgorithm(), values, _pattern(5), 8)
        np.testing.assert_array_equal(
            result.execution.recorded_outputs, direct.recorded_outputs
        )
        assert result.provenance.route == "run_pattern_ensemble"
        assert result.provenance.batched == direct.batched is True
        assert result.provenance.fast_path is True

    @pytest.mark.parametrize("config_index", range(len(CONFIG_MATRIX)))
    def test_adversarial_ensemble_route(self, config_index):
        config = CONFIG_MATRIX[config_index]
        values = _ensemble_values(3, 4, seed=3)
        result = Study(
            algorithm=MidpointAlgorithm(),
            initial_values=values,
            adversary=GreedyDiameterAdversary(deaf_model(n=4)),
            rounds=6,
            config=_config_copy(config),
        ).run()
        with _config_copy(config):
            direct = run_adversarial_ensemble(
                MidpointAlgorithm(), values, GreedyDiameterAdversary(deaf_model(n=4)), 6
            )
        np.testing.assert_array_equal(
            result.execution.recorded_outputs, direct.recorded_outputs
        )
        for scenario in range(3):
            assert result.execution.scenario_graphs(scenario) == direct.scenario_graphs(
                scenario
            )
        assert result.provenance.route == "run_adversarial_ensemble"
        assert result.provenance.batched == direct.batched

    def test_explicit_graphs_ensemble_route(self):
        values = _ensemble_values(3, 4, seed=4)
        graphs = [complete_graph(4), cycle_graph(4), complete_graph(4)]
        result = Study(
            algorithm=MidpointAlgorithm(), initial_values=values, graphs=graphs
        ).run()
        direct = run_ensemble(MidpointAlgorithm(), values, graphs)
        np.testing.assert_array_equal(
            result.execution.recorded_outputs, direct.recorded_outputs
        )
        assert result.provenance.route == "run_ensemble"
        assert result.rounds == 3

    def test_explicit_graphs_single_route(self):
        values = _single_values(4, seed=5)
        graphs = [complete_graph(4), cycle_graph(4)]
        result = Study(
            algorithm=MidpointAlgorithm(), initial_values=values, graphs=graphs
        ).run()
        direct = run_execution(MidpointAlgorithm(), values, SequencePattern(graphs), 2)
        np.testing.assert_array_equal(
            result.execution.output_history(), direct.output_history()
        )
        assert result.execution.graphs == graphs

    @pytest.mark.parametrize("batch_hooks", [True, False])
    def test_certification_route(self, batch_hooks):
        # With batch hooks the certificate comes from the stacked valency
        # path; without them (the same midpoint rule, per agent) from the
        # per-future reference loop.
        model = deaf_model(n=4)
        values = _single_values(4, seed=6)
        make_algorithm = MidpointAlgorithm if batch_hooks else _PerAgentMidpoint
        config = EngineConfig(scenario_chunk=3)
        result = Study(
            algorithm=make_algorithm(),
            model=model,
            initial_values=values,
            adversary=GreedyDiameterAdversary(model),
            rounds=6,
            certify=CertifySpec(suffix_rounds=25, exploration_depth=1),
            config=config,
        ).run()
        assert result.provenance.fast_path is batch_hooks
        with EngineConfig(scenario_chunk=3):
            direct = run_execution(
                make_algorithm(), values, GreedyDiameterAdversary(model), 6
            )
            estimator = ValencyEstimator(
                make_algorithm(), model, suffix_rounds=25, exploration_depth=1
            )
            assert estimator._batchable() is batch_hooks
            estimates = estimator.trace(direct.configurations)
        assert result.certificates is not None
        assert result.certificates.valency_trace == [
            float(estimate.lower_diameter) for estimate in estimates
        ]
        for mine, theirs in zip(result.certificates.estimates, estimates):
            assert np.array_equal(mine.limits, theirs.limits)
        lower, upper = result.certificates.rate_interval
        assert lower <= upper + 1e-12

    def test_stateful_certification_covers_amortized_midpoint(self):
        # Acceptance: the certified study of the stateful algorithm routes
        # through the batch_state valency path and matches the reference.
        model = psi_model(4)
        values = np.linspace(0.0, 1.0, 4)
        batched = Study(
            algorithm=AmortizedMidpointAlgorithm(),
            model=model,
            initial_values=values,
            adversary=PsiBlockAdversary(4),
            rounds=6,
            certify=CertifySpec(suffix_rounds=20),
        ).run()
        estimator = ValencyEstimator(AmortizedMidpointAlgorithm(), model, suffix_rounds=20)
        assert estimator._batchable_stateful()
        reference_trace = [
            diameter(estimator._limit_estimates_reference(configuration))
            for configuration in batched.execution.configurations
        ]
        assert batched.certificates.valency_trace == reference_trace


class TestProvenanceFastPath:
    """``provenance.fast_path`` names the path that ran, on every route."""

    ROUTES = ("run_execution", "run_ensemble", "run_pattern_ensemble", "run_adversarial_ensemble")

    @staticmethod
    def _study(make_algorithm, route):
        n = 4
        if route == "run_execution":
            values, source = _single_values(n, seed=8), {"pattern": _pattern(n), "rounds": 5}
        else:
            values = _ensemble_values(4, n, seed=8)
            source = {
                "run_ensemble": {"graphs": [complete_graph(n), cycle_graph(n)] * 2},
                "run_pattern_ensemble": {"pattern": _pattern(n), "rounds": 5},
                "run_adversarial_ensemble": {
                    "adversary": GreedyDiameterAdversary(deaf_model(n=n)),
                    "rounds": 5,
                },
            }[route]
        return Study(algorithm=make_algorithm(), initial_values=values, **source).run()

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize(
        "make_algorithm, batch_hooks",
        [(MidpointAlgorithm, True), (lambda: FloodingExactConsensus(horizon=3), False)],
        ids=["midpoint", "flooding"],
    )
    def test_fast_path_matches_what_ran(self, make_algorithm, batch_hooks, route):
        provenance = self._study(make_algorithm, route).provenance
        assert provenance.route == route
        assert provenance.fast_path is batch_hooks
        if route == "run_execution":
            assert provenance.batched is None
        else:
            assert provenance.batched is batch_hooks


# --------------------------------------------------------------------------- #
# Study declaration and result surface
# --------------------------------------------------------------------------- #


class TestStudyDeclaration:
    def test_requires_exactly_one_communication_source(self):
        with pytest.raises(ConfigError):
            Study(algorithm=MidpointAlgorithm(), initial_values=[0.0, 1.0], rounds=3)
        with pytest.raises(ConfigError):
            Study(
                algorithm=MidpointAlgorithm(),
                initial_values=[0.0, 1.0],
                rounds=3,
                pattern=_pattern(2),
                adversary=GreedyDiameterAdversary(deaf_model(n=2)),
            )

    def test_adaptive_pattern_is_treated_as_adversary(self):
        spec = ScenarioSpec(
            initial_values=[0.0, 1.0], rounds=3,
            pattern=GreedyDiameterAdversary(deaf_model(n=2)),
        )
        assert spec.adversary is not None and spec.pattern is None

    def test_rounds_derived_from_graphs(self):
        spec = ScenarioSpec(
            initial_values=[0.0, 1.0], graphs=[complete_graph(2)] * 4
        )
        assert spec.rounds == 4
        with pytest.raises(ConfigError):
            ScenarioSpec(
                initial_values=[0.0, 1.0], rounds=3, graphs=[complete_graph(2)] * 4
            )

    def test_certify_needs_model(self):
        with pytest.raises(ConfigError):
            Study(
                algorithm=MidpointAlgorithm(),
                initial_values=[0.0, 1.0],
                pattern=_pattern(2),
                rounds=3,
                certify=True,
            )

    def test_certify_ensembles_returns_per_scenario_certificates(self):
        result = Study(
            algorithm=MidpointAlgorithm(),
            model=deaf_model(n=4),
            initial_values=_ensemble_values(2, 4),
            pattern=_pattern(4),
            rounds=3,
            certify=True,
        ).run()
        assert isinstance(result.certificates, list)
        assert len(result.certificates) == 2
        assert all(len(c.valency_trace) == 4 for c in result.certificates)

    def test_scenario_and_inline_fields_are_exclusive(self):
        spec = ScenarioSpec(initial_values=[0.0, 1.0], rounds=3, pattern=_pattern(2))
        with pytest.raises(ConfigError):
            Study(algorithm=MidpointAlgorithm(), scenario=spec, initial_values=[0.0, 1.0])
        # rounds/record_every/scenario_labels must not be silently ignored.
        with pytest.raises(ConfigError):
            Study(algorithm=MidpointAlgorithm(), scenario=spec, rounds=50)
        with pytest.raises(ConfigError):
            Study(algorithm=MidpointAlgorithm(), scenario=spec, record_every=2)
        with pytest.raises(ConfigError):
            Study(algorithm=MidpointAlgorithm(), scenario=spec, scenario_labels=["a"])

    def test_result_surface(self):
        result = Study(
            algorithm=MidpointAlgorithm(),
            initial_values=_ensemble_values(3, 4, seed=7),
            adversary=GreedyDiameterAdversary(deaf_model(n=4)),
            rounds=5,
        ).run()
        assert isinstance(result, StudyResult)
        assert result.is_ensemble
        assert result.final_outputs.shape == (3, 4, 1)
        assert result.diameters().shape[1] == 3
        assert result.final_diameters().shape == (3,)
        assert result.decision_rounds(10.0).shape == (3,)
        assert len(result.round_choices()) == 5
        single = Study(
            algorithm=MidpointAlgorithm(),
            initial_values=_single_values(4, seed=8),
            pattern=_pattern(4),
            rounds=5,
        ).run()
        assert not single.is_ensemble
        assert single.final_outputs.shape == (4, 1)
        assert single.decision_rounds(10.0) == 0


# --------------------------------------------------------------------------- #
# Shape validation
# --------------------------------------------------------------------------- #


class TestShapeValidation:
    def test_rejects_wrong_rank_initial_values(self):
        with pytest.raises(EnsembleShapeError):
            run_ensemble(
                MidpointAlgorithm(),
                np.zeros((2, 2, 2, 2)),
                [complete_graph(2)],
            )
        with pytest.raises(EnsembleShapeError):
            Study(
                algorithm=MidpointAlgorithm(),
                initial_values=np.zeros((2, 2, 2, 2)),
                pattern=_pattern(2),
                rounds=1,
            ).run()

    def test_rejects_empty_ensemble(self):
        with pytest.raises(EnsembleShapeError):
            run_ensemble(MidpointAlgorithm(), np.zeros((0, 3, 1)), [complete_graph(3)])

    def test_rejects_non_graph_round_entries(self):
        values = _ensemble_values(2, 3)
        with pytest.raises(EnsembleShapeError):
            run_ensemble(
                MidpointAlgorithm(), values, [np.ones((3, 3), dtype=bool)]
            )
        with pytest.raises(EnsembleShapeError):
            run_ensemble(
                MidpointAlgorithm(), values, [[complete_graph(3), "nope"]]
            )

    def test_masked_reduction_names_agent_mismatch(self):
        adjacency = np.ones((4, 5, 5), dtype=bool)
        values = np.zeros((4, 3, 1))
        with pytest.raises(EnsembleShapeError) as excinfo:
            masked_min(adjacency, values)
        assert "agents" in str(excinfo.value)

    def test_masked_reduction_names_lead_mismatch(self):
        adjacency = np.ones((4, 3, 3), dtype=bool)
        values = np.zeros((5, 3, 1))
        with pytest.raises(EnsembleShapeError) as excinfo:
            masked_min_max(adjacency, values)
        assert "leading" in str(excinfo.value)

    def test_masked_reduction_rejects_non_square_adjacency(self):
        with pytest.raises(EnsembleShapeError):
            masked_min(np.ones((3, 4), dtype=bool), np.zeros((4, 1)))

    def test_error_is_execution_error_subclass(self):
        # Backwards compatibility: callers catching ExecutionError keep working.
        assert issubclass(EnsembleShapeError, ExecutionError)
