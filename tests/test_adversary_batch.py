"""Tests for the batched adversarial search engine and the masked reductions.

Three properties are enforced:

* batched candidate evaluation makes *identical* choices to a per-candidate
  reference scan (:class:`_ReferenceLoop`, run on the per-agent engine path)
  on the Theorem 1 / Theorem 3 reference executions (and on generic
  greedy/lookahead runs), on both execution paths;
* :func:`repro.execution.run_adversarial_ensemble` commits the same graph
  sequences and outputs as independent per-scenario runs;
* every masked-reduction kernel is bit-for-bit equal to the plain dense
  reduction on every broadcast layout, for every split of the lead axis into
  per-call shards and every lead block of the dense kernel, including blocks
  of one scenario and of more than B scenarios.
"""

import numpy as np
import pytest

from repro.algorithms import (
    AmortizedMidpointAlgorithm,
    MeanAlgorithm,
    MidpointAlgorithm,
    TwoAgentThirdsAlgorithm,
)
import repro.algorithms.base as base_module
from repro.algorithms.base import (
    ConvexCombinationAlgorithm,
    masked_max,
    masked_min,
    masked_min_max,
)
from repro.config import EngineConfig, current_engine_config
from repro.core.adversary import (
    GreedyDiameterAdversary,
    LookaheadDiameterAdversary,
    PsiBlockAdversary,
    TwoAgentAdversary,
)
from repro.exceptions import ExecutionError
from repro.execution import run_adversarial_ensemble, run_execution
from repro.execution.batch import _batch_diameters, _round_adjacency
from repro.execution.engine import _AdjacencyCache, run_from_configuration
from repro.execution.state import Configuration
from repro.execution.parallel import shard_bounds
from repro.graphs.families import complete_graph, cycle_graph
from repro.models.patterns import AdversarialPattern
from repro.models.standard import deaf_model, two_agent_model
from repro.types import pairwise_diameters, running_argmax


class _SlowMidpoint(ConvexCombinationAlgorithm):
    """Midpoint clone without batch hooks, to exercise the fallback paths."""

    def combine(self, agent_id, received, round_number):
        values = np.vstack(list(received.values()))
        return (values.min(axis=0) + values.max(axis=0)) / 2.0


class _ReferenceLoop(AdversarialPattern):
    """Per-candidate reference scan over an adversary's own ensemble plan.

    Each decision replays every candidate sequence of the wrapped
    adversary's plan from the current configuration through the per-agent
    engine, keeps the first candidate whose output diameter beats the best
    so far by more than ``1e-15``, and commits its first ``commit_rounds``
    graphs — the loop the adversaries ran before candidate evaluation was
    batched.
    """

    def __init__(self, adversary):
        self._adversary = adversary
        self._pending = []

    def reset(self):
        self._adversary.reset()
        self._pending = []

    def choose(self, context):
        if not self._pending:
            t, n = context.round_number, context.outputs.shape[0]
            plans = self._adversary.ensemble_plans(t, n, [list(context.history)])
            plan = plans[0] if plans is not None else self._adversary.ensemble_plan(t, n)
            start = Configuration(
                states=tuple(context.states),
                outputs=np.asarray(context.outputs, dtype=float),
                round_number=t - 1,
            )
            best, best_diameter = None, -1.0
            for candidate in plan.candidates:
                final, _ = run_from_configuration(
                    context.algorithm, start, list(candidate), use_fast_path=False
                )
                if final.output_diameter() > best_diameter + 1e-15:
                    best, best_diameter = candidate, final.output_diameter()
            self._pending = list(best[: plan.commit_rounds])
        return self._pending.pop(0)


def _values(batch, n, d=1, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(batch, n, d))


# --------------------------------------------------------------------------- #
# Batched vs per-graph adversary choices (single executions)
# --------------------------------------------------------------------------- #


class TestBatchedAdversaryChoices:
    CASES = [
        # (adversary factory, algorithm factory, n, rounds)
        (lambda: GreedyDiameterAdversary(deaf_model(n=4)), MidpointAlgorithm, 4, 8),
        (lambda: LookaheadDiameterAdversary(deaf_model(n=3), 2), MidpointAlgorithm, 3, 6),
        (TwoAgentAdversary, TwoAgentThirdsAlgorithm, 2, 12),
        (lambda: PsiBlockAdversary(5), MidpointAlgorithm, 5, 10),
        (lambda: PsiBlockAdversary(5), AmortizedMidpointAlgorithm, 5, 9),
        (lambda: GreedyDiameterAdversary(deaf_model(n=4)), MeanAlgorithm, 4, 7),
    ]

    @pytest.mark.parametrize("use_fast_path", [True, False, None])
    @pytest.mark.parametrize("case_index", range(len(CASES)))
    def test_batched_matches_reference_loop(self, use_fast_path, case_index):
        make_adversary, make_algorithm, n, rounds = self.CASES[case_index]
        values = list(np.linspace(0.0, 1.0, n) + np.arange(n) % 3)
        batched = run_execution(
            make_algorithm(), values, make_adversary(), rounds,
            use_fast_path=use_fast_path,
        )
        reference = run_execution(
            make_algorithm(), values, _ReferenceLoop(make_adversary()), rounds,
            use_fast_path=False,
        )
        assert batched.graphs == reference.graphs
        for lhs, rhs in zip(batched.configurations, reference.configurations):
            np.testing.assert_array_equal(lhs.outputs, rhs.outputs)

    def test_theorem_1_reference_execution(self):
        # The Theorem 1 adversary must still realize contraction rate 1/3
        # against Algorithm 1 with batched candidate evaluation.
        from repro.execution.metrics import empirical_contraction_rate

        execution = run_execution(
            TwoAgentThirdsAlgorithm(), [0.0, 1.0], TwoAgentAdversary(), 25
        )
        assert empirical_contraction_rate(execution) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_theorem_3_reference_execution(self):
        # The Theorem 3 adversary plays sigma blocks; its block picks on the
        # fast path (one stacked pass) and on the per-agent path (one
        # simulation per candidate block) must agree including the recorded
        # deaf-agent choices.
        n, rounds = 5, 12
        values = [0.0, 1.0, 2.0, 3.0, 4.0]
        batched_adversary = PsiBlockAdversary(n)
        reference_adversary = PsiBlockAdversary(n)
        batched = run_execution(MidpointAlgorithm(), values, batched_adversary, rounds)
        reference = run_execution(
            MidpointAlgorithm(), values, reference_adversary, rounds, use_fast_path=False
        )
        assert batched.graphs == reference.graphs
        assert batched_adversary.chosen_blocks == reference_adversary.chosen_blocks

    def test_simulate_outputs_batch_matches_per_graph(self):
        captured = {}

        class Probe(GreedyDiameterAdversary):
            def choose(self, context):
                graphs = list(self.model)
                batched = context.simulate_outputs_batch(graphs)
                stacked = np.stack(
                    [np.asarray(context.simulate_outputs(g), dtype=float) for g in graphs]
                )
                captured.setdefault("pairs", []).append((batched, stacked))
                return super().choose(context)

        for fast in (True, False):
            captured.clear()
            run_execution(
                MidpointAlgorithm(), [0.0, 1.0, 2.0], Probe(deaf_model(n=3)), 4,
                use_fast_path=fast,
            )
            assert captured["pairs"]
            for batched, stacked in captured["pairs"]:
                np.testing.assert_array_equal(batched, stacked)

    def test_simulate_sequences_batch_rejects_mixed_lengths(self):
        class Probe(GreedyDiameterAdversary):
            def choose(self, context):
                graphs = list(self.model)
                with pytest.raises(ExecutionError):
                    context.simulate_sequences_batch([[graphs[0]], [graphs[0]] * 2])
                return super().choose(context)

        run_execution(MidpointAlgorithm(), [0.0, 1.0, 2.0], Probe(deaf_model(n=3)), 1)


# --------------------------------------------------------------------------- #
# Batched adversarial ensembles
# --------------------------------------------------------------------------- #


class TestRunAdversarialEnsemble:
    @pytest.mark.parametrize(
        "make_algorithm,make_adversary,n,rounds",
        [
            (MidpointAlgorithm, lambda: GreedyDiameterAdversary(deaf_model(n=5)), 5, 7),
            (MidpointAlgorithm, lambda: LookaheadDiameterAdversary(deaf_model(n=4), 2), 4, 5),
            (MidpointAlgorithm, lambda: PsiBlockAdversary(5), 5, 10),
            (AmortizedMidpointAlgorithm, lambda: PsiBlockAdversary(5), 5, 8),
            (TwoAgentThirdsAlgorithm, TwoAgentAdversary, 2, 12),
            (_SlowMidpoint, lambda: GreedyDiameterAdversary(deaf_model(n=4)), 4, 5),
            # History-dependent candidate sets: per-scenario ensemble plans.
            (
                MidpointAlgorithm,
                lambda: GreedyDiameterAdversary(deaf_model(n=5), avoid_repeat=True),
                5,
                9,
            ),
            (
                AmortizedMidpointAlgorithm,
                lambda: GreedyDiameterAdversary(deaf_model(n=5), avoid_repeat=True),
                5,
                8,
            ),
        ],
    )
    def test_matches_per_scenario_runs(self, make_algorithm, make_adversary, n, rounds):
        batch = 4
        values = _values(batch, n, seed=11)
        ensemble = run_adversarial_ensemble(
            make_algorithm(), values, make_adversary(), rounds
        )
        assert ensemble.rounds == rounds
        for scenario in range(batch):
            single = run_execution(
                make_algorithm(), values[scenario], make_adversary(), rounds
            )
            assert ensemble.scenario_graphs(scenario) == single.graphs
            np.testing.assert_array_equal(
                ensemble.final_outputs[scenario], single.final_configuration.outputs
            )

    def test_multidimensional_values(self):
        batch, n, rounds = 3, 4, 6
        values = _values(batch, n, d=3, seed=2)
        ensemble = run_adversarial_ensemble(
            MidpointAlgorithm(), values, GreedyDiameterAdversary(deaf_model(n=n)), rounds
        )
        for scenario in range(batch):
            single = run_execution(
                MidpointAlgorithm(), values[scenario],
                GreedyDiameterAdversary(deaf_model(n=n)), rounds,
            )
            assert ensemble.scenario_graphs(scenario) == single.graphs
            np.testing.assert_array_equal(
                ensemble.final_outputs[scenario], single.final_configuration.outputs
            )

    def test_record_every(self):
        values = _values(2, 4, seed=5)
        ensemble = run_adversarial_ensemble(
            MidpointAlgorithm(), values, GreedyDiameterAdversary(deaf_model(n=4)), 7,
            record_every=3,
        )
        assert ensemble.recorded_rounds == [0, 3, 6, 7]
        assert len(ensemble.round_choices) == 7

    def test_zero_rounds(self):
        values = _values(2, 4, seed=6)
        ensemble = run_adversarial_ensemble(
            MidpointAlgorithm(), values, GreedyDiameterAdversary(deaf_model(n=4)), 0
        )
        assert ensemble.recorded_rounds == [0]
        assert ensemble.round_choices == []

    def test_rejects_non_adversarial_pattern(self):
        from repro.models.patterns import ConstantPattern

        with pytest.raises(ExecutionError):
            run_adversarial_ensemble(
                MidpointAlgorithm(), _values(2, 3), ConstantPattern(complete_graph(3)), 2
            )

    def test_two_agent_plan_rejects_wrong_n(self):
        with pytest.raises(ExecutionError):
            run_adversarial_ensemble(
                MidpointAlgorithm(), _values(2, 3), TwoAgentAdversary(), 2
            )

    def test_scenario_labels(self):
        values = _values(3, 4, seed=8)
        labels = ["a", "b", "c"]
        ensemble = run_adversarial_ensemble(
            MidpointAlgorithm(), values, GreedyDiameterAdversary(deaf_model(n=4)), 3,
            scenario_labels=labels,
        )
        assert ensemble.scenario_labels == labels
        with pytest.raises(ExecutionError):
            run_adversarial_ensemble(
                MidpointAlgorithm(), values, GreedyDiameterAdversary(deaf_model(n=4)), 3,
                scenario_labels=["too", "few"],
            )


# --------------------------------------------------------------------------- #
# History-dependent adversaries (per-scenario plan API)
# --------------------------------------------------------------------------- #


class TestHistoryDependentAdversary:
    def test_single_run_batched_matches_reference(self):
        model = deaf_model(n=5)
        values = list(np.linspace(0.0, 1.0, 5))
        batched = run_execution(
            MidpointAlgorithm(), values,
            GreedyDiameterAdversary(model, avoid_repeat=True), 10,
        )
        reference = run_execution(
            MidpointAlgorithm(), values,
            _ReferenceLoop(GreedyDiameterAdversary(model, avoid_repeat=True)), 10,
            use_fast_path=False,
        )
        assert batched.graphs == reference.graphs
        np.testing.assert_array_equal(
            batched.final_configuration.outputs, reference.final_configuration.outputs
        )

    def test_never_repeats_previous_graph(self):
        model = deaf_model(n=4)
        execution = run_execution(
            MidpointAlgorithm(), np.linspace(0.0, 1.0, 4),
            GreedyDiameterAdversary(model, avoid_repeat=True), 12,
        )
        for previous, current in zip(execution.graphs, execution.graphs[1:]):
            assert current is not previous

    def test_ensemble_diverging_histories_match_per_scenario_runs(self):
        # Scenario histories diverge (different initial values pick different
        # first graphs), so the shared-plan API cannot express the candidate
        # sets; the per-scenario plan path must still match choice-for-choice.
        model = deaf_model(n=5)
        values = _values(6, 5, seed=21)
        ensemble = run_adversarial_ensemble(
            MidpointAlgorithm(), values,
            GreedyDiameterAdversary(model, avoid_repeat=True), 10,
        )
        assert ensemble.batched is True
        committed_first = {ensemble.scenario_graphs(b)[0] for b in range(6)}
        for scenario in range(6):
            single = run_execution(
                MidpointAlgorithm(), values[scenario],
                GreedyDiameterAdversary(model, avoid_repeat=True), 10,
            )
            assert ensemble.scenario_graphs(scenario) == single.graphs
            np.testing.assert_array_equal(
                ensemble.final_outputs[scenario], single.final_configuration.outputs
            )
            for previous, current in zip(single.graphs, single.graphs[1:]):
                assert current is not previous
        assert len(committed_first) >= 1  # sanity: the sweep actually ran

    def test_uniform_plan_validation(self):
        from repro.exceptions import EnsembleShapeError
        from repro.models.patterns import AdversarialPattern, EnsemblePlan

        model = deaf_model(n=4)
        graphs = list(model)

        class _RaggedPlans(AdversarialPattern):
            def choose(self, context):
                return graphs[0]

            def ensemble_plans(self, round_number, n, histories):
                # Scenario 0 sees two candidates, scenario 1 only one.
                return (
                    EnsemblePlan(candidates=((graphs[0],), (graphs[1],)), commit_rounds=1),
                    EnsemblePlan(candidates=((graphs[0],),), commit_rounds=1),
                )

        with pytest.raises(EnsembleShapeError):
            run_adversarial_ensemble(MidpointAlgorithm(), _values(2, 4), _RaggedPlans(), 3)

    def test_wrong_plan_count_rejected(self):
        from repro.exceptions import EnsembleShapeError
        from repro.models.patterns import AdversarialPattern, EnsemblePlan

        model = deaf_model(n=4)
        graphs = list(model)

        class _WrongCount(AdversarialPattern):
            def choose(self, context):
                return graphs[0]

            def ensemble_plans(self, round_number, n, histories):
                return (
                    EnsemblePlan(candidates=((graphs[0],),), commit_rounds=1),
                )

        # threads=1 pins the serial route: the parallel backend validates the
        # plan count per shard, where a constant-count adversary may happen
        # to match a shard's size.
        with pytest.raises(EnsembleShapeError):
            run_adversarial_ensemble(
                MidpointAlgorithm(), _values(3, 4), _WrongCount(), 2, threads=1
            )


# --------------------------------------------------------------------------- #
# Masked-reduction kernels
# --------------------------------------------------------------------------- #


def _dense_masked_min(adjacency, values):
    mask = np.swapaxes(np.asarray(adjacency, dtype=bool), -1, -2)[..., None]
    return np.where(mask, values[..., None, :, :], np.inf).min(axis=-2)


def _lead_shards(adjacency, values, shard):
    """Cut the first broadcast lead axis into per-call shards.

    ``shard`` is a shard size in scenarios, ``"dense"`` for one call over the
    whole stack, or ``"auto"`` for the four-way split the parallel backend
    makes under ``threads=4``.  Only operands that carry the axis are cut;
    broadcast operands are passed whole to every shard.
    """
    lead = np.broadcast_shapes(adjacency.shape[:-2], values.shape[:-2])
    if not lead:
        return [(adjacency, values)]
    total = lead[0]
    if shard == "dense":
        bounds = [(0, total)]
    elif shard == "auto":
        bounds = shard_bounds(total, 4)
    else:
        bounds = [(start, min(start + shard, total)) for start in range(0, total, shard)]

    def cut(array, start, stop):
        if array.ndim - 2 == len(lead) and array.shape[0] == total:
            return array[start:stop]
        return array

    return [(cut(adjacency, *bound), cut(values, *bound)) for bound in bounds]


class TestChunkedReductions:
    """The kernels, the dense kernel's lead blocks and per-shard dispatch."""

    SHAPES = [
        ((6, 6), (6, 2)),          # single graph, single scenario
        ((5, 6, 6), (5, 6, 2)),    # per-scenario graphs
        ((3, 6, 6), (5, 1, 6, 2)), # candidate axis crossed with scenarios
        ((6, 6), (5, 6, 1)),       # shared graph over an ensemble
        ((4, 6, 6), (6, 3)),       # stacked candidates, shared values (scan kernel)
        ((16, 48, 48), (16, 48, 1)),  # packed as a whole, dense in small shards
    ]

    @staticmethod
    def _pin(monkeypatch, kernel_name):
        kernel = getattr(base_module, f"_masked_extremes_{kernel_name}")
        monkeypatch.setattr(base_module, "_select_kernel", lambda *shape: kernel)

    @staticmethod
    def _case(rng, adjacency_shape, values_shape):
        n = adjacency_shape[-1]
        adjacency = rng.random(adjacency_shape) < 0.4
        adjacency[..., np.arange(n), np.arange(n)] = True
        return adjacency, rng.normal(size=values_shape)

    @pytest.mark.parametrize("kernel_name", ["dense", "packed", "scan", None])
    def test_each_kernel_bitwise_equal_to_dense(self, monkeypatch, kernel_name):
        rng = np.random.default_rng(0)
        if kernel_name is not None:
            self._pin(monkeypatch, kernel_name)
        for adjacency_shape, values_shape in self.SHAPES:
            shared_values = len(values_shape) == 2
            if (kernel_name == "scan") != shared_values and kernel_name is not None:
                continue  # the scan kernel is only defined on shared values
            adjacency, values = self._case(rng, adjacency_shape, values_shape)
            expected_lo = _dense_masked_min(adjacency, values)
            expected_hi = -_dense_masked_min(adjacency, -values)
            np.testing.assert_array_equal(masked_min(adjacency, values), expected_lo)
            np.testing.assert_array_equal(masked_max(adjacency, values), expected_hi)
            lo, hi = masked_min_max(adjacency, values)
            np.testing.assert_array_equal(lo, expected_lo)
            np.testing.assert_array_equal(hi, expected_hi)

    @pytest.mark.parametrize("dense_block", [1, 2, 3, 7, 100, "dense", "auto"])
    @pytest.mark.parametrize("shard", [1, 2, 4, 100, "dense", "auto"])
    def test_bitwise_equal_to_dense(self, monkeypatch, dense_block, shard):
        # Each shard's lead count selects its own kernel, so one stack may run
        # packed whole and dense in shards (as under the threaded backend);
        # ``dense_block`` sets the dense kernel's lead block in scenarios
        # ("dense": one block, "auto": the default budget).  No combination
        # may change a bit of the whole-stack reference.
        rng = np.random.default_rng(0)
        for adjacency_shape, values_shape in self.SHAPES:
            adjacency, values = self._case(rng, adjacency_shape, values_shape)
            lead = np.broadcast_shapes(adjacency.shape[:-2], values.shape[:-2])
            if dense_block != "auto":
                per_lead0 = int(np.prod(lead[1:])) * adjacency.shape[-1] ** 2 * values.shape[-1]
                blocks = 10**9 if dense_block == "dense" else dense_block
                monkeypatch.setattr(base_module, "_DENSE_BLOCK_ELEMENTS", blocks * per_lead0)
            expected_lo = _dense_masked_min(adjacency, values)
            expected_hi = -_dense_masked_min(adjacency, -values)
            shards = _lead_shards(adjacency, values, shard)
            for reduce, expected in ((masked_min, expected_lo), (masked_max, expected_hi)):
                got = [reduce(*operands) for operands in shards]
                np.testing.assert_array_equal(
                    np.concatenate(got) if lead else got[0], expected
                )
            pairs = [masked_min_max(*operands) for operands in shards]
            for side, expected in enumerate((expected_lo, expected_hi)):
                got = [pair[side] for pair in pairs]
                np.testing.assert_array_equal(
                    np.concatenate(got) if lead else got[0], expected
                )

    def test_chunk_one_and_chunk_larger_than_batch(self, monkeypatch):
        rng = np.random.default_rng(1)
        batch = 3
        adjacency = rng.random((batch, 5, 5)) < 0.5
        adjacency[..., np.arange(5), np.arange(5)] = True
        values = rng.normal(size=(batch, 5, 4))
        expected = _dense_masked_min(adjacency, values)
        self._pin(monkeypatch, "dense")
        for budget in (1, 5 * 5 * 4 * (batch + 10)):
            monkeypatch.setattr(base_module, "_DENSE_BLOCK_ELEMENTS", budget)
            np.testing.assert_array_equal(masked_min(adjacency, values), expected)

    def test_rows_without_neighbors_fill(self):
        adjacency = np.zeros((2, 3, 3), dtype=bool)  # not even self-loops
        values = np.ones((3, 2))
        assert np.all(masked_min(adjacency, values) == np.inf)
        assert np.all(masked_max(adjacency, values) == -np.inf)

    def test_configuration_validation_and_restore(self):
        # The reduction reads no configuration: the removed chunk and kernel
        # fields are rejected, and a reduction inside any config scope is
        # bit-for-bit the one outside, with the scope restored on exit.
        for field, value in (
            ("reduction_batch_chunk", 2),
            ("reduction_receiver_chunk", 3),
            ("reduction_impl", "dense"),
        ):
            with pytest.raises(TypeError):
                EngineConfig(**{field: value})
        rng = np.random.default_rng(2)
        adjacency, values = self._case(rng, (16, 48, 48), (16, 48, 1))
        outside = masked_min_max(adjacency, values)
        with EngineConfig(seed=3, scenario_chunk=1, threads=2):
            inside = masked_min_max(adjacency, values)
        assert current_engine_config() == EngineConfig()
        for got, want in zip(inside, outside):
            np.testing.assert_array_equal(got, want)

    def test_executions_identical_across_chunkings(self, monkeypatch):
        values = _values(4, 6, seed=9)
        pattern_graphs = [complete_graph(6), cycle_graph(6)]
        from repro.execution import run_pattern_ensemble
        from repro.models.patterns import PeriodicPattern

        def run():
            return run_pattern_ensemble(
                MidpointAlgorithm(), values, PeriodicPattern(pattern_graphs), 9
            ).recorded_outputs

        dispatched = run()
        for kernel_name in ("dense", "packed"):
            self._pin(monkeypatch, kernel_name)
            np.testing.assert_array_equal(run(), dispatched)
        self._pin(monkeypatch, "dense")
        monkeypatch.setattr(base_module, "_DENSE_BLOCK_ELEMENTS", 1)  # one-scenario blocks
        np.testing.assert_array_equal(run(), dispatched)


# --------------------------------------------------------------------------- #
# Selection helpers
# --------------------------------------------------------------------------- #


class TestSelectionHelpers:
    def test_pairwise_diameters_d1_matches_dense(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(6, 9, 1))
        diffs = points[..., :, None, :] - points[..., None, :, :]
        dense = np.sqrt(np.sum(diffs * diffs, axis=-1)).max(axis=(-1, -2))
        np.testing.assert_array_equal(pairwise_diameters(points), dense)

    def test_pairwise_diameters_matches_scalar_diameter(self):
        from repro.types import diameter

        rng = np.random.default_rng(5)
        stacked = rng.normal(size=(4, 5, 3))
        batched = pairwise_diameters(stacked)
        for index in range(4):
            assert batched[index] == diameter(stacked[index])

    def test_running_argmax_tie_breaking(self):
        assert running_argmax([1.0, 1.0, 1.0]) == 0
        assert running_argmax([0.5, 1.0, 1.0]) == 1
        assert running_argmax([0.0, 0.0, 0.5]) == 2
        # improvements below the tolerance do not move the pick
        assert running_argmax([1.0, 1.0 + 5e-16]) == 0

    def test_batch_diameters_d1_and_pruned(self):
        rng = np.random.default_rng(6)
        for shape in [(5, 8, 1), (4, 12, 3), (3, 2, 2), (2, 1, 4)]:
            outputs = rng.normal(size=shape)
            diffs = outputs[:, :, None, :] - outputs[:, None, :, :]
            dense = np.sqrt((diffs * diffs).sum(axis=-1)).max(axis=(-1, -2))
            if shape[1] < 2:
                dense = np.zeros(shape[0])
            np.testing.assert_allclose(
                _batch_diameters(outputs), dense, rtol=1e-12, atol=1e-14
            )


# --------------------------------------------------------------------------- #
# Adjacency caching
# --------------------------------------------------------------------------- #


class TestAdjacencyCache:
    def test_repeated_graph_lists_reuse_the_stacked_tensor(self):
        cache = _AdjacencyCache()
        graphs = (complete_graph(4), cycle_graph(4), complete_graph(4))
        first = cache.stacked(graphs)
        second = cache.stacked(graphs)
        assert first is second
        np.testing.assert_array_equal(
            first, np.stack([graph.adjacency for graph in graphs])
        )

    def test_uniform_round_broadcasts_without_stacking(self):
        graph = complete_graph(3)
        adjacency = _round_adjacency([graph, graph, graph], 3, 3)
        assert adjacency.shape == (3, 3)
        assert adjacency is graph.adjacency

    def test_cache_bounded(self):
        cache = _AdjacencyCache(max_entries=1)
        first = cache.stacked((complete_graph(3), cycle_graph(3)))
        # A different list does not evict the first entry (insert-only cap).
        cache.stacked((cycle_graph(3), complete_graph(3)))
        again = cache.stacked((complete_graph(3), cycle_graph(3)))
        np.testing.assert_array_equal(first, again)
