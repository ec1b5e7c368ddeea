"""Tests for the asynchronous simulator, schedulers and round-based wrapper.

Includes a brute-force reference implementation of ``agreement_time`` (the
old per-time rescan) to pin down the semantics of the new single-sweep
implementation.
"""

import numpy as np
import pytest

from repro.algorithms import MeanAlgorithm, MidpointAlgorithm
from repro.asynchrony import (
    AsynchronousSimulator,
    OutputSample,
    CrashFault,
    CrashSchedule,
    MinRelayAlgorithm,
    RandomDelayScheduler,
    RoundBasedAsyncAlgorithm,
    staggered_crash_schedule,
)
from repro.exceptions import AsynchronyError
from repro.types import diameter


def _reference_agreement_time(execution, tolerance):
    """The old O(S^2) rescan semantics, kept as the test oracle."""
    times = sorted({sample.time for sample in execution.samples} | {0.0, execution.final_time})
    agreement_since = None
    correct = execution.correct_agents()
    for t in times:
        outputs = execution.final_outputs.copy()
        latest = np.full(execution.n, -np.inf)
        for sample in execution.samples:
            if sample.time <= t and sample.time >= latest[sample.agent]:
                outputs[sample.agent] = sample.value
                latest[sample.agent] = sample.time
        if diameter(outputs[correct]) <= tolerance + 1e-12:
            if agreement_since is None:
                agreement_since = t
        else:
            agreement_since = None
    return agreement_since


def _run(algorithm, values, f, **kwargs):
    return AsynchronousSimulator(algorithm, values, f=f, **kwargs).run()


class TestSimulatorBasics:
    def test_crash_budget_is_validated(self):
        with pytest.raises(AsynchronyError):
            AsynchronousSimulator(MinRelayAlgorithm(), [0.0, 1.0], f=2)

    def test_quorum_must_be_positive(self):
        with pytest.raises(AsynchronyError):
            RoundBasedAsyncAlgorithm(MidpointAlgorithm()).on_init(0, np.array([0.0]), 2, 2)

    def test_round_based_midpoint_without_crashes_behaves_like_lockstep(self):
        # All delays 1 and f = 0: every asynchronous round receives all n
        # messages, so the trajectory equals the synchronous midpoint run on
        # the complete graph — one round suffices for agreement.
        execution = _run(
            RoundBasedAsyncAlgorithm(MidpointAlgorithm()), [0.0, 1.0, 4.0], f=0, max_time=10.0
        )
        assert execution.correct_diameter_at(execution.final_time) == pytest.approx(0.0)
        np.testing.assert_allclose(execution.final_outputs, np.full((3, 1), 2.0))

    def test_effective_in_neighbors_meet_the_quorum(self):
        n, f = 5, 2
        algorithm = RoundBasedAsyncAlgorithm(MidpointAlgorithm())
        state = algorithm.on_init(0, np.array([0.0]), n, f)
        state, _ = algorithm.on_start(0, state)
        assert algorithm.completed_rounds(state) == 0
        state, broadcasts = algorithm.on_receive(0, state, 1, (1, np.array([1.0])), 0.3)
        assert broadcasts == []
        state, broadcasts = algorithm.on_receive(0, state, 2, (1, np.array([2.0])), 0.4)
        # Quorum n - f = 3 reached: round 1 completes and round 2 is announced.
        assert algorithm.completed_rounds(state) == 1
        assert [b.round_hint for b in broadcasts] == [2]
        neighbors = algorithm.effective_in_neighbors(state)
        assert neighbors[1] == frozenset({0, 1, 2})
        for senders in neighbors.values():
            assert len(senders) >= n - f

    def test_stale_round_messages_are_ignored(self):
        n, f = 3, 1
        algorithm = RoundBasedAsyncAlgorithm(MidpointAlgorithm())
        state = algorithm.on_init(0, np.array([0.0]), n, f)
        state, _ = algorithm.on_start(0, state)
        # Quorum n - f = 2: one more round-1 message advances the round.
        state, _ = algorithm.on_receive(0, state, 1, (1, np.array([2.0])), 0.5)
        assert state.current_round == 2
        advanced = state
        # A late round-1 message must leave the state untouched.
        state, broadcasts = algorithm.on_receive(0, state, 2, (1, np.array([9.0])), 0.7)
        assert broadcasts == []
        assert state is advanced

    def test_own_round_message_is_not_double_buffered(self):
        algorithm = RoundBasedAsyncAlgorithm(MidpointAlgorithm())
        state = algorithm.on_init(0, np.array([0.0]), 3, 0)
        state, _ = algorithm.on_start(0, state)
        before = state
        state, broadcasts = algorithm.on_receive(0, state, 0, (1, np.array([0.0])), 1.0)
        assert state is before and broadcasts == []


class TestCrashSchedules:
    def test_staggered_crash_schedule_respects_budget(self):
        schedule = staggered_crash_schedule([0, 1], first_crash_time=1.0, spacing=1.0)
        schedule.validate(5, 2)
        with pytest.raises(AsynchronyError):
            schedule.validate(5, 1)

    def test_crashed_agent_takes_no_steps_after_crash(self):
        schedule = CrashSchedule([CrashFault(agent=2, time=0.5)])
        execution = _run(
            RoundBasedAsyncAlgorithm(MidpointAlgorithm()), [0.0, 1.0, 4.0, 5.0], f=1,
            crash_schedule=schedule, max_time=12.0,
        )
        assert execution.crashed_agents == frozenset({2})
        assert 2 not in execution.correct_agents()
        final = execution.correct_diameter_at(execution.final_time)
        assert final == pytest.approx(0.0, abs=1e-9)


class TestTimelineQueries:
    @pytest.mark.parametrize("tolerance", [0.0, 1e-9, 0.5])
    def test_agreement_time_matches_reference_oracle(self, tolerance):
        execution = _run(
            RoundBasedAsyncAlgorithm(MidpointAlgorithm()), [0.0, 1.0, 4.0, -1.0], f=1,
            delay_scheduler=RandomDelayScheduler(seed=7),
            max_time=8.0,
        )
        assert execution.agreement_time(tolerance) == _reference_agreement_time(
            execution, tolerance
        )

    def test_agreement_time_with_crashes_matches_reference_oracle(self):
        schedule = staggered_crash_schedule([1], first_crash_time=0.5)
        execution = _run(
            RoundBasedAsyncAlgorithm(MeanAlgorithm()), [0.0, 2.0, 6.0, 8.0], f=1,
            crash_schedule=schedule, max_time=10.0,
        )
        for tolerance in (0.0, 1e-6, 1.0):
            assert execution.agreement_time(tolerance) == _reference_agreement_time(
                execution, tolerance
            )

    def test_outputs_at_time_zero_are_the_initial_values(self):
        execution = _run(
            RoundBasedAsyncAlgorithm(MidpointAlgorithm()), [0.0, 1.0, 4.0], f=0, max_time=5.0
        )
        np.testing.assert_allclose(
            np.sort(execution.outputs_at(0.0).ravel()), [0.0, 1.0, 4.0]
        )

    def test_outputs_at_interpolates_between_samples(self):
        execution = _run(
            RoundBasedAsyncAlgorithm(MidpointAlgorithm()), [0.0, 1.0, 4.0], f=0, max_time=5.0
        )
        # Just before the first delivery (delay 1) nothing has changed.
        np.testing.assert_allclose(
            np.sort(execution.outputs_at(0.99).ravel()), [0.0, 1.0, 4.0]
        )
        # After the first synchronized round everyone is at the midpoint 2.
        np.testing.assert_allclose(execution.outputs_at(1.01), np.full((3, 1), 2.0))

    def test_timeline_is_chronological(self):
        execution = _run(
            RoundBasedAsyncAlgorithm(MidpointAlgorithm()), [0.0, 3.0, 9.0], f=1,
            delay_scheduler=RandomDelayScheduler(seed=3),
            max_time=6.0,
        )
        times = [time for time, _outputs, _changed in execution.timeline()]
        assert times == sorted(times)
        assert len(times) == len(set(times))


class TestMinRelay:
    def test_minrelay_agrees_by_time_f_plus_one(self):
        values = [0.0, 1.0, 2.0, 3.0]
        execution = _run(MinRelayAlgorithm(), values, f=1, max_time=10.0)
        agreement = execution.agreement_time(1e-12)
        assert agreement is not None
        assert agreement <= 1 + 1 + 1e-9  # f + 1 with unit worst-case delays


class TestSortedSampleCacheInvalidation:
    """Regression tests: `_sorted_samples` must notice post-run mutations."""

    def _execution(self):
        return _run(
            RoundBasedAsyncAlgorithm(MidpointAlgorithm()), [0.0, 2.0, 8.0], f=1,
            delay_scheduler=RandomDelayScheduler(seed=5), max_time=6.0,
        )

    def test_in_place_time_mutation_invalidates_cache(self):
        execution = self._execution()
        before = execution.outputs_at(execution.final_time).copy()
        assert before is not None  # primes the sorted cache
        # Move every post-initial update past the horizon: queries before the
        # horizon must now see the initial values, not the stale sorted order.
        for sample in execution.samples:
            if sample.time > 0.0:
                sample.time = execution.final_time + 100.0
        outputs = execution.outputs_at(execution.final_time)
        initial = np.vstack([
            [sample.value for sample in execution.samples if sample.time == 0.0 and sample.agent == agent][0]
            for agent in range(execution.n)
        ])
        np.testing.assert_array_equal(outputs, initial)

    def test_same_length_replacement_invalidates_cache(self):
        execution = self._execution()
        execution.outputs_at(1.0)  # primes the cache
        replacement = OutputSample(time=0.5, agent=0, value=np.array([123.0]))
        execution.samples[-1] = replacement
        # Oracle: a fresh stable sort of the mutated list.  A stale cache
        # (length-only invalidation) would replay the old sorted order and
        # miss the replacement.
        expected = execution.final_outputs.copy()
        for sample in sorted(execution.samples, key=lambda s: s.time):
            if sample.time <= 1.0:
                expected[sample.agent] = sample.value
        np.testing.assert_array_equal(execution.outputs_at(1.0), expected)
        assert expected[0, 0] == 123.0
        assert any(s is replacement for s in execution._sorted_samples())

    def test_append_still_invalidates_cache(self):
        execution = self._execution()
        execution.agreement_time(1e-9)  # primes the cache
        execution.samples.append(
            OutputSample(time=execution.final_time + 1.0, agent=0, value=np.array([55.0]))
        )
        assert execution._sorted_samples()[-1].time == execution.final_time + 1.0

    def test_unchanged_samples_reuse_the_cached_sort(self):
        execution = self._execution()
        first = execution._sorted_samples()
        second = execution._sorted_samples()
        assert first is second


class _ScriptedOutputs(MinRelayAlgorithm):
    """Reports ``state`` itself as the output, so a test scripts the outputs."""

    def output(self, agent_id, state):
        return state


class TestRecordOutputSemantics:
    """`_record_output` records a sample exactly when `np.array_equal` says the output changed."""

    @pytest.mark.parametrize(
        "previous,current,recorded",
        [
            ([0.5], [0.5], False),
            ([0.0], [-0.0], False),  # 0.0 == -0.0
            ([np.nan], [np.nan], True),  # NaN never equals NaN
            ([1.0, 2.0], [1.0, 2.0], False),
            ([1.0, 2.0], [1.0, 3.0], True),
        ],
    )
    def test_sample_appended_iff_output_changed(self, previous, current, recorded):
        simulator = AsynchronousSimulator(_ScriptedOutputs(), [[0.0] * len(previous)] * 2, f=0)
        outputs = np.array([previous, previous], dtype=float)
        samples = []
        simulator._record_output(samples, outputs, 1, 0.5, np.array(current))
        assert (len(samples) == 1) == recorded
        assert recorded == (not np.array_equal(np.array(current), np.array(previous)))
        if recorded:
            assert samples[0].time == 0.5 and samples[0].agent == 1
            np.testing.assert_array_equal(outputs[1], current)
            np.testing.assert_array_equal(samples[0].value, current)
