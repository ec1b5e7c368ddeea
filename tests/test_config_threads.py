"""EngineConfig nesting and thread-locality under concurrent threads.

``EngineConfig`` promises: the innermost active block wins field-by-field,
previous values are restored on exit even when the body raises, and the
active stack is *thread-local* — two threads running under different
configurations never observe each other's overrides.

The ``threads`` field adds a lifecycle promise on top: the parallel
backend's worker pool is created lazily on the thread-local stack entry,
reused within the block, torn down (joined) on exit, and never shared
between concurrent activations — 100 enter/exit cycles leave no stray
``repro-shard`` threads behind.
"""

import threading

import pytest

from repro.config import (
    EngineConfig,
    current_engine_config,
    resolve_scenario_chunk,
    resolve_seed,
    resolve_threads,
)


class TestNesting:
    def test_innermost_field_wins_and_restores(self):
        with EngineConfig(seed=5, scenario_chunk=128):
            assert resolve_seed(None) == 5
            assert resolve_scenario_chunk(None) == 128
            with EngineConfig(seed=9):
                # Inner block overrides one field, inherits the other.
                assert resolve_seed(None) == 9
                assert resolve_scenario_chunk(None) == 128
            assert resolve_seed(None) == 5
        assert resolve_seed(None) == 0  # library default
        assert resolve_scenario_chunk(None) == 4096

    def test_merged_view_reflects_nesting(self):
        with EngineConfig(seed=1, scenario_chunk=16):
            with EngineConfig(seed=2):
                merged = current_engine_config()
                assert merged.seed == 2
                assert merged.scenario_chunk == 16

    def test_reduction_fields_apply_and_restore_on_raise(self, monkeypatch):
        # ``threads`` is the field that reaches the masked reduction, through
        # each shard's lead count: (16, 48, 1) runs packed as one stack and
        # dense in 4-scenario shards.  The innermost block wins and a raise
        # inside it restores the outer dispatch.
        import numpy as np

        import repro.algorithms.base as base_module
        from repro.algorithms import MidpointAlgorithm
        from repro.execution import run_ensemble
        from repro.graphs.families import complete_graph, cycle_graph

        values = np.random.default_rng(0).uniform(0.0, 1.0, size=(16, 48, 1))
        graphs = [complete_graph(48), cycle_graph(48)]

        calls = []
        for name in ("packed", "dense"):
            original = getattr(base_module, f"_masked_extremes_{name}")

            def recording(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(base_module, f"_masked_extremes_{name}", recording)

        def kernels_run():
            del calls[:]
            run_ensemble(MidpointAlgorithm(), values, graphs)
            return set(calls)

        with EngineConfig(threads=4):
            assert kernels_run() == {"dense"}
            with pytest.raises(RuntimeError):
                with EngineConfig(threads=1):
                    assert kernels_run() == {"packed"}
                    raise RuntimeError("boom")
            assert resolve_threads(None) == 4
            assert kernels_run() == {"dense"}
        with EngineConfig(threads=1):
            assert kernels_run() == {"packed"}

    def test_explicit_argument_beats_active_config(self):
        with EngineConfig(seed=4, scenario_chunk=8, threads=2):
            assert resolve_seed(7) == 7
            assert resolve_scenario_chunk(32) == 32
            assert resolve_threads(1) == 1


class TestThreadLocality:
    def test_concurrent_threads_see_their_own_configs(self):
        barrier = threading.Barrier(2)
        observed = {}
        errors = []

        def worker(name, seed, threads, chunk):
            try:
                with EngineConfig(seed=seed, threads=threads, scenario_chunk=chunk):
                    barrier.wait(timeout=10)  # both threads inside their blocks
                    observed[name] = (
                        resolve_seed(None),
                        resolve_threads(None),
                        resolve_scenario_chunk(None),
                    )
                    barrier.wait(timeout=10)  # hold until both observed
                observed[name + "-after"] = (
                    resolve_seed(None),
                    resolve_scenario_chunk(None),
                )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=("a", 3, 2, 64)),
            threading.Thread(target=worker, args=("b", 8, 3, 256)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert observed["a"] == (3, 2, 64)
        assert observed["b"] == (8, 3, 256)
        assert observed["a-after"] == (0, 4096)
        assert observed["b-after"] == (0, 4096)

    def test_one_shared_config_entered_from_two_threads(self):
        # One EngineConfig *instance* entered concurrently must keep each
        # thread's activation separate (each thread pops its own stack entry).
        shared = EngineConfig(scenario_chunk=7)
        barrier = threading.Barrier(2)
        results = {}
        errors = []

        def worker(name):
            try:
                with shared:
                    barrier.wait(timeout=10)
                    results[name] = resolve_scenario_chunk(None)
                    barrier.wait(timeout=10)
                results[name + "-after"] = resolve_scenario_chunk(None)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert results["a"] == results["b"] == 7
        assert results["a-after"] == results["b-after"] == 4096


class TestWorkerPoolLifecycle:
    """The parallel backend's pool lives on the thread-local stack entry."""

    @staticmethod
    def _run_sharded():
        import numpy as np

        from repro.algorithms import MidpointAlgorithm
        from repro.execution import run_ensemble
        from repro.graphs.families import complete_graph, cycle_graph

        n = 4
        values = np.random.default_rng(0).uniform(0.0, 1.0, size=(6, n, 1))
        return run_ensemble(
            MidpointAlgorithm(), values, [complete_graph(n), cycle_graph(n)]
        )

    def test_pool_is_created_lazily_and_reused_within_a_block(self):
        from repro.config import _ACTIVE_CONFIGS

        with EngineConfig(threads=3):
            entry = _ACTIVE_CONFIGS.stack[-1]
            assert entry.pool is None  # nothing ran yet
            self._run_sharded()
            first_pool = entry.pool
            assert first_pool is not None
            assert entry.pool_size == 3
            self._run_sharded()
            assert entry.pool is first_pool  # reused, not rebuilt

    def test_pool_is_torn_down_on_exit(self):
        from repro.config import _ACTIVE_CONFIGS

        with EngineConfig(threads=2):
            self._run_sharded()
            entry = _ACTIVE_CONFIGS.stack[-1]
            assert entry.pool is not None
        assert entry.pool is None  # shut down and dropped by __exit__
        assert not [
            t for t in threading.enumerate() if t.name.startswith("repro-shard")
        ]

    def test_concurrent_thread_scopes_do_not_leak_pool_sizes(self):
        from repro.config import _ACTIVE_CONFIGS

        ambient = resolve_threads(None)  # env default (e.g. REPRO_THREADS in CI)
        barrier = threading.Barrier(2)
        observed = {}
        errors = []

        def worker(name, threads):
            try:
                with EngineConfig(threads=threads):
                    barrier.wait(timeout=10)  # both threads inside their blocks
                    self._run_sharded()
                    entry = _ACTIVE_CONFIGS.stack[-1]
                    observed[name] = (
                        resolve_threads(None),
                        entry.pool_size,
                        entry.pool,
                    )
                    barrier.wait(timeout=10)  # hold until both observed
                observed[name + "-after"] = resolve_threads(None)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        workers = [
            threading.Thread(target=worker, args=("a", 2)),
            threading.Thread(target=worker, args=("b", 5)),
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=30)
        assert not errors
        assert observed["a"][:2] == (2, 2)
        assert observed["b"][:2] == (5, 5)
        # Two activations, two pools — even for scopes alive at the same time.
        assert observed["a"][2] is not observed["b"][2]
        assert observed["a-after"] == observed["b-after"] == ambient

    def test_one_shared_config_entered_from_two_threads_gets_two_pools(self):
        from repro.config import _ACTIVE_CONFIGS

        shared = EngineConfig(threads=2)
        barrier = threading.Barrier(2)
        pools = {}
        errors = []

        def worker(name):
            try:
                with shared:
                    barrier.wait(timeout=10)
                    self._run_sharded()
                    pools[name] = _ACTIVE_CONFIGS.stack[-1].pool
                    barrier.wait(timeout=10)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        workers = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=30)
        assert not errors
        assert pools["a"] is not None and pools["b"] is not None
        assert pools["a"] is not pools["b"]

    def test_hundred_cycles_leak_no_threads(self):
        baseline = threading.active_count()
        for _ in range(100):
            with EngineConfig(threads=4):
                self._run_sharded()
        assert not [
            t for t in threading.enumerate() if t.name.startswith("repro-shard")
        ]
        # shutdown(wait=True) joins the workers, so the count returns to the
        # baseline (tolerating unrelated daemon threads started elsewhere).
        assert threading.active_count() <= baseline

    def test_nested_scopes_innermost_thread_count_wins(self):
        ambient = resolve_threads(None)  # env default (e.g. REPRO_THREADS in CI)
        with EngineConfig(threads=2):
            assert resolve_threads(None) == 2
            with EngineConfig(threads=5):
                assert resolve_threads(None) == 5
                self._run_sharded()
            assert resolve_threads(None) == 2
        assert resolve_threads(None) == ambient
