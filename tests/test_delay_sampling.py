"""Counter-based delay draws of the event simulator.

``RandomDelayScheduler`` hashes each delivery key through a splitmix64 chain
(:func:`repro.asynchrony.schedulers.counter_uniform`) instead of building a
generator per delivery.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.asynchrony.schedulers import (
    _DELAY_STREAM,
    RandomDelayScheduler,
    counter_uniform,
)
from repro.config import EngineConfig

_KEYS = [
    (sender, recipient, send_time)
    for sender, recipient in itertools.permutations(range(6), 2)
    for send_time in (0.0, 0.5, 1.25, 3.000001, 7.5)
]


def _delays(scheduler, keys):
    return [scheduler.delay(sender, recipient, time, None) for sender, recipient, time in keys]


class TestRandomDelayScheduler:
    @pytest.mark.parametrize("min_delay", [0.05, 0.5, 0.999])
    def test_draws_stay_inside_the_delay_range(self, min_delay):
        draws = np.array(_delays(RandomDelayScheduler(seed=3, min_delay=min_delay), _KEYS))
        assert draws.min() >= min_delay
        assert draws.max() < 1.0

    def test_draws_do_not_depend_on_call_order(self):
        forward = dict(zip(_KEYS, _delays(RandomDelayScheduler(seed=11), _KEYS)))
        shuffled = list(_KEYS)
        np.random.default_rng(0).shuffle(shuffled)
        backward = dict(zip(shuffled, _delays(RandomDelayScheduler(seed=11), shuffled)))
        assert forward == backward

    def test_distinct_keys_give_distinct_draws(self):
        draws = _delays(RandomDelayScheduler(seed=0), _KEYS)
        assert len(set(draws)) == len(_KEYS)
        other_seed = _delays(RandomDelayScheduler(seed=1), _KEYS)
        assert not set(draws) & set(other_seed)

    def test_self_deliveries_take_the_self_delay(self):
        scheduler = RandomDelayScheduler(seed=2, self_delay=1e-3)
        assert all(scheduler.delay(agent, agent, 0.5, None) == 1e-3 for agent in range(5))

    def test_unpinned_scheduler_reads_the_config_seed_per_call(self):
        scheduler = RandomDelayScheduler()
        with EngineConfig(seed=42):
            configured = scheduler.delay(0, 1, 0.25, None)
        assert configured == RandomDelayScheduler(seed=42).delay(0, 1, 0.25, None)

    def test_draws_are_coarsely_uniform(self):
        # 20k keys: the mean of U[0, 1) has standard error ~0.002 and each
        # decile count ~42, so the tolerances below sit at about 5 sigma.
        draws = np.array(
            [
                counter_uniform(_DELAY_STREAM, 7, sender, recipient, tick)
                for sender in range(10)
                for recipient in range(10)
                for tick in range(0, 200_000, 1000)
            ]
        )
        assert draws.size == 20_000
        assert abs(draws.mean() - 0.5) < 0.01
        counts = np.histogram(draws, bins=10, range=(0.0, 1.0))[0]
        assert np.all(np.abs(counts - 2000) < 210)

    def test_golden_values_pin_the_documented_hash(self):
        # counter_uniform(0) is one splitmix64 step from state 0: the first
        # output of the reference splitmix64 generator seeded with 0.
        assert counter_uniform(0) == (0xE220A8397B1DCDAF >> 11) * 2.0**-53
        assert counter_uniform(_DELAY_STREAM, 1234, 2, 5, 750_000) == 0.24433027719866518
        # delay = min_delay + (1 - min_delay) * u with the key
        # (stream, seed, sender, recipient, int(send_time * 1e6)).
        assert RandomDelayScheduler(seed=1234).delay(2, 5, 0.75, None) == (
            0.05 + 0.95 * 0.24433027719866518
        )

