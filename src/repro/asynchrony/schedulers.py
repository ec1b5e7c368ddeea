"""Delay schedulers and crash schedules for the asynchronous simulator.

The paper normalizes asynchronous time so that the longest end-to-end message
delay is 1 (Section 8).  Delay schedulers assign a delay in ``(0, 1]`` to
every delivery; crash schedules specify when agents stop taking steps and
which recipients (if any) still receive the crashing agent's final broadcast
(crashes may be *unclean*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence

from repro.config import resolve_seed
from repro.exceptions import AsynchronyError

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF

#: First word of every delay-draw key: a stream constant of its own, so a
#: delay key never coincides with the key of another counter-based stream
#: that shares the config-scoped seed.
_DELAY_STREAM = 0xDE1A7


def counter_uniform(*words: int) -> float:
    """A uniform draw in ``[0, 1)`` that is a pure hash of the integer key ``words``.

    A counter-based generator in the sense of Salmon et al., "Parallel random
    numbers: as easy as 1, 2, 3" (SC'11): there is no generator state, only a
    key.  The key words (each reduced mod 2^64) are chained through the
    splitmix64 finalizer of Steele, Lea & Flood (OOPSLA'14),
    ``state = splitmix64(state XOR word)`` from ``state = 0``, and the top 53
    bits of the final state are the mantissa of the draw.
    """
    state = 0
    for word in words:
        x = ((state ^ (word & _MASK64)) + 0x9E3779B97F4A7C15) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        state = x ^ (x >> 31)
    return (state >> 11) * 2.0**-53


class DelayScheduler:
    """Base class: assigns the end-to-end delay of each message delivery."""

    def delay(self, sender: int, recipient: int, send_time: float, round_hint: Optional[int]) -> float:
        """The delay (in normalized time units, within ``(0, 1]``) of this delivery."""
        raise NotImplementedError


class ConstantDelayScheduler(DelayScheduler):
    """Every delivery takes the same delay (default: the maximum delay 1).

    Self-deliveries (sender == recipient) take ``self_delay`` (default: a
    negligible delay, modelling instantaneous local communication).
    """

    def __init__(self, delay: float = 1.0, self_delay: float = 1e-6) -> None:
        if not 0.0 < delay <= 1.0:
            raise AsynchronyError(f"delays must lie in (0, 1], got {delay}")
        if not 0.0 < self_delay <= 1.0:
            raise AsynchronyError(f"self delays must lie in (0, 1], got {self_delay}")
        self._delay = delay
        self._self_delay = self_delay

    def delay(self, sender: int, recipient: int, send_time: float, round_hint: Optional[int]) -> float:
        return self._self_delay if sender == recipient else self._delay


class RandomDelayScheduler(DelayScheduler):
    """Deliveries take independent uniform delays in ``[min_delay, 1)`` (seeded).

    ``seed=None`` (the default) defers to the config-scoped seed of
    :class:`~repro.config.EngineConfig` at each ``delay`` call, so a whole
    faulted study is reproduced from the single ``EngineConfig(seed=...)``
    knob; passing an explicit seed pins this scheduler independently of the
    active config.

    Each delay is counter-based: ``u = counter_uniform(_DELAY_STREAM, seed,
    sender, recipient, int(send_time * 1e6))`` (a splitmix64 chain over the
    key, its top 53 bits mapped to ``[0, 1)``) and the delay is
    ``min_delay + (1 - min_delay) * u``.  A draw is a pure function of its
    key, so it does not depend on event-processing order, and no random
    generator is built per delivery.  Self-deliveries take ``self_delay``.
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        min_delay: float = 0.05,
        self_delay: float = 1e-6,
    ) -> None:
        if not 0.0 < min_delay <= 1.0:
            raise AsynchronyError(f"min_delay must lie in (0, 1], got {min_delay}")
        self._seed = seed
        self._min_delay = min_delay
        self._self_delay = self_delay

    def delay(self, sender: int, recipient: int, send_time: float, round_hint: Optional[int]) -> float:
        if sender == recipient:
            return self._self_delay
        u = counter_uniform(
            _DELAY_STREAM, resolve_seed(self._seed), sender, recipient, int(send_time * 1e6)
        )
        return self._min_delay + (1.0 - self._min_delay) * u


class AdversarialRoundDelayScheduler(DelayScheduler):
    """Per-round adversarial delays realizing a chosen graph of ``N_A`` each round.

    For asynchronous round ``r`` the scheduler is given a communication graph
    (from the crash model ``N_A``): messages along the graph's edges are fast
    (delay ``fast``), all other messages are slow (delay ``slow > fast``).
    Round-based agents that advance as soon as they hold ``n - f`` round-``r``
    messages then effectively communicate along the chosen graph — this is
    the execution used by Theorem 6 to transfer the synchronous lower bound
    to asynchronous round-based algorithms.

    ``round_hint`` (provided by the round-based wrapper) selects the graph;
    deliveries without a round hint use the fast delay.
    """

    def __init__(
        self,
        graphs_by_round: Mapping[int, "object"],
        fast: float = 0.9,
        slow: float = 1.0,
        self_delay: float = 1e-6,
    ) -> None:
        if not 0.0 < fast < slow <= 1.0:
            raise AsynchronyError(
                f"need 0 < fast < slow <= 1 so slow messages miss the quorum, got fast={fast}, slow={slow}"
            )
        self._graphs_by_round = dict(graphs_by_round)
        self._fast = fast
        self._slow = slow
        self._self_delay = self_delay

    def delay(self, sender: int, recipient: int, send_time: float, round_hint: Optional[int]) -> float:
        if sender == recipient:
            return self._self_delay
        if round_hint is None or round_hint not in self._graphs_by_round:
            return self._fast
        graph = self._graphs_by_round[round_hint]
        return self._fast if graph.has_edge(sender, recipient) else self._slow


@dataclass(frozen=True)
class CrashFault:
    """A crash fault: the agent stops taking steps at ``time``.

    ``final_broadcast_recipients`` restricts the delivery of the broadcast
    performed during the agent's very last step (the step executed exactly at
    the crash time); ``None`` means the final broadcast is delivered normally
    (a *clean* crash).
    """

    agent: int
    time: float
    final_broadcast_recipients: Optional[FrozenSet[int]] = None


class CrashSchedule:
    """A collection of crash faults with at most one fault per agent."""

    def __init__(self, faults: Iterable[CrashFault] = ()) -> None:
        self._faults: Dict[int, CrashFault] = {}
        for fault in faults:
            if fault.agent in self._faults:
                raise AsynchronyError(f"agent {fault.agent} has more than one crash fault")
            if fault.time < 0:
                raise AsynchronyError(f"crash times must be non-negative, got {fault.time}")
            self._faults[fault.agent] = fault

    @property
    def crashed_agents(self) -> FrozenSet[int]:
        """The agents that crash at some point."""
        return frozenset(self._faults)

    def fault_of(self, agent: int) -> Optional[CrashFault]:
        """The crash fault of ``agent`` (None if it never crashes)."""
        return self._faults.get(agent)

    def is_crashed_at(self, agent: int, time: float) -> bool:
        """Whether ``agent`` has already crashed strictly before ``time``."""
        fault = self._faults.get(agent)
        return fault is not None and time > fault.time

    def validate(self, n: int, f: int) -> None:
        """Check the schedule respects the crash budget ``f`` and agent range."""
        if len(self._faults) > f:
            raise AsynchronyError(
                f"the crash schedule has {len(self._faults)} faults but the budget is f={f}"
            )
        for agent in self._faults:
            if not 0 <= agent < n:
                raise AsynchronyError(f"crash fault for unknown agent {agent} (n={n})")

    def __len__(self) -> int:
        return len(self._faults)


def staggered_crash_schedule(
    agents: Sequence[int],
    first_crash_time: float = 0.0,
    spacing: float = 1.0,
    relay_to: Optional[Sequence[int]] = None,
) -> CrashSchedule:
    """Crashes spaced ``spacing`` apart, each delivering its final broadcast to one agent only.

    This builds the worst-case causal chain of the Theorem 7 analysis: agent
    ``agents[k]`` crashes at time ``first_crash_time + k*spacing`` and its
    final broadcast reaches only ``relay_to[k]`` (default: the next agent in
    the list, with the last one relaying to nobody), so information travels
    along a chain of crashing agents and agreement cannot be reached before
    roughly time ``f + 1``.
    """
    faults = []
    for index, agent in enumerate(agents):
        if relay_to is not None and index < len(relay_to):
            recipients: Optional[FrozenSet[int]] = frozenset({relay_to[index]})
        elif index + 1 < len(agents):
            recipients = frozenset({agents[index + 1]})
        else:
            recipients = frozenset()
        faults.append(
            CrashFault(
                agent=agent,
                time=first_crash_time + index * spacing,
                final_broadcast_recipients=recipients,
            )
        )
    return CrashSchedule(faults)
