"""Asynchronous rounds: algorithms that wait for ``n - f`` round messages.

Section 8.1 considers the widely used structure in which each agent, per
asynchronous round, broadcasts its round message, waits until it holds
``n - f`` messages of the current round (its own included), applies a state
transition, and moves to the next round.  :class:`RoundBasedAsyncAlgorithm`
wraps any synchronous :class:`~repro.algorithms.base.Algorithm` in exactly
this structure, so the midpoint/mean/amortized-midpoint algorithms can be run
unchanged in the asynchronous crash model.

The per-round *effective communication graph* (which senders' messages each
agent used) is recorded in the agent state; by construction every agent's
in-neighborhood has at least ``n - f`` members, i.e. the realized graphs
belong to the crash network model ``N_A`` — the observation on which the
Theorem 6 lower bound rests.

Performance note: the message buffers are maintained *incrementally*.  Each
delivery copies only the affected per-round buffer (copy-on-write), instead
of re-freezing and re-sorting the entire nested buffer structure on every
event as the original implementation did.  States remain immutable by
contract: all mappings stored on :class:`RoundBasedState` must be treated as
read-only snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from repro.algorithms.base import Algorithm
from repro.asynchrony.simulator import AsyncAlgorithm, Broadcast
from repro.exceptions import AsynchronyError


@dataclass(frozen=True, eq=True)
class RoundBasedState:
    """State of the asynchronous-round wrapper around a synchronous algorithm.

    ``buffers`` maps round number -> sender -> buffered round message, and
    ``round_in_neighbors`` maps completed round -> senders used.  Both are
    plain dicts for speed but are never mutated after construction; steps
    build updated copies of only the entries they touch.
    """

    inner: Any
    current_round: int
    buffers: Mapping[int, Mapping[int, Any]]
    round_in_neighbors: Mapping[int, FrozenSet[int]]
    n: int
    f: int
    #: Retransmissions of the current round's message under the "retry"
    #: timeout policy; reset to 0 whenever the agent advances a round.
    retry_attempts: int = 0
    #: Every round message this agent has sent (round -> message), kept so
    #: the "retry" policy can retransmit past rounds to lagging peers.
    #: Empty unless a round_timeout with the "retry" policy is configured.
    sent_messages: Mapping[int, Any] = None  # type: ignore[assignment]

    def buffer_dict(self) -> Dict[int, Dict[int, Any]]:
        """The buffered round messages as a mutable nested dict (a copy)."""
        return {rnd: dict(entries) for rnd, entries in self.buffers.items()}


def _with_buffered(
    buffers: Mapping[int, Mapping[int, Any]], round_number: int, sender: int, message: Any
) -> Dict[int, Mapping[int, Any]]:
    """Copy-on-write insert of one round message into the buffer structure."""
    updated = dict(buffers)
    round_buffer = dict(updated.get(round_number, ()))
    round_buffer[sender] = message
    updated[round_number] = round_buffer
    return updated


#: Valid graceful-degradation policies of the per-round receive timeout.
_TIMEOUT_POLICIES = ("proceed", "retry", "abort")


class RoundBasedAsyncAlgorithm(AsyncAlgorithm):
    """Run a synchronous algorithm in asynchronous rounds with quorum ``n - f``.

    Parameters
    ----------
    inner:
        The synchronous algorithm executed at each round advancement.
    round_timeout:
        Optional per-round receive timeout (in normalized time units).
        Without one (the default) an agent waits forever on its quorum — a
        fault schedule that drops too many round messages then surfaces as
        a starvation :class:`~repro.exceptions.AsynchronyError` when the
        event queue drains.  With a timeout the agent reacts per
        ``timeout_policy`` instead of waiting forever.
    timeout_policy:
        What an agent does when its round timeout expires below quorum:

        * ``"proceed"`` (default) — apply the round transition with
          whatever messages are buffered (its own included).  Graceful
          degradation: the realized effective graph of such a round may
          leave the crash model ``N_A``, trading the Theorem 6 guarantees
          for liveness.
        * ``"retry"`` — retransmit the agent's full round-message history
          (so peers stuck on earlier rounds catch up too) and keep
          waiting.  Retried sends draw fresh per-attempt drop decisions
          from the fault plan, so a lossy (but not silenced) link
          eventually delivers.
        * ``"abort"`` — raise an :class:`~repro.exceptions.AsynchronyError`
          naming the starved agent and round.
    """

    def __init__(
        self,
        inner: Algorithm,
        round_timeout: Optional[float] = None,
        timeout_policy: str = "proceed",
    ) -> None:
        if round_timeout is not None and round_timeout <= 0:
            raise AsynchronyError(f"round_timeout must be positive, got {round_timeout}")
        if timeout_policy not in _TIMEOUT_POLICIES:
            raise AsynchronyError(
                f"timeout_policy must be one of {_TIMEOUT_POLICIES}, got {timeout_policy!r}"
            )
        self._inner = inner
        self._round_timeout = round_timeout
        self._timeout_policy = timeout_policy

    @property
    def inner(self) -> Algorithm:
        """The wrapped synchronous algorithm."""
        return self._inner

    # ------------------------------------------------------------------ #
    # AsyncAlgorithm interface
    # ------------------------------------------------------------------ #

    def on_init(self, agent_id: int, initial_value: np.ndarray, n: int, f: int) -> RoundBasedState:
        if n - f < 2:
            # A quorum of 1 is always satisfied by the agent's own buffered
            # message, so the wrapper would advance rounds without bound in a
            # single event-free step.  Reject the degenerate configuration
            # loudly instead of hanging the simulator.
            raise AsynchronyError(
                f"the round quorum n - f must be at least 2, got n={n}, f={f}"
            )
        inner_state = self._inner.initial_state(agent_id, initial_value, n)
        return RoundBasedState(
            inner=inner_state,
            current_round=1,
            buffers={},
            round_in_neighbors={},
            n=n,
            f=f,
        )

    def on_start(self, agent_id: int, state: RoundBasedState) -> Tuple[RoundBasedState, List[Broadcast]]:
        payload = (state.current_round, self._inner.message(agent_id, state.inner))
        buffers = _with_buffered(state.buffers, state.current_round, agent_id, payload[1])
        new_state = replace(state, buffers=buffers)
        if self._tracks_history():
            new_state = replace(new_state, sent_messages={state.current_round: payload[1]})
        new_state, extra = self._advance_if_possible(agent_id, new_state)
        return new_state, [Broadcast(payload=payload, round_hint=state.current_round)] + extra

    def on_receive(
        self, agent_id: int, state: RoundBasedState, sender: int, payload: Any, time: float
    ) -> Tuple[RoundBasedState, List[Broadcast]]:
        message_round, message = payload
        if sender == agent_id:
            # The agent's own round message was already buffered when it was sent.
            return state, []
        if message_round < state.current_round:
            # Late message for a completed round: round structure ignores it.
            return state, []
        # Built directly rather than through ``dataclasses.replace``, which
        # costs several times more on this once-per-delivery path.
        new_state = RoundBasedState(
            inner=state.inner,
            current_round=state.current_round,
            buffers=_with_buffered(state.buffers, message_round, sender, message),
            round_in_neighbors=state.round_in_neighbors,
            n=state.n,
            f=state.f,
            retry_attempts=state.retry_attempts,
            sent_messages=state.sent_messages,
        )
        return self._advance_if_possible(agent_id, new_state)

    def output(self, agent_id: int, state: RoundBasedState) -> np.ndarray:
        return np.asarray(self._inner.output(agent_id, state.inner), dtype=float)

    # ------------------------------------------------------------------ #
    # Timer / diagnosis hooks (graceful degradation under faults)
    # ------------------------------------------------------------------ #

    def timeout_after(self, agent_id: int, state: RoundBasedState) -> Optional[float]:
        return self._round_timeout

    def timeout_key(self, agent_id: int, state: RoundBasedState) -> Any:
        # Advancing a round or issuing a retry both re-arm a fresh timer.
        return (state.current_round, state.retry_attempts)

    def on_timeout(
        self, agent_id: int, state: RoundBasedState, time: float
    ) -> Tuple[RoundBasedState, List[Broadcast]]:
        if self._round_timeout is None:
            return state, []
        if self._timeout_policy == "abort":
            raise AsynchronyError(
                f"agent {agent_id} timed out in round {state.current_round} at time "
                f"{time} after waiting {self._round_timeout} time units for its "
                f"n - f = {state.n - state.f} quorum (timeout_policy='abort')",
                agent=agent_id,
                round_number=state.current_round,
                time=time,
            )
        if self._timeout_policy == "retry":
            history = state.sent_messages
            if history is None:
                history = {state.current_round: state.buffers[state.current_round][agent_id]}
            new_state = replace(state, retry_attempts=state.retry_attempts + 1)
            return new_state, [
                Broadcast(
                    payload=(round_number, message),
                    round_hint=round_number,
                    attempt=new_state.retry_attempts,
                )
                for round_number, message in sorted(history.items())
            ]
        return self._force_advance(agent_id, state)

    def starvation_info(self, agent_id: int, state: RoundBasedState) -> Optional[int]:
        # Round-based agents never quiesce: a drained event queue always
        # means this agent is stuck waiting on its current round's quorum.
        return state.current_round

    # ------------------------------------------------------------------ #
    # Analysis accessors
    # ------------------------------------------------------------------ #

    def completed_rounds(self, state: RoundBasedState) -> int:
        """How many asynchronous rounds the agent has completed."""
        return state.current_round - 1

    def effective_in_neighbors(self, state: RoundBasedState) -> Dict[int, FrozenSet[int]]:
        """Per completed round, the senders whose messages the agent used."""
        return dict(state.round_in_neighbors)

    @property
    def name(self) -> str:
        return f"async-rounds({self._inner.name})"

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _tracks_history(self) -> bool:
        """Whether sent round messages are retained (for "retry" timeouts)."""
        return self._round_timeout is not None and self._timeout_policy == "retry"

    def _advance_if_possible(
        self, agent_id: int, state: RoundBasedState
    ) -> Tuple[RoundBasedState, List[Broadcast]]:
        quorum = state.n - state.f
        current_buffer = state.buffers.get(state.current_round, ())
        if len(current_buffer) < quorum:
            return state, []

        broadcasts: List[Broadcast] = []
        buffers = dict(state.buffers)
        inner = state.inner
        current_round = state.current_round
        in_neighbors = dict(state.round_in_neighbors)
        sent = dict(state.sent_messages) if state.sent_messages is not None else None

        while len(buffers.get(current_round, ())) >= quorum:
            received = dict(buffers[current_round])
            inner = self._inner.transition(agent_id, inner, received, current_round)
            in_neighbors[current_round] = frozenset(received)
            del buffers[current_round]
            current_round += 1
            payload_message = self._inner.message(agent_id, inner)
            buffers = _with_buffered(buffers, current_round, agent_id, payload_message)
            if sent is not None:
                sent[current_round] = payload_message
            broadcasts.append(
                Broadcast(payload=(current_round, payload_message), round_hint=current_round)
            )

        new_state = RoundBasedState(
            inner=inner,
            current_round=current_round,
            buffers=buffers,
            round_in_neighbors=in_neighbors,
            n=state.n,
            f=state.f,
            sent_messages=sent,
        )
        return new_state, broadcasts

    def _force_advance(
        self, agent_id: int, state: RoundBasedState
    ) -> Tuple[RoundBasedState, List[Broadcast]]:
        """Apply the round transition below quorum (the "proceed" policy).

        Uses whatever round messages are buffered — always at least the
        agent's own — then continues normal quorum-based advancement for
        any already-buffered later rounds.
        """
        received = dict(state.buffers.get(state.current_round, ()))
        if not received:
            return state, []
        inner = self._inner.transition(agent_id, state.inner, received, state.current_round)
        in_neighbors = dict(state.round_in_neighbors)
        in_neighbors[state.current_round] = frozenset(received)
        buffers = dict(state.buffers)
        del buffers[state.current_round]
        next_round = state.current_round + 1
        message = self._inner.message(agent_id, inner)
        buffers = _with_buffered(buffers, next_round, agent_id, message)
        sent = None
        if state.sent_messages is not None:
            sent = dict(state.sent_messages)
            sent[next_round] = message
        forced = RoundBasedState(
            inner=inner,
            current_round=next_round,
            buffers=buffers,
            round_in_neighbors=in_neighbors,
            n=state.n,
            f=state.f,
            sent_messages=sent,
        )
        broadcasts = [Broadcast(payload=(next_round, message), round_hint=next_round)]
        advanced, extra = self._advance_if_possible(agent_id, forced)
        return advanced, broadcasts + extra
