"""Event-driven simulator for asynchronous message-passing systems with crashes.

Agents perform receive–compute–broadcast steps (Section 8): an agent reacts
to the start of the execution and to each message delivery by updating its
state and possibly broadcasting.  Message delays are assigned by a
:class:`~repro.asynchrony.schedulers.DelayScheduler` and normalized so the
maximum delay is 1; crashes are described by a
:class:`~repro.asynchrony.schedulers.CrashSchedule` and may be unclean (the
final broadcast reaches only a subset of the agents).

The simulator records the full output trajectory of every agent so that
experiments can evaluate agreement times (Theorem 7) and per-round
contraction (Theorem 6).

Fault injection: a :class:`~repro.faults.FaultPlan` gates every scheduled
delivery through the same deterministic per-``(scenario, round)`` masks the
batched ensemble engine compiles — round-tagged messages are dropped,
duplicated, jittered or silenced (crash/late-join) bit-for-bit consistently
with the vectorized path.  Round tags come from ``Broadcast.round_hint``
(the round-based wrapper sets it); untagged broadcasts are tagged by their
per-sender send index.  Plan crashes without a ``recovery_round`` halt the
agent after its final broadcast; crashes *with* a recovery round model a
partitioned-but-alive agent (outbound messages suppressed during the
outage) — the lockstep engines instead freeze the agent's state, the one
documented semantic divergence between the two consumers.

Deliveries at coinciding timestamps are applied as one batched step: the
event group is processed together and each touched agent's output is
recorded once per timestamp (time-indexed queries already collapse
same-time samples, so this is behavior-preserving and keeps the sample
list small under synchronized lockstep schedules).
"""

from __future__ import annotations

import heapq
import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.asynchrony.schedulers import ConstantDelayScheduler, CrashSchedule, DelayScheduler
from repro.exceptions import AsynchronyError
from repro.faults import FaultPlan, FaultSpec, as_fault_plan
from repro.types import ValuesLike, as_value_matrix, diameter

#: Sentinel "sender" of timer events on the event heap.
_TIMER_SENDER = -1


@dataclass
class Broadcast:
    """A broadcast action returned by an agent's step.

    Attributes
    ----------
    payload:
        The message content (opaque to the simulator).
    round_hint:
        Optional asynchronous-round tag; passed to the delay scheduler so
        that round-aware adversaries can slow down specific round messages,
        and to the fault plan so drops/crashes hit the intended round.
    attempt:
        Retransmission attempt (0 = the original send).  Retried sends draw
        their drop decision from a dedicated per-attempt fault stream so a
        retry is not deterministically lost to the original drop draw.
    """

    payload: Any
    round_hint: Optional[int] = None
    attempt: int = 0


class AsyncAlgorithm(ABC):
    """A deterministic reactive agent for the asynchronous model."""

    @abstractmethod
    def on_init(self, agent_id: int, initial_value: np.ndarray, n: int, f: int) -> Any:
        """The agent's state at time 0, before any step."""

    @abstractmethod
    def on_start(self, agent_id: int, state: Any) -> Tuple[Any, List[Broadcast]]:
        """The agent's initial step at time 0: returns (new state, broadcasts)."""

    @abstractmethod
    def on_receive(
        self, agent_id: int, state: Any, sender: int, payload: Any, time: float
    ) -> Tuple[Any, List[Broadcast]]:
        """React to a delivered message: returns (new state, broadcasts)."""

    @abstractmethod
    def output(self, agent_id: int, state: Any) -> np.ndarray:
        """The agent's current output value ``y_i``."""

    # ------------------------------------------------------------------ #
    # Optional timer / diagnosis hooks (default: no timers, no starvation)
    # ------------------------------------------------------------------ #

    def timeout_after(self, agent_id: int, state: Any) -> Optional[float]:
        """How long the agent is willing to wait in its current state.

        ``None`` (the default) arms no timer.  When a value is returned the
        simulator schedules an :meth:`on_timeout` step that many time units
        after the agent's last step — unless :meth:`timeout_key` changes
        first (i.e. the agent made progress and the timer is stale).
        """
        return None

    def timeout_key(self, agent_id: int, state: Any) -> Any:
        """Progress marker of the armed timer (e.g. the current round).

        A pending timer only fires while the agent's key still equals the
        key it was armed with; steps that change the key implicitly cancel
        the timer (and re-arm a fresh one via :meth:`timeout_after`).
        """
        return None

    def on_timeout(self, agent_id: int, state: Any, time: float) -> Tuple[Any, List[Broadcast]]:
        """React to an expired timer: returns (new state, broadcasts)."""
        return state, []

    def starvation_info(self, agent_id: int, state: Any) -> Optional[int]:
        """The round the agent is stuck waiting on, or ``None`` if quiescent.

        Consulted when the event queue drains: algorithms that legitimately
        quiesce (e.g. MinRelay) return ``None``; round-based algorithms
        return their current round so the simulator can raise a diagnosable
        starvation error instead of silently returning a stalled execution.
        """
        return None

    @property
    def name(self) -> str:
        """Human-readable algorithm name."""
        return type(self).__name__


@dataclass
class OutputSample:
    """An output value of one agent at one point in simulated time."""

    time: float
    agent: int
    value: np.ndarray


@dataclass
class AsyncExecution:
    """The result of an asynchronous simulation.

    All time-indexed queries (``outputs_at``, ``correct_diameter_at``,
    ``agreement_time``) share one code path: a single chronological sweep
    over the recorded samples (:meth:`timeline`), instead of rescanning the
    full sample list per queried time.
    """

    algorithm_name: str
    n: int
    f: int
    final_time: float
    final_outputs: np.ndarray
    samples: List[OutputSample] = field(default_factory=list)
    crashed_agents: frozenset = frozenset()
    delivered_messages: int = 0

    def correct_agents(self) -> List[int]:
        """The agents that never crash."""
        return [i for i in range(self.n) if i not in self.crashed_agents]

    def _sorted_samples(self) -> List[OutputSample]:
        """The samples in chronological order (stable, so same-time updates
        apply in recording order).

        Cached, and the cache is keyed on a fingerprint of the sample list
        (identity and time of every sample) rather than its length alone:
        post-run mutations that keep the length — replacing a sample,
        editing a sample's ``time`` in place, reordering the list — must
        invalidate the cache too, or every time-indexed query would silently
        use the stale order (regression test in ``tests/test_async.py``).
        Values may be edited freely: the sorted list holds the same sample
        objects, so value edits are visible without a resort.
        """
        fingerprint = tuple((id(sample), sample.time) for sample in self.samples)
        cached = getattr(self, "_sorted_cache", None)
        if cached is None or getattr(self, "_sorted_cache_key", None) != fingerprint:
            cached = sorted(self.samples, key=lambda sample: sample.time)
            self._sorted_cache = cached
            self._sorted_cache_key = fingerprint
        return cached

    def timeline(self) -> Iterator[Tuple[float, np.ndarray, FrozenSet[int]]]:
        """Chronological sweep yielding ``(time, outputs, changed_agents)``.

        One tuple per distinct sample time, with ``outputs`` the full
        ``(n, d)`` output matrix *after* applying every sample at that time
        and ``changed_agents`` the agents whose output was updated.  The
        yielded array is reused between steps; copy it to keep a snapshot.
        """
        samples = self._sorted_samples()
        outputs = self.final_outputs.copy()
        index = 0
        total = len(samples)
        while index < total:
            time = samples[index].time
            changed = set()
            while index < total and samples[index].time == time:
                outputs[samples[index].agent] = samples[index].value
                changed.add(samples[index].agent)
                index += 1
            yield time, outputs, frozenset(changed)

    def outputs_at(self, time: float) -> np.ndarray:
        """The outputs of all agents at simulated time ``time`` (last value before ``time``)."""
        outputs = self.final_outputs.copy()
        for step_time, step_outputs, _changed in self.timeline():
            if step_time > time:
                break
            outputs[:] = step_outputs
        return outputs

    def correct_diameter_at(self, time: float) -> float:
        """Diameter of the correct agents' outputs at ``time``."""
        outputs = self.outputs_at(time)
        correct = self.correct_agents()
        return diameter(outputs[correct])

    def agreement_time(self, tolerance: float = 0.0) -> Optional[float]:
        """The earliest time after which all correct agents' outputs stay within ``tolerance``.

        Returns None if they never do within the simulated horizon.
        """
        correct = self.correct_agents()
        correct_set = frozenset(correct)
        agreement_since: Optional[float] = None
        seen_any = False
        for time, outputs, changed in self.timeline():
            seen_any = True
            if agreement_since is not None and not (changed & correct_set):
                continue  # no correct output changed: the diameter is unchanged
            if diameter(outputs[correct]) <= tolerance + 1e-12:
                if agreement_since is None:
                    agreement_since = time
            else:
                agreement_since = None
        if not seen_any and diameter(self.final_outputs[correct]) <= tolerance + 1e-12:
            return 0.0
        return agreement_since


class AsynchronousSimulator:
    """Run an :class:`AsyncAlgorithm` under chosen delays and crashes.

    Parameters
    ----------
    algorithm:
        The reactive agent algorithm.
    initial_values:
        One initial value per agent.
    f:
        The crash budget (the crash schedule may use at most ``f`` faults).
    delay_scheduler:
        Assigns delivery delays; defaults to the worst case (all delays 1).
    crash_schedule:
        The crash faults; defaults to no crashes.
    fault_plan:
        Optional round-indexed :class:`~repro.faults.FaultPlan` (or
        :class:`~repro.faults.FaultSpec`): message drops, duplication,
        delay jitter, clean/unclean crashes with optional recovery, and
        late joins, sampled from the same deterministic streams as the
        batched ensemble engine.  A zero plan is normalized away and the
        simulation runs its untouched fault-free path.
    fault_scenario:
        The ensemble scenario index whose fault streams this simulation
        realizes (so a simulator run can be compared against scenario
        ``fault_scenario`` of a faulted batched ensemble).
    max_time:
        Simulation horizon in normalized time units.
    max_events:
        Safety cap on the number of processed events.
    """

    def __init__(
        self,
        algorithm: AsyncAlgorithm,
        initial_values: ValuesLike,
        f: int,
        delay_scheduler: Optional[DelayScheduler] = None,
        crash_schedule: Optional[CrashSchedule] = None,
        fault_plan: Optional[Union[FaultPlan, FaultSpec]] = None,
        fault_scenario: int = 0,
        max_time: float = 50.0,
        max_events: int = 200_000,
    ) -> None:
        values = as_value_matrix(initial_values)
        self._algorithm = algorithm
        self._values = values
        self._n = values.shape[0]
        self._f = f
        if f < 0 or f >= self._n:
            raise AsynchronyError(f"need 0 <= f < n, got f={f}, n={self._n}")
        self._delays = delay_scheduler or ConstantDelayScheduler()
        self._crashes = crash_schedule or CrashSchedule()
        self._crashes.validate(self._n, f)
        self._fault_plan = as_fault_plan(fault_plan)
        if self._fault_plan is not None:
            self._fault_plan.validate_for(self._n, f=self._f)
        if fault_scenario < 0:
            raise AsynchronyError(f"fault_scenario must be non-negative, got {fault_scenario}")
        self._fault_scenario = fault_scenario
        self._max_time = max_time
        self._max_events = max_events

    def run(self) -> AsyncExecution:
        """Run the simulation until the horizon or until no events remain."""
        n = self._n
        plan = self._fault_plan
        scenario = self._fault_scenario
        states: List[Any] = [
            self._algorithm.on_init(i, self._values[i], n, self._f) for i in range(n)
        ]
        outputs = np.vstack(
            [np.asarray(self._algorithm.output(i, states[i]), dtype=float) for i in range(n)]
        )
        samples: List[OutputSample] = [
            OutputSample(time=0.0, agent=i, value=outputs[i].copy()) for i in range(n)
        ]
        queue: List[Tuple[float, int, int, int, Any, Optional[int]]] = []
        counter = itertools.count()
        delivered = 0
        send_counts = [0] * n  # round tags of untagged broadcasts (per-sender send index)
        halted: set = set()  # plan-crashed agents that take no more steps
        armed: Dict[int, Any] = {}  # agent -> timeout key its pending timer was armed with
        mask_cache: Dict[int, Optional[np.ndarray]] = {}

        def keep_mask(tag: int) -> Optional[np.ndarray]:
            if tag not in mask_cache:
                mask_cache[tag] = plan.round_mask(tag, scenario, n)
            return mask_cache[tag]

        def schedule_broadcasts(sender: int, time: float, broadcasts: List[Broadcast]) -> None:
            fault = self._crashes.fault_of(sender)
            for broadcast in broadcasts:
                send_counts[sender] += 1
                tag = broadcast.round_hint if broadcast.round_hint is not None else send_counts[sender]
                recipients = range(n)
                if fault is not None and abs(time - fault.time) < 1e-12:
                    if fault.final_broadcast_recipients is not None:
                        recipients = sorted(fault.final_broadcast_recipients | {sender})
                mask = keep_mask(tag) if plan is not None else None
                for recipient in recipients:
                    if mask is not None:
                        if broadcast.attempt > 0:
                            if not plan.retry_delivers(tag, broadcast.attempt, scenario, sender, recipient, n):
                                continue
                        elif not mask[sender, recipient]:
                            continue  # dropped, or the sender is silent this round
                    delay = self._delays.delay(sender, recipient, time, broadcast.round_hint)
                    if delay <= 0:
                        raise AsynchronyError("delays must be strictly positive")
                    if plan is not None and sender != recipient:
                        delay = plan.jittered_delay(tag, scenario, sender, recipient, n, delay)
                    heapq.heappush(
                        queue,
                        (time + delay, next(counter), recipient, sender, broadcast.payload, broadcast.round_hint),
                    )
                    if (
                        plan is not None
                        and sender != recipient
                        and plan.duplicates(tag, scenario, sender, recipient, n)
                    ):
                        duplicate_delay = plan.duplicate_delay(tag, scenario, sender, recipient, n, delay)
                        heapq.heappush(
                            queue,
                            (
                                time + duplicate_delay,
                                next(counter),
                                recipient,
                                sender,
                                broadcast.payload,
                                broadcast.round_hint,
                            ),
                        )
                if plan is not None:
                    crash = plan._crash_of(sender)
                    if crash is not None and crash.recovery_round is None and tag >= crash.round:
                        halted.add(sender)  # the final broadcast has been sent

        def arm_timer(agent: int, time: float) -> None:
            if agent in halted:
                return
            timeout = self._algorithm.timeout_after(agent, states[agent])
            if timeout is None:
                return
            if timeout <= 0:
                raise AsynchronyError(f"timeouts must be strictly positive, got {timeout}")
            key = self._algorithm.timeout_key(agent, states[agent])
            if armed.get(agent) == key:
                return  # an equivalent timer is already pending
            armed[agent] = key
            heapq.heappush(queue, (time + timeout, next(counter), agent, _TIMER_SENDER, key, None))

        # Time 0: every not-yet-crashed agent performs its initial step.
        for i in range(n):
            fault = self._crashes.fault_of(i)
            if fault is not None and fault.time < 0:
                continue
            if fault is not None and fault.time < 1e-12 and fault.final_broadcast_recipients is None:
                # Crash before doing anything (clean crash at time 0 with no final broadcast).
                continue
            new_state, broadcasts = self._algorithm.on_start(i, states[i])
            states[i] = new_state
            self._record_output(samples, outputs, i, 0.0, states[i])
            schedule_broadcasts(i, 0.0, broadcasts)
            arm_timer(i, 0.0)

        events_processed = 0
        current_time = 0.0
        horizon_reached = False
        while queue and events_processed < self._max_events and not horizon_reached:
            # Batched delivery: pop *all* events at the next timestamp and
            # apply them as one step, recording each touched agent's output
            # once per timestamp.
            group_time = queue[0][0]
            if group_time > self._max_time:
                horizon_reached = True
                break
            current_time = group_time
            touched: List[int] = []
            touched_set: set = set()
            while queue and queue[0][0] == group_time and events_processed < self._max_events:
                time, _seq, recipient, sender, payload, _round_hint = heapq.heappop(queue)
                events_processed += 1
                if recipient in halted:
                    continue  # the recipient crashed under the fault plan
                fault = self._crashes.fault_of(recipient)
                if fault is not None and time > fault.time:
                    continue  # the recipient has crashed and takes no more steps
                if sender == _TIMER_SENDER:
                    if armed.get(recipient) != payload:
                        continue  # stale timer: the agent made progress since arming
                    del armed[recipient]
                    new_state, broadcasts = self._algorithm.on_timeout(
                        recipient, states[recipient], time
                    )
                else:
                    new_state, broadcasts = self._algorithm.on_receive(
                        recipient, states[recipient], sender, payload, time
                    )
                    delivered += 1
                states[recipient] = new_state
                if recipient not in touched_set:
                    touched_set.add(recipient)
                    touched.append(recipient)
                schedule_broadcasts(recipient, time, broadcasts)
                arm_timer(recipient, time)
            for agent in touched:
                self._record_output(samples, outputs, agent, group_time, states[agent])

        if events_processed >= self._max_events:
            raise AsynchronyError(
                f"simulation exceeded {self._max_events} events; the algorithm may not quiesce"
            )

        if not queue and not horizon_reached:
            self._check_starvation(states, halted, current_time)

        plan_crashed: FrozenSet[int] = frozenset(
            crash.agent
            for crash in (plan.crashes if plan is not None else ())
            if crash.recovery_round is None
        )
        return AsyncExecution(
            algorithm_name=self._algorithm.name,
            n=n,
            f=self._f,
            final_time=current_time,
            final_outputs=outputs.copy(),
            samples=samples,
            crashed_agents=self._crashes.crashed_agents | plan_crashed,
            delivered_messages=delivered,
        )

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _check_starvation(self, states: List[Any], halted: set, current_time: float) -> None:
        """Raise a diagnosable error when the queue drained with agents stuck.

        A fault schedule that drops all of a round's messages leaves
        round-based agents waiting forever on a quorum that can no longer
        form — the event queue simply drains.  Algorithms report the round
        they are stuck on via :meth:`AsyncAlgorithm.starvation_info`
        (``None`` = legitimately quiescent); the first starved live agent is
        named in the raised :class:`~repro.exceptions.AsynchronyError`.
        """
        for agent in range(self._n):
            if agent in halted:
                continue
            fault = self._crashes.fault_of(agent)
            if fault is not None and fault.time <= current_time:
                continue  # crashed under the crash schedule: not starved, dead
            stuck_round = self._algorithm.starvation_info(agent, states[agent])
            if stuck_round is not None:
                raise AsynchronyError(
                    f"agent {agent} starved in round {stuck_round}: the event queue "
                    f"drained at time {current_time} before the agent's quorum of "
                    f"n - f = {self._n - self._f} round-{stuck_round} messages could "
                    f"form (a fault schedule dropped or silenced too many messages); "
                    f"set a round_timeout/timeout_policy on the round-based wrapper "
                    f"for graceful degradation",
                    agent=agent,
                    round_number=stuck_round,
                    time=current_time,
                )

    def _record_output(
        self,
        samples: List[OutputSample],
        outputs: np.ndarray,
        agent: int,
        time: float,
        state: Any,
    ) -> None:
        value = np.asarray(self._algorithm.output(agent, state), dtype=float)
        # ``np.array_equal`` semantics at a fraction of its cost: nested lists
        # differ when the shapes do, NaN never equals the fresh float object
        # of another ``tolist`` (so a NaN output is always recorded), and
        # 0.0 == -0.0.
        if value.tolist() != outputs[agent].tolist():
            outputs[agent] = value
            samples.append(OutputSample(time=time, agent=agent, value=value.copy()))
