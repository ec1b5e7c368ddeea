"""Declarative, seed-deterministic fault injection shared by every engine.

The paper's native setting is asynchronous message passing under crashes
(Sections 6–8): messages may be delayed or lost, agents may crash mid-round
— possibly *uncleanly*, with the final broadcast reaching only a subset —
recover later, or join the computation late.  :class:`FaultPlan` is the one
declarative description of such a fault schedule, consumed by two engines:

* the **event-heap simulator** (:mod:`repro.asynchrony.simulator`) gates
  every scheduled delivery through the plan — drops, duplications, delay
  jitter, silent (crashed / not-yet-joined) senders; and
* the **batched ensemble engine** (:mod:`repro.execution.batch`) compiles
  the plan into per-round boolean *keep masks* that are ANDed onto the
  stacked ``(B, n, n)`` adjacency tensors — one vectorized mask application
  per round instead of ``B`` per-scenario Python loops.

Both consumers sample from the same deterministic streams: one PCG64
generator per ``(seed, _STREAM_TAG, stream, round)``, with scenario ``b``
reading the counter block at offset ``b * n * n`` (``PCG64.advance``).
Disjoint counter blocks make the per-scenario draws independent *and* let
the batched engine realize all ``B`` scenarios of a round as one
``(B, n, n)`` draw whose slice ``b`` is bit-for-bit the per-scenario draw —
so where the engines' semantics overlap (which round-``r`` message from
``i`` to ``j`` is dropped, which recipients an unclean final broadcast
reaches, which rounds an agent is silent in) they realize *bit-for-bit
identical* effective communication graphs.  ``seed=None`` defers to the config-scoped seed of
:class:`repro.config.EngineConfig`, making faulted runs reproducible across
threads from a single knob.

Round-indexed semantics (shared by both engines)
------------------------------------------------
* ``CrashSpec(agent, round=r)`` — the agent's round-``r`` broadcast is its
  last; a *clean* crash delivers it to everyone, an *unclean* crash
  (``final_recipients``) only to the named subset.  From round ``r + 1``
  the agent is silent; with ``recovery_round=r'`` it resumes broadcasting
  at round ``r'`` (crash-recovery keeps the agent's state — no amnesia).
* ``JoinSpec(agent, round=r)`` — a late joiner: silent before round ``r``,
  participating normally from round ``r`` on.  Late joiners *listen* from
  the start (so round-based wrappers can catch up instead of starving).
* ``drop`` — per-message loss probability (self-deliveries never drop).
* ``duplicate`` / ``jitter`` — event-runtime-only effects: duplicated
  deliveries and randomized delays.  In the lockstep batched engine a
  duplicated round message is idempotent and delays have no meaning, so
  these fields do not change batched outputs (documented divergence).

The ``N_A`` invariant
---------------------
Fault injection must not silently leave the crash network model ``N_A``
(Section 8.1: every agent has at least ``n - f`` in-neighbors) on which the
round-based certification guarantees rest.  With ``enforce_model=True``
(the default) every realized effective graph is checked: a participating
agent whose effective in-degree falls below ``n - f`` raises a structured
:class:`~repro.exceptions.FaultModelError` naming the violating scenario,
round and agent.  Agents that are silent in a round (crashed, pre-join)
are exempt — the round-based realization only constrains the
neighborhoods of participating agents.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import resolve_seed
from repro.exceptions import ConfigError, FaultModelError
from repro.graphs.digraph import CommunicationGraph
from repro.models.patterns import CommunicationPattern, RoundContext

#: Second word of every fault-stream seed tuple ``(seed, _STREAM_TAG, ...)``,
#: so a fault stream's generator never coincides with a generator another
#: component seeds from the same config-scoped seed.  Random delays are not
#: drawn from seed tuples at all: :class:`~repro.asynchrony.schedulers.RandomDelayScheduler`
#: hashes its keys under its own stream constant (``_DELAY_STREAM``).
_STREAM_TAG = 0xFA017
_STREAM_DROP = 0
_STREAM_JITTER = 1
_STREAM_DUPLICATE = 2
_STREAM_DUPLICATE_DELAY = 3
_STREAM_RETRY = 4


@dataclass(frozen=True)
class CrashSpec:
    """One crash fault, round-indexed.

    The agent's round-``round`` broadcast is its final one before the crash:
    delivered to everyone when ``final_recipients`` is ``None`` (a *clean*
    crash), only to ``final_recipients`` otherwise (an *unclean* crash,
    Section 8's final-broadcast subsets).  From ``round + 1`` the agent
    neither sends nor (in the lockstep engines) receives; with
    ``recovery_round`` it resumes participating at that round, keeping the
    state it crashed with.
    """

    agent: int
    round: int
    final_recipients: Optional[FrozenSet[int]] = None
    recovery_round: Optional[int] = None

    def __post_init__(self) -> None:
        if self.round < 1:
            raise ConfigError(f"crash rounds are 1-based, got round={self.round}")
        if self.final_recipients is not None:
            object.__setattr__(
                self, "final_recipients", frozenset(self.final_recipients)
            )
        if self.recovery_round is not None and self.recovery_round <= self.round:
            raise ConfigError(
                f"recovery_round must exceed the crash round, got crash round "
                f"{self.round} and recovery_round {self.recovery_round}"
            )

    @property
    def clean(self) -> bool:
        """Whether the final broadcast is delivered unrestricted."""
        return self.final_recipients is None

    def to_dict(self) -> dict:
        """A versioned JSON-safe encoding; invert with :meth:`from_dict`."""
        return {
            "__type__": "CrashSpec",
            "version": 1,
            "agent": self.agent,
            "round": self.round,
            "final_recipients": (
                None
                if self.final_recipients is None
                else sorted(self.final_recipients)
            ),
            "recovery_round": self.recovery_round,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CrashSpec":
        _check_payload(payload, "CrashSpec", 1)
        recipients = payload["final_recipients"]
        return cls(
            agent=payload["agent"],
            round=payload["round"],
            final_recipients=None if recipients is None else frozenset(recipients),
            recovery_round=payload["recovery_round"],
        )


@dataclass(frozen=True)
class JoinSpec:
    """A late-joining agent: silent before ``round``, normal from it on."""

    agent: int
    round: int

    def __post_init__(self) -> None:
        if self.round < 1:
            raise ConfigError(f"join rounds are 1-based, got round={self.round}")

    def to_dict(self) -> dict:
        """A versioned JSON-safe encoding; invert with :meth:`from_dict`."""
        return {
            "__type__": "JoinSpec",
            "version": 1,
            "agent": self.agent,
            "round": self.round,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JoinSpec":
        _check_payload(payload, "JoinSpec", 1)
        return cls(agent=payload["agent"], round=payload["round"])


def _check_payload(payload: dict, expected_type: str, max_version: int) -> None:
    """Shared payload-header validation for the fault codecs."""
    from repro.exceptions import SerializationError

    if not isinstance(payload, dict):
        raise SerializationError(
            f"expected a dict payload for {expected_type}, got {type(payload).__name__}"
        )
    found = payload.get("__type__")
    if found != expected_type:
        raise SerializationError(
            f"expected a {expected_type} payload, got __type__={found!r}"
        )
    version = payload.get("version")
    if not isinstance(version, int) or not 1 <= version <= max_version:
        raise SerializationError(
            f"{expected_type} payload version {version!r} is not supported "
            f"(this library reads versions 1..{max_version})"
        )


@dataclass(frozen=True)
class FaultPlan:
    """A compiled, seed-deterministic fault schedule.

    Immutable and hashable; all sampling is a pure function of
    ``(seed, stream, scenario, round)`` — one generator per
    ``(seed, stream, round)`` with scenario-indexed counter blocks — so any
    engine consuming the plan realizes the same faults for the same
    scenario index.  Use
    :meth:`resolved` (or let the engines do it) to pin ``seed=None`` to the
    active config-scoped seed before sampling.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    jitter: float = 0.0
    crashes: Tuple[CrashSpec, ...] = ()
    joins: Tuple[JoinSpec, ...] = ()
    f: Optional[int] = None
    seed: Optional[int] = None
    enforce_model: bool = True
    #: Global index of this plan's scenario 0.  A shard covering global
    #: scenarios ``[s, s + k)`` of a larger ensemble runs as a local
    #: ``(k, n, d)`` ensemble with ``scenario_base=s``: every sampling
    #: method then reads the counter blocks of the *global* scenario
    #: indices, so the shard's draws are bit-for-bit the slices the
    #: unsharded run would have drawn.
    scenario_base: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "joins", tuple(self.joins))
        for name in ("drop", "duplicate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must be a probability in [0, 1), got {value}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(f"jitter must lie in [0, 1], got {self.jitter}")
        for spec in self.crashes:
            if not isinstance(spec, CrashSpec):
                raise ConfigError(f"crashes must contain CrashSpec entries, got {spec!r}")
        for spec in self.joins:
            if not isinstance(spec, JoinSpec):
                raise ConfigError(f"joins must contain JoinSpec entries, got {spec!r}")
        crash_agents = [spec.agent for spec in self.crashes]
        if len(crash_agents) != len(set(crash_agents)):
            raise ConfigError("at most one CrashSpec per agent")
        join_agents = [spec.agent for spec in self.joins]
        if len(join_agents) != len(set(join_agents)):
            raise ConfigError("at most one JoinSpec per agent")
        for crash in self.crashes:
            join = self._join_of(crash.agent)
            if join is not None and crash.round < join.round:
                raise ConfigError(
                    f"agent {crash.agent} crashes in round {crash.round} before "
                    f"joining in round {join.round}"
                )
        if self.f is not None:
            if self.f < 0:
                raise ConfigError(f"the crash budget f must be non-negative, got {self.f}")
            if self.f < len(self.faulty_agents):
                raise ConfigError(
                    f"the plan declares {len(self.faulty_agents)} faulty agents but "
                    f"a budget of f={self.f}"
                )
        if self.seed is not None and (
            isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0
        ):
            raise ConfigError(f"seed must be a non-negative int or None, got {self.seed!r}")
        if (
            isinstance(self.scenario_base, bool)
            or not isinstance(self.scenario_base, int)
            or self.scenario_base < 0
        ):
            raise ConfigError(
                f"scenario_base must be a non-negative int, got {self.scenario_base!r}"
            )

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def faulty_agents(self) -> FrozenSet[int]:
        """Agents named by any crash or join spec."""
        return frozenset(spec.agent for spec in self.crashes) | frozenset(
            spec.agent for spec in self.joins
        )

    def effective_f(self) -> int:
        """The crash budget of the ``N_A`` invariant check.

        The declared ``f`` when given, else the number of faulty agents —
        the tightest budget under which the plan's own crashes/joins keep
        the effective graphs inside ``N_A(n, f)``.
        """
        return self.f if self.f is not None else len(self.faulty_agents)

    def is_zero(self) -> bool:
        """Whether the plan injects nothing (engines then run untouched)."""
        return (
            self.drop == 0.0
            and self.duplicate == 0.0
            and self.jitter == 0.0
            and not self.crashes
            and not self.joins
        )

    def resolved(self) -> "FaultPlan":
        """The same plan with ``seed=None`` pinned to the config-scoped seed."""
        if self.seed is not None:
            return self
        return replace(self, seed=resolve_seed(None))

    def validate_for(self, n: int, f: Optional[int] = None) -> None:
        """Check agent ranges against ``n`` and the budget against ``f``.

        ``f`` is an externally imposed crash budget (e.g. the simulator's);
        ``None`` only checks the plan's internal consistency.
        """
        for spec in self.crashes + self.joins:
            if not 0 <= spec.agent < n:
                raise ConfigError(f"fault spec names agent {spec.agent}, but n={n}")
        for crash in self.crashes:
            if crash.final_recipients is not None:
                for recipient in crash.final_recipients:
                    if not 0 <= recipient < n:
                        raise ConfigError(
                            f"final_recipients of agent {crash.agent} names agent "
                            f"{recipient}, but n={n}"
                        )
        budget = self.effective_f()
        if budget >= n:
            raise ConfigError(f"need crash budget f < n, got f={budget}, n={n}")
        if f is not None and len(self.faulty_agents) > f:
            raise ConfigError(
                f"the fault plan declares {len(self.faulty_agents)} faulty agents "
                f"but the execution budget is f={f}"
            )

    def to_dict(self) -> dict:
        """A versioned JSON-safe encoding; invert with :meth:`from_dict`.

        The encoding is canonical for a given plan (crash/join specs keep
        their declared order, recipient sets are sorted), so the service
        layer can content-hash it for checkpoint deduplication.
        """
        return {
            "__type__": "FaultPlan",
            "version": 1,
            "drop": self.drop,
            "duplicate": self.duplicate,
            "jitter": self.jitter,
            "crashes": [spec.to_dict() for spec in self.crashes],
            "joins": [spec.to_dict() for spec in self.joins],
            "f": self.f,
            "seed": self.seed,
            "enforce_model": self.enforce_model,
            "scenario_base": self.scenario_base,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        _check_payload(payload, "FaultPlan", 1)
        return cls(
            drop=payload["drop"],
            duplicate=payload["duplicate"],
            jitter=payload["jitter"],
            crashes=tuple(CrashSpec.from_dict(item) for item in payload["crashes"]),
            joins=tuple(JoinSpec.from_dict(item) for item in payload["joins"]),
            f=payload["f"],
            seed=payload["seed"],
            enforce_model=payload["enforce_model"],
            scenario_base=payload.get("scenario_base", 0),
        )

    def _crash_of(self, agent: int) -> Optional[CrashSpec]:
        for spec in self.crashes:
            if spec.agent == agent:
                return spec
        return None

    def _join_of(self, agent: int) -> Optional[JoinSpec]:
        for spec in self.joins:
            if spec.agent == agent:
                return spec
        return None

    def sends_in_round(self, agent: int, round_number: int) -> bool:
        """Whether the agent broadcasts its round-``round_number`` message."""
        join = self._join_of(agent)
        if join is not None and round_number < join.round:
            return False
        crash = self._crash_of(agent)
        if crash is not None and round_number > crash.round:
            return crash.recovery_round is not None and round_number >= crash.recovery_round
        return True

    def receives_in_round(self, agent: int, round_number: int) -> bool:
        """Whether the agent processes round-``round_number`` deliveries.

        Only a crash outage silences the receive side: late joiners listen
        from round 1 (so round-based agents can catch up on joining), and a
        crashing agent still receives during its crash round.
        """
        crash = self._crash_of(agent)
        if crash is not None and round_number > crash.round:
            return crash.recovery_round is not None and round_number >= crash.recovery_round
        return True

    def participates_in_round(self, agent: int, round_number: int) -> bool:
        """Whether the agent is a full participant (sends and receives)."""
        return self.sends_in_round(agent, round_number) and self.receives_in_round(
            agent, round_number
        )

    # ------------------------------------------------------------------ #
    # Deterministic sampling
    # ------------------------------------------------------------------ #

    def _round_rng(self, stream: int, round_number: int) -> np.random.Generator:
        """The round's PCG64 generator, positioned at scenario 0's block."""
        if self.seed is None:
            raise ConfigError(
                "sampling from an unresolved FaultPlan; call plan.resolved() first"
            )
        return np.random.default_rng(
            (self.seed, _STREAM_TAG, stream, round_number)
        )

    def _uniforms(self, stream: int, scenario: int, round_number: int, n: int) -> np.ndarray:
        """The plan's ``(n, n)`` uniform draw for one stream/scenario/round.

        Scenario ``b`` reads the disjoint counter block at offset
        ``b * n * n`` of the round's generator, so this slice-equals the
        batched ``(B, n, n)`` draw of :meth:`_batch_uniforms` bit-for-bit
        (one float64 consumes one 64-bit PCG64 output).
        """
        rng = self._round_rng(stream, round_number)
        offset = self.scenario_base + scenario
        if offset:
            rng.bit_generator.advance(offset * n * n)
        return rng.random((n, n))

    def _batch_uniforms(
        self, stream: int, round_number: int, batch_size: int, n: int
    ) -> np.ndarray:
        """All ``batch_size`` scenarios' uniform draws as one ``(B, n, n)`` pass."""
        rng = self._round_rng(stream, round_number)
        if self.scenario_base:
            rng.bit_generator.advance(self.scenario_base * n * n)
        return rng.random((batch_size, n, n))

    def structural_mask(self, round_number: int, n: int) -> Optional[np.ndarray]:
        """The crash/join keep mask of one round, or ``None`` if inactive.

        ``mask[i, j]`` is ``False`` when the round-``round_number`` message
        from ``i`` to ``j`` is structurally suppressed (silent sender,
        unclean final broadcast, crashed recipient).  The diagonal is always
        kept: an agent communicates with itself instantaneously.
        """
        mask: Optional[np.ndarray] = None

        def materialize() -> np.ndarray:
            nonlocal mask
            if mask is None:
                mask = np.ones((n, n), dtype=bool)
            return mask

        for crash in self.crashes:
            if crash.round == round_number and crash.final_recipients is not None:
                keep = materialize()
                keep[crash.agent, :] = False
                for recipient in crash.final_recipients:
                    keep[crash.agent, recipient] = True
            if not self.sends_in_round(crash.agent, round_number):
                materialize()[crash.agent, :] = False
            if not self.receives_in_round(crash.agent, round_number):
                materialize()[:, crash.agent] = False
        for join in self.joins:
            if round_number < join.round:
                materialize()[join.agent, :] = False
        if mask is not None:
            np.fill_diagonal(mask, True)
        return mask

    def drop_mask(self, round_number: int, scenario: int, n: int) -> Optional[np.ndarray]:
        """The sampled message-drop keep mask, or ``None`` when ``drop == 0``."""
        if self.drop == 0.0:
            return None
        keep = self._uniforms(_STREAM_DROP, scenario, round_number, n) >= self.drop
        np.fill_diagonal(keep, True)
        return keep

    def round_mask(self, round_number: int, scenario: int, n: int) -> Optional[np.ndarray]:
        """The full per-scenario keep mask of one round (structural ∧ drops)."""
        structural = self.structural_mask(round_number, n)
        dropped = self.drop_mask(round_number, scenario, n)
        if dropped is None:
            return structural
        if structural is None:
            return dropped
        return structural & dropped

    def batch_round_masks(
        self, round_number: int, batch_size: int, n: int
    ) -> Optional[np.ndarray]:
        """The stacked keep masks of one ensemble round.

        Returns ``None`` when the round is fault-free, a shared ``(n, n)``
        mask when only (scenario-independent) structural faults apply, and a
        ``(B, n, n)`` stack when per-scenario drops are sampled.  Scenario
        ``b``'s slice equals ``round_mask(round_number, b, n)`` exactly —
        the bit-for-bit bridge between the vectorized path, the per-scenario
        reference loop and the event-driven simulator.
        """
        structural = self.structural_mask(round_number, n)
        if self.drop == 0.0:
            return structural
        stacked = (
            self._batch_uniforms(_STREAM_DROP, round_number, batch_size, n)
            >= self.drop
        )
        diagonal = np.arange(n)
        stacked[:, diagonal, diagonal] = True
        if structural is not None:
            stacked &= structural
        return stacked

    # ------------------------------------------------------------------ #
    # Application + the N_A invariant
    # ------------------------------------------------------------------ #

    def apply_to_adjacency(
        self, adjacency: np.ndarray, round_number: int, batch_size: int
    ) -> np.ndarray:
        """Mask one round's adjacency tensor and check the ``N_A`` invariant.

        ``adjacency`` is the engine's ``(n, n)`` shared or ``(B, n, n)``
        stacked boolean tensor; a fault-free round returns it *unchanged*
        (the zero-fault plan is bit-for-bit invisible).
        """
        n = adjacency.shape[-1]
        mask = self.batch_round_masks(round_number, batch_size, n)
        if mask is None:
            if self.enforce_model:
                self.check_crash_model(adjacency, round_number, batch_size)
            return adjacency
        effective = adjacency & mask
        if self.enforce_model:
            self.check_crash_model(effective, round_number, batch_size)
        return effective

    def apply_to_graph(
        self, graph: CommunicationGraph, round_number: int, scenario: int
    ) -> CommunicationGraph:
        """The per-scenario (reference-loop) counterpart of the mask path.

        Produces a :class:`~repro.graphs.digraph.CommunicationGraph` whose
        adjacency equals the corresponding slice of the batched effective
        tensor bit-for-bit; a fault-free round returns the graph itself.
        """
        mask = self.round_mask(round_number, scenario, graph.n)
        if mask is None:
            if self.enforce_model:
                self.check_crash_model(
                    graph.adjacency, round_number, 1, scenario=scenario
                )
            return graph
        effective = graph.adjacency & mask
        if self.enforce_model:
            self.check_crash_model(effective, round_number, 1, scenario=scenario)
        return CommunicationGraph(graph.n, adjacency=effective)

    def check_crash_model(
        self,
        effective: np.ndarray,
        round_number: int,
        batch_size: int,
        scenario: Optional[int] = None,
    ) -> None:
        """Assert every realized effective graph stays inside ``N_A(n, f)``.

        Every agent *participating* in the round must keep at least
        ``n - f`` effective in-neighbors (its own self-loop included);
        silent agents (crashed, pre-join) are exempt.  Raises
        :class:`~repro.exceptions.FaultModelError` naming the first
        violating (scenario, round, agent).
        """
        n = effective.shape[-1]
        budget = self.effective_f()
        required = n - budget
        if required <= 1:
            return  # every graph (self-loops forced) satisfies in-degree >= 1
        in_degrees = effective.sum(axis=-2)  # (n,) or (B, n): column sums
        participant = np.array(
            [self.participates_in_round(agent, round_number) for agent in range(n)]
        )
        violating = (in_degrees < required) & participant
        if not violating.any():
            return
        if violating.ndim == 1:
            agent = int(np.argmax(violating))
            bad_scenario = scenario if scenario is not None else 0
            degree = int(in_degrees[agent])
        else:
            bad_scenario, agent = (int(v) for v in np.argwhere(violating)[0])
            degree = int(in_degrees[bad_scenario, agent])
        # Report the *global* scenario index so a sharded run names the same
        # scenario the unsharded run would have.
        bad_scenario += self.scenario_base
        raise FaultModelError(
            f"faulted effective graph leaves the crash model N_A(n={n}, f={budget}) "
            f"in scenario {bad_scenario}, round {round_number}: agent {agent} has "
            f"in-degree {degree} < n - f = {required}",
            scenario=bad_scenario,
            round_number=round_number,
            agent=agent,
            in_degree=degree,
            required=required,
        )

    # ------------------------------------------------------------------ #
    # Event-runtime sampling (simulator-only effects)
    # ------------------------------------------------------------------ #

    def delivers(
        self, round_number: int, scenario: int, sender: int, recipient: int, n: int
    ) -> bool:
        """Whether the round-tagged message from ``sender`` reaches ``recipient``."""
        mask = self.round_mask(round_number, scenario, n)
        return True if mask is None else bool(mask[sender, recipient])

    def duplicates(
        self, round_number: int, scenario: int, sender: int, recipient: int, n: int
    ) -> bool:
        """Whether this delivery is duplicated (event runtime only)."""
        if self.duplicate == 0.0:
            return False
        uniforms = self._uniforms(_STREAM_DUPLICATE, scenario, round_number, n)
        return bool(uniforms[sender, recipient] < self.duplicate)

    def jittered_delay(
        self,
        round_number: int,
        scenario: int,
        sender: int,
        recipient: int,
        n: int,
        delay: float,
    ) -> float:
        """The delay after applying multiplicative jitter, clipped to ``(0, 1]``."""
        if self.jitter == 0.0:
            return delay
        uniform = self._uniforms(_STREAM_JITTER, scenario, round_number, n)[
            sender, recipient
        ]
        jittered = delay * (1.0 + self.jitter * (2.0 * uniform - 1.0))
        return float(min(1.0, max(1e-9, jittered)))

    def duplicate_delay(
        self,
        round_number: int,
        scenario: int,
        sender: int,
        recipient: int,
        n: int,
        delay: float,
    ) -> float:
        """The (strictly later) delay of a duplicated copy, clipped to ``(0, 1]``."""
        uniform = self._uniforms(_STREAM_DUPLICATE_DELAY, scenario, round_number, n)[
            sender, recipient
        ]
        return float(min(1.0, delay * (1.0 + uniform) + 1e-9))

    def retry_delivers(
        self,
        round_number: int,
        attempt: int,
        scenario: int,
        sender: int,
        recipient: int,
        n: int,
    ) -> bool:
        """Drop decision for a *retried* round message (fresh stream per attempt).

        Retries draw from a dedicated stream so a retransmission is not
        deterministically lost to the same drop draw as the original send;
        the structural (crash/join) mask still applies.
        """
        structural = self.structural_mask(round_number, n)
        if structural is not None and not structural[sender, recipient]:
            return False
        if self.drop == 0.0:
            return True
        if self.seed is None:
            raise ConfigError(
                "sampling from an unresolved FaultPlan; call plan.resolved() first"
            )
        rng = np.random.default_rng(
            (
                self.seed,
                _STREAM_TAG,
                _STREAM_RETRY,
                self.scenario_base + scenario,
                round_number,
                attempt,
            )
        )
        return bool(rng.random((n, n))[sender, recipient] >= self.drop)


@dataclass(frozen=True)
class FaultSpec:
    """User-facing declarative fault specification (the ``Study`` front door).

    Mirrors :class:`FaultPlan` but accepts convenient types — any iterables
    for ``crashes``/``joins`` — and compiles to the canonical plan with
    :meth:`compile`.  ``Study(faults=FaultSpec(...))`` and the engine
    ``fault_plan=`` keywords accept either form.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    jitter: float = 0.0
    crashes: Sequence[CrashSpec] = ()
    joins: Sequence[JoinSpec] = ()
    f: Optional[int] = None
    seed: Optional[int] = None
    enforce_model: bool = True

    def compile(self) -> FaultPlan:
        """The validated, canonical :class:`FaultPlan` of this spec."""
        return FaultPlan(
            drop=self.drop,
            duplicate=self.duplicate,
            jitter=self.jitter,
            crashes=tuple(self.crashes),
            joins=tuple(self.joins),
            f=self.f,
            seed=self.seed,
            enforce_model=self.enforce_model,
        )

    def to_dict(self) -> dict:
        """A versioned JSON-safe encoding; invert with :meth:`from_dict`."""
        payload = self.compile().to_dict()
        payload["__type__"] = "FaultSpec"
        del payload["scenario_base"]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        _check_payload(payload, "FaultSpec", 1)
        return cls(
            drop=payload["drop"],
            duplicate=payload["duplicate"],
            jitter=payload["jitter"],
            crashes=tuple(CrashSpec.from_dict(item) for item in payload["crashes"]),
            joins=tuple(JoinSpec.from_dict(item) for item in payload["joins"]),
            f=payload["f"],
            seed=payload["seed"],
            enforce_model=payload["enforce_model"],
        )


def as_fault_plan(
    faults: Union[FaultSpec, FaultPlan, None]
) -> Optional[FaultPlan]:
    """Normalize a user-provided fault argument to an active, resolved plan.

    ``None`` and zero plans normalize to ``None`` — the engines then run
    their untouched (bit-for-bit identical) fault-free code paths.  The
    returned plan has its seed pinned to the active config-scoped seed.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultSpec):
        faults = faults.compile()
    if not isinstance(faults, FaultPlan):
        raise ConfigError(
            f"faults must be a FaultSpec, FaultPlan or None, got {type(faults).__name__}"
        )
    if faults.is_zero():
        return None
    return faults.resolved()


class FaultMaskingPattern(CommunicationPattern):
    """Wrap a pattern so every emitted graph passes through a fault plan.

    The single-scenario (``run_execution``) consumer of the fault subsystem:
    ``graph_at`` masks the inner pattern's graph with the plan's
    ``(round, scenario)`` keep mask — the same mask the batched engine would
    apply — and enforces the ``N_A`` invariant.  ``raw_choices`` records the
    inner pattern's unmasked graphs for provenance.
    """

    def __init__(
        self,
        inner: CommunicationPattern,
        plan: FaultPlan,
        scenario: int = 0,
    ) -> None:
        self._inner = inner
        self._plan = plan.resolved()
        self._scenario = scenario
        self.raw_choices: list = []

    def reset(self) -> None:
        self._inner.reset()
        self.raw_choices = []

    def graph_at(
        self, round_number: int, context: Optional[RoundContext] = None
    ) -> CommunicationGraph:
        graph = self._inner.graph_at(round_number, context)
        self.raw_choices.append(graph)
        return self._plan.apply_to_graph(graph, round_number, self._scenario)

    def __repr__(self) -> str:
        return f"FaultMaskingPattern({self._inner!r}, scenario={self._scenario})"


__all__ = [
    "CrashSpec",
    "FaultMaskingPattern",
    "FaultPlan",
    "FaultSpec",
    "JoinSpec",
    "as_fault_plan",
]
