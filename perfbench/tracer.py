"""Outside-in span tracer: wraps the public functions of ``repro`` modules.

The benchmark adds no instrumentation to the program.  Instead,
:class:`Tracer` replaces the public functions and methods listed in
:data:`LAYERS` with timing wrappers, *wherever they are looked up*: a
module-level function is rebound in every loaded ``repro`` module that holds
it (``repro.algorithms.midpoint`` binds its own ``masked_min_max`` at import,
so patching ``repro.algorithms.base`` alone would miss every midpoint call),
and a method is rebound on its class.  :meth:`Tracer.uninstall` restores the
originals, so an untraced pass runs the program untouched.

Each wrapped call records one span ``(key, start, end, parent, op)`` in an
in-memory list; nothing is written while the workload runs.  Only calls made
by the tracing thread of the tracing process are recorded, so forked service
workers (which inherit the wrappers) and pool threads run straight through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: ``(layer, module, targets)``.  A target is ``"name"`` (a module-level
#: function), ``"Class.name"`` (a method), ``"Class.*"`` (every public
#: function defined on the class) or ``"*"`` (every public function defined
#: in the module).  The layer name is the module path without ``repro.``.
LAYERS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("api", "repro.api", ("Study.run",)),
    (
        "execution.batch",
        "repro.execution.batch",
        (
            "run_ensemble",
            "run_pattern_ensemble",
            "run_adversarial_ensemble",
            "merge_ensemble_executions",
        ),
    ),
    ("execution.engine", "repro.execution.engine", ("run_execution",)),
    (
        "algorithms.base",
        "repro.algorithms.base",
        ("receive_mask", "masked_min", "masked_max", "masked_min_max", "masked_extreme_pair"),
    ),
    (
        "faults",
        "repro.faults",
        ("FaultPlan.*", "FaultSpec.compile", "as_fault_plan", "FaultMaskingPattern.graph_at"),
    ),
    ("core.valency", "repro.core.valency", ("ValencyEstimator.*",)),
    (
        "core.adversary",
        "repro.core.adversary",
        (
            "GreedyDiameterAdversary.*",
            "LookaheadDiameterAdversary.*",
            "TwoAgentAdversary.*",
            "PsiBlockAdversary.*",
            "worst_constant_suffixes",
            "adversarial_graph_sequence",
        ),
    ),
    ("core.contraction", "repro.core.contraction", ("*",)),
    ("service.orchestrator", "repro.service.orchestrator", ("run_study_service",)),
    ("service.serialization", "repro.service.serialization", ("*",)),
    (
        "service.checkpoint",
        "repro.service.checkpoint",
        ("CheckpointJournal.__init__", "CheckpointJournal.*", "content_key"),
    ),
    (
        "asynchrony.schedulers",
        "repro.asynchrony.schedulers",
        ("RandomDelayScheduler.delay", "CrashSchedule.*"),
    ),
    ("asynchrony.round_based", "repro.asynchrony.round_based", ("RoundBasedAsyncAlgorithm.*",)),
    (
        "asynchrony.simulator",
        "repro.asynchrony.simulator",
        ("AsynchronousSimulator.run", "AsyncExecution.agreement_time"),
    ),
)

Span = Tuple[str, float, float, int, int]


def _public_functions(namespace: dict, owner_module: str) -> List[str]:
    return [
        name
        for name, value in namespace.items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == owner_module
    ]


def _targets(module, targets: Tuple[str, ...]) -> List[Tuple[Optional[type], str]]:
    """Resolve target patterns to ``(class or None, attribute)`` pairs."""
    resolved: List[Tuple[Optional[type], str]] = []
    for target in targets:
        owner_name, _, attribute = target.rpartition(".")
        if not owner_name:
            names = (
                _public_functions(vars(module), module.__name__)
                if attribute == "*"
                else [attribute]
            )
            resolved.extend((None, name) for name in names)
            continue
        cls = getattr(module, owner_name)
        names = (
            _public_functions(vars(cls), module.__name__) if attribute == "*" else [attribute]
        )
        resolved.extend((cls, name) for name in names)
    return list(dict.fromkeys(resolved))


class Tracer:
    """Records spans around the program's public functions while installed.

    ``observe`` hooks turn a call's arguments or result into counters (bytes
    a kernel call touched, messages a simulation delivered), so counts are
    taken at the boundary where the work happens.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []
        self._observers: Dict[str, Callable] = {}

    # -- recording ------------------------------------------------------- #

    def observe(self, key: str, hook: Callable) -> None:
        """Call ``hook(tracer, args, result, parent_key)`` after each ``key`` call."""
        self._observers[key] = hook

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] += value

    @contextmanager
    def span(self, key: str) -> Iterator[None]:
        """A span the benchmark opens itself (key ``"bench:<phase>"``)."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((key, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (key, start, end, parent, self.op)

    def _wrap(self, fn: Callable, key: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread or os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append((key, 0.0, 0.0, parent, tracer.op))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (key, start, end, parent, tracer.op)
            hook = tracer._observers.get(key)
            if hook is not None:
                parent_key = tracer.spans[parent][0] if parent >= 0 else None
                hook(tracer, args, result, parent_key)
            return result

        return traced

    # -- installation ---------------------------------------------------- #

    def install(self) -> None:
        """Wrap every target of :data:`LAYERS` where it is looked up."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        # Only calls from this process and thread are recorded.
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        for layer, module_name, targets in LAYERS:
            module = importlib.import_module(module_name)
            for cls, name in _targets(module, targets):
                key = f"{layer}:{name if cls is None else cls.__name__ + '.' + name}"
                if cls is not None:
                    original = cls.__dict__[name]
                    self._restore.append((cls, name, original))
                    setattr(cls, name, self._wrap(original, key))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(original, key)
                for holder in list(sys.modules.values()):
                    holder_name = getattr(holder, "__name__", "")
                    if not (holder_name == "repro" or holder_name.startswith("repro.")):
                        continue
                    for attribute, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, attribute, original))
                            setattr(holder, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every original function, leaving the program untouched."""
        for holder, attribute, original in reversed(self._restore):
            setattr(holder, attribute, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Write the recorded spans as JSON lines, once, at the end."""
        with open(path, "w", encoding="utf-8") as handle:
            for key, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"name": key, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


def layer_of(key: str) -> str:
    return key.split(":", 1)[0]


def aggregate(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per-layer and per-key ``busy``, ``self`` and ``calls`` from a span list.

    ``self`` time is a span's duration minus the interval its child spans
    cover (children of one span never overlap: they are sequential calls on
    one thread).  ``busy`` and ``calls`` count only the outermost span of a
    layer, so a layer calling itself is not counted twice.  Results are
    keyed by layer name and by full span key.
    """
    child_time = [0.0] * len(spans)
    for key, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"busy": 0.0, "self": 0.0, "calls": 0}
    )
    for index, (key, start, end, parent, _op) in enumerate(spans):
        duration = end - start
        layer = layer_of(key)
        self_time = duration - child_time[index]
        # Outermost within the layer: no ancestor belongs to the same layer.
        outermost = True
        ancestor = parent
        while ancestor >= 0:
            if layer_of(spans[ancestor][0]) == layer:
                outermost = False
                break
            ancestor = spans[ancestor][3]
        for name in (layer, key):
            entry = totals[name]
            entry["self"] += self_time
            if outermost:
                entry["busy"] += duration
                entry["calls"] += 1
    return dict(totals)
