"""Algorithm interfaces for the round-based dynamic system model.

An algorithm (Section 2) is a deterministic local transition function: in
every round each agent sends a message to its out-neighbors, receives the
messages of its in-neighbors (always including itself, because communication
graphs have self-loops), and updates its state.  The agent's *output* ``y_i``
is a point of Euclidean d-space extracted from its state.

Two levels of generality are provided:

* :class:`Algorithm` — the fully general interface (full-information
  algorithms, algorithms with memory, algorithms whose outputs leave the
  convex hull of received values, deciding algorithms, ...).
* :class:`ConvexCombinationAlgorithm` — the memoryless averaging algorithms
  of Section 2.2: the state is just the output value, the message is the
  output value, and the new output must lie in the convex hull of the values
  received in the current round.  Subclasses only implement
  :meth:`ConvexCombinationAlgorithm.combine`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import AlgorithmError, EnsembleShapeError
from repro.types import as_value

#: The dense kernel reduces the leading axis in blocks whose float
#: intermediate stays below this many elements (1M float64 = 8 MiB).
_DENSE_BLOCK_ELEMENTS = 1 << 20

#: Float width in bytes -> (signed integer type of that width, its minimum).
_SIGNED_OF_WIDTH = {
    width: (int_type, int(np.iinfo(int_type).min))
    for width, int_type in ((2, np.int16), (4, np.int32), (8, np.int64))
}


def receive_mask(adjacency: np.ndarray) -> np.ndarray:
    """The receiver-major view of an adjacency tensor.

    ``adjacency[..., i, j]`` means *i sends to j*; the returned array has
    ``mask[..., j, i]`` true iff receiver ``j`` hears sender ``i``, which is
    the orientation every masked reduction of the vectorized fast path needs.
    Accepts a single ``(n, n)`` matrix or a stacked ``(B, n, n)`` tensor.
    """
    return np.swapaxes(np.asarray(adjacency, dtype=bool), -1, -2)


def masked_min(adjacency: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-receiver coordinate-wise minimum over received values.

    ``adjacency`` is a boolean ``(..., n, n)`` tensor and ``values`` a
    ``(..., n, d)`` tensor; row ``j`` of the result is the minimum over the
    values of ``j``'s in-neighbors (``inf`` when ``j`` hears nobody, NaN when
    ``j`` hears a NaN).  This is the one authoritative masked reduction shared
    by the fast-path algorithms and the convexity validator.  The kernel is
    chosen from the input shape alone (see :func:`_select_kernel`); every
    kernel returns the same bits — NaN payloads included, and ``0.0`` /
    ``-0.0`` ties resolve in sender order (the first zero in-neighbor for
    the minimum, the last for the maximum) — and peak memory stays bounded
    instead of growing with the full ``(B, n, n, d)`` dense intermediate.
    """
    lo, _hi = _masked_extremes_pair(adjacency, values, None)
    return lo


def masked_max(adjacency: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-receiver coordinate-wise maximum over received values (see :func:`masked_min`)."""
    _lo, hi = _masked_extremes_pair(adjacency, None, values)
    return hi


def masked_min_max(adjacency: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Both masked extremes in one pass.

    Equivalent to ``(masked_min(a, v), masked_max(a, v))`` but shares the
    receive-mask, shape resolution and the per-coordinate sort between the
    two reductions — use it whenever an update needs both bounds
    (midpoint-style rules, convexity checks).
    """
    return _masked_extremes_pair(adjacency, values, values)


def masked_extreme_pair(
    adjacency: np.ndarray,
    min_values: Optional[np.ndarray],
    max_values: Optional[np.ndarray],
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Fused masked extremes over *two* value tensors with one mask resolution.

    Returns ``(masked_min(adjacency, min_values), masked_max(adjacency,
    max_values))`` bit-for-bit, but resolves the receive mask once and shares
    it — along with the broadcasting work and, on the dense kernel, each
    expanded mask block — between the two reductions.  This is the
    amortized midpoint's per-round pattern: the minimum runs over the
    phase-min tensor while the maximum runs over the phase-max tensor of the
    same adjacency.  Either side may be ``None`` to skip that extreme;
    passing the same object for both degenerates to :func:`masked_min_max`
    (one shared sort instead of two).
    """
    if min_values is None and max_values is None:
        raise AlgorithmError(
            "masked_extreme_pair needs at least one of min_values/max_values"
        )
    return _masked_extremes_pair(adjacency, min_values, max_values)


def _float_dtype(values: np.ndarray) -> np.dtype:
    """The dense kernel's output dtype: ``np.where(mask, values, inf)`` keeps a
    floating dtype and promotes anything else to float64."""
    if np.issubdtype(values.dtype, np.floating):
        return values.dtype
    return np.result_type(values.dtype, float)


def _nan_tail_reversed(order: np.ndarray, sorted_column: np.ndarray):
    """Reverse the NaN tail of stably sorted columns (rows along the last axis).

    A stable ``argsort`` puts NaNs last, in sender order.  Reversing that
    tail makes the *last* received position that lands in it the *first*
    received NaN in sender order — the element the dense reduction
    propagates (``np.minimum``/``np.maximum`` keep the NaN they meet first).
    Returns ``(order, sorted_column, nan_start)`` with ``nan_start`` the
    per-row index where the tail begins (keepdims), or ``None`` — after an
    O(rows) check — when no row holds a NaN.
    """
    if not np.isnan(sorted_column[..., -1]).any():
        return order, sorted_column, None
    n = sorted_column.shape[-1]
    nan_start = n - np.isnan(sorted_column).sum(axis=-1, keepdims=True)
    positions = np.arange(n)
    flip = np.where(positions >= nan_start, nan_start + n - 1 - positions, positions)
    return (
        np.take_along_axis(order, flip, axis=-1),
        np.take_along_axis(sorted_column, flip, axis=-1),
        nan_start,
    )


def _masked_extremes_scan(
    mask: np.ndarray,
    min_values: Optional[np.ndarray],
    max_values: Optional[np.ndarray],
    lead: tuple,
):
    """Sort-and-scan masked extremes for values shared across the mask's batch.

    With the ``(n, d)`` values fixed, the masked minimum of receiver ``j`` is
    the *first* of ``j``'s in-neighbors in ascending value order and the
    masked maximum the *last*, so one boolean gather plus an ``argmax`` per
    coordinate replaces the ``O(lead · n² · d)`` float64 ``np.where``
    intermediate with a byte-sized one — both faster and leaner when many
    candidate masks share one value matrix (the adversaries' stacked
    candidate evaluation).  Exact: a set extreme does not depend on the
    evaluation order, and a receiver whose last in-neighbor lands in the NaN
    tail takes the NaN the dense kernel would (see :func:`_nan_tail_reversed`).
    When the two sides are the same object the sort and the boolean gather
    are shared; distinct tensors still share the has-neighbor vector (and the
    caller's single mask resolution).
    """
    n_receivers, last_axis = mask.shape[-2:]
    has_neighbor = mask.any(axis=-1)  # (..., n_receivers)

    def _one_side(values: np.ndarray, want_min: bool, want_max: bool):
        d = values.shape[-1]
        values = values.reshape(last_axis, d)
        lo_columns, hi_columns = [], []
        for coord in range(d):
            column = values[:, coord]
            order = np.argsort(column, kind="stable")
            sorted_column = column[order].astype(_float_dtype(column), copy=False)
            order, sorted_column, nan_start = _nan_tail_reversed(order, sorted_column)
            sorted_mask = mask[..., order]
            if want_max or nan_start is not None:
                last_hit = last_axis - 1 - sorted_mask[..., ::-1].argmax(axis=-1)
            if want_min:
                first_hit = sorted_mask.argmax(axis=-1)
                if nan_start is not None:
                    first_hit = np.where(last_hit >= nan_start[0], last_hit, first_hit)
                lo_columns.append(np.where(has_neighbor, sorted_column[first_hit], np.inf))
            if want_max:
                hi_columns.append(np.where(has_neighbor, sorted_column[last_hit], -np.inf))
        out_shape = lead + (n_receivers, d)
        lo = np.stack(lo_columns, axis=-1).reshape(out_shape) if want_min else None
        hi = np.stack(hi_columns, axis=-1).reshape(out_shape) if want_max else None
        return lo, hi

    if min_values is not None and min_values is max_values:
        return _one_side(min_values, True, True)
    lo = _one_side(min_values, True, False)[0] if min_values is not None else None
    hi = _one_side(max_values, False, True)[1] if max_values is not None else None
    return lo, hi


def _max_over_senders(product: np.ndarray) -> np.ndarray:
    """Maximum over axis -2 of ``product``, by halving it in place.

    ``log2(n)`` whole-array ``np.maximum`` calls over contiguous blocks run
    well ahead of ``product.max(axis=-2)``, whose inner loop covers one
    short receiver row at a time.  Overwrites ``product``; returns a copy.
    """
    rows = product.shape[-2]
    while rows > 1:
        half = rows // 2
        np.maximum(
            product[..., :half, :], product[..., rows - half : rows, :],
            out=product[..., :half, :],
        )
        rows -= half
    return product[..., 0, :].copy()


def _masked_extremes_rank(
    mask: np.ndarray,
    min_values: Optional[np.ndarray],
    max_values: Optional[np.ndarray],
    lead: tuple,
):
    """Rank-domain masked extremes for the general (per-lead values) case.

    Sorting each scenario's values once per coordinate turns the masked
    extreme of every receiver into its in-neighbor of lowest (minimum) or
    highest (maximum) rank in sorted order.  With ``rank`` the position of
    each sender in that order, each comes out of one broadcast multiply and
    one maximum over the sender axis (:func:`_max_over_senders`):

    * ``last = max(mask · rank)``,
    * ``first = n − 1 − max(mask · (n − 1 − rank))``.

    Ranks are uint8 through ``n = 256``, so the product is one byte per
    (lead, sender, receiver) — an eighth of the dense kernel's float64
    ``np.where`` tensor at ``d == 1`` — laid out sender-major like the
    adjacency itself.  A rank-0 in-neighbor and no in-neighbor both reduce
    to 0, so receivers that hear nobody take ``±inf`` through a
    has-neighbor vector; when both extremes run on one value tensor it is
    free, since any in-neighbor of rank ``r`` makes the two maxima sum to at
    least ``n − 1``.  The selected floats are actual elements of
    ``values``, so the result is bit-for-bit equal to the dense kernel, and
    tied values (``0.0 == -0.0``) resolve in sender order because the
    ``argsort`` is stable.  NaNs need no separate pass: a receiver whose
    last in-neighbor lands in a scenario's NaN tail takes the NaN the dense
    kernel propagates (see :func:`_nan_tail_reversed`), and NaN-free stacks
    pay one O(lead) check.

    Values are sorted over their own lead axes and the ranks broadcast
    against the mask's, so a value tensor shared by a candidate axis is
    sorted once.  The two sides of a fused pair share the has-neighbor
    vector and the product buffer; with identical value objects the sort
    and the ``last`` reduction are shared too.
    """
    n_receivers, n = mask.shape[-2:]
    ndim = len(lead) + 2

    def with_lead(array):
        return array.reshape((1,) * (ndim - array.ndim) + array.shape)

    senders = with_lead(np.swapaxes(mask, -1, -2)).view(np.uint8)  # (..., n, R)
    top = n - 1
    rank_dtype = np.min_scalar_type(top)
    positions = np.arange(n, dtype=rank_dtype)
    product = np.empty(lead + (n, n_receivers), dtype=rank_dtype)
    has_neighbor = None

    def highest_rank(rank):
        np.multiply(senders, rank[..., None], out=product)
        return _max_over_senders(product)  # (..., R)

    def _one_side(values: np.ndarray, want_min: bool, want_max: bool):
        nonlocal has_neighbor
        d = values.shape[-1]
        values = with_lead(values)
        out_dtype = _float_dtype(values)
        lo = np.empty(lead + (n_receivers, d), dtype=out_dtype) if want_min else None
        hi = np.empty(lead + (n_receivers, d), dtype=out_dtype) if want_max else None
        order = np.argsort(values, axis=-2, kind="stable")
        for coord in range(d):
            column_order = order[..., coord]
            sorted_column = np.take_along_axis(values[..., coord], column_order, axis=-1)
            sorted_column = sorted_column.astype(out_dtype, copy=False)
            column_order, sorted_column, nan_start = _nan_tail_reversed(
                column_order, sorted_column
            )
            rank = np.empty(column_order.shape, dtype=rank_dtype)
            np.put_along_axis(rank, column_order, positions, axis=-1)
            if want_max or nan_start is not None:
                last = highest_rank(rank)
            if want_min:
                first_gap = highest_rank(top - rank)
            if has_neighbor is None:
                if want_min and want_max and top:
                    has_neighbor = (last | first_gap) != 0
                else:
                    has_neighbor = senders.any(axis=-2)
            if want_min:
                pick = top - first_gap
                if nan_start is not None:
                    pick = np.where(last >= nan_start, last, pick)
                gathered = np.take_along_axis(sorted_column, pick, axis=-1)
                lo[..., coord] = np.where(has_neighbor, gathered, np.inf)
            if want_max:
                gathered = np.take_along_axis(sorted_column, last, axis=-1)
                hi[..., coord] = np.where(has_neighbor, gathered, -np.inf)
        return lo, hi

    if min_values is not None and min_values is max_values:
        return _one_side(min_values, True, True)
    lo = _one_side(min_values, True, False)[0] if min_values is not None else None
    hi = _one_side(max_values, False, True)[1] if max_values is not None else None
    return lo, hi


def _holds_negative_zero(values: np.ndarray) -> bool:
    """Whether ``values`` holds a ``-0.0``: the dense kernel's one per-call check.

    ``-0.0`` is the only float whose bits, read as a signed integer of the
    same width, are that integer type's minimum, so one integer ``min``
    answers it.  Integer and boolean values hold no signed zero.
    """
    if values.dtype.kind != "f" or values.size == 0:
        return False
    signed = _SIGNED_OF_WIDTH.get(values.dtype.itemsize)
    if signed is None:  # long double: no integer of its width
        return bool((np.signbit(values) & (values == 0)).any())
    int_type, int_min = signed
    return bool(values.view(int_type).min() == int_min)


def _masked_extremes_dense(
    mask: np.ndarray,
    min_values: Optional[np.ndarray],
    max_values: Optional[np.ndarray],
    lead: tuple,
):
    """The reference masked extremes: ``np.where`` over the sender axis.

    Materializes the ``(..., n_receivers, n, d)`` float intermediate, so it
    walks the first lead axis in blocks whose intermediate stays below
    ``_DENSE_BLOCK_ELEMENTS`` — the kernel's only memory guard.  Blocking the
    lead axis leaves every receiver's reduction intact, so the result does
    not depend on the block size.  Ties between ``0.0`` and ``-0.0`` follow
    the sorted kernels' sender order: when a value tensor holds a ``-0.0``
    (:func:`_holds_negative_zero`), every zero extreme takes the sign of the
    first (minimum) or last (maximum) zero in-neighbor.
    """
    n_receivers, n = mask.shape[-2:]
    d = (min_values if min_values is not None else max_values).shape[-1]
    lead0 = lead[0] if lead else 1
    per_lead0 = (math.prod(lead) // max(lead0, 1)) * n_receivers * n * d
    block = max(1, _DENSE_BLOCK_ELEMENTS // max(per_lead0, 1))

    def reduce(mask_block, min_block, max_block):
        expanded_mask = mask_block[..., None]
        lo = (
            np.where(expanded_mask, min_block[..., None, :, :], np.inf).min(axis=-2)
            if min_block is not None
            else None
        )
        hi = (
            np.where(expanded_mask, max_block[..., None, :, :], -np.inf).max(axis=-2)
            if max_block is not None
            else None
        )
        return lo, hi

    def full(array):
        if array is None:
            return None
        return np.broadcast_to(array, lead + array.shape[-2:])

    if block >= lead0:
        lo, hi = reduce(mask, min_values, max_values)
    else:
        mask_full, min_full, max_full = full(mask), full(min_values), full(max_values)
        blocks = [
            reduce(
                mask_full[start : start + block],
                None if min_full is None else min_full[start : start + block],
                None if max_full is None else max_full[start : start + block],
            )
            for start in range(0, lead0, block)
        ]
        lo, hi = (
            None if side is None else np.concatenate([pair[index] for pair in blocks])
            for index, side in enumerate((min_values, max_values))
        )

    def zeros_in_sender_order(extreme, values, first):
        # 0.0 == -0.0, so np.minimum/np.maximum hand either sign to a
        # receiver that hears both; a stable sort keeps tied zeros in sender
        # order instead.
        zero = extreme == 0
        if not zero.any():
            return extreme
        *lead_index, receiver, coord = np.nonzero(zero)
        rows = full(mask)[(*lead_index, receiver)]  # (zeros, n)
        columns = np.swapaxes(full(values), -1, -2)[(*lead_index, coord)]
        hits = rows & (columns == 0)
        sender = hits.argmax(axis=-1) if first else n - 1 - hits[:, ::-1].argmax(axis=-1)
        extreme[zero] = columns[np.arange(sender.size), sender]
        return extreme

    tied_min = min_values is not None and _holds_negative_zero(min_values)
    if max_values is min_values:
        tied_max = tied_min
    else:
        tied_max = max_values is not None and _holds_negative_zero(max_values)
    return (
        zeros_in_sender_order(lo, min_values, True) if tied_min else lo,
        zeros_in_sender_order(hi, max_values, False) if tied_max else hi,
    )


def _select_kernel(lead_count: int, n: int, d: int, shared_values: bool):
    """The masked-extremes kernel for an input shape; the values are never read.

    * Values shared by a stack of masks (``lead_count > 1``, every value
      lead axis of size 1, ``d <= 8``) take the sort-and-scan kernel.
    * Otherwise the rank kernel runs above the measured crossover with the
      dense kernel.  Dense pays per element of the ``(lead, n, n, d)``
      float intermediate, while rank pays per byte of its ``(lead, n, n)``
      product for each coordinate plus a fixed cost per call and per
      coordinate (the sort, the gathers).  At ``d == 1`` one threshold on
      ``lead · n²`` marks where the per-element saving outgrows that fixed
      cost; beyond one coordinate dense's cost per element drops further,
      so rank also needs ``n² ≥ 32 · d`` and the work threshold scales by
      ``d``.  On the (lead, n, d) grid in README.md ("Masked reductions")
      the chosen kernel is within 1.25x of the faster one at every point.
    * Everything else runs dense.
    """
    if shared_values and lead_count > 1 and d <= 8:
        return _masked_extremes_scan
    work = lead_count * n * n
    if d == 1:
        rank = work >= 1 << 15
    else:
        rank = n * n >= 32 * d and work >= 4096 * d
    return _masked_extremes_rank if rank else _masked_extremes_dense


def _reduction_operands(
    adjacency: np.ndarray,
    min_values: Optional[np.ndarray],
    max_values: Optional[np.ndarray],
):
    """Validate the operands of a masked reduction and resolve its mask once.

    Returns ``(mask, min_values, max_values, lead)``: the receive mask, the
    value tensors as arrays (one object when both sides are the same), and
    the broadcast leading (scenario/candidate) shape — exactly the arguments
    every kernel takes, so ``kernel(*_reduction_operands(a, lo, hi))`` runs
    one kernel on its own.
    """
    adjacency_arr = np.asarray(adjacency)
    if adjacency_arr.ndim < 2 or adjacency_arr.shape[-1] != adjacency_arr.shape[-2]:
        raise EnsembleShapeError(
            f"adjacency must be a square (..., n, n) tensor, got shape {adjacency_arr.shape}",
            expected="(..., n, n)",
            actual=tuple(adjacency_arr.shape),
        )
    shared = min_values is not None and min_values is max_values
    min_arr = np.asarray(min_values) if min_values is not None else None
    if shared:
        max_arr = min_arr
    else:
        max_arr = np.asarray(max_values) if max_values is not None else None
    # The distinct sides of a fused pair (one asarray each when shared).
    sides = [min_arr] if shared else [arr for arr in (min_arr, max_arr) if arr is not None]
    for values in sides:
        if values.ndim < 2:
            raise EnsembleShapeError(
                f"values must be a (..., n, d) tensor, got shape {values.shape}"
            )
        if values.shape[-2] != adjacency_arr.shape[-1]:
            raise EnsembleShapeError(
                f"adjacency tensor {adjacency_arr.shape} and value tensor {values.shape} "
                f"disagree on the number of agents: {adjacency_arr.shape[-1]} vs {values.shape[-2]}"
            )
    if len(sides) == 2 and sides[0].shape[-1] != sides[1].shape[-1]:
        raise EnsembleShapeError(
            f"min value tensor {sides[0].shape} and max value tensor {sides[1].shape} "
            f"disagree on the coordinate dimension: {sides[0].shape[-1]} vs {sides[1].shape[-1]}"
        )
    mask = receive_mask(adjacency_arr)
    leads = {mask.shape[:-2], *(values.shape[:-2] for values in sides)}
    if len(leads) == 1:  # the common case, without np.broadcast_shapes' overhead
        return mask, min_arr, max_arr, leads.pop()
    try:
        lead = np.broadcast_shapes(*leads)
    except ValueError as exc:
        raise EnsembleShapeError(
            f"adjacency tensor {adjacency_arr.shape} and value tensor(s) "
            f"{[tuple(v.shape) for v in sides]} have incompatible leading "
            "(scenario/candidate) axes"
        ) from exc
    return mask, min_arr, max_arr, lead


def _masked_extremes_pair(
    adjacency: np.ndarray,
    min_values: Optional[np.ndarray],
    max_values: Optional[np.ndarray],
):
    """Dispatch core of all masked extremes: one mask resolution per call.

    ``min_values`` feeds the minimum and ``max_values`` the maximum; either
    may be ``None`` (that side is skipped) and passing the same object for
    both recovers the shared-sort single-tensor behaviour of
    :func:`masked_min_max`.  The kernel :func:`_select_kernel` picks from the
    operand shapes receives the one mask :func:`_reduction_operands`
    resolved, so a caller needing both extremes pays for exactly one
    :func:`receive_mask` resolution.
    """
    mask, min_arr, max_arr, lead = _reduction_operands(adjacency, min_values, max_values)
    values = min_arr if min_arr is not None else max_arr
    shared_values = all(
        size == 1
        for arr in (min_arr, max_arr)
        if arr is not None
        for size in arr.shape[:-2]
    )
    kernel = _select_kernel(math.prod(lead), mask.shape[-1], values.shape[-1], shared_values)
    return kernel(mask, min_arr, max_arr, lead)


class Algorithm(ABC):
    """A deterministic local algorithm for the round-based dynamic model.

    Subclasses define the agent state (any picklable/copyable object), the
    message sent each round, the state transition, and how to read the output
    value ``y_i`` from the state.
    """

    @abstractmethod
    def initial_state(self, agent_id: int, initial_value: np.ndarray, n: int) -> Any:
        """The agent's state before round 1.

        Parameters
        ----------
        agent_id:
            The agent's identifier (``0 .. n-1``).
        initial_value:
            The agent's initial value ``y_i(0)`` as a 1-D float array.
        n:
            The total number of agents (known to the agents, as in the paper's
            algorithms that use phases of length ``n - 1``).
        """

    @abstractmethod
    def message(self, agent_id: int, state: Any) -> Any:
        """The message the agent broadcasts this round, given its current state."""

    @abstractmethod
    def transition(
        self, agent_id: int, state: Any, received: Mapping[int, Any], round_number: int
    ) -> Any:
        """The new state after receiving ``received`` (sender id -> message) in ``round_number``.

        ``received`` always contains the agent's own message (self-loop).
        """

    @abstractmethod
    def output(self, agent_id: int, state: Any) -> np.ndarray:
        """The output value ``y_i`` encoded in ``state`` (1-D float array)."""

    @property
    def name(self) -> str:
        """Human-readable algorithm name used in reports and benchmarks."""
        return type(self).__name__

    def is_convex_combination(self) -> bool:
        """Whether the algorithm is a convex-combination (averaging) algorithm."""
        return isinstance(self, ConvexCombinationAlgorithm)

    def round_invariant(self) -> bool:
        """Whether the transition ignores the ``round_number`` argument.

        Round-invariant algorithms produce bit-for-bit identical states no
        matter which round number a transition executes at, in both
        :meth:`transition` and :meth:`batch_transition`.  Any algorithm whose
        update never reads ``round_number`` may override this to ``True``,
        stateful ones included: the amortized midpoint keeps its phase
        position in the state.  The batched valency estimator relies on it
        to stack futures that start at different rounds into one ensemble
        (stateful states stack when they agree once their array leaves are
        stripped, see :meth:`batch_map`).  Retiring exact output fixpoints
        from constant suffixes is a separate, convex-class rule
        (:meth:`ConvexCombinationAlgorithm.batch_state_fixpoint`); stateful
        algorithms answer :meth:`batch_state_fixpoint` themselves.  Defaults
        to ``False`` (conservative).
        """
        return False

    # ------------------------------------------------------------------ #
    # Vectorized fast path (optional)
    # ------------------------------------------------------------------ #
    #
    # Algorithms whose round update is a pure array computation can execute
    # whole rounds — and whole stacked ensembles of executions — as single
    # NumPy operations instead of per-agent Python loops.  An algorithm opts
    # in by returning True from :meth:`supports_batch` and implementing the
    # four ``batch_*`` hooks below.  The *batch state* is an opaque object
    # holding array-valued per-agent state; all hooks must treat it as
    # immutable and return fresh objects.  Value tensors have shape
    # ``(..., n, d)`` and adjacency tensors ``(..., n, n)``, where leading
    # dimensions (if any) index independent scenarios of an ensemble.
    #
    # :func:`repro.execution.run_execution` and
    # :mod:`repro.execution.batch` dispatch to these hooks automatically and
    # fall back to the per-agent path when they are absent; both paths
    # produce equivalent executions (see tests/test_equivalence.py).

    def supports_batch(self) -> bool:
        """Whether the vectorized ``batch_*`` fast path is implemented."""
        return False

    def batch_initial(self, values: np.ndarray) -> Any:
        """Batch state before round 1 from an ``(..., n, d)`` value tensor."""
        raise NotImplementedError(f"{self.name} has no vectorized fast path")

    def batch_transition(self, batch_state: Any, adjacency: np.ndarray, round_number: int) -> Any:
        """One synchronous round on the whole batch state at once.

        ``adjacency`` is the boolean ``(..., n, n)`` adjacency tensor of the
        round's communication graph(s), with ``adjacency[..., i, j]`` true iff
        ``j`` receives from ``i``.
        """
        raise NotImplementedError(f"{self.name} has no vectorized fast path")

    def batch_outputs(self, batch_state: Any) -> np.ndarray:
        """The ``(..., n, d)`` output tensor encoded in ``batch_state``."""
        raise NotImplementedError(f"{self.name} has no vectorized fast path")

    def batch_states(self, batch_state: Any) -> Tuple[Any, ...]:
        """Per-agent states equivalent to an *unbatched* ``(n, d)`` batch state.

        Used to materialize :class:`~repro.execution.state.Configuration`
        records; only defined when ``batch_state`` holds a single scenario.
        """
        raise NotImplementedError(f"{self.name} has no vectorized fast path")

    def batch_map(self, batch_state: Any, fn) -> Any:
        """Apply ``fn`` to every array leaf of ``batch_state``.

        The batched adversarial runner uses this to insert (and broadcast
        over) a candidate axis, e.g. ``fn = lambda a: a[:, None]`` turns a
        ``(B, n, d)`` state into a ``(B, 1, n, d)`` one that a stacked
        ``(C, n, n)`` adjacency pass expands to ``(B, C, n, d)``.  The default
        covers array-valued batch states; algorithms with structured batch
        states override it.  Implementations must visit the leaves in a fixed
        order and rebuild the state from the mapped values
        (:meth:`batch_state_stack` relies on both properties).  Mapping every
        leaf to ``None`` must give a hashable value that equals another
        state's exactly when the two stack (for the amortized midpoint, same
        phase position and length): the valency estimator groups restored
        states by it.
        """
        if isinstance(batch_state, np.ndarray):
            return fn(batch_state)
        raise NotImplementedError(
            f"{self.name} has a structured batch state and must override batch_map"
        )

    def batch_state_stack(self, batch_states: Sequence[Any]) -> Any:
        """Stack single-scenario batch states along a new leading scenario axis.

        ``batch_states`` holds ``B`` batch states whose array leaves have
        identical shapes (e.g. restored from recorded per-agent snapshots via
        :meth:`batch_state_from_states`); the result is one batch state whose
        leaves carry a leading length-``B`` axis, ready to drive all ``B``
        scenarios through :meth:`batch_transition` at once.  The ensemble
        certification engine uses this to evaluate a whole
        :class:`~repro.execution.batch.EnsembleExecution` record's scenarios
        as stacked valency ensembles.  The default covers array-valued batch
        states and, via :meth:`batch_map` leaf traversal, structured states;
        algorithms whose batch state carries non-array fields that must agree
        across scenarios should override it with explicit validation.
        """
        states = list(batch_states)
        if not states:
            raise AlgorithmError("cannot stack zero batch states")
        if all(isinstance(state, np.ndarray) for state in states):
            return np.stack(states)
        leaves_per_state = []
        for state in states:
            leaves: list = []
            self.batch_map(state, lambda leaf: (leaves.append(np.asarray(leaf)), leaf)[1])
            leaves_per_state.append(leaves)
        counts = {len(leaves) for leaves in leaves_per_state}
        if len(counts) != 1:
            raise AlgorithmError(
                f"batch states of {self.name} expose differing leaf counts "
                f"({sorted(counts)}) and cannot be stacked"
            )
        stacked = [
            np.stack([leaves[index] for leaves in leaves_per_state])
            for index in range(counts.pop())
        ]
        replacement = iter(stacked)
        return self.batch_map(states[0], lambda _leaf: next(replacement))

    def batch_state_fixpoint(
        self, previous: Any, new: Any
    ) -> Optional[np.ndarray]:
        """Scenarios whose outputs provably never change again — or ``None``.

        Called by the valency engine's constant-suffix runs with the batch
        states before and after one :meth:`batch_transition` under a fixed
        adjacency.  A ``True`` entry (boolean array over the leading scenario
        axes) asserts that repeating the *same* transition forever leaves that
        scenario's outputs bit-for-bit unchanged, so the active set may retire
        it early.  ``None`` (the default) means "cannot tell" and disables
        retiring — always sound.  Implementations must only claim fixpoints
        that hold *exactly* in floating point, since retired scenarios'
        current outputs stand in for their suffix limits.
        """
        return None

    # ------------------------------------------------------------------ #
    # Batch-state snapshot/restore (optional)
    # ------------------------------------------------------------------ #
    #
    # :meth:`batch_states` *snapshots* an unbatched batch state into the
    # per-agent states a Configuration records; the hooks below *restore*
    # a batch state from such a snapshot.  Together they let the batched
    # valency/certification engines resume stateful algorithms (e.g. the
    # amortized midpoint's mid-phase extremes) at an arbitrary recorded
    # configuration and fan the restored state out into a scenario ensemble
    # via :meth:`batch_map` — instead of falling back to the per-future
    # reference loop.

    def supports_batch_state(self) -> bool:
        """Whether batch states can be restored from recorded per-agent states.

        Algorithms that return ``True`` implement
        :meth:`batch_state_from_states` as the exact inverse of
        :meth:`batch_states`: restoring the snapshot and resuming through
        ``batch_transition`` must be bit-for-bit identical to resuming the
        per-agent states through ``transition``.
        """
        return False

    def batch_state_from_states(self, states: Sequence[Any]) -> Any:
        """Restore an unbatched batch state from a per-agent state snapshot.

        ``states`` is the tuple a :class:`~repro.execution.state.Configuration`
        records (one opaque state per agent, as produced by
        :meth:`batch_states` or by per-agent execution); the result is a
        single-scenario batch state whose array leaves have shape
        ``(n, d)``-like trailing axes, ready for :meth:`batch_map` fan-out.
        """
        raise NotImplementedError(
            f"{self.name} cannot restore a batch state from per-agent states"
        )


class ConvexCombinationAlgorithm(Algorithm):
    """Memoryless averaging algorithms (Section 2.2).

    The agent state is its output value; the broadcast message is the output
    value; and the transition sets the output to a point in the convex hull
    of the values received this round, computed by :meth:`combine`.

    Setting ``validate=True`` makes every transition assert the convex-hull
    (Validity) requirement, which is useful in tests.
    """

    def __init__(self, validate: bool = False) -> None:
        self._validate = validate

    @abstractmethod
    def combine(
        self, agent_id: int, received: Dict[int, np.ndarray], round_number: int
    ) -> np.ndarray:
        """Map the received values (sender id -> value) to the new output value.

        The result must lie in the convex hull of ``received.values()``.
        """

    def combine_all(
        self, adjacency: np.ndarray, values: np.ndarray, round_number: int
    ) -> Optional[np.ndarray]:
        """Vectorized :meth:`combine` for all agents (and scenarios) at once.

        ``values`` is the ``(..., n, d)`` tensor of current outputs and
        ``adjacency`` the boolean ``(..., n, n)`` adjacency tensor of the
        round's graph(s) (``adjacency[..., i, j]`` iff ``j`` receives from
        ``i``; the diagonal is always true).  Implementations return the new
        ``(..., n, d)`` output tensor, equal to applying :meth:`combine`
        receiver by receiver.  The base implementation returns ``None``,
        meaning "no fast path" — the engine then uses the per-agent loop.
        """
        return None

    # ------------------------------------------------------------------ #
    # Algorithm interface
    # ------------------------------------------------------------------ #

    def initial_state(self, agent_id: int, initial_value: np.ndarray, n: int) -> np.ndarray:
        return as_value(initial_value)

    def message(self, agent_id: int, state: np.ndarray) -> np.ndarray:
        return state

    def transition(
        self, agent_id: int, state: np.ndarray, received: Mapping[int, Any], round_number: int
    ) -> np.ndarray:
        values = {sender: as_value(value) for sender, value in received.items()}
        if agent_id not in values:
            raise AlgorithmError(
                f"agent {agent_id} did not receive its own value; communication graphs "
                "must contain self-loops"
            )
        new_value = as_value(self.combine(agent_id, values, round_number))
        if self._validate:
            self._check_convex(new_value, values)
        return new_value

    def output(self, agent_id: int, state: np.ndarray) -> np.ndarray:
        return state

    # ------------------------------------------------------------------ #
    # Vectorized fast path: generic implementation on top of combine_all
    # ------------------------------------------------------------------ #

    def supports_batch(self) -> bool:
        return type(self).combine_all is not ConvexCombinationAlgorithm.combine_all

    def batch_initial(self, values: np.ndarray) -> np.ndarray:
        return np.array(values, dtype=float)

    def batch_transition(
        self, batch_state: np.ndarray, adjacency: np.ndarray, round_number: int
    ) -> np.ndarray:
        new_values = self.combine_all(adjacency, batch_state, round_number)
        if new_values is None:
            raise AlgorithmError(f"{self.name} does not implement combine_all")
        new_values = np.asarray(new_values, dtype=float)
        if self._validate:
            self._check_convex_batch(new_values, batch_state, adjacency)
        return new_values

    def batch_outputs(self, batch_state: np.ndarray) -> np.ndarray:
        return batch_state

    def batch_states(self, batch_state: np.ndarray) -> Tuple[np.ndarray, ...]:
        if batch_state.ndim != 2:
            raise AlgorithmError(
                f"per-agent states only exist for a single scenario, got shape {batch_state.shape}"
            )
        return tuple(batch_state)

    def supports_batch_state(self) -> bool:
        return self.supports_batch()

    def batch_state_from_states(self, states: Sequence[Any]) -> np.ndarray:
        return np.stack([as_value(state) for state in states])

    def batch_state_fixpoint(
        self, previous: np.ndarray, new: np.ndarray
    ) -> Optional[np.ndarray]:
        """Exact output fixpoints of one round (round-invariant rules only).

        The state of a convex-combination algorithm is its output matrix and
        the transition is a deterministic function of (state, adjacency) when
        the rule is round-invariant, so a state that one round maps to itself
        is fixed forever under that adjacency.  Round-dependent rules return
        ``None`` (an unchanged output this round says nothing about the next).
        """
        if not self.round_invariant():
            return None
        previous = np.asarray(previous)
        new = np.asarray(new)
        return (new == previous).all(axis=(-2, -1))

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _check_convex_batch(
        new_values: np.ndarray, values: np.ndarray, adjacency: np.ndarray, tol: float = 1e-9
    ) -> None:
        lo, hi = masked_min_max(adjacency, values)
        lo = lo - tol
        hi = hi + tol
        if np.any(new_values < lo) or np.any(new_values > hi):
            raise AlgorithmError(
                "convex-combination algorithm produced a value outside the bounding box "
                "of received values in the vectorized fast path"
            )

    @staticmethod
    def _check_convex(new_value: np.ndarray, values: Dict[int, np.ndarray], tol: float = 1e-9) -> None:
        points = np.vstack(list(values.values()))
        lo = points.min(axis=0) - tol
        hi = points.max(axis=0) + tol
        if np.any(new_value < lo) or np.any(new_value > hi):
            raise AlgorithmError(
                "convex-combination algorithm produced a value outside the bounding box "
                f"of received values: {new_value} not in [{points.min(axis=0)}, {points.max(axis=0)}]"
            )
