"""Seeded-random equivalence of the bitset-packed graph kernels.

Every packed/stacked kernel must agree exactly with its per-graph reference:
products over random graph stacks, reachability/roots/rootedness/non-split
over stacks, the α relation matrix against per-pair ``alpha_related`` calls,
α/β classes and the α-diameter against the per-pair reference path, the
rank-domain masked-reduction kernel against the dense kernel bit-for-bit
(NaN payloads and signed zeros included), and the shape rule that picks
between them.  Test names that say "packed" about a masked reduction predate
the rank kernel, which replaced the packed-bit one; they keep their names.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.algorithms.base as base_module
from repro.algorithms import MidpointAlgorithm
from repro.algorithms.base import (
    _masked_extremes_dense,
    _masked_extremes_rank,
    _masked_extremes_scan,
    _reduction_operands,
    masked_extreme_pair,
    masked_max,
    masked_min,
    masked_min_max,
)
from repro.exceptions import GraphError
from repro.execution import run_pattern_ensemble
from repro.graphs.digraph import CommunicationGraph
from repro.graphs.families import (
    complete_graph,
    cycle_graph,
    deaf_family,
    psi_family,
    two_agent_graphs,
)
from repro.graphs.generators import random_graph, random_nonsplit_graph, random_rooted_graph
from repro.graphs.packed import (
    in_neighborhood_ids,
    is_nonsplit_stack,
    is_rooted_stack,
    is_strongly_connected_stack,
    product_sequence_stack,
    product_stack,
    reachability_stack,
    roots_stack,
    stack_adjacencies,
)
from repro.graphs.products import product, product_sequence, product_sequence_batch
from repro.graphs.properties import (
    is_nonsplit,
    is_rooted,
    is_strongly_connected,
    reachability_matrix,
    roots,
)
from repro.graphs.relations import (
    _alpha_classes_reference,
    _alpha_diameter_reference,
    _alpha_step_graph_reference,
    _beta_classes_reference,
    alpha_classes,
    alpha_diameter,
    alpha_related,
    alpha_related_union,
    alpha_relation_matrix,
    alpha_step_graph,
    alpha_witness_tensor,
    beta_classes,
)
from repro.models.patterns import PeriodicPattern
from repro.types import pack_bool_rows, packed_row_ids


def _dense(adjacency, values):
    return _masked_extremes_dense(*_reduction_operands(adjacency, values, values))


def _rank(adjacency, values):
    return _masked_extremes_rank(*_reduction_operands(adjacency, values, values))


def _bits(array):
    """The raw float64 bits: equality on these also pins NaN signs and payloads."""
    return np.asarray(array, dtype=np.float64).view(np.uint64)


def _random_stack(n, count, seed, probability=0.4):
    rng = np.random.default_rng(seed)
    return [random_graph(n, rng, probability) for _ in range(count)]


# --------------------------------------------------------------------------- #
# Bit kernels in types.py
# --------------------------------------------------------------------------- #

def test_packed_row_ids_group_equal_rows():
    rows = np.array([[1, 0, 1], [0, 1, 1], [1, 0, 1], [0, 0, 0]], dtype=bool)
    ids = packed_row_ids(pack_bool_rows(rows))
    assert ids[0] == ids[2]
    assert len({int(ids[0]), int(ids[1]), int(ids[3])}) == 3


# --------------------------------------------------------------------------- #
# Stacked structural kernels
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("seed,n,count", [(0, 4, 6), (1, 7, 10), (2, 12, 5), (3, 33, 4)])
def test_stacked_structure_kernels_match_scalar(seed, n, count):
    rng = np.random.default_rng(seed)
    graphs = (
        [random_graph(n, rng, 0.25) for _ in range(count)]
        + [random_rooted_graph(n, rng) for _ in range(2)]
        + [random_nonsplit_graph(n, rng) for _ in range(2)]
    )
    stack = stack_adjacencies(graphs)
    reach = reachability_stack(stack)
    for index, graph in enumerate(graphs):
        assert np.array_equal(reach[index], reachability_matrix(graph))
        assert frozenset(np.nonzero(roots_stack(stack)[index])[0].tolist()) == roots(graph)
    assert np.array_equal(is_rooted_stack(stack), [is_rooted(g) for g in graphs])
    assert np.array_equal(is_nonsplit_stack(stack), [is_nonsplit(g) for g in graphs])
    assert np.array_equal(
        is_strongly_connected_stack(stack), [is_strongly_connected(g) for g in graphs]
    )


def test_in_neighborhood_ids_match_in_neighbors():
    graphs = _random_stack(6, 8, seed=9)
    ids = in_neighborhood_ids(stack_adjacencies(graphs))
    for gi, g in enumerate(graphs):
        for hi, h in enumerate(graphs):
            for agent in range(6):
                assert (ids[gi, agent] == ids[hi, agent]) == (
                    g.in_neighbors(agent) == h.in_neighbors(agent)
                )


def test_product_stack_matches_product():
    first = _random_stack(5, 7, seed=4)
    second = _random_stack(5, 7, seed=5)
    batched = product_stack(stack_adjacencies(first), stack_adjacencies(second))
    for index in range(7):
        assert np.array_equal(batched[index], product(first[index], second[index]).adjacency)


def test_product_sequence_batch_matches_sequential_products():
    sequences = [_random_stack(6, 5, seed=20 + i) for i in range(9)]
    batched = product_sequence_batch(sequences)
    for index, sequence in enumerate(sequences):
        assert np.array_equal(batched[index], product_sequence(sequence).adjacency)


def test_product_sequence_batch_rejects_ragged_input():
    graphs = _random_stack(4, 3, seed=0)
    with pytest.raises(GraphError):
        product_sequence_batch([])
    with pytest.raises(GraphError):
        product_sequence_batch([graphs, graphs[:2]])


def test_product_sequence_stack_needs_a_round():
    with pytest.raises(GraphError):
        product_sequence_stack([])


def test_stack_adjacencies_validates():
    with pytest.raises(GraphError):
        stack_adjacencies([])
    with pytest.raises(GraphError):
        stack_adjacencies([complete_graph(3), complete_graph(4)])


# --------------------------------------------------------------------------- #
# Vectorized α machinery vs per-pair reference
# --------------------------------------------------------------------------- #

def _models():
    rng = np.random.default_rng(11)
    return [
        psi_family(4),
        psi_family(6),
        deaf_family(complete_graph(5)),
        list(two_agent_graphs()),
        [random_graph(5, rng, 0.35) for _ in range(9)],
        [random_rooted_graph(6, rng) for _ in range(7)],
    ]


@pytest.mark.parametrize("use_union_form", [False, True])
def test_alpha_relation_matrix_matches_pairwise_reference(use_union_form):
    related = alpha_related_union if use_union_form else alpha_related
    for graphs in _models():
        matrix = alpha_relation_matrix(graphs, use_union_form=use_union_form)
        for gi, g in enumerate(graphs):
            for hi, h in enumerate(graphs):
                expected = any(related(g, h, witness) for witness in graphs)
                assert bool(matrix[gi, hi]) == expected


def test_alpha_witness_tensor_matches_per_witness_reference():
    for graphs in _models()[:4]:
        tensor = alpha_witness_tensor(graphs)
        for wi, witness in enumerate(graphs):
            for gi, g in enumerate(graphs):
                for hi, h in enumerate(graphs):
                    assert bool(tensor[wi, gi, hi]) == alpha_related(g, h, witness)


@pytest.mark.parametrize("use_union_form", [False, True])
def test_alpha_step_graph_packed_equals_reference(use_union_form):
    for graphs in _models():
        packed = alpha_step_graph(graphs, use_union_form=use_union_form)
        reference = _alpha_step_graph_reference(graphs, use_union_form=use_union_form)
        assert packed == reference


@pytest.mark.parametrize("use_union_form", [False, True])
def test_alpha_and_beta_classes_packed_equal_reference(use_union_form):
    for graphs in _models():
        assert set(alpha_classes(graphs, use_union_form=use_union_form)) == set(
            _alpha_classes_reference(graphs, use_union_form=use_union_form)
        )
        assert set(beta_classes(graphs, use_union_form=use_union_form)) == set(
            _beta_classes_reference(graphs, use_union_form=use_union_form)
        )


@pytest.mark.parametrize("use_union_form", [False, True])
def test_alpha_diameter_packed_equals_reference(use_union_form):
    for graphs in _models():
        assert alpha_diameter(
            graphs, use_union_form=use_union_form
        ) == _alpha_diameter_reference(graphs, use_union_form=use_union_form)


def test_alpha_diameter_packed_disconnected_is_infinite():
    # Two isolated-in-neighborhood worlds that no witness connects: deaf
    # variants with *different* base graphs that never share in-neighborhoods.
    g1 = CommunicationGraph(4, edges=[(0, 1), (1, 2), (2, 3)], name="chain")
    g2 = complete_graph(4)
    value = alpha_diameter([g1, g2])
    assert value == _alpha_diameter_reference([g1, g2])


def test_alpha_classes_psi32_vectorized_matches_reference():
    graphs = psi_family(32)
    assert set(alpha_classes(graphs)) == set(_alpha_classes_reference(graphs))
    assert set(beta_classes(graphs)) == set(_beta_classes_reference(graphs))
    assert alpha_diameter(graphs) == _alpha_diameter_reference(graphs)


# --------------------------------------------------------------------------- #
# Rank-domain masked reductions vs dense, bit-for-bit
# --------------------------------------------------------------------------- #


def _assert_same_bits(got_pair, want_pair):
    for got, want in zip(got_pair, want_pair):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("length", [1, 7, 8, 9, 31, 64, 65])
def test_rank_first_last_in_neighbor_match_dense_scan(length):
    # Values equal to the sender index: the masked minimum is the first
    # in-neighbor and the maximum the last, with the +/-inf sentinels for a
    # receiver that hears nobody.
    rng = np.random.default_rng(length)
    mask = rng.random((3, length, length)) < 0.2
    mask[:, 0] = False  # an all-false row exercises the sentinels
    mask[:, -1] = True
    values = np.broadcast_to(np.arange(length, dtype=float)[:, None], (3, length, 1))
    lo, hi = _rank(np.swapaxes(mask, -1, -2), values)
    for scenario, receiver in np.ndindex(3, length):
        hits = np.nonzero(mask[scenario, receiver])[0]
        assert lo[scenario, receiver, 0] == (hits[0] if hits.size else np.inf)
        assert hi[scenario, receiver, 0] == (hits[-1] if hits.size else -np.inf)


@pytest.mark.parametrize("n", [254, 255, 256, 257])
def test_rank_dtype_boundary_matches_dense(n):
    # Ranks stay uint8 through n = 256 and widen beyond it; the extreme
    # ranks (0 and n - 1) and the NaN tail sit right at the boundary.
    rng = np.random.default_rng(n)
    values = rng.normal(size=(2, n, 1))
    values[1, rng.random(n) < 0.1] = np.nan
    adjacency = rng.random((2, n, n)) < 0.05
    order = np.argsort(values[0, :, 0])
    adjacency[0, :, :] = False
    adjacency[0, order[0], 0] = True  # hears only the rank-0 sender
    adjacency[0, order[-1], 1] = True  # hears only the top-rank sender
    adjacency[0, order[[0, -1]], 2] = True  # hears both
    # receiver 3 of scenario 0 hears nobody
    adjacency[0, np.arange(4, n), np.arange(4, n)] = True
    expected = _dense(adjacency, values)
    _assert_same_bits(_rank(adjacency, values), expected)
    assert expected[0][0, 0, 0] == values[0, order[0], 0]
    assert expected[1][0, 1, 0] == values[0, order[-1], 0]
    assert expected[0][0, 3, 0] == np.inf and expected[1][0, 3, 0] == -np.inf
    for side in ((values, None), (None, values)):
        _assert_same_bits(
            _masked_extremes_rank(*_reduction_operands(adjacency, *side)),
            _masked_extremes_dense(*_reduction_operands(adjacency, *side)),
        )


@pytest.mark.parametrize("n", [1, 2, 5])
def test_rank_receivers_without_in_neighbors(n):
    # The has-neighbor vector comes from the two maxima when both extremes
    # run on one tensor and from the mask otherwise; both must keep the
    # +/-inf sentinels, down to n = 1 where every rank is 0.
    values = np.linspace(-1.0, 1.0, 3 * n).reshape(3, n, 1)
    adjacency = np.zeros((3, n, n), dtype=bool)
    adjacency[1, 0, :] = True  # scenario 1: everyone hears agent 0 only
    adjacency[2] = np.eye(n, dtype=bool)
    for pair in ((values, values), (values, None), (None, values), (values, -values)):
        got = _masked_extremes_rank(*_reduction_operands(adjacency, *pair))
        _assert_same_bits(got, _masked_extremes_dense(*_reduction_operands(adjacency, *pair)))
    lo, hi = _rank(adjacency, values)
    assert (lo[0] == np.inf).all() and (hi[0] == -np.inf).all()


@pytest.mark.parametrize("dtype", [np.int64, np.int8, bool, np.float32])
def test_rank_promotes_values_like_dense(dtype):
    rng = np.random.default_rng(20)
    integers = rng.integers(-3, 4, size=(4, 12, 2))
    values = (integers > 0 if dtype is bool else integers).astype(dtype)
    adjacency = rng.random((4, 12, 12)) < 0.3
    expected = _dense(adjacency, values)
    assert expected[0].dtype == base_module._float_dtype(values)
    _assert_same_bits(_rank(adjacency, values), expected)


@pytest.mark.parametrize(
    "adjacency_shape,values_shape",
    [
        ((3, 9, 9), (4, 1, 9, 2)),  # a candidate axis crossed with scenarios (B, C)
        ((4, 3, 9, 9), (4, 3, 9, 1)),  # a full 2-D lead
        ((9, 9), (5, 9, 2)),  # one shared (n, n) mask with per-lead values
        ((5, 9, 9), (9, 3)),  # one shared value matrix
    ],
    ids=["candidates-x-scenarios", "2d-lead", "shared-mask", "shared-values"],
)
def test_rank_operand_layouts_match_dense(adjacency_shape, values_shape):
    rng = np.random.default_rng(21)
    adjacency = rng.random(adjacency_shape) < 0.4
    values = rng.normal(size=values_shape)
    values[rng.random(values_shape) < 0.1] = np.nan
    _assert_same_bits(_rank(adjacency, values), _dense(adjacency, values))


def test_rank_separate_min_max_tensors_match_dense():
    rng = np.random.default_rng(22)
    adjacency = rng.random((6, 40, 40)) < 0.3
    mins, maxs = rng.normal(size=(2, 6, 40, 2))
    maxs[2, :5] = -np.nan
    operands = _reduction_operands(adjacency, mins, maxs)
    expected = _masked_extremes_dense(*operands)
    _assert_same_bits(_masked_extremes_rank(*operands), expected)
    _assert_same_bits(masked_extreme_pair(adjacency, mins, maxs), expected)
    assert np.array_equal(_bits(masked_min(adjacency, mins)), _bits(expected[0]))
    assert np.array_equal(_bits(masked_max(adjacency, maxs)), _bits(expected[1]))


@pytest.mark.parametrize("shape", [(5, 40, 1), (3, 33, 2), (7, 16, 3), (2, 3, 65, 1)])
def test_packed_masked_reduction_matches_dense(shape):
    *lead, n, d = shape
    rng = np.random.default_rng(sum(shape))
    values = rng.normal(size=(*lead, n, d))
    adjacency = rng.random((*lead, n, n)) < 0.3
    diag = np.arange(n)
    adjacency[..., diag, diag] = True
    lo_dense, hi_dense = _dense(adjacency, values)
    lo_rank, hi_rank = _rank(adjacency, values)
    assert np.array_equal(lo_dense, lo_rank)
    assert np.array_equal(hi_dense, hi_rank)


def test_packed_masked_reduction_handles_empty_in_neighborhoods():
    rng = np.random.default_rng(3)
    adjacency = np.zeros((4, 10, 10), dtype=bool)
    adjacency[:, 2, :] = True  # only agent 2 sends; most receivers hear one sender
    values = rng.normal(size=(4, 10, 1))
    lo_dense, hi_dense = _dense(adjacency, values)
    lo_rank, hi_rank = _rank(adjacency, values)
    assert np.array_equal(lo_dense, lo_rank)
    assert np.array_equal(hi_dense, hi_rank)


def test_packed_masked_reduction_nan_values_fall_back_to_dense():
    # (8, 256, 1) sits above the crossover, so the dispatch runs the rank
    # kernel even on NaN inputs; a receiver hearing a NaN must get the very
    # NaN the dense kernel propagates (the first one in sender order), sign
    # and payload included.
    rng = np.random.default_rng(16)
    values = rng.normal(size=(8, 256, 1))
    nan_at = rng.random(values.shape) < 0.01
    negative = rng.random(values.shape) < 0.5
    values[nan_at & negative] = -np.nan
    values[nan_at & ~negative] = np.nan
    values[3] = np.nan  # one all-NaN scenario
    values[5, :, 0] = -np.nan
    values[5, 7:9, 0] = [1.5, np.nan]  # mixed payloads in one scenario
    assert np.signbit(values[np.isnan(values)]).any()
    adjacency = rng.random((8, 256, 256)) < 0.05
    adjacency[:, np.arange(256), np.arange(256)] = True
    adjacency[6] = False  # receivers without in-neighbors keep the sentinels
    lo_dense, hi_dense = _dense(adjacency, values)
    assert np.isnan(lo_dense).any() and not np.isnan(lo_dense).all()
    for lo, hi in (_rank(adjacency, values), masked_min_max(adjacency, values)):
        assert np.array_equal(_bits(lo), _bits(lo_dense))
        assert np.array_equal(_bits(hi), _bits(hi_dense))
    assert np.array_equal(_bits(masked_min(adjacency, values)), _bits(lo_dense))


def test_packed_masked_reduction_auto_fires_on_large_stacks(monkeypatch):
    # Above the crossover the dispatch runs rank, still bit-for-bit.
    rng = np.random.default_rng(8)
    values = rng.normal(size=(48, 160, 1))
    adjacency = rng.random((48, 160, 160)) < 0.1
    diag = np.arange(160)
    adjacency[:, diag, diag] = True
    lo_dense, hi_dense = _dense(adjacency, values)
    calls = _count_kernel_calls(monkeypatch)
    lo_auto, hi_auto = masked_min_max(adjacency, values)
    assert calls == {"rank": 1, "dense": 0}
    assert np.array_equal(lo_auto, lo_dense)
    assert np.array_equal(hi_auto, hi_dense)


# --------------------------------------------------------------------------- #
# Signed zeros: 0.0 == -0.0 ties resolve in sender order on every kernel
# --------------------------------------------------------------------------- #


def _signed_zeros(shape, seed):
    return np.random.default_rng(seed).choice([0.0, -0.0], size=shape)


@pytest.mark.parametrize("shape", [(64, 64, 1), (64, 64, 4), (64, 64, 64)])
def test_signed_zero_batch_equals_per_scenario_calls(shape):
    # The shape picks the kernel, so a batched call and the same scenarios
    # one at a time may run different kernels; the bits must not differ.
    values = _signed_zeros(shape, 23)
    adjacency = np.random.default_rng(24).random(shape[:2] + shape[1:2]) < 0.5
    lo, hi = masked_min_max(adjacency, values)
    for scenario in range(shape[0]):
        single = masked_min_max(adjacency[scenario], values[scenario])
        _assert_same_bits(single, (lo[scenario], hi[scenario]))
    operands = _reduction_operands(adjacency, values, values)
    _assert_same_bits(_masked_extremes_rank(*operands), (lo, hi))
    _assert_same_bits(_masked_extremes_dense(*operands), (lo, hi))
    # The minimum takes the first zero in sender order, the maximum the last.
    receive = np.swapaxes(adjacency, -1, -2)
    for scenario, receiver in ((0, 0), (7, 3), (63, 63)):
        hits = np.nonzero(receive[scenario, receiver])[0]
        column = values[scenario, hits, 0]
        assert np.signbit(lo[scenario, receiver, 0]) == np.signbit(column[0])
        assert np.signbit(hi[scenario, receiver, 0]) == np.signbit(column[-1])


def test_signed_zero_scan_and_separate_tensors_match_dense():
    rng = np.random.default_rng(25)
    adjacency = rng.random((6, 20, 20)) < 0.4
    shared = _signed_zeros((1, 20, 2), 26)
    operands = _reduction_operands(adjacency, shared, shared)
    _assert_same_bits(_masked_extremes_scan(*operands), _masked_extremes_dense(*operands))
    mins, maxs = _signed_zeros((6, 20, 2), 27), rng.uniform(-1.0, 0.0, size=(6, 20, 2))
    maxs[maxs > -0.5] = -0.0
    operands = _reduction_operands(adjacency, mins, maxs)
    _assert_same_bits(_masked_extremes_rank(*operands), _masked_extremes_dense(*operands))


def test_signed_zero_midpoint_batch_equals_per_scenario_loop():
    values = _signed_zeros((64, 64, 1), 28)
    pattern = PeriodicPattern([complete_graph(64), cycle_graph(64)])
    runs = [
        run_pattern_ensemble(
            MidpointAlgorithm(), values, pattern, 3, use_batch=use_batch, record_every=1
        )
        for use_batch in (True, False)
    ]
    batched, loop = (np.asarray(run.recorded_outputs) for run in runs)
    assert np.signbit(batched).any() and not np.signbit(batched).all()
    assert np.array_equal(_bits(batched), _bits(loop))


# --------------------------------------------------------------------------- #
# Shape-selected kernel dispatch
# --------------------------------------------------------------------------- #


def _count_kernel_calls(monkeypatch):
    """Count dispatches into the rank and dense kernels (module globals)."""
    calls = {"rank": 0, "dense": 0}
    for name in calls:
        attribute = f"_masked_extremes_{name}"
        original = getattr(base_module, attribute)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(base_module, attribute, counting)
    return calls


@pytest.mark.parametrize(
    "shape,kernel",
    [
        ((64, 64, 1), "rank"),  # the faulted-ensemble round
        ((16, 32, 1), "dense"),  # one service-journal shard
        ((8, 6, 1), "dense"),  # a Table 1 certification call
    ],
    ids=["64x64x1", "16x32x1", "8x6x1"],
)
def test_dispatch_selects_kernel_by_shape(monkeypatch, shape, kernel):
    batch, n, d = shape
    rng = np.random.default_rng(batch + n + d)
    values = rng.uniform(-1.0, 1.0, size=shape)
    adjacency = rng.random((batch, n, n)) < 0.5
    calls = _count_kernel_calls(monkeypatch)
    masked_min_max(adjacency, values)
    assert calls == {name: int(name == kernel) for name in ("rank", "dense")}


def test_dispatch_ignores_values(monkeypatch):
    # NaNs do not reroute a call: the choice is a function of the shape only.
    values = np.random.default_rng(17).uniform(size=(64, 64, 1))
    adjacency = np.ones((64, 64, 64), dtype=bool)
    calls = _count_kernel_calls(monkeypatch)
    masked_min_max(adjacency, values)
    values[::2, 3] = np.nan
    masked_min_max(adjacency, values)
    assert calls == {"rank": 2, "dense": 0}


def test_dispatch_peak_memory_at_b64_n256():
    # The retired chunked dense kernel peaked at 8.7 MB on this shape.
    rng = np.random.default_rng(18)
    values = rng.uniform(-1.0, 1.0, size=(64, 256, 1))
    adjacency = rng.random((64, 256, 256)) < 0.5
    masked_min_max(adjacency, values)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        masked_min_max(adjacency, values)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8.7e6


def test_dense_lead_blocks_are_bit_for_bit(monkeypatch):
    # The dense kernel's fixed-budget loop over the lead axis must not change
    # a bit, for one-scenario blocks and for blocks wider than the stack.
    rng = np.random.default_rng(19)
    values = rng.normal(size=(5, 1, 9, 2))
    adjacency = rng.random((3, 9, 9)) < 0.4  # a candidate axis crossed with scenarios
    unblocked = _dense(adjacency, values)
    for budget in (1, 9 * 9 * 2 * 3, 10**9):
        monkeypatch.setattr(base_module, "_DENSE_BLOCK_ELEMENTS", budget)
        for got, want in zip(_dense(adjacency, values), unblocked):
            assert got.shape == (5, 3, 9, 2)
            assert np.array_equal(got, want)


# --------------------------------------------------------------------------- #
# Bitset-resident adjacency cache + vectorized packed column gather
# --------------------------------------------------------------------------- #


def test_packed_receive_rows_is_cached_and_correct():
    from repro.types import pack_bool_rows

    rng = np.random.default_rng(11)
    graph = random_graph(12, rng, 0.4)
    packed = graph.packed_receive_rows
    assert packed is graph.packed_receive_rows  # computed once, shared
    assert not packed.flags.writeable
    assert np.array_equal(packed, pack_bool_rows(graph.adjacency.T))


def test_packed_in_neighborhoods_matches_raw_stack_packing():
    from repro.graphs.packed import (
        graph_in_neighborhood_ids,
        packed_in_neighborhoods,
        pack_adjacency_rows,
    )

    rng = np.random.default_rng(12)
    graphs = [random_graph(10, rng, 0.5) for _ in range(4)]
    stack = stack_adjacencies(graphs)
    cached = packed_in_neighborhoods(graphs)
    raw = pack_adjacency_rows(stack.swapaxes(-1, -2))
    assert np.array_equal(cached, raw)
    assert np.array_equal(graph_in_neighborhood_ids(graphs), in_neighborhood_ids(stack))
    # The stacked rows come straight out of each graph's resident bitset.
    assert np.shares_memory(
        packed_in_neighborhoods([graphs[0]]), graphs[0].packed_receive_rows
    ) or np.array_equal(packed_in_neighborhoods([graphs[0]])[0], graphs[0].packed_receive_rows)


def test_packed_in_neighborhoods_rejects_mixed_sizes():
    from repro.graphs.packed import packed_in_neighborhoods

    with pytest.raises(GraphError):
        packed_in_neighborhoods([complete_graph(4), complete_graph(5)])
    with pytest.raises(GraphError):
        packed_in_neighborhoods([])


def test_alpha_machinery_uses_graph_bitset_caches():
    # The default (non-union) witness tensor must produce identical
    # partitions while reading packed rows from the graphs' caches.
    rng = np.random.default_rng(13)
    graphs = [random_graph(7, rng, 0.4) for _ in range(5)]
    packed_classes = alpha_classes(graphs)
    reference_classes = _alpha_classes_reference(graphs)
    assert packed_classes == reference_classes
    for graph in graphs:
        assert graph._packed_receive is not None  # cache was populated


def test_packed_gather_on_graph_adjacency_bit_for_bit():
    # Regression for the packed column gather: a single-graph adjacency
    # broadcast over a value ensemble must equal the dense path exactly.
    rng = np.random.default_rng(14)
    for trial in range(20):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 3))
        lead = int(rng.integers(2, 8))
        graph = random_graph(n, rng, float(rng.uniform(0.1, 0.9)))
        values = rng.uniform(-4.0, 4.0, size=(lead, n, d))
        lo_dense, hi_dense = _dense(graph.adjacency, values)
        lo_rank, hi_rank = _rank(graph.adjacency, values)
        assert np.array_equal(lo_dense, lo_rank), trial
        assert np.array_equal(hi_dense, hi_rank), trial


def test_packed_gather_on_memoized_stacks_matches_dense():
    from repro.execution.engine import _AdjacencyCache

    rng = np.random.default_rng(15)
    graphs = tuple(random_graph(24, rng, 0.3) for _ in range(5))
    stacked = _AdjacencyCache().stacked(graphs)
    values = rng.uniform(-1.0, 1.0, size=(5, 24, 2))
    lo_dense, hi_dense = _dense(stacked, values)
    lo_rank, hi_rank = _rank(stacked, values)
    assert np.array_equal(lo_dense, lo_rank)
    assert np.array_equal(hi_dense, hi_rank)


def test_packed_gather_handles_isolated_receivers():
    # Receivers with no in-neighbors at all (no self-loop in the raw mask)
    # must keep the +/-inf sentinel semantics of the dense path.
    values = np.array([[[0.5], [1.5], [-2.0]], [[3.0], [0.0], [1.0]]])
    adjacency = np.zeros((2, 3, 3), dtype=bool)
    adjacency[0, 0, 1] = True  # 1 hears 0 in scenario 0; everyone else deaf
    lo_rank, hi_rank = _rank(adjacency, values)
    lo_dense, hi_dense = _dense(adjacency, values)
    assert np.array_equal(lo_dense, lo_rank)
    assert np.array_equal(hi_dense, hi_rank)
    assert lo_rank[0, 0, 0] == np.inf and hi_rank[0, 0, 0] == -np.inf


class TestFusedMaskResolutionCount:
    """Callers wanting both extremes must pay for one mask resolution, not two.

    ``masked_min_max`` / ``masked_extreme_pair`` fuse the min and max
    reductions over a single :func:`receive_mask` call on every kernel
    (dense, sort-and-scan, rank); the amortized midpoint's vectorized
    transition rides that kernel, so each round resolves its adjacency
    exactly once.  ``"auto"`` leaves the shape rule in charge; the other
    parameters pin the dispatch to one kernel (the rank kernel keeps the
    ``packed`` id of the kernel it replaced).
    """

    IMPLS = ["auto", "dense", pytest.param("rank", id="packed")]

    @staticmethod
    def _pin_kernel(monkeypatch, impl):
        if impl != "auto":
            kernel = getattr(base_module, f"_masked_extremes_{impl}")
            monkeypatch.setattr(base_module, "_select_kernel", lambda *shape: kernel)

    @pytest.fixture()
    def count_mask_resolutions(self, monkeypatch):
        import repro.algorithms.base as base_module

        counter = {"calls": 0}
        original = base_module.receive_mask

        def counting(adjacency):
            counter["calls"] += 1
            return original(adjacency)

        monkeypatch.setattr(base_module, "receive_mask", counting)
        return counter

    @pytest.mark.parametrize("impl", IMPLS)
    def test_masked_min_max_resolves_once(self, monkeypatch, count_mask_resolutions, impl):
        rng = np.random.default_rng(40)
        values = rng.uniform(-1.0, 1.0, size=(3, 8, 2))
        adjacency = rng.random((3, 8, 8)) < 0.5
        self._pin_kernel(monkeypatch, impl)
        lo, hi = masked_min_max(adjacency, values)
        assert count_mask_resolutions["calls"] == 1
        # Sanity: still equal to two separate (twice-resolving) reductions.
        assert np.array_equal(lo, masked_min(adjacency, values))
        from repro.algorithms.base import masked_max

        assert np.array_equal(hi, masked_max(adjacency, values))
        assert count_mask_resolutions["calls"] == 3

    @pytest.mark.parametrize("impl", IMPLS)
    def test_extreme_pair_on_distinct_tensors_resolves_once(
        self, monkeypatch, count_mask_resolutions, impl
    ):
        from repro.algorithms.base import masked_extreme_pair

        rng = np.random.default_rng(41)
        mins = rng.uniform(-1.0, 1.0, size=(2, 10, 1))
        maxs = rng.uniform(-1.0, 1.0, size=(2, 10, 1))
        adjacency = rng.random((2, 10, 10)) < 0.4
        self._pin_kernel(monkeypatch, impl)
        masked_extreme_pair(adjacency, mins, maxs)
        assert count_mask_resolutions["calls"] == 1

    def test_amortized_midpoint_round_resolves_once(self, count_mask_resolutions):
        from repro.algorithms import AmortizedMidpointAlgorithm

        rng = np.random.default_rng(42)
        algorithm = AmortizedMidpointAlgorithm()
        state = algorithm.batch_initial(rng.uniform(0.0, 1.0, size=(4, 6, 1)))
        adjacency = np.broadcast_to(
            complete_graph(6).adjacency, (4, 6, 6)
        ).copy()
        for round_number in range(1, 4):
            algorithm.batch_transition(state, adjacency, round_number)
            assert count_mask_resolutions["calls"] == round_number
