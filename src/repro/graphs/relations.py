"""The α and β relations of Coulouma, Godard and Peters, and the α-diameter.

Section 7 of the paper imports the machinery of [Coulouma et al., TCS 2015]:

* ``G α_{N,K} H`` holds when the agents in ``R(K)`` (the roots of ``K``)
  cannot distinguish a round with graph ``G`` from a round with graph ``H``.
  Definition 15 states the condition as equality of the *union*
  ``In_{R(K)}(G) = In_{R(K)}(H)``; the proofs (Lemma 20 and Lemma 24) use the
  stronger per-root condition ``In_i(G) = In_i(H)`` for every root ``i`` of
  ``K``.  This module implements the per-root condition as
  :func:`alpha_related` (the form the lower bounds need) and also exposes the
  union form as :func:`alpha_related_union`.

* ``α*_N`` is the transitive closure of the union over ``K`` of ``α_{N,K}``.

* ``β_N`` is the coarsest equivalence relation included in ``α*_N`` that
  satisfies the closure property of Definition 16.  It is computed here by
  partition refinement: starting from the α*-classes, each class is repeatedly
  split into the connected components of the α relation *restricted to
  witnesses K inside the class*, until a fixpoint is reached.

* The **α-diameter** (Definition 22) of ``N`` is the smallest ``D >= 1`` such
  that any two graphs of ``N`` are connected by an α-chain of length at most
  ``D``; it drives the general lower bound 1/(D+1) of Theorem 5.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ModelError
from repro.graphs.digraph import CommunicationGraph
from repro.graphs.packed import (
    graph_in_neighborhood_ids,
    roots_stack,
    stack_adjacencies,
)
from repro.graphs.properties import roots
from repro.types import pack_bool_rows, packed_row_ids


def _check_model(graphs: Sequence[CommunicationGraph]) -> List[CommunicationGraph]:
    graphs = list(graphs)
    if not graphs:
        raise ModelError("a network model must contain at least one graph")
    n = graphs[0].n
    for g in graphs:
        if g.n != n:
            raise ModelError("all graphs of a network model must have the same number of agents")
    return graphs


def alpha_related(
    graph_g: CommunicationGraph,
    graph_h: CommunicationGraph,
    witness: CommunicationGraph,
) -> bool:
    """Per-root α relation: ``In_i(G) = In_i(H)`` for every root ``i`` of ``witness``.

    This is the condition actually used in the indistinguishability arguments
    (Lemma 20): if it holds, the roots of ``witness`` cannot tell a ``G``
    round from an ``H`` round, and running ``witness`` forever afterwards
    forces the two executions to the same limit.
    """
    graph_g._check_same_size(graph_h)
    graph_g._check_same_size(witness)
    witness_roots = roots(witness)
    if not witness_roots:
        return False
    return all(graph_g.in_neighbors(i) == graph_h.in_neighbors(i) for i in witness_roots)


def alpha_related_union(
    graph_g: CommunicationGraph,
    graph_h: CommunicationGraph,
    witness: CommunicationGraph,
) -> bool:
    """Union-form α relation of Definition 15: ``In_{R(K)}(G) = In_{R(K)}(H)``."""
    graph_g._check_same_size(graph_h)
    graph_g._check_same_size(witness)
    witness_roots = roots(witness)
    if not witness_roots:
        return False
    union_g: Set[int] = set()
    union_h: Set[int] = set()
    for i in witness_roots:
        union_g |= graph_g.in_neighbors(i)
        union_h |= graph_h.in_neighbors(i)
    return union_g == union_h


def alpha_witness_tensor(
    graphs: Sequence[CommunicationGraph],
    witnesses: Optional[Sequence[CommunicationGraph]] = None,
    use_union_form: bool = False,
) -> np.ndarray:
    """The per-witness α relation as a boolean ``(W, G, G)`` tensor.

    ``result[w, g, h]`` is true iff ``graphs[g] α_{N,K} graphs[h]`` with
    witness ``K = witnesses[w]`` (witnesses default to ``graphs``).  The
    whole tensor is computed without any per-pair Python work:

    * witness roots come from one batched reachability pass
      (:func:`repro.graphs.packed.roots_stack`);
    * per-agent in-neighborhoods are packed into bytes and deduplicated into
      integer ids, so ``In_i(G) = In_i(H)`` for all pairs and agents is one
      integer-comparison broadcast; and
    * the per-root quantification over each witness's root set is one
      boolean matmul against the root masks.

    Witnesses without roots relate nothing (their slice is all false),
    mirroring :func:`alpha_related`.  The β-refinement reuses sub-blocks of
    this tensor, which is why it is exposed rather than just the any-witness
    matrix.
    """
    graphs = _check_model(graphs)
    witnesses = list(witnesses) if witnesses is not None else graphs
    if not witnesses:
        return np.zeros((0, len(graphs), len(graphs)), dtype=bool)
    n = graphs[0].n
    for witness in witnesses:
        if witness.n != n:
            raise ModelError("witnesses must have the same number of agents as the model")
    witness_stack = stack_adjacencies(witnesses)
    root_mask = roots_stack(witness_stack)  # (W, n)
    valid = root_mask.any(axis=-1)  # (W,)

    if use_union_form:
        # union_in[g, w, s] iff some root i of witness w hears s in graph g:
        # one broadcast boolean matmul (W, n) x (G, n, n).
        in_neighborhoods = stack_adjacencies(graphs).swapaxes(-1, -2)  # (G, agent, sender)
        unions = np.matmul(root_mask[None, :, :], in_neighborhoods)  # (G, W, n)
        union_ids = packed_row_ids(pack_bool_rows(unions)).T  # (W, G)
        related = union_ids[:, :, None] == union_ids[:, None, :]  # (W, G, G)
    else:
        # Served from the graphs' bitset-resident adjacency caches: repeated
        # relation analyses over one model never re-pack the in-neighborhoods.
        ids = graph_in_neighborhood_ids(graphs)  # (G, n)
        differs = ids[:, None, :] != ids[None, :, :]  # (G, G, n)
        # any_viol[g, h, w]: some root of witness w distinguishes g from h.
        any_violation = differs @ root_mask.swapaxes(0, 1)  # (G, G, W)
        related = np.moveaxis(~any_violation, -1, 0)  # (W, G, G)
    return related & valid[:, None, None]


def alpha_relation_matrix(
    graphs: Sequence[CommunicationGraph],
    witnesses: Optional[Sequence[CommunicationGraph]] = None,
    use_union_form: bool = False,
) -> np.ndarray:
    """The one-step α relation as a boolean ``(G, G)`` matrix (any witness)."""
    tensor = alpha_witness_tensor(graphs, witnesses=witnesses, use_union_form=use_union_form)
    return tensor.any(axis=0)


def _unique_graphs(graphs: Sequence[CommunicationGraph]) -> List[CommunicationGraph]:
    """First occurrences of the graphs, matching the reference code's dict keying."""
    return list(dict.fromkeys(graphs))


def _components_from_matrix(
    graphs: Sequence[CommunicationGraph], matrix: np.ndarray
) -> List[FrozenSet[CommunicationGraph]]:
    """Connected components of a symmetric boolean relation matrix.

    The transitive closure by repeated boolean squaring makes component
    membership a row-equality question; components are emitted in order of
    their first member, matching the reference BFS.
    """
    return [
        frozenset(graphs[i] for i in component) for component in _index_components(matrix)
    ]


def alpha_step_graph(
    graphs: Sequence[CommunicationGraph],
    witnesses: Optional[Sequence[CommunicationGraph]] = None,
    use_union_form: bool = False,
) -> Dict[CommunicationGraph, Set[CommunicationGraph]]:
    """The one-step α relation on ``graphs`` as an adjacency mapping.

    ``result[G]`` contains every ``H`` such that ``G α_{N,K} H`` for some
    witness ``K`` (witnesses default to ``graphs`` themselves, i.e. the
    network model).  The relation is symmetric, and reflexive on every graph
    for which some witness exists.  It is computed through the vectorized
    :func:`alpha_relation_matrix`; :func:`_alpha_step_graph_reference` is the
    per-pair loop the tests check it against.
    """
    graphs = _check_model(graphs)
    witnesses = list(witnesses) if witnesses is not None else graphs
    adjacency: Dict[CommunicationGraph, Set[CommunicationGraph]] = {g: set() for g in graphs}
    matrix = alpha_relation_matrix(graphs, witnesses=witnesses, use_union_form=use_union_form)
    for idx_g, idx_h in zip(*np.nonzero(matrix)):
        adjacency[graphs[idx_g]].add(graphs[idx_h])
    return adjacency


def _alpha_step_graph_reference(
    graphs: Sequence[CommunicationGraph],
    witnesses: Optional[Sequence[CommunicationGraph]] = None,
    use_union_form: bool = False,
) -> Dict[CommunicationGraph, Set[CommunicationGraph]]:
    """Per-pair reference loop of :func:`alpha_step_graph`."""
    graphs = _check_model(graphs)
    witnesses = list(witnesses) if witnesses is not None else graphs
    adjacency: Dict[CommunicationGraph, Set[CommunicationGraph]] = {g: set() for g in graphs}
    related = alpha_related_union if use_union_form else alpha_related
    for idx_g, g in enumerate(graphs):
        for h in graphs[idx_g:]:
            if any(related(g, h, k) for k in witnesses):
                adjacency[g].add(h)
                adjacency[h].add(g)
    return adjacency


def alpha_star_related(
    graphs: Sequence[CommunicationGraph],
    graph_g: CommunicationGraph,
    graph_h: CommunicationGraph,
    use_union_form: bool = False,
) -> bool:
    """Whether ``G α*_N H`` (transitive closure of the one-step α relation)."""
    classes = alpha_classes(graphs, use_union_form=use_union_form)
    for cls in classes:
        if graph_g in cls and graph_h in cls:
            return True
    return False


def alpha_classes(
    graphs: Sequence[CommunicationGraph],
    use_union_form: bool = False,
) -> List[FrozenSet[CommunicationGraph]]:
    """The equivalence classes of ``α*_N`` (connected components of the α step graph).

    The whole one-step relation is computed as a boolean matrix (no per-pair
    Python set comparisons) and components are extracted by boolean
    closure; :func:`_alpha_classes_reference` is the per-pair BFS the tests
    check it against.
    """
    graphs = _check_model(graphs)
    unique = _unique_graphs(graphs)
    matrix = alpha_relation_matrix(unique, use_union_form=use_union_form)
    return _components_from_matrix(unique, matrix)


def _alpha_classes_reference(
    graphs: Sequence[CommunicationGraph],
    use_union_form: bool = False,
) -> List[FrozenSet[CommunicationGraph]]:
    """Per-pair BFS reference of :func:`alpha_classes`."""
    graphs = _check_model(graphs)
    adjacency = _alpha_step_graph_reference(graphs, use_union_form=use_union_form)
    return _connected_components(graphs, adjacency)


def beta_classes(
    graphs: Sequence[CommunicationGraph],
    use_union_form: bool = False,
) -> List[FrozenSet[CommunicationGraph]]:
    """The β_N-classes of Definition 16, via partition refinement.

    Starting from the α*-classes, each class ``Q`` is split into the connected
    components of the α relation restricted to witnesses ``K ∈ Q``; this is
    iterated until no class splits.  At the fixpoint every class satisfies the
    closure property (any two members are α-chain connected through members
    and witnesses of the same class), and since splits only happen when the
    closure property fails, the fixpoint is the coarsest such refinement.

    The per-witness α tensor is computed once and every refinement step just
    slices it, so no α relations are ever recomputed;
    :func:`_beta_classes_reference` is the per-pair loop the tests check it
    against.
    """
    graphs = _check_model(graphs)
    unique = _unique_graphs(graphs)
    tensor = alpha_witness_tensor(unique, use_union_form=use_union_form)
    matrix = tensor.any(axis=0)
    index_partition: List[np.ndarray] = [
        np.asarray(sorted(indices), dtype=int)
        for indices in _index_components(matrix)
    ]
    changed = True
    while changed:
        changed = False
        refined: List[np.ndarray] = []
        for class_indices in index_partition:
            sub = tensor[np.ix_(class_indices, class_indices, class_indices)].any(axis=0)
            components = _index_components(sub)
            if len(components) > 1:
                changed = True
            refined.extend(class_indices[np.asarray(sorted(c), dtype=int)] for c in components)
        index_partition = refined
    return [frozenset(unique[i] for i in indices) for indices in index_partition]


def _beta_classes_reference(
    graphs: Sequence[CommunicationGraph],
    use_union_form: bool = False,
) -> List[FrozenSet[CommunicationGraph]]:
    """Per-pair partition-refinement reference of :func:`beta_classes`."""
    partition: List[List[CommunicationGraph]] = [
        list(cls) for cls in _alpha_classes_reference(graphs, use_union_form=use_union_form)
    ]
    changed = True
    while changed:
        changed = False
        refined: List[List[CommunicationGraph]] = []
        for cls in partition:
            adjacency = _alpha_step_graph_reference(
                cls, witnesses=cls, use_union_form=use_union_form
            )
            components = _connected_components(cls, adjacency)
            if len(components) > 1:
                changed = True
            refined.extend([list(c) for c in components])
        partition = refined
    return [frozenset(cls) for cls in partition]


def _index_components(matrix: np.ndarray) -> List[List[int]]:
    """Connected components of a symmetric boolean matrix, as index lists."""
    count = matrix.shape[0]
    closure = matrix | np.eye(count, dtype=bool)
    while True:
        expanded = closure | (closure @ closure)
        if np.array_equal(expanded, closure):
            break
        closure = expanded
    components: List[List[int]] = []
    seen = np.zeros(count, dtype=bool)
    for index in range(count):
        if seen[index]:
            continue
        members = closure[index]
        seen |= members
        components.append(np.nonzero(members)[0].tolist())
    return components


def is_source_incompatible(graphs: Sequence[CommunicationGraph]) -> bool:
    """Definition 18: no agent is a root of *every* graph of the model."""
    graphs = _check_model(graphs)
    common = roots(graphs[0])
    for g in graphs[1:]:
        common = common & roots(g)
        if not common:
            return True
    return len(common) == 0


def alpha_diameter(
    graphs: Sequence[CommunicationGraph],
    use_union_form: bool = False,
) -> float:
    """The α-diameter ``D`` of a network model (Definition 22).

    ``D`` is the smallest integer such that any two graphs of the model are
    connected by a chain of at most ``D`` α-steps (each step witnessed by some
    graph of the model).  Returns ``float('inf')`` when the α step graph is
    disconnected.  Models with a single graph have diameter 1 when the graph
    is α-related to itself (which holds whenever the model has a rooted
    witness) — matching the paper's convention ``D >= 1``.

    A simultaneous frontier expansion on the relation matrix (one boolean
    matmul per distance level) replaces a per-source BFS;
    :func:`_alpha_diameter_reference` is the BFS the tests check it against.
    """
    graphs = _check_model(graphs)
    unique = _unique_graphs(graphs)
    matrix = alpha_relation_matrix(unique, use_union_form=use_union_form)
    count = len(unique)
    reached = np.eye(count, dtype=bool)
    frontier = reached.copy()
    diameter = 1  # Definition 22 requires D >= 1.
    level = 0
    while frontier.any():
        level += 1
        frontier = (frontier @ matrix) & ~reached
        if frontier.any():
            diameter = max(diameter, level)
            reached |= frontier
    if not reached.all():
        return float("inf")
    return float(diameter)


def _alpha_diameter_reference(
    graphs: Sequence[CommunicationGraph],
    use_union_form: bool = False,
) -> float:
    """Per-source BFS reference of :func:`alpha_diameter`."""
    graphs = _check_model(graphs)
    adjacency = _alpha_step_graph_reference(graphs, use_union_form=use_union_form)
    diameter = 1  # Definition 22 requires D >= 1.
    for source in graphs:
        distances = _bfs_distances(source, graphs, adjacency)
        for target in graphs:
            dist = distances.get(target)
            if dist is None:
                return float("inf")
            diameter = max(diameter, dist)
    return float(diameter)


def alpha_chain(
    graphs: Sequence[CommunicationGraph],
    graph_g: CommunicationGraph,
    graph_h: CommunicationGraph,
    use_union_form: bool = False,
) -> Optional[List[CommunicationGraph]]:
    """A shortest α-chain ``G = H_0, ..., H_q = H`` within the model, or None.

    The chain witnesses ``G α*_N H`` and its length (number of steps ``q``) is
    at most the α-diameter of the model.
    """
    graphs = _check_model(graphs)
    adjacency = alpha_step_graph(graphs, use_union_form=use_union_form)
    if graph_g == graph_h:
        return [graph_g]
    predecessors: Dict[CommunicationGraph, CommunicationGraph] = {}
    queue = deque([graph_g])
    seen = {graph_g}
    while queue:
        current = queue.popleft()
        for neighbor in adjacency.get(current, ()):  # pragma: no branch
            if neighbor in seen:
                continue
            seen.add(neighbor)
            predecessors[neighbor] = current
            if neighbor == graph_h:
                chain = [neighbor]
                while chain[-1] != graph_g:
                    chain.append(predecessors[chain[-1]])
                return list(reversed(chain))
            queue.append(neighbor)
    return None


# --------------------------------------------------------------------------- #
# Internal helpers
# --------------------------------------------------------------------------- #

def _connected_components(
    graphs: Sequence[CommunicationGraph],
    adjacency: Dict[CommunicationGraph, Set[CommunicationGraph]],
) -> List[FrozenSet[CommunicationGraph]]:
    remaining = list(graphs)
    seen: Set[CommunicationGraph] = set()
    components: List[FrozenSet[CommunicationGraph]] = []
    for start in remaining:
        if start in seen:
            continue
        component = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            current = queue.popleft()
            for neighbor in adjacency.get(current, ()):  # pragma: no branch
                if neighbor not in seen:
                    seen.add(neighbor)
                    component.add(neighbor)
                    queue.append(neighbor)
        components.append(frozenset(component))
    return components


def _bfs_distances(
    source: CommunicationGraph,
    graphs: Sequence[CommunicationGraph],
    adjacency: Dict[CommunicationGraph, Set[CommunicationGraph]],
) -> Dict[CommunicationGraph, int]:
    distances: Dict[CommunicationGraph, int] = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for neighbor in adjacency.get(current, ()):  # pragma: no branch
            if neighbor not in distances:
                distances[neighbor] = distances[current] + 1
                queue.append(neighbor)
    del graphs  # only needed for the signature symmetry with callers
    return distances
