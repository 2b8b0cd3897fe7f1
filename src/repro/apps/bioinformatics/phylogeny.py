"""Phylogenetic tree construction from a distance matrix.

The paper's use case ends with "hierarchical clustering of the distance
matrix between all species".  We implement the standard
*neighbour-joining* algorithm (Saitou & Nei 1987) — the classic
distance-based tree builder — plus Robinson-Foulds-style tree
comparison so reconstructed trees can be scored against the known
generating tree of the synthetic data set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Sequence, Set

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["neighbor_joining", "clade_sets", "robinson_foulds"]


def neighbor_joining(distances: np.ndarray, names: Sequence[str]) -> nx.Graph:
    """Build an unrooted binary tree from a symmetric distance matrix.

    Returns a NetworkX graph whose leaves are ``names`` and whose
    internal nodes are integers; edges carry a ``length`` attribute
    (clamped at zero, the usual NJ convention for negative branch
    estimates).
    """
    import networkx as nx

    dist = np.asarray(distances, dtype=np.float64)
    n = len(names)
    if dist.shape != (n, n):
        raise ValueError(f"distance matrix {dist.shape} does not match {n} names")
    if n < 2:
        raise ValueError("need at least two taxa")
    if not np.allclose(dist, dist.T, atol=1e-9):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.diag(dist) != 0):
        raise ValueError("distance matrix must have a zero diagonal")
    if len(set(names)) != n:
        raise ValueError("duplicate taxon names")

    tree = nx.Graph()
    tree.add_nodes_from(names)
    if n == 2:
        tree.add_edge(names[0], names[1], length=float(max(dist[0, 1], 0.0)))
        return tree

    active: List = list(names)
    d: Dict = {(a, b): float(dist[i, j]) for i, a in enumerate(names) for j, b in enumerate(names)}
    next_internal = 0

    while len(active) > 2:
        m = len(active)
        totals = {a: sum(d[(a, b)] for b in active if b is not a) for a in active}
        # Q-matrix minimisation.
        best = None
        best_q = np.inf
        for i in range(m):
            for j in range(i + 1, m):
                a, b = active[i], active[j]
                q = (m - 2) * d[(a, b)] - totals[a] - totals[b]
                if q < best_q - 1e-15:
                    best_q = q
                    best = (a, b)
        assert best is not None
        a, b = best
        new = next_internal
        next_internal += 1
        dab = d[(a, b)]
        # Branch lengths to the new internal node.
        la = 0.5 * dab + (totals[a] - totals[b]) / (2 * (m - 2))
        lb = dab - la
        tree.add_node(new)
        tree.add_edge(new, a, length=float(max(la, 0.0)))
        tree.add_edge(new, b, length=float(max(lb, 0.0)))
        # Distances from the new node to the remaining taxa.
        for c in active:
            if c is a or c is b:
                continue
            d[(new, c)] = d[(c, new)] = 0.5 * (d[(a, c)] + d[(b, c)] - dab)
        d[(new, new)] = 0.0
        active = [c for c in active if c is not a and c is not b] + [new]

    a, b = active
    tree.add_edge(a, b, length=float(max(d[(a, b)], 0.0)))
    return tree


def clade_sets(tree: nx.Graph) -> Set[FrozenSet[str]]:
    """Non-trivial leaf bipartitions induced by the tree's edges.

    Leaves are the string-named nodes.  Each edge splits the leaf set in
    two; the smaller side identifies the bipartition.  Trivial splits
    (single leaf / all-but-one) are omitted, as in Robinson-Foulds.
    """
    import networkx as nx

    leaves = {v for v in tree.nodes if isinstance(v, str)}
    if len(leaves) < 4:
        return set()
    out: Set[FrozenSet[str]] = set()
    for u, v in tree.edges:
        work = tree.copy()
        work.remove_edge(u, v)
        side = {x for x in nx.node_connected_component(work, u) if isinstance(x, str)}
        if 1 < len(side) < len(leaves) - 1:
            smaller = side if len(side) * 2 <= len(leaves) else leaves - side
            out.add(frozenset(smaller))
    return out


def robinson_foulds(tree_a: nx.Graph, tree_b: nx.Graph) -> int:
    """Robinson-Foulds distance: symmetric difference of clade sets.

    Zero means the two trees have identical (unrooted) topology over
    their shared leaves.
    """
    leaves_a = {v for v in tree_a.nodes if isinstance(v, str)}
    leaves_b = {v for v in tree_b.nodes if isinstance(v, str)}
    if leaves_a != leaves_b:
        raise ValueError("trees are over different leaf sets")
    return len(clade_sets(tree_a) ^ clade_sets(tree_b))
