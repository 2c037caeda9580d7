"""Time-varying directed graph sequences and connectivity certification.

Nodes are 1-indexed.  An edge (i, j) means node i can send to node j during
the round it is active.  Self-loops are never stored: a node always has access
to its own state implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Digraph:
    n_nodes: int
    edges: frozenset

    def __init__(self, n_nodes, edges):
        clean = frozenset((int(i), int(j)) for i, j in edges if int(i) != int(j))
        for i, j in clean:
            if not (1 <= i <= n_nodes and 1 <= j <= n_nodes):
                raise ValueError(f"edge ({i}, {j}) outside node range 1..{n_nodes}")
        object.__setattr__(self, "n_nodes", int(n_nodes))
        object.__setattr__(self, "edges", clean)

    def adjacency(self):
        """N x N bool matrix whose entry [i-1, j-1] is true for the edge (i, j)."""
        adj = np.zeros((self.n_nodes, self.n_nodes), dtype=bool)
        e = np.array(list(self.edges), dtype=int).reshape(-1, 2)
        adj[e[:, 0] - 1, e[:, 1] - 1] = True
        return adj

    def in_neighbors(self, node):
        """Nodes that can send to ``node`` this round (excluding itself)."""
        return sorted(i for i, j in self.edges if j == node)

    def out_neighbors(self, node):
        return sorted(j for i, j in self.edges if i == node)


class GraphSequence:
    """Time-indexed schedule of digraphs with a claimed Assumption-window T."""

    def __init__(self, period_t: int):
        if period_t < 1:
            raise ValueError(f"period T must be >= 1, got {period_t}")
        self.period_t = int(period_t)

    def graph(self, k: int) -> Digraph:
        raise NotImplementedError


class PeriodicGraphSequence(GraphSequence):
    """Cycles through an explicit list of digraphs."""

    def __init__(self, graphs, period_t: int):
        super().__init__(period_t)
        if not graphs:
            raise ValueError("at least one graph is required")
        self.graphs = list(graphs)

    def graph(self, k: int) -> Digraph:
        return self.graphs[k % len(self.graphs)]


class RandomJointlyConnectedSequence(GraphSequence):
    """Seeded generator whose every window [kT, (k+1)T) union is strongly connected.

    Per window, the edges of a random Hamiltonian cycle are scattered across
    the T slots, with a few extra random edges thrown in.  Windows are
    memoized, so random access is deterministic per seed.
    """

    def __init__(self, n_nodes: int, period_t: int, seed: int, extra_edges: int = 2):
        super().__init__(period_t)
        self.n_nodes = int(n_nodes)
        self.seed = int(seed)
        self.extra_edges = int(extra_edges)
        self._windows = {}

    def _window(self, w: int):
        if w in self._windows:
            return self._windows[w]
        rng = np.random.default_rng([self.seed, w])
        n, t = self.n_nodes, self.period_t
        perm = rng.permutation(n) + 1
        cycle = [(int(perm[i]), int(perm[(i + 1) % n])) for i in range(n)]
        slots = [[] for _ in range(t)]
        for edge in cycle:
            slots[int(rng.integers(t))].append(edge)
        for _ in range(self.extra_edges):
            i, j = rng.integers(1, n + 1, size=2)
            if i != j:
                slots[int(rng.integers(t))].append((int(i), int(j)))
        graphs = [Digraph(n, s) for s in slots]
        self._windows[w] = graphs
        return graphs

    def graph(self, k: int) -> Digraph:
        return self._window(k // self.period_t)[k % self.period_t]


def union_graph(seq: GraphSequence, k1: int, k2: int) -> Digraph:
    """Union of the edge sets over time-steps k1..k2 inclusive."""
    if not 0 <= k1 < k2:
        raise ValueError(f"need 0 <= k1 < k2, got ({k1}, {k2})")
    edges = set()
    n = None
    for k in range(k1, k2 + 1):
        g = seq.graph(k)
        n = g.n_nodes
        edges |= g.edges
    return Digraph(n, edges)


def _reachable_from(g: Digraph, root: int):
    out = {i: [] for i in range(1, g.n_nodes + 1)}
    for i, j in g.edges:
        out[i].append(j)
    seen = {root}
    stack = [root]
    while stack:
        for j in out[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every node reaches every other node."""
    if g.n_nodes == 1:
        return True
    if len(_reachable_from(g, 1)) != g.n_nodes:
        return False
    reverse = Digraph(g.n_nodes, [(j, i) for i, j in g.edges])
    return len(_reachable_from(reverse, 1)) == g.n_nodes


def is_rooted_at(g: Digraph, root: int) -> bool:
    """True iff all nodes are reachable from ``root``."""
    return len(_reachable_from(g, root)) == g.n_nodes


def certify_joint_strong_connectivity(seq: GraphSequence, t: int, horizon: int) -> bool:
    """Check every window [kT, (k+1)T) union up to the horizon."""
    if horizon % t != 0:
        raise ValueError(f"horizon {horizon} must be a multiple of T = {t}")
    for k in range(horizon // t):
        if t == 1:
            window = seq.graph(k)
        else:
            window = union_graph(seq, k * t, (k + 1) * t - 1)
        if not is_strongly_connected(window):
            return False
    return True


def certify_jointly_rooted(seq: GraphSequence, t: int, horizon: int, root: int) -> bool:
    """Check that every window union has all nodes reachable from ``root``."""
    if horizon % t != 0:
        raise ValueError(f"horizon {horizon} must be a multiple of T = {t}")
    for k in range(horizon // t):
        if t == 1:
            window = seq.graph(k)
        else:
            window = union_graph(seq, k * t, (k + 1) * t - 1)
        if not is_rooted_at(window, root):
            return False
    return True


def generate_random_jointly_connected(n_nodes: int, t: int, seed: int,
                                      horizon: int | None = None) -> GraphSequence:
    """Seeded random sequence certified jointly strongly connected by construction."""
    if t < 1:
        raise ValueError(f"T must be >= 1, got {t}")
    return RandomJointlyConnectedSequence(n_nodes, t, seed)
