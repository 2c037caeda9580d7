"""Time-varying directed graph sequences and connectivity certification.

Nodes are 1-indexed.  An edge (i, j) means node i can send to node j during
the round it is active.  A round's graph is an N x N bool adjacency whose
entry [i-1, j-1] is true for the edge (i, j), and a sequence over a horizon
is the (horizon, N, N) stack of them.  Self-loops are never stored: a node
always has access to its own state implicitly.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order, connected_components

RANDOM_EXTRA_EDGES = 2   # random edges added to each window of a random sequence


def edge_tensor(n_nodes, rounds):
    """(len(rounds), N, N) bool adjacency of per-round edge lists, in one scatter.

    Each round lists ``(i, j)`` pairs of 1-indexed node ids.  Self-loops are
    dropped; an edge outside 1..N, or an entry that is not a pair of integer
    node ids (``1.5`` and ``"1"`` included), raises `ValueError`.
    """
    try:
        counts = [len(edges) for edges in rounds]
        e = np.asarray(list(itertools.chain.from_iterable(rounds)))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"edges must be pairs of node ids: {exc}") from None
    e = e if len(e) else np.zeros((0, 2), dtype=int)
    if e.dtype.kind not in "iu" or e.ndim != 2 or e.shape[1] != 2:
        raise ValueError(f"edges must be pairs of node ids, not {e.dtype} of shape {e.shape}")
    k = np.repeat(np.arange(len(counts)), counts)
    keep = e[:, 0] != e[:, 1]
    k, e = k[keep], e[keep]
    bad = e[((e < 1) | (e > n_nodes)).any(axis=1)]
    if bad.size:
        raise ValueError(f"edge ({bad[0, 0]}, {bad[0, 1]}) outside node range 1..{n_nodes}")
    adj = np.zeros((len(counts), n_nodes, n_nodes), dtype=bool)
    adj[k, e[:, 0] - 1, e[:, 1] - 1] = True
    return adj


class GraphSequence:
    """Time-indexed schedule of digraphs with a claimed Assumption-window T."""

    def __init__(self, period_t: int):
        if period_t < 1:
            raise ValueError(f"period T must be >= 1, got {period_t}")
        self.period_t = int(period_t)

    def adjacency(self, horizon: int) -> np.ndarray:
        """(horizon, N, N) bool tensor: entry [k] is the graph of round k."""
        raise NotImplementedError


class PeriodicGraphSequence(GraphSequence):
    """Cycles through a (P, N, N) bool tensor of graphs, such as `edge_tensor`'s."""

    def __init__(self, cycle, period_t: int):
        super().__init__(period_t)
        if not len(cycle):
            raise ValueError("at least one graph is required")
        self.cycle = np.array(cycle, dtype=bool)      # a read-only copy
        self.cycle.flags.writeable = False

    def adjacency(self, horizon: int) -> np.ndarray:
        return self.cycle[np.arange(horizon) % len(self.cycle)]


class RandomJointlyConnectedSequence(GraphSequence):
    """Seeded generator whose every window [wT, (w+1)T) union is strongly connected.

    Per window, the edges of a random Hamiltonian cycle are scattered across
    the T slots, with a few extra random edges thrown in.  Window w is drawn
    from its own generator seeded with [seed, w], so a round's graph does not
    depend on the horizon asked for.
    """

    def __init__(self, n_nodes: int, period_t: int, seed: int):
        super().__init__(period_t)
        self.n_nodes = int(n_nodes)
        self.seed = int(seed)

    def adjacency(self, horizon: int) -> np.ndarray:
        n, t = self.n_nodes, self.period_t
        n_windows = -(-horizon // t)
        adj = np.zeros((n_windows * t, n, n), dtype=bool)
        for w in range(n_windows):
            rng = np.random.default_rng([self.seed, w])
            perm = rng.permutation(n)
            adj[w * t + rng.integers(t, size=n), perm, np.r_[perm[1:], perm[:1]]] = True
            for _ in range(RANDOM_EXTRA_EDGES):
                i, j = rng.integers(1, n + 1, size=2)
                if i != j:
                    adj[w * t + rng.integers(t), i - 1, j - 1] = True
        adj[:, range(n), range(n)] = False   # the one-node "cycle" is a self-loop
        return adj[:horizon]


def window_unions(adj: np.ndarray, t: int) -> np.ndarray:
    """Unions of the complete windows [wT, (w+1)T) of a (horizon, N, N) tensor."""
    horizon, n, _ = adj.shape
    return adj[:horizon // t * t].reshape(-1, t, n, n).any(axis=1)


def _block_diagonal(unions, hub_root=None):
    """Sparse graph with window w's union on nodes wN..wN+N-1.

    With ``hub_root``, one more node (the last) gets an edge to every
    window's copy of that 1-indexed node.
    """
    n_windows, n, _ = unions.shape
    w, i, j = np.nonzero(unions)
    rows, cols, size = w * n + i, w * n + j, n_windows * n
    if hub_root is not None:
        rows = np.append(rows, np.full(n_windows, size))
        cols = np.append(cols, np.arange(n_windows) * n + hub_root - 1)
        size += 1
    return sparse.csr_matrix((np.ones(rows.size, dtype=bool), (rows, cols)),
                             shape=(size, size))


def certify_joint_strong_connectivity(unions: np.ndarray) -> bool:
    """True iff every window union in the (W, N, N) tensor is strongly connected.

    One strongly-connected-components pass over the block-diagonal graph of
    all windows: a window passes when all its nodes share one label.
    """
    n_windows, n, _ = unions.shape
    _, labels = connected_components(_block_diagonal(unions), directed=True,
                                     connection="strong")
    labels = labels.reshape(n_windows, n)
    return bool(np.all(labels == labels[:, :1]))


def certify_jointly_rooted(unions: np.ndarray, root: int) -> bool:
    """True iff every window union has all nodes reachable from ``root``.

    One breadth-first search from a hub node that feeds every window's copy
    of ``root`` in the block-diagonal graph: it must reach every node.
    """
    graph = _block_diagonal(unions, hub_root=root)
    hub = graph.shape[0] - 1
    return breadth_first_order(graph, hub, return_predecessors=False).size == hub + 1


def generate_random_jointly_connected(n_nodes: int, t: int, seed: int) -> GraphSequence:
    """Seeded random sequence certified jointly strongly connected by construction."""
    return RandomJointlyConnectedSequence(n_nodes, t, seed)
