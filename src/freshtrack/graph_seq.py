"""Time-varying directed graph sequences and connectivity certification.

Nodes are 1-indexed.  An edge (i, j) means node i can send to node j during
the round it is active; self-loops are never stored (a node always has its
own state).  A round's graph is an N x N bool adjacency, true at [i-1, j-1]
for the edge (i, j).  A sequence's `adjacency(horizon)` stacks its rounds and
depends only on the sequence's parameters, so a re-check regenerates it.
Reachability over a stack of graphs is one breadth-first search over all of
them at once (`hops`), in numpy alone.
"""

from __future__ import annotations

import itertools

import numpy as np

RANDOM_EXTRA_EDGES = 2   # random edges added to each window of a random sequence


def edge_tensor(n_nodes, rounds):
    """(len(rounds), N, N) bool adjacency of per-round edge lists, in one scatter.

    Each round lists ``(i, j)`` pairs of 1-indexed node ids.  Self-loops are
    dropped; an edge outside 1..N, or an entry that is not a pair of integer
    node ids (``1.5``, ``"1"`` and ``True`` included), raises `ValueError`.
    """
    try:
        counts = [len(edges) for edges in rounds]
        pairs = list(itertools.chain.from_iterable(rounds))
        # np.asarray would read True as 1 among ints: test the types first.
        if bool in set(map(type, itertools.chain.from_iterable(pairs))):
            raise ValueError("true and false are not node ids")
        e = np.asarray(pairs)
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
    the T slots, with a few extra random edges (no self-loops) thrown in.
    Window w reads row w of one ``default_rng(seed).random((W, 2N + 3E))``
    draw, filled row by row: a round's graph does not depend on the horizon.
    """

    def __init__(self, n_nodes: int, period_t: int, seed: int):
        super().__init__(period_t)
        self.n_nodes = int(n_nodes)
        self.seed = int(seed)

    def adjacency(self, horizon: int) -> np.ndarray:
        n, t, e = self.n_nodes, self.period_t, RANDOM_EXTRA_EDGES
        n_windows = -(-horizon // t)
        u = np.random.default_rng(self.seed).random((n_windows, 2 * n + 3 * e))
        order = np.argsort(u[:, :n], axis=1)
        rounds = np.arange(n_windows)[:, None] * t + (u[:, n:2 * n + e] * t).astype(int)
        ends = (u[:, 2 * n + e:] * n).astype(int)
        adj = np.zeros((n_windows * t, n, n), dtype=bool)
        adj[rounds[:, :n], order, np.roll(order, -1, axis=1)] = True
        adj[rounds[:, n:], ends[:, :e], ends[:, e:]] = True
        adj[:, range(n), range(n)] = False   # the one-node cycle and extra self-loops
        return adj[:horizon]


generate_random_jointly_connected = RandomJointlyConnectedSequence


def window_unions(adj: np.ndarray, t: int) -> np.ndarray:
    """Unions of the complete windows [wT, (w+1)T) of a (horizon, N, N) tensor."""
    horizon, n, _ = adj.shape
    return adj[:horizon // t * t].reshape(-1, t, n, n).any(axis=1)


def hops(graphs: np.ndarray, start: int, reverse: bool = False) -> np.ndarray:
    """(W, N) hop counts from 1-indexed node ``start`` in each graph of a
    (W, N, N) bool stack, -1 where a node is unreachable; with ``reverse``,
    hop counts to ``start``.

    One level-synchronous breadth-first search over all graphs at once.
    Node i of graph w is w N + i.  The edges come from one `np.flatnonzero`,
    sorted by tail, so each level expands only its frontier's edges.
    """
    n_graphs, n, _ = graphs.shape
    if not 1 <= start <= n:
        raise ValueError(f"start node {start} outside node range 1..{n}")
    tail, head = divmod(np.flatnonzero(graphs), n)
    head += tail - tail % n
    if reverse:
        order = np.argsort(head)
        tail, head = head[order], tail[order]
    degree = np.bincount(tail, minlength=n_graphs * n)
    first = np.cumsum(degree) - degree
    dist = np.full(n_graphs * n, -1)
    stamp = np.empty_like(dist)
    frontier = np.arange(n_graphs) * n + start - 1
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        count = degree[frontier]
        ends = np.cumsum(count)
        reached = head[np.arange(ends[-1]) + np.repeat(first[frontier] - ends + count, count)]
        reached = reached[dist[reached] < 0]
        dist[reached] = level
        # One copy of each node: the last write of its position wins.
        slot = np.arange(reached.size)
        stamp[reached] = slot
        frontier = reached[stamp[reached] == slot]
    return dist.reshape(n_graphs, n)


def certify_joint_strong_connectivity(unions: np.ndarray) -> bool:
    """True iff every window union in the (W, N, N) tensor is strongly connected:
    node 1 reaches every node and every node reaches node 1."""
    return bool((hops(unions, 1) >= 0).all() and (hops(unions, 1, reverse=True) >= 0).all())


def certify_jointly_rooted(unions: np.ndarray, root: int) -> bool:
    """True iff every window union has all nodes reachable from ``root``."""
    return bool((hops(unions, root) >= 0).all())


def connectivity_warnings(adj: np.ndarray, t: int, sources) -> list:
    """[] when every complete T-window union of the (H, N, N) tensor is
    strongly connected; else ["rooted_mode"] when each of the 1-indexed
    ``sources`` reaches every node in each union, or ["connectivity_uncertified"].
    A horizon shorter than one window certifies nothing."""
    unions = window_unions(adj, t)
    if not len(unions):
        return ["connectivity_uncertified"]
    if certify_joint_strong_connectivity(unions):
        return []
    rooted = all(certify_jointly_rooted(unions, j) for j in sources)
    return ["rooted_mode" if rooted else "connectivity_uncertified"]
