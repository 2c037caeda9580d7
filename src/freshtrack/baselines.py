"""Naive consensus observers used to reproduce the divergence phenomenon.

Both strategies push neighbor estimates through a convex combination and then
the plant dynamics.  Oracle nodes are clamped to the true state each round,
isolating the diffusion instability from estimation error at the source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WeightStrategy:
    """Consensus weight rule: ``uniform`` or ``tree_rooted`` (with a root)."""

    kind: str
    root: int | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "tree_rooted"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "tree_rooted" and self.root is None:
            raise ValueError("tree_rooted strategy requires a root")


def _bfs_levels(adj, root):
    """(H, N) BFS distance of every node from ``root`` in each round's graph.

    ``adj`` is the (H, N, N) adjacency tensor; unreachable nodes get inf.
    """
    horizon, n, _ = adj.shape
    dist = np.full((horizon, n), np.inf)
    frontier = np.zeros((horizon, n), dtype=bool)
    frontier[:, root - 1] = True
    for level in range(n):
        dist[frontier] = level
        frontier = (frontier[:, :, None] & adj).any(axis=1) & np.isinf(dist)
    return dist


def mixing_weights(adj, strategy: WeightStrategy):
    """(H, N, N) row-stochastic weights: row i of round k mixes node i+1's reads.

    Uniform averages a node's in-neighbors and itself.  Tree-rooted copies
    the node's BFS-tree parent: its smallest-id in-neighbor one level closer
    to the root.  The root and nodes the root cannot reach keep their own
    estimate.
    """
    n = adj.shape[1]
    eye = np.eye(n, dtype=bool)
    if strategy.kind == "uniform":
        pool = adj.transpose(0, 2, 1) | eye
        return pool / pool.sum(axis=2, keepdims=True)
    dist = _bfs_levels(adj, strategy.root)
    # isfinite matters: inf - 1 == inf would pair up unreachable nodes.
    is_parent = (adj & np.isfinite(dist)[:, :, None]
                 & (dist[:, :, None] == dist[:, None, :] - 1))
    parent = np.where(is_parent.any(axis=1), is_parent.argmax(axis=1), np.arange(n))
    return eye[parent].astype(float)


def baseline_round(estimates, weights, a_matrix, oracle, truth_k):
    """One consensus round: convex combination of neighbors, then the dynamics.

    ``estimates`` is N x n, ``weights`` the round's N x N row-stochastic
    matrix, and ``oracle`` an N bool mask of nodes clamped to ``truth_k``
    before mixing and again after the update.
    """
    a = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    truth_k = np.asarray(truth_k, dtype=float)
    current = np.where(oracle[:, None], truth_k, estimates)
    # A stacked matrix-vector product rounds each row as ``a @ x`` does, so a
    # node copying an oracle gets exactly the true next state; ``mix @ a.T``
    # would not.
    new = (a @ (weights @ current)[:, :, None])[:, :, 0]
    new[oracle] = a @ truth_k
    return new


def detect_divergence(error_norms, threshold):
    """First time-step where the max-node error norm crosses the threshold.

    ``error_norms`` is a (horizon+1, n_nodes) array.  Returns None if the
    threshold is never reached.
    """
    maxed = np.max(np.asarray(error_norms), axis=1)
    hits = np.nonzero(maxed >= threshold)[0]
    return int(hits[0]) if hits.size else None
