"""Naive consensus observers used to reproduce the divergence phenomenon.

Both strategies push neighbor estimates through a convex combination and then
the plant dynamics.  Oracle nodes are clamped to the true state each round,
isolating the diffusion instability from estimation error at the source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_seq import hops


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
    # Hop distance from the root in each round's graph, -1 if unreachable.
    dist = hops(adj, strategy.root)
    # dist >= 0 matters: an unreachable node (-1) would parent the root (0).
    is_parent = (adj & (dist >= 0)[:, :, None]
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

