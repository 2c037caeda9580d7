"""Multi-sensor observability staircase decomposition.

Transforms a jointly observable plant into block lower-triangular form: the
j-th diagonal block spans the part of the state space newly observable through
node j's measurements given the contributions of nodes 1..j-1, and each
nonempty diagonal pair (A_jj, C_jj) is observable on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .system_model import EPS, DecompositionError, LtiPlant, staircase_deflation


def block_offsets(block_dims):
    """Block boundaries (0, n_1, n_1 + n_2, ..., n) as a tuple of ints."""
    return tuple(accumulate((int(d) for d in block_dims), initial=0))


@dataclass(frozen=True)
class TransformedSystem:
    """Similarity transform T and the block lower-triangular pair it produces.

    a_bar = T^T A T, c_bar[i] = C_i T.  Column blocks of T are mutually
    orthonormal, so T is orthogonal and T^-1 = T^T.  From `of`, a_bar is
    exactly 0.0 above its diagonal blocks and c_bar[i] past block i, and
    ``residue`` is how far the computed products were from that form.
    `ProtocolKernel` relies on the zeros in c_bar: a system built directly
    for it must have them too.
    """

    t_matrix: np.ndarray
    a_bar: np.ndarray
    c_bar: tuple
    block_dims: tuple
    residue: float = 0.0

    @property
    def n(self):
        return self.a_bar.shape[0]

    @property
    def n_nodes(self):
        return len(self.block_dims)

    @cached_property
    def offsets(self):
        """Start index of each substate block; offsets[j] for 1-indexed j-1."""
        return block_offsets(self.block_dims)

    def block_slice(self, j):
        """Index slice of substate j (1-indexed) inside the z vector."""
        off = self.offsets
        return slice(off[j - 1], off[j])

    def a_block(self, j, q):
        """A_jq block of the transformed system matrix (1-indexed)."""
        return self.a_bar[self.block_slice(j), self.block_slice(q)]

    def c_block(self, j, q):
        """C_jq block: rows of node j's transformed sensor on substate q."""
        return self.c_bar[j - 1][:, self.block_slice(q)]

    @classmethod
    def of(cls, plant: LtiPlant, t, block_dims):
        """``plant`` through T = ``t``, whose column blocks are ``block_dims``,
        in staircase form: T^T A T with 0.0 above its diagonal blocks, and
        each C_i T with 0.0 past block i.  Every other entry is the product's.

        ``residue`` is ||entries set to 0.0||_F / ||[A; C_1; ...; C_N]||_F
        (1 where that norm is 0): rounding level for the plant's staircase,
        far above it for a T that mixes blocks.
        """
        n, n_nodes = len(t), len(block_dims)
        rows = block_offsets(len(c) for c in plant.sensors)
        # [T^T A T; C_1 T; ...; C_N T], each product on its own: one stacked
        # product rounds differently.  A row's owner is its block (rows of
        # T^T A T) or its node (rows of C_i T); its entries in the columns
        # of later blocks are dropped.
        stacked = np.empty((n + rows[-1], n))
        np.matmul(t.T @ plant.a_matrix, t, out=stacked[:n])
        for c, r0, r1 in zip(plant.sensors, rows, rows[1:]):
            np.matmul(c, t, out=stacked[n + r0:n + r1])
        owner = np.repeat(np.arange(2 * n_nodes) % n_nodes,
                          (*block_dims, *(len(c) for c in plant.sensors)))
        drop = owner[:, None] < owner[:n]
        residue = _relative_norm(stacked[drop], np.vstack((plant.a_matrix, *plant.sensors)))
        stacked[drop] = 0.0
        c_bar = tuple(stacked[n + r0:n + r1] for r0, r1 in zip(rows, rows[1:]))
        return cls(t, stacked[:n], c_bar, tuple(block_dims), residue)


def _relative_norm(part, whole):
    """||part|| / ||whole||, 1 for a zero ``whole``; both are scaled by
    max |whole| first, so that no square overflows."""
    scale = np.abs(whole).max()
    if scale == 0.0:
        return 1.0
    whole = whole.ravel() / scale
    with np.errstate(over="ignore"):    # a report's T whose products are huge: inf
        part = part / scale
        return float(np.sqrt(part @ part / (whole @ whole)))


def staircase_transform(plant: LtiPlant) -> TransformedSystem:
    """Build the staircase transform, deflating node by node in index order.

    V is an orthonormal basis of the subspace nodes 1..j-1 leave unobserved;
    it is A-invariant, so (V^T A V, C_j V) is the pair node j faces on it.
    Block j is V times that pair's observed basis, and V moves on to its
    unobserved one.  The blocks are mutually orthonormal, so T is orthogonal;
    invariance makes T^T A T block lower-triangular, and C_i T vanishes on
    blocks q > i because those lie inside ker(C_i).
    """
    n = plant.n
    a = plant.a_matrix
    v = np.eye(n)
    blocks = []
    rounding = EPS
    for sensor in plant.sensors:
        # Rows of C_j V that earlier nodes already see are rounding residue
        # of V; they are judged against ||C_j|| and V's rounding estimate,
        # whose Krylov condition numbers are taken only if a decision needs them.
        observed, unobserved, rounding, _ = staircase_deflation(
            v.T @ a @ v, sensor @ v, np.linalg.norm(sensor), rounding)
        blocks.append(v @ observed)
        v = v @ unobserved
    if v.shape[1]:
        raise DecompositionError(
            f"plant is not jointly observable: achieved total rank {n - v.shape[1]} of {n}")

    return TransformedSystem.of(plant, np.hstack(blocks), [b.shape[1] for b in blocks])


def to_transformed_coords(x, ts: TransformedSystem):
    """Map original coordinates to transformed ones: z = T^T x.

    ``x`` is one state or a stack of states, one per row.
    """
    return np.asarray(x, dtype=float) @ ts.t_matrix
