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

from .system_model import (
    LtiPlant,
    default_rank_tol,
    numerical_rank,
    observability_matrix,
)


class DecompositionError(ValueError):
    """Raised when the plant is not jointly observable."""


def block_offsets(block_dims):
    """Block boundaries (0, n_1, n_1 + n_2, ..., n) as a tuple of ints."""
    return tuple(accumulate((int(d) for d in block_dims), initial=0))


@dataclass(frozen=True)
class TransformedSystem:
    """Similarity transform T and the block lower-triangular pair it produces.

    a_bar = T^-1 A T, c_bar[i] = C_i T.  Column blocks of T are mutually
    orthonormal, so T is orthogonal and T^-1 = T^T.
    """

    t_matrix: np.ndarray
    a_bar: np.ndarray
    c_bar: tuple
    block_dims: tuple
    warnings: tuple = ()

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

    def to_jsonable(self):
        return {
            "t_matrix": self.t_matrix.tolist(),
            "a_bar": self.a_bar.tolist(),
            "c_bar": [c.tolist() for c in self.c_bar],
            "block_dims": list(self.block_dims),
            "warnings": list(self.warnings),
        }


def _nullspace(m: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal basis of the null space of m (columns)."""
    n = m.shape[1]
    if m.size == 0:
        return np.eye(n)
    _, sv, vt = np.linalg.svd(m)
    if sv.size == 0 or sv[0] == 0.0:
        return np.eye(n)
    rank = int(np.sum(sv > rank_tol * sv[0]))
    return vt[rank:].T


def staircase_transform(plant: LtiPlant, rank_tol: float | None = None) -> TransformedSystem:
    """Build the staircase transform, iterating over nodes in index order.

    Let U_j be the unobservable subspace of (A, [C_1; ...; C_j]).  These nest,
    U_0 = R^n down to U_N = {0} under joint observability, and each is
    A-invariant.  Block j is an orthonormal basis of the part of U_{j-1}
    orthogonal to U_j, so span(blocks j..N) = U_{j-1}; invariance makes the
    transformed system block lower-triangular and C_i z-blocks vanish for
    q > i because U_i lies inside ker(C_i).
    """
    n = plant.n
    if rank_tol is None:
        rank_tol = default_rank_tol(n)
    a = plant.a_matrix

    unobs = [np.eye(n)]
    stacked = []
    for c in plant.sensors:
        stacked.append(c)
        obs = observability_matrix(a, np.vstack(stacked))
        unobs.append(_nullspace(obs, rank_tol))

    achieved = n - unobs[-1].shape[1]
    if achieved != n:
        raise DecompositionError(
            f"plant is not jointly observable: achieved total rank {achieved} of {n}")

    blocks = []
    dims = []
    for j in range(1, plant.n_nodes + 1):
        prev, cur = unobs[j - 1], unobs[j]
        nj = prev.shape[1] - cur.shape[1]
        dims.append(nj)
        if nj == 0:
            continue
        # Component of U_{j-1} orthogonal to U_j, orthonormalized via SVD.
        proj = prev - cur @ (cur.T @ prev)
        u, sv, _ = np.linalg.svd(proj, full_matrices=False)
        blocks.append(u[:, :nj])

    t = np.hstack(blocks) if blocks else np.eye(n)
    warnings = []
    cond = np.linalg.cond(t)
    if cond > 1e8:
        warnings.append(f"ill-conditioned transform: cond(T) = {cond:.3e}")

    t_inv = np.linalg.inv(t)
    a_bar = t_inv @ a @ t
    c_bar = tuple(c @ t for c in plant.sensors)
    return TransformedSystem(
        t_matrix=t,
        a_bar=a_bar,
        c_bar=c_bar,
        block_dims=tuple(dims),
        warnings=tuple(warnings),
    )


def to_transformed_coords(x, ts: TransformedSystem):
    """Map original coordinates to transformed ones: z = T^-1 x."""
    return np.linalg.solve(ts.t_matrix, np.asarray(x, dtype=float))


def from_transformed_coords(z, ts: TransformedSystem):
    """Map transformed coordinates back: x = T z."""
    return ts.t_matrix @ np.asarray(z, dtype=float)


def block_pair_observable(ts: TransformedSystem, j: int, rank_tol: float | None = None) -> bool:
    """Check observability of the diagonal pair (A_jj, C_jj), 1-indexed."""
    nj = ts.block_dims[j - 1]
    if nj == 0:
        return True
    if rank_tol is None:
        rank_tol = default_rank_tol(nj)
    obs = observability_matrix(ts.a_block(j, j), ts.c_block(j, j))
    return numerical_rank(obs, rank_tol) == nj
