"""Discrete-time LTI plant, per-node sensing model, and ground-truth simulation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Raised when plant matrices have inconsistent dimensions or non-finite entries."""


def _as_matrix(m, cols=None):
    a = np.atleast_2d(np.asarray(m, dtype=float))
    if cols is not None and a.size == 0:
        a = a.reshape(0, cols)
    return a


@dataclass(frozen=True)
class LtiPlant:
    """An autonomous plant x[k+1] = A x[k] observed by N sensor nodes.

    Node i measures y_i[k] = C_i x[k]. A node without measurements carries an
    empty (0 x n) observation matrix; it is never dropped from the list, so
    node indexing stays 1..N throughout.
    """

    a_matrix: np.ndarray
    sensors: tuple
    x0: np.ndarray

    def __init__(self, a_matrix, sensors, x0):
        a = _as_matrix(a_matrix)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ConfigurationError(f"system matrix must be square, got shape {a.shape}")
        n = a.shape[0]
        x = np.asarray(x0, dtype=float).reshape(-1)
        if x.shape[0] != n:
            raise ConfigurationError(f"x0 has length {x.shape[0]}, expected {n}")
        for name, m in (("system matrix", a), ("x0", x)):
            if not np.all(np.isfinite(m)):
                raise ConfigurationError(f"{name} has NaN or inf entries")
        if len(sensors) < 1:
            raise ConfigurationError("at least one sensor node is required")
        cs = []
        for i, c in enumerate(sensors):
            cm = _as_matrix(c, cols=n)
            if cm.shape[1] != n:
                raise ConfigurationError(
                    f"sensor {i + 1} has {cm.shape[1]} columns, expected {n}")
            if not np.all(np.isfinite(cm)):
                raise ConfigurationError(f"sensor {i + 1} has NaN or inf entries")
            cm.flags.writeable = False
            cs.append(cm)
        a.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "sensors", tuple(cs))
        object.__setattr__(self, "x0", x)

    @property
    def n(self):
        return self.a_matrix.shape[0]

    @property
    def n_nodes(self):
        return len(self.sensors)

    def stacked_c(self):
        """Vertical stack of all observation matrices."""
        return np.vstack([c for c in self.sensors])


@dataclass(frozen=True)
class Trajectory:
    """Ground-truth states and noiseless measurements over a horizon."""

    states: np.ndarray          # (horizon+1, n)
    measurements: tuple         # per node: (horizon+1, r_i)

    def measurement(self, node, k):
        """Measurement of 1-indexed node at time-step k."""
        return self.measurements[node - 1][k]


def simulate_truth(plant: LtiPlant, horizon: int) -> Trajectory:
    """Roll the plant forward, returning states and measurements for k=0..horizon."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    n = plant.n
    states = np.empty((horizon + 1, n))
    states[0] = plant.x0
    for k in range(horizon):
        states[k + 1] = plant.a_matrix @ states[k]
    meas = tuple(states @ c.T for c in plant.sensors)
    return Trajectory(states=states, measurements=meas)


def observability_matrix(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Stack [C; CA; ...; CA^(n-1)] for the pair (A, C)."""
    n = a.shape[0]
    blocks = []
    block = c
    for _ in range(n):
        blocks.append(block)
        block = block @ a
    return np.vstack(blocks)


def default_rank_tol(n: int) -> float:
    # Scale-invariant threshold applied to singular values relative to the
    # largest one; robust for desk-scale n <= 12.
    return n * np.finfo(float).eps * 64


def numerical_rank(m: np.ndarray, rank_tol: float) -> int:
    if m.size == 0:
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rank_tol * sv[0]))


def is_jointly_observable(plant: LtiPlant, rank_tol: float | None = None) -> bool:
    """True iff (A, C) is observable for C the stack of every node's sensor."""
    if rank_tol is None:
        rank_tol = default_rank_tol(plant.n)
    obs = observability_matrix(plant.a_matrix, plant.stacked_c())
    return numerical_rank(obs, rank_tol) == plant.n
