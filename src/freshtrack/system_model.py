"""Discrete-time LTI plant, per-node sensing model, and ground-truth simulation:
one (H+1, n) array of states, to which a node applies its sensor rows."""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

EPS = np.finfo(float).eps


class ConfigurationError(ValueError):
    """Raised when plant matrices have inconsistent dimensions or non-finite
    entries, or when the plant's state leaves float64's range."""


def _as_float_array(m, name):
    try:
        return np.asarray(m, dtype=float)
    except (TypeError, ValueError) as exc:    # ragged rows, text entries
        raise ConfigurationError(f"{name} is not a numeric array: {exc}") from None


def _as_matrix(m, name, cols=None):
    a = _as_float_array(m, name)
    if cols is not None and a.size == 0:
        return a.reshape(0, cols)
    return a if a.ndim >= 2 else a.reshape(1, -1)


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
        a = _as_matrix(a_matrix, "system matrix")
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ConfigurationError(f"system matrix must be square, got shape {a.shape}")
        n = a.shape[0]
        x = _as_float_array(x0, "x0").reshape(-1)
        if x.shape[0] != n:
            raise ConfigurationError(f"x0 has length {x.shape[0]}, expected {n}")
        for name, m in (("system matrix", a), ("x0", x)):
            if not np.all(np.isfinite(m)):
                raise ConfigurationError(f"{name} has NaN or inf entries")
        if len(sensors) < 1:
            raise ConfigurationError("at least one sensor node is required")
        cs = [_as_matrix(c, f"sensor {i + 1}", cols=n) for i, c in enumerate(sensors)]
        for i, cm in enumerate(cs):
            if cm.shape[1] != n:
                raise ConfigurationError(
                    f"sensor {i + 1} has {cm.shape[1]} columns, expected {n}")
        # One finiteness test over every sensor's rows, stacked; the plant's
        # sensors are read-only views of the stack.
        rows = list(itertools.accumulate((len(cm) for cm in cs), initial=0))
        stacked = np.concatenate(cs)
        finite = np.isfinite(stacked).all(axis=1)
        if not finite.all():
            first = bisect.bisect_right(rows, int(np.argmin(finite))) - 1
            raise ConfigurationError(f"sensor {first + 1} has NaN or inf entries")
        stacked.flags.writeable = False
        cs = [stacked[r0:r1] for r0, r1 in zip(rows, rows[1:])]
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


def simulate_truth(plant: LtiPlant, horizon: int) -> np.ndarray:
    """The (horizon+1, n) states x[k] = A^k x0 for k = 0..horizon.

    A node's outputs are ``states @ c.T`` for its sensor rows ``c``.  A state that
    leaves float64's range raises `ConfigurationError` naming the first k.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    states = np.empty((horizon + 1, plant.n))
    states[0] = plant.x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(horizon):
            states[k + 1] = plant.a_matrix @ states[k]
    bad = ~np.isfinite(states).all(axis=1)
    if bad.any():
        raise ConfigurationError(
            f"the plant's state overflows float64 at k = {int(np.argmax(bad))} "
            f"of horizon {horizon}")
    return states


# Rank decisions of the staircase.  A step's singular values, relative to
# ||C|| at the first step and to ||A|| after it, are weighed against the
# rounding the deflation has accumulated: the caller's share, n eps, and eps
# times the condition number of the unit-scaled Krylov blocks C, CA, ... it
# has followed.  Where a chain ends, the computed value is that rounding and
# grows with the chain: it stayed within 16 times the estimate on 3000
# hidden-staircase layouts (blocks of 1-4, n <= 64) and within 5 times on
# pairs of single-output blocks up to 32, with true directions 80 to 1e10
# times above.  Between the two factors below there is no clear gap.
# Values above SEEN_FLOOR always count: on long generic chains the estimate
# saturates while the values stay large (single-output n = 64: all > 1.4e-3).
# Most decisions need neither ||A|| nor the condition number itself:
# ||A||_F / sqrt(n) <= ||A|| <= ||A||_F, and the condition number is at
# least 1, so a value above SEEN_FLOOR ||A||_F is a direction and one below
# min(SEEN_FLOOR, RESIDUE_FACTOR rounding) ||A||_F / sqrt(n), with eps for
# each condition number, is residue.  Only a value these bounds leave open
# takes the exact inputs, and then the rule itself decides.
RESIDUE_FACTOR = 100.0
DIRECTION_FACTOR = 1e3
SEEN_FLOOR = 1e-3
# A Frobenius norm in this range squares its entries without over- or
# underflow, so up to _SLACK it bounds the computed 2-norm as the exact one.
_FRO_RANGE = (1e-140, 1e140)
_SLACK = 1e-6


class DecompositionError(ValueError):
    """Raised when the staircase cannot be built: a plant that is not jointly
    observable, or a rank decision without a clear gap."""


def _staircase_rank(rel, rounding):
    """Number of directions among descending relative singular values ``rel``."""
    direction = (rel > SEEN_FLOOR) | (rel > DIRECTION_FACTOR * rounding)
    residue = rel <= min(SEEN_FLOOR, RESIDUE_FACTOR * rounding)
    unclear = ~(direction | residue)
    if unclear.any():
        raise DecompositionError(
            f"staircase rank decision has no clear gap: singular value "
            f"{rel[unclear][0]:.2e} against rounding estimate {rounding:.2e}")
    return int(np.sum(direction))


class Rounding:
    """A rounding estimate whose Krylov condition numbers are taken on demand.

    The estimate is a sum, in order, of known terms and of terms owed: eps
    times a condition number, given by a function.  ``lo`` is the same sum
    with eps for each owed term, a lower bound since each condition number
    is at least 1; ``float()`` takes what is owed and gives the estimate.
    """

    __slots__ = ("lo", "_value", "_prev", "_term")

    def __init__(self, value, prev=None, term=None):
        self._value, self._prev, self._term = value, prev, term
        self.lo = value if prev is None else prev.lo + (EPS if callable(term) else term)

    @classmethod
    def of(cls, value):
        return value if isinstance(value, cls) else cls(value)

    def plus(self, term):
        """This estimate plus ``term``, a float or a function owing one."""
        return Rounding(None, self, term)

    def __float__(self):
        chain, node = [], self
        while node._value is None:
            chain.append(node)
            node = node._prev
        value = node._value
        for node in reversed(chain):
            value = value + (node._term() if callable(node._term) else node._term)
            node._value, node._prev, node._term = value, None, None
        return float(value)


class _KrylovBlocks:
    """The unit-scaled Krylov blocks C, CA, ... of a pair, built as needed."""

    def __init__(self, a, c):
        self.a, self.blocks, self.power = a, [], c

    def condition(self, steps, seen):
        """eps times the condition number of the first ``steps`` blocks on
        the ``seen`` directions they span."""
        while len(self.blocks) < steps:
            self.blocks.append(self.power / (np.linalg.norm(self.power) or 1.0))
            self.power = self.blocks[-1] @ self.a
        k = np.linalg.svd(np.vstack(self.blocks[:steps]), compute_uv=False)
        return EPS * k[0] / k[seen - 1]


class _Scale:
    """The reference of a step's singular values: ``value``, or ||a||_2 (1
    where that is 0).  Until ||a||_2 is needed, ``lo`` and ``hi`` bound it
    by ||a||_F."""

    def __init__(self, value=None, a=None):
        self.value, self.a = value, a
        fro = np.nan if a is None else np.linalg.norm(a)
        if _FRO_RANGE[0] <= fro <= _FRO_RANGE[1]:
            self.lo = fro / np.sqrt(a.shape[0]) * (1 - _SLACK)
            self.hi = fro * (1 + _SLACK)
        else:
            self.exact()

    def exact(self):
        if self.value is None:
            self.value = np.linalg.norm(self.a, 2) or 1.0
        self.lo = self.hi = self.value


def _step_rank(rows, scale, rounding):
    """Rank and right singular vectors of one step's rows, ``vt`` None where
    the rows' Frobenius norm shows them residue without an SVD.  Bounds
    decide what they can; the exact scale, then the exact rounding and
    `_staircase_rank`, decide the rest."""
    floor = min(SEEN_FLOOR, RESIDUE_FACTOR * rounding.lo)
    fro = np.linalg.norm(rows)
    if _FRO_RANGE[0] <= fro <= _FRO_RANGE[1] and fro * (1 + _SLACK) / scale.lo <= floor:
        return 0, None
    _, sv, vt = np.linalg.svd(rows)
    while True:
        direction, residue = sv / scale.hi > SEEN_FLOOR, sv / scale.lo <= floor
        if np.all(direction | residue):
            return int(np.sum(direction)), vt
        if scale.value is not None:
            return _staircase_rank(sv / scale.value, float(rounding)), vt
        scale.exact()


def staircase_deflation(a, c, c_scale, rounding):
    """Deflating staircase of (A, C); see `observability_staircase`.

    ``c_scale`` is the reference of the first step's singular values and
    ``rounding`` (a float or a `Rounding`) the error the caller has already
    accumulated in (A, C).  Returns the two bases, the `Rounding` after the
    deflation and the widths of the steps: ``observed`` is the steps' bases
    side by side.

    Each rank decision is that of `_staircase_rank` on the exact inputs, bit
    for bit, but takes them only where bounds leave it open (see
    ``RESIDUE_FACTOR``): ||A||_2 at most once, and each Krylov condition
    number only when a decision, or the caller, asks for the estimate.  A
    step whose rows are residue by their Frobenius norm takes no SVD.
    """
    n = a.shape[0]
    seen, rest = [np.zeros((n, 0))], np.eye(n)
    rows, scale = c, _Scale(c_scale or 1.0)
    krylov = _KrylovBlocks(a, c)
    rounding = inherited = Rounding.of(rounding).plus(n * EPS)
    while rest.shape[1] and rows.size:
        rank, vt = _step_rank(rows, scale, rounding)
        if rank == 0:
            break
        seen.append(rest @ vt[:rank].T)
        rest = rest @ vt[rank:].T
        rows = seen[-1].T @ a @ rest
        if len(seen) == 2:      # later steps are relative to ||A||
            scale = _Scale(a=a)
        rounding = inherited.plus(
            partial(krylov.condition, len(seen) - 1, n - rest.shape[1]))
    return np.hstack(seen), rest, rounding, tuple(s.shape[1] for s in seen[1:])


def observability_staircase(a: np.ndarray, c: np.ndarray):
    """Orthonormal bases ``(observed, unobserved)`` of R^n for the pair (A, C).

    Van Dooren's deflating staircase: an SVD of the rows still to be
    annihilated splits the remaining space into the directions they see and
    the rest, and ``seen^T A rest`` are the next rows.  It stops when the
    rows see nothing new; ``unobserved`` then spans the unobservable subspace
    ker [C; CA; ...], which is A-invariant.  Each rank decision weighs the
    singular values against the deflation's own rounding (see
    ``RESIDUE_FACTOR``) and raises `DecompositionError` when one is neither
    residue nor direction.
    """
    observed, unobserved, _, _ = staircase_deflation(a, c, np.linalg.norm(c), EPS)
    return observed, unobserved


def is_jointly_observable(plant: LtiPlant) -> bool:
    """True iff (A, C) is observable for C the stack of every node's sensor."""
    observed, _ = observability_staircase(plant.a_matrix, np.vstack(plant.sensors))
    return observed.shape[1] == plant.n
