"""Output-injection gain synthesis and convergence-envelope constants.

Spectral mode gives block j an envelope radius rho_j and places its
closed-loop eigenvalues evenly on the circle of radius 0.75 * rho_j; a
discrete Lyapunov certificate turns that margin into the envelope constant
alpha_j.  Deadbeat mode makes every closed-loop block nilpotent so the
observer converges in finitely many steps: an orthogonal back-substitution
over the steps of the block's deflating observability staircase (Van Dooren,
"Deadbeat control: a special inverse eigenvalue problem", BIT 24, 1984)
gives a nilpotency index equal to the number of steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_sylvester

from .decomposition import TransformedSystem, block_offsets
from .system_model import EPS, observability_staircase, staircase_deflation

DEADBEAT = "deadbeat"

_PLACEMENT_RETRIES = 8


class GainDesignError(ValueError):
    """Raised when a gain cannot be synthesized for a block pair."""


@dataclass(frozen=True)
class GainSet:
    """Per-block output-injection gains plus the targeted spectral radii.

    ``target_radii`` holds each block's envelope radius rho_j in (0, 1), or
    the string ``"deadbeat"`` for nilpotent designs; a spectral block's closed
    loop sits at 0.75 * rho_j.  Blocks with dimension zero carry an empty gain.
    """

    gains: tuple
    target_radii: tuple

    @property
    def mode(self):
        return DEADBEAT if DEADBEAT in self.target_radii else "spectral"

    def gain(self, j):
        """Gain L_j for 1-indexed block j."""
        return self.gains[j - 1]


@dataclass(frozen=True)
class BoundConstants:
    """Constants of the per-substate exponential error envelopes.

    For each block j: ||(A_jj - L_j C_jj)^k|| <= alpha[j] * rho_j^k, with
    rho_j the gains' ``target_radii[j]``, and ||A_jj^k|| <= beta[j] *
    gamma[j]^k.  ``c`` and ``c_bar`` are the envelope amplitudes built
    recursively from coupling norms g and h.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    g: np.ndarray
    h: np.ndarray
    c: np.ndarray
    c_bar: np.ndarray


def choose_radii(rho: float, n_blocks: int):
    """Strictly increasing per-block radii inside (rho/2, rho)."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    return [rho * (0.5 + j / (2.0 * (n_blocks + 1))) for j in range(1, n_blocks + 1)]


class EnvelopeSchedule(NamedTuple):
    """Times of the envelope proof, in rounds; arrays run over substates j."""

    t_bar: int                  # (N-1)T: every index is finite by then
    reference: np.ndarray       # max(0, 2j-3) t_bar: c_j reads the source's error
    start: np.ndarray           # (2j-1) t_bar: substate j's envelope holds on
    total_start: int            # (2N-1) t_bar: the total envelope holds on


def envelope_schedule(n_nodes: int, period_t: int | None = None, t_bar: int | None = None):
    """The `EnvelopeSchedule` of N nodes, with t_bar = (N-1)T unless given."""
    if t_bar is None:
        t_bar = (n_nodes - 1) * period_t
    j = np.arange(1, n_nodes + 1)
    return EnvelopeSchedule(t_bar, np.maximum(0, 2 * j - 3) * t_bar, (2 * j - 1) * t_bar,
                            (2 * n_nodes - 1) * t_bar)


def _rotation_target(r: float, n: int):
    """Real n x n matrix with eigenvalues r * exp(2 pi i m / n), m = 0..n-1.

    Conjugate pairs sit in 2 x 2 rotation blocks; +r (and -r for even n) on
    the diagonal.  Well-spread targets keep the eigenvectors well conditioned.
    """
    d = np.zeros((n, n))
    d[0, 0] = r
    if n % 2 == 0:
        d[-1, -1] = -r
    for m in range(1, (n + 1) // 2):
        cos, sin = r * np.cos(2 * np.pi * m / n), r * np.sin(2 * np.pi * m / n)
        d[2 * m - 1:2 * m + 1, 2 * m - 1:2 * m + 1] = [[cos, -sin], [sin, cos]]
    return d


def _check_observable(a, c):
    observed, _ = observability_staircase(a, c)
    if observed.shape[1] != a.shape[0]:
        raise GainDesignError("block pair is not observable; cannot place poles")


def place_spectral(a_jj, c_jj, rho_j: float, seed: int = 0):
    """Gain L with spectral radius of A - L C equal to 0.75 * rho_j.

    Eigenstructure assignment on the dual pair: solve the Sylvester equation
    A^T X - X D = C^T G for a seeded random G and the rotation target D, then
    L = (G X^-1)^T.  Returns the first gain that is finite with closed-loop
    spectral radius below rho_j.
    """
    a = np.atleast_2d(np.asarray(a_jj, dtype=float))
    c = np.atleast_2d(np.asarray(c_jj, dtype=float))
    _check_observable(a, c)
    n, r = a.shape[0], c.shape[0]
    d = _rotation_target(0.75 * rho_j, n)
    rng = np.random.default_rng(seed)
    for _ in range(_PLACEMENT_RETRIES):
        g = rng.standard_normal((r, n))
        x = solve_sylvester(a.T, -d, c.T @ g)
        try:
            l = np.linalg.solve(x.T, g.T)
        except np.linalg.LinAlgError:
            continue
        if (np.all(np.isfinite(l))
                and np.max(np.abs(np.linalg.eigvals(a - l @ c))) < rho_j):
            return l
    raise GainDesignError(
        f"spectral placement failed after {_PLACEMENT_RETRIES} retries")


def place_deadbeat(a_jj, c_jj):
    """Gain L making A - L C nilpotent, by back-substitution on the staircase.

    With S the first staircase step's basis (what C sees) and R the rest,
    L = A (S + R K) (C S)^+ for K the deadbeat gain of the trailing pair
    (R^T A R, S^T A R).  Then A - L C = A R (R^T - K S^T), whose powers
    reduce to those of the trailing closed loop R^T A R - K S^T A R.
    Unrolled from the last step to the first, A - L C is similar to a block
    strictly upper-triangular matrix: nilpotent, with index the number of
    steps.  No matrix powers, any number of outputs.
    """
    a = np.atleast_2d(np.asarray(a_jj, dtype=float))
    c = np.atleast_2d(np.asarray(c_jj, dtype=float))
    observed, unobserved, _, widths = staircase_deflation(a, c, np.linalg.norm(c), EPS)
    if unobserved.shape[1]:
        raise GainDesignError("block pair is not observable; cannot place poles")
    # In the staircase basis Q, the pair that starts at step k is the trailing
    # part of Q^T A Q from step k on, seen through C Q (k = 0) or through the
    # block above step k, which is zero beyond its columns.  ``lift`` holds
    # Q^T R K for the pair after step k, zero outside the steps it spans.
    n = a.shape[0]
    a_q = observed.T @ a @ observed
    off = block_offsets(widths)
    lift = np.zeros((n, widths[-1]))
    for k in reversed(range(len(widths))):
        step = slice(off[k], off[k + 1])
        seen_by = c @ observed[:, step] if k == 0 else a_q[off[k - 1]:off[k], step]
        # Rows of A (S + R K) on the steps from k on.
        image = a_q[off[k]:, step] + a_q[off[k]:] @ lift
        lift = np.zeros((n, seen_by.shape[0]))
        lift[off[k]:] = image @ np.linalg.pinv(seen_by)
    gain = observed @ lift
    # Rounding in a long or weakly observable chain can still leave A - L C
    # far from nilpotent.  Demand the finite-time check's tolerance for a unit
    # initial error.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.linalg.norm(np.linalg.matrix_power(a - gain @ c, n))
    if not residual <= 1e-6:
        raise GainDesignError(f"deadbeat gain is not nilpotent: ||(A - L C)^n|| = {residual:.2e}")
    return gain


def design_gains(ts: TransformedSystem, rho: float | None = None,
                 deadbeat: bool = False, seed: int = 0) -> GainSet:
    """Synthesize gains for every nonempty block of a transformed system."""
    n_blocks = ts.n_nodes
    gains = []
    radii = []
    if deadbeat:
        radii = [DEADBEAT] * n_blocks
    else:
        if rho is None:
            raise ValueError("rho is required for spectral gain design")
        radii = choose_radii(rho, n_blocks)
    for j in range(1, n_blocks + 1):
        nj = ts.block_dims[j - 1]
        rj = ts.c_bar[j - 1].shape[0]
        if nj == 0:
            gains.append(np.zeros((0, rj)))
            continue
        a_jj = ts.a_block(j, j)
        c_jj = ts.c_block(j, j)
        if deadbeat:
            gains.append(place_deadbeat(a_jj, c_jj))
        else:
            gains.append(place_spectral(a_jj, c_jj, radii[j - 1], seed=seed + j))
    return GainSet(gains=tuple(gains), target_radii=tuple(radii))


def closed_loop_block(ts: TransformedSystem, gains: GainSet, j: int):
    """A_jj - L_j C_jj for 1-indexed block j."""
    return ts.a_block(j, j) - gains.gain(j) @ ts.c_block(j, j)


def _lyapunov_alpha(m):
    """sqrt(cond(P)) for P = sum_k (m^k)^T m^k, which solves m^T P m - P = -I.

    Bounds ||m^k|| for every k.  Summed term by term, P stays positive
    definite where a Schur-based solve loses it (cond(P) ~ 1e12 on long
    single-output blocks).  The partial sum P_K is a certificate of its own
    once ||m^K|| <= 1, since m^T P_K m = P_K - I + (m^K)^T m^K; stopping at
    ||m^K||_F^2 < 1e-8 keeps P - P_K below 1e-8 ||P||.  P >= I, and its
    smallest eigenvalue is taken net of eigvalsh's rounding.
    """
    p = np.zeros_like(m)
    power = np.eye(len(m))
    for _ in range(10_000):
        if np.vdot(power, power) < 1e-8:
            break
        p += power.T @ power
        power = m @ power
    else:
        raise GainDesignError("closed-loop block does not contract at its envelope radius")
    eig = np.linalg.eigvalsh(p)
    return np.sqrt(eig[-1] / max(1.0, eig[0] - len(m) * np.finfo(float).eps * eig[-1]))


# Powers that under- or overflow leave a constant not finite: a coded, failed envelope.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def compute_bound_constants(ts: TransformedSystem, gains: GainSet,
                            e0_source_norms, t_bar: int) -> BoundConstants:
    """Envelope constants for spectral-mode gains.

    ``e0_source_norms[j-1]`` is the measured norm of the source node's own
    substate-j error at the block's `envelope_schedule` reference time.  One
    pass over the nonempty blocks builds c_j and c_bar_j from the blocks
    before j; an empty block keeps alpha = beta = gamma = 1 and zeros.

    alpha[j] is sqrt(cond(P)) for the P solving (M/rho_j)^T P (M/rho_j) - P
    = -I with M the closed-loop block: ||M^k|| <= alpha[j] * rho_j^k for any
    M of spectral radius below rho_j, diagonalisable or not.
    """
    if gains.mode == DEADBEAT:
        raise ValueError("bound constants are defined for spectral-mode gains")
    n_blocks = ts.n_nodes
    radii = np.asarray(gains.target_radii, dtype=float)
    ref_times = envelope_schedule(n_blocks, t_bar=t_bar).reference
    k_cap = 4 * ts.n + 4 * t_bar

    alpha, beta, gamma = np.ones(n_blocks), np.ones(n_blocks), np.ones(n_blocks)
    g, h = np.zeros((n_blocks, n_blocks)), np.zeros((n_blocks, n_blocks))
    c, c_bar = np.zeros(n_blocks), np.zeros(n_blocks)
    done = []       # the nonempty blocks before j, 0-indexed as j is here
    for j in [j for j, nj in enumerate(ts.block_dims) if nj]:
        nj, rho_j = ts.block_dims[j], radii[j]
        alpha[j] = _lyapunov_alpha(closed_loop_block(ts, gains, j + 1) / rho_j)
        a_jj = ts.a_block(j + 1, j + 1)
        gamma[j] = max(1.0, np.max(np.abs(np.linalg.eigvals(a_jj)))) * 1.01
        powers = np.empty((k_cap + 1, nj, nj))
        powers[0] = np.eye(nj)
        for k in range(k_cap):
            powers[k + 1] = a_jj @ powers[k]
        beta[j] = max(norm / gamma[j] ** k for k, norm
                      in enumerate(np.linalg.norm(powers, 2, axis=(1, 2))))
        for q in done:
            a_jq = ts.a_block(j + 1, q + 1)
            g[j, q] = np.linalg.norm(a_jq - gains.gain(j + 1) @ ts.c_block(j + 1, q + 1), 2)
            h[j, q] = np.linalg.norm(a_jq, 2)

        ref = ref_times[j]
        coupling = sum(g[j, q] * c_bar[q] / (rho_j - radii[q]) * radii[q] ** ref for q in done)
        c[j] = alpha[j] / rho_j ** ref * (float(e0_source_norms[j]) + coupling)
        tail = sum(h[j, q] * c_bar[q] / (gamma[j] - radii[q])
                   * (gamma[j] / radii[q]) ** (2 * t_bar) for q in done)
        c_bar[j] = beta[j] * (c[j] * (gamma[j] / rho_j) ** (2 * t_bar) + tail)
        done.append(j)

    return BoundConstants(alpha=alpha, beta=beta, gamma=gamma, g=g, h=h,
                          c=c, c_bar=c_bar)
