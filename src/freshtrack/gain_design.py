"""Output-injection gain synthesis and convergence-envelope constants.

Spectral mode gives block j an envelope radius rho_j and places its
closed-loop eigenvalues evenly on the circle of radius 0.75 * rho_j, by a
Sylvester solve taken in numpy from the target's eigenpairs.  The blocks
of one shape go through one attempt loop as a stack, each drawing from its
own seeded generator; the transform built each pair observable, so only a
block that fails every attempt is certified.  A discrete Lyapunov
certificate turns the margin into the envelope constant alpha_j.
Deadbeat mode makes every closed-loop block nilpotent so the observer
converges in finitely many steps: an orthogonal back-substitution over the
steps of the block's deflating observability staircase (Van Dooren,
"Deadbeat control: a special inverse eigenvalue problem", BIT 24, 1984)
gives a nilpotency index equal to the number of steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .decomposition import TransformedSystem, block_offsets
from .system_model import EPS, DecompositionError, observability_staircase, staircase_deflation

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


def _rotation_target(r, n: int):
    """Real n x n matrix with eigenvalues r * exp(2 pi i m / n), m = 0..n-1.

    Conjugate pairs sit in 2 x 2 rotation blocks; +r (and -r for even n) on
    the diagonal.  Well-spread targets keep the eigenvectors well conditioned.
    An array of radii gives a stack of targets, one per radius.
    """
    d = np.zeros((n, n))
    d[0, 0] = 1.0
    if n % 2 == 0:
        d[-1, -1] = -1.0
    for m in range(1, (n + 1) // 2):
        cos, sin = np.cos(2 * np.pi * m / n), np.sin(2 * np.pi * m / n)
        d[2 * m - 1:2 * m + 1, 2 * m - 1:2 * m + 1] = [[cos, -sin], [sin, cos]]
    return np.multiply.outer(r, d)


def _solve_sylvester(a, d, f):
    """X with A X - X D = F over a stack of same-size blocks, for real normal
    D with distinct eigenvalues.

    D = V diag(lam) V^H with V unitary, so y = X v solves (A - lam I) y = F v
    for each eigenpair and X = sum y v^H.  A conjugate pair's terms are
    conjugates: one batched complex solve over blocks x eigenvalues with
    Im lam >= 0 gives X = Re sum w y v^H, w = 2 for a pair, 1 for a real one.
    A shift that is exactly singular (a target eigenvalue that is one of A's)
    moves off by LAPACK trsyl's smin, eps times the largest |a_ik| or |lam|,
    as scipy's Bartels-Stewart solve does.  numpy refuses a whole stack for
    one singular item, so only a stack of one is shifted; a larger stack
    raises ``LinAlgError`` and the caller solves its blocks one at a time.
    """
    n_stack, n = a.shape[:2]
    lam, v = np.linalg.eig(d)
    upper = lam.imag >= 0
    lam = lam[upper].reshape(n_stack, -1)
    v = v.transpose(0, 2, 1)[upper].reshape(n_stack, -1, n).transpose(0, 2, 1)
    diag = np.arange(n)
    shifted = np.repeat(a[:, None].astype(complex), lam.shape[1], axis=1)
    shifted[:, :, diag, diag] -= lam[:, :, None]
    rhs = (f @ v).transpose(0, 2, 1)[..., None]
    try:
        y = np.linalg.solve(shifted, rhs)
    except np.linalg.LinAlgError:
        if n_stack > 1:
            raise
        shifted[:, :, diag, diag] += (np.finfo(float).eps
                                      * max(np.abs(a).max(), np.abs(lam).max()))
        y = np.linalg.solve(shifted, rhs)
    weight = np.where(lam.imag > 0, 2.0, 1.0)[:, None, :]
    return ((y[..., 0].transpose(0, 2, 1) * weight) @ v.conj().transpose(0, 2, 1)).real


def _check_observable(a, c):
    observed, _ = observability_staircase(a, c)
    if observed.shape[1] != a.shape[0]:
        raise GainDesignError("block pair is not observable; cannot place poles")


def _placement_attempt(a, c, d, g, radii):
    """One attempt over a stack of same-shape pairs: the gains
    L = (G X^-1)^T and which of them are finite with closed-loop spectral
    radius below their radius.  A stack that numpy refuses whole goes again
    as stacks of one; a block whose solve still fails fails the attempt."""
    try:
        x = _solve_sylvester(a.transpose(0, 2, 1), d, c.transpose(0, 2, 1) @ g)
        l = np.linalg.solve(x.transpose(0, 2, 1), g.transpose(0, 2, 1))
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(a.shape[:2] + c.shape[1:2], np.nan), np.zeros(1, dtype=bool)
        l, ok = zip(*[_placement_attempt(a[i:i + 1], c[i:i + 1], d[i:i + 1], g[i:i + 1],
                                         radii[i:i + 1]) for i in range(len(a))])
        return np.concatenate(l), np.concatenate(ok)
    ok = np.isfinite(l).all(axis=(1, 2))
    ok[ok] = np.abs(np.linalg.eigvals(a[ok] - l[ok] @ c[ok])).max(axis=1) < radii[ok]
    return l, ok


def _place_stack(a, c, radii, seeds):
    """Spectral gains for a stack of same-shape observable pairs (A_b, C_b),
    block b aimed at radii[b]; None for a block that fails every attempt.

    Each attempt draws every open block's next G from its own
    ``default_rng(seeds[b])``, so a block's draws do not depend on its
    stack, and places the open blocks together: one eig of the targets'
    stack, one complex solve over blocks x eigenvalues, one gain solve and
    one stacked eigvals for the radius check.  A block that passes is done.
    """
    n, r = a.shape[1], c.shape[1]
    d = _rotation_target(0.75 * radii, n)
    rngs = [np.random.default_rng(s) for s in seeds]
    gains = [None] * len(a)
    open_ = np.arange(len(a))
    for _ in range(_PLACEMENT_RETRIES):
        g = np.stack([rngs[b].standard_normal((r, n)) for b in open_])
        l, ok = _placement_attempt(a[open_], c[open_], d[open_], g, radii[open_])
        for b, l_b in zip(open_[ok], l[ok]):
            gains[b] = l_b
        open_ = open_[~ok]
        if not open_.size:
            break
    return gains


def _in_block(j, design, a, c):
    """design(a, c), whose refusal keeps its class (and so the CLI's exit
    code) and ends in " (block j)", also where the staircase cannot decide."""
    try:
        return design(a, c)
    except (GainDesignError, DecompositionError) as exc:
        raise type(exc)(f"{exc} (block {j})") from None


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
    """Synthesize gains for every nonempty block of a transformed system.

    Spectral blocks of one shape (n_j, r_j) are placed together by
    `_place_stack`, block j with seed + j, uncertified: `staircase_transform`
    builds each pair observable.  Only a block that fails every attempt is
    certified, to say "not observable" where that is the cause.  A refusal
    names its 1-indexed block and is that of the first failing block in
    block order.  Deadbeat blocks go one by one through `place_deadbeat`.
    """
    n_blocks = ts.n_nodes
    if deadbeat:
        radii = [DEADBEAT] * n_blocks
    else:
        if rho is None:
            raise ValueError("rho is required for spectral gain design")
        radii = choose_radii(rho, n_blocks)
    gains = [np.zeros((0, c.shape[0])) for c in ts.c_bar]
    nonempty = [j for j in range(1, n_blocks + 1) if ts.block_dims[j - 1]]
    by_shape = {}               # (n_j, r_j) -> the blocks to place
    for j in nonempty:
        if deadbeat:
            gains[j - 1] = _in_block(j, place_deadbeat, ts.a_block(j, j), ts.c_block(j, j))
        else:
            by_shape.setdefault(ts.c_block(j, j).shape[::-1], []).append(j)
    for js in by_shape.values():
        placed = _place_stack(np.stack([ts.a_block(j, j) for j in js]),
                              np.stack([ts.c_block(j, j) for j in js]),
                              np.array([radii[j - 1] for j in js]), [seed + j for j in js])
        for j, gain in zip(js, placed):
            gains[j - 1] = gain
    failed = [j for j in nonempty if gains[j - 1] is None]
    if failed:
        j = failed[0]
        _in_block(j, _check_observable, ts.a_block(j, j), ts.c_block(j, j))
        raise GainDesignError(
            f"spectral placement failed after {_PLACEMENT_RETRIES} retries (block {j})")
    return GainSet(gains=tuple(gains), target_radii=tuple(radii))


def closed_loop_block(ts: TransformedSystem, gains: GainSet, j: int):
    """A_jj - L_j C_jj for 1-indexed block j."""
    return ts.a_block(j, j) - gains.gain(j) @ ts.c_block(j, j)


def _lyapunov_alpha(m):
    """sqrt(cond(P_b)) for each P_b = sum_k (m_b^k)^T m_b^k, which solves
    m_b^T P_b m_b - P_b = -I, over a stack m of same-size blocks m_b.

    Bounds ||m_b^k|| for every k.  Summed term by term, P stays positive
    definite where a Schur-based solve loses it (cond(P) ~ 1e12 on long
    single-output blocks).  The partial sum P_K is a certificate of its own
    once ||m^K|| <= 1, since m^T P_K m = P_K - I + (m^K)^T m^K; stopping at
    ||m^K||_F^2 < 1e-8 keeps P - P_K below 1e-8 ||P||.  Each block stops at
    its own K and adds zeros after it; its ||m^K||_F^2 is a vector-vector
    matmul, the dot product that np.vdot takes.  P >= I, and its smallest
    eigenvalue is taken net of eigvalsh's rounding.  A block whose sum has
    not converged after 10,000 terms, or whose powers overflow, is refused.
    """
    n_stack, n = m.shape[:2]
    p = np.zeros_like(m)
    power = np.broadcast_to(np.eye(n), m.shape).copy()
    live = np.ones(n_stack, dtype=bool)
    for _ in range(10_000):
        flat = power.reshape(n_stack, 1, n * n)
        # Not ">= 1e-8": a NaN norm never stops its block.
        live &= ~((flat @ flat.transpose(0, 2, 1))[:, 0, 0] < 1e-8)
        if not live.any():
            break
        p += np.where(live[:, None, None], power.transpose(0, 2, 1) @ power, 0.0)
        power = m @ power
    else:
        raise GainDesignError("a block scaled by its radius does not contract: "
                              "its Lyapunov sum has not converged")
    eig = np.linalg.eigvalsh(p)
    return np.sqrt(eig[:, -1] / np.fmax(1.0, eig[:, 0] - n * np.finfo(float).eps * eig[:, -1]))


# Powers that under- or overflow leave a constant not finite: a coded, failed envelope.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def compute_bound_constants(ts: TransformedSystem, gains: GainSet,
                            e0_source_norms, t_bar: int) -> BoundConstants:
    """Envelope constants for spectral-mode gains.

    ``e0_source_norms[j-1]`` is the measured norm of the source node's own
    substate-j error at the block's `envelope_schedule` reference time.  The
    nonempty blocks of each size get alpha, beta and gamma as one stack, the
    coupling norms g and h take one batched 2-norm per block shape, and one
    pass over the nonempty blocks builds c_j and c_bar_j from the blocks
    before j.  An empty block keeps alpha = beta = gamma = 1 and zeros.

    alpha[j] is sqrt(cond(P)) for the P solving (M/rho_j)^T P (M/rho_j) - P
    = -I with M the closed-loop block: ||M^k|| <= alpha[j] * rho_j^k for any
    M of spectral radius below rho_j, diagonalisable or not.  beta[j] is the
    same certificate of A_jj / gamma_j, whose spectral radius is at most
    1/1.01, so ||A_jj^k|| <= beta[j] * gamma_j^k for every k.  A 1 x 1 block
    has beta = 1: |a|^k / gamma^k peaks at k = 0.
    """
    if gains.mode == DEADBEAT:
        raise ValueError("bound constants are defined for spectral-mode gains")
    n_blocks = ts.n_nodes
    radii = np.asarray(gains.target_radii, dtype=float)
    ref_times = envelope_schedule(n_blocks, t_bar=t_bar).reference
    nonempty = [j for j, nj in enumerate(ts.block_dims) if nj]

    alpha, beta, gamma = np.ones(n_blocks), np.ones(n_blocks), np.ones(n_blocks)
    by_size = {}
    for j in nonempty:
        by_size.setdefault(ts.block_dims[j], []).append(j)
    for nj, js in by_size.items():
        alpha[js] = _lyapunov_alpha(
            np.stack([closed_loop_block(ts, gains, j + 1) / radii[j] for j in js]))
        a_jj = np.stack([ts.a_block(j + 1, j + 1) for j in js])
        gamma[js] = np.fmax(1.0, np.abs(np.linalg.eigvals(a_jj)).max(axis=1)) * 1.01
        if nj > 1:
            beta[js] = _lyapunov_alpha(a_jj / gamma[js, None, None])

    g, h = np.zeros((n_blocks, n_blocks)), np.zeros((n_blocks, n_blocks))
    pairs = {}      # (n_j, n_q) -> [(j, q, A_jq - L_j C_jq, A_jq)] for q < j
    for i, j in enumerate(nonempty):
        for q in nonempty[:i]:
            a_jq = ts.a_block(j + 1, q + 1)
            pairs.setdefault(a_jq.shape, []).append(
                (j, q, a_jq - gains.gain(j + 1) @ ts.c_block(j + 1, q + 1), a_jq))
    for group in pairs.values():
        js, qs, coupled, own = zip(*group)
        norms = np.linalg.norm(np.stack(coupled + own), 2, axis=(1, 2))
        g[js, qs], h[js, qs] = norms[:len(js)], norms[len(js):]

    c, c_bar = np.zeros(n_blocks), np.zeros(n_blocks)
    for i, j in enumerate(nonempty):
        done, rho_j, ref = nonempty[:i], radii[j], ref_times[j]
        coupling = sum(g[j, q] * c_bar[q] / (rho_j - radii[q]) * radii[q] ** ref for q in done)
        c[j] = alpha[j] / rho_j ** ref * (float(e0_source_norms[j]) + coupling)
        tail = sum(h[j, q] * c_bar[q] / (gamma[j] - radii[q])
                   * (gamma[j] / radii[q]) ** (2 * t_bar) for q in done)
        c_bar[j] = beta[j] * (c[j] * (gamma[j] / rho_j) ** (2 * t_bar) + tail)

    return BoundConstants(alpha=alpha, beta=beta, gamma=gamma, g=g, h=h,
                          c=c, c_bar=c_bar)
