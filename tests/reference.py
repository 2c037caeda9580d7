"""Test-side reference rules, maps and plants.

``select_donor``, ``source_step`` and ``nonsource_step`` are the per-node
reading of the observer's update rules, over one node's n-vector and plain
int indices (-1 for never informed and for an open-loop round).  The tests
pin ``observer_protocol.ProtocolKernel``'s two whole-run passes, which apply
them to the whole network's arrays at once, to them.  ``StepKernel.step``
applies both rules one round at a time; ``run_steps`` loops it and
``run_passes`` runs the passes over the same rounds, and the tests require
the two to give the same bits.

``check_delayed_form`` reads the delayed-error identity one (node, substate,
k) at a time with matrix powers and an explicit walk down the donor
lineage.  The tests pin ``sim_engine._delayed_residuals``, which evaluates
the same identity for a whole trace in chunked forward passes, to it.

``reference_csv`` is the trace file written one row at a time, the
layout ``sim_engine.Trace.to_csv`` writes in chunked array passes; the
tests require both to give the same bytes.  ``to_csv_string`` is
``to_csv``'s text.

``design_gains`` places one block at a time: ``spectral_gain`` tries up
to 8 seeded G draws through ``solve_sylvester``, one complex solve per
eigenvalue of the ``rotation_target``, and only a block that fails them
all is certified.  The tests require
``gain_design.design_gains``, which places the blocks of one shape as a
stack in one attempt loop, to give the same gains bit for bit and the same
refusal, naming the same first failing block.

``ArgminKernel`` picks the donors by a masked argmin over the in-neighbors'
indices (``tau_of_keys`` decodes the kernel's own keys),
``compute_bound_constants`` (with ``_lyapunov_alpha``) takes one block at a
time, and ``error_norms`` squares the whole horizon at once.  The tests
require ``ProtocolKernel.choose_donors``'s key-encoded minimum, the
production constants' batched stacks and norms, and
``sim_engine.error_norms``, which the checks take a chunk of rounds at a
time, to give the same bits.

``block_diagonal`` lays a (W, N, N) stack of graphs out as one sparse graph
for scipy's csgraph searches: ``strongly_connected_windows`` (one
strongly-connected-components pass), ``rooted_windows`` (one breadth-first
search from a hub feeding every window's root) and ``tree_parent_weights``
(tree-rooted mixing weights from one unweighted ``shortest_path``).  The
tests require ``graph_seq.hops`` and the certification and weights built on
it to give the same results.

``staircase_deflation`` takes every input of every rank decision exactly:
||A||_2 after the first step and the Krylov condition number after every
step, each by an SVD.  The tests require
``system_model.staircase_deflation``, which takes them only where bounds
leave a decision open, to give the same bases, widths, resolved rounding
and refusals bit for bit.

``max_error`` and ``fit_decay_rate`` read a run's convergence rate off its
error norms.  ``from_transformed_coords`` and ``block_pair_observable``
check the staircase transform from the outside.  ``make_diagonal_plant`` and
``couple_substates`` build test plants: one coordinate per node, and plants
whose identity has nonzero cross-substate terms.
"""

import io

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order, connected_components, shortest_path

from freshtrack.decomposition import TransformedSystem, block_offsets, staircase_transform
from freshtrack.gain_design import (
    DEADBEAT,
    BoundConstants,
    GainDesignError,
    GainSet,
    choose_radii,
    closed_loop_block,
    envelope_schedule,
    place_deadbeat,
)
from freshtrack.observer_protocol import _NEVER, _NOT_SENT, ProtocolKernel
from freshtrack.system_model import (
    EPS,
    DecompositionError,
    LtiPlant,
    _staircase_rank,
    observability_staircase,
)

LOG_FLOOR = 1e-13     # error norms below this are numerical noise for log fits

_NO_DONOR = np.iinfo(np.int64).max


def select_donor(own_tau, neighbor_taus):
    """Donor choice among in-neighbors, given their freshness indices.

    ``neighbor_taus`` maps node id -> index, -1 for never informed.  A
    never-informed node takes the freshest informed neighbor; an informed node
    only accepts a strictly fresher one.  Ties break toward the smallest node
    id.  Returns -1 when no neighbor qualifies (an open-loop round).
    """
    informed = {l: m for l, m in neighbor_taus.items()
                if m >= 0 and (own_tau < 0 or m < own_tau)}
    if not informed:
        return -1
    return min(informed, key=lambda l: (informed[l], l))


def source_step(j, z, y_j, ts, gains):
    """Source update of substate j from node j's n-vector ``z``; its index stays 0."""
    l_j = gains.gain(j)
    new = (ts.a_block(j, j) - l_j @ ts.c_block(j, j)) @ z[ts.block_slice(j)]
    for q in range(1, j):
        if ts.block_dims[q - 1] == 0:
            continue
        new = new + (ts.a_block(j, q) - l_j @ ts.c_block(j, q)) @ z[ts.block_slice(q)]
    return new + l_j @ np.atleast_1d(y_j)


def nonsource_step(j, z, tau, donor_z, donor_tau, ts):
    """Non-source update of substate j: adopt the donor or run open-loop.

    ``z`` and ``tau`` are the node's own n-vector and index; ``donor_z`` and
    ``donor_tau`` the donor's, with ``donor_tau`` -1 for an open-loop round
    (``donor_z`` is then unused).  Cross-substate terms always use the
    node's own start-of-round estimates.  Returns (new index, new estimate).
    """
    base = z if donor_tau < 0 else donor_z
    new = ts.a_block(j, j) @ base[ts.block_slice(j)]
    for q in range(1, j):
        if ts.block_dims[q - 1] == 0:
            continue
        new = new + ts.a_block(j, q) @ z[ts.block_slice(q)]
    if donor_tau >= 0:
        return donor_tau + 1, new
    return (tau + 1 if tau >= 0 else -1), new


def reference_csv(trace):
    """The text of ``trace.to_csv``: after ``csv_header``, one f-string row
    per (k, node), ints by ``str`` and floats by ``repr``."""
    f = io.StringIO()
    f.write(trace.csv_header())
    for k in range(trace.horizon + 1):
        rows = zip(trace.taus[k].tolist(), trace.donors[k].tolist(),
                   trace.z_estimates[k].tolist())
        f.write("".join(
            f"{k},{i},{','.join(map(str, tau + donor))},"
            f"{','.join(map(repr, z))}\n"
            for i, (tau, donor, z) in enumerate(rows, 1)))
    return f.getvalue()


def to_csv_string(trace):
    """The text ``trace.to_csv`` writes."""
    buf = io.StringIO()
    trace.to_csv(buf)
    return buf.getvalue()


def tau_of_keys(own, n_nodes):
    """The indices of the own keys ``ProtocolKernel.choose_donors`` reads:
    tau * (N + 1), -1 for a key at or above the never-informed one."""
    tau = own // (n_nodes + 1)
    tau[tau >= _NEVER] = -1
    return tau


class StepKernel(ProtocolKernel):
    """``ProtocolKernel`` advanced one round at a time, both rules at once."""

    def step(self, tau, z, adjacency, y):
        """Advance (tau, z) by one round; return (new tau, new z, donors).

        ``adjacency[l, i]`` is true when node l+1 sends to node i+1 this round;
        ``y`` is this round's outputs of the sources, side by side in substate
        order; all else is start-of-round state.  For substate j a node adopts
        the freshest informed in-neighbor (if informed itself, only a strictly
        fresher one), ties going to the smallest node id: its index + 1 and
        A_jj z_donor[j].  With no such donor it runs open-loop on A_jj z_i[j],
        its index + 1 or still -1.  The cross terms A_jq z_i[q], q < j, are
        always the node's own.  Source j keeps index 0 and adds the correction
        -L_j (C_j z_j - y_j).

        The choice is one minimum of the in-neighbors' keys and the node's
        own key (see ``_NEVER``); its divmod by N + 1 is the held index and
        the donor's id, 0 for the node's own.
        """
        n_nodes = self.n_nodes
        own = tau % (_NEVER + 1) * (n_nodes + 1)      # -1 reads as _NEVER
        keys = own + self._ids
        # sent[i, l, c] is node l+1's key for substate column c, as node i+1
        # sees it: a zero-stride view of keys along i, made directly because
        # np.broadcast_to costs about as much as the reduction at N = 10.
        sent = np.ndarray((n_nodes,) + keys.shape, keys.dtype, keys, 0, (0,) + keys.strides)
        best = np.minimum.reduce(sent, axis=1, where=adjacency.T[:, :, None],
                                 initial=_NOT_SENT)
        held, donors = np.divmod(np.minimum(best, own), n_nodes + 1)
        new_tau = held + 1
        new_tau[held == _NEVER] = -1
        new_tau[self._own] = 0

        reader = np.where(donors > 0, donors - 1, self._own_rows)
        base = z[reader[:, self._col_slot], self._cols]
        new_z = z @ self._a_lower_t + base @ self._a_diag_t
        resid = np.einsum("rc,rc->r", self._c_rows, z[self._row_owner]) - y
        new_z[self._col_block, self._cols] -= self._l_cols @ resid
        donors[donors == 0] = -1
        return new_tau, new_z, donors


def run_steps(tau, z, adjacency, outputs, ts, gains):
    """``StepKernel.step`` round after round over the (H, N, N) ``adjacency``
    and (H, r) ``outputs``: the (H+1)-stacked indices, donors and estimates."""
    kernel = StepKernel(ts, gains)
    taus, donors, zs = [tau], [np.full_like(tau, -1)], [z]
    for adj, y in zip(adjacency, outputs):
        tau, z, held = kernel.step(tau, z, adj, y)
        taus.append(tau), donors.append(held), zs.append(z)
    return np.array(taus), np.array(donors), np.array(zs)


def run_passes(kernel, tau, z, adjacency, outputs, chunk):
    """``kernel``'s index and estimate passes from (tau, z), as ``run_steps``."""
    horizon = len(adjacency)
    taus = np.repeat(tau[None], horizon + 1, axis=0)
    donors = np.full_like(taus, -1)
    zs = np.repeat(z[None], horizon + 1, axis=0)
    kernel.index_pass(adjacency, taus, donors, chunk)
    kernel.estimate_pass(donors, outputs, zs, chunk)
    return taus, donors, zs


class ArgminKernel(ProtocolKernel):
    """``ProtocolKernel`` with the donors picked by a masked argmin."""

    def choose_donors(self, own, adjacency, out):
        """``ProtocolKernel.choose_donors``, the donors by argmin and min over
        a masked N x N x N tensor of the in-neighbors' indices."""
        # A never-informed index reads as _NO_DONOR, above every real one:
        # "usable" is then just "strictly fresher", informed or not.
        tau = tau_of_keys(own, self.n_nodes)
        ages = np.where(tau >= 0, tau, _NO_DONOR)
        nbr = ages[None, :, :]
        usable = adjacency.T[:, :, None] & (nbr < ages[:, None, :])
        key = np.where(usable, nbr, _NO_DONOR)
        pick = key.argmin(axis=1)
        best = key.min(axis=1)
        out[...] = np.where(best != _NO_DONOR, best * (self.n_nodes + 1) + pick + 1, own)


def error_norms(estimates, truth, block_dims):
    """``sim_engine.error_norms`` over the whole horizon at once."""
    sq = estimates - truth[:, None, :]
    np.square(sq, out=sq)
    starts = [o for o, d in zip(block_offsets(block_dims), block_dims) if d > 0]
    err_block = np.sqrt(np.add.reduceat(sq, starts, axis=2))
    return err_block, np.sqrt(np.sum(err_block ** 2, axis=2))


def block_diagonal(graphs, hub_root=None):
    """Sparse graph with graph w of a (W, N, N) stack on nodes wN..wN+N-1.

    With ``hub_root``, one more node (the last) gets an edge to every
    graph's copy of that 1-indexed node.
    """
    n_windows, n, _ = graphs.shape
    w, i, j = np.nonzero(graphs)
    rows, cols, size = w * n + i, w * n + j, n_windows * n
    if hub_root is not None:
        rows = np.append(rows, np.full(n_windows, size))
        cols = np.append(cols, np.arange(n_windows) * n + hub_root - 1)
        size += 1
    return sparse.csr_matrix((np.ones(rows.size, dtype=bool), (rows, cols)),
                             shape=(size, size))


def strongly_connected_windows(unions):
    """True iff every graph of the stack is strongly connected: all nodes of a
    window share one strongly-connected-component label."""
    n_windows, n, _ = unions.shape
    _, labels = connected_components(block_diagonal(unions), directed=True,
                                     connection="strong")
    labels = labels.reshape(n_windows, n)
    return bool(np.all(labels == labels[:, :1]))


def rooted_windows(unions, root):
    """True iff ``root`` reaches every node of every graph of the stack."""
    graph = block_diagonal(unions, hub_root=root)
    hub = graph.shape[0] - 1
    return breadth_first_order(graph, hub, return_predecessors=False).size == hub + 1


def tree_parent_weights(adj, root):
    """``mixing_weights(adj, WeightStrategy("tree_rooted", root))``, the hop
    distances from one search from a hub one hop before every round's root."""
    horizon, n, _ = adj.shape
    dist = shortest_path(block_diagonal(adj, hub_root=root), unweighted=True,
                         indices=horizon * n)[:-1].reshape(horizon, n) - 1
    # isfinite matters: inf - 1 == inf would pair up unreachable nodes.
    is_parent = (adj & np.isfinite(dist)[:, :, None]
                 & (dist[:, :, None] == dist[:, None, :] - 1))
    parent = np.where(is_parent.any(axis=1), is_parent.argmax(axis=1), np.arange(n))
    return np.eye(n)[parent]


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
        raise GainDesignError("a block scaled by its radius does not contract: "
                              "its Lyapunov sum has not converged")
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
    M of spectral radius below rho_j, diagonalisable or not.  beta[j] is the
    same certificate of A_jj / gamma_j; a 1 x 1 block's is 1.
    """
    if gains.mode == DEADBEAT:
        raise ValueError("bound constants are defined for spectral-mode gains")
    n_blocks = ts.n_nodes
    radii = np.asarray(gains.target_radii, dtype=float)
    ref_times = envelope_schedule(n_blocks, t_bar=t_bar).reference

    alpha, beta, gamma = np.ones(n_blocks), np.ones(n_blocks), np.ones(n_blocks)
    g, h = np.zeros((n_blocks, n_blocks)), np.zeros((n_blocks, n_blocks))
    c, c_bar = np.zeros(n_blocks), np.zeros(n_blocks)
    done = []       # the nonempty blocks before j, 0-indexed as j is here
    for j in [j for j, nj in enumerate(ts.block_dims) if nj]:
        nj, rho_j = ts.block_dims[j], radii[j]
        alpha[j] = _lyapunov_alpha(closed_loop_block(ts, gains, j + 1) / rho_j)
        a_jj = ts.a_block(j + 1, j + 1)
        gamma[j] = max(1.0, np.max(np.abs(np.linalg.eigvals(a_jj)))) * 1.01
        beta[j] = 1.0 if nj == 1 else _lyapunov_alpha(a_jj / gamma[j])
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


def rotation_target(r, n):
    """The real n x n matrix with eigenvalues r * exp(2 pi i m / n)."""
    d = np.zeros((n, n))
    d[0, 0] = r
    if n % 2 == 0:
        d[-1, -1] = -r
    for m in range(1, (n + 1) // 2):
        cos, sin = r * np.cos(2 * np.pi * m / n), r * np.sin(2 * np.pi * m / n)
        d[2 * m - 1:2 * m + 1, 2 * m - 1:2 * m + 1] = [[cos, -sin], [sin, cos]]
    return d


def solve_sylvester(a, d, f):
    """X with A X - X D = F for one block: one complex solve per eigenvalue
    of D with Im lam >= 0, an exactly singular shift moved by LAPACK's smin."""
    lam, v = np.linalg.eig(d)
    upper = lam.imag >= 0
    lam, v = lam[upper], v[:, upper]
    diag = np.arange(a.shape[0])
    shifted = np.repeat(a[None].astype(complex), lam.size, axis=0)
    shifted[:, diag, diag] -= lam[:, None]
    rhs = (f @ v).T[:, :, None]
    try:
        y = np.linalg.solve(shifted, rhs)
    except np.linalg.LinAlgError:
        shifted[:, diag, diag] += np.finfo(float).eps * max(np.abs(a).max(), np.abs(lam).max())
        y = np.linalg.solve(shifted, rhs)
    return ((y[:, :, 0].T * np.where(lam.imag > 0, 2.0, 1.0)) @ v.conj().T).real


def spectral_gain(a, c, rho_j, seed=0):
    """One block's spectral gain, uncertified: up to 8 seeded G draws, the
    first finite gain with closed-loop spectral radius below rho_j wins;
    None if none does."""
    n, r = a.shape[0], c.shape[0]
    d = rotation_target(0.75 * rho_j, n)
    rng = np.random.default_rng(seed)
    for _ in range(8):
        g = rng.standard_normal((r, n))
        try:
            x = solve_sylvester(a.T, d, c.T @ g)
            l = np.linalg.solve(x.T, g.T)
        except np.linalg.LinAlgError:
            continue
        if (np.all(np.isfinite(l))
                and np.max(np.abs(np.linalg.eigvals(a - l @ c))) < rho_j):
            return l
    return None


def design_gains(ts, rho=None, seed=0):
    """Gains one block at a time, block j's spectral draws seeded seed + j.
    Deadbeat when ``rho`` is None.  A spectral block is certified only when
    every draw fails.  The first block that fails raises its refusal, of its
    own class, with " (block j)" appended."""
    n_blocks = ts.n_nodes
    radii = [DEADBEAT] * n_blocks if rho is None else choose_radii(rho, n_blocks)
    gains = []
    for j in range(1, n_blocks + 1):
        if ts.block_dims[j - 1] == 0:
            gains.append(np.zeros((0, ts.c_bar[j - 1].shape[0])))
            continue
        a_jj, c_jj = ts.a_block(j, j), ts.c_block(j, j)
        try:
            if rho is None:
                gain = place_deadbeat(a_jj, c_jj)
            else:
                gain = spectral_gain(a_jj, c_jj, radii[j - 1], seed=seed + j)
            if gain is None:
                if observability_staircase(a_jj, c_jj)[0].shape[1] != len(a_jj):
                    raise GainDesignError("block pair is not observable; cannot place poles")
                raise GainDesignError("spectral placement failed after 8 retries")
        except (GainDesignError, DecompositionError) as exc:
            raise type(exc)(f"{exc} (block {j})") from None
        gains.append(gain)
    return GainSet(gains=tuple(gains), target_radii=tuple(radii))


def staircase_deflation(a, c, c_scale, rounding):
    """Deflating staircase of (A, C) with every rank decision on its exact
    inputs; returns the two bases, the rounding estimate and the widths."""
    n = a.shape[0]
    seen, rest = [np.zeros((n, 0))], np.eye(n)
    rows, scale = c, c_scale
    krylov, power = [], c
    rounding = inherited = rounding + n * EPS
    while rest.shape[1] and rows.size:
        _, sv, vt = np.linalg.svd(rows)
        rank = _staircase_rank(sv / (scale or 1.0), rounding)
        if rank == 0:
            break
        seen.append(rest @ vt[:rank].T)
        rest = rest @ vt[rank:].T
        rows = seen[-1].T @ a @ rest
        if len(seen) == 2:      # later steps are relative to ||A||, one SVD of A
            scale = np.linalg.norm(a, 2)
        krylov.append(power / (np.linalg.norm(power) or 1.0))
        power = krylov[-1] @ a
        k = np.linalg.svd(np.vstack(krylov), compute_uv=False)
        rounding = inherited + EPS * k[0] / k[n - rest.shape[1] - 1]
    return np.hstack(seen), rest, rounding, tuple(s.shape[1] for s in seen[1:])


def max_error(trace):
    """Max-over-nodes total error norm per time-step, over the whole horizon
    at once."""
    return np.max(error_norms(trace.z_estimates, trace.truth, trace.block_dims)[1], axis=1)


def fit_decay_rate(trace, k_start):
    """Least-squares exponential rate of the max-node error from k_start on.

    Stops at the numerical floor; requires at least 10 usable points.
    """
    maxed = max_error(trace)[k_start:]
    floor_hits = np.nonzero(maxed <= LOG_FLOOR)[0]
    if floor_hits.size:
        maxed = maxed[:floor_hits[0]]
    if maxed.size < 10:
        raise ValueError(f"only {maxed.size} usable points above the numerical floor")
    ks = np.arange(k_start, k_start + maxed.size)
    slope = np.polyfit(ks, np.log(maxed), 1)[0]
    return float(np.exp(slope))


def from_transformed_coords(z, ts):
    """Map transformed coordinates back: x = T z."""
    return ts.t_matrix @ np.asarray(z, dtype=float)


def block_pair_observable(ts, j):
    """Check observability of the diagonal pair (A_jj, C_jj), 1-indexed."""
    observed, _ = observability_staircase(ts.a_block(j, j), ts.c_block(j, j))
    return observed.shape[1] == ts.block_dims[j - 1]


def make_diagonal_plant(n_nodes, seed):
    """Plant where node i alone observes coordinate i: one substate per node."""
    rng = np.random.default_rng(seed)
    vals = np.linspace(0.2, 0.8, n_nodes) + rng.uniform(-0.05, 0.05, n_nodes)
    a = np.diag(vals)
    sensors = [np.eye(n_nodes)[i:i + 1] for i in range(n_nodes)]
    x0 = rng.standard_normal(n_nodes)
    return LtiPlant(a, sensors, x0)


def raw_products(plant, t, block_dims):
    """`TransformedSystem.of` without the staircase zeros: T^T A T and each
    C_i T as computed, rounding above the blocks included.  The invariance
    tests read their upper blocks, which `of` writes as 0.0."""
    return TransformedSystem(t, t.T @ plant.a_matrix @ t, tuple(c @ t for c in plant.sensors),
                             tuple(block_dims))


def couple_substates(plant, scale, seed):
    """The plant with random A_jq (q < j) blocks added in staircase coordinates.

    make_multiblock_plant's blocks are uncoupled, which leaves the
    cross-substate terms of the delayed-error identity at zero.  The
    coupling goes onto the unmasked T^T A T, rounding residue above the
    blocks included, so that the draws stay those the tests pin.
    """
    ts = staircase_transform(plant)
    t = ts.t_matrix
    block = np.repeat(np.arange(len(ts.block_dims)), ts.block_dims)
    lower = block[:, None] > block[None, :]
    coupling = scale * np.random.default_rng(seed).standard_normal(lower.shape) * lower
    a = t @ (raw_products(plant, t, ts.block_dims).a_bar + coupling) @ np.linalg.inv(t)
    return LtiPlant(a, plant.sensors, plant.x0)


def check_delayed_form(trace, ts, j, k, i):
    """Residual of the delayed-error identity for node i, substate j, time k.

    A finite index tau means the estimate equals the source's estimate from
    tau rounds ago pushed through the substate dynamics, plus cross-substate
    feed-ins collected along the recorded donor lineage.  Returns the relative
    residual ||lhs - rhs|| / max(1, ||lhs||), and 0 for tau of -1 and for
    the source's own index of 0.  Raises ValueError when tau is not the
    length of the recorded lineage.  This is the paper's statement read
    point by point.
    """
    c = trace.substates.index(j)    # substate j's column in taus and donors
    tau = int(trace.taus[k, i - 1, c])
    if tau < 0 or (tau == 0 and i == j):
        return 0.0
    if tau > k:
        raise ValueError(f"index {tau} of node {i}, substate {j} exceeds k={k}")
    cols = ts.block_slice(j)
    a_jj = ts.a_block(j, j)
    lhs = trace.z_estimates[k, i - 1, cols]
    rhs = np.linalg.matrix_power(a_jj, tau) @ trace.z_estimates[k - tau, j - 1, cols]

    # Walk the donor chain backwards: the node holding the lineage value at
    # time t+1 got it from the donor recorded for round t (at time t+1).
    node = i
    lineage = {}
    for t in range(k - 1, k - tau - 1, -1):
        if node == j:
            raise ValueError(f"lineage for node {i}, substate {j} at k={k} reaches "
                             f"the source at {t + 1}, after k - tau = {k - tau}")
        lineage[t] = node
        donor = int(trace.donors[t + 1, node - 1, c])
        if donor >= 0:
            node = donor
    if node != j:
        raise ValueError(
            f"lineage for node {i}, substate {j} at k={k} does not reach the source")

    for q in range(1, j):
        if ts.block_dims[q - 1] == 0:
            continue
        a_jq = ts.a_block(j, q)
        for t in range(k - tau, k):
            v = lineage[t]
            rhs = rhs + np.linalg.matrix_power(a_jj, k - t - 1) @ (
                a_jq @ trace.z_estimates[t, v - 1, ts.block_slice(q)])
    return float(np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs)))
