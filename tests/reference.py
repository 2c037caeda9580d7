"""Test-side reference rules, maps and plants.

``select_donor``, ``source_step`` and ``nonsource_step`` are the per-node
reading of the observer's update rules, over one node's n-vector and plain
int indices (-1 for never informed and for an open-loop round).  The tests
pin ``observer_protocol.ProtocolKernel.step``, which applies them to the
whole network's arrays at once, to them.

``check_delayed_form`` reads the delayed-error identity one (node, substate,
k) at a time with matrix powers and an explicit walk down the donor
lineage.  The tests pin ``sim_engine._delayed_residuals``, which evaluates
the same identity for a whole trace in chunked forward passes, to it.

``max_error`` and ``fit_decay_rate`` read a run's convergence rate off its
error norms.  ``from_transformed_coords`` and ``block_pair_observable``
check the staircase transform from the outside.  ``make_diagonal_plant`` and
``couple_substates`` build test plants: one coordinate per node, and plants
whose identity has nonzero cross-substate terms.
"""

import numpy as np

from freshtrack.decomposition import staircase_transform
from freshtrack.system_model import LtiPlant, observability_staircase

LOG_FLOOR = 1e-13     # error norms below this are numerical noise for log fits


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


def max_error(trace):
    """Max-over-nodes total error norm per time-step."""
    return np.max(trace.err_total, axis=1)


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


def couple_substates(plant, scale, seed):
    """The plant with random A_jq (q < j) blocks added in staircase coordinates.

    make_multiblock_plant's blocks are uncoupled, which leaves the
    cross-substate terms of the delayed-error identity at zero.
    """
    ts = staircase_transform(plant)
    block = np.repeat(np.arange(len(ts.block_dims)), ts.block_dims)
    lower = block[:, None] > block[None, :]
    coupling = scale * np.random.default_rng(seed).standard_normal(lower.shape) * lower
    a = ts.t_matrix @ (ts.a_bar + coupling) @ np.linalg.inv(ts.t_matrix)
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
    tau = int(trace.taus[k, i - 1, j - 1])
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
        donor = int(trace.donors[t + 1, node - 1, j - 1])
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
