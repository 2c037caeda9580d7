"""Test-side references and plants for the checks in ``freshtrack.sim_engine``.

``check_delayed_form`` reads the delayed-error identity one (node, substate,
k) at a time with matrix powers and an explicit walk down the donor
lineage.  The tests pin ``sim_engine._delayed_residuals``, which evaluates
the same identity for a whole trace in chunked forward passes, to it.
``couple_substates`` gives the tests plants whose identity has nonzero
cross-substate terms.
"""

import numpy as np

from freshtrack.decomposition import staircase_transform
from freshtrack.system_model import LtiPlant


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
