"""The freshness-index distributed observer.

Each node keeps, per substate, an estimate and a freshness index: either the
distinguished OMEGA ("never informed") or the age, in rounds, of its
information relative to the substate's source node.  Rounds are strictly
synchronous: every right-hand-side quantity is a start-of-round snapshot.

A run holds the whole network's state as two arrays.  ``tau`` is N x N int:
``tau[i, j]`` is node i+1's index for substate j+1, with -1 encoding OMEGA
(and staying -1 for zero-dimension substates).  ``z`` is N x n: row i is node
i+1's estimate of every substate in transformed coordinates.
``ProtocolKernel.step`` advances both by one round in O(N^2 n) array work: a
masked argmin over in-neighbor indices picks the donors, then one
block-lower-triangular product and a source correction update the estimates.
It returns the donors as 1-indexed node ids, with -1 for open-loop rounds.

``protocol_round`` is the same round over per-node ``NodeState`` objects;
``select_donor``, ``source_step`` and ``nonsource_step`` are the per-node
reading of the update rules, kept as the reference the kernel is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

OMEGA = None          # "infinite delay" marker for freshness indices
OPEN_LOOP = None      # donor marker when no informative neighbor exists

_NO_DONOR = np.iinfo(np.int64).max


@dataclass
class NodeState:
    """Per-node observer state: one entry per nonempty substate.

    ``taus[j]`` is OMEGA or a nonnegative int; ``estimates[j]`` is the n_j
    estimate vector; ``last_donor[j]`` records the donor node id of the most
    recent round (OPEN_LOOP when the node ran open-loop), for lineage
    reconstruction only.
    """

    node_id: int
    taus: dict
    estimates: dict
    last_donor: dict = field(default_factory=dict)

    def snapshot(self):
        return NodeState(
            node_id=self.node_id,
            taus=dict(self.taus),
            estimates={j: z.copy() for j, z in self.estimates.items()},
            last_donor=dict(self.last_donor),
        )


class ProtocolKernel:
    """One synchronous protocol round over the array state, for a fixed system.

    The block layout, the strictly-lower and block-diagonal parts of a_bar,
    and every source's gain and sensor rows are laid out once here.
    """

    def __init__(self, ts, gains):
        off = ts.offsets
        n_nodes, n = ts.n_nodes, ts.n
        self.n_nodes = n_nodes
        self.sources = [j for j in range(n_nodes) if ts.block_dims[j] > 0]
        self._col_block = np.repeat(np.arange(n_nodes), ts.block_dims)
        self._cols = np.arange(n)
        lower = self._col_block[:, None] > self._col_block[None, :]
        diag = self._col_block[:, None] == self._col_block[None, :]
        self._a_lower_t = np.where(lower, ts.a_bar, 0.0).T.copy()
        self._a_diag_t = np.where(diag, ts.a_bar, 0.0).T.copy()
        # Source j's correction L_j (C_j[:, :end_j] z_j - y_j), for every
        # source at once: stacked sensor rows with the columns past block j
        # zeroed, and the gains scattered into the rows of their own blocks.
        c_rows, l_cols, owner = [], [], []
        for j in self.sources:
            c_j = ts.c_bar[j].copy()
            c_j[:, off[j + 1]:] = 0.0
            l_pad = np.zeros((n, c_j.shape[0]))
            l_pad[off[j]:off[j + 1]] = gains.gain(j + 1)
            c_rows.append(c_j)
            l_cols.append(l_pad)
            owner += [j] * c_j.shape[0]
        self._c_rows = np.vstack(c_rows)
        self._l_cols = np.hstack(l_cols)
        self._row_owner = np.array(owner)

    def source_outputs(self, measurements):
        """Concatenate the sources' measurements in the order ``step`` reads.

        ``measurements`` is indexed by 0-based node id; each entry is one
        round's output vector, or a (rounds, r_i) array for a whole run.
        """
        return np.concatenate(
            [np.atleast_1d(measurements[j]) for j in self.sources], axis=-1)

    def step(self, tau, z, adjacency, y):
        """Advance (tau, z) by one round; return (new tau, new z, donors).

        ``adjacency[l, i]`` is true when node l+1 sends to node i+1 this round;
        ``y`` is this round's ``source_outputs``.  An informed node only
        accepts a strictly fresher in-neighbor; argmin keeps the first of
        equally fresh ones, i.e. the smallest node id.
        """
        nbr = tau[None, :, :]
        own = tau[:, None, :]
        usable = adjacency.T[:, :, None] & (nbr >= 0) & ((own < 0) | (nbr < own))
        key = np.where(usable, nbr, _NO_DONOR)
        pick = key.argmin(axis=1)
        best = np.take_along_axis(key, pick[:, None, :], axis=1)[:, 0, :]
        adopted = best != _NO_DONOR
        held = np.where(adopted, best, tau)
        new_tau = np.where(held >= 0, held + 1, -1)
        new_tau[self.sources, self.sources] = 0
        donors = np.where(adopted, pick + 1, -1)

        reader = np.where(adopted, pick, np.arange(self.n_nodes)[:, None])
        base = z[reader[:, self._col_block], self._cols]
        new_z = z @ self._a_lower_t + base @ self._a_diag_t
        resid = np.einsum("rc,rc->r", self._c_rows, z[self._row_owner]) - y
        new_z[self._col_block, self._cols] -= self._l_cols @ resid
        return new_tau, new_z, donors


def _states_to_arrays(states, ts):
    n_nodes = ts.n_nodes
    tau = np.full((n_nodes, n_nodes), -1, dtype=np.int64)
    z = np.zeros((n_nodes, ts.n))
    for st in states:
        i = st.node_id - 1
        for j, t in st.taus.items():
            tau[i, j - 1] = -1 if t is OMEGA else t
        for j, est in st.estimates.items():
            z[i, ts.block_slice(j)] = est
    return tau, z


def _arrays_to_states(tau, z, donors, ts):
    states = []
    for i in range(ts.n_nodes):
        st = NodeState(node_id=i + 1, taus={}, estimates={})
        for j in range(1, ts.n_nodes + 1):
            if ts.block_dims[j - 1] == 0:
                continue
            t = int(tau[i, j - 1])
            st.taus[j] = OMEGA if t < 0 else t
            st.estimates[j] = z[i, ts.block_slice(j)].copy()
            if donors is not None:
                d = int(donors[i, j - 1])
                st.last_donor[j] = OPEN_LOOP if d < 0 else d
        states.append(st)
    return states


def initial_arrays(ts, z0=None):
    """Start-of-run (tau, z): each source's own index is 0, all others OMEGA.

    ``z0`` holds per-node n-vectors in transformed coordinates (default all
    zeros).
    """
    n_nodes = ts.n_nodes
    tau = np.full((n_nodes, n_nodes), -1, dtype=np.int64)
    sources = [j for j in range(n_nodes) if ts.block_dims[j] > 0]
    tau[sources, sources] = 0
    if z0 is None:
        return tau, np.zeros((n_nodes, ts.n))
    return tau, np.array(z0, dtype=float).reshape(n_nodes, ts.n)


def init_states(ts, initial_estimates=None):
    """Initial node states: the source's own index is 0, all others OMEGA.

    ``initial_estimates`` are per-node n-vectors in transformed coordinates
    (default all zeros); they are sliced into substates per the block layout.
    """
    tau, z = initial_arrays(ts, initial_estimates)
    return _arrays_to_states(tau, z, None, ts)


def source_step(j, state, y_j, ts, gains):
    """Source update for substate j; the source's index stays pinned at 0."""
    a_jj = ts.a_block(j, j)
    c_jj = ts.c_block(j, j)
    l_j = gains.gain(j)
    new = (a_jj - l_j @ c_jj) @ state.estimates[j]
    for q in range(1, j):
        if ts.block_dims[q - 1] == 0:
            continue
        new = new + (ts.a_block(j, q) - l_j @ ts.c_block(j, q)) @ state.estimates[q]
    new = new + l_j @ np.atleast_1d(y_j)
    return new


def select_donor(own_tau, neighbor_taus):
    """Donor choice among in-neighbors, given their freshness indices.

    ``neighbor_taus`` maps node id -> index.  A never-informed node takes the
    freshest informed neighbor; an informed node only accepts a strictly
    fresher one.  Ties break toward the smallest node id.
    """
    informed = {l: m for l, m in neighbor_taus.items() if m is not OMEGA}
    if own_tau is not OMEGA:
        informed = {l: m for l, m in informed.items() if m < own_tau}
    if not informed:
        return None
    return min(informed, key=lambda l: (informed[l], l))


def nonsource_step(j, state, donor, donor_estimate, ts):
    """Non-source update for substate j: adopt the donor or run open-loop.

    Cross-substate terms always use the node's own start-of-round estimates.
    Returns (new index, new estimate).
    """
    a_jj = ts.a_block(j, j)
    base = donor_estimate if donor is not None else state.estimates[j]
    new = a_jj @ base
    for q in range(1, j):
        if ts.block_dims[q - 1] == 0:
            continue
        new = new + ts.a_block(j, q) @ state.estimates[q]
    if donor is not None:
        return donor[1] + 1, new
    if state.taus[j] is OMEGA:
        return OMEGA, new
    return state.taus[j] + 1, new


def protocol_round(states, graph_k, measurements_k, ts, gains):
    """One synchronous round of the source and non-source update rules.

    ``measurements_k`` maps 1-indexed node id to its measurement at this round.
    All nodes read start-of-round snapshots; donor ids are recorded on the new
    states for lineage reconstruction.  This is ``ProtocolKernel.step`` over
    per-node states, for callers that hold ``NodeState`` lists.
    """
    kernel = ProtocolKernel(ts, gains)
    tau, z = _states_to_arrays(states, ts)
    y = kernel.source_outputs([measurements_k[i] for i in range(1, ts.n_nodes + 1)])
    tau, z, donors = kernel.step(tau, z, graph_k.adj, y)
    return _arrays_to_states(tau, z, donors, ts)


def check_delayed_form(trace, ts, j, k, i):
    """Residual of the delayed-error identity for node i, substate j, time k.

    A finite index tau means the estimate equals the source's estimate from
    tau rounds ago pushed through the substate dynamics, plus cross-substate
    feed-ins collected along the recorded donor lineage.  Returns the relative
    residual ||lhs - rhs|| / max(1, ||lhs||).
    """
    tau = trace.tau(k, i, j)
    if tau is OMEGA or tau == 0:
        return 0.0
    a_jj = ts.a_block(j, j)
    lhs = trace.estimate(k, i, j)
    rhs = np.linalg.matrix_power(a_jj, tau) @ trace.estimate(k - tau, j, j)

    # Walk the donor chain backwards: the node holding the lineage value at
    # time t+1 got it from its recorded donor during round t.
    node = i
    lineage = {}
    for t in range(k - 1, k - tau - 1, -1):
        lineage[t] = node
        donor = trace.donor(t, node, j)
        if donor is not OPEN_LOOP:
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
                a_jq @ trace.estimate(t, v, q))
    return float(np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs)))
