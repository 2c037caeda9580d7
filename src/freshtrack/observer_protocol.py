"""The freshness-index distributed observer.

Each node keeps, per substate, an estimate and a freshness index: the age, in
rounds, of its information relative to the substate's source node, or -1 when
the node has never been informed.  Rounds are strictly synchronous: every
right-hand-side quantity is a start-of-round snapshot.

A run holds the whole network's state as two arrays.  ``tau`` is N x S int,
one column per substate, that is per nonempty block in node order (a
zero-dimension block has no substate and no column): ``tau[i, c]`` is node
i+1's index for the c-th substate, with -1 for never informed.  ``z`` is
N x n: row i is node i+1's estimate of every substate in transformed
coordinates.
``ProtocolKernel.step`` advances both by one round in O(N^2 n) array work: a
minimum over the in-neighbors' keys, each an index and a node id encoded in
one int64, picks the donors, then one block-lower-triangular product and a
source correction update the estimates.
It returns the donors as 1-indexed node ids, with -1 for open-loop rounds.
The same -1 encodings run through ``Trace`` and the trace CSV, which holds
only this state (tau, donors, z) per round; error norms are derived from it.

The tests pin ``ProtocolKernel.step`` to the per-node rules in ``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np

# A donor key is tau * (N + 1) + the sender's 1-indexed id, a node's own key
# tau * (N + 1): one minimum then orders by index, ties by id, and keeps the
# node's own index against an equal one.  A never-informed index reads as
# _NEVER, above every real one.  The keys are exact for tau < 2**40 and
# (2**40 + 1)(N + 1) < 2**63; an index never exceeds the rounds run.
_NEVER = np.int64(2 ** 40)
_NOT_SENT = np.iinfo(np.int64).max


class ProtocolKernel:
    """One synchronous protocol round over the array state, for a fixed system.

    The block layout, the strictly-lower and block-diagonal parts of a_bar,
    and every source's gain and sensor rows are laid out once here.
    """

    def __init__(self, ts, gains):
        off = ts.offsets
        n_nodes, n = ts.n_nodes, ts.n
        self.n_nodes = n_nodes
        # The source of each substate column, and each source's own slot.
        self.sources = np.flatnonzero(np.asarray(ts.block_dims) > 0)
        self._own = (self.sources, np.arange(self.sources.size))
        self._own_rows = np.arange(n_nodes)[:, None]
        self._ids = np.arange(1, n_nodes + 1)[:, None]
        # Each state column's block (its source node) and substate column.
        self._col_block = np.repeat(np.arange(n_nodes), ts.block_dims)
        self._col_slot = np.searchsorted(self.sources, self._col_block)
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
        ``y`` is this round's ``source_outputs``; all else is start-of-round
        state.  For substate j a node adopts the freshest informed in-neighbor
        (if informed itself, only a strictly fresher one), ties going to the
        smallest node id: its index + 1 and A_jj z_donor[j].  With no such
        donor it runs open-loop on A_jj z_i[j], its index + 1 or still -1.
        The cross terms A_jq z_i[q], q < j, are always the node's own.  Source
        j keeps index 0 and adds the correction -L_j (C_j z_j - y_j).

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


def initial_arrays(ts, z0=None):
    """Start-of-run (tau, z): each source's own index is 0, all others -1.

    ``z0`` holds per-node n-vectors in transformed coordinates (default all
    zeros).
    """
    n_nodes = ts.n_nodes
    sources = np.flatnonzero(np.asarray(ts.block_dims) > 0)
    tau = np.full((n_nodes, sources.size), -1, dtype=np.int64)
    tau[sources, np.arange(sources.size)] = 0
    if z0 is None:
        return tau, np.zeros((n_nodes, ts.n))
    return tau, np.array(z0, dtype=float).reshape(n_nodes, ts.n)
