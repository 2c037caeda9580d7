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
coordinates.  A run starts with each source's own index at 0 and every
other at -1, and reads of the plant only the sources' outputs
y_j(k) = C_j x(k).
``ProtocolKernel`` advances a whole run in two passes of O(N^2 n) array
work per round.  The index pass reads only the graph: round by round, a
minimum over the in-neighbors' keys, each an index and a node id encoded in
one int64, picks the donors (`ProtocolKernel.choose_donors`, whose
docstring states the rules).  The estimate pass then follows the recorded
donors: one block-lower-triangular product and a source correction per
round.  The donors are 1-indexed node ids, with -1 for open-loop rounds.
The same -1 encodings run through ``Trace`` and the trace CSV, which holds
only this state (tau, donors, z) per round; error norms are derived from it.

The tests pin the passes to the per-node rules in ``tests/reference.py``,
and bit for bit to ``StepKernel.step`` there, which takes both rules one
round at a time.
"""

from __future__ import annotations

import numpy as np

# A donor key is tau * (N + 1) + the sender's 1-indexed id, a node's own key
# tau * (N + 1): one minimum then orders by index, ties by id, and keeps the
# node's own index against an equal one.  A never-informed index reads as
# _NEVER or above, above every real one.  Over H rounds the keys are exact
# for tau < 2**40 and (2**40 + H + 1)(N + 1) < 2**63; an index never exceeds
# the rounds run.
_NEVER = np.int64(2 ** 40)
_NOT_SENT = np.iinfo(np.int64).max


class ProtocolKernel:
    """The synchronous protocol rounds over the array state, for a fixed system.

    The block layout, the strictly-lower and block-diagonal parts of a_bar,
    and every source's gain and sensor rows are laid out once here.  ``ts``
    is in staircase form, as `TransformedSystem.of` gives it: each source's
    correction reads its c_bar row whole, so c_bar[j] must be 0.0 past
    block j.
    """

    def __init__(self, ts, gains):
        off = ts.offsets
        n_nodes, n = ts.n_nodes, ts.n
        self.n_nodes = n_nodes
        # The source of each substate column, and each source's own slot.
        self.sources = np.flatnonzero(np.asarray(ts.block_dims) > 0)
        self._own = (self.sources, np.arange(self.sources.size))
        self._own_rows = np.arange(n_nodes)[:, None]
        # (h + 1) * _key_step is the own key after holding index h: a
        # source's is 0 whatever it held.
        self._key_step = np.full((n_nodes, self.sources.size), n_nodes + 1)
        self._key_step[self._own] = 0
        self._ids = np.arange(1, n_nodes + 1)[:, None]
        # Each state column's block (its source node) and substate column.
        self._col_block = np.repeat(np.arange(n_nodes), ts.block_dims)
        self._col_slot = np.searchsorted(self.sources, self._col_block)
        self._cols = np.arange(n)
        lower = self._col_block[:, None] > self._col_block[None, :]
        diag = self._col_block[:, None] == self._col_block[None, :]
        self._a_lower_t = np.where(lower, ts.a_bar, 0.0).T.copy()
        self._a_diag_t = np.where(diag, ts.a_bar, 0.0).T.copy()
        # Source j's correction L_j (C_j z_j - y_j), for every source at
        # once: stacked sensor rows, 0.0 past block j in the staircase form,
        # and the gains scattered into the rows of their own blocks.
        c_rows, l_cols, owner = [], [], []
        for j in self.sources:
            c_j = ts.c_bar[j]
            l_pad = np.zeros((n, c_j.shape[0]))
            l_pad[off[j]:off[j + 1]] = gains.gain(j + 1)
            c_rows.append(c_j)
            l_cols.append(l_pad)
            owner += [j] * c_j.shape[0]
        self._c_rows = np.vstack(c_rows)
        self._l_cols = np.hstack(l_cols)
        self._row_owner = np.array(owner)

    def choose_donors(self, own, adjacency, out):
        """One round's donor choice over the own keys ``own``; write it to ``out``.

        ``own`` is N x S: each node's own key tau * (N + 1) at the start of
        the round, a never-informed index reading as at least ``_NEVER``.
        ``adjacency[l, i]`` is true when node l+1 sends to node i+1 this
        round.  ``out`` gets the held key, index * (N + 1) + donor id: the
        minimum of the node's own key and the in-neighbors' keys (see
        ``_NEVER``), so the donor id is 0 when the node keeps its own.

        These are the rules.  For substate j a node adopts the freshest
        informed in-neighbor (if informed itself, only a strictly fresher
        one), ties going to the smallest node id: its index + 1 and
        A_jj z_donor[j].  With no such donor it runs open-loop on A_jj z_i[j],
        its index + 1 or still -1.  The cross terms A_jq z_i[q], q < j, are
        always the node's own.  Source j keeps index 0 and adds the
        correction -L_j (C_j z_j - y_j).  `index_pass` applies this choice
        and the index rules, `estimate_pass` the estimate rules along the
        donors it recorded.
        """
        keys = own + self._ids
        # sent[i, l, c] is node l+1's key for substate column c, as node i+1
        # sees it: a zero-stride view of keys along i, made directly because
        # np.broadcast_to costs about as much as the reduction at N = 10.
        sent = np.ndarray((self.n_nodes,) + keys.shape, keys.dtype, keys, 0,
                          (0,) + keys.strides)
        best = np.minimum.reduce(sent, axis=1, where=adjacency.T[:, :, None],
                                 initial=_NOT_SENT)
        np.minimum(best, own, out=out)

    def index_pass(self, adjacency, taus, donors, chunk):
        """Fill ``taus[1:]`` and ``donors[1:]`` from ``taus[0]`` over the
        (H, N, N) ``adjacency``, by `choose_donors`, in place.

        Each node's own keys are carried from round to round: a held key
        h * (N + 1) + d gives the next own key (h + 1)(N + 1), a source's 0.
        A never-informed key grows with them and stays above every real one.
        The held keys go straight into ``donors``, which every ``chunk``
        rounds are decoded in place into indices (-1 for never informed, 0
        for a source) and donor ids (-1 for the node's own).
        """
        m = self.n_nodes + 1
        own = taus[0] % (_NEVER + 1) * m      # -1 reads as _NEVER
        horizon = len(adjacency)
        for k0 in range(0, horizon, chunk):
            k1 = min(k0 + chunk, horizon)
            for k in range(k0, k1):
                held = donors[k + 1]
                self.choose_donors(own, adjacency[k], held)
                np.floor_divide(held, m, out=own)
                own += 1
                own *= self._key_step
            t, d = taus[k0 + 1:k1 + 1], donors[k0 + 1:k1 + 1]
            np.divmod(d, m, out=(t, d))
            t[t >= _NEVER] = -2
            t += 1
            t[:, self._own[0], self._own[1]] = 0
            d[d == 0] = -1

    def estimate_pass(self, donors, outputs, zs, chunk):
        """Fill ``zs[1:]`` from ``zs[0]`` along the recorded ``donors``, in place.

        ``donors[k + 1]`` is round k's (from `index_pass`).  ``outputs[k]``
        is its sources' outputs y_j = C_j x(k) side by side: the sources' rows,
        in substate order.  A round is z A_lower^T + B A_diag^T, where each
        block of B is the donor's row or the node's own, less the sources'
        corrections.  Each ``chunk`` of rounds takes its flat gather
        indices into z from the donors in one array step.
        """
        n = zs.shape[2]
        horizon = len(zs) - 1
        for k0 in range(0, horizon, chunk):
            k1 = min(k0 + chunk, horizon)
            d = donors[k0 + 1:k1 + 1]
            # gather[c, col, i] is the flat position in z of node i+1's
            # reading of state column col: its donor's row or its own.
            reader = np.where(d > 0, d - 1, self._own_rows).transpose(0, 2, 1)
            gather = reader[:, self._col_slot] * n + self._cols[:, None]
            for k in range(k0, k1):
                z, new = zs[k], zs[k + 1]
                # Column-major: BLAS's summation order depends on the layout,
                # and the runs' bits are pinned to this one.
                base = z.take(gather[k - k0]).T
                np.matmul(z, self._a_lower_t, out=new)
                new += base @ self._a_diag_t
                owners = z.take(self._row_owner, axis=0)
                resid = np.einsum("rc,rc->r", self._c_rows, owners) - outputs[k]
                np.subtract.at(new, (self._col_block, self._cols), self._l_cols @ resid)
